"""The unramified extension ring O_K / p^m O_K over Z/p^m.

The ring is the polynomial quotient (Z/p^m)[X] / (f) where f is the
monic lift of the residue-field modulus with coefficients taken
literally in {0, ..., p-1}.  Reduction mod p lands back on F_{p^N}, and
the p-power map permutes the p^N fixed points of sigma^N, which are the
multiplicative lifts of the residue-field elements.

The ring and its elements are padicspec.finite_field's ExtRing and
ExtScalar, with F_{p^N} the ring at m = 1.  This module holds the
Teichmuller lift from ring.at(1) to ring.at(m), the fixed points of
powers of sigma, and reduction mod p of scalars and matrices.
"""

from __future__ import annotations

import itertools
import math

# ext_ring is read from this module too: perfbench clears its cache and traces it here
from .finite_field import ExtScalar, ext_ring, finite_field  # noqa: F401
from .padic import PadicScalar, _check_period, _teichmuller_residue


def teichmuller_lift_ext(a: ExtScalar, m: int) -> ExtScalar:
    """Lift a residue-field element to the fixed point of sigma^N mod p^m (see _teichmuller_residue)."""
    ring = a.ring.at(m)
    return ring.element(_teichmuller_residue(a.coords, ring.ops))


def enumerate_teichmuller(p: int, degree: int, m: int) -> list:
    """All p^N fixed points of sigma^N in O_K/p^m, one per residue-field element.

    Ordered by the coordinates of the reduction (constant coordinate
    slowest), so the output is deterministic: sigma_fixed_points at
    period N.
    """
    return sigma_fixed_points(p, degree, degree, m)


def sigma_fixed_points(p: int, ring_degree: int, period: int, m: int) -> list:
    """Fixed points of sigma^period inside the degree-ring_degree ring.

    They lift the subfield F_{p^g}, g = gcd(period, ring_degree), of the
    residue field, which is enumerated directly: the relative trace
    Tr(a) = sum_j a^(p^(g j)), j < ring_degree / g, maps F_{p^ring_degree}
    onto F_{p^g}, so the traces of the power basis span it over F_p.  The
    output is ordered by the coordinates of the reduction, as the field
    enumerates them.

    The census of these sets realises the divisibility law: the period-N
    set sits inside the period-N* set exactly when N divides N*.  Sets
    for different periods are comparable here because they live in one
    common ring.
    """
    _check_period(period)
    field = finite_field(p, ring_degree)
    g = math.gcd(period, ring_degree)
    basis = []  # echelon rows: each is zero at the pivots of the rows before it
    for i in range(ring_degree):
        term = field.element([int(j == i) for j in range(ring_degree)])
        trace = term
        for _ in range(ring_degree // g - 1):
            term = term ** (p**g)
            trace = trace + term
        row = list(trace.coords)
        for pivot, prev in basis:
            row = [(a - row[pivot] * b) % p for a, b in zip(row, prev)]
        if any(row):
            pivot = next(j for j, c in enumerate(row) if c)
            inv = pow(row[pivot], -1, p)
            basis.append((pivot, [(c * inv) % p for c in row]))
    fixed = sorted(
        tuple(sum(c * row[j] for c, (_, row) in zip(combo, basis)) % p for j in range(ring_degree))
        for combo in itertools.product(range(p), repeat=len(basis))
    )
    return [teichmuller_lift_ext(field.element(coords), m) for coords in fixed]


def reduce_mod_p(x):
    """Reduction modulo p of an integral scalar or matrix.

    Base scalars map to residues in F_p (as ints), extension scalars to
    their residue-field element, matrices to tuples of reduced entries.
    Rejects inputs of norm > 1.
    """
    if isinstance(x, PadicScalar):
        if not x.is_zero and x.valuation < 0:
            raise ValueError("cannot reduce a scalar of norm > 1")
        return x.residue() % x.ctx.p
    if isinstance(x, ExtScalar):
        return x.reduction()
    rows = getattr(x, "rows", None)
    if rows is not None:
        return tuple(tuple(reduce_mod_p(entry) for entry in row) for row in rows)
    raise TypeError(f"cannot reduce object of type {type(x).__name__}")
