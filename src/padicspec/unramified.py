"""The unramified extension ring O_K / p^m O_K over Z/p^m.

The ring is the polynomial quotient (Z/p^m)[X] / (f) where f is the
monic lift of the residue-field modulus with coefficients taken
literally in {0, ..., p-1}.  Reduction mod p lands back on F_{p^N}, and
the p-power map permutes the p^N fixed points of sigma^N, which are the
multiplicative lifts of the residue-field elements.

ExtRing is the ring handle of O_K/p^m, as padic.PrecisionContext is of
Z/p^m: ops is its coordinate arithmetic, an _ExtOps from
padicspec.finite_field (the same class that is F_{p^N} at m = 1) whose
ring is the ExtRing; element builds the ExtScalar of a coordinate
vector, at is the ring at another precision, random_entry draws an
entry of a given valuation, and ctx is the base context Z/p^m.
An extension scalar is its coordinate vector: ExtScalar.coords is the
canonical int vector mod p^m that ops computes on, as FqElement.coords
is over F_{p^N}, so each ExtScalar operator is one ops call and a
residue row wraps and unwraps without conversion.

Elements carry the sup-of-coordinates norm: |a| = max_i |coords_i|.  It
is submultiplicative, ultrametric, and equals 1 exactly when the
reduction mod p is nonzero.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Sequence

from .finite_field import ENUMERATION_LIMIT, FqElement, _ExtOps, finite_field
from .padic import (
    PadicScalar,
    PrecisionContext,
    _Frozen,
    _setattr,
    _teichmuller_residue,
    norm_from_valuation,
)


@functools.lru_cache(maxsize=None)
def ext_ring(p: int, degree: int, m: int) -> "ExtRing":
    return ExtRing(PrecisionContext(p, m), degree)


class ExtRing:
    """One extension ring (Z/p^m)[X]/(f); its coordinate arithmetic is ops."""

    def __init__(self, ctx: PrecisionContext, degree: int):
        self.ctx = ctx
        self.degree = degree
        self.residue_field = finite_field(ctx.p, degree)
        self.modulus = self.residue_field.modulus  # literal lift, constant-first
        self.ops = _ExtOps(ctx.p, ctx.m, self.modulus)
        self.ops.ring = self

    def element(self, coords: Sequence[int]) -> "ExtScalar":
        return ExtScalar.from_vector(self, coords)

    def at(self, m: int) -> "ExtRing":
        return self if m == self.ctx.m else ext_ring(self.ctx.p, self.degree, m)

    def random_entry(self, rng, v: int) -> "ExtScalar":
        """p^v u for a unit u whose coordinates are drawn uniformly mod p^m; 0 <= v."""
        p, q = self.ctx.p, self.ctx.modulus
        coords = [rng.randrange(q) for _ in range(self.degree)]
        while all(c % p == 0 for c in coords):
            coords = [rng.randrange(q) for _ in range(self.degree)]
        scale = p**v
        return self.element([c * scale for c in coords])

    def zero(self) -> "ExtScalar":
        return ExtScalar.from_vector(self, self.ops.zero)

    def one(self) -> "ExtScalar":
        return ExtScalar.from_vector(self, self.ops.one)

    def embed(self, x) -> "ExtScalar":
        """Embed an integer or integral PadicScalar as a constant."""
        r = x.residue() if isinstance(x, PadicScalar) else int(x)
        return ExtScalar.from_vector(self, (r,) + self.ops.zero[1:])

    def __eq__(self, other):
        return (
            isinstance(other, ExtRing)
            and self.ctx == other.ctx
            and self.degree == other.degree
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.m, self.degree, self.modulus))

    def __repr__(self):
        return f"ExtRing(p={self.ctx.p}, degree={self.degree}, m={self.ctx.m})"


class ExtScalar(_Frozen):
    """Element of O_K/p^m as its coordinate vector mod p^m, the entry its ring's ops compute on."""

    __slots__ = _fields = _compare = ("ring", "coords")

    def __init__(self, ring: ExtRing, coords: tuple):
        _setattr(self, "ring", ring)
        _setattr(self, "coords", coords)

    @classmethod
    def from_vector(cls, ring: ExtRing, coords: Sequence[int]) -> "ExtScalar":
        """The element of degree-many int coordinates, each taken mod p^m."""
        q = ring.ctx.modulus
        coords = tuple([c % q for c in coords])
        if len(coords) != ring.degree:
            raise ValueError("coordinate vector has wrong length")
        return cls(ring, coords)

    @property
    def ctx(self) -> PrecisionContext:
        return self.ring.ctx

    def vector(self) -> tuple:
        return self.coords

    @property
    def is_zero(self) -> bool:
        return self.ring.ops.is_zero(self.coords)

    @property
    def valuation(self):
        return self.ring.ops.valuation(self.coords)

    @property
    def norm(self) -> float:
        return norm_from_valuation(self.ctx.p, self.valuation)

    def _check(self, other: "ExtScalar"):
        if self.ring != other.ring:
            raise ValueError("mixed extension rings")

    def __add__(self, other: "ExtScalar") -> "ExtScalar":
        self._check(other)
        return ExtScalar(self.ring, self.ring.ops.add(self.coords, other.coords))

    def __sub__(self, other: "ExtScalar") -> "ExtScalar":
        self._check(other)
        return ExtScalar(self.ring, self.ring.ops.sub(self.coords, other.coords))

    @staticmethod
    def dot(xs: Sequence["ExtScalar"], ys: Sequence["ExtScalar"]) -> "ExtScalar":
        """sum_i xs[i] * ys[i] in one ring dot product: exact, so equal to reduce(+, map(*))."""
        ring = xs[0].ring
        for z in itertools.chain(xs, ys):
            if z.ring is not ring:
                xs[0]._check(z)
        return ExtScalar(ring, ring.ops.dot([x.coords for x in xs], [y.coords for y in ys]))

    def __neg__(self) -> "ExtScalar":
        return ExtScalar(self.ring, self.ring.ops.neg(self.coords))

    def __mul__(self, other: "ExtScalar") -> "ExtScalar":
        self._check(other)
        return ExtScalar(self.ring, self.ring.ops.mul(self.coords, other.coords))

    def __truediv__(self, other: "ExtScalar") -> "ExtScalar":
        self._check(other)
        ops = self.ring.ops
        return ExtScalar(self.ring, ops.mul(self.coords, ops.inv_unit(other.coords)))

    def __pow__(self, exponent: int) -> "ExtScalar":
        ops = self.ring.ops
        if exponent < 0:
            return ExtScalar(self.ring, ops.pow(ops.inv_unit(self.coords), -exponent))
        return ExtScalar(self.ring, ops.pow(self.coords, exponent))

    def reduction(self) -> FqElement:
        return self.ring.residue_field.element(self.coords)

    def congruent(self, other: "ExtScalar") -> bool:
        self._check(other)
        return self.coords == other.coords

    def shift(self, k: int) -> "ExtScalar":
        """Multiply by p^k in O_K/p^m; k < 0 needs p^-k to divide every coordinate."""
        p, q = self.ctx.p, self.ctx.modulus
        if k >= 0:
            scale = pow(p, k, q)
            return ExtScalar(self.ring, tuple([c * scale % q for c in self.coords]))
        if self.valuation < -k:
            raise ValueError("scalar has norm > 1, no residue mod p^m")
        return ExtScalar(self.ring, tuple([c // p**-k for c in self.coords]))

    def __repr__(self):
        return f"ExtScalar{self.coords}@{self.ring!r}"

    # -- sigma-orbit protocol ------------------------------------------

    def sigma_window(self, period: int = 1) -> "ExtScalar":
        return self ** self.ctx.p**period

    def residue_key(self) -> tuple:
        return self.coords

    def residue_orbit(self) -> tuple:
        """The coordinates, sigma on them, the scalar of a vector, the zero test and the degree.

        What classify_orbit walks (see padic.scan_orbit).
        """
        ring = self.ring
        step = functools.partial(ring.ops.pow, exponent=self.ctx.p)
        return self.coords, step, ring.element, ring.ops.is_zero, ring.degree


def teichmuller_lift_ext(a: FqElement, m: int) -> ExtScalar:
    """Lift a residue-field element to the fixed point of sigma^N mod p^m (see _teichmuller_residue)."""
    ring = ext_ring(a.field.p, a.field.degree, m)
    return ring.element(_teichmuller_residue(a.coords, ring.ops))


def enumerate_teichmuller(p: int, degree: int, m: int) -> list:
    """All p^N fixed points of sigma^N in O_K/p^m, one per residue-field element.

    Ordered by the coordinates of the reduction (constant coordinate
    slowest), so the output is deterministic.
    """
    if p**degree > ENUMERATION_LIMIT:
        raise ValueError(f"p^N = {p**degree} exceeds the enumeration bound {ENUMERATION_LIMIT}")
    field = finite_field(p, degree)
    return [teichmuller_lift_ext(a, m) for a in field.elements()]


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
    if p**ring_degree > ENUMERATION_LIMIT:
        raise ValueError(
            f"p^degree = {p**ring_degree} exceeds the enumeration bound {ENUMERATION_LIMIT}"
        )
    field = finite_field(p, ring_degree)
    g = math.gcd(period, ring_degree)
    basis = []  # echelon rows: each is zero at the pivots of the rows before it
    for i in range(ring_degree):
        term = field.element([0] * i + [1])
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
