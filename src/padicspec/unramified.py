"""The unramified extension ring O_K / p^m O_K over Z/p^m.

The ring is the polynomial quotient (Z/p^m)[X] / (f) where f is the
monic lift of the residue-field modulus with coefficients taken
literally in {0, ..., p-1}.  Reduction mod p lands back on F_{p^N}, and
the p-power map permutes the p^N fixed points of sigma^N, which are the
multiplicative lifts of the residue-field elements.

Elements carry the sup-of-coordinates norm: |a| = max_i |coords_i|.  It
is submultiplicative, ultrametric, and equals 1 exactly when the
reduction mod p is nonzero.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .finite_field import ENUMERATION_LIMIT, FqElement, finite_field
from .padic import INFINITE, PadicScalar, PrecisionContext, norm_from_valuation


@functools.lru_cache(maxsize=None)
def ext_ring(p: int, degree: int, m: int) -> "ExtRing":
    return ExtRing(PrecisionContext(p, m), degree)


class ExtRing:
    """Shared tables for one extension ring (Z/p^m)[X]/(f)."""

    def __init__(self, ctx: PrecisionContext, degree: int):
        self.ctx = ctx
        self.degree = degree
        self.residue_field = finite_field(ctx.p, degree)
        self.modulus = self.residue_field.modulus  # literal lift, constant-first
        # X^(degree+j) mod f as coordinate vectors mod p^m, j = 0 .. degree-2
        q = ctx.modulus
        top = [(-c) % q for c in self.modulus[:degree]]
        table = [tuple(top)]
        for _ in range(degree - 2):
            prev = table[-1]
            shifted = [0] + list(prev[:-1])
            carry = prev[-1]
            if carry:
                shifted = [(shifted[i] + carry * top[i]) % q for i in range(degree)]
            table.append(tuple(shifted))
        self._power_table = table

    # -- residue-vector arithmetic (coordinates in Z/p^m) --------------

    def vec_add(self, a: Sequence[int], b: Sequence[int]) -> tuple:
        q = self.ctx.modulus
        return tuple((x + y) % q for x, y in zip(a, b))

    def vec_sub(self, a: Sequence[int], b: Sequence[int]) -> tuple:
        q = self.ctx.modulus
        return tuple((x - y) % q for x, y in zip(a, b))

    def vec_neg(self, a: Sequence[int]) -> tuple:
        q = self.ctx.modulus
        return tuple((-x) % q for x in a)

    def vec_mul(self, a: Sequence[int], b: Sequence[int]) -> tuple:
        n = self.degree
        q = self.ctx.modulus
        conv = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                conv[i + j] = (conv[i + j] + ai * bj) % q
        out = conv[:n]
        for j in range(n, 2 * n - 1):
            cj = conv[j]
            if cj == 0:
                continue
            row = self._power_table[j - n]
            for i in range(n):
                out[i] = (out[i] + cj * row[i]) % q
        return tuple(out)

    def vec_pow(self, a: Sequence[int], exponent: int) -> tuple:
        result = self.one_vec()
        acc = tuple(a)
        e = exponent
        while e:
            if e & 1:
                result = self.vec_mul(result, acc)
            acc = self.vec_mul(acc, acc)
            e >>= 1
        return result

    def vec_inverse(self, a: Sequence[int]) -> tuple:
        """Invert a unit (nonzero reduction) by Newton iteration from F_q."""
        red = self.reduce_vec(a)
        if red.is_zero:
            raise ZeroDivisionError("element is not a unit in O_K/p^m")
        b = tuple(c % self.ctx.modulus for c in red.inverse().coords)
        one = self.one_vec()
        for _ in range(self.ctx.m.bit_length() + 2):
            prod = self.vec_mul(a, b)
            if prod == one:
                return b
            # b <- b * (2 - a b)
            corr = self.vec_sub(self.vec_add(one, one), prod)
            b = self.vec_mul(b, corr)
        if self.vec_mul(a, b) == one:
            return b
        raise RuntimeError("unit inversion failed to converge (internal defect)")

    def zero_vec(self) -> tuple:
        return (0,) * self.degree

    def one_vec(self) -> tuple:
        return (1,) + (0,) * (self.degree - 1)

    def embed_residue(self, r: int) -> tuple:
        return (r % self.ctx.modulus,) + (0,) * (self.degree - 1)

    def reduce_vec(self, a: Sequence[int]) -> FqElement:
        return self.residue_field.element([c % self.ctx.p for c in a])

    def lift_vec(self, a: FqElement) -> tuple:
        return tuple(int(c) for c in a.coords)

    # -- public element constructors -----------------------------------

    def element(self, coords: Sequence[int]) -> "ExtScalar":
        return ExtScalar.from_vector(self, coords)

    def zero(self) -> "ExtScalar":
        return ExtScalar.from_vector(self, self.zero_vec())

    def one(self) -> "ExtScalar":
        return ExtScalar.from_vector(self, self.one_vec())

    def embed(self, x) -> "ExtScalar":
        """Embed an integer or integral PadicScalar as a constant."""
        if isinstance(x, PadicScalar):
            return ExtScalar.from_vector(self, self.embed_residue(x.residue()))
        return ExtScalar.from_vector(self, self.embed_residue(int(x)))

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


@dataclass(frozen=True)
class ExtScalar:
    """Element of O_K/p^m as degree-N coordinates over PadicScalar."""

    ring: ExtRing
    coords: tuple

    @classmethod
    def from_vector(cls, ring: ExtRing, coords: Sequence[int]) -> "ExtScalar":
        ctx = ring.ctx
        scalars = tuple(PadicScalar.from_residue(c, ctx) for c in coords)
        if len(scalars) != ring.degree:
            raise ValueError("coordinate vector has wrong length")
        return cls(ring, scalars)

    @property
    def ctx(self) -> PrecisionContext:
        return self.ring.ctx

    def vector(self) -> tuple:
        return tuple(c.residue() for c in self.coords)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coords)

    @property
    def valuation(self):
        return min((c.valuation for c in self.coords), default=INFINITE)

    @property
    def norm(self) -> float:
        return norm_from_valuation(self.ctx.p, self.valuation)

    def _check(self, other: "ExtScalar"):
        if self.ring != other.ring:
            raise ValueError("mixed extension rings")

    def __add__(self, other: "ExtScalar") -> "ExtScalar":
        self._check(other)
        return ExtScalar.from_vector(self.ring, self.ring.vec_add(self.vector(), other.vector()))

    def __sub__(self, other: "ExtScalar") -> "ExtScalar":
        self._check(other)
        return ExtScalar.from_vector(self.ring, self.ring.vec_sub(self.vector(), other.vector()))

    def __neg__(self) -> "ExtScalar":
        return ExtScalar.from_vector(self.ring, self.ring.vec_neg(self.vector()))

    def __mul__(self, other: "ExtScalar") -> "ExtScalar":
        self._check(other)
        return ExtScalar.from_vector(self.ring, self.ring.vec_mul(self.vector(), other.vector()))

    def __truediv__(self, other: "ExtScalar") -> "ExtScalar":
        self._check(other)
        return ExtScalar.from_vector(
            self.ring, self.ring.vec_mul(self.vector(), self.ring.vec_inverse(other.vector()))
        )

    def __pow__(self, exponent: int) -> "ExtScalar":
        if exponent < 0:
            inv = self.ring.vec_inverse(self.vector())
            return ExtScalar.from_vector(self.ring, self.ring.vec_pow(inv, -exponent))
        return ExtScalar.from_vector(self.ring, self.ring.vec_pow(self.vector(), exponent))

    def reduction(self) -> FqElement:
        return self.ring.reduce_vec(self.vector())

    def congruent(self, other: "ExtScalar") -> bool:
        self._check(other)
        return self.vector() == other.vector()

    def shift(self, k: int) -> "ExtScalar":
        """Multiply by p^k in O_K/p^m; k < 0 needs p^-k to divide every coordinate."""
        return ExtScalar.from_vector(self.ring, [c.shift(k).residue() for c in self.coords])

    def __repr__(self):
        return f"ExtScalar{self.vector()}@{self.ring!r}"

    # -- sigma-orbit protocol ------------------------------------------

    def sigma_window(self, period: int = 1) -> "ExtScalar":
        return ExtScalar.from_vector(
            self.ring, self.ring.vec_pow(self.vector(), self.ctx.p**period)
        )

    def residue_key(self) -> tuple:
        return self.vector()


def teichmuller_lift_ext(a: FqElement, m: int) -> ExtScalar:
    """Lift a residue-field element to the fixed point of sigma^N mod p^m.

    Iterates y <- y^(p^N) from the literal coordinate lift; stabilises in
    at most m steps.
    """
    ring = ext_ring(a.field.p, a.field.degree, m)
    q = a.field.p**a.field.degree
    y = ring.lift_vec(a)
    for _ in range(ring.ctx.budget(a.field.degree)):
        nxt = ring.vec_pow(y, q)
        if nxt == y:
            return ExtScalar.from_vector(ring, y)
        y = nxt
    raise RuntimeError("extension lift failed to stabilise (internal defect)")


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
