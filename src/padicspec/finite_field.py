"""Arithmetic in F_p, the unramified rings (Z/p^m)[X]/(f), and F_{p^N} as their m = 1 case.

This module is the one home of polynomial and coordinate arithmetic.
Polynomials are lists of coefficients, constant first, with no trailing
zeros; the coefficients are entries of a residue ops protocol (ints
under padic._BaseOps, coordinate vectors under _ExtOps), so the same
helpers, the Rabin irreducibility test and both root finders serve F_p
and F_{p^N} alike.  A split polynomial over a small field is deflated by
a scan of its elements (_scan_roots, O(q deg f) for q elements); above
SCAN_PER_DEGREE * deg f elements, Cantor-Zassenhaus splitting
(poly_roots) is faster.

_ExtOps is the coordinate arithmetic of (Z/p^m)[X]/(f) for a monic f of
degree N, the lexicographically smallest monic irreducible of that
degree over F_p (build_modulus), taken literally mod p^m.  ExtRing is the
ring handle of O_K/p^m, a frozen value of its context and degree, as
padic.PrecisionContext is of Z/p^m: ops is its _ExtOps, whose ring is
the ExtRing; element builds the ExtScalar of a coordinate vector, at is
the ring at another precision, random_entry draws an entry of a given
valuation, and ctx is the base context Z/p^m.  Every ops object is built
by its ring, and only there: F_p's is PrecisionContext(p, 1).ops.  One
ring class and one element class serve every precision: the field
F_{p^N} is finite_field(p, N) = ext_ring(p, N, 1), so reduction mod p is
the change of precision ring.at(1), the only handle of the residue
field, and FqElement is another name for ExtScalar.  An ExtScalar is its
coordinate vector: coords is the canonical int vector mod p^m that ops
computes on (constant coefficient first), so each operator is one ops
call and a residue row wraps and unwraps without conversion.  Elements
carry the sup-of-coordinates norm, |a| = max_i |coords_i|: it is
submultiplicative, ultrametric, and equals 1 exactly when the reduction
mod p is nonzero.  The p-power map of F_{p^N} is a field automorphism of
order dividing N, and the fixed field of its d-th power has exactly
p^gcd(d, N) elements.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterator, Sequence

from .padic import (
    INFINITE,
    PadicScalar,
    PrecisionContext,
    _check_period,
    _Frozen,
    _packed_matmul,
    _power,
    _setattr,
    int_valuation,
    is_prime,
    norm_from_valuation,
)

ENUMERATION_LIMIT = 2**20  # p^N cap for exhaustive operations


# -- polynomials over an ops protocol -----------------------------------------


def poly_trim(a: list, ops) -> list:
    while a and ops.is_zero(a[-1]):
        a.pop()
    return a


def poly_add(a, b, ops) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = ops.add(out[i], c)
    return poly_trim(out, ops)


def poly_mul(a, b, ops) -> list:
    if not a or not b:
        return []
    out = [ops.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = ops.add(out[i + j], ops.mul(x, y))
    return poly_trim(out, ops)


def poly_divmod(a, b, ops) -> tuple:
    """Quotient and remainder; a monic divisor skips inverting its lead."""
    rem = list(a)
    quo = [ops.zero] * max(0, len(a) - len(b) + 1)
    monic = b[-1] == ops.one
    inv_lead = None if monic else ops.inv_unit(b[-1])
    for shift in range(len(a) - len(b), -1, -1):
        coeff = rem[shift + len(b) - 1]
        if not monic:
            coeff = ops.mul(coeff, inv_lead)
        if ops.is_zero(coeff):
            continue
        quo[shift] = coeff
        for j, y in enumerate(b):
            rem[shift + j] = ops.sub(rem[shift + j], ops.mul(coeff, y))
    return poly_trim(quo, ops), poly_trim(rem, ops)


def poly_gcd(a, b, ops) -> list:
    """Monic gcd; a and b must not both be zero."""
    while b:
        a, b = b, poly_divmod(a, b, ops)[1]
    if a[-1] == ops.one:
        return list(a)
    inv = ops.inv_unit(a[-1])
    return [ops.mul(inv, c) for c in a]


def poly_powmod(base, exponent: int, modulus, ops) -> list:
    """base^exponent mod modulus by padic._power; [one] for exponent 0."""
    if not exponent:
        return [ops.one]

    def mulmod(a, b):
        return poly_divmod(poly_mul(a, b, ops), modulus, ops)[1]

    return _power(poly_divmod(base, modulus, ops)[1], exponent, mulmod)


def is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Rabin test: X^(p^N) = X mod f and gcd(X^(p^d) - X, f) = 1 for d | N, d < N."""
    n = len(poly) - 1
    if n < 1:
        return False
    ops = PrecisionContext(p, 1).ops
    f = list(poly)
    minus_x = [0, p - 1]
    for d in range(1, n):
        if n % d == 0:
            xq = poly_powmod([0, 1], p**d, f, ops)
            if len(poly_gcd(poly_add(xq, minus_x, ops), f, ops)) > 1:
                return False
    xq = poly_powmod([0, 1], p**n, f, ops)
    return poly_divmod(poly_add(xq, minus_x, ops), f, ops)[1] == []


def _split(h, delta, degree: int, ops) -> tuple:
    """Split h by the class of its roots lambda under the shift delta.

    Odd p: gcd(h, (X + delta)^((q-1)/2) - 1) keeps the roots where
    lambda + delta is a nonzero square in F_q.  p = 2: gcd(h, Tr(delta X))
    with Tr(y) = sum_{i<D} y^(2^i) keeps the roots where Tr(delta lambda)
    = 0.  Over all delta in F_q every two distinct roots fall in different
    classes (for odd p the (q-1)/2 nonzero squares are no union of cosets
    of an additive subgroup of order p; for p = 2 the trace form is
    nondegenerate), so a sweep over F_q splits h into linear factors.
    Returns h alone when delta does not split it.
    """
    if len(h) == 2:
        return (h,)
    if ops.p != 2:
        power = poly_powmod([delta, ops.one], (ops.p**degree - 1) // 2, h, ops)
        splitter = poly_add(power, [ops.neg(ops.one)], ops)
    else:
        term = poly_divmod([ops.zero, delta], h, ops)[1]
        splitter = term
        for _ in range(degree - 1):
            term = poly_divmod(poly_mul(term, term, ops), h, ops)[1]
            splitter = poly_add(splitter, term, ops)
    d = poly_gcd(h, splitter, ops)
    if 1 < len(d) < len(h):
        return d, poly_divmod(h, d, ops)[0]
    return (h,)


def poly_roots(f, order: int, degree: int, ops, deltas) -> list:
    """The distinct roots in F_order of a nonzero polynomial f over F_q, sorted.

    ops is the m = 1 protocol of F_q, q = p^degree, and deltas enumerates
    F_q; F_order must be a subfield of F_q.  The roots are those of
    gcd(f, X^order - X), split into linear factors deterministically
    (Cantor-Zassenhaus equal-degree splitting with the shift swept over
    F_q).
    """
    frobenius = poly_powmod([ops.zero, ops.one], order, f, ops)
    g = poly_gcd(f, poly_add(frobenius, [ops.zero, ops.neg(ops.one)], ops), ops)
    factors = [g] if len(g) > 1 else []
    for delta in deltas:
        if all(len(h) == 2 for h in factors):
            break
        factors = [part for h in factors for part in _split(h, delta, degree, ops)]
    if any(len(h) != 2 for h in factors):
        raise RuntimeError("equal-degree splitting left a nonlinear factor (internal defect)")
    return sorted(ops.neg(h[0]) for h in factors)


def _horner_divide(f, x, ops) -> tuple:
    """(quotient, remainder) of f by X - x, by Horner's rule; f must not be constant."""
    acc = f[-1]
    quo = [acc]
    for c in reversed(f[:-1]):
        acc = ops.add(c, ops.mul(x, acc))
        quo.append(acc)
    rem = quo.pop()
    quo.reverse()
    return quo, rem


# The root scan beats Cantor-Zassenhaus while q <= SCAN_PER_DEGREE * deg f, for q
# the number of field elements scanned (see CHANGES.md for the measured tables).
SCAN_PER_DEGREE = 128


def _scan_roots(f, elements, ops) -> list:
    """The distinct roots of a polynomial f that splits over the scanned field, in scan order.

    Walks the elements and divides f by X - x while the remainder is 0,
    recording each such x once, and stops as soon as f is constant: O(q
    deg f) field operations for q elements, fewer when the roots come
    early.  A scan that ends with deg f > 0 raises RuntimeError.  For
    the characteristic polynomial of a sigma^N-fixed matrix, which
    splits over the elements, that is a defect; for a matrix that is
    not fixed, spectral._spectral_tree turns it into its refusal.
    """
    roots = []
    for x in elements:
        if len(f) == 1:
            break
        quo, rem = _horner_divide(f, x, ops)
        if not ops.is_zero(rem):
            continue
        roots.append(x)
        while ops.is_zero(rem):
            f = quo
            if len(f) == 1:
                break
            quo, rem = _horner_divide(f, x, ops)
    if len(f) > 1:
        raise RuntimeError(
            f"root scan left a factor of degree {len(f) - 1} (internal defect)"
        )
    return roots


# -- coordinate arithmetic of (Z/p^m)[X]/(f) -----------------------------------


class _ExtOps:
    """Residue arithmetic on coordinate vectors of (Z/p^m)[X]/(f), f monic.

    The members are padic._BaseOps's, the one entry protocol, on
    coordinate vectors instead of ints; ring is the ExtRing that owns
    the ops, set by it.  The modulus f is taken literally mod p^m,
    constant coefficient first.  Unit inversion needs f irreducible mod
    p, so that the ring mod p is the field F_{p^N}: its units are
    exactly the vectors with a coordinate not divisible by p, and each
    unit a has a^(p^N - 1) = 1 there.
    """

    def __init__(self, p: int, m: int, modulus: Sequence[int]):
        self.p = p
        self.m = m
        self.q = q = p**m
        self.modulus = tuple(modulus)
        self.degree = n = len(modulus) - 1
        self.zero = (0,) * n
        self.one = (1,) + (0,) * (n - 1)
        # X^(n+j) mod f as coordinate vectors mod p^m, j = 0 .. n-2 (none at degree 1)
        top = tuple([(-c) % q for c in modulus[:n]])
        table = [top] if n > 1 else []
        while len(table) < n - 1:
            prev = table[-1]
            carry = prev[-1]
            table.append(tuple([(s + carry * t) % q for s, t in zip((0,) + prev[:-1], top)]))
        self._power_table = table

    def add(self, a, b):
        q = self.q
        return tuple((x + y) % q for x, y in zip(a, b))

    def sub(self, a, b):
        q = self.q
        return tuple((x - y) % q for x, y in zip(a, b))

    def neg(self, a):
        q = self.q
        return tuple((-x) % q for x in a)

    def mul(self, a, b):
        n = self.degree
        q = self.q
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

    def pow(self, a, exponent: int):
        """a^exponent by padic._power over mul, one for exponent 0; a is reduced mod p^m first."""
        return _power(tuple([c % self.q for c in a]), exponent, self.mul) if exponent else self.one

    def dot(self, xs, ys):
        """sum_i xs[i] * ys[i] for canonical coordinates: the 1 x k by k x 1 packed product."""
        return self.matmul((xs,), tuple((y,) for y in ys))[0][0] if xs else self.zero

    def packs(self, inner: int) -> bool:
        return True

    def matmul(self, a, b):
        """a * b for rows of canonical coordinate vectors (any shape), packed at every size."""
        return _packed_matmul(a, b, self.q, self.degree, self._power_table)

    def reduce(self, a):
        p = self.p
        return tuple(c % p for c in a)

    def valuation(self, a):
        return min((int_valuation(c, self.p) for c in a if c), default=INFINITE)

    def elements(self):
        return itertools.product(range(self.p), repeat=self.degree)

    def map_coords(self, rows: tuple, f) -> tuple:
        return tuple([tuple([tuple(map(f, e)) for e in row]) for row in rows])

    def rows_add(self, a: tuple, b: tuple) -> tuple:
        rmod, add = self.q.__rmod__, operator.add
        return tuple([
            tuple([tuple(map(rmod, map(add, x, y))) for x, y in zip(ra, rb)]) for ra, rb in zip(a, b)
        ])

    def rows_sub(self, a: tuple, b: tuple) -> tuple:
        rmod, sub = self.q.__rmod__, operator.sub
        return tuple([
            tuple([tuple(map(rmod, map(sub, x, y))) for x, y in zip(ra, rb)]) for ra, rb in zip(a, b)
        ])

    def rows_scale(self, c: int, rows: tuple) -> tuple:
        rmod, mul = self.q.__rmod__, c.__mul__
        return tuple([tuple([tuple(map(rmod, map(mul, e))) for e in row]) for row in rows])

    def rows_mul(self, c, rows: tuple) -> tuple:
        mul = functools.partial(self.mul, c)
        return tuple([tuple(map(mul, row)) for row in rows])

    def rows_are_zero(self, rows: tuple) -> bool:
        return not any(any(e) for row in rows for e in row)

    def is_zero(self, a):
        return not any(a)

    def is_unit(self, a):
        return any(c % self.p for c in a)

    def inv_unit(self, a):
        """Newton's b <- b (2 - a b) up to p^m from b = a^(p^N - 2), which is a^-1 mod p by Fermat."""
        if not self.is_unit(a):
            raise ZeroDivisionError("element is not a unit")
        b = self.pow(a, self.p**self.degree - 2)
        two = self.add(self.one, self.one)
        for _ in range(self.m.bit_length() + 2):
            prod = self.mul(a, b)
            if prod == self.one:
                return b
            b = self.mul(b, self.sub(two, prod))
        if self.mul(a, b) == self.one:
            return b
        raise RuntimeError("unit inversion failed to converge (internal defect)")


# -- the rings (Z/p^m)[X]/(f) and the fields F_{p^N} ------------------------------


@functools.lru_cache(maxsize=None)
def build_modulus(p: int, degree: int) -> tuple:
    """Lexicographically smallest monic irreducible of the given degree over F_p.

    Coefficients are returned constant-first including the leading 1, so
    X^2 + 1 over F_3 is (1, 0, 1).
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if p**degree > ENUMERATION_LIMIT:
        raise ValueError(f"p^N = {p**degree} exceeds the enumeration bound {ENUMERATION_LIMIT}")
    if degree == 1:
        return (0, 1)  # X itself
    ops = PrecisionContext(p, 1).ops
    for tail in itertools.product(range(p), repeat=degree):
        candidate = list(tail) + [1]
        # a root in F_p is a linear factor; Rabin certifies the survivor
        if any(_horner_divide(candidate, x, ops)[1] == 0 for x in range(p)):
            continue
        if is_irreducible(candidate, p):
            return tuple(candidate)
    raise RuntimeError("no irreducible polynomial found (internal defect)")


@functools.lru_cache(maxsize=None)
def ext_ring(p: int, degree: int, m: int) -> "ExtRing":
    return ExtRing(PrecisionContext(p, m), degree)


@functools.lru_cache(maxsize=None)
def finite_field(p: int, degree: int) -> "ExtRing":
    """F_{p^N}: the extension ring at precision 1."""
    return ext_ring(p, degree, 1)


class ExtRing(_Frozen):
    """One extension ring (Z/p^m)[X]/(f), F_{p^N} at m = 1; its coordinate arithmetic is ops.

    The modulus f is build_modulus(p, N), so the rings of one degree at
    every precision, the residue field ring.at(1) among them, read
    coordinates against one basis; a ring is the value of its context
    and degree.
    """

    __slots__ = ("ctx", "degree", "modulus", "ops")
    _fields = _compare = ("ctx", "degree")

    def __init__(self, ctx: PrecisionContext, degree: int):
        _setattr(self, "ctx", ctx)
        _setattr(self, "degree", degree)
        _setattr(self, "modulus", build_modulus(ctx.p, degree))  # literal lift, constant-first
        _setattr(self, "ops", _ExtOps(ctx.p, ctx.m, self.modulus))
        self.ops.ring = self

    def element(self, coords: Sequence[int]) -> "ExtScalar":
        return ExtScalar(self, coords)

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
        return ExtScalar(self, self.ops.zero)

    def one(self) -> "ExtScalar":
        return ExtScalar(self, self.ops.one)

    def generator(self) -> "ExtScalar":
        """The class of X, which is 0 at degree 1, where f = X."""
        return ExtScalar(self, (0,) + self.ops.one[:-1])

    def elements(self) -> Iterator["ExtScalar"]:
        """The p^N elements with coordinates below p, all of F_{p^N} at m = 1; constant coordinate slowest."""
        if self.ctx.p**self.degree > ENUMERATION_LIMIT:
            raise ValueError("field too large to enumerate")
        return map(self.element, self.ops.elements())

    def embed(self, x) -> "ExtScalar":
        """Embed an integer, or an integral PadicScalar of this ring's context, as a constant."""
        if isinstance(x, PadicScalar):
            if x.ctx != self.ctx:
                raise ValueError(f"{x.ctx!r} is not the context of {self!r}")
            x = x.residue()
        return ExtScalar(self, (int(x),) + self.ops.zero[1:])

    def __repr__(self):
        return f"ExtRing(p={self.ctx.p}, degree={self.degree}, m={self.ctx.m})"


class ExtScalar(_Frozen):
    """Element of O_K/p^m, or of F_{p^N} at m = 1, as its coordinate vector mod p^m.

    The constructor reduces every coordinate mod p^m and checks the length.
    """

    __slots__ = _fields = _compare = ("ring", "coords")

    def __init__(self, ring: ExtRing, coords: Sequence[int]):
        q = ring.ctx.modulus
        _setattr(self, "ring", ring)
        _setattr(self, "coords", tuple([c % q for c in coords]))
        if len(self.coords) != ring.degree:
            raise ValueError("coordinate vector has wrong length")

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

    def inverse(self) -> "ExtScalar":
        return ExtScalar(self.ring, self.ring.ops.inv_unit(self.coords))

    def __truediv__(self, other: "ExtScalar") -> "ExtScalar":
        self._check(other)
        return self * other.inverse()

    def __pow__(self, exponent: int) -> "ExtScalar":
        if exponent < 0:
            return self.inverse() ** -exponent
        return ExtScalar(self.ring, self.ring.ops.pow(self.coords, exponent))

    def reduction(self) -> "ExtScalar":
        """The element of the residue field F_{p^N} with these coordinates mod p."""
        return self.ring.at(1).element(self.coords)

    def congruent(self, other: "ExtScalar") -> bool:
        self._check(other)
        return self.coords == other.coords

    def shift(self, k: int) -> "ExtScalar":
        """Multiply by p^k in O_K/p^m; k < 0 needs p^-k to divide every coordinate."""
        p = self.ctx.p
        if k >= 0:
            scale = pow(p, k, self.ctx.modulus)
            return ExtScalar(self.ring, [c * scale for c in self.coords])
        if self.valuation < -k:
            raise ValueError("scalar has norm > 1, no residue mod p^m")
        return ExtScalar(self.ring, [c // p**-k for c in self.coords])

    def __repr__(self):
        ring = self.ring
        if ring.ctx.m > 1:
            return f"ExtScalar{self.coords}@{ring!r}"
        return f"Fq{self.coords}@p^{ring.degree}" if ring.degree > 1 else f"F{ring.ctx.p}({self.coords[0]})"

    # -- sigma-orbit protocol ------------------------------------------

    def sigma_window(self, period: int = 1) -> "ExtScalar":
        _check_period(period)
        return self ** self.ctx.p**period

    def residue_key(self) -> tuple:
        return self.coords


FqElement = ExtScalar  # an element of F_{p^N} is an ExtScalar of finite_field(p, N)


def fq_frobenius(a: ExtScalar) -> ExtScalar:
    """The p-power automorphism; its N-th iterate is the identity on F_{p^N}."""
    return a ** a.ctx.p
