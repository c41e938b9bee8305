"""Exact p-adic scalar arithmetic at fixed precision.

A nonzero scalar is kept in canonical form p^v * u where u is a unit
residue modulo p^m (u % p != 0); zero is a distinguished sentinel with
valuation +inf.  The unit carries m base-p digits, so a scalar of
valuation v is determined modulo p^(v+m).  Arithmetic is exact on the
canonical representatives; a sum whose m leading digits all cancel
collapses to the sentinel ("zero at precision").

The p-power map sigma(x) = x^p contracts the unit ball: within |x| <= 1,
|sigma(x) - sigma(y)| <= |x - y| / p whenever |x - y| <= 1/p.  Iterating
sigma from any residue therefore stabilises modulo p^m, and the stable
points are the multiplicative lifts of the residues mod p.  Those fixed
points, their digit expansions, and the classification of sigma-orbits
are what everything else in the package is built from.

The contraction gains one digit per step, so the fixed point over a
residue r is the closed form r^(p^(m-1)) mod p^m, one modular power.
The matrix limits of padicspec.spectral iterate only until the orbit
is stationary mod p (the sigma phase) and then finish with Newton's
method on x^q = x, whose derivative q x^(q-1) - 1 is -1 mod p, a unit:
the digits of agreement double at each step, so ceil(log2 m) steps
finish the limit.  Orbits that need not converge are walked by
scan_orbit, on residue rows over the ring's ops: a scalar walks as its
1 x 1 rows, so scalars and matrices share one walk.  The sigma phase
and scan_orbit's walk are both bounded by pre_period_bound, the number
of sigma steps after which any orbit is on its cycle, derived from the
length of the ring the orbit generates.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import struct
from enum import Enum
from typing import NamedTuple, Optional, Sequence, Union

INFINITE = math.inf


class NormOutOfRangeError(ArithmeticError):
    """A norm p^(-v) that a double cannot hold: it overflows, or underflows to 0.0."""

    def __init__(self, p: int, valuation: int):
        super().__init__(f"the norm {p}^{-valuation} is outside the range of a double")
        self.p = p
        self.valuation = valuation


def norm_from_valuation(p: int, v) -> float:
    """The norm p^(-v) as a float: 0.0 for v = INFINITE, else exact to rounding.

    A finite v whose norm would overflow, or would underflow to 0.0 and
    so read as zero, raises NormOutOfRangeError.
    """
    if v == INFINITE:
        return 0.0
    try:
        norm = float(p) ** (-v)
    except OverflowError:
        raise NormOutOfRangeError(p, v) from None
    if norm == 0.0:
        raise NormOutOfRangeError(p, v)
    return norm


# Sorenson-Webster (Math. Comp. 2017): the smallest strong pseudoprime to
# every prime base up to 41, so Miller-Rabin with those bases is exact below it.
PRIMALITY_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_LIMIT = 3317044064679887385961981


@functools.lru_cache(maxsize=1024)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the prime bases 2..41.

    Exact for n < PRIMALITY_LIMIT (about 3.3e24); larger n raise
    ValueError rather than receive an unproven answer.  Answers are
    cached, since every PrecisionContext checks its p and digit peeling
    builds one per stage (the ring at the stage's precision).
    """
    if n < 2:
        return False
    for b in PRIMALITY_BASES:
        if n % b == 0:
            return n == b
    if n >= PRIMALITY_LIMIT:
        raise ValueError(f"primality of {n} is only decided below {PRIMALITY_LIMIT}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in PRIMALITY_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def int_valuation(n: int, p: int) -> int:
    """Largest k with p^k dividing n; n must be nonzero."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# Below this dimension the packed base-ring product does not beat the per-entry
# dot: packing and unpacking cost about what the n^2 small products they replace do
# (0.74-0.78x at n = 2, 0.87-0.96x at n = 3, 1.13-1.25x at n = 4, medians of 9).
_PACKED_MATMUL_MIN_N = 4

# struct codes of the little-endian unsigned slots of 8, 16, 32 and 64 bits
_SLOT_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


def _slot_bits(q: int, terms: int) -> int:
    """Width of one packed coefficient: a sum of `terms` products of residues in [0, q).

    Up to 64 bits the width is rounded up to 8, 16, 32 or 64, so a row
    of slots is a machine array that struct converts in C; a wider sum
    keeps its exact width and the shift-and-mask loops of _pack and
    _unpack.
    """
    bits = 2 * (q - 1).bit_length() + terms.bit_length()
    return bits if bits > 64 else max(8, 1 << (bits - 1).bit_length())


@functools.lru_cache(maxsize=1024)
def _row_struct(count: int, slot: int, used: int = 1, stride: int = 1) -> struct.Struct:
    """Little-endian array of count groups of stride slot-bit words (slot in 8, 16, 32, 64).

    The first `used` words of a group are values; the rest are zero
    padding, written by pack and skipped by unpack.
    """
    code = _SLOT_CODES[slot]
    if used == stride:
        return struct.Struct(f"<{count * used}{code}")
    return struct.Struct("<" + f"{used}{code}{(stride - used) * slot // 8}x" * count)


def _pack(values, slot: int) -> int:
    """One int holding values[i] at bit i * slot; each value must lie in [0, 2^slot).

    The shift-and-or loop of slots wider than 64 bits; the byte-aligned
    slots of _slot_bits are packed by a _row_struct (see _packed_matmul).
    """
    acc = 0
    for v in reversed(values):
        acc = acc << slot | v
    return acc


def _unpack(total: int, count: int, slot: int) -> list:
    """The first count slot-wide coefficients of a packed int, lowest first.

    The shift-and-mask loop of slots wider than 64 bits; byte-aligned
    slots are read back by to_bytes and a _row_struct (see _packed_matmul).
    """
    mask = (1 << slot) - 1
    return [total >> k & mask for k in range(0, count * slot, slot)]


def _packed_matmul(a: tuple, b: tuple, q: int, degree: int = 1, table=None) -> tuple:
    """a * b for residue rows over (Z/q)[X]/(f) by Kronecker substitution.

    The shapes may be rectangular: a has any number of rows of len(b)
    entries, b has len(b) rows of len(b[0]) entries.  Precondition:
    every coordinate is canonical, in [0, q); a negative or oversized
    one would borrow from or carry into its neighbours.  Without a
    table the ring is Z/q (degree 1), whose entries are ints; with one,
    entries are coordinate vectors (of any degree, 1 included) and
    table[j] holds X^(degree + j) mod f, j = 0 .. degree - 2.  Every
    coefficient sits in a slot of _slot_bits(q, len(b) degree) bits,
    wide enough for a sum of len(b) degree products.  Row k of b is one
    int, entry j starting at slot j (2 degree - 1) with coordinate i at
    slot j (2 degree - 1) + i, so row i of a * b is the single big-int
    sum of a[i][k] * packed row k: entry j's product polynomial lands,
    without overlap, in its own 2 degree - 1 slots.  A product of one
    matrix by several side by side thus costs one big-int sum per row of
    a, however many blocks b holds.

    The layout is byte-aligned: a slot of up to 64 bits is rounded to 8,
    16, 32 or 64 bits, so a packed row is a little-endian machine array.
    A row of b is packed by one cached struct.Struct.pack (zero pad bytes
    fill the degree - 1 spare slots of each entry) read by int.from_bytes,
    and a row of the product is unpacked by to_bytes and Struct.unpack
    and reduced by map(q.__rmod__), so the per-coefficient work runs in C
    builtins.  Slots wider than 64 bits (large q or n) hand off to the
    shift-and-mask loops of _pack and _unpack, which byte slicing and
    64-bit word recombination did not beat there.

    With a table, one fold reduces every entry of the product mod f at
    once: coefficient t of every entry is one slice of the unpacked
    rows, the high coefficient degree + j of every entry is added to
    coordinate i times table[j][i] by map, unreduced, and each
    coordinate then takes one % q.  A fold per entry cost one Python
    call per entry of the product.
    """
    inner, cols = len(b), len(b[0])
    slot = _slot_bits(q, inner * degree)
    width = 2 * degree - 1
    count = cols * width
    mul = operator.mul
    if slot > 64:
        if table is not None:
            pad = (0,) * (degree - 1)
            a = [[_pack(e, slot) for e in row] for row in a]
            b = [[c for e in row for c in (*e, *pad)] for row in b]
        b_rows = [_pack(row, slot) for row in b]
        sums = [_unpack(sum(map(mul, row, b_rows)), count, slot) for row in a]
    else:
        from_bytes, flat = int.from_bytes, itertools.chain.from_iterable
        if table is not None:
            pack = _row_struct(degree, slot).pack
            a = [[from_bytes(pack(*e), "little") for e in row] for row in a]
            b = [flat(row) for row in b]
        pack = _row_struct(cols, slot, degree, width).pack
        layout = _row_struct(count, slot)
        unpack, size = layout.unpack, layout.size
        b_rows = [from_bytes(pack(*row), "little") for row in b]
        sums = [unpack(sum(map(mul, row, b_rows)).to_bytes(size, "little")) for row in a]
    if table is None:
        return tuple([tuple(map(q.__rmod__, coeffs)) for coeffs in sums])
    # one fold of the whole product: parts[t] is coefficient t of every entry, row after row
    coeffs = list(itertools.chain.from_iterable(sums))
    parts = [coeffs[t::width] for t in range(width)]
    coords = []
    for i, low in enumerate(parts[:degree]):
        for high, row in zip(parts[degree:], table):
            low = map(operator.add, low, map(row[i].__mul__, high))
        coords.append(map(q.__rmod__, low))
    entries = tuple(zip(*coords))
    return tuple([entries[j : j + cols] for j in range(0, len(entries), cols)])


def _power(x, exponent: int, mul):
    """x^exponent for exponent >= 1 by binary powering, in floor(log2 e) + popcount(e) - 1 products.

    The one square-and-multiply of the package: residue matrices, ring
    elements and polynomials mod f pass their own mul.  The result
    starts at the lowest set bit instead of at one, and the square after
    the highest bit is never formed.
    """
    while not exponent & 1:
        x = mul(x, x)
        exponent >>= 1
    result = x
    exponent >>= 1
    while exponent:
        x = mul(x, x)
        if exponent & 1:
            result = mul(result, x)
        exponent >>= 1
    return result


class _BaseOps:
    """Residue arithmetic on int entries of Z/p^m.

    The one entry protocol, which finite_field._ExtOps also provides on
    coordinate vectors of (Z/p^m)[X]/(f): only these two classes know
    what an entry is.  Entry members: zero, one, add, sub, mul, neg, pow,
    dot, is_zero, is_unit, inv_unit, reduce (the entry mod p, an index
    of the residue field) and valuation.  Row members, on residue
    matrices given as tuples of rows: matmul, map_coords (a map of every
    int coordinate), rows_add, rows_sub, rows_scale (every coordinate
    times an int), rows_mul (every entry times a ring element) and
    rows_are_zero.  Ring members: p, m, q = p^m, degree, elements (the
    residue field, in enumeration order), packs (whether matmul packs a
    product of a given inner size) and ring (the PrecisionContext or
    ExtRing the ops belong to, set by it; the only builder of ops).  The
    residue field's ops are ring.at(1).ops.
    """

    degree = 1

    def __init__(self, p: int, m: int):
        self.p = p
        self.m = m
        self.q = p**m
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return (a + b) % self.q

    def sub(self, a, b):
        return (a - b) % self.q

    def mul(self, a, b):
        return (a * b) % self.q

    def pow(self, a, exponent: int):
        return pow(a, exponent, self.q)

    def dot(self, xs, ys):
        return sum(map(operator.mul, xs, ys)) % self.q

    def packs(self, inner: int) -> bool:
        return inner >= _PACKED_MATMUL_MIN_N

    def matmul(self, a, b):
        """a * b for canonical residue rows, packed once len(b) or len(b[0]) >= _PACKED_MATMUL_MIN_N.

        A wide product (a few rows of b, each of many entries) packs at any
        inner size: the per-entry dot would run once per column.
        """
        if self.packs(len(b)) or self.packs(len(b[0])):
            return _packed_matmul(a, b, self.q)
        dot = self.dot
        bcols = tuple(zip(*b))
        return tuple(tuple(dot(row, col) for col in bcols) for row in a)

    def neg(self, a):
        return (-a) % self.q

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a % self.p != 0

    def inv_unit(self, a):
        return pow(a, -1, self.q)

    def reduce(self, a):
        return a % self.p

    def valuation(self, a):
        return int_valuation(a, self.p) if a else INFINITE

    def elements(self):
        return range(self.p)

    def map_coords(self, rows: tuple, f) -> tuple:
        return tuple([tuple(map(f, row)) for row in rows])

    def rows_add(self, a: tuple, b: tuple) -> tuple:
        rmod, add = self.q.__rmod__, operator.add
        return tuple([tuple(map(rmod, map(add, ra, rb))) for ra, rb in zip(a, b)])

    def rows_sub(self, a: tuple, b: tuple) -> tuple:
        rmod, sub = self.q.__rmod__, operator.sub
        return tuple([tuple(map(rmod, map(sub, ra, rb))) for ra, rb in zip(a, b)])

    def rows_scale(self, c: int, rows: tuple) -> tuple:
        rmod, mul = self.q.__rmod__, c.__mul__
        return tuple([tuple(map(rmod, map(mul, row))) for row in rows])

    rows_mul = rows_scale  # a ring element is an int

    def rows_are_zero(self, rows: tuple) -> bool:
        return not any(map(any, rows))


def _teichmuller_residue(x, ops):
    """The fixed point w of sigma^D mod p^m over the residue-field element x, D = ops.degree.

    x is an entry of ops read mod p (an int over Z/p^m, a coordinate
    vector over the degree-D ring), and x^(p^D) = x mod p.  Each p^D-th
    power multiplies the digits of agreement with the fixed point by
    p^D, gaining D digits, so w is the closed form
    x^(p^(D ceil((m - 1) / D))): x^(p^(m-1)) over Z/p^m.  One further
    p^D-th power checks that w is fixed.
    """
    q = ops.p**ops.degree
    w = ops.pow(x, q ** -(-(ops.m - 1) // ops.degree))
    if ops.pow(w, q) != w:
        raise RuntimeError("Teichmuller lift is not fixed by sigma^D (internal defect)")
    return w


_setattr = object.__setattr__


class _Frozen:
    """An immutable value on __slots__, with the semantics of a frozen dataclass.

    A subclass lists its constructor's fields in order in _fields (shown by
    repr) and the fields that equality and hashing read in _compare; its
    __init__ sets every slot through object.__setattr__ and then checks
    them.  An instance equals only an instance of the same class whose
    compared fields are equal, hashes as the tuple of those fields, and
    refuses assignment and deletion with AttributeError.
    """

    __slots__ = ()
    _fields: tuple = ()
    _compare: tuple = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compare])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._fields])


class PrecisionContext(_Frozen):
    """Shared precision parameters: prime p and digit count m.

    A context is also the ring handle of Z/p^m, as finite_field.ExtRing is
    of O_K/p^m: ops is its entry protocol (a _BaseOps whose ring is the
    context), element builds the scalar of a residue, at is the ring at
    another precision, random_entry draws an entry of a given valuation,
    and ctx is the context itself.  A scalar's ring is its context.
    """

    __slots__ = ("p", "m", "modulus", "ops")
    _fields = _compare = ("p", "m")

    def __init__(self, p: int, m: int):
        _setattr(self, "p", p)
        _setattr(self, "m", m)
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.m < 1:
            raise ValueError(f"precision m must be >= 1, got {self.m}")
        _setattr(self, "modulus", self.p**self.m)
        _setattr(self, "ops", _BaseOps(p, m))
        self.ops.ring = self

    @property
    def ctx(self) -> "PrecisionContext":
        return self

    def at(self, m: int) -> "PrecisionContext":
        return self if m == self.m else PrecisionContext(self.p, m)

    def element(self, residue: int) -> "PadicScalar":
        """The scalar of a representative of Z/p^m, taken as exact."""
        return PadicScalar(self, *_residue_units(residue, self))

    def random_entry(self, rng, v: int) -> "PadicScalar":
        """p^v u for a unit u drawn uniformly mod p^m; v may be negative."""
        unit = rng.randrange(1, self.modulus)
        while unit % self.p == 0:
            unit = rng.randrange(1, self.modulus)
        return PadicScalar(self, v, unit)


class PadicScalar(_Frozen):
    """An element of Q_p known to m significant base-p digits.

    Invariants: either the zero sentinel (valuation = +inf, unit = 0) or
    0 < unit < p^m with unit % p != 0.  The norm is p^(-valuation) and is
    exactly multiplicative; addition obeys the ultrametric inequality,
    with total cancellation reported as the zero sentinel.
    """

    __slots__ = _fields = _compare = ("ctx", "valuation", "unit")

    def __init__(self, ctx: PrecisionContext, valuation: Union[int, float], unit: int):
        _setattr(self, "ctx", ctx)
        _setattr(self, "valuation", valuation)
        _setattr(self, "unit", unit)
        if self.valuation == INFINITE:
            if self.unit != 0:
                raise ValueError("zero sentinel must have unit 0")
            return
        if not isinstance(self.valuation, int):
            raise ValueError("finite valuation must be an integer")
        if not (0 < self.unit < self.ctx.modulus):
            raise ValueError(f"unit {self.unit} outside (0, p^m)")
        if self.unit % self.ctx.p == 0:
            raise ValueError(f"unit {self.unit} is divisible by p")

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, ctx: PrecisionContext) -> "PadicScalar":
        return cls(ctx, INFINITE, 0)

    @classmethod
    def one(cls, ctx: PrecisionContext) -> "PadicScalar":
        return cls(ctx, 0, 1)

    @classmethod
    def from_int(cls, value: int, ctx: PrecisionContext) -> "PadicScalar":
        if value == 0:
            return cls.zero(ctx)
        v = int_valuation(value, ctx.p)
        unit = (value // ctx.p**v) % ctx.modulus
        return cls(ctx, v, unit)

    @classmethod
    def from_residue(cls, residue: int, ctx: PrecisionContext) -> "PadicScalar":
        """Scalar for a representative of Z/p^m, taken as exact."""
        return ctx.element(residue)

    # -- canonical data ----------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.valuation == INFINITE

    @property
    def norm(self) -> float:
        """p-adic norm p^(-v); 0.0 for the zero sentinel."""
        return norm_from_valuation(self.ctx.p, self.valuation)

    def residue(self) -> int:
        """Representative in Z/p^m.  Defined for |x| <= 1 only."""
        if self.is_zero:
            return 0
        if self.valuation < 0:
            raise ValueError("scalar has norm > 1, no residue mod p^m")
        if self.valuation >= self.ctx.m:
            return 0
        return (self.ctx.p**self.valuation * self.unit) % self.ctx.modulus

    def congruent(self, other: "PadicScalar") -> bool:
        """Equality modulo p^m (the working window)."""
        self._check_ctx(other)
        return self.residue() == other.residue()

    def shift(self, k: int) -> "PadicScalar":
        """Multiply by p^k (exact valuation shift)."""
        if self.is_zero or k == 0:
            return self
        return PadicScalar(self.ctx, self.valuation + k, self.unit)

    # -- ring operations ---------------------------------------------

    def _check_ctx(self, other: "PadicScalar"):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ValueError("mixed precision contexts")

    def __add__(self, other: "PadicScalar") -> "PadicScalar":
        self._check_ctx(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        # the two-term sum x + y is the dot product (x, y) . (1, 1)
        return PadicScalar(self.ctx, *_dot_units(self.ctx, (_units(self), _units(other)), ((0, 1), (0, 1))))

    @staticmethod
    def dot(xs: Sequence["PadicScalar"], ys: Sequence["PadicScalar"]) -> "PadicScalar":
        """sum_i xs[i] * ys[i], added from the left exactly as reduce(+, map(*)) adds it.

        _dot_units sums the products on the (valuation, unit) pairs of
        the entries; only the result is built as a scalar.
        """
        first = xs[0]
        ctx = first.ctx
        for x in itertools.chain(xs, ys):
            if x.ctx is not ctx:
                first._check_ctx(x)
        return PadicScalar(ctx, *_dot_units(ctx, map(_units, xs), map(_units, ys)))

    def __neg__(self) -> "PadicScalar":
        if self.is_zero:
            return self
        return PadicScalar(self.ctx, self.valuation, self.ctx.modulus - self.unit)

    def __sub__(self, other: "PadicScalar") -> "PadicScalar":
        return self + (-other)

    def __mul__(self, other: "PadicScalar") -> "PadicScalar":
        self._check_ctx(other)
        if self.is_zero or other.is_zero:
            return PadicScalar.zero(self.ctx)
        return PadicScalar(
            self.ctx,
            self.valuation + other.valuation,
            (self.unit * other.unit) % self.ctx.modulus,
        )

    def __truediv__(self, other: "PadicScalar") -> "PadicScalar":
        self._check_ctx(other)
        if other.is_zero:
            raise ZeroDivisionError("division by p-adic zero")
        if self.is_zero:
            return self
        inv = pow(other.unit, -1, self.ctx.modulus)
        return PadicScalar(
            self.ctx,
            self.valuation - other.valuation,
            (self.unit * inv) % self.ctx.modulus,
        )

    def __pow__(self, exponent: int) -> "PadicScalar":
        if exponent < 0:
            return PadicScalar.one(self.ctx) / self**-exponent
        if self.is_zero:
            return PadicScalar.zero(self.ctx) if exponent else PadicScalar.one(self.ctx)
        return PadicScalar(
            self.ctx,
            self.valuation * exponent,
            pow(self.unit, exponent, self.ctx.modulus),
        )

    def __repr__(self):
        if self.is_zero:
            return f"PadicScalar(0; p={self.ctx.p}, m={self.ctx.m})"
        return f"PadicScalar({self.ctx.p}^{self.valuation}*{self.unit}; m={self.ctx.m})"

    # -- sigma-orbit protocol (shared with matrices) -------------------

    def sigma_window(self, period: int = 1) -> "PadicScalar":
        return frobenius_step(self, period)

    def residue_key(self) -> int:
        return self.residue()


# a base scalar's ring is its context: the ctx slot, read under the name of the ring protocol
PadicScalar.ring = PadicScalar.ctx


# the (valuation, unit) pair of a PadicScalar, (INFINITE, 0) for zero
_units = operator.attrgetter("valuation", "unit")


def _dot_units(ctx: PrecisionContext, xs, ys) -> tuple:
    """sum_i xs[i] * ys[i] on (valuation, unit) pairs, cut to m digits after each addition.

    The one relative truncated sum of the package: PadicScalar.dot, and
    through it every object-level product, and PadicScalar.__add__ (the
    two-term sum with unit multipliers) call it.  A zero is (INFINITE,
    0).  Truncation makes the sum depend on its order, so the products
    are added one by one, left to right, from the zero sentinel, which
    the next nonzero product replaces unchanged.  Each addition forms
    the exact sum at the lower valuation and strips its factors of p;
    when they reach the m-digit window the sum is zero at precision,
    otherwise its unit keeps m digits.  A term m or more digits above
    the sum is 0 mod p^(v + m) and is dropped, and a sum m or more
    digits above the term is replaced by it, so p^gap is never formed
    for a gap that could be arbitrarily large.
    """
    p, m, modulus = ctx.p, ctx.m, ctx.modulus
    v, u = INFINITE, 0
    for (xv, xu), (yv, yu) in zip(xs, ys):
        if not (xu and yu):
            continue
        tv, tu = xv + yv, xu * yu % modulus
        gap = tv - v
        if not u or gap <= -m:
            v, u = tv, tu
            continue
        if gap >= m:
            continue
        if gap >= 0:
            total = u + tu * p**gap
        else:
            v, total = tv, tu + u * p**-gap
        if total % p:
            u = total % modulus
            continue
        t = int_valuation(total, p)
        if t >= m:  # cancellation beyond the m-digit window
            v, u = INFINITE, 0
        else:
            v, u = v + t, total // p**t % modulus
    return v, u


def _residue_units(residue: int, ctx: PrecisionContext) -> tuple:
    """The (valuation, unit) pair of a representative of Z/p^m, taken as exact; (INFINITE, 0) for 0."""
    r = residue % ctx.modulus
    if r % ctx.p:
        return 0, r
    if not r:
        return INFINITE, 0
    v = int_valuation(r, ctx.p)
    return v, r // ctx.p**v


def scalar_from_rational(numerator: int, denominator: int, ctx: PrecisionContext) -> PadicScalar:
    """Canonical image of numerator/denominator in Q_p at precision m."""
    if denominator == 0:
        raise ValueError("denominator must be nonzero")
    if numerator == 0:
        return PadicScalar.zero(ctx)
    num = PadicScalar.from_int(numerator, ctx)
    den = PadicScalar.from_int(denominator, ctx)
    return num / den


def _check_period(period: int) -> None:
    """Refuse a sigma period below 1, for every sigma_window and sigma_fixed_points."""
    if period < 1:
        raise ValueError("period must be >= 1")


def frobenius_step(x: PadicScalar, period: int = 1) -> PadicScalar:
    """sigma^period(x) = x^(p^period), computed in the window Z/p^m.

    Requires |x| <= 1; the p-power map leaves the unit ball and is only
    iterated there.
    """
    _check_period(period)
    if not x.is_zero and x.valuation < 0:
        raise ValueError("frobenius_step requires |x| <= 1")
    r = pow(x.residue(), x.ctx.p**period, x.ctx.modulus)
    return PadicScalar.from_residue(r, x.ctx)


def teichmuller_lift(residue: int, ctx: PrecisionContext) -> PadicScalar:
    """The unique w with w^p = w mod p^m and w = residue mod p (see _teichmuller_residue)."""
    if not 0 <= residue < ctx.p:
        raise ValueError(f"residue {residue} outside [0, p)")
    return ctx.element(_teichmuller_residue(residue, ctx.ops))


def teichmuller_points(ctx: PrecisionContext) -> list[PadicScalar]:
    """All p fixed points of x -> x^p mod p^m, ordered by residue mod p."""
    return [teichmuller_lift(r, ctx) for r in range(ctx.p)]


class TeichDigits(NamedTuple):
    """Digit expansion x = sum_i d_i p^(k+i) with every d_i a fixed point of sigma.

    Exactly m digits are produced; reassembling them reproduces the source
    scalar modulo p^(k+m).
    """

    ctx: PrecisionContext
    lead_valuation: int
    digits: tuple

    def reassemble(self) -> PadicScalar:
        total = 0
        for i, d in enumerate(self.digits):
            total += d.residue() * self.ctx.p**i
        return PadicScalar.from_residue(total, self.ctx).shift(self.lead_valuation)


def teichmuller_digits(x: PadicScalar) -> TeichDigits:
    """Peel the multiplicative digit expansion of a scalar.

    The valuation is factored into lead_valuation first, so the input may
    have any norm.  Every scalar admits the expansion (digit peeling on a
    unit always lands on lifts of residues).
    """
    ctx = x.ctx
    if x.is_zero:
        zero = PadicScalar.zero(ctx)
        return TeichDigits(ctx, 0, (zero,) * ctx.m)
    digits = []
    r = x.unit
    for _ in range(ctx.m):
        d = teichmuller_lift(r % ctx.p, ctx)
        digits.append(d)
        r = ((r - d.residue()) % ctx.modulus) // ctx.p
    return TeichDigits(ctx, x.valuation, tuple(digits))


class OrbitKind(Enum):
    TOP_NILPOTENT = "TopNilpotent"
    PERIODIC = "Periodic"
    QUASI_PERIODIC = "QuasiPeriodic"
    CHAOS_AT_PRECISION = "ChaosAtPrecision"


class OrbitReport(NamedTuple):
    """Verdict of a sigma-orbit scan at precision m.

    period is set for the (quasi-)periodic kinds; limit is the first
    element of the limit cycle for quasi-periodic orbits; steps is the
    number of sigma applications consumed by the scan, out of budget.
    """

    kind: OrbitKind
    period: Optional[int] = None
    steps: int = 0
    limit: object = None
    budget: int = 0


def pre_period_bound(p: int, m: int, size: int) -> int:
    """The step P from which every sigma-orbit of a key mod p^m is on its cycle.

    P = m + floor(log_p(e - 1)) (P = m for e = 1), e = m * size, for the
    p-power orbit of any key of n x n rows over a degree-deg ring A mod
    p^m, size = n * deg (n = 1 for a scalar, A = Z/p^m at deg = 1).  The
    key x generates the commutative ring R = A[x], by Cayley-Hamilton a
    quotient of A^n, so its length as an abelian group is at most e.  R
    is a product of local rings, and in each factor x is either
    nilpotent, with x^e = 0, or omega (1 + z): omega a root of unity of
    order prime to p, whose p-power orbit is a cycle from step 0, and z
    in the maximal ideal, so z^e = 0.  In the binomial expansion
    (1 + z)^(p^k) = sum_j C(p^k, j) z^j only j <= e - 1 survive, and
    v_p(C(p^k, j)) = k - v_p(j) >= k - floor(log_p(e - 1)) for those
    j >= 1, so (1 + z)^(p^k) = 1 mod p^m once k >= P; a nilpotent
    factor is 0 once p^k >= e, which k = P satisfies.  From step P on,
    the orbit is on its cycle.
    """
    bound, power = m, p
    while power < m * size:
        bound, power = bound + 1, power * p
    return bound


def scan_orbit(rows: tuple, period_bound: int, ops) -> OrbitReport:
    """Walk the sigma-orbit of n x n residue rows to its first zero rows or its first repeat.

    sigma is the p-th power _power(rows, p, ops.matmul); a scalar walks
    as its 1 x 1 rows.  The walk takes at most
    max(m * period_bound + 4, P) + period_bound steps,
    P = pre_period_bound(p, m, n * deg) for a degree-deg ring, so a
    cycle of length up to period_bound is seen to repeat: the orbit is
    on it from step P.  Zero rows are TopNilpotent; a repeat is
    Periodic, or QuasiPeriodic with the first cycle rows as limit when
    the cycle misses the start; a longer cycle or an exhausted walk is
    ChaosAtPrecision.  A period_bound below 1 is refused with ValueError.
    """
    if period_bound < 1:
        raise ValueError("period_bound must be >= 1")
    pre_period = pre_period_bound(ops.p, ops.m, len(rows) * ops.degree)
    # P + period_bound steps would do; the floor m * period_bound + 4 stays because
    # dropping it shortens walks that end in ChaosAtPrecision, and classify reports
    # their steps, so its output would change.
    budget = max(ops.m * period_bound + 4, pre_period) + period_bound
    verdict = functools.partial(OrbitReport, budget=budget)
    seen, keys, cur, k = {}, [], rows, 0
    while True:
        if ops.rows_are_zero(cur):
            return verdict(OrbitKind.TOP_NILPOTENT, steps=k)
        entry = seen.setdefault(cur, k)
        if entry < k:
            if k - entry > period_bound:
                return verdict(OrbitKind.CHAOS_AT_PRECISION, steps=k)
            if entry == 0:
                return verdict(OrbitKind.PERIODIC, k - entry, k)
            return verdict(OrbitKind.QUASI_PERIODIC, k - entry, k, keys[entry])
        if k == budget:
            return verdict(OrbitKind.CHAOS_AT_PRECISION, steps=k)
        keys.append(cur)
        cur, k = _power(cur, ops.p, ops.matmul), k + 1


def classify_orbit(x, period_bound: int) -> OrbitReport:
    """Classify the sigma-orbit of a scalar or matrix in the unit ball.

    TopNilpotent: some iterate is 0 mod p^m.  Periodic(N): sigma^N(x) = x
    mod p^m with minimal N <= period_bound.  QuasiPeriodic(N): the orbit
    enters a cycle of length N <= period_bound that does not contain x.
    ChaosAtPrecision: neither happened within scan_orbit's walk of
    max(m * period_bound + 4, P) + period_bound steps, P the
    pre_period_bound of x (a precision-relative verdict, not an error).
    scan_orbit walks the residue rows of a matrix, or a scalar's residue
    key as 1 x 1 rows, over the ops of x's ring; only a QuasiPeriodic
    limit is built as an object of x's type.
    """
    if x.valuation < 0:
        raise ValueError("classify_orbit requires |x| <= 1")
    matrix = getattr(x, "rows", None) is not None
    report = scan_orbit(x.residues() if matrix else ((x.residue_key(),),), period_bound, x.ring.ops)
    if report.limit is None:
        return report
    if matrix:
        return report._replace(limit=type(x).from_residues(report.limit, x.ring))
    return report._replace(limit=x.ring.element(report.limit[0][0]))
