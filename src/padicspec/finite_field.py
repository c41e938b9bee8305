"""Arithmetic in F_p and its extensions F_{p^N}.

Extension elements are coordinate vectors against the power basis of a
fixed monic irreducible modulus, chosen deterministically as the
lexicographically smallest irreducible of the requested degree
(constant coefficient first).  These fields are the reduction targets of
the unramified rings in :mod:`padicspec.unramified`: the p-power map
here is a field automorphism of order dividing N, and the fixed field of
its d-th power has exactly p^gcd(d, N) elements.

Polynomials over F_p are plain coefficient lists, constant first, with
no trailing zeros.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .padic import is_prime

ENUMERATION_LIMIT = 2**20  # p^N cap for exhaustive operations


# -- dense polynomial helpers over F_p --------------------------------


def poly_trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_add(a: Sequence[int], b: Sequence[int], p: int) -> list:
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        ai = a[i] if i < len(a) else 0
        bi = b[i] if i < len(b) else 0
        out[i] = (ai + bi) % p
    return poly_trim(out)


def poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return poly_trim(out)


def poly_divmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = pow(b[-1], -1, p)
    for shift in range(len(rem) - len(b), -1, -1):
        coeff = (rem[shift + len(b) - 1] * inv_lead) % p
        if coeff == 0:
            continue
        quo[shift] = coeff
        for j, bj in enumerate(b):
            rem[shift + j] = (rem[shift + j] - coeff * bj) % p
    return poly_trim(quo), poly_trim(rem)


def poly_mod(a: Sequence[int], b: Sequence[int], p: int) -> list:
    return poly_divmod(a, b, p)[1]


def poly_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list:
    a, b = list(a), list(b)
    while b:
        a, b = b, poly_mod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [(c * inv) % p for c in a]
    return a


def poly_pow_mod(base: Sequence[int], exponent: int, modulus: Sequence[int], p: int) -> list:
    result = [1]
    acc = poly_mod(base, modulus, p)
    e = exponent
    while e:
        if e & 1:
            result = poly_mod(poly_mul(result, acc, p), modulus, p)
        acc = poly_mod(poly_mul(acc, acc, p), modulus, p)
        e >>= 1
    return result


def _proper_divisors(n: int) -> Iterator[int]:
    for d in range(1, n):
        if n % d == 0:
            yield d


def is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Rabin test: X^(p^N) = X mod f and gcd(X^(p^d) - X, f) = 1 for d | N, d < N."""
    n = len(poly) - 1
    if n < 1:
        return False
    x = [0, 1]
    for d in _proper_divisors(n):
        xq = poly_pow_mod(x, p**d, poly, p)
        diff = poly_add(xq, [(p - c) % p for c in x], p)
        if len(poly_gcd(diff, poly, p)) > 1:
            return False
    xq = poly_pow_mod(x, p**n, poly, p)
    return poly_mod(poly_add(xq, [(p - c) % p for c in x], p), poly, p) == []


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
    for tail in itertools.product(range(p), repeat=degree):
        candidate = list(tail) + [1]
        if is_irreducible(candidate, p):
            return tuple(candidate)
    raise RuntimeError("no irreducible polynomial found (internal defect)")


@functools.lru_cache(maxsize=None)
def finite_field(p: int, degree: int) -> "FiniteField":
    return FiniteField(p, degree)


class FiniteField:
    """F_{p^N} presented as F_p[X] / (modulus)."""

    def __init__(self, p: int, degree: int, modulus: tuple = None):
        self.p = p
        self.degree = degree
        self.modulus = tuple(modulus) if modulus is not None else build_modulus(p, degree)
        if len(self.modulus) != degree + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of the requested degree")
        if not is_irreducible(self.modulus, p):
            raise ValueError("modulus is reducible over F_p")

    @property
    def order(self) -> int:
        return self.p**self.degree

    def element(self, coords: Sequence[int]) -> "FqElement":
        c = [x % self.p for x in coords]
        if len(c) > self.degree:
            c = poly_mod(c, list(self.modulus), self.p)
        c = c + [0] * (self.degree - len(c))
        return FqElement(self, tuple(c[: self.degree]))

    def zero(self) -> "FqElement":
        return self.element([])

    def one(self) -> "FqElement":
        return self.element([1])

    def generator(self) -> "FqElement":
        """The class of X."""
        return self.element([0, 1])

    def elements(self) -> Iterator["FqElement"]:
        """All p^N elements, constant coordinate varying slowest."""
        if self.order > ENUMERATION_LIMIT:
            raise ValueError("field too large to enumerate")
        for coords in itertools.product(range(self.p), repeat=self.degree):
            yield FqElement(self, coords)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and self.p == other.p
            and self.degree == other.degree
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.degree, self.modulus))

    def __repr__(self):
        return f"FiniteField(p={self.p}, degree={self.degree})"


@dataclass(frozen=True)
class FqElement:
    field: FiniteField
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.field.degree:
            raise ValueError("coordinate vector has wrong length")

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _poly(self) -> list:
        return poly_trim(list(self.coords))

    def __add__(self, other: "FqElement") -> "FqElement":
        self._check(other)
        return self.field.element(poly_add(self._poly(), other._poly(), self.field.p))

    def __neg__(self) -> "FqElement":
        p = self.field.p
        return self.field.element([(p - c) % p for c in self.coords])

    def __sub__(self, other: "FqElement") -> "FqElement":
        return self + (-other)

    def __mul__(self, other: "FqElement") -> "FqElement":
        self._check(other)
        prod = poly_mul(self._poly(), other._poly(), self.field.p)
        return self.field.element(poly_mod(prod, list(self.field.modulus), self.field.p))

    def inverse(self) -> "FqElement":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero in F_q")
        # extended Euclid against the modulus
        p = self.field.p
        r0, r1 = list(self.field.modulus), self._poly()
        s0, s1 = [], [1]
        while r1:
            q, r = poly_divmod(r0, r1, p)
            r0, r1 = r1, r
            s0, s1 = s1, poly_add(s0, [(p - c) % p for c in poly_mul(q, s1, p)], p)
        inv_lead = pow(r0[-1], -1, p)
        return self.field.element([(c * inv_lead) % p for c in s0])

    def __pow__(self, exponent: int) -> "FqElement":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.field.one()
        acc = self
        e = exponent
        while e:
            if e & 1:
                result = result * acc
            acc = acc * acc
            e >>= 1
        return result

    def _check(self, other: "FqElement"):
        if self.field != other.field:
            raise ValueError("elements of different fields")

    def __repr__(self):
        return f"Fq{self.coords}@p^{self.field.degree}" if self.field.degree > 1 else f"F{self.field.p}({self.coords[0]})"


def fq_frobenius(a: FqElement) -> FqElement:
    """The p-power automorphism; its N-th iterate is the identity on F_{p^N}."""
    return a ** a.field.p

