"""F_p extension arithmetic, modulus construction, Frobenius."""

import math
import random

import pytest

from padicspec import build_modulus, finite_field, fq_frobenius
from padicspec.finite_field import is_irreducible


def test_modulus_degree_one_is_x():
    assert build_modulus(2, 1) == (0, 1)
    assert build_modulus(5, 1) == (0, 1)


def test_modulus_gf4():
    # the 4 monic quadratics over F_2: only X^2+X+1 has no root
    assert build_modulus(2, 2) == (1, 1, 1)


def test_modulus_gf9():
    # -1 is a quadratic nonresidue mod 3
    assert build_modulus(3, 2) == (1, 0, 1)


def test_modulus_is_deterministic_and_cached():
    assert build_modulus(5, 3) is build_modulus(5, 3)


@pytest.mark.parametrize("p,n", [(2, 3), (2, 4), (3, 3), (5, 2), (7, 2)])
def test_modulus_certificate(p, n):
    f = build_modulus(p, n)
    assert len(f) == n + 1 and f[-1] == 1
    assert is_irreducible(f, p)


def test_irreducible_rejects_products():
    # (X+1)^2 = X^2 + 2X + 1 over F_3
    assert not is_irreducible((1, 2, 1), 3)
    assert not is_irreducible((0, 1, 1), 2)  # X(X+1)


def test_frobenius_on_generator_of_gf9():
    f9 = finite_field(3, 2)
    x = f9.generator()
    assert fq_frobenius(x).coords == (0, 2)  # X^3 = -X mod X^2+1


def test_frobenius_fixes_one():
    f8 = finite_field(2, 3)
    assert fq_frobenius(f8.one()) == f8.one()


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_frobenius_has_galois_order(p, n):
    field = finite_field(p, n)
    for a in field.elements():
        b = a
        for _ in range(n):
            b = fq_frobenius(b)
        assert b == a


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fixed_field_law(p, n):
    """The fixed set of the d-th Frobenius power has p^gcd(d, n) elements."""
    field = finite_field(p, n)
    for d in range(1, n + 1):
        q = p**d
        count = sum(1 for a in field.elements() if a**q == a)
        assert count == p ** math.gcd(d, n)


def test_multiplicative_group_order():
    field = finite_field(3, 3)
    rng = random.Random(1)
    elements = list(field.elements())
    for _ in range(20):
        a = elements[rng.randrange(1, len(elements))]
        assert a ** (field.order - 1) == field.one()


def test_field_axioms_on_random_triples():
    field = finite_field(5, 2)
    rng = random.Random(2)
    elements = list(field.elements())
    for _ in range(60):
        a, b, c = (elements[rng.randrange(len(elements))] for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        if not a.is_zero:
            assert a * a.inverse() == field.one()


def test_inverse_of_zero_rejected():
    field = finite_field(3, 2)
    with pytest.raises(ZeroDivisionError):
        field.zero().inverse()


def test_enumeration_bound_enforced():
    with pytest.raises(ValueError):
        build_modulus(2, 25)
