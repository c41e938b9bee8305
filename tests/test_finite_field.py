"""F_p extension arithmetic, modulus construction, Frobenius."""

import functools
import itertools
import math
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import irreducible_by_trial_division, monic_polys, ring_mul, ring_pow, roots_by_evaluation
from padicspec import build_modulus, ext_ring, finite_field, fq_frobenius, teichmuller_lift_ext
from padicspec.finite_field import (
    FqElement,
    _ExtOps,
    _scan_roots,
    is_irreducible,
    poly_add,
    poly_divmod,
    poly_mul,
    poly_roots,
)
from padicspec.padic import _BaseOps


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
    """Monic, irreducible, and the first irreducible in enumeration order by trial division."""
    f = build_modulus(p, n)
    assert len(f) == n + 1 and f[-1] == 1
    assert is_irreducible(f, p)
    assert f == next(g for g in monic_polys(p, n) if irreducible_by_trial_division(g, p))


def test_irreducible_rejects_products():
    # (X+1)^2 = X^2 + 2X + 1 over F_3
    assert not is_irreducible((1, 2, 1), 3)
    assert not is_irreducible((0, 1, 1), 2)  # X(X+1)


def test_modulus_skips_a_root_free_reducible_quartic():
    """X^4 + 1 = (X^2 + X + 2)(X^2 + 2X + 2) over F_3 has no root, so only Rabin's test refuses it."""
    quartic = (1, 0, 0, 0, 1)
    assert not roots_by_evaluation([(c,) for c in quartic], 3, (0, 1))
    assert not irreducible_by_trial_division(quartic, 3)
    assert build_modulus(3, 4) == (1, 0, 1, 1, 1)
    assert build_modulus(3, 4) == next(g for g in monic_polys(3, 4) if irreducible_by_trial_division(g, 3))


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
        assert a ** (3**3 - 1) == field.one()


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


IRREDUCIBILITY_CASES = [(2, d) for d in range(5)] + [(3, d) for d in range(5)] + [
    (5, d) for d in range(4)
]


@pytest.mark.parametrize("p,degree", IRREDUCIBILITY_CASES)
def test_rabin_test_matches_trial_division(p, degree):
    for poly in monic_polys(p, degree):
        assert is_irreducible(poly, p) == irreducible_by_trial_division(poly, p), poly


def _random_monic(ops, elements, rng):
    """Random linear factors, some squared, times a random monic cofactor."""
    f = [ops.one]
    for _ in range(rng.randrange(4)):
        linear = [ops.neg(rng.choice(elements)), ops.one]
        for _ in range(rng.randrange(1, 3)):
            f = poly_mul(f, linear, ops)
    cofactor = [rng.choice(elements) for _ in range(rng.randrange(4))] + [ops.one]
    return poly_mul(f, cofactor, ops)


@pytest.mark.parametrize("p,degree", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_poly_roots_match_evaluation(p, degree):
    field = finite_field(p, degree)
    ops = field.ops
    elements = [a.coords for a in field.elements()]
    r, s = elements[1], elements[-1]
    repeated = poly_mul(
        poly_mul([ops.neg(r), ops.one], [ops.neg(r), ops.one], ops), [ops.neg(s), ops.one], ops
    )
    rootless = next(
        [c0, c1, ops.one]
        for c0, c1 in itertools.product(elements, repeat=2)
        if not roots_by_evaluation([c0, c1, ops.one], p, field.modulus)
    )
    rng = random.Random(p**degree)
    cases = [repeated, rootless] + [_random_monic(ops, elements, rng) for _ in range(40)]
    for f in cases:
        expected = roots_by_evaluation(f, p, field.modulus)
        assert poly_roots(f, p**degree, degree, ops, iter(elements)) == expected, f
    assert poly_roots(repeated, p**degree, degree, ops, iter(elements)) == sorted([r, s])
    assert poly_roots(rootless, p**degree, degree, ops, iter(elements)) == []


def _scan_field(p: int, degree: int):
    """(ops, elements in enumeration order, f -> f with coordinate-vector coefficients)."""
    if degree == 1:
        return _BaseOps(p, 1), list(range(p)), lambda f: [(c,) for c in f]
    field = finite_field(p, degree)
    return field.ops, [a.coords for a in field.elements()], list


@settings(max_examples=100, deadline=None)
@given(
    field=st.sampled_from([(2, 1), (3, 1), (5, 1), (7, 1), (53, 1), (2, 2), (3, 2), (5, 2), (2, 3), (3, 3)]),
    picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=10),
)
@example(field=(3, 1), picks=[1])
@example(field=(5, 1), picks=[0, 1, 2, 3, 4])
@example(field=(3, 2), picks=[4, 4, 4, 8, 8])
def test_scan_roots_match_evaluation(field, picks):
    """A product of linear factors (repeats allowed, n = 1 and the full split of F_q among
    them) deflates to a constant; the distinct roots come in enumeration order."""
    p, degree = field
    ops, elements, as_vectors = _scan_field(p, degree)
    f = [ops.one]
    for k in picks:
        f = poly_mul(f, [ops.neg(elements[k % len(elements)]), ops.one], ops)
    expected = roots_by_evaluation(as_vectors(f), p, finite_field(p, degree).modulus)
    got = _scan_roots(f, iter(elements), ops)
    assert as_vectors(got) == expected
    assert got == sorted({elements[k % len(elements)] for k in picks})


@pytest.mark.parametrize("p,degree", [(2, 1), (5, 1), (2, 2), (3, 2)])
def test_scan_without_full_split_is_an_internal_defect(p, degree):
    """A linear factor times a monic quadratic with no root: the scan ends at degree 2."""
    ops, elements, as_vectors = _scan_field(p, degree)
    rootless = next(
        [c0, c1, ops.one]
        for c0, c1 in itertools.product(elements, repeat=2)
        if not roots_by_evaluation(as_vectors([c0, c1, ops.one]), p, finite_field(p, degree).modulus)
    )
    f = poly_mul(rootless, [ops.neg(elements[-1]), ops.one], ops)
    with pytest.raises(RuntimeError, match=r"degree 2 \(internal defect\)"):
        _scan_roots(f, iter(elements), ops)


@pytest.mark.parametrize("p,degree", [(7, 2), (5, 3)])
def test_monic_divisors_invert_no_lead(monkeypatch, p, degree):
    """Division by a monic polynomial over F_{p^N} calls no inv_unit, and
    root finding never inverts 1; a non-monic divisor still divides exactly."""
    inverted = []
    real = _ExtOps.inv_unit

    def counting(self, a):
        inverted.append(a)
        return real(self, a)

    monkeypatch.setattr(_ExtOps, "inv_unit", counting)
    field = finite_field(p, degree)
    ops = field.ops
    elements = [a.coords for a in field.elements()]
    rng = random.Random(p + degree)
    f = [ops.one]
    for root in rng.sample(elements, 4):
        f = poly_mul(f, [ops.neg(root), ops.one], ops)
    divisor = _random_monic(ops, elements, rng)
    quo, rem = poly_divmod(f, divisor, ops)
    assert inverted == []
    assert poly_add(poly_mul(quo, divisor, ops), rem, ops) == f
    c = elements[-1]
    scaled = [ops.mul(c, x) for x in divisor]
    quo_c, rem_c = poly_divmod(f, scaled, ops)
    assert rem_c == rem and poly_mul(quo_c, [c], ops) == quo
    assert inverted == [c]
    inverted.clear()
    assert poly_roots(f, p**degree, degree, ops, iter(elements)) == sorted(
        roots_by_evaluation(f, p, field.modulus)
    )
    assert ops.one not in inverted


@pytest.mark.parametrize("p,degree", [(3, 2), (2, 3)])
@pytest.mark.parametrize("m", [1, 3])
def test_ext_inv_unit_on_every_element(p, degree, m):
    ops = ext_ring(p, degree, m).ops
    q = p**m
    modulus = build_modulus(p, degree)
    one = (1,) + (0,) * (degree - 1)
    for coords in itertools.product(range(q), repeat=degree):
        if any(c % p for c in coords):
            assert ring_mul(coords, ops.inv_unit(coords), modulus, q) == one, coords
        else:
            with pytest.raises(ZeroDivisionError):
                ops.inv_unit(coords)


@pytest.mark.parametrize("p,degree", [(3, 2), (2, 3)])
def test_fq_arithmetic_is_the_ring_arithmetic_at_precision_one(p, degree):
    field = finite_field(p, degree)
    ops = ext_ring(p, degree, 1).ops
    elements = list(field.elements())
    for a in elements:
        for b in elements:
            product = ring_mul(a.coords, b.coords, field.modulus, p)
            assert (a * b).coords == ops.mul(a.coords, b.coords) == product
        if not a.is_zero:
            assert a.inverse().coords == ops.inv_unit(a.coords)


def test_element_constructor_reduces_its_coordinates():
    """FqElement(field, coords) is the element of coords mod p, so (3, 0) over F_9 is zero."""
    field = finite_field(3, 2)
    x = FqElement(field, (3, 0))
    assert x.is_zero
    assert x == field.zero()
    assert FqElement(field, (-1, 7)) == field.element([2, 1])
    with pytest.raises(ValueError, match="wrong length"):
        FqElement(field, (1, 0, 0))


@pytest.mark.parametrize("p,degree", [(3, 2), (2, 3), (5, 1)])
def test_a_field_element_is_the_ring_element_at_precision_one(p, degree):
    """F_{p^N} is ext_ring(p, N, 1): its elements are that ring's, and lifting then reducing is the identity."""
    field, ring = finite_field(p, degree), ext_ring(p, degree, 1)
    for coords in itertools.product(range(p), repeat=degree):
        a, b = field.element(coords), ring.element(coords)
        assert a == b and hash(a) == hash(b)
        assert pickle.loads(pickle.dumps(a)) == a
        for m in (1, 3):
            w = teichmuller_lift_ext(a, m)
            assert w.reduction() == a
            assert teichmuller_lift_ext(w.reduction(), m) == w


def test_poly_roots_refuses_a_factor_it_could_not_split():
    """With no shift to sweep, (X - 1)(X - 2) over F_5 stays one quadratic factor: RuntimeError."""
    ops = _BaseOps(5, 1)
    with pytest.raises(RuntimeError, match="nonlinear factor"):
        poly_roots([2, 2, 1], 5, 1, ops, ())
    assert poly_roots([2, 2, 1], 5, 1, ops, range(5)) == [1, 2]


def test_unit_inversion_refuses_a_newton_phase_that_does_not_converge():
    """Newton's unit inversion spends a bounded number of steps, then refuses.

    The noisy product below adds p^(m-1) to every product equal to 1, so
    the noise vanishes mod p, the Fermat start mod p is unchanged, and
    no product ever reads exactly 1.
    """
    p, m = 3, 3
    modulus = build_modulus(p, 2)

    class NeverOne(_ExtOps):
        def mul(self, a, b):
            prod = super().mul(a, b)
            return self.add(prod, (p ** (m - 1), 0)) if prod == self.one else prod

    exact = _ExtOps(p, m, modulus)
    assert exact.mul((2, 1), exact.inv_unit((2, 1))) == exact.one
    with pytest.raises(RuntimeError, match="unit inversion failed to converge"):
        NeverOne(p, m, modulus).inv_unit((2, 1))


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_power_table_has_a_row_per_high_coefficient(degree):
    """Rows X^(N + j) mod f for j = 0 .. N - 2: a product of two entries has N - 1 coefficients past X^(N-1)."""
    ring = ext_ring(3, degree, 2)
    table = ring.ops._power_table
    assert len(table) == degree - 1
    x = (0, 1) + (0,) * (degree - 2)  # the class of X, at degree >= 2 where the table has rows
    assert table == [ring_pow(x, degree + j, ring.modulus, ring.ctx.modulus) for j in range(degree - 1)]


# (p, m): the struct path of byte-aligned slots at small q, shift-and-mask past 64 bits
_KERNEL_PRECISIONS = [(2, 1), (3, 4), (5, 8), (2**31 - 1, 2), (2**31 - 1, 3)]


@settings(max_examples=120, deadline=None)
@given(st.data())
@example(data=None)
def test_ext_matmul_and_dot_match_the_schoolbook_product(data):
    """_ExtOps.matmul and dot equal the product of entries by mul summed by add, at degrees 1-4.

    The shapes are those of the spectral path: 1 x k by k x n (a stacked
    reassembly), k x 1 by 1 x n, n x n by n x n, and n x n by the k
    blocks of n x (n k).  The modulus is any monic f, which the product
    kernel does not need irreducible, so the 31-bit prime reaches the
    shift-and-mask slots of more than 64 bits.
    """
    if data is None:  # the pinned example: degree 3 past 64 bits, every shape at n = k = 2
        p, m, degree, modulus, n, k, seed = 2**31 - 1, 2, 3, (5, 0, 7, 1), 2, 2, 0
    else:
        p, m = data.draw(st.sampled_from(_KERNEL_PRECISIONS))
        degree = data.draw(st.integers(1, 4))
        modulus = tuple(data.draw(st.lists(st.integers(0, p**m - 1), min_size=degree, max_size=degree))) + (1,)
        n, k, seed = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4)), data.draw(st.integers(0, 2**32))
    ops, q, rng = _ExtOps(p, m, modulus), p**m, random.Random(seed)

    def matrix(rows, cols):
        return tuple(tuple(tuple(rng.randrange(q) for _ in range(degree)) for _ in range(cols)) for _ in range(rows))

    def schoolbook(a, b):
        return tuple(
            tuple(functools.reduce(ops.add, map(ops.mul, row, col), ops.zero) for col in zip(*b)) for row in a
        )

    x, y = matrix(1, 2)[0]
    assert ops.mul(x, y) == ring_mul(x, y, modulus, q)
    for rows, inner, cols in [(1, k, n), (k, 1, n), (n, n, n), (n, n, n * k)]:
        a, b = matrix(rows, inner), matrix(inner, cols)
        assert ops.matmul(a, b) == schoolbook(a, b)
    xs, ys = matrix(1, k)[0], matrix(1, k)[0]
    assert ops.dot(xs, ys) == schoolbook((xs,), tuple((y,) for y in ys))[0][0]
