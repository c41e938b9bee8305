"""The extension ring O_K/p^m: lifts, census, reduction."""

import functools
import math
import operator
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicspec import (
    ExtScalar,
    PadicScalar,
    PrecisionContext,
    UMatrix,
    enumerate_teichmuller,
    ext_ring,
    finite_field,
    reduce_mod_p,
    sigma_fixed_points,
    teichmuller_lift_ext,
)
from padicspec.padic import is_prime

from helpers import sigma_fixed_points_oracle, teichmuller_lift_ext_oracle


def test_lift_of_one_and_zero():
    field = finite_field(3, 2)
    assert teichmuller_lift_ext(field.one(), 3).vector() == (1, 0)
    assert teichmuller_lift_ext(field.zero(), 3).vector() == (0, 0)


def test_lift_of_generator_is_fixed_point():
    field = finite_field(3, 2)
    w = teichmuller_lift_ext(field.generator(), 2)
    assert w.sigma_window(2).vector() == w.vector()
    assert w.reduction() == field.generator()


def test_census_base_case():
    points = enumerate_teichmuller(3, 1, 2)
    assert sorted(s.vector()[0] for s in points) == [0, 1, 8]


def test_census_p2_any_precision():
    for m in (1, 2, 4):
        points = enumerate_teichmuller(2, 1, m)
        assert sorted(s.vector()[0] for s in points) == [0, 1]


def test_census_residue_field_at_precision_one():
    points = enumerate_teichmuller(2, 2, 1)
    assert len(points) == 4
    assert {s.vector() for s in points} == {(0, 0), (0, 1), (1, 0), (1, 1)}


@pytest.mark.parametrize("p,n,m", [(2, 2, 3), (2, 3, 2), (3, 2, 3), (5, 2, 2)])
def test_census_counts_and_fixedness(p, n, m):
    points = enumerate_teichmuller(p, n, m)
    assert len(points) == p**n
    q = p**n
    seen = set()
    for w in points:
        assert w.sigma_window(n).vector() == w.vector()
        seen.add(w.vector())
    assert len(seen) == q


def test_distinct_reductions_have_unit_distance():
    points = enumerate_teichmuller(3, 2, 3)
    for i, a in enumerate(points):
        for b in points[i + 1 :]:
            assert (a - b).valuation == 0


def test_frobenius_permutes_census_with_small_orbits():
    points = enumerate_teichmuller(2, 3, 2)
    keys = {w.vector() for w in points}
    for w in points:
        orbit = [w.vector()]
        cur = w
        for _ in range(3):
            cur = cur.sigma_window()
            assert cur.vector() in keys
            if cur.vector() == w.vector():
                break
            orbit.append(cur.vector())
        assert 3 % len(orbit) == 0


def test_lift_reduce_identity():
    field = finite_field(3, 2)
    for a in field.elements():
        assert teichmuller_lift_ext(a, 3).reduction() == a


SMALL_FIELDS = [
    (p, degree)
    for p in range(2, 126)
    if is_prime(p)
    for degree in range(1, 8)
    if p**degree <= 125
]


@pytest.mark.parametrize("p,degree", SMALL_FIELDS)
def test_closed_form_ext_lift_matches_iteration(p, degree):
    for a in finite_field(p, degree).elements():
        for m in range(1, 13):
            assert teichmuller_lift_ext(a, m).vector() == teichmuller_lift_ext_oracle(a, m)


@pytest.mark.parametrize(
    "p,pairs",
    [
        (2, [(1, 2), (1, 3), (2, 4), (2, 3), (3, 6), (2, 6), (4, 6), (3, 4), (4, 2)]),
        (3, [(1, 2), (2, 6), (3, 6), (2, 3)]),
        (5, [(1, 2), (2, 1)]),
    ],
)
def test_containment_iff_divisibility(p, pairs):
    """T_N sits inside T_N* exactly when N divides N*, inside a common ring."""
    for n, n_star in pairs:
        degree = math.lcm(n, n_star)
        m = 2
        small = {w.vector() for w in sigma_fixed_points(p, degree, n, m)}
        large = {w.vector() for w in sigma_fixed_points(p, degree, n_star, m)}
        assert (small <= large) == (n_star % n == 0)


def test_sigma_fixed_points_match_the_filter_oracle():
    """The subfield enumeration equals the a^(p^N) = a filter, order included."""
    for p in filter(is_prime, range(2, 730)):
        degree = 1
        while p**degree <= 729:
            for period in range(1, degree + 1):
                got = [w.vector() for w in sigma_fixed_points(p, degree, period, 1)]
                want = [w.vector() for w in sigma_fixed_points_oracle(p, degree, period, 1)]
                assert got == want, (p, degree, period)
            degree += 1


def test_fixed_point_counts_in_common_ring():
    # inside the degree-4 ring the period-2 set has p^2 points
    pts = sigma_fixed_points(2, 4, 2, 2)
    assert len(pts) == 4


def test_ring_arithmetic_against_modulus():
    ring = ext_ring(3, 2, 2)
    x = ring.element((0, 1))
    assert (x * x).vector() == (8, 0)  # X^2 = -1 mod X^2+1


def test_ring_inverse():
    ring = ext_ring(3, 2, 3)
    a = ring.element((2, 5))
    assert (a / a).vector() == ring.one().vector()
    not_a_unit = ring.element((3, 24))  # reduction mod 3 is zero
    with pytest.raises(ZeroDivisionError):
        a / not_a_unit


@pytest.mark.parametrize("p,m", [(5, 2), (3, 2)])
def test_embed_refuses_a_scalar_of_another_context(p, m):
    """A residue mod p^m read over another p, or as exact at a higher precision, is refused."""
    ring = ext_ring(3, 2, 4)
    with pytest.raises(ValueError, match="is not the context"):
        ring.embed(PadicScalar.from_int(7, PrecisionContext(p, m)))
    assert ring.embed(PadicScalar.from_int(7, PrecisionContext(3, 4))) == ring.element((7, 0))


_SIGMA_AT = {
    "base-scalar": lambda period: PadicScalar.from_int(2, PrecisionContext(3, 2)).sigma_window(period),
    "ext-scalar": lambda period: ext_ring(3, 2, 2).element((1, 2)).sigma_window(period),
    "matrix": lambda period: UMatrix.from_ints([[1, 0], [0, 2]], PrecisionContext(3, 2)).sigma_window(period),
    "fixed-points": lambda period: sigma_fixed_points(3, 2, period, 2),
}


@pytest.mark.parametrize("period", [0, -1])
@pytest.mark.parametrize("kind", list(_SIGMA_AT))
def test_sigma_refuses_periods_below_one(kind, period):
    with pytest.raises(ValueError, match="period must be >= 1"):
        _SIGMA_AT[kind](period)


def test_reduce_scalar_and_matrix():
    ctx = PrecisionContext(5, 2)
    assert reduce_mod_p(PadicScalar.from_int(7, ctx)) == 2
    assert reduce_mod_p(PadicScalar.from_int(10, ctx)) == 0
    mat = UMatrix.from_ints([[7, 1], [0, 5]], ctx)
    assert reduce_mod_p(mat) == ((2, 1), (0, 0))


def test_reduce_ext_scalar():
    ring = ext_ring(3, 2, 2)
    a = ring.element((4, 3))
    red = reduce_mod_p(a)
    assert red.coords == (1, 0)


def test_reduce_rejects_norm_above_one():
    ctx = PrecisionContext(5, 2)
    from padicspec import scalar_from_rational

    with pytest.raises(ValueError):
        reduce_mod_p(scalar_from_rational(1, 5, ctx))


def test_ring_axioms_on_random_triples():
    import random

    ring = ext_ring(3, 3, 3)
    rng = random.Random(9)
    q = ring.ctx.modulus
    rand = lambda: ring.element([rng.randrange(q) for _ in range(3)])
    for _ in range(40):
        a, b, c = rand(), rand(), rand()
        assert ((a + b) + c).vector() == (a + (b + c)).vector()
        assert ((a * b) * c).vector() == (a * (b * c)).vector()
        assert (a * (b + c)).vector() == (a * b + a * c).vector()
        assert (a * b).vector() == (b * a).vector()
        # sup-norm bounds
        assert (a * b).valuation >= a.valuation + b.valuation
        assert (a + b).valuation >= min(a.valuation, b.valuation)


def test_orthonormal_columns_over_extension():
    from padicspec import UMatrix, is_orthonormal_columns

    ring = ext_ring(3, 2, 3)
    ident = UMatrix.identity(2, ring.ctx).promote(ring)
    assert is_orthonormal_columns(ident, samples=8)
    x = ring.element((0, 1))
    upper = UMatrix.from_scalars([[ring.one(), x], [ring.zero(), ring.one()]])
    assert is_orthonormal_columns(upper, samples=8)
    scaled = UMatrix.from_scalars([[ring.embed(3), ring.zero()], [ring.zero(), ring.one()]])
    assert not is_orthonormal_columns(scaled)


def test_classify_ext_scalar_orbits():
    """A residue-field generator of F_4 cycles with period 2 under the p-power map."""
    from padicspec import OrbitKind, classify_orbit

    ring = ext_ring(2, 2, 2)
    gen = teichmuller_lift_ext(finite_field(2, 2).generator(), 2)
    assert classify_orbit(gen, 1).kind is OrbitKind.CHAOS_AT_PRECISION
    report = classify_orbit(gen, 2)
    assert report.kind is OrbitKind.PERIODIC
    assert report.period == 2
    assert classify_orbit(ring.one(), 1).kind is OrbitKind.PERIODIC


@pytest.mark.parametrize("p,degree,m", [(3, 2, 4), (2, 3, 3), (5, 3, 2)])
def test_ext_shift_is_multiplication_by_p_power(p, degree, m):
    ring = ext_ring(p, degree, m)
    rng = random.Random(100 * p + degree)
    q = ring.ctx.modulus
    samples = [ring.zero(), ring.one()] + [
        ring.element([rng.randrange(q) for _ in range(degree)]) for _ in range(20)
    ]
    for x in samples:
        for k in sorted({0, 1, m - 1, m}):
            assert x.shift(k) == x * ring.embed(pow(p, k, q))


@pytest.mark.parametrize("p,degree,m", [(3, 2, 4), (2, 3, 3), (5, 3, 2)])
def test_ext_shift_down_divides_every_coordinate(p, degree, m):
    ring = ext_ring(p, degree, m)
    rng = random.Random(7 * p + degree)
    q = ring.ctx.modulus
    for _ in range(20):
        j = rng.randrange(1, m)
        coords = [p**j * rng.randrange(q // p**j) for _ in range(degree)]
        x = ring.element(coords)
        assert x.shift(-j).vector() == tuple(c // p**j for c in coords)
        bad = ring.element(coords[:-1] + [coords[-1] + p ** (j - 1)])
        with pytest.raises(ValueError):
            bad.shift(-j)


DOT_RINGS = [(2, 2, 3), (3, 2, 4), (5, 2, 2), (2, 3, 4), (3, 3, 3), (7, 3, 2)]


@settings(max_examples=200, deadline=None)
@given(
    ring_args=st.sampled_from(DOT_RINGS),
    other_args=st.sampled_from(DOT_RINGS),
    n=st.integers(1, 8),
    mixed_at=st.integers(-1, 15),
    seed=st.integers(0, 2**32 - 1),
)
@example(ring_args=(3, 2, 4), other_args=(3, 3, 4), n=8, mixed_at=0, seed=0)
@example(ring_args=(3, 2, 4), other_args=(3, 2, 3), n=3, mixed_at=5, seed=1)
def test_ext_dot_matches_the_object_reduce(ring_args, other_args, n, mixed_at, seed):
    """One ring dot product equals reduce(+, map(*)); a factor from another ring is refused."""
    ring = ext_ring(*ring_args)
    rng = random.Random(seed)
    p, m = ring.ctx.p, ring.ctx.m

    def entry(r):
        scale = p ** rng.randrange(m + 1)
        return r.element([rng.randrange(r.ctx.modulus) * scale for _ in range(r.degree)])

    xs = [entry(ring) for _ in range(n)]
    ys = [entry(ring) for _ in range(n)]
    other = ext_ring(*other_args)
    if 0 <= mixed_at < 2 * n and other != ring:
        (xs if mixed_at < n else ys)[mixed_at % n] = entry(other)
        with pytest.raises(ValueError, match="mixed extension rings"):
            functools.reduce(operator.add, map(operator.mul, xs, ys))
        with pytest.raises(ValueError, match="mixed extension rings"):
            ExtScalar.dot(xs, ys)
        return
    assert ExtScalar.dot(xs, ys) == functools.reduce(operator.add, map(operator.mul, xs, ys))


@settings(max_examples=100, deadline=None)
@given(
    ring_args=st.sampled_from(DOT_RINGS + [(3, 1, 4), (211, 2, 3), (5, 3, 1)]),
    n=st.integers(0, 20),
    top=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(ring_args=(7, 3, 2), n=20, top=True, seed=0)
def test_ext_ops_dot_matches_the_ops_reduce(ring_args, n, top, seed):
    """The packed coordinate dot equals reduce(add, map(mul)) from zero; top plants all q - 1."""
    ops = ext_ring(*ring_args).ops
    rng = random.Random(seed)

    def vector():
        return tuple(ops.q - 1 if top else rng.randrange(ops.q) for _ in range(ops.degree))

    xs = [vector() for _ in range(n)]
    ys = [vector() for _ in range(n)]
    assert ops.dot(xs, ys) == functools.reduce(ops.add, map(ops.mul, xs, ys), ops.zero)
