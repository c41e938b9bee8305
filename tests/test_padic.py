"""Scalar arithmetic, multiplicative lifts, digit expansions, orbit scans."""

import copy
import functools
import math
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicspec import (
    INFINITE,
    NormOutOfRangeError,
    OrbitKind,
    PadicScalar,
    PrecisionContext,
    UMatrix,
    classify_orbit,
    ext_ring,
    frobenius_step,
    hermite_digits_matrix,
    norm_from_valuation,
    scalar_from_rational,
    teichmuller_digits,
    teichmuller_lift,
    teichmuller_points,
)
from padicspec.finite_field import FqElement, _ExtOps, finite_field
from padicspec.ladders import CoeffVector
from padicspec.unramified import ExtScalar
from padicspec.padic import PRIMALITY_LIMIT, _BaseOps, _teichmuller_residue, is_prime

from helpers import (
    padic_dot_oracle,
    plant_cancellations,
    rand_padic_scalar,
    teichmuller_lift_oracle,
    trial_division_is_prime,
)

CTX34 = PrecisionContext(3, 4)
CTX52 = PrecisionContext(5, 2)
CTX53 = PrecisionContext(5, 3)


# -- construction and context ----------------------------------------------------


def test_is_prime_matches_trial_division():
    for n in range(200_000):
        assert is_prime(n) == trial_division_is_prime(n), n


def test_is_prime_rejects_strong_pseudoprimes():
    # Carmichael numbers, strong pseudoprimes to the bases up to 7 and up
    # to 31, and the one to every prime base up to 37 that base 41 exposes
    for n in (561, 41041, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n


def test_is_prime_accepts_large_primes_and_refuses_beyond_its_bound():
    assert is_prime(2**31 - 1)
    assert is_prime(2**61 - 1)
    assert PRIMALITY_LIMIT < 2**89 - 1
    for n in (PRIMALITY_LIMIT, 2**89 - 1):
        with pytest.raises(ValueError):
            is_prime(n)


def test_peeling_at_a_61_bit_prime_proves_it_once():
    """Each peeling stage above precision m builds a context at p (the stage at m runs over the
    matrix's own), and only the first context at p runs Miller-Rabin."""
    p = 2**61 - 1
    is_prime.cache_clear()
    ctx = PrecisionContext(p, 8)
    rng = random.Random(5)
    a = UMatrix.from_residues([[rng.randrange(ctx.modulus), 0], [0, rng.randrange(ctx.modulus)]], ctx)
    assert len(hermite_digits_matrix(a).digits) == ctx.m
    info = is_prime.cache_info()
    assert (info.misses, info.hits >= ctx.m - 1) == (1, True)


def test_lift_answers_at_a_61_bit_prime():
    ctx = PrecisionContext(2**61 - 1, 2)
    assert teichmuller_lift(1, ctx).residue() == 1
    w = teichmuller_lift(2, ctx)
    assert frobenius_step(w).residue() == w.residue()


def test_context_rejects_composite_prime():
    with pytest.raises(ValueError):
        PrecisionContext(6, 3)


def test_context_rejects_bad_precision():
    with pytest.raises(ValueError):
        PrecisionContext(3, 0)


def test_canonical_form_enforced():
    with pytest.raises(ValueError):
        PadicScalar(CTX34, 0, 3)  # unit divisible by p
    with pytest.raises(ValueError):
        PadicScalar(CTX34, 0, 81)  # unit outside window


# (build, ValueError text) for each field check of a value type's constructor
_MALFORMED = {
    "unit-divisible-by-p": (lambda: PadicScalar(CTX34, 0, 3), "divisible by p"),
    "unit-past-the-window": (lambda: PadicScalar(CTX34, 0, 82), r"outside \(0, p\^m\)"),
    "negative-unit": (lambda: PadicScalar(CTX34, 0, -1), r"outside \(0, p\^m\)"),
    "sentinel-with-a-unit": (lambda: PadicScalar(CTX34, INFINITE, 1), "unit 0"),
    "fractional-valuation": (lambda: PadicScalar(CTX34, 0.5, 1), "must be an integer"),
    "composite-p": (lambda: PrecisionContext(9, 2), "not prime"),
    "precision-0": (lambda: PrecisionContext(3, 0), "must be >= 1"),
    "non-square-matrix": (lambda: UMatrix(((PadicScalar.one(CTX34),) * 2,)), "square"),
    "empty-matrix": (lambda: UMatrix(()), "square"),
    "mixed-entry-types": (lambda: UMatrix(((PadicScalar.one(CTX34), ext_ring(3, 2, 4).one()),) * 2),
                          "mixed entry types"),
    "fq-coordinates-too-short": (lambda: FqElement(finite_field(3, 2), (1,)), "wrong length"),
    "ext-coordinates-too-long": (lambda: ExtScalar(ext_ring(3, 2, 4), (1, 2, 0)),
                                 "wrong length"),
    "empty-coefficient-vector": (lambda: CoeffVector(CTX34, ()), "nonempty"),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_value_constructors_refuse_malformed_fields(case):
    build, text = _MALFORMED[case]
    with pytest.raises(ValueError, match=text):
        build()


# -- value semantics of the frozen types ------------------------------------------

# Each value type twice from the same arguments, and its repr as the frozen
# dataclasses printed it.
_CTX32 = PrecisionContext(3, 2)
_VALUES = {
    "context": (lambda: PrecisionContext(3, 2), "PrecisionContext(p=3, m=2)"),
    "scalar": (lambda: PadicScalar(_CTX32, 1, 2), "PadicScalar(3^1*2; m=2)"),
    "zero": (lambda: PadicScalar.zero(_CTX32), "PadicScalar(0; p=3, m=2)"),
    "fq": (lambda: finite_field(3, 2).generator(), "Fq(0, 1)@p^2"),
    "fp": (lambda: finite_field(5, 1).one(), "F5(1)"),
    "ext": (lambda: ext_ring(3, 2, 2).element([1, 2]), "ExtScalar(1, 2)@ExtRing(p=3, degree=2, m=2)"),
    "ring": (lambda: ext_ring(3, 2, 2), "ExtRing(p=3, degree=2, m=2)"),
    "matrix": (lambda: UMatrix.from_ints([[1, 3], [0, 2]], _CTX32), "UMatrix(n=2, ring=base, p=3, m=2)"),
    "coefficients": (
        lambda: CoeffVector(_CTX32, (PadicScalar.one(_CTX32), PadicScalar.zero(_CTX32)), True),
        "CoeffVector(ctx=PrecisionContext(p=3, m=2), coeffs=(PadicScalar(3^0*1; m=2), "
        "PadicScalar(0; p=3, m=2)), truncated=True)",
    ),
}


@pytest.mark.parametrize("kind", list(_VALUES))
def test_value_types_are_frozen(kind):
    value = _VALUES[kind][0]()
    before = repr(value)
    for name in [*type(value)._fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == before


@pytest.mark.parametrize("kind", list(_VALUES))
def test_value_types_compare_and_hash_by_value_within_their_class(kind):
    build, text = _VALUES[kind]
    a, b = build(), build()
    assert repr(a) == text
    assert a == b and not a != b and hash(a) == hash(b)
    assert copy.copy(a) == a == pickle.loads(pickle.dumps(a))
    for other_kind, (other, _) in _VALUES.items():
        if other_kind != kind:
            assert a != other()
    assert a != tuple(getattr(a, name) for name in type(a)._fields)


def test_context_compares_on_p_and_m():
    ctx = PrecisionContext(3, 2)
    assert ctx == PrecisionContext(3, 2) != PrecisionContext(3, 3) != PrecisionContext(2, 3)
    assert hash(ctx) == hash((3, 2))
    assert ctx.modulus == 9


def test_coefficient_vector_compares_without_its_truncation_flag():
    coeffs = (PadicScalar.one(CTX34),)
    flagged, clean = CoeffVector(CTX34, coeffs, True), CoeffVector(CTX34, coeffs)
    assert flagged == clean and hash(flagged) == hash(clean)
    assert (flagged.truncated, clean.truncated) == (True, False)
    assert repr(flagged) == repr(clean).replace("truncated=False", "truncated=True") != repr(clean)
    assert flagged != CoeffVector(CTX34, (PadicScalar.zero(CTX34),), True)


# -- scalar_from_rational ----------------------------------------------------------


def test_rational_one_half_mod_81():
    x = scalar_from_rational(1, 2, CTX34)
    assert x.valuation == 0
    assert x.unit == 41  # 2 * 41 = 82 = 1 mod 81


def test_rational_zero_is_sentinel():
    x = scalar_from_rational(0, 1, CTX34)
    assert x.is_zero
    assert x.norm == 0.0


def test_rational_nine_has_valuation_two():
    x = scalar_from_rational(9, 1, CTX34)
    assert (x.valuation, x.unit) == (2, 1)


def test_rational_rejects_zero_denominator():
    with pytest.raises(ValueError):
        scalar_from_rational(1, 0, CTX34)


def test_rational_negative_valuation():
    x = scalar_from_rational(1, 3, CTX34)
    assert x.valuation == -1
    assert x.norm == 3.0


# -- frobenius_step -------------------------------------------------------------------


def test_frobenius_two_at_five():
    x = PadicScalar.from_int(2, CTX52)
    assert frobenius_step(x).residue() == 7  # 2^5 = 32 = 7 mod 25


def test_frobenius_fixes_one():
    one = PadicScalar.one(CTX52)
    assert frobenius_step(one, 3) == one


def test_frobenius_kills_p_at_low_precision():
    x = PadicScalar.from_int(5, CTX53)
    assert frobenius_step(x).is_zero  # 5^5 = 0 mod 125


def test_frobenius_rejects_norm_above_one():
    x = scalar_from_rational(1, 5, CTX53)
    with pytest.raises(ValueError):
        frobenius_step(x)


# -- teichmuller_lift -------------------------------------------------------------------


def test_lift_examples():
    assert teichmuller_lift(2, CTX52).residue() == 7
    assert teichmuller_lift(2, CTX53).residue() == 57
    assert teichmuller_lift(0, CTX53).is_zero


@pytest.mark.parametrize("p,m", [(3, 2), (3, 5), (5, 3), (7, 2)])
def test_lift_of_minus_one(p, m):
    ctx = PrecisionContext(p, m)
    assert teichmuller_lift(p - 1, ctx).residue() == p**m - 1


def test_lift_rejects_out_of_range():
    with pytest.raises(ValueError):
        teichmuller_lift(5, CTX52)


@pytest.mark.parametrize("p,m", [(2, 4), (3, 4), (5, 4)])
def test_fixed_point_census_exhaustive(p, m):
    # Brute enumeration: exactly p residues satisfy r^p = r mod p^m.
    q = p**m
    fixed = [r for r in range(q) if pow(r, p, q) == r]
    assert len(fixed) == p
    lifted = sorted(w.residue() for w in teichmuller_points(PrecisionContext(p, m)))
    assert lifted == sorted(fixed)


@st.composite
def lift_problem(draw):
    if draw(st.integers(0, 5)) == 0:
        p, m = 2**61 - 1, draw(st.integers(min_value=1, max_value=8))
    else:
        p, m = draw(st.sampled_from([2, 3, 5, 7, 211])), draw(st.integers(min_value=1, max_value=64))
    return draw(st.integers(min_value=0, max_value=p - 1)), PrecisionContext(p, m)


@settings(max_examples=200, deadline=None)
@given(lift_problem())
@example((1, PrecisionContext(2, 1)))
@example((2**61 - 2, PrecisionContext(2**61 - 1, 8)))
@example((210, PrecisionContext(211, 64)))
def test_closed_form_lift_matches_iteration(problem):
    residue, ctx = problem
    assert teichmuller_lift(residue, ctx) == teichmuller_lift_oracle(residue, ctx)


def test_lift_multiplicativity():
    ctx = PrecisionContext(7, 3)
    for a in range(7):
        for b in range(7):
            lhs = teichmuller_lift(a, ctx) * teichmuller_lift(b, ctx)
            rhs = teichmuller_lift((a * b) % 7, ctx)
            assert lhs.congruent(rhs)


@pytest.mark.parametrize("degree", [1, 2])
def test_teichmuller_residue_checks_that_its_point_is_fixed(degree):
    """The one lift over Z/5^3 and the degree-2 ring mod 5^3, at 2 and at X + 2.

    Its closed form is fixed by sigma^D and reduces to the element it
    lifts.  Ops that understate their precision (m = 1 on a ring mod
    5^3) stop the closed form short of the fixed point, and the lift
    refuses it as an internal defect.
    """
    if degree == 1:
        ops, x = _BaseOps(5, 3), 2
    else:
        ops, x = _ExtOps(5, 3, finite_field(5, 2).modulus), (2, 1)
    q = 5**degree
    w = _teichmuller_residue(x, ops)
    assert ops.pow(w, q) == w and ops.reduce(w) == x
    ops.m = 1
    with pytest.raises(RuntimeError, match="internal defect"):
        _teichmuller_residue(x, ops)


# -- digits ---------------------------------------------------------------------------


def test_digits_of_one():
    d = teichmuller_digits(PadicScalar.one(CTX34))
    assert d.lead_valuation == 0
    assert d.digits[0].residue() == 1
    assert all(x.is_zero for x in d.digits[1:])


def test_digits_of_two_at_five():
    d = teichmuller_digits(PadicScalar.from_int(2, CTX52))
    assert [x.residue() for x in d.digits] == [7, 24]
    assert (7 + 5 * 24) % 25 == 2


def test_digits_factor_valuation():
    ctx = PrecisionContext(3, 3)
    unit = PadicScalar.from_int(2, ctx)
    shifted = PadicScalar.from_int(6, ctx)
    assert teichmuller_digits(shifted).lead_valuation == 1
    du = teichmuller_digits(unit)
    ds = teichmuller_digits(shifted)
    assert [x.residue() for x in du.digits] == [x.residue() for x in ds.digits]


def test_digits_of_zero():
    d = teichmuller_digits(PadicScalar.zero(CTX34))
    assert all(x.is_zero for x in d.digits)
    assert d.reassemble().is_zero


# -- orbit classification ---------------------------------------------------------------


def test_classify_periodic():
    report = classify_orbit(PadicScalar.from_int(7, CTX52), 3)
    assert report.kind is OrbitKind.PERIODIC
    assert report.period == 1


def test_classify_quasi_periodic_with_limit():
    report = classify_orbit(PadicScalar.from_int(2, CTX52), 3)
    assert report.kind is OrbitKind.QUASI_PERIODIC
    assert report.period == 1
    assert report.limit.residue() == 7


def test_classify_zero_and_p_are_nilpotent():
    assert classify_orbit(PadicScalar.zero(CTX52), 2).kind is OrbitKind.TOP_NILPOTENT
    assert classify_orbit(PadicScalar.from_int(5, CTX52), 2).kind is OrbitKind.TOP_NILPOTENT


def test_classify_rejects_norm_above_one():
    with pytest.raises(ValueError):
        classify_orbit(scalar_from_rational(1, 5, CTX52), 2)


@st.composite
def integral_scalar(draw):
    """An integral PadicScalar (degree 1) or ExtScalar (degree 1-3), p in {2, 3, 5}, m <= 5."""
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(min_value=1, max_value=5))
    degree = draw(st.integers(min_value=0, max_value=3))
    q = p**m
    residues = st.integers(min_value=0, max_value=q - 1)
    if degree == 0:
        return PadicScalar.from_residue(draw(residues), PrecisionContext(p, m))
    coords = draw(st.lists(residues, min_size=degree, max_size=degree))
    return ext_ring(p, degree, m).element(coords)


@settings(max_examples=200, deadline=None)
@given(integral_scalar(), st.integers(min_value=1, max_value=4))
@example(PadicScalar.from_int(2, CTX52), 3)
@example(PadicScalar.from_int(5, CTX52), 2)
def test_classify_of_a_scalar_is_that_of_its_one_by_one_matrix(x, bound):
    """A scalar's orbit report is its 1 x 1 matrix's: verdict, steps, budget and limit key."""
    scalar = classify_orbit(x, bound)
    matrix = classify_orbit(UMatrix.from_scalars([[x]]), bound)
    assert (scalar.kind, scalar.period, scalar.steps, scalar.budget) == (
        matrix.kind,
        matrix.period,
        matrix.steps,
        matrix.budget,
    )
    assert (scalar.limit is None) == (matrix.limit is None)
    if scalar.limit is not None:
        assert type(scalar.limit) is type(x)
        assert matrix.limit.residue_key() == ((scalar.limit.residue_key(),),)


# -- algebraic properties ------------------------------------------------------------------


@st.composite
def scalar_and_ctx(draw, allow_negative=True):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    m = draw(st.integers(min_value=1, max_value=6))
    ctx = PrecisionContext(p, m)
    low = -3 if allow_negative else 0
    if draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
        return ctx, PadicScalar.zero(ctx)
    v = draw(st.integers(min_value=low, max_value=m + 1))
    unit = draw(st.integers(min_value=1, max_value=ctx.modulus - 1).filter(lambda u: u % p))
    return ctx, PadicScalar(ctx, v, unit)


def _pair(draw_fn):
    @st.composite
    def inner(draw):
        ctx, x = draw(draw_fn())
        if x.is_zero:
            y_raw = draw(st.integers(min_value=0, max_value=ctx.modulus - 1))
            return ctx, x, PadicScalar.from_residue(y_raw, ctx)
        v = draw(st.integers(min_value=-3, max_value=ctx.m + 1))
        unit = draw(
            st.integers(min_value=1, max_value=ctx.modulus - 1).filter(lambda u: u % ctx.p)
        )
        return ctx, x, PadicScalar(ctx, v, unit)

    return inner()


@settings(max_examples=150, deadline=None)
@given(_pair(scalar_and_ctx))
def test_ultrametric_inequality(data):
    ctx, x, y = data
    s = x + y
    assert s.valuation >= min(x.valuation, y.valuation)
    if x.valuation != y.valuation:
        assert s.valuation == min(x.valuation, y.valuation)


@settings(max_examples=150, deadline=None)
@given(_pair(scalar_and_ctx))
def test_norm_multiplicative(data):
    _, x, y = data
    assert (x * y).valuation == x.valuation + y.valuation


@settings(max_examples=100, deadline=None)
@given(scalar_and_ctx(allow_negative=False))
def test_digit_reassembly_roundtrip(data):
    _, x = data
    expansion = teichmuller_digits(x)
    assert expansion.reassemble() == x
    for digit in expansion.digits:
        r = digit.residue()
        assert pow(r, x.ctx.p, x.ctx.modulus) == r


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_frobenius_contraction(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    m = data.draw(st.integers(min_value=2, max_value=6))
    ctx = PrecisionContext(p, m)
    base = data.draw(st.integers(min_value=0, max_value=ctx.modulus - 1))
    delta = data.draw(st.integers(min_value=0, max_value=ctx.modulus // p))
    x = PadicScalar.from_residue(base, ctx)
    y = PadicScalar.from_residue((base + p * delta) % ctx.modulus, ctx)
    gap = (x - y).valuation
    if gap == math.inf:
        return
    image_gap = (frobenius_step(x) - frobenius_step(y)).valuation
    assert image_gap >= min(gap + 1, m)


@settings(max_examples=100, deadline=None)
@given(_pair(scalar_and_ctx))
def test_subtraction_inverts_addition(data):
    ctx, x, y = data
    diff = ((x + y) - y) - x
    # Round-trip exact up to the window at the common base valuation.
    window = min(x.valuation, y.valuation) + ctx.m
    assert diff.is_zero or diff.valuation >= window


def test_norm_from_valuation_in_range():
    assert norm_from_valuation(3, INFINITE) == 0.0
    assert norm_from_valuation(3, 0) == 1.0
    assert norm_from_valuation(3, -2) == 9.0
    assert norm_from_valuation(2, 3) == 0.125
    assert norm_from_valuation(2, 1074) == 2.0**-1074  # smallest subnormal, still nonzero


@pytest.mark.parametrize("p,v", [(3, -1000), (2, -1024), (3, 1000), (2, 1075), (5, 10**400)])
def test_norm_from_valuation_refuses_overflow_and_underflow(p, v):
    with pytest.raises(NormOutOfRangeError) as info:
        norm_from_valuation(p, v)
    assert (info.value.p, info.value.valuation) == (p, v)
    with pytest.raises(NormOutOfRangeError):
        PadicScalar(PrecisionContext(p, 2), v, 1).norm


# -- the fused dot product ----------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 211]),
    m=st.integers(1, 8),
    n=st.integers(1, 16),
    zero_frac=st.sampled_from([0.0, 0.3, 0.9]),
    low=st.integers(-4, 0),
    plants=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example(p=3, m=8, n=16, zero_frac=0.3, low=-2, plants=6, seed=0)
@example(p=2, m=1, n=16, zero_frac=0.0, low=0, plants=0, seed=1)
def test_dot_matches_the_object_reduce(p, m, n, zero_frac, low, plants, seed):
    """Zero sentinels, negative and mixed valuations, sums that cancel past the window."""
    ctx = PrecisionContext(p, m)
    rng = random.Random(seed)
    xs = [rand_padic_scalar(ctx, rng, zero_frac, low) for _ in range(n)]
    ys = [rand_padic_scalar(ctx, rng, zero_frac, low) for _ in range(n)]
    plant_cancellations([xs], [ys], plants, rng)
    assert PadicScalar.dot(xs, ys) == padic_dot_oracle(xs, ys)


def test_dot_adds_from_the_left():
    """1 + 9 drops the 9 from a 2-digit unit, so 1 + 9 + 8 is zero while 1 + 8 + 9 is 9."""
    ctx = PrecisionContext(3, 2)
    ones = [PadicScalar.one(ctx)] * 3
    one, nine, eight = PadicScalar.one(ctx), PadicScalar(ctx, 2, 1), PadicScalar(ctx, 0, 8)
    for terms, total in (([one, nine, eight], PadicScalar.zero(ctx)), ([one, eight, nine], nine)):
        assert PadicScalar.dot(ones, terms) == total == padic_dot_oracle(ones, terms)
        assert functools.reduce(PadicScalar.__add__, terms) == total


@pytest.mark.parametrize("p, m", [(2, 1), (3, 2), (5, 4)])
def test_a_sum_across_a_gap_of_m_or_more_is_the_lower_term(p, m):
    """Valuations m or more apart: the higher term vanishes mod p^(base + m).

    The oracle forms the exact sum with p^gap, so the shortcut that
    skips that power must agree with it on both sides of gap = m.
    """
    ctx = PrecisionContext(p, m)
    units = [u for u in range(1, ctx.modulus) if u % p][:4]
    one = PadicScalar.one(ctx)
    for gap in range(m - 1, m + 3):
        for u1 in units:
            for u2 in units:
                x, y = PadicScalar(ctx, -1, u1), PadicScalar(ctx, gap - 1, u2)
                total = padic_dot_oracle([one, one], [x, y])
                assert x + y == y + x == total
                assert PadicScalar.dot([one, one], [x, y]) == total
                if gap >= m:
                    assert total == x


class _PowerSpy(int):
    """A prime that records the exponent of every power taken of it."""

    exponents: list = []

    def __pow__(self, exponent, modulo=None):
        self.exponents.append(exponent)
        return int.__pow__(int(self), exponent, modulo)


@pytest.mark.parametrize("p, m", [(2, 1), (3, 2), (5, 4)])
def test_a_term_m_or_more_digits_from_the_sum_forms_no_power_of_p(p, m):
    """_dot_units drops a term at a gap of m or more, or replaces the sum by it, without forming p^gap.

    A gap of exactly m would give the same sum through p^m, so only the
    powers taken show where the shortcut starts: none reaches p^m.
    """
    ctx = PrecisionContext(_PowerSpy(p), m)
    one = PadicScalar.one(ctx)
    taken = []
    for gap in range(-m - 2, m + 3):
        x, y = PadicScalar(ctx, 0, 1), PadicScalar(ctx, gap, p - 1)
        want = padic_dot_oracle([one, one], [x, y])
        _PowerSpy.exponents = []
        assert PadicScalar.dot([one, one], [x, y]) == x + y == want
        taken += _PowerSpy.exponents
    assert taken and max(taken) < m


def test_dot_checks_contexts_like_the_product():
    twin = PrecisionContext(3, 4)
    xs = [PadicScalar.one(CTX34), PadicScalar.zero(twin)]
    ys = [PadicScalar(twin, -1, 2), PadicScalar(CTX34, 2, 5)]
    assert PadicScalar.dot(xs, ys) == padic_dot_oracle(xs, ys) == PadicScalar(CTX34, -1, 2)
    for other in (PadicScalar.zero(CTX53), PadicScalar.one(PrecisionContext(3, 5))):
        with pytest.raises(ValueError, match="mixed precision contexts"):
            PadicScalar.dot(xs, ys[:1] + [other])
        with pytest.raises(ValueError, match="mixed precision contexts"):
            padic_dot_oracle(xs, ys[:1] + [other])
