"""Sup-norm matrices: GL membership, determinants, projections, sampling."""

import functools
import importlib
import operator
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    berkowitz_charpoly,
    berkowitz_det,
    conjugate,
    diag_matrix,
    fq_cofactor_det,
    int_det,
    int_matmul,
    int_matpow,
    padic_dot_oracle,
    padic_matmul_oracle,
    plant_cancellations,
    rand_gl,
    rand_padic_scalar,
    rand_residue_matrix,
    ring_matmul,
)
from padicspec import (
    NormOutOfRangeError,
    PadicScalar,
    PrecisionContext,
    UMatrix,
    certify_orthogonal_projection,
    determinant,
    ext_ring,
    finite_field,
    is_gl_zp,
    is_orthonormal_columns,
    sample_unit_vector,
    scalar_from_rational,
    vector_valuation,
)
from padicspec import padic
from padicspec.finite_field import ENUMERATION_LIMIT
from padicspec.matrix import _hessenberg_charpoly, _res_det, _res_matpow, _wrap_residues, inverse

CTX = PrecisionContext(3, 4)
# the package exports the function finite_field under the module's name
finite_field_module = importlib.import_module("padicspec.finite_field")


def test_norm_is_sup_of_entries():
    a = UMatrix.from_ints([[9, 3], [1, 27]], CTX)
    assert a.valuation == 0
    assert a.norm == 1.0
    b = UMatrix.from_ints([[9, 3], [6, 27]], CTX)
    assert b.valuation == 1


def test_norm_submultiplicative_and_ultrametric():
    rng = random.Random(0)
    for _ in range(40):
        a = rand_residue_matrix(CTX, 3, rng)
        b = rand_residue_matrix(CTX, 3, rng)
        assert (a * b).valuation >= a.valuation + b.valuation
        assert (a + b).valuation >= min(a.valuation, b.valuation)


def test_gl_examples():
    assert is_gl_zp(UMatrix.identity(3, CTX))
    assert is_gl_zp(UMatrix.from_ints([[1, 1], [0, 1]], CTX))
    assert is_gl_zp(UMatrix.from_ints([[3, 1], [1, 0]], CTX))
    assert not is_gl_zp(UMatrix.from_ints([[3, 0], [0, 1]], CTX))


def test_gl_rejects_nonintegral():
    bad = UMatrix.from_scalars(
        [
            [scalar_from_rational(1, 3, CTX), PadicScalar.zero(CTX)],
            [PadicScalar.zero(CTX), PadicScalar.one(CTX)],
        ]
    )
    assert not is_gl_zp(bad)


def test_determinant_matches_integer_oracle():
    rng = random.Random(1)
    for n in (2, 3):
        for _ in range(25):
            ints = [[rng.randrange(-20, 20) for _ in range(n)] for _ in range(n)]
            expected = int_det(ints)
            got = determinant(UMatrix.from_ints(ints, CTX))
            assert got.congruent(PadicScalar.from_int(expected, CTX))


def test_determinant_tracks_valuation():
    d = determinant(UMatrix.from_ints([[3, 0], [0, 1]], CTX))
    assert d.valuation == 1
    d = determinant(UMatrix.from_ints([[3, 1], [1, 0]], CTX))
    assert d.valuation == 0


def test_determinant_of_singular_is_zero():
    d = determinant(UMatrix.from_ints([[1, 2], [2, 4]], CTX))
    assert d.is_zero


def test_determinant_with_negative_valuation():
    half_third = scalar_from_rational(1, 3, CTX)
    a = UMatrix.from_scalars(
        [
            [half_third, PadicScalar.zero(CTX)],
            [PadicScalar.zero(CTX), PadicScalar.from_int(2, CTX)],
        ]
    )
    d = determinant(a)
    assert d.valuation == -1  # (1/3) * 2


def test_ext_determinant_agrees_with_base():
    rng = random.Random(2)
    ring = ext_ring(3, 2, 4)
    for _ in range(10):
        base = rand_residue_matrix(CTX, 3, rng)
        promoted = base.promote(ring)
        got = determinant(promoted)
        expected = determinant(base)
        assert got.vector()[0] == expected.residue()
        assert all(c == 0 for c in got.vector()[1:])


def test_ext_determinant_diagonal():
    ring = ext_ring(3, 2, 3)
    x = ring.element((0, 1))
    y = ring.element((2, 1))
    mat = UMatrix.from_scalars([[x, ring.zero()], [ring.zero(), y]])
    assert determinant(mat).vector() == (x * y).vector()


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("p,m", [(2, 8), (211, 3)])
def test_determinant_matches_integer_oracle_at_larger_n(p, m, n):
    ctx = PrecisionContext(p, m)
    rng = random.Random(100 * p + n)
    for _ in range(6):
        # entries divisible by p are common, so singular reductions occur
        ints = [[rng.choice((rng.randrange(-300, 300), p * rng.randrange(-9, 9)))
                 for _ in range(n)] for _ in range(n)]
        got = determinant(UMatrix.from_ints(ints, ctx))
        assert got.congruent(PadicScalar.from_int(int_det(ints), ctx))


def test_determinant_with_negative_lead_valuation_at_n_three():
    """det(p^-1 B) = p^-3 det(B), keeping m digits past its own valuation."""
    ctx = PrecisionContext(3, 4)
    rng = random.Random(9)
    for _ in range(20):
        ints = [[rng.randrange(-40, 40) for _ in range(3)] for _ in range(3)]
        ints[0][0] = 1  # lead valuation of B is 0, so that of p^-1 B is -1
        a = UMatrix.from_ints(ints, ctx).shift(-1)
        assert a.valuation == -1
        expected = int_det(ints)
        got = determinant(a)
        if expected % ctx.modulus == 0:
            assert got.is_zero
            continue
        assert got.valuation == PadicScalar.from_int(expected, ctx).valuation - 3
        assert got.shift(3).congruent(PadicScalar.from_int(expected, ctx))


# -- characteristic polynomials and determinants against Berkowitz -------------------


def _field_ops(p: int, degree: int):
    return (ext_ring(p, degree, 1) if degree > 1 else PrecisionContext(p, 1)).ops


def _rand_entry(rng, q: int, degree: int, zero_frac: float, p: int = 1, top: int = 0):
    """A residue mod q (a coordinate vector for degree > 1), times p^v for v drawn in [0, top]."""
    if rng.random() < zero_frac:
        return 0 if degree == 1 else (0,) * degree
    scale = p ** rng.randrange(top + 1)
    if degree == 1:
        return rng.randrange(q) * scale % q
    return tuple(rng.randrange(q) * scale % q for _ in range(degree))


@settings(max_examples=120, deadline=None)
@given(
    field=st.sampled_from([(2, 1), (3, 1), (5, 1), (211, 1), (2, 2), (3, 2), (5, 2), (2, 3), (3, 3)]),
    n=st.integers(1, 16),
    zero_frac=st.sampled_from([0.0, 0.5, 0.8, 0.95]),
    seed=st.integers(0, 2**32 - 1),
)
def test_hessenberg_charpoly_matches_berkowitz(field, n, zero_frac, seed):
    """det(X - A) over F_p (_BaseOps) and F_{p^N} (_ExtOps at m = 1), dense and sparse."""
    p, degree = field
    ops = _field_ops(p, degree)
    rng = random.Random(seed)
    rows = [[_rand_entry(rng, p, degree, zero_frac) for _ in range(n)] for _ in range(n)]
    assert _hessenberg_charpoly(rows, ops) == berkowitz_charpoly(rows, ops)


@pytest.mark.parametrize("p,degree", [(2, 1), (5, 1), (3, 2)])
def test_hessenberg_charpoly_on_swaps_and_empty_columns(p, degree):
    """A subdiagonal zero with a nonzero entry below it (the pivot needs a row and column
    swap), a column that is zero below the subdiagonal (nothing to clear), and a
    triangular matrix (no step at all)."""
    ops = _field_ops(p, degree)
    one, zero = ops.one, ops.zero
    two = ops.add(one, one)
    swap = [[one, two, zero, one], [zero, one, two, zero], [one, zero, one, two], [two, one, zero, one]]
    empty = [[one, zero, two, zero], [two, one, zero, zero], [zero, zero, one, one], [zero, zero, two, zero]]
    triangular = [[one if i == j else (two if j > i else zero) for j in range(5)] for i in range(5)]
    for rows in (swap, empty, triangular, [[two]]):
        assert _hessenberg_charpoly(rows, ops) == berkowitz_charpoly(rows, ops), rows


@settings(max_examples=120, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    m=st.sampled_from([1, 2, 4]),
    degree=st.sampled_from([1, 2]),
    n=st.integers(1, 8),
    zero_frac=st.sampled_from([0.0, 0.3, 0.7]),
    seed=st.integers(0, 2**32 - 1),
)
@example(p=2, m=4, degree=1, n=3, zero_frac=0.0, seed=0)
def test_elimination_determinant_matches_berkowitz(p, m, degree, n, zero_frac, seed):
    """_res_det over Z/p^m and a degree-2 ring, with entries of every valuation up to m."""
    ctx = PrecisionContext(p, m)
    ops = (ext_ring(p, degree, m) if degree > 1 else ctx).ops
    rng = random.Random(seed)
    rows = [[_rand_entry(rng, ctx.modulus, degree, zero_frac, p, m) for _ in range(n)]
            for _ in range(n)]
    assert _res_det(rows, ops) == berkowitz_det(rows, ops)


def _rand_ext_matrix(ring, n, rng, singular=False):
    q = ring.ctx.modulus
    rows = [[tuple(rng.randrange(q) for _ in range(ring.degree)) for _ in range(n)]
            for _ in range(n)]
    if singular:
        # last row = first row + p * noise: the reduction has two equal rows
        p = ring.ctx.p
        rows[-1] = [tuple((c + p * rng.randrange(q)) % q for c in e) for e in rows[0]]
    return UMatrix.from_residues(rows, ring)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p,degree", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_gl_over_extension_matches_cofactor_determinant_over_fq(p, degree, n):
    ring = ext_ring(p, degree, 3)
    field = finite_field(p, degree)
    rng = random.Random(100 * p + 10 * degree + n)
    outcomes = set()
    for trial in range(30):
        a = _rand_ext_matrix(ring, n, rng, singular=trial % 5 == 0)
        red = [[field.element([c % p for c in e.vector()]) for e in row] for row in a.rows]
        expected = not fq_cofactor_det(red).is_zero
        assert is_gl_zp(a) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


@pytest.mark.parametrize("p,degree", [(2, 2), (3, 2), (5, 3)])
def test_inverse_over_extension(p, degree):
    ring = ext_ring(p, degree, 4)
    rng = random.Random(10 * p + degree)
    inverted = 0
    for n in (2, 3, 4):
        ident = UMatrix.identity(n, ring.ctx).promote(ring)
        for _ in range(4):
            u = _rand_ext_matrix(ring, n, rng)
            if not is_gl_zp(u):
                continue
            assert (u * inverse(u)).congruent(ident)
            assert (inverse(u) * u).congruent(ident)
            inverted += 1
        with pytest.raises(ValueError, match="not in GL_n"):
            inverse(_rand_ext_matrix(ring, n, rng, singular=True))
    assert inverted >= 6


def test_inverse_round_trip():
    rng = random.Random(3)
    for n in (2, 3, 4):
        u = rand_gl(CTX, n, rng)
        assert (u * inverse(u)).congruent(UMatrix.identity(n, CTX))
        assert (inverse(u) * u).congruent(UMatrix.identity(n, CTX))


def test_inverse_refused_without_unit_determinant():
    with pytest.raises(ValueError):
        inverse(UMatrix.from_ints([[3, 0], [0, 1]], CTX))


def test_window_pow_matches_scalar_power():
    rng = random.Random(4)
    a = rand_residue_matrix(CTX, 2, rng)
    cubed = a * a * a
    assert a.window_pow(3).congruent(cubed)


# -- orthogonal projections ------------------------------------------------------


def test_identity_is_orthogonal_projection():
    cert = certify_orthogonal_projection(UMatrix.identity(2, CTX), samples=8)
    assert cert.valid
    assert cert.norm_of_pi == 1.0
    assert cert.idempotency_defect == 0.0


def test_swap_average_is_orthogonal_projection():
    half = scalar_from_rational(1, 2, CTX)
    swap = UMatrix.from_ints([[0, 1], [1, 0]], CTX)
    pi = (UMatrix.identity(2, CTX) + swap).scale(half)
    cert = certify_orthogonal_projection(pi, samples=16)
    assert cert.valid


def test_defective_idempotent_reported():
    pi = UMatrix.from_ints([[1, 3], [1, 0]], CTX)  # not idempotent
    cert = certify_orthogonal_projection(pi, samples=8)
    assert not cert.valid
    assert "idempotency" in cert.failures
    assert cert.idempotency_defect > 0.0


def test_extension_reduction_not_idempotent_reported():
    """Over a degree-2 ring: diag(x, 1) with x a root of the modulus X^2 + 1 of F_9."""
    ring = ext_ring(3, 2, 3)
    x = ring.element((0, 1))
    assert (x * x).vector() == ring.embed(-1).vector()
    pi = UMatrix.from_scalars([[x, ring.zero()], [ring.zero(), ring.one()]])
    cert = certify_orthogonal_projection(pi, samples=8)
    assert not cert.reduction_idempotent
    assert "reduction_idempotent" in cert.failures
    assert not cert.valid
    # the idempotent diag(1, 0) passes the same check
    ok = UMatrix.from_scalars([[ring.one(), ring.zero()], [ring.zero(), ring.zero()]])
    assert certify_orthogonal_projection(ok, samples=8).reduction_idempotent


def test_nonintegral_idempotent_fails_all_conditions():
    # V diag(1,0) V^-1 with V of non-unit determinant blows the norm up
    v = UMatrix.from_scalars(
        [
            [PadicScalar.one(CTX), scalar_from_rational(1, 3, CTX)],
            [PadicScalar.zero(CTX), PadicScalar.one(CTX)],
        ]
    )
    v_inv = UMatrix.from_scalars(
        [
            [PadicScalar.one(CTX), -scalar_from_rational(1, 3, CTX)],
            [PadicScalar.zero(CTX), PadicScalar.one(CTX)],
        ]
    )
    assert (v * v_inv).congruent(UMatrix.identity(2, CTX))
    pi = v * diag_matrix(CTX, [1, 0]) * v_inv
    assert (pi * pi - pi).norm == 0.0
    cert = certify_orthogonal_projection(pi, samples=16)
    assert not cert.valid
    assert cert.norm_of_pi > 1.0
    assert not cert.reduction_idempotent
    assert not cert.max_decomposition_checked
    assert not cert.unit_ball_stable


def _random_idempotent_any_norm(ctx, n, rng):
    """Conjugate a coordinate projection by a matrix with p-power scalings."""
    u1 = rand_gl(ctx, n, rng)
    u2 = rand_gl(ctx, n, rng)
    exps = [rng.randrange(-1, 2) for _ in range(n)]
    scaling = UMatrix.from_scalars(
        [
            [
                PadicScalar(ctx, exps[i], 1) if i == j else PadicScalar.zero(ctx)
                for j in range(n)
            ]
            for i in range(n)
        ]
    )
    unscale = UMatrix.from_scalars(
        [
            [
                PadicScalar(ctx, -exps[i], 1) if i == j else PadicScalar.zero(ctx)
                for j in range(n)
            ]
            for i in range(n)
        ]
    )
    v = u1 * scaling
    v_inv = unscale * inverse(u1)
    rank = rng.randrange(1, n + 1)
    pi = v * diag_matrix(ctx, [1] * rank + [0] * (n - rank)) * v_inv
    return pi


def test_equivalence_audit_on_500_idempotents():
    """Operator norm 1, ball stability, norm splitting, reduction idempotency
    agree on nonzero idempotents of every norm."""
    ctx = PrecisionContext(3, 3)
    rng = random.Random(5)
    for trial in range(500):
        pi = _random_idempotent_any_norm(ctx, 3, rng)
        cert = certify_orthogonal_projection(pi, samples=10, seed=trial)
        assert "idempotency" not in cert.failures
        conditions = [
            cert.norm_of_pi == 1.0,
            cert.unit_ball_stable,
            cert.max_decomposition_checked,
            cert.reduction_idempotent,
        ]
        assert all(conditions) or not any(conditions[:1] + conditions[2:]), (
            trial,
            conditions,
        )


def test_commuting_projection_products():
    """Products of commuting orthogonal projections are projections or 0."""
    ctx = PrecisionContext(5, 3)
    rng = random.Random(6)
    for _ in range(25):
        u = rand_gl(ctx, 4, rng)
        masks = [[1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 0]]
        projs = [conjugate(u, diag_matrix(ctx, mask)) for mask in masks]
        for a in projs:
            for b in projs:
                product = a * b
                assert (product * product - product).is_zero_mod_precision()
                if not product.is_zero_mod_precision():
                    assert certify_orthogonal_projection(product, samples=6).valid


def test_orthonormal_columns_examples():
    assert is_orthonormal_columns(UMatrix.identity(2, CTX))
    five = PrecisionContext(5, 3)
    assert is_orthonormal_columns(UMatrix.from_ints([[1, 1], [0, 1]], five))
    assert not is_orthonormal_columns(diag_matrix(CTX, [3, 1]))


def test_orthonormal_matches_gl_on_random_matrices():
    rng = random.Random(7)
    for _ in range(30):
        a = rand_residue_matrix(CTX, 3, rng)
        assert is_orthonormal_columns(a, samples=8) == is_gl_zp(a)


def test_sample_unit_vector_has_norm_one():
    rng = random.Random(8)
    for _ in range(50):
        v = sample_unit_vector(CTX, 4, rng)
        assert vector_valuation(v) == 0


def test_norm_out_of_double_range_raises():
    assert UMatrix.zeros(2, CTX).norm == 0.0
    huge = UMatrix.from_scalars([[PadicScalar(CTX, -1000, 1), PadicScalar.zero(CTX)],
                                 [PadicScalar.zero(CTX), PadicScalar.one(CTX)]])
    with pytest.raises(NormOutOfRangeError):
        huge.norm
    tiny = UMatrix.from_scalars([[PadicScalar(CTX, 1000, 1)]])
    with pytest.raises(NormOutOfRangeError):
        tiny.norm


# -- the fused residue kernel -----------------------------------------------------


def _rand_rows(rng, n, q, width=None, cols=None):
    """Random n x cols residue rows mod q (n x n by default), with 0 and q - 1 planted."""
    def entry():
        pick = rng.randrange(q) if rng.random() < 0.8 else rng.choice((0, q - 1))
        return pick if width is None else tuple(
            rng.randrange(q) if rng.random() < 0.8 else rng.choice((0, q - 1))
            for _ in range(width)
        )
    return tuple(tuple(entry() for _ in range(n if cols is None else cols)) for _ in range(n))


@pytest.mark.parametrize("n", [1, 4, 5, 7, 8, 16, 64])
@pytest.mark.parametrize(
    "p,m", [(2, 5), (3, 4), (3, 8), (211, 3), (2**61 - 1, 4), (2, 64)]
)
def test_res_matmul_matches_int_matmul_on_base_rings(p, m, n):
    """At p^m and the doubled p^(2m) of digit peeling, on both sides of the packing size rule.

    The all-(q - 1) product is the widest sum a packed slot must hold.
    """
    rng = random.Random(1000 * p + 10 * m + n)
    for ctx in (PrecisionContext(p, m), PrecisionContext(p, 2 * m)):
        ops = ctx.ops
        q = ctx.modulus
        top = ((q - 1,) * n,) * n
        pairs = [(top, top)] + [
            (_rand_rows(rng, n, q), _rand_rows(rng, n, q)) for _ in range(3 if n < 64 else 1)
        ]
        for a, b in pairs:
            got = ops.matmul(a, b)
            assert [list(row) for row in got] == int_matmul(a, b, q)


@pytest.mark.parametrize(
    "p,degree,n",
    [(p, degree, n) for p, degree in [(2, 2), (3, 2), (2, 3), (5, 3)] for n in (1, 4)]
    + [(p, 3, n) for p in (2, 5) for n in (8, 16)],
)
def test_res_matmul_matches_ring_matmul_on_extension_rings(p, degree, n):
    rng = random.Random(1000 * p + 10 * degree + n)
    for m in (2, 4):
        ring = ext_ring(p, degree, m)
        ops = ring.ops
        q = ring.ctx.modulus
        top = (((q - 1,) * degree,) * n,) * n
        assert ops.matmul(top, top) == ring_matmul(top, top, ring.modulus, q)
        for _ in range(3):
            a = _rand_rows(rng, n, q, degree)
            b = _rand_rows(rng, n, q, degree)
            assert ops.matmul(a, b) == ring_matmul(a, b, ring.modulus, q)


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 211, 2**61 - 1]),
    m=st.integers(1, 8),
    degree=st.integers(1, 3),
    n=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_packed_res_matmul_matches_the_oracles(p, m, degree, n, seed):
    """Degree 1 is Z/p^m against int_matmul; degrees 2 and 3 the extension rings against ring_matmul."""
    assume(degree == 1 or p**degree <= ENUMERATION_LIMIT)
    rng = random.Random(seed)
    if degree == 1:
        ctx = PrecisionContext(p, m)
        a, b = (_rand_rows(rng, n, ctx.modulus) for _ in "ab")
        got = ctx.ops.matmul(a, b)
        assert [list(row) for row in got] == int_matmul(a, b, ctx.modulus)
        return
    ring = ext_ring(p, degree, m)
    q = ring.ctx.modulus
    a, b = (_rand_rows(rng, n, q, degree) for _ in "ab")
    assert ring.ops.matmul(a, b) == ring_matmul(a, b, ring.modulus, q)


# (m, n, degree, raw) at p = 2: raw = 2 bits(q - 1) + bits(n degree) is the exact slot width,
# on both sides of every byte size (8, 16, 32, 64) and of the hand-off past 64 bits
SLOT_EDGES = [
    (m, n, degree, 2 * m + extra)
    for m in (3, 7, 15, 31)
    for degree, sizes in ((1, (3, 7)), (2, (1, 3)), (3, (1, 2)))
    for n, extra in zip(sizes, (2, 3))
]


@pytest.mark.parametrize("m,n,degree,raw", SLOT_EDGES)
def test_packed_kernels_at_every_slot_width(m, n, degree, raw):
    """_packed_matmul and the ops dot against int_matmul / ring_matmul and the ops reduce.

    The slot is rounded up to 8, 16, 32 or 64 bits up to 64 and kept
    exact past it; all-(q - 1) entries fill every slot of the widest sum.
    Square products, then n x kn products by n x n and kn x n matrices.
    """
    q = 2**m
    assert 2 * (q - 1).bit_length() + (n * degree).bit_length() == raw
    rounded = {8: 8, 9: 16, 16: 16, 17: 32, 32: 32, 33: 64, 64: 64, 65: 65}[raw]
    assert padic._slot_bits(q, n * degree) == rounded
    rng = random.Random(raw * 10 + degree)
    if degree == 1:
        top = ((q - 1,) * n,) * n
        pairs = [(top, top)] + [(_rand_rows(rng, n, q), _rand_rows(rng, n, q)) for _ in range(3)]
        for a, b in pairs:
            assert [list(row) for row in padic._packed_matmul(a, b, q)] == int_matmul(a, b, q)
            # the 1 x n by n x 1 product that _ExtOps.dot forms
            column = tuple((y,) for y in b[0])
            assert padic._packed_matmul(a[:1], column, q) == ((sum(map(operator.mul, a[0], b[0])) % q,),)
        for a, b in _wide_shapes(rng, n, q, None):
            assert [list(row) for row in padic._packed_matmul(a, b, q)] == int_matmul(a, b, q)
        return
    ring = ext_ring(2, degree, m)
    ops = ring.ops
    top = (((q - 1,) * degree,) * n,) * n
    pairs = [(top, top)] + [
        (_rand_rows(rng, n, q, degree), _rand_rows(rng, n, q, degree)) for _ in range(3)
    ]
    for a, b in pairs:
        assert ops.matmul(a, b) == ring_matmul(a, b, ring.modulus, q)
        assert ops.dot(a[0], b[0]) == functools.reduce(ops.add, map(ops.mul, a[0], b[0]), ops.zero)
    for a, b in _wide_shapes(rng, n, q, degree):
        assert ops.matmul(a, b) == ring_matmul(a, b, ring.modulus, q)


def _wide_shapes(rng, n, q, width):
    """(a, b) pairs with b of n x kn for k = 2, 3 and a of 1 x n, n x n or kn x n (k stacked).

    The inner size stays n, so the slot is the square product's; one
    pair of each shape has every entry q - 1 and fills every slot.
    """
    top = q - 1 if width is None else (q - 1,) * width
    for k in (2, 3):
        wide = [((top,) * (k * n),) * n, _rand_rows(rng, n, q, width, k * n)]
        tall = [((top,) * n,) * (k * n), _rand_rows(rng, k * n, q, width, n)]
        for a, b in zip(tall, wide):
            yield a[:1], b
            yield a[:n], b
            yield a, b


@settings(max_examples=100, deadline=None)
@given(
    ring_args=st.sampled_from([(2, 1, 5), (3, 1, 4), (211, 1, 2), (2, 2, 3), (3, 2, 4), (5, 3, 2)]),
    n=st.integers(1, 5),
    ring_scalar=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_entrywise_residue_helpers_match_the_ops(ring_args, n, ring_scalar, seed):
    """The ops rows_add, rows_sub, rows_scale, rows_mul and map_coords against one ops call per entry.

    An int scalar multiplies every coordinate, so over an extension ring
    it must act as the constant (c mod q, 0, ...); a ring-element scalar
    (coordinate vector) is multiplied in the ring.
    """
    p, degree, m = ring_args
    ctx = PrecisionContext(p, m)
    ops = ctx.ops if degree == 1 else ext_ring(p, degree, m).ops
    q = ops.q
    rng = random.Random(seed)
    width = None if degree == 1 else degree
    a, b = _rand_rows(rng, n, q, width), _rand_rows(rng, n, q, width)

    def per_entry(f, *mats):
        return tuple(tuple(map(f, *rows)) for rows in zip(*mats))

    assert ops.rows_add(a, b) == per_entry(ops.add, a, b)
    assert ops.rows_sub(a, b) == per_entry(ops.sub, a, b)
    c = rng.choice((0, 1, q - 1, rng.randrange(q)))
    if degree == 1:
        assert ops.rows_scale(c, a) == per_entry(functools.partial(ops.mul, c), a)
        assert ops.rows_mul(c, a) == per_entry(functools.partial(ops.mul, c), a)
    elif ring_scalar:
        c = tuple(rng.randrange(q) for _ in range(degree))
        assert ops.rows_mul(c, a) == per_entry(functools.partial(ops.mul, c), a)
    else:
        constant = (c,) + (0,) * (degree - 1)
        assert ops.rows_scale(c, a) == per_entry(functools.partial(ops.mul, constant), a)
    if degree == 1:
        assert ops.map_coords(a, p.__rmod__) == per_entry(lambda x: x % p, a)
        assert ops.map_coords(a, p.__rfloordiv__) == per_entry(lambda x: x // p, a)
    else:
        assert ops.map_coords(a, p.__rmod__) == per_entry(lambda e: tuple(x % p for x in e), a)
        assert ops.map_coords(a, p.__rfloordiv__) == per_entry(lambda e: tuple(x // p for x in e), a)


@pytest.mark.parametrize("p,m,n", [(2, 5, 3), (3, 4, 1), (211, 3, 3)])
def test_res_matpow_matches_int_matpow(p, m, n):
    ctx = PrecisionContext(p, m)
    ops = ctx.ops
    rng = random.Random(100 * p + n)
    a = _rand_rows(rng, n, ctx.modulus)
    for e in list(range(71)) + [211**2]:
        got = _res_matpow(a, e, ops)
        assert [list(row) for row in got] == int_matpow(a, e, ctx.modulus), e


def test_res_matpow_product_count(monkeypatch):
    """floor(log2 e) + popcount(e) - 1 products for e >= 1, none for e = 0, for every power.

    padic._power is the one square-and-multiply: _res_matpow multiplies
    by ops.matmul, _ExtOps.pow by _ExtOps.mul and poly_powmod by
    poly_mul (its reductions mod the modulus are no products).
    """
    ctx = PrecisionContext(3, 4)
    a = _rand_rows(random.Random(3), 2, ctx.modulus)
    ring_ops, field_ops = ext_ring(3, 2, 4).ops, padic._BaseOps(3, 1)
    powers = {
        "matrix": lambda e: _res_matpow(a, e, ctx.ops),
        "ring": lambda e: ring_ops.pow((2, 7), e),
        "poly": lambda e: finite_field_module.poly_powmod([1, 1], e, [1, 2, 0, 1], field_ops),
    }
    counts = dict.fromkeys(powers, 0)

    def count(kind, owner, name):
        real = getattr(owner, name)

        def counting(*args):
            counts[kind] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, counting)

    count("matrix", padic._BaseOps, "matmul")
    count("ring", finite_field_module._ExtOps, "mul")
    count("poly", finite_field_module, "poly_mul")
    for kind, power in powers.items():
        for e in list(range(71)) + [211**2]:
            counts.update(dict.fromkeys(powers, 0))
            power(e)
            expected = 0 if e == 0 else e.bit_length() - 1 + bin(e).count("1") - 1
            assert counts == {**dict.fromkeys(powers, 0), kind: expected}, (kind, e)


def test_wrapping_extension_rows_builds_no_padic_scalar(monkeypatch):
    """An extension entry is its coordinate vector: wrapping a residue row converts nothing."""
    ring = ext_ring(3, 2, 4)
    rng = random.Random(5)
    rows = tuple(
        tuple(tuple(rng.randrange(ring.ctx.modulus) for _ in range(2)) for _ in range(4))
        for _ in range(4)
    )
    built = [0]
    real = PadicScalar.__init__

    def counting(self, *args):
        built[0] += 1
        real(self, *args)

    monkeypatch.setattr(PadicScalar, "__init__", counting)
    a = _wrap_residues(rows, ring)
    assert built[0] == 0
    assert a.residues() == rows
    for key in (key for row in rows for key in row):
        assert ring.element(key).coords == key
    assert built[0] == 0


def test_extension_residues_compute_no_valuation(monkeypatch):
    """An extension entry is always integral: reading its rows scans no valuation."""
    ring = ext_ring(3, 2, 4)
    rng = random.Random(6)
    rows = tuple(
        tuple(tuple(rng.randrange(ring.ctx.modulus) for _ in range(2)) for _ in range(4))
        for _ in range(4)
    )
    a = _wrap_residues(rows, ring)
    calls = [0]
    real = type(ring.ops).valuation

    def counting(self, x):
        calls[0] += 1
        return real(self, x)

    monkeypatch.setattr(type(ring.ops), "valuation", counting)
    assert a.residues() == rows
    assert calls[0] == 0
    with pytest.raises(ValueError, match="matrix has norm > 1"):
        UMatrix.from_ints([[1, 0], [0, 1]], CTX).shift(-1).residues()


def test_rows_are_zero_on_ints_and_vectors():
    base, ext = CTX.ops, ext_ring(3, 2, 4).ops
    assert base.rows_are_zero(((0, 0), (0, 0)))
    assert not base.rows_are_zero(((0, 0), (0, 5)))
    assert ext.rows_are_zero((((0, 0), (0, 0)),))
    assert not ext.rows_are_zero((((0, 0), (0, 1)),))
    assert UMatrix.zeros(3, CTX).is_zero_mod_precision()
    assert UMatrix.from_ints([[81]], CTX).is_zero_mod_precision()
    assert not UMatrix.from_ints([[27]], CTX).is_zero_mod_precision()


@pytest.mark.parametrize("degree", [2, 3])
def test_shift_of_extension_matrix_matches_scaling(degree):
    ring = ext_ring(3, degree, 4)
    q = ring.ctx.modulus
    rng = random.Random(degree)
    a = UMatrix.from_residues(
        [[[rng.randrange(q) for _ in range(degree)] for _ in range(3)] for _ in range(3)], ring
    )
    for k in range(ring.ctx.m + 1):
        assert a.shift(k) == a.scale(ring.embed(pow(3, k, q)))
    down = a.scale(ring.embed(9)).shift(-2)
    assert down.residues() == tuple(
        tuple(tuple(c % 9 for c in e) for e in row) for row in a.residues()
    )
    with pytest.raises(ValueError):
        a.scale(ring.embed(3)).shift(-2)


# -- object-level products against the dot oracle ------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 211]),
    m=st.integers(1, 8),
    n=st.integers(1, 16),
    zero_frac=st.sampled_from([0.0, 0.3, 0.9]),
    low=st.integers(-4, 0),
    plants=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
@example(p=3, m=8, n=16, zero_frac=0.3, low=-2, plants=40, seed=0)
@example(p=2, m=1, n=16, zero_frac=0.0, low=0, plants=0, seed=1)
def test_object_products_match_the_dot_oracle(p, m, n, zero_frac, low, plants, seed):
    """UMatrix.__mul__ and UMatrix.apply give the object reduce's entries, byte for byte."""
    ctx = PrecisionContext(p, m)
    rng = random.Random(seed)
    rows = [[rand_padic_scalar(ctx, rng, zero_frac, low) for _ in range(n)] for _ in range(n)]
    cols = [[rand_padic_scalar(ctx, rng, zero_frac, low) for _ in range(n)] for _ in range(n)]
    plant_cancellations(rows, cols, plants, rng)
    a = UMatrix.from_scalars(rows)
    b = UMatrix.from_scalars(list(zip(*cols)))
    assert a * b == padic_matmul_oracle(a, b)
    assert a.apply(cols[0]) == tuple(padic_dot_oracle(row, cols[0]) for row in rows)


def test_a_matrix_over_mixed_rings_is_refused():
    """Entries over two precisions are refused, and so is a promotion to another p or m.

    The entry 80 over Z/3^4 in a matrix over Z/3^2 was once kept, read
    back as the non-canonical residue 80 instead of 80 mod 9 = 8, and
    refused by teichmuller_spectral as not fixed by sigma.
    """
    a, b = PrecisionContext(3, 2), PrecisionContext(3, 4)
    rows = [[PadicScalar.from_int(int(i == j), a) for j in range(4)] for i in range(4)]
    rows[3][3] = PadicScalar.from_int(80, b)
    with pytest.raises(ValueError, match="mixed entry types or rings"):
        UMatrix.from_scalars(rows)
    rows[3][3] = PadicScalar.from_int(80, PrecisionContext(3, 2))  # an equal context is the same ring
    assert UMatrix.from_scalars(rows).residues()[3] == (0, 0, 0, 8)
    base = UMatrix.from_ints([[1, 0], [0, -1]], a)
    for ring in (ext_ring(5, 2, 2), ext_ring(3, 2, 4), b):
        with pytest.raises(ValueError, match="another p or m"):
            base.promote(ring)
    assert base.promote(PrecisionContext(3, 2)) is base
    assert base.promote(ext_ring(3, 2, 2)).residues() == (((1, 0), (0, 0)), ((0, 0), (8, 0)))


def test_every_matrix_has_one_ring_handle():
    """A matrix's ring is its entries' context over Z_p and their ExtRing over O_K, never None.

    The ring's ops belong to it, element builds its entries from residue
    keys and at moves it to another precision.
    """
    ring = ext_ring(3, 2, 4)
    for handle, key in ((CTX, 5), (ring, (5, 1))):
        a = UMatrix.identity(2, handle)
        assert a.ring == handle and handle.ops.ring is handle
        assert handle.element(key).residue_key() == key
        assert UMatrix.from_residues([[key, key], [key, key]], handle).ring == handle
        assert handle.at(handle.ctx.m) is handle
        low = handle.at(2)
        assert (low.ctx, low.ops.q, low.ops.degree) == (PrecisionContext(3, 2), 9, handle.ops.degree)
    assert UMatrix.identity(2, CTX).promote(ring).ring is ring
    assert repr(UMatrix.identity(2, ring)) == "UMatrix(n=2, ring=ext, p=3, m=4)"
