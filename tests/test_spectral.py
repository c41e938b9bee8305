"""Spectral projectors, digit expansions, the ball measure, Jordan splitting."""

import io
import itertools
import json
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    conjugate,
    diag_matrix,
    hermite_rows_oracle,
    int_matmul,
    int_matvec,
    jordan_scan_oracle,
    lagrange_oracle,
    operator_spectrum_oracle,
    padic_dot_oracle,
    plant_cancellations,
    rand_gl,
    rand_hermite,
    rand_padic_scalar,
    rand_poly_in,
    rand_teich_diag,
    residues_of,
    sigma_fixed_points_oracle,
    sigma_limit_oracle,
    spectral_integral_oracle,
    spectral_measure_oracle,
    spectral_terms_oracle,
    spectral_tree_oracle,
    teichmuller_companion,
    teichmuller_spectral_oracle,
    translation_valuation_oracle,
)
from padicspec import (
    INFINITE,
    NotHermiteError,
    OrbitKind,
    OrbitReport,
    PadicScalar,
    PeriodExceededError,
    PrecisionContext,
    UMatrix,
    classify_orbit,
    ext_ring,
    finite_field,
    hermite_digits_matrix,
    is_gl_zp,
    jordan_decompose,
    lift_idempotent,
    operator_spectrum,
    scalar_from_rational,
    spectral_integral,
    spectral_measure,
    spectrum_diameter,
    teichmuller_lift,
    teichmuller_lift_ext,
    teichmuller_spectral,
    uncertainty_check,
    uncertainty_checks,
)
from padicspec import padic, spectral
from padicspec.cli import run_command
from padicspec.finite_field import _ExtOps
from padicspec.matrix import inverse
from padicspec.spectral import (
    _sigma_limit,
    _translation_valuations,
    _verify_tree,
)
CTX = PrecisionContext(3, 4)


# -- idempotent lifting -----------------------------------------------------------


def test_lift_identity_is_identity():
    ident = UMatrix.identity(2, CTX)
    assert lift_idempotent(ident).congruent(ident)


def test_lift_of_exact_idempotent_is_itself():
    a = UMatrix.from_ints([[0, 1], [0, 1]], CTX)
    assert lift_idempotent(a).congruent(a)


def test_lift_diag_with_p_noise():
    a = UMatrix.from_ints([[1, 3], [0, 0]], CTX)  # diag(1,0) + p*E12
    pi = lift_idempotent(a)
    assert (pi * pi).congruent(pi)
    assert pi.sigma_window().congruent(pi)
    p = CTX.p
    assert [[e.residue() % p for e in row] for row in pi.rows] == [[1, 0], [0, 0]]


def test_lift_rejects_non_idempotent():
    with pytest.raises(ValueError):
        lift_idempotent(UMatrix.from_ints([[1, 1], [1, 1]], CTX))


@pytest.mark.parametrize("fault, text", [
    ("no-limit", "failed to stabilise"),
    ("not-idempotent", "is not idempotent"),
    ("other-reduction", "changed the reduction"),
], ids=["no-limit", "not-idempotent", "other-reduction"])
def test_lift_idempotent_checks_the_limit_it_is_given(monkeypatch, fault, text):
    """Each internal-defect check of lift_idempotent refuses a sigma limit that breaks it.

    The input is idempotent mod 3 but not mod 81, so returning it
    unchanged is a limit that is not idempotent; the identity is an
    idempotent with another reduction.
    """
    a = UMatrix.from_ints([[1, 3], [3, 0]], CTX)
    limits = {"no-limit": None, "not-idempotent": a.residues(),
              "other-reduction": UMatrix.identity(2, CTX).residues()}
    monkeypatch.setattr(spectral, "_sigma_limit", lambda *args: limits[fault])
    with pytest.raises(RuntimeError, match=text):
        lift_idempotent(a)


def test_lift_independent_of_commuting_representative():
    rng = random.Random(11)
    for _ in range(20):
        u = rand_gl(CTX, 3, rng)
        base = conjugate(u, diag_matrix(CTX, [1, 1, 0]))
        pi0 = lift_idempotent(base)
        noise = rand_poly_in(base, rng).scale(PadicScalar.from_int(CTX.p, CTX))
        perturbed = base + noise
        assert lift_idempotent(perturbed).congruent(pi0)


def test_lift_preserves_complete_orthogonal_families():
    rng = random.Random(12)
    ctx = PrecisionContext(5, 3)
    for _ in range(10):
        u = rand_gl(ctx, 4, rng)
        masks = [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]
        diag = diag_matrix(ctx, [7, 7, 7, 7])
        reps = []
        for mask in masks:
            core = conjugate(u, diag_matrix(ctx, mask))
            noise = rand_poly_in(core, rng).scale(PadicScalar.from_int(ctx.p, ctx))
            reps.append(core + noise)
        lifted = [lift_idempotent(r) for r in reps]
        total = lifted[0]
        for pi in lifted[1:]:
            total = total + pi
        assert total.congruent(UMatrix.identity(4, ctx))
        for i, a in enumerate(lifted):
            for j, b in enumerate(lifted):
                if i != j:
                    assert (a * b).is_zero_mod_precision()


# -- Lagrange decomposition ----------------------------------------------------------


def test_spectral_of_identity():
    dec = teichmuller_spectral(UMatrix.identity(2, CTX), 1)
    assert len(dec.points) == 1
    lam, proj = dec.points[0]
    assert lam.residue() == 1
    assert proj.congruent(UMatrix.identity(2, CTX))


def test_spectral_of_swap_matrix():
    swap = UMatrix.from_ints([[0, 1], [1, 0]], CTX)
    dec = teichmuller_spectral(swap, 1)
    by_lam = {lam.residue(): proj for lam, proj in dec.points}
    assert set(by_lam) == {1, CTX.modulus - 1}
    half = scalar_from_rational(1, 2, CTX)
    plus = (UMatrix.identity(2, CTX) + swap).scale(half)
    minus = (UMatrix.identity(2, CTX) - swap).scale(half)
    assert by_lam[1].congruent(plus)
    assert by_lam[CTX.modulus - 1].congruent(minus)


def test_spectral_of_teichmuller_diagonal():
    ctx = PrecisionContext(5, 2)
    d = diag_matrix(ctx, [1, 7])
    dec = teichmuller_spectral(d, 1)
    by_lam = {lam.residue(): proj for lam, proj in dec.points}
    assert set(by_lam) == {1, 7}
    assert residues_of(by_lam[1]) == [[1, 0], [0, 0]]
    assert residues_of(by_lam[7]) == [[0, 0], [0, 1]]


def test_spectral_rejects_non_fixed_input():
    with pytest.raises(ValueError):
        teichmuller_spectral(UMatrix.from_ints([[1, 1], [0, 1]], CTX), 1)


def _companion(ring=None) -> UMatrix:
    """The companion of a degree-2 Teichmuller point at p = 3, m = 4, over Z_p or ring."""
    a = UMatrix.from_residues(teichmuller_companion(3, 2, 4), CTX)
    return a if ring is None else a.promote(ring)


_UNFIXED_1 = "input is not fixed by sigma^1 mod p^m (defect norm 1.0)"
_UNFIXED_3 = "input is not fixed by sigma^3 mod p^m (defect norm 1.0)"

# (id, input, period, refusal, the failure that led to it: None when there is none)
_REFUSALS = [
    # D = 2 > N = 1: the points w, w^3 are found and certified, but are not sigma-fixed
    ("companion-over-degree-2", lambda: _companion(ext_ring(3, 2, 4)), 1, _UNFIXED_1,
     "eigenvalue point is not fixed by sigma^1 (internal defect)"),
    # one point, 1, whose projector is the identity: the tree fails its reassembly
    ("jordan-block", lambda: UMatrix.from_ints([[1, 1], [0, 1]], CTX), 1, _UNFIXED_1,
     "level 0 projectors do not reassemble digit 0 (internal defect)"),
    # the root scan of F_3 finds no root of the minimal polynomial of w
    ("companion-over-Zp", _companion, 1, _UNFIXED_1,
     "root scan left a factor of degree 2 (internal defect)"),
    # above the scan crossover Cantor-Zassenhaus finds no root of x^2 - 11 in F_1009:
    # no point, no projector, and the tree fails its sum to 1
    ("no-root-at-p-1009", lambda: UMatrix.from_ints([[0, 11], [1, 0]], PrecisionContext(1009, 3)),
     1, _UNFIXED_1, "level 0 projectors do not sum to 1 (internal defect)"),
    # N = 3 does not divide D = 2: refused for the period only if the input is fixed
    ("period-3-over-degree-2-unfixed", lambda: _companion(ext_ring(3, 2, 4)), 3, _UNFIXED_3,
     "period 3 does not divide the extension degree 2"),
    ("period-3-over-degree-2-fixed", lambda: UMatrix.identity(2, CTX).promote(ext_ring(3, 2, 4)),
     3, "period 3 does not divide the extension degree 2", None),
]


@pytest.mark.parametrize(
    "make,period,reason", [case[1:4] for case in _REFUSALS], ids=[case[0] for case in _REFUSALS]
)
def test_spectral_refusals_keep_their_exact_text(make, period, reason):
    """Each route by which the resolution of an input fails ends in the same refusal.

    An input that is not fixed by sigma^N is refused with the sup norm
    of x^(p^N) - x, whichever step of the tree it fails; a fixed input
    keeps its own refusal.
    """
    with pytest.raises(ValueError) as err:
        teichmuller_spectral(make(), period)
    assert str(err.value) == reason


@pytest.mark.parametrize(
    "make,period,failure", [case[1:3] + case[4:] for case in _REFUSALS],
    ids=[case[0] for case in _REFUSALS],
)
def test_spectral_refusals_follow_their_route(make, period, failure):
    """The tree is built and certified before any sigma^N power is taken.

    So an input that is not fixed first fails on its way (a point that
    is not fixed, a reassembly, a root scan, a sum to 1, a period that
    does not divide the degree), and the sigma^N refusal replaces that
    failure, which stays reachable as its context.
    """
    with pytest.raises(ValueError) as err:
        teichmuller_spectral(make(), period)
    context = err.value.__context__
    assert (context and str(context)) == failure


def test_lagrange_refuses_two_points_with_one_reduction(monkeypatch):
    """A repeated point makes a Lagrange denominator a non-unit: an internal defect."""
    points = spectral._spectral_points

    def repeated(rows, ops, period):
        lifts, ambient, rows = points(rows, ops, period)
        return lifts + lifts[:1], ambient, rows

    monkeypatch.setattr(spectral, "_spectral_points", repeated)
    with pytest.raises(RuntimeError, match="Lagrange denominator is not a unit"):
        teichmuller_spectral(diag_matrix(PrecisionContext(5, 2), [1, 7]), 1)


def test_spectral_identities_on_random_conjugates():
    rng = random.Random(13)
    for p, n in [(2, 3), (3, 4), (5, 3)]:
        ctx = PrecisionContext(p, 4)
        for _ in range(10):
            u = rand_gl(ctx, n, rng)
            x = conjugate(u, diag_matrix(ctx, rand_teich_diag(ctx, n, rng)))
            dec = teichmuller_spectral(x, 1)
            total = None
            weighted = None
            for lam, proj in dec.points:
                assert proj.norm == 1.0
                assert (proj * proj).congruent(proj)
                total = proj if total is None else total + proj
                weighted = proj.scale(lam) if weighted is None else weighted + proj.scale(lam)
            assert total.congruent(UMatrix.identity(n, ctx))
            assert weighted.congruent(x)


def test_spectral_period_two_rotation():
    """x^2 = -1 over Z_3 splits against the degree-2 extension points."""
    rot = UMatrix.from_ints([[0, 1], [-1, 0]], CTX)
    dec = teichmuller_spectral(rot, 2)
    assert len(dec.points) == 2
    lams = {lam.vector() for lam, _ in dec.points}
    ring = dec.points[0][0].ring
    for lam, _ in dec.points:
        assert (lam * lam).vector() == ring.embed(-1).vector()
    # the p-power map permutes the two conjugate eigenvalues
    assert {lam.sigma_window().vector() for lam, _ in dec.points} == lams


def test_period_two_projectors_certify_over_extension():
    from padicspec import certify_orthogonal_projection

    rot = UMatrix.from_ints([[0, 1], [-1, 0]], CTX)
    for _, proj in teichmuller_spectral(rot, 2).points:
        cert = certify_orthogonal_projection(proj, samples=10)
        assert cert.valid, cert.failures
        assert cert.norm_of_pi == 1.0


def test_spectral_requires_period_dividing_ext_degree():
    rot = UMatrix.from_ints([[0, 1], [-1, 0]], CTX)
    dec = teichmuller_spectral(rot, 2)
    ext_matrix = dec.points[0][1]
    with pytest.raises(ValueError):
        teichmuller_spectral(ext_matrix, 3)


@pytest.mark.parametrize(
    "p,degree,n,finder",
    [
        (1009, 1, 2, "poly_roots"),  # q = 1009 > 128 * 2
        (1009, 1, 8, "_scan_roots"),  # q = 1009 <= 128 * 8
        (2, 8, 2, "_scan_roots"),  # q = 256 = 128 * 2, at the crossover
        (2, 8, 1, "poly_roots"),  # q = 256 > 128 * 1
    ],
)
def test_root_finder_switches_at_the_crossover(monkeypatch, p, degree, n, finder):
    """_spectral_points scans F_q while q <= SCAN_PER_DEGREE * n, else splits with
    Cantor-Zassenhaus; either way the points and projectors are the oracle's."""
    assert spectral.SCAN_PER_DEGREE == 128
    calls = []
    for name in ("poly_roots", "_scan_roots"):
        real = getattr(spectral, name)

        def counting(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(spectral, name, counting)
    ctx = PrecisionContext(p, 2)
    if degree == 1:
        x = conjugate(rand_gl(ctx, n, random.Random(n)),
                      diag_matrix(ctx, [teichmuller_lift(k + 1, ctx).residue() for k in range(n)]))
    else:
        field = finite_field(p, degree)
        points = [field.one(), field.generator()][:n]
        lifts = [teichmuller_lift_ext(w, ctx.m) for w in points]
        ring = lifts[0].ring
        x = UMatrix.from_scalars([[lifts[i] if i == j else ring.zero() for j in range(n)]
                                  for i in range(n)])
    dec = teichmuller_spectral(x, degree)
    assert calls == [finder]
    assert len(dec.points) == n
    oracle = teichmuller_spectral_oracle(x, degree)
    assert [lam.residue_key() for lam, _ in dec.points] == [lam.residue_key() for lam, _ in oracle]
    assert all(proj.congruent(want) for (_, proj), (_, want) in zip(dec.points, oracle))


# -- eigenvalue-only resolution against the full Lagrange oracle -------------------


def _coords_of(x: UMatrix, degree: int):
    """Residues of x as coordinate vectors in the degree-`degree` ring."""
    pad = (0,) * (degree - 1)
    if x.ring is not x.ctx:
        return x.residues()
    return tuple(tuple((e,) + pad for e in row) for row in x.residues())


def _assert_matches_oracle(x: UMatrix, period: int, degree: int):
    dec = teichmuller_spectral(x, period)
    got = [
        ((lam.residue(),) if isinstance(lam, PadicScalar) else lam.vector(), _coords_of(proj, degree))
        for lam, proj in dec.points
    ]
    ctx = x.ctx
    assert got == lagrange_oracle(_coords_of(x, degree), ctx.p, ctx.m, degree, period)
    return dec


def _multiplication_block(ctx: PrecisionContext, degree: int) -> list:
    """Matrix over Z/p^m of multiplication by a lift generating the degree-N ring."""
    ring = ext_ring(ctx.p, degree, ctx.m)
    w = teichmuller_lift_ext(finite_field(ctx.p, degree).generator(), ctx.m)
    basis = [ring.element([int(i == j) for i in range(degree)]) for j in range(degree)]
    columns = [(w * e).vector() for e in basis]
    return [[columns[j][i] for j in range(degree)] for i in range(degree)]


def _rand_ext_gl(ring, n: int, rng: random.Random) -> UMatrix:
    q = ring.ctx.modulus
    while True:
        u = UMatrix.from_residues(
            [[[rng.randrange(q) for _ in range(ring.degree)] for _ in range(n)] for _ in range(n)],
            ring,
        )
        if is_gl_zp(u):
            return u


@pytest.mark.parametrize("p", [2, 3, 53, 211])
def test_resolution_matches_full_lagrange_base_period_one(p):
    rng = random.Random(p)
    ctx = PrecisionContext(p, 3)
    for _ in range(3):
        x = conjugate(rand_gl(ctx, 3, rng), diag_matrix(ctx, rand_teich_diag(ctx, 3, rng)))
        _assert_matches_oracle(x, 1, 1)
    # eigenvalues listed in descending order still come out ascending by
    # residue mod p, the address order spectral_measure relies on
    residues = (p - 1, p // 2, 0)
    x = diag_matrix(ctx, [teichmuller_lift(r, ctx).residue() for r in residues])
    dec = _assert_matches_oracle(x, 1, 1)
    assert [lam.residue() % p for lam in dec.eigenvalues] == sorted(set(residues))


@pytest.mark.parametrize("p,period", [(3, 2), (5, 2), (2, 3), (3, 3)])
def test_resolution_matches_full_lagrange_on_conjugate_eigenvalues(p, period):
    """A base matrix whose eigenvalues mod p are Galois conjugates in F_{p^N}."""
    rng = random.Random(100 * p + period)
    ctx = PrecisionContext(p, 3)
    block = _multiplication_block(ctx, period)
    n = period + 1
    scalar = teichmuller_lift(rng.randrange(p), ctx).residue()
    d = [[0] * n for _ in range(n)]
    for i in range(period):
        d[i][:period] = block[i]
    d[period][period] = scalar
    x = conjugate(rand_gl(ctx, n, rng), UMatrix.from_residues(d, ctx))
    dec = _assert_matches_oracle(x, period, period)
    lams = [lam for lam, _ in dec.points]
    assert len(lams) >= period
    conjugates = {lam.sigma_window().vector() for lam in lams}
    assert conjugates == {lam.vector() for lam in lams}


@pytest.mark.parametrize("p,degree,period", [
    (3, 2, 1), (3, 2, 2), (5, 2, 1), (5, 2, 2), (2, 3, 1), (2, 3, 3), (3, 3, 1), (3, 3, 3),
    (3, 4, 2),
])
def test_resolution_matches_full_lagrange_over_extension_rings(p, degree, period):
    rng = random.Random(1000 * p + 10 * degree + period)
    ctx = PrecisionContext(p, 2)
    ring = ext_ring(p, degree, ctx.m)
    fixed = sigma_fixed_points_oracle(p, degree, period, ctx.m)
    diag = [rng.choice(fixed) for _ in range(3)]
    zero = ring.zero()
    d = UMatrix.from_scalars([[diag[i] if i == j else zero for j in range(3)] for i in range(3)])
    u = _rand_ext_gl(ring, 3, rng)
    _assert_matches_oracle(u * d * inverse(u), period, degree)


def test_resolution_of_scalar_and_zero_matrices_is_one_point():
    ctx = PrecisionContext(5, 3)
    lam = teichmuller_lift(2, ctx)
    ident = UMatrix.identity(3, ctx)
    for x, expected in ((ident.scale(lam), lam.residue()), (UMatrix.zeros(3, ctx), 0)):
        dec = _assert_matches_oracle(x, 1, 1)
        assert [pt.residue() for pt in dec.eigenvalues] == [expected]
        assert dec.projectors[0].congruent(ident)
    ring = ext_ring(3, 2, 2)
    w = teichmuller_lift_ext(finite_field(3, 2).generator(), 2)
    scalar = UMatrix.identity(2, PrecisionContext(3, 2)).promote(ring).scale(w)
    dec = _assert_matches_oracle(scalar, 2, 2)
    assert [pt.vector() for pt in dec.eigenvalues] == [w.vector()]


def test_resolution_at_p_211_takes_milliseconds():
    rng = random.Random(211)
    ctx = PrecisionContext(211, 3)
    x = conjugate(rand_gl(ctx, 4, rng), diag_matrix(ctx, rand_teich_diag(ctx, 4, rng)))
    start = time.perf_counter()
    dec = teichmuller_spectral(x, 1)
    elapsed = time.perf_counter() - start
    assert 1 <= len(dec.points) <= 4
    assert elapsed < 0.25, f"p=211, n=4, m=3 resolution took {elapsed:.3f}s"


# -- brute-force eigenspace oracle ---------------------------------------------------


def _brute_eigen_check(x_rows, dec, ctx, n, vectors):
    """pi_lam v = v exactly when x v = lam v, for every sampled vector."""
    q = ctx.modulus
    proj_by_lam = {lam.residue(): residues_of(proj) for lam, proj in dec.points}
    fixed = [teichmuller_lift(r, ctx).residue() for r in range(ctx.p)]
    for v in vectors:
        for lam in fixed:
            is_eigen = int_matvec(x_rows, v, q) == [(lam * c) % q for c in v]
            proj = proj_by_lam.get(lam)
            projected = int_matvec(proj, v, q) if proj else [0] * n
            assert is_eigen == (projected == list(v))


def test_brute_force_oracle_exhaustive_vectors():
    rng = random.Random(14)
    for p in (2, 3):
        ctx = PrecisionContext(p, 2)
        q = ctx.modulus
        all_vectors = list(itertools.product(range(q), repeat=2))
        for _ in range(10):
            u = rand_gl(ctx, 2, rng)
            x = conjugate(u, diag_matrix(ctx, rand_teich_diag(ctx, 2, rng)))
            dec = teichmuller_spectral(x, 1)
            _brute_eigen_check(residues_of(x), dec, ctx, 2, all_vectors)


def test_brute_force_oracle_sampled_dimension_three():
    rng = random.Random(15)
    for p in (2, 3):
        ctx = PrecisionContext(p, 3)
        q = ctx.modulus
        for _ in range(8):
            u = rand_gl(ctx, 3, rng)
            x = conjugate(u, diag_matrix(ctx, rand_teich_diag(ctx, 3, rng)))
            dec = teichmuller_spectral(x, 1)
            vectors = [tuple(rng.randrange(q) for _ in range(3)) for _ in range(40)]
            _brute_eigen_check(residues_of(x), dec, ctx, 3, vectors)


# -- sigma limits: sigma phase plus Newton, against plain iteration ----------------


def _assert_sigma_limits_match_oracle(rng, trials, degree):
    """Random rows over the degree-`degree` ring (ints for degree 1), periods 1-3.

    Returns how many inputs had a limit and how many cycled mod p.
    """
    outcomes = {True: 0, False: 0}
    for _ in range(trials):
        p = rng.choice((2, 3, 5, 7))
        m = rng.randrange(1, 9 if degree == 1 else 5)
        n = rng.randrange(1, 5)
        period = rng.randrange(1, 4)
        ctx = PrecisionContext(p, m)
        entries = [[rng.randrange(ctx.modulus) for _ in range(degree)] for _ in range(n * n)]
        if degree == 1:
            ops = ctx.ops
            entries = [e[0] for e in entries]
        else:
            ops = ext_ring(p, degree, m).ops
            entries = [tuple(e) for e in entries]
        rows = tuple(tuple(entries[i * n : (i + 1) * n]) for i in range(n))
        got = _sigma_limit(rows, period, ops)
        assert got == sigma_limit_oracle(rows, period, ops), (p, m, n, period)
        outcomes[got is not None] += 1
    return outcomes


def test_sigma_limit_matches_oracle_on_base_inputs():
    outcomes = _assert_sigma_limits_match_oracle(random.Random(71), 400, 1)
    assert outcomes[True] > 0 and outcomes[False] > 0


@pytest.mark.parametrize("degree", [2, 3])
def test_sigma_limit_matches_oracle_on_ring_inputs(degree):
    """Most random ring entries leave F_p, so their sigma^1 orbits cycle mod p."""
    outcomes = _assert_sigma_limits_match_oracle(random.Random(72 + degree), 200, degree)
    assert outcomes[True] > 0 and outcomes[False] > 0


@pytest.mark.parametrize("degree", [1, 2])
def test_sigma_limit_matches_oracle_on_unipotent_inputs(degree):
    """w (I + N) at p = 2 for the n x n Jordan shift N, w = 1 or a degree-2 Teichmuller lift.

    (I + N)^(2^j) = I + N^(2^j) mod 2 reaches I at the least j with
    2^j >= n, so at n = 2^k + 1 the sigma phase needs all
    pre_period_bound(2, 1, n) = k + 1 of its sigma steps: a bound one
    step shorter refuses these inputs.  Over the degree-2 ring, w has
    order 3, so sigma moves w(I + N) mod 2 forever and only sigma^2 has
    a limit.
    """
    outcomes = {True: 0, False: 0}
    for m in (1, 2, 3):
        ctx = PrecisionContext(2, m)
        if degree == 1:
            ops, zero, omegas = ctx.ops, 0, [1]
        else:
            ring = ext_ring(2, 2, m)
            ops, zero = ring.ops, (0, 0)
            generator = ring.at(1).element((0, 1))
            omegas = [(1, 0), teichmuller_lift_ext(generator, m).residue_key()]
        sizes = (1, 2, 4, 5, 8, 9, 16, 17, 32, 33)
        for omega, n, period in itertools.product(omegas, sizes, (1, 2, 3)):
            rows = tuple(
                tuple(omega if j in (i, i + 1) else zero for j in range(n)) for i in range(n)
            )
            got = _sigma_limit(rows, period, ops)
            assert got == sigma_limit_oracle(rows, period, ops), (m, omega, n, period)
            outcomes[got is not None] += 1
    assert outcomes[True] > 0 and outcomes[False] == (0 if degree == 1 else 60)


def test_sigma_limit_refuses_a_newton_phase_that_does_not_converge():
    """Products off by p^(m-1) in one entry keep X^q != X, so the step bound is hit.

    The noise vanishes mod p, so the sigma phase still ends and the
    Newton phase spends every step it may take.
    """
    ctx = PrecisionContext(3, 4)
    ops = ctx.ops

    class NoisyOps:
        def __getattr__(self, name):
            return getattr(ops, name)

        def matmul(self, a, b):
            rows = [list(row) for row in ops.matmul(a, b)]
            rows[0][0] = (rows[0][0] + 27) % 81
            return tuple(map(tuple, rows))

    rows = ((2, 1), (0, 1))
    assert _sigma_limit(rows, 1, ops) == sigma_limit_oracle(rows, 1, ops) is not None
    with pytest.raises(RuntimeError, match="did not converge"):
        _sigma_limit(rows, 1, NoisyOps())


def _count_matpow_calls(monkeypatch) -> list:
    """A one-element counter of the spectral module's _res_matpow calls from here on."""
    calls = [0]
    real = spectral._res_matpow

    def counting(a, exponent, ops):
        calls[0] += 1
        return real(a, exponent, ops)

    monkeypatch.setattr(spectral, "_res_matpow", counting)
    return calls


def _peeling_bound(m: int, depth: int) -> int:
    """(P_i - 1).bit_length() + 1 matrix powers per stage i at P_i digits.

    Stage i carries P_i = m + depth - 1 - i digits below the depth and
    m - i past it.  Newton's method doubles the digits of agreement
    from one, so a stage takes ceil(log2 P_i) steps and one more to see
    the fixed point, past a sigma phase that semisimple tails skip.
    """
    precisions = [m + depth - 1 - i if i < depth else m - i for i in range(m)]
    return sum((precision - 1).bit_length() + 1 for precision in precisions)


@pytest.mark.parametrize("p,n,m", [(3, 8, 8), (211, 4, 16)])
def test_hermite_digits_work_bound(monkeypatch, p, n, m):
    """Every digit is wanted, so stage i carries 2m - 1 - i digits."""
    calls = _count_matpow_calls(monkeypatch)
    ctx = PrecisionContext(p, m)
    a, _, _ = rand_hermite(ctx, n, random.Random(n))
    expansion = hermite_digits_matrix(a, 1)
    assert expansion.reassemble().congruent(a)
    assert calls[0] <= _peeling_bound(m, m)


@pytest.mark.parametrize("p,n,m,depth", [(3, 8, 8, 3), (211, 4, 16, 5)])
def test_spectral_measure_work_bound(monkeypatch, p, n, m, depth):
    """A tree of depth d < m peels at m + d - 1 - i digits, then m - i past the depth.

    The resolutions take no sigma power: the tree certificate proves the
    digits fixed.
    """
    calls = _count_matpow_calls(monkeypatch)
    ctx = PrecisionContext(p, m)
    a, _, _ = rand_hermite(ctx, n, random.Random(n))
    identity_check, reconstruction = spectral_integral(spectral_measure(a, depth))
    assert identity_check.congruent(UMatrix.identity(n, ctx))
    assert (reconstruction - a).valuation >= depth
    assert calls[0] <= _peeling_bound(m, depth)


@pytest.mark.parametrize("k", [4, 8])
def test_spectral_work_bound(monkeypatch, k):
    """k planted points at p = 11: no sigma power, 3(k - 2) products for the projectors.

    The numerators are prefix times suffix products of the k shifted
    matrices x - mu; the characteristic polynomial and its roots take
    no residue product.
    """
    matpows = _count_matpow_calls(monkeypatch)
    products, inside = [0], [False]
    matmul, resolve = padic._BaseOps.matmul, spectral._resolve

    def counting_matmul(self, a, b):
        products[0] += inside[0]
        return matmul(self, a, b)

    def counting_resolve(*args):
        inside[0] = True
        try:
            return resolve(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(padic._BaseOps, "matmul", counting_matmul)
    monkeypatch.setattr(spectral, "_resolve", counting_resolve)
    ctx = PrecisionContext(11, 3)
    rng = random.Random(k)
    points = [teichmuller_lift(r, ctx).residue() for r in rng.sample(range(11), k)]
    x = conjugate(rand_gl(ctx, k + 1, rng), diag_matrix(ctx, points + points[:1]))
    dec = teichmuller_spectral(x, 1)
    assert sorted(lam.residue() for lam in dec.eigenvalues) == sorted(points)
    assert (matpows[0], products[0]) == (0, 3 * (k - 2))


@pytest.mark.parametrize("p,period,k", [(11, 1, 1), (11, 1, 2), (11, 1, 4), (11, 1, 8), (5, 2, 2), (3, 3, 3)])
def test_resolve_inverts_once_per_resolution(monkeypatch, p, period, k):
    """One unit inversion per resolution of k >= 1 points, and max(0, 3(k - 2)) products.

    The k Lagrange denominators are inverted together: one inversion of
    their product, then back-substitution through the prefix products.
    Over Z_p the k points are planted in dimension k + 1, the first
    twice; at period N > 1 the operator is the companion matrix of a
    Teichmuller point of degree N, resolved over the degree-N ring at
    its N conjugates.  The point search before the denominators
    (_spectral_points) inverts too and is not counted.
    """
    counts, inside = {"matmul": 0, "inv_unit": 0}, [False]
    for cls in (padic._BaseOps, _ExtOps):
        for name in counts:
            def counting(self, *args, real=getattr(cls, name), name=name):
                counts[name] += inside[0]
                return real(self, *args)

            monkeypatch.setattr(cls, name, counting)
    resolve, search = spectral._resolve, spectral._spectral_points

    def counting_points(*args):
        found = search(*args)
        inside[0] = True
        return found

    def counting_resolve(*args):
        try:
            return resolve(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(spectral, "_spectral_points", counting_points)
    monkeypatch.setattr(spectral, "_resolve", counting_resolve)
    ctx = PrecisionContext(p, 3)
    if period == 1:
        rng = random.Random(k)
        points = [teichmuller_lift(r, ctx).residue() for r in rng.sample(range(p), k)]
        x = conjugate(rand_gl(ctx, k + 1, rng), diag_matrix(ctx, points + points[:1]))
    else:
        x = UMatrix.from_residues(teichmuller_companion(p, period, 3), ctx)
    dec = teichmuller_spectral(x, period)
    assert len(dec.points) == k
    assert counts == {"matmul": max(0, 3 * (k - 2)), "inv_unit": 1}


# -- digit expansions -----------------------------------------------------------------


def test_hermite_digits_worked_example():
    a = UMatrix.from_ints([[1, 3], [0, 4]], CTX)
    expansion = hermite_digits_matrix(a, 1)
    assert expansion.lead_valuation == 0
    assert residues_of(expansion.digits[0]) == [[1, 0], [0, 1]]
    assert residues_of(expansion.digits[1]) == [[0, 1], [0, 1]]
    assert expansion.digits[2].is_zero_mod_precision()
    assert expansion.reassemble().congruent(a)


def test_hermite_rejects_unipotent():
    with pytest.raises(NotHermiteError) as err:
        hermite_digits_matrix(UMatrix.from_ints([[1, 1], [0, 1]], CTX), 1)
    assert err.value.stage == 1
    assert "digit 1" in err.value.reason


def test_hermite_rejects_wrong_period_with_unstable_orbit():
    # the rotation is fixed by sigma^2, so its sigma^1 orbit cycles forever
    rot = UMatrix.from_ints([[0, 1], [-1, 0]], CTX)
    with pytest.raises(NotHermiteError) as err:
        hermite_digits_matrix(rot, 1)
    assert err.value.stage == 0
    assert "stabilise" in err.value.reason
    hermite_digits_matrix(rot, 2)  # but the period-2 expansion exists


def test_hermite_stage_tracks_perturbation_depth():
    rng = random.Random(16)
    ctx = PrecisionContext(3, 4)
    for stage in range(1, ctx.m):
        u = rand_gl(ctx, 3, rng)
        core = diag_matrix(ctx, [2, 2, 5])
        bump = UMatrix.from_ints(
            [[0, 3**stage, 0], [0, 0, 0], [0, 0, 0]], ctx
        )
        with pytest.raises(NotHermiteError) as err:
            hermite_digits_matrix(conjugate(u, core + bump), 1)
        assert err.value.stage == stage + 1


def test_hermite_diagonal_of_scalars():
    ctx = PrecisionContext(5, 3)
    a = diag_matrix(ctx, [3, 17])
    expansion = hermite_digits_matrix(a, 1)
    from padicspec import teichmuller_digits

    d0 = teichmuller_digits(PadicScalar.from_int(3, ctx))
    top_left = [residues_of(dig)[0][0] for dig in expansion.digits]
    assert top_left == [dig.residue() for dig in d0.digits]


def test_hermite_factors_negative_valuation():
    third = scalar_from_rational(1, 3, CTX)
    a = UMatrix.from_ints([[1, 3], [0, 4]], CTX).scale(third)
    expansion = hermite_digits_matrix(a, 1)
    assert expansion.lead_valuation == -1
    # reassembly agrees to the shifted window p^(k+m)
    diff = expansion.reassemble() - a
    assert diff.valuation >= expansion.lead_valuation + CTX.m


def test_hermite_zero_matrix():
    expansion = hermite_digits_matrix(UMatrix.zeros(3, CTX), 1)
    assert all(d.is_zero_mod_precision() for d in expansion.digits)


def test_hermite_digits_commute_and_are_fixed():
    rng = random.Random(17)
    ctx = PrecisionContext(3, 5)
    for _ in range(10):
        a, _, _ = rand_hermite(ctx, 4, rng)
        expansion = hermite_digits_matrix(a, 1)
        digits = expansion.digits
        for d in digits:
            assert d.sigma_window().congruent(d)
        for i, di in enumerate(digits):
            for dj in digits[i + 1 :]:
                assert (di * dj).congruent(dj * di)
        assert expansion.reassemble().congruent(a)


def test_gl_equivalence_positive_and_negative():
    """Conjugated diagonals pass; unipotent blocks fail with a located stage."""
    rng = random.Random(18)
    for p in (2, 3, 5):
        ctx = PrecisionContext(p, 4)
        for _ in range(10):
            a, _, _ = rand_hermite(ctx, 3, rng)
            expansion = hermite_digits_matrix(a, 1)
            assert expansion.reassemble().congruent(a)
        for _ in range(10):
            u = rand_gl(ctx, 3, rng)
            lam = rng.randrange(ctx.modulus)
            core = diag_matrix(ctx, [lam, lam, rng.randrange(ctx.modulus)])
            bump = UMatrix.from_ints([[0, 1, 0], [0, 0, 0], [0, 0, 0]], ctx)
            with pytest.raises(NotHermiteError):
                hermite_digits_matrix(conjugate(u, core + bump), 1)


def test_commuting_hermite_closure():
    """Sums and products of commuting expandable operators stay expandable."""
    rng = random.Random(19)
    ctx = PrecisionContext(3, 4)
    for _ in range(10):
        u = rand_gl(ctx, 3, rng)
        a = conjugate(u, diag_matrix(ctx, [rng.randrange(ctx.modulus) for _ in range(3)]))
        b = conjugate(u, diag_matrix(ctx, [rng.randrange(ctx.modulus) for _ in range(3)]))
        assert (a * b).congruent(b * a)
        hermite_digits_matrix(a + b, 1)
        hermite_digits_matrix(a * b, 1)


def test_spectrum_invariant_under_conjugation():
    rng = random.Random(20)
    ctx = PrecisionContext(3, 3)
    a, _, _ = rand_hermite(ctx, 3, rng)
    spec_a = sorted(lam.residue() for lam, _ in operator_spectrum(a))
    u = rand_gl(ctx, 3, rng)
    b = conjugate(u, a)
    spec_b = sorted(lam.residue() for lam, _ in operator_spectrum(b))
    assert spec_a == spec_b


def _planted_level(p: int, m: int, degree: int, points: list, rows=None):
    """A one-level tree of planted int (eigenvalue, projector) pairs, and its ops.

    The level is what _spectral_tree builds for teichmuller_spectral:
    its digit is the operator and its nodes are the projectors, indexed
    by their position.  The pairs are taken over Z/p^m (degree 1) or the
    degree-N ring; rows defaults to the weighted sum of the projectors,
    and over the ring every int becomes the constant coordinate vector.
    """
    q = p**m
    n = len(points[0][1])
    ctx = PrecisionContext(p, m)
    if rows is None:
        rows = [
            [sum(lam * proj[i][j] for lam, proj in points) % q for j in range(n)]
            for i in range(n)
        ]
    ring = None if degree == 1 else ext_ring(p, degree, m)

    def embed(c):
        return c % q if ring is None else (c % q,) + (0,) * (degree - 1)

    def matrix(int_rows):
        return tuple(tuple(embed(c) for c in row) for row in int_rows)

    terms = {i: (embed(lam), matrix(proj)) for i, (lam, proj) in enumerate(points)}
    nodes = [((i,), proj) for i, (_, proj) in terms.items()]
    return spectral._TreeLevel(matrix(rows), terms, nodes), (ctx if ring is None else ring).ops


@pytest.mark.parametrize("degree", [1, 2])
def test_verify_decomposition_refuses_a_projector_of_norm_below_1(degree):
    """3 E11 is idempotent only as 0 mod 9; its overlap with I is I * 3 E11 != 0."""
    points = [(1, [[1, 0], [0, 1]]), (0, [[3, 0], [0, 0]])]
    level, ops = _planted_level(3, 2, degree, points)
    with pytest.raises(RuntimeError, match="same-level projectors overlap"):
        _verify_tree([level], ops)


@pytest.mark.parametrize("degree", [1, 2])
def test_verify_decomposition_refuses_a_non_idempotent_projector(degree):
    """2 E11 has a unit entry and sums to 1 with 1 - 2 E11, but (2 E11)^2 = 4 E11 mod 9."""
    points = [(1, [[2, 0], [0, 0]]), (4, [[-1, 0], [0, 1]])]
    level, ops = _planted_level(3, 2, degree, points)
    with pytest.raises(RuntimeError, match="projector is not idempotent"):
        _verify_tree([level], ops)


@pytest.mark.parametrize("degree", [1, 2])
def test_verify_decomposition_refuses_projectors_not_summing_to_1(degree):
    points = [(1, [[1, 0], [0, 0]])]
    level, ops = _planted_level(3, 2, degree, points)
    with pytest.raises(RuntimeError, match="level 0 projectors do not sum to 1"):
        _verify_tree([level], ops)


@pytest.mark.parametrize("degree", [1, 2])
def test_verify_decomposition_refuses_a_weighted_sum_other_than_x(degree):
    points = [(1, [[1, 0], [0, 0]]), (4, [[0, 0], [0, 1]])]
    level, ops = _planted_level(3, 2, degree, points, rows=[[1, 0], [0, 1]])
    with pytest.raises(RuntimeError, match="level 0 projectors do not reassemble digit 0"):
        _verify_tree([level], ops)


@pytest.mark.parametrize("degree", [1, 2])
def test_verify_decomposition_refuses_a_one_sided_overlap(degree):
    """Idempotents over F_2 that sum to 1 yet overlap, with P_0 P_3 != 0 = P_3 P_0.

    The two copies of E22 cancel, so the four sum to 1.  In
    characteristic 0 idempotents summing to 1 are orthogonal (compare
    traces and ranks); over F_p they need not be, but every such set an
    exhaustive search found (p = 2, 3 at n = 2 with up to five
    projectors, p = 2 at n = 3 with up to four) also has two-sided
    overlaps besides its one-sided ones.  The certificate forms P_i P_j
    for i < j only, P_0 P_3 among them.
    """
    e22, low, col = [[0, 0], [0, 1]], [[0, 0], [1, 1]], [[1, 0], [1, 0]]
    assert int_matmul(e22, col, 2) == [[0, 0], [1, 0]]
    assert int_matmul(col, e22, 2) == [[0, 0], [0, 0]]
    points = [(0, e22), (1, e22), (0, low), (1, col)]
    level, ops = _planted_level(2, 1, degree, points)
    with pytest.raises(RuntimeError, match="same-level projectors overlap"):
        _verify_tree([level], ops)


def test_classify_matrix_orbits():
    from padicspec import OrbitKind, classify_orbit

    nil = UMatrix.from_ints([[0, 1], [0, 0]], CTX)
    assert classify_orbit(nil, 2).kind is OrbitKind.TOP_NILPOTENT
    swap = UMatrix.from_ints([[0, 1], [1, 0]], CTX)
    report = classify_orbit(swap, 2)
    assert report.kind is OrbitKind.PERIODIC and report.period == 1
    # unipotent orbits stabilise onto the identity they do not start on
    uni = UMatrix.from_ints([[1, 1], [0, 1]], CTX)
    report = classify_orbit(uni, 2)
    assert report.kind is OrbitKind.QUASI_PERIODIC
    assert report.limit.congruent(UMatrix.identity(2, CTX))


# -- the ball measure ----------------------------------------------------------------


def test_measure_worked_example():
    ctx = PrecisionContext(3, 4)
    a = diag_matrix(ctx, [1, 4])
    measure = spectral_measure(a, 2)
    nodes = measure.node_map()
    assert set(nodes) == {(1,), (1, 0), (1, 1)}
    assert residues_of(nodes[(1,)]) == [[1, 0], [0, 1]]
    assert residues_of(nodes[(1, 0)]) == [[1, 0], [0, 0]]
    assert residues_of(nodes[(1, 1)]) == [[0, 0], [0, 1]]
    assert measure.ball_center((1, 0), ctx).residue() == 1
    assert measure.ball_center((1, 1), ctx).residue() == 4


@pytest.mark.parametrize("degree", [1, 2])
def test_measure_refuses_an_extension_ring(degree):
    """The balls of the measure are balls of Z_p: a matrix over any extension ring is refused.

    The degree-1 ring O_K = Z_p is an extension ring too, whose points
    are coordinate vectors and cannot be ball centers of Z_p.
    """
    a = UMatrix.identity(2, ext_ring(3, degree, 2))
    with pytest.raises(ValueError, match="built over Z_p"):
        spectral_measure(a, 1)


def test_measure_scalar_operator_single_path():
    ctx = PrecisionContext(5, 3)
    lam = teichmuller_lift(2, ctx)
    a = UMatrix.identity(2, ctx).scale(lam)
    measure = spectral_measure(a, 2)
    for level in range(2):
        layer = measure.level(level)
        assert len(layer) == 1
        assert layer[0][1].congruent(UMatrix.identity(2, ctx))


def test_measure_conjugated_example_has_rank_one_balls():
    ctx = PrecisionContext(3, 4)
    u = UMatrix.from_ints([[1, 1], [0, 1]], ctx)
    a = conjugate(u, diag_matrix(ctx, [1, 4]))
    measure = spectral_measure(a, 2)
    deepest = measure.level(1)
    assert len(deepest) == 2
    for _, proj in deepest:
        assert proj.norm == 1.0


def test_measure_depth_bounds():
    a = diag_matrix(CTX, [1, 4])
    with pytest.raises(ValueError):
        spectral_measure(a, 0)
    with pytest.raises(ValueError):
        spectral_measure(a, CTX.m + 1)


def test_measure_node_count_bounded_by_dimension():
    rng = random.Random(21)
    ctx = PrecisionContext(3, 4)
    for _ in range(8):
        a, _, _ = rand_hermite(ctx, 4, rng)
        measure = spectral_measure(a, ctx.m)
        counts = [len(measure.level(j)) for j in range(ctx.m)]
        assert all(c <= 4 for c in counts)
        assert counts == sorted(counts)  # refinement never merges balls


def test_integral_of_identity():
    measure = spectral_measure(UMatrix.identity(2, CTX), 2)
    identity_check, reconstruction = spectral_integral(measure)
    assert identity_check.congruent(UMatrix.identity(2, CTX))
    assert reconstruction.congruent(UMatrix.identity(2, CTX))


def test_integral_reconstructs_worked_example():
    ctx = PrecisionContext(3, 2)
    a = diag_matrix(ctx, [1, 4])
    identity_check, reconstruction = spectral_integral(spectral_measure(a, 2))
    assert identity_check.congruent(UMatrix.identity(2, ctx))
    assert reconstruction.congruent(a)


def test_integral_error_decays_with_depth():
    rng = random.Random(22)
    ctx = PrecisionContext(5, 4)
    a, _, _ = rand_hermite(ctx, 3, rng)
    last = -1
    for depth in range(1, ctx.m + 1):
        _, reconstruction = spectral_integral(spectral_measure(a, depth))
        err = (reconstruction - a).valuation
        assert err >= depth
        assert err >= last
        last = err


@pytest.mark.parametrize("shift", [-1, 1])
def test_measure_with_shifted_valuation(shift):
    """Lead valuation k scales the centers; the error bound moves to k + d."""
    rng = random.Random(27)
    ctx = PrecisionContext(3, 4)
    base, _, _ = rand_hermite(ctx, 2, rng)
    a = base.shift(shift)
    measure = spectral_measure(a, 2)
    assert measure.lead_valuation == base.valuation + shift
    identity_check, reconstruction = spectral_integral(measure)
    assert identity_check.congruent(UMatrix.identity(2, ctx))
    assert (reconstruction - a).valuation >= measure.lead_valuation + 2


def _branching_operator():
    """At p = 3, m = 2: the residues 0, 3, 1, 4 have the digit pairs (0, 0), (0, 1), (1, 0), (1, 1)."""
    ctx = PrecisionContext(3, 2)
    return conjugate(rand_gl(ctx, 4, random.Random(31)), diag_matrix(ctx, [0, 3, 1, 4]))


def _branching_tree():
    """The certified depth-2 tree whose two level-0 balls split in two each, and its ops."""
    a = _branching_operator()
    ops, levels = spectral._spectral_tree(spectral._peel(a, 1, 2, True)[1], a.ctx.ops, 1)
    assert [addr for addr, _ in levels[1].nodes] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    return levels, ops


def _with_nodes(levels, j, nodes):
    """levels with the nodes of level j replaced."""
    return [level._replace(nodes=list(nodes)) if i == j else level
            for i, level in enumerate(levels)]


def _swapped(levels, j, first, second):
    """levels with the rows of two nodes of level j exchanged."""
    rows = dict(levels[j].nodes)
    swap = {first: rows[second], second: rows[first]}
    return _with_nodes(levels, j, [(addr, swap.get(addr, r)) for addr, r in levels[j].nodes])


def test_verify_measure_catches_a_dropped_node():
    levels, ops = _branching_tree()
    nodes = [(addr, rows) for addr, rows in levels[1].nodes if addr != (1, 1)]
    with pytest.raises(RuntimeError, match="level 1 projectors do not sum to 1"):
        _verify_tree(_with_nodes(levels, 1, nodes), ops)


def test_verify_measure_catches_a_duplicated_node():
    levels, ops = _branching_tree()
    nodes = levels[1].nodes + [((1, 2), dict(levels[1].nodes)[(1, 1)])]
    with pytest.raises(RuntimeError, match="same-level projectors overlap"):
        _verify_tree(_with_nodes(levels, 1, nodes), ops)


def test_verify_measure_catches_a_child_moved_to_another_parent():
    """Swapping (0, 1) with its cousin (1, 0) keeps every level intact but no refinement."""
    levels, ops = _branching_tree()
    with pytest.raises(RuntimeError, match="does not refine into its children"):
        _verify_tree(_swapped(levels, 1, (0, 1), (1, 0)), ops)


def test_verify_measure_catches_swapped_siblings():
    """Swapping (0, 0) with its sibling (0, 1) keeps every sum, overlap and
    refinement intact but files each projector under the wrong digit."""
    levels, ops = _branching_tree()
    with pytest.raises(RuntimeError, match="level 1 projectors do not reassemble digit 1"):
        _verify_tree(_swapped(levels, 1, (0, 0), (0, 1)), ops)
    # the swap is not harmless: the integral of the swapped tree misses A
    a = _branching_operator()
    measure = spectral_measure(a, 2)
    by_addr = dict(measure.node_rows)
    swap = {(0, 0): by_addr[(0, 1)], (0, 1): by_addr[(0, 0)]}
    swapped = measure._replace(
        node_rows=tuple((addr, swap.get(addr, rows)) for addr, rows in measure.node_rows)
    )
    assert (spectral_integral(measure)[1] - a).valuation >= 2
    assert (spectral_integral(swapped)[1] - a).valuation == 1


def test_verify_tree_catches_a_level_zero_node_listed_as_its_children():
    """Level 0 lists address (1,) twice, once with each of its children's projectors.

    The level still sums to 1 and reassembles digit 0, and the deepest
    level is untouched, so only the refinement check sees that neither
    copy is the sum of the children of (1,).
    """
    levels, ops = _branching_tree()
    children = dict(levels[1].nodes)
    nodes = [levels[0].nodes[0], ((1,), children[(1, 0)]), ((1,), children[(1, 1)])]
    assert [addr for addr, _ in levels[0].nodes] == [(0,), (1,)]
    with pytest.raises(RuntimeError, match="does not refine into its children"):
        _verify_tree(_with_nodes(levels, 0, nodes), ops)


def _period_two_tree():
    """A certified depth-2 tree over the degree-2 ring: a conjugate pair at digit 0, each split at digit 1.

    The operator is w (+) (1 + p) w over Z/3^3, w multiplying by a lift
    generating the degree-2 ring, so its period-2 points are coordinate
    pairs and each level-0 ball has two children.
    """
    ctx = PrecisionContext(3, 3)
    block = _multiplication_block(ctx, 2)
    d = [[0] * 4 for _ in range(4)]
    for i in range(2):
        d[i][:2] = block[i]
        d[i + 2][2:] = [(1 + ctx.p) * e for e in block[i]]
    a = conjugate(rand_gl(ctx, 4, random.Random(43)), UMatrix.from_residues(d, ctx))
    ops, levels = spectral._spectral_tree(spectral._peel(a, 2, 2, True)[1], ctx.ops, 2)
    assert ops.degree == 2
    parents = [addr[:-1] for addr, _ in levels[1].nodes]
    assert len(parents) == 4 and len(set(parents)) == 2
    return levels, ops


def test_verify_tree_catches_a_dropped_deepest_node_over_a_degree_two_ring():
    levels, ops = _period_two_tree()
    with pytest.raises(RuntimeError, match="level 1 projectors do not sum to 1"):
        _verify_tree(_with_nodes(levels, 1, levels[1].nodes[:-1]), ops)


def test_verify_tree_catches_swapped_siblings_over_a_degree_two_ring():
    levels, ops = _period_two_tree()
    (first, _), (second, _) = levels[1].nodes[:2]
    assert first[:-1] == second[:-1]
    with pytest.raises(RuntimeError, match="level 1 projectors do not reassemble digit 1"):
        _verify_tree(_swapped(levels, 1, first, second), ops)


def test_verify_tree_checks_idempotency_where_orthogonality_is_one_sided():
    """Q_1 = E_11, Q_2 = [[0, 0], [-1, 0]], Q_3 = [[0, 0], [1, 1]] at p = 5.

    They sum to 1, Q_i Q_j = 0 for i < j, and the digit is their
    lift-weighted sum, but Q_3 Q_1 = -Q_2 is not 0 and Q_2 is nilpotent:
    only the deepest level's squares refuse the tree.
    """
    ctx = PrecisionContext(5, 2)
    ops = ctx.ops
    q = ctx.modulus
    projectors = {0: ((1, 0), (0, 0)), 1: ((0, 0), (q - 1, 0)), 2: ((0, 0), (1, 1))}
    lifts = {i: teichmuller_lift(i, ctx).residue() for i in projectors}
    digit = [[sum(lifts[i] * rows[r][c] for i, rows in projectors.items()) % q
              for c in range(2)] for r in range(2)]
    level = spectral._TreeLevel(
        tuple(map(tuple, digit)),
        {i: (lifts[i], rows) for i, rows in projectors.items()},
        [((i,), rows) for i, rows in projectors.items()],
    )
    with pytest.raises(RuntimeError, match="projector is not idempotent"):
        _verify_tree([level], ops)


@pytest.mark.parametrize("period", [1, 2])
def test_spectral_tree_matches_the_object_level_tree_at_every_level(period):
    """_spectral_tree against the object-level route at p = 2, 3, 5, every level.

    Equal node addresses and rows, and equal term points and rows, on
    random Hermite operators and their shifts by p; most trees have
    levels that no node splits, many with several nodes of one index.
    """
    for p in (2, 3, 5):
        rng = random.Random(50 + 10 * p + period)
        ctx = PrecisionContext(p, 4)
        for n in (1, 3, 4, 5):
            a = _hermite_operator(ctx, n, period, rng)
            for x in (a, a.shift(1)):
                _, stages = spectral._peel(x, period, ctx.m, True)
                _, levels = spectral._spectral_tree(stages, x.ring.ops, period)
                _assert_tree_matches_the_oracles(x, period, levels)


@pytest.mark.parametrize("period", [1, 2])
def test_diam_tree_sums_to_one_and_refines_at_every_level(monkeypatch, period):
    """The tree behind spectrum_diameter, read off _spectral_tree, checked level by level."""
    trees = []

    def recorded(*args):
        trees.append(spectral_tree(*args))
        return trees[-1]

    spectral_tree = spectral._spectral_tree
    monkeypatch.setattr(spectral, "_spectral_tree", recorded)
    rng = random.Random(60 + period)
    ctx = PrecisionContext(3, 4)
    a = _hermite_operator(ctx, 5, period, rng)
    diam = spectrum_diameter(a, period)
    assert len(trees) == 1
    ops, levels = trees[0]
    assert len(levels) == ctx.m and len(levels[-1].nodes) == len(diam.spectrum)
    ident = tuple(tuple(ops.one if i == j else ops.zero for j in range(5)) for i in range(5))
    for j, level in enumerate(levels):
        total = ident
        for _, rows in level.nodes:
            total = tuple(tuple(ops.sub(x, y) for x, y in zip(tr, r)) for tr, r in zip(total, rows))
        assert all(e == ops.zero for row in total for e in row), j
        if j == 0:
            continue
        for parent, rows in levels[j - 1].nodes:
            refined = rows
            for addr, child in level.nodes:
                if addr[:-1] == parent:
                    refined = tuple(tuple(ops.sub(x, y) for x, y in zip(pr, cr))
                                    for pr, cr in zip(refined, child))
            assert all(e == ops.zero for row in refined for e in row), (j, parent)


# -- levels that no node splits --------------------------------------------------------


def _assert_tree_matches_the_oracles(a: UMatrix, period: int, levels: list):
    """Every level of a depth-m tree against the object-level route: nodes, then terms by index."""
    m = a.ctx.m
    nodes, terms = spectral_tree_oracle(a, period, m), spectral_terms_oracle(a, period, m)
    assert len(levels) == len(nodes) == len(terms) == m
    for level, oracle_nodes, oracle_terms in zip(levels, nodes, terms):
        assert level.nodes == [(addr, proj.residues()) for addr, _, proj in oracle_nodes]
        assert list(level.terms) == sorted(level.terms)
        assert level.terms == oracle_terms


def _recording_resolve(monkeypatch) -> list:
    """Replace spectral._resolve by a wrapper that records the rows of every call."""
    calls, resolve = [], spectral._resolve

    def recorded(rows, *args):
        calls.append(rows)
        return resolve(rows, *args)

    monkeypatch.setattr(spectral, "_resolve", recorded)
    return calls


def _splitting_levels(levels: list) -> list:
    """The levels j >= 1 with more nodes than level j - 1: those where some node splits."""
    return [j for j in range(1, len(levels)) if len(levels[j].nodes) > len(levels[j - 1].nodes)]


def _teichmuller_expansion(digit_rows, ctx: PrecisionContext) -> list:
    """sum_j omega(d_j) p^j mod p^m for each digit sequence d."""
    lifts = {d: teichmuller_lift(d, ctx).residue() for d in range(ctx.p)}
    return [sum(lifts[d] * ctx.p**j for j, d in enumerate(digits)) % ctx.modulus
            for digits in digit_rows]


def _scalar_doc(value: int, p: int) -> dict:
    """The scalar document p^v u of a nonnegative integer."""
    v = 0
    while value and value % p == 0:
        value, v = value // p, v + 1
    return {"v": v, "u": str(value)}


def test_diam_period_two_tree_matches_the_oracles(monkeypatch, tmp_path):
    """The tree behind diam --N 2 on base operators, recorded inside run_command."""
    trees, spectral_tree = [], spectral._spectral_tree

    def recorded(*args):
        trees.append(spectral_tree(*args))
        return trees[-1]

    monkeypatch.setattr(spectral, "_spectral_tree", recorded)
    rng = random.Random(91)
    for p in (2, 3):
        ctx = PrecisionContext(p, 3)
        a = _hermite_operator(ctx, 4, 2, rng)
        entries = [_scalar_doc(e, p) for row in residues_of(a) for e in row]
        path = tmp_path / f"diam{p}.json"
        path.write_text(json.dumps({"p": p, "m": ctx.m, "entries": entries}))
        assert run_command(["diam", "--N", "2", "--in", str(path)], io.StringIO()) == 0
        ops, levels = trees[-1]
        assert ops.degree == 2
        _assert_tree_matches_the_oracles(a, 2, levels)


def test_a_level_that_splits_one_node_but_not_another_is_resolved(monkeypatch):
    """Eigenvalues 1, 4, -1 at p = 3, m = 3: level 1 splits (1,) but not (2,).

    Their digits are (1, 0, 0), (1, 1, 0), (2, 0, 0).  Level 1 is
    resolved even though the ball (2,) passes through it; level 2
    splits nothing and is not.
    """
    calls = _recording_resolve(monkeypatch)
    ctx = PrecisionContext(3, 3)
    a = conjugate(rand_gl(ctx, 3, random.Random(5)), diag_matrix(ctx, [1, 4, ctx.modulus - 1]))
    stages = list(spectral._peel(a, 1, ctx.m, True)[1])
    digits = [digit for digit, _, _ in stages]
    _, levels = spectral._spectral_tree(stages, ctx.ops, 1)
    assert [[addr for addr, _ in level.nodes] for level in levels[1:]] == [
        [(1, 0), (1, 1), (2, 0)], [(1, 0, 0), (1, 1, 0), (2, 0, 0)]
    ]
    assert calls == list(digits[:2])
    _assert_tree_matches_the_oracles(a, 1, levels)


def test_resolutions_are_one_more_than_the_splitting_levels(monkeypatch):
    """Four eigenvalue classes at p = 3, m = 8 that part at digits 2, 5 and 6.

    Every other level passes its nodes through; at level 3 two nodes
    and at level 7 all four share index 1, so the term rows there are
    sums of several nodes.
    """
    calls = _recording_resolve(monkeypatch)
    ctx = PrecisionContext(3, 8)
    first = [1] * 8
    second = first[:2] + [2] + first[3:]
    third = first[:5] + [0] + first[6:]
    fourth = second[:6] + [2] + second[7:]
    planted = diag_matrix(ctx, _teichmuller_expansion([first, second, third, fourth], ctx))
    a = conjugate(rand_gl(ctx, 4, random.Random(8)), planted)
    stages = list(spectral._peel(a, 1, ctx.m, True)[1])
    digits = [digit for digit, _, _ in stages]
    _, levels = spectral._spectral_tree(stages, ctx.ops, 1)
    assert _splitting_levels(levels) == [2, 5, 6]
    assert len(calls) == 1 + 3
    assert [len(level.nodes) for level in levels] == [1, 1, 2, 2, 2, 3, 4, 4]
    _assert_tree_matches_the_oracles(a, 1, levels)


def test_pass_through_declines_a_node_without_a_unit_entry_or_an_eigenvalue():
    """A node with no unit entry, or one that the digit does not scale, sends the level to _resolve."""
    ctx = PrecisionContext(3, 2)
    ops = ctx.ops
    ident = ((1, 0), (0, 1))

    def above(node):  # a level above whose one node is node
        return spectral._TreeLevel(node, {0: (0, node)}, [((0,), node)], ops)

    assert spectral._read_off(above(((3, 0), (0, 3))), ident, ops, 1) is None
    assert spectral._read_off(above(ident), ((1, 0), (0, 8)), ops, 1) is None
    *_, level = spectral._read_off(above(ident), ((8, 0), (0, 8)), ops, 1)
    assert level.nodes == [((0, 2), ident)]
    assert level.terms == {2: (teichmuller_lift(2, ctx).residue(), ident)}


def test_tree_commands_peel_only_the_digits_they_cannot_read_off(monkeypatch):
    """diag(1, 2, 3) at p = 3, m = 4: digit 0 splits it into three rank-1 nodes, and no later level splits.

    The tree commands run _sigma_limit for digit 0 alone and read digits
    1..3 off the level above; hermite, which builds no tree, runs it for
    every digit.
    """
    calls, sigma_limit = [], spectral._sigma_limit

    def counted(*args):
        calls.append(args)
        return sigma_limit(*args)

    monkeypatch.setattr(spectral, "_sigma_limit", counted)
    a = diag_matrix(PrecisionContext(3, 4), [1, 2, 3])
    counts = []
    for command in (lambda: spectral_measure(a, 4), lambda: spectrum_diameter(a), lambda: hermite_digits_matrix(a)):
        calls.clear()
        command()
        counts.append(len(calls))
    assert counts == [1, 1, 4]


def _tamper_level_zero(monkeypatch, tamper) -> list:
    """Pass each projector of the first _resolve call through tamper(projector rows, ambient ops).

    Returns the verdicts of _read_off, True for each digit it read off,
    in stage order.
    """
    resolve, read_off, verdicts, tampered = spectral._resolve, spectral._read_off, [], []

    def tampering(*args):
        lifts, ambient, rows, projectors = resolve(*args)
        if not tampered:
            tampered.append(True)
            projectors = [tamper(projector, ambient) for projector in projectors]
        return lifts, ambient, rows, projectors

    def recorded(*args):
        read = read_off(*args)
        verdicts.append(read is not None)
        return read

    monkeypatch.setattr(spectral, "_resolve", tampering)
    monkeypatch.setattr(spectral, "_read_off", recorded)
    return verdicts


def test_read_off_refuses_a_candidate_that_sigma_moves(monkeypatch):
    """Level 0's projectors scaled by 1 + 3^5 are right mod 3^4, but the digit read off them is not sigma-fixed.

    diag(1, 2, 3) at p = 3, m = 4 resolves level 0 at P_0 = 7 digits and
    reads digit 1 off it at P_1 = 6.  Each projector is then off by
    p^(P_1 - 1) times itself: orthogonal to the others and commuting with
    the tail, so only L^(p^N) = L refuses the candidate.  Stage 1 runs
    Newton's method and resolves, and digits 2 and 3, at 5 and 4 digits,
    are read off as before, to the same answer.
    """
    a = diag_matrix(PrecisionContext(3, 4), [1, 2, 3])
    clean = spectrum_diameter(a)

    def scaled(rows, ops):
        return ops.rows_scale(1 + ops.p ** (ops.m - 2), rows)

    verdicts = _tamper_level_zero(monkeypatch, scaled)
    assert spectrum_diameter(a) == clean
    assert verdicts == [False, True, True]


def test_read_off_refuses_a_candidate_that_does_not_commute_with_the_tail(monkeypatch):
    """Level 0's projectors conjugated by 1 + 3^5 E_01 are right mod 3^4, but the digit read off them moves the tail.

    diag(1, 2, 3) at p = 3, m = 4 resolves level 0 at P_0 = 7 digits and
    reads digit 1 off it at P_1 = 6.  The conjugated projectors are still
    orthogonal idempotents summing to 1, so the candidate is sigma-fixed,
    but E_01 mixes the eigenspaces of the tail mod p: only L T = T L
    refuses the candidate.  Stage 1 then resolves its level under the
    tampered nodes, which leaves children that vanish mod 3^4 but not
    mod 3^6, and the tree certificate refuses the tree.
    """
    a = diag_matrix(PrecisionContext(3, 4), [1, 2, 3])

    def conjugated(rows, ops):
        eps = ops.p ** (ops.m - 2)
        shear = [[int(r == c) for c in range(3)] for r in range(3)]
        shear[0][1] = eps
        unshear = [list(row) for row in shear]
        unshear[0][1] = ops.q - eps
        return ops.matmul(ops.matmul(ops.map_coords(shear, int), rows), ops.map_coords(unshear, int))

    verdicts = _tamper_level_zero(monkeypatch, conjugated)
    with pytest.raises(RuntimeError, match="does not refine into its children"):
        spectrum_diameter(a)
    assert verdicts[0] is False


@pytest.mark.parametrize("period", [1, 2])
def test_operator_spectrum_matches_scalar_level_products(period):
    rng = random.Random(40 + period)
    ctx = PrecisionContext(3, 3)
    cases = []
    if period == 1:
        for _ in range(3):
            a, _, _ = rand_hermite(ctx, 4, rng)
            cases += [a, a.shift(-1)]
    else:
        # w (+) (1 + p) w for w multiplying by a generator lift of the degree-2
        # ring: conjugate eigenvalue pairs at digit 0 that split at digit 1
        block = _multiplication_block(ctx, 2)
        d = [[0] * 4 for _ in range(4)]
        for i in range(2):
            d[i][:2] = block[i]
            d[i + 2][2:] = [(1 + ctx.p) * e for e in block[i]]
        for _ in range(3):
            cases.append(conjugate(rand_gl(ctx, 4, rng), UMatrix.from_residues(d, ctx)))
    for a in cases:
        got = operator_spectrum(a, period)
        expected = operator_spectrum_oracle(a, period)
        assert len(got) == len(expected) == 4  # the tree branches below its first level
        for (lam, proj), (mu, pi) in zip(got, expected):
            assert lam == mu
            assert proj.congruent(pi)


# -- the residue pipeline against the object-level route ----------------------------


def _hermite_operator(ctx: PrecisionContext, n: int, period: int, rng: random.Random) -> UMatrix:
    """U diag U^-1 (period 1) or U (a_i + b_i W) U^-1 (period 2) over Z/p^m."""
    if period == 1:
        return rand_hermite(ctx, n, rng)[0]
    q = ctx.modulus
    w = _multiplication_block(ctx, 2)
    d = [[0] * n for _ in range(n)]
    for i in range(0, n - 1, 2):
        x, y = rng.randrange(q), rng.randrange(q)
        for r in range(2):
            for c in range(2):
                d[i + r][i + c] = (x * (r == c) + y * w[r][c]) % q
    if n % 2:
        d[n - 1][n - 1] = rng.randrange(q)
    return conjugate(rand_gl(ctx, n, rng), UMatrix.from_residues(d, ctx))


@st.composite
def spectral_problems(draw):
    """A Hermite operator over Z_p or with degree-2 blocks, or one of the edge inputs.

    period 1 draws U diag U^-1; period 2 draws U (a_i + b_i W) U^-1 for
    blocks W of multiplication by a degree-2 Teichmuller lift (with one
    1 x 1 block at odd n).  The shape then shifts the valuation below 0
    or to m or m + 1, promotes to the degree-2 ring, takes the zero
    matrix, or replaces the operator by random residues (not fixed by
    sigma^N).
    """
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=8))
    period = draw(st.sampled_from([1, 2]))
    shape = draw(st.sampled_from(["plain", "negative", "deep", "promoted", "zero", "unfixed"]))
    ctx = PrecisionContext(p, m)
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    q = ctx.modulus
    a = _hermite_operator(ctx, n, period, rng)
    if shape == "negative" and a.valuation != INFINITE:
        a = a.shift(-1 - int(a.valuation))
    elif shape == "deep" and a.valuation != INFINITE:  # valuation m or m + 1
        a = a.shift(m + rng.randrange(2) - int(a.valuation))
    elif shape == "promoted":
        a = a.promote(ext_ring(p, 2, m))
    elif shape == "zero":
        a = UMatrix.zeros(n, ctx)
    elif shape == "unfixed":
        a = UMatrix.from_residues([[rng.randrange(q) for _ in range(n)] for _ in range(n)], ctx)
    return a, period


def _outcome(resolve, *args):
    """resolve(*args), or the type and text of its refusal as a tuple."""
    try:
        return resolve(*args)
    except (ValueError, NotHermiteError) as exc:
        return type(exc), str(exc)


def _with_residues(pairs):
    """(scalar, projector residues) pairs of a resolution, or its refusal."""
    if isinstance(pairs, tuple) and isinstance(pairs[0], type):
        return pairs
    return [(lam, proj.residues()) for lam, proj in pairs]


@settings(max_examples=100, deadline=None)
@given(spectral_problems())
def test_residue_pipeline_matches_the_object_level_route(problem):
    """teichmuller_spectral, operator_spectrum and spectral_measure against the oracles.

    Equal eigenvalue scalars, projector residues and node addresses, or
    the same refusal (type and text), on the operator, on its first
    digit, and for the measure at every depth over Z_p.
    """
    a, period = problem
    ctx = a.ctx
    subjects = [a]
    expansion = _outcome(hermite_digits_matrix, a, period)
    if not isinstance(expansion, tuple):
        subjects.append(expansion.digits[0])
    for x in subjects:
        got = _outcome(lambda: teichmuller_spectral(x, period).points)
        assert _with_residues(got) == _with_residues(_outcome(teichmuller_spectral_oracle, x, period))
    got = _with_residues(_outcome(operator_spectrum, a, period))
    assert got == _with_residues(_outcome(operator_spectrum_oracle, a, period))
    if period != 1 or a.ring is not ctx or isinstance(expansion, tuple):
        return
    depth = ctx.m
    measure = spectral_measure(a, depth)
    levels = spectral_tree_oracle(a, 1, depth)
    for j, level in enumerate(levels):
        assert [(addr, proj.residues()) for addr, proj in measure.level(j)] == [
            (addr, proj.residues()) for addr, _, proj in level
        ]
        for addr, center, _ in level:
            window = measure.lead_valuation + ctx.m
            assert (measure.ball_center(addr, ctx) - center).valuation >= window


@st.composite
def tree_problems(draw):
    """An operator for the tree commands at p in {2, 3, 5}, n <= 8, m <= 5.

    planted is U diag U^-1 over at most three Teichmuller expansions,
    so most levels split no node; plain is _hermite_operator's at period
    1 or 2; shifted moves planted's valuation by -1 or +1; nilpotent
    plants p^s E_{0,n-1} as peeling_problems does, a refusal at digit s
    (random residues at n = 1); random is random residues, mostly not
    Hermite; zero is 0.  An integral operator may be promoted to the
    degree-2 ring.
    """
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=8))
    shape = draw(st.sampled_from(["planted", "plain", "shifted", "nilpotent", "random", "zero"]))
    promoted = draw(st.booleans())
    ctx = PrecisionContext(p, m)
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    q = ctx.modulus
    if shape in ("planted", "shifted"):
        classes = [[rng.randrange(p) for _ in range(m)] for _ in range(rng.randint(1, 3))]
        expansion = _teichmuller_expansion([rng.choice(classes) for _ in range(n)], ctx)
        a = conjugate(rand_gl(ctx, n, rng), diag_matrix(ctx, expansion))
        if shape == "shifted" and a.valuation != INFINITE:
            a = a.shift(rng.choice((-1, 1)))
    elif shape == "plain":
        a = _hermite_operator(ctx, n, draw(st.sampled_from([1, 2])), rng)
    elif shape == "nilpotent" and n > 1:
        d = [rng.randrange(q) for _ in range(n)]
        d[-1] = d[0]
        rows = [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
        rows[0][-1] = p ** draw(st.integers(min_value=0, max_value=m - 1))
        a = conjugate(rand_gl(ctx, n, rng), UMatrix.from_residues(rows, ctx))
    elif shape == "zero":
        a = UMatrix.zeros(n, ctx)
    else:
        a = UMatrix.from_residues([[rng.randrange(q) for _ in range(n)] for _ in range(n)], ctx)
    if promoted and a.is_integral:
        a = a.promote(ext_ring(p, 2, m))
    return a


def _tree_outcome(command, *args):
    """command(*args), or the type, text and stage (None but for NotHermiteError) of its refusal."""
    try:
        return command(*args)
    except (ValueError, NotHermiteError) as exc:
        return type(exc), str(exc), getattr(exc, "stage", None)


@settings(max_examples=100, deadline=None)
@given(tree_problems())
def test_tree_commands_match_the_oracles_at_every_depth(a):
    """The peel that reads digits off the tree, against the object-level route.

    Over Z_p, spectral_measure at every depth 1..m gives the node
    addresses and node residues of spectral_tree_oracle, or the refusal
    (type, text and stage) of hermite_rows_oracle.  operator_spectrum at
    N = 1 and 2, on base and degree-2 operators, gives the eigenvalues
    and projector residues of operator_spectrum_oracle, or its refusal.
    """
    ctx = a.ctx
    if a.ring is ctx:
        peeled = _tree_outcome(hermite_rows_oracle, a, 1)
        levels = None if peeled[0] is NotHermiteError else spectral_tree_oracle(a, 1, ctx.m)
        for depth in range(1, ctx.m + 1):
            measure = _tree_outcome(spectral_measure, a, depth)
            if levels is None:
                assert measure == peeled
                continue
            assert [(addr, node.residues()) for addr, node in measure.nodes] == [
                (addr, proj.residues()) for level in levels[:depth] for addr, _, proj in level
            ]
    for period in (1, 2):
        got = _with_residues(_tree_outcome(operator_spectrum, a, period))
        assert got == _with_residues(_tree_outcome(operator_spectrum_oracle, a, period)), period


def _pair_rows(node: UMatrix) -> tuple:
    return tuple(tuple((e.valuation, e.unit) for e in row) for row in node.rows)


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    n=st.integers(1, 8),
    m=st.integers(1, 5),
    spread=st.integers(1, 3),
    plants=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example(p=3, n=8, m=4, spread=2, plants=6, seed=0)
@example(p=2, n=6, m=5, spread=3, plants=6, seed=1)
def test_measure_and_integral_match_the_object_level_oracle(p, n, m, spread, plants, seed):
    """Every measure node, center and integral matrix equals the object-level oracle's, pair by pair.

    The operator is U diag U^-1 with diagonal entries below p^spread,
    so eigenvalues repeat and the tree branches below level 0.  At every
    depth, each node's full (valuation, unit) pairs, each ball center
    and both spectral_integral matrices equal spectral_measure_oracle's
    (wrapped projectors, parent * projector through padic_dot_oracle)
    and spectral_integral_oracle's (object sums).  Then the node product
    is taken on copies of each deepest node's parent rows and its own
    columns where plant_cancellations makes some products cancel, to a
    random depth or past the window: padic._dot_units, which forms every
    node, equals padic_dot_oracle there too.
    """
    ctx = PrecisionContext(p, m)
    rng = random.Random(seed)
    a, _, _ = rand_hermite(ctx, n, rng, [rng.randrange(p ** min(spread, m)) for _ in range(n)])
    levels = spectral_measure_oracle(a, m)
    for depth in range(1, m + 1):
        measure = spectral_measure(a, depth)
        want = [(addr, center, node) for level in levels[:depth] for addr, center, node in level]
        assert measure.node_rows == tuple((addr, _pair_rows(node)) for addr, _, node in want)
        assert [measure.ball_center(addr, ctx) for addr, _ in measure.node_rows] == [c for _, c, _ in want]
        assert spectral_integral(measure) == spectral_integral_oracle(levels[depth - 1])
    parents = {addr: node for addr, _, node in levels[-2]} if m > 1 else {}
    for addr, _, node in levels[-1] if parents else ():
        rows = [list(row) for row in parents[addr[:-1]].rows]
        cols = [list(col) for col in zip(*node.rows)]
        plant_cancellations(rows, cols, plants, rng)
        for row in rows:
            for col in cols:
                got = padic._dot_units(ctx, map(padic._units, row), map(padic._units, col))
                assert got == padic._units(padic_dot_oracle(row, col))


@st.composite
def peeling_problems(draw):
    """An operator for the digit peeling, over Z_p or the degree-2 ring, and its period.

    plain is _hermite_operator's; planted adds p^s E_{0,n-1} inside
    U diag U^-1 with equal first and last diagonal entries, a nilpotent
    residue in the tail of digit s; shifted moves plain's valuation by
    -1 or +1; unfixed is random residues; zero is 0.  An integral
    operator may be promoted to the degree-2 ring.
    """
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=5))
    period = draw(st.sampled_from([1, 2]))
    shape = draw(st.sampled_from(["plain", "planted", "shifted", "unfixed", "zero"]))
    promoted = draw(st.booleans())
    ctx = PrecisionContext(p, m)
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    q = ctx.modulus
    if shape == "planted" and n > 1:
        d = [rng.randrange(q) for _ in range(n)]
        d[-1] = d[0]
        rows = [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
        rows[0][-1] = p ** draw(st.integers(min_value=0, max_value=m - 1))
        a = conjugate(rand_gl(ctx, n, rng), UMatrix.from_residues(rows, ctx))
    elif shape == "unfixed":
        a = UMatrix.from_residues([[rng.randrange(q) for _ in range(n)] for _ in range(n)], ctx)
    elif shape == "zero":
        a = UMatrix.zeros(n, ctx)
    else:
        a = _hermite_operator(ctx, n, period, rng)
        if shape == "shifted" and a.valuation != INFINITE:
            a = a.shift(rng.choice((-1, 1)))
    if promoted and a.is_integral:
        a = a.promote(ext_ring(p, 2, m))
    return a, period


def _peeling(peel, *args):
    """(lead valuation, digit rows) from a peeling, or ("refused", stage, reason)."""
    try:
        return peel(*args)
    except NotHermiteError as exc:
        return "refused", exc.stage, exc.reason


@settings(max_examples=150, deadline=None)
@given(peeling_problems())
def test_hermite_rows_match_the_fixed_precision_peeling(problem):
    """_hermite_rows at every depth 1..m against hermite_rows_oracle, every stage at 2m digits.

    Equal lead valuations and digits 0..depth-1, or the same refusal:
    equal NotHermiteError stage and reason.
    """
    a, period = problem
    expected = _peeling(hermite_rows_oracle, a, period)
    for depth in range(1, a.ctx.m + 1):
        got = _peeling(spectral._hermite_rows, a, period, depth)
        if expected[0] == "refused":
            assert got == expected
        else:
            assert got == (expected[0], expected[1][:depth])


@pytest.mark.parametrize("m", [1, 2, 3])
def test_hermite_schedules_agree_on_unipotent_jordan_blocks(m):
    """I + N for the n x n Jordan shift N at p = 2: both schedules refuse N at digit 1.

    The sigma limit of I + N is I, so its tail N is the nilpotent
    residue at digit 1, whatever the precision.  The sizes sit on both
    sides of the powers of 2 where the sigma phase needs one step more;
    n = 33 and 64 take all pre_period_bound(2, 1, n) = 6 sigma steps.
    """
    ctx = PrecisionContext(2, m)
    for n in (16, 17, 32, 33, 64):
        a = UMatrix.from_ints([[int(j in (i, i + 1)) for j in range(n)] for i in range(n)], ctx)
        refusal = ("refused", 1, "nilpotent residue at digit 1")
        assert _peeling(hermite_rows_oracle, a, 1) == refusal, n
        assert _peeling(hermite_digits_matrix, a, 1) == refusal, n


def test_measure_and_integral_lift_no_point_twice(monkeypatch):
    """The ball centers, the tree certificate and the integral read the tree's lifts.

    Every lift (spectral._teichmuller_residue) comes from a level of the
    tree (its resolution or its pass-through), one per point, and every
    point of a level indexes at least one of its nodes.
    """
    calls = []
    lift = spectral._teichmuller_residue

    def counted(index, ops):
        calls.append(index)
        return lift(index, ops)

    monkeypatch.setattr(spectral, "_teichmuller_residue", counted)
    a = _branching_operator()
    ctx = a.ctx
    measure = spectral_measure(a, ctx.m)
    points = sum(len({addr[-1] for addr, _ in measure.level(j)}) for j in range(ctx.m))
    assert len(calls) == points == 4  # indices 0, 1 at level 0 and at level 1
    for addr, _ in measure.nodes:
        measure.ball_center(addr, ctx)
    spectral_integral(measure)
    assert len(calls) == points


# -- Jordan decomposition ----------------------------------------------------------------


def test_jordan_unipotent_example():
    a = UMatrix.from_ints([[1, 1], [0, 1]], CTX)
    pair = jordan_decompose(a, 4)
    assert pair.semisimple.congruent(UMatrix.identity(2, CTX))
    assert residues_of(pair.nilpotent) == [[0, 1], [0, 0]]
    assert pair.period == 1
    assert pair.steps_to_kill == 1
    assert (pair.semisimple + pair.nilpotent).congruent(a)


def test_jordan_of_teichmuller_element():
    rng = random.Random(23)
    x = conjugate(rand_gl(CTX, 3, rng), diag_matrix(CTX, rand_teich_diag(CTX, 3, rng)))
    pair = jordan_decompose(x, 4)
    assert pair.semisimple.congruent(x)
    assert pair.nilpotent.is_zero_mod_precision()


def test_jordan_of_strictly_upper_triangular():
    a = UMatrix.from_ints([[0, 2, 1], [0, 0, 5], [0, 0, 0]], CTX)
    pair = jordan_decompose(a, 4)
    assert pair.semisimple.is_zero_mod_precision()
    assert pair.nilpotent.congruent(a)


def test_jordan_splits_exactly_and_survives_perturbation():
    rng = random.Random(24)
    ctx = PrecisionContext(3, 4)
    for _ in range(10):
        a = UMatrix.from_residues(
            [[rng.randrange(ctx.modulus) for _ in range(3)] for _ in range(3)], ctx
        )
        if a.valuation != 0:
            continue
        pair = jordan_decompose(a, 6)
        assert (pair.semisimple + pair.nilpotent).congruent(a)
        assert pair.semisimple.sigma_window(pair.period).congruent(pair.semisimple)
        # recomputing from a commuting p-perturbation of the lift gives the same part
        noise = rand_poly_in(a, rng).scale(PadicScalar.from_int(ctx.p, ctx))
        again = jordan_decompose(pair.semisimple + noise, 6)
        assert again.semisimple.congruent(pair.semisimple)


def test_jordan_period_two_rotation():
    rot = UMatrix.from_ints([[0, 1], [-1, 0]], CTX)
    pair = jordan_decompose(rot, 4)
    assert pair.period == 2
    assert pair.semisimple.congruent(rot)


def test_jordan_period_exceeded():
    rot = UMatrix.from_ints([[0, 1], [-1, 0]], CTX)
    with pytest.raises(PeriodExceededError):
        jordan_decompose(rot, 1)


def test_jordan_rejects_norm_above_one():
    bad = UMatrix.identity(2, CTX).scale(scalar_from_rational(1, 3, CTX))
    with pytest.raises(ValueError):
        jordan_decompose(bad)


def test_jordan_and_lift_over_extension_ring():
    from padicspec import ext_ring, lift_idempotent

    ring = ext_ring(3, 2, 3)
    x = ring.element((0, 1))  # sigma^2-fixed: X^9 = X mod X^2 + 1
    a = UMatrix.from_scalars([[x, ring.zero()], [ring.zero(), ring.one()]])
    pair = jordan_decompose(a, 4)
    assert pair.period == 2
    assert pair.semisimple.congruent(a)
    assert pair.nilpotent.is_zero_mod_precision()
    proj = UMatrix.from_scalars([[ring.one(), ring.zero()], [ring.zero(), ring.zero()]])
    assert lift_idempotent(proj).congruent(proj)


def companion_of_x_n_minus(n: int, constant: int, ctx: PrecisionContext) -> UMatrix:
    rows = [[1 if i == j + 1 else 0 for j in range(n)] for i in range(n)]
    rows[0][n - 1] = constant
    return UMatrix.from_ints(rows, ctx)


def nilpotent_jordan_block(n: int, ctx: PrecisionContext) -> UMatrix:
    return UMatrix.from_ints([[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)], ctx)


@pytest.mark.parametrize(
    "shape,n,p,m",
    [("companion", 64, 2, m) for m in (1, 2, 3)]
    + [("block", n, p, m) for n in (2, 17, 33, 64) for p in (2, 3) for m in (1, 2, 3)],
)
def test_jordan_kill_count_is_the_classify_step(shape, n, p, m):
    """A nilpotent matrix's kill count is the step at which classify sees it reach 0.

    The p = 2, n = 64 cases outrun m * 1 + 4, the precision part of the
    scan budget at period bound 1: the companion of x^64 - 2 dies at
    step m + 5 for every m <= 3 (its 64th power is 2), the Jordan block
    at step 6.  Both stay within the pre-period bound m + floor(log2(64 m - 1)).
    """
    ctx = PrecisionContext(p, m)
    if shape == "companion":
        a = companion_of_x_n_minus(n, 2, ctx)
    else:
        a = nilpotent_jordan_block(n, ctx)
    report = classify_orbit(a, 1)
    assert report.kind is OrbitKind.TOP_NILPOTENT
    for bound in (1, 8):
        pair = jordan_decompose(a, bound)
        assert pair.period == 1
        assert pair.steps_to_kill == report.steps
        assert pair.semisimple.is_zero_mod_precision()
        assert pair.nilpotent.congruent(a)
    assert report.budget == documented_scan_budget(p, m, n, 1)
    if shape == "companion":
        assert report.steps == m + 5


def test_jordan_kill_bound_covers_every_n():
    """diag(1, J_65) at p = 2, m = 1: J_65 dies at step 7, the least k with 2^k >= 65."""
    ctx = PrecisionContext(2, 1)
    rows = [[1 if j == i + 1 else 0 for j in range(66)] for i in range(66)]
    rows[0][1] = 0
    nilpotent = [row[:] for row in rows]
    rows[0][0] = 1
    pair = jordan_decompose(UMatrix.from_ints(rows, ctx))
    assert (pair.period, pair.steps_to_kill) == (1, 7)
    assert residues_of(pair.nilpotent) == nilpotent
    assert residues_of(pair.semisimple) == [[int(i == j == 0) for j in range(66)] for i in range(66)]


def documented_scan_budget(p: int, m: int, size: int, bound: int) -> int:
    """max(m * bound + 4, P) + bound with P = m + floor(log_p(size * m - 1)), size = n * deg."""
    e = size * m
    pre_period = m + max((j for j in range(e) if p**j <= e - 1), default=0)
    return max(m * bound + 4, pre_period) + bound


def _sigma_window_walk(x: UMatrix, bound: int) -> OrbitReport:
    """The orbit report of x read off its own sigma_window iterates."""
    degree = x.ring.ops.degree
    budget = documented_scan_budget(x.ctx.p, x.ctx.m, x.n * degree, bound)
    seen, states, cur = {}, [], x
    for k in range(budget + 1):
        if cur.is_zero_mod_precision():
            return OrbitReport(OrbitKind.TOP_NILPOTENT, steps=k, budget=budget)
        first = seen.get(cur.residue_key())
        if first is not None:
            if k - first > bound:
                return OrbitReport(OrbitKind.CHAOS_AT_PRECISION, steps=k, budget=budget)
            if first == 0:
                return OrbitReport(OrbitKind.PERIODIC, k - first, k, budget=budget)
            return OrbitReport(OrbitKind.QUASI_PERIODIC, k - first, k, states[first], budget)
        seen[cur.residue_key()] = k
        states.append(cur)
        cur = cur.sigma_window()
    return OrbitReport(OrbitKind.CHAOS_AT_PRECISION, steps=budget, budget=budget)


def test_classify_matrix_matches_the_sigma_window_walk():
    """Stepping residue rows gives the report, limit included, of stepping the matrix."""
    rot = UMatrix.from_ints([[0, 1], [-1, 0]], CTX)
    unipotent = UMatrix.identity(8, CTX) + nilpotent_jordan_block(8, CTX)
    ring = ext_ring(3, 2, 3)
    x = ring.element((0, 1))
    ext = UMatrix.from_scalars([[x, ring.one()], [ring.zero(), ring.one()]])
    cases = [
        (nilpotent_jordan_block(9, CTX), 2),
        (companion_of_x_n_minus(64, 2, PrecisionContext(2, 2)), 1),
        (rot, 2),
        (rot, 1),
        (unipotent, 1),
        (UMatrix.from_ints([[1, 1], [0, 1]], CTX), 2),
        (nilpotent_jordan_block(65, PrecisionContext(2, 1)), 1),
        (ext, 1),
        (ext, 2),
    ]
    kinds = set()
    for a, bound in cases:
        report = classify_orbit(a, bound)
        assert report == _sigma_window_walk(a, bound)
        kinds.add(report.kind)
    assert kinds == set(OrbitKind)


@st.composite
def planted_jordan(draw):
    """U (S + T) U^-1: S a period-N Teichmuller block beside Teichmuller scalars, T nilpotent."""
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(min_value=1, max_value=4))
    period = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=period, max_value=6))
    ctx = PrecisionContext(p, m)
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(teichmuller_companion(p, period, m)):
        rows[i][:period] = row
    for i in range(period, n):
        rows[i][i] = teichmuller_lift(rng.randrange(p), ctx).residue()
    scale = p ** draw(st.integers(min_value=0, max_value=m))
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = (rows[i][j] + scale * rng.randrange(ctx.modulus)) % ctx.modulus
    a = conjugate(rand_gl(ctx, n, rng), UMatrix.from_residues(rows, ctx))
    return a, draw(st.integers(min_value=1, max_value=4))


@settings(max_examples=120, deadline=None)
@given(planted_jordan())
def test_jordan_matches_the_scan_oracle(problem):
    a, bound = problem
    ctx = a.ctx
    expected = jordan_scan_oracle(residues_of(a), ctx.p, ctx.m, bound)
    try:
        pair = jordan_decompose(a, bound)
    except PeriodExceededError:
        pair = None
    if expected is not None:
        semisimple, nilpotent, period, steps = expected
        assert pair is not None
        assert residues_of(pair.semisimple) == semisimple
        assert residues_of(pair.nilpotent) == nilpotent
        assert (pair.period, pair.steps_to_kill) == (period, steps)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_engine_at_minimal_precision(p):
    """Everything degrades gracefully to one digit (m = 1)."""
    ctx = PrecisionContext(p, 1)
    a = diag_matrix(ctx, [1, p - 1] if p > 2 else [1, 0])
    expansion = hermite_digits_matrix(a, 1)
    assert len(expansion.digits) == 1
    measure = spectral_measure(a, 1)
    identity_check, reconstruction = spectral_integral(measure)
    assert identity_check.congruent(UMatrix.identity(2, ctx))
    assert (reconstruction - a).valuation >= 1
    pair = jordan_decompose(a, 2)
    assert (pair.semisimple + pair.nilpotent).congruent(a)


# -- diameter and the commutator bound ------------------------------------------------------


def test_diameter_of_scalar_operator_is_zero():
    ctx = PrecisionContext(5, 3)
    lam = teichmuller_lift(2, ctx)
    report = spectrum_diameter(UMatrix.identity(3, ctx).scale(lam))
    assert report.diameter == 0.0
    assert report.diameter_valuation == INFINITE


def test_diameter_examples():
    assert spectrum_diameter(diag_matrix(CTX, [1, 4])).diameter == pytest.approx(1 / 3)
    minus_one = CTX.modulus - 1
    assert spectrum_diameter(diag_matrix(CTX, [1, minus_one])).diameter == 1.0


def test_diameter_of_period_two_operator():
    rot = UMatrix.from_ints([[0, 1], [-1, 0]], CTX)
    report = spectrum_diameter(rot, period=2)
    assert report.diameter == 1.0  # |i - (-i)| = |2i| = 1 at p = 3
    assert len(report.spectrum) == 2


def test_diameter_operator_norm_cross_check():
    rng = random.Random(25)
    ctx = PrecisionContext(3, 4)
    for _ in range(10):
        a, _, _ = rand_hermite(ctx, 3, rng)
        report = spectrum_diameter(a)
        assert report.operator_norm == a.norm


def _rand_ext_scalar(ring, rng, zero_frac=0.2):
    if rng.random() < zero_frac:
        return ring.zero()
    scale = ring.ctx.p ** rng.randrange(ring.ctx.m)
    return ring.element([rng.randrange(ring.ctx.modulus) * scale for _ in range(ring.degree)])


@settings(max_examples=80, deadline=None)
@given(
    shape=st.sampled_from(["base", "promoted", "extension"]),
    p=st.sampled_from([2, 3, 5]),
    m=st.integers(1, 4),
    n=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(shape="diag(3, 27)", p=3, m=2, n=2, seed=0)
def test_translation_valuations_match_the_full_difference(shape, p, m, n, seed):
    """Base matrices over Z_p, base matrices promoted to a period-2 ring, and matrices over it.

    The points include the diagonal entries themselves (total
    cancellation on the diagonal) and zero; diag(3, 27) at p = 3, m = 2
    is checked against its own period-2 spectrum points.
    """
    rng = random.Random(seed)
    ctx = PrecisionContext(p, m)
    if shape == "diag(3, 27)":
        a = UMatrix.from_ints([[3, 0], [0, 27]], ctx)
        points = operator_spectrum(a, period=2)
        ring = points[0][1].ring
        lams = [lam for lam, _ in points]
    elif shape == "base":
        a = UMatrix.from_scalars(
            [[rand_padic_scalar(ctx, rng, 0.3, -2) for _ in range(n)] for _ in range(n)]
        )
        ring = ctx
        lams = [rand_padic_scalar(ctx, rng, 0.2, -2) for _ in range(3)]
        lams += [a.entry(i, i) for i in range(n)] + [PadicScalar.zero(ctx)]
    else:
        ring = ext_ring(p, 2, m)
        if shape == "promoted":
            a = UMatrix.from_scalars(
                [[rand_padic_scalar(ctx, rng, 0.3, 0) for _ in range(n)] for _ in range(n)]
            )
        else:
            a = UMatrix.from_scalars([[_rand_ext_scalar(ring, rng) for _ in range(n)] for _ in range(n)])
        lams = [_rand_ext_scalar(ring, rng) for _ in range(3)]
        lams += [a.promote(ring).entry(i, i) for i in range(n)] + [ring.zero()]
    expected = [translation_valuation_oracle(a, lam, ring) for lam in lams]
    assert _translation_valuations(a, ring, lams) == expected


@pytest.mark.parametrize("spread", [True, False], ids=["diameter", "singleton"])
def test_spectrum_diameter_checks_the_translation_law(spread):
    """A translation A - mu by a spectrum point whose norm breaks the law is an internal defect.

    diag(1, 2) at p = 3 has diameter 1, so a claimed diameter valuation
    of 1 contradicts both of its translations.  The identity has the
    singleton spectrum {1}; the point 2 in its place leaves A - 2 of
    norm 1, not 0 at the resolved precision.
    """
    if spread:
        a = diag_matrix(CTX, [1, 2])
        ring, lams, _ = spectral._spectrum(a, 1)
        spectral._check_translations(a, ring, lams, 0)
        with pytest.raises(RuntimeError, match="translation by a spectrum point changed the norm"):
            spectral._check_translations(a, ring, lams, 1)
    else:
        a = UMatrix.identity(2, CTX)
        spectral._check_translations(a, CTX, [PadicScalar.one(CTX)], INFINITE)
        with pytest.raises(RuntimeError, match="translation law failed for a singleton spectrum"):
            spectral._check_translations(a, CTX, [PadicScalar.from_int(2, CTX)], INFINITE)


def test_uncertainty_worked_example():
    a = diag_matrix(CTX, [1, CTX.modulus - 1])
    b = UMatrix.from_ints([[0, 1], [1, 0]], CTX)
    psi = (PadicScalar.one(CTX), PadicScalar.zero(CTX))
    report = uncertainty_check(a, b, psi)
    assert report.lhs_norm == 1.0
    assert report.rhs_norm == 1.0
    assert report.holds


def test_uncertainty_commuting_operators():
    rng = random.Random(26)
    ctx = PrecisionContext(3, 3)
    u = rand_gl(ctx, 3, rng)
    a = conjugate(u, diag_matrix(ctx, [1, 4, 7]))
    b = conjugate(u, diag_matrix(ctx, [2, 5, 8]))
    psi = (PadicScalar.one(ctx), PadicScalar.zero(ctx), PadicScalar.zero(ctx))
    report = uncertainty_check(a, b, psi)
    assert report.lhs_norm == 0.0
    assert report.holds


def test_uncertainty_scalar_operator_zero_rhs():
    ctx = PrecisionContext(5, 2)
    a = UMatrix.identity(2, ctx).scale(teichmuller_lift(3, ctx))
    b = diag_matrix(ctx, [1, 7])
    psi = (PadicScalar.one(ctx), PadicScalar.zero(ctx))
    report = uncertainty_check(a, b, psi)
    assert report.rhs_norm == 0.0
    assert report.lhs_norm == 0.0
    assert report.holds


def test_uncertainty_rejects_unnormalised_vector():
    a = diag_matrix(CTX, [1, 4])
    psi = (PadicScalar.from_int(3, CTX), PadicScalar.from_int(9, CTX))
    with pytest.raises(ValueError):
        uncertainty_check(a, a, psi)


def test_uncertainty_propagates_not_hermite():
    bad = UMatrix.from_ints([[1, 1], [0, 1]], CTX)
    psi = (PadicScalar.one(CTX), PadicScalar.zero(CTX))
    with pytest.raises(NotHermiteError):
        uncertainty_check(bad, bad, psi)


_PSI = (PadicScalar.one(CTX), PadicScalar.zero(CTX))
_PERIOD_ENTRY_POINTS = {
    "spectral": teichmuller_spectral,
    "hermite": hermite_digits_matrix,
    "spectrum": operator_spectrum,
    "diam": spectrum_diameter,
    "uncertainty": lambda a, period: uncertainty_check(a, a, _PSI, period),
    "uncertainties": lambda a, period: uncertainty_checks(a, a, [_PSI], period),
    "jordan": jordan_decompose,
    "classify": classify_orbit,
}


@pytest.mark.parametrize("period", [0, -1])
@pytest.mark.parametrize("entry", list(_PERIOD_ENTRY_POINTS))
def test_every_spectral_entry_point_refuses_a_period_below_one(entry, period):
    """A sigma period (or period bound) below 1 is refused with ValueError before any work."""
    a = diag_matrix(CTX, [1, 2])
    with pytest.raises(ValueError, match=r"period(_bound)? must be >= 1"):
        _PERIOD_ENTRY_POINTS[entry](a, period)


@pytest.mark.parametrize("p,degree", [(3, 2), (2, 3)])
def test_hermite_digits_of_extension_operator_with_positive_valuation(p, degree):
    """Peeling p * h factors out one power of p and keeps the digits of h.

    p * h mod p^m knows h only mod p^(m-1), and a sigma-limit mod p^k
    depends only on its input mod p^k, so digit i agrees with digit i of
    h mod p^(m-1-i).
    """
    ctx = PrecisionContext(p, 4)
    ring = ext_ring(p, degree, ctx.m)
    rng = random.Random(10 * p + degree)
    q = ctx.modulus
    entries = [ring.one()] + [
        ring.element([rng.randrange(q) for _ in range(degree)]) for _ in range(2)
    ]
    zero = ring.zero()
    d = UMatrix.from_scalars([[entries[i] if i == j else zero for j in range(3)] for i in range(3)])
    h = conjugate(_rand_ext_gl(ring, 3, rng), d)
    assert h.valuation == 0
    expansion = hermite_digits_matrix(h, degree)
    scaled = h.scale(ring.embed(p))
    peeled = hermite_digits_matrix(scaled, degree)
    assert peeled.lead_valuation == 1
    for i in range(ctx.m - 1):
        window = p ** (ctx.m - 1 - i)
        got, want = (
            [[tuple(c % window for c in e) for e in row] for row in dig.residues()]
            for dig in (peeled.digits[i], expansion.digits[i])
        )
        assert got == want, i
    assert peeled.reassemble().congruent(scaled)
    assert expansion.reassemble().congruent(h)


@pytest.mark.parametrize("degree", [1, 2], ids=["base", "extension"])
def test_record_views_wrap_the_certified_residues(degree):
    """points and digits, built when read, are the residues the records keep, and the oracles' answers."""
    ctx = PrecisionContext(3, 4)
    rng = random.Random(27)
    x, _, _ = rand_hermite(ctx, 3, rng, diag=rand_teich_diag(ctx, 3, rng))
    h, _, _ = rand_hermite(ctx, 3, rng)
    if degree == 2:
        x, h = x.promote(ext_ring(3, 2, 4)), h.promote(ext_ring(3, 2, 4))
    dec = teichmuller_spectral(x, degree)
    assert dec.ring == x.ring
    assert [(lam.residue_key(), proj.residues()) for lam, proj in dec.points] == list(dec.point_residues)
    assert dec.eigenvalues == tuple(lam for lam, _ in dec.points)
    assert dec.projectors == tuple(proj for _, proj in dec.points)
    got = sorted((lam.residue_key(), proj.residues()) for lam, proj in dec.points)
    want = sorted((lam.residue_key(), proj.residues()) for lam, proj in teichmuller_spectral_oracle(x, degree))
    assert got == want
    expansion = hermite_digits_matrix(h, degree)
    assert expansion.ring == h.ring and expansion.ctx == ctx
    assert [d.residues() for d in expansion.digits] == list(expansion.digit_rows)
    assert (expansion.lead_valuation, expansion.digit_rows) == hermite_rows_oracle(h, degree)
    assert expansion.reassemble().congruent(h)
