"""Acceptance criteria, each printed as one pass/fail line with its timing.

Everything here is exact: identities are checked mod p^m with no floating
tolerances, and the stated wall-clock budgets are asserted.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager

import pytest

from helpers import (
    conjugate,
    diag_matrix,
    int_matpow,
    int_matvec,
    rand_gl,
    rand_hermite,
    rand_poly_in,
    rand_teich_diag,
    residues_of,
    sigma_limit_oracle,
)
from padicspec import (
    INFINITE,
    MahlerVector,
    NotHermiteError,
    PadicScalar,
    PrecisionContext,
    TateVector,
    UMatrix,
    certify_orthogonal_projection,
    commutator_defect,
    enumerate_teichmuller,
    euler_operator,
    hermite_digits_matrix,
    interior_basis,
    jordan_decompose,
    kochubei_lower,
    kochubei_raise,
    kochubei_shift,
    lift_idempotent,
    number_operator,
    sample_unit_vector,
    sigma_fixed_points,
    spectral_integral,
    spectral_measure,
    spectrum_diameter,
    tate_derivative,
    tate_raise,
    teichmuller_lift,
    teichmuller_spectral,
    uncertainty_check,
    vector_valuation,
)
from padicspec import spectral


@contextmanager
def criterion(name: str, limit_seconds: float):
    start = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - start
        verdict = "FAIL" if failed else "PASS"
        print(f"[{verdict}] {name}: {elapsed:.2f}s (limit {limit_seconds:.0f}s)")
        if not failed:
            assert elapsed < limit_seconds, f"{name} exceeded its {limit_seconds}s budget"


def test_teichmuller_census():
    """Exactly p fixed points of x -> x^p in Z/p^m for p in {2,3,5}, m <= 4."""
    with criterion("teichmuller-census", 1.0):
        for p in (2, 3, 5):
            for m in range(1, 5):
                q = p**m
                fixed = [r for r in range(q) if pow(r, p, q) == r]
                assert len(fixed) == p, (p, m)
                ctx = PrecisionContext(p, m)
                assert sorted(w.residue() for w in (teichmuller_lift(r, ctx) for r in range(p))) == sorted(fixed)


def test_extension_census():
    """p^N period-N points, and containment exactly along divisibility."""
    with criterion("extension-census", 10.0):
        cases = [(2, n) for n in (1, 2, 3, 4)] + [(3, n) for n in (1, 2, 3)] + [(5, n) for n in (1, 2)]
        for p, n in cases:
            for m in range(1, 4):
                points = enumerate_teichmuller(p, n, m)
                assert len(points) == p**n, (p, n, m)
                keys = {w.vector() for w in points}
                assert len(keys) == p**n
                for w in points:
                    assert w.sigma_window(n).vector() == w.vector()
        pair_sets = {2: [(1, 2), (1, 3), (2, 4), (2, 3), (3, 6), (2, 6), (4, 6), (3, 4)],
                     3: [(1, 2), (2, 6), (3, 6), (2, 3)],
                     5: [(1, 2), (2, 1)]}
        for p, pairs in pair_sets.items():
            for n, n_star in pairs:
                degree = math.lcm(n, n_star)
                small = {w.vector() for w in sigma_fixed_points(p, degree, n, 2)}
                large = {w.vector() for w in sigma_fixed_points(p, degree, n_star, 2)}
                assert (small <= large) == (n_star % n == 0), (p, n, n_star)


def test_spectral_soundness():
    """All four resolution identities hold exactly on 200 conjugated diagonals."""
    with criterion("spectral-soundness", 30.0):
        rng = random.Random(101)
        primes = (2, 3, 5)
        for trial in range(200):
            p = primes[trial % 3]
            n = rng.randrange(2, 7)
            m = rng.randrange(2, 7)
            ctx = PrecisionContext(p, m)
            x = conjugate(rand_gl(ctx, n, rng), diag_matrix(ctx, rand_teich_diag(ctx, n, rng)))
            decomposition = teichmuller_spectral(x, 1)
            ident = UMatrix.identity(n, ctx)
            total, weighted = None, None
            for lam, proj in decomposition.points:
                assert proj.norm == 1.0
                assert (proj * proj).congruent(proj)
                cert = certify_orthogonal_projection(proj, samples=max(6, n), seed=trial)
                assert cert.valid, cert.failures
                total = proj if total is None else total + proj
                term = proj.scale(lam)
                weighted = term if weighted is None else weighted + term
            assert total.congruent(ident)
            assert weighted.congruent(x)
            points = decomposition.points
            for i in range(len(points)):
                for j in range(len(points)):
                    if i != j:
                        assert (points[i][1] * points[j][1]).is_zero_mod_precision()


def test_measure_reconstruction():
    """Deepest-level sums give the identity; centers rebuild A to p^-d."""
    with criterion("measure-reconstruction", 60.0):
        rng = random.Random(102)
        primes = (2, 3, 5)
        for trial in range(100):
            p = primes[trial % 3]
            n = rng.randrange(2, 5)
            m = rng.randrange(2, 5)
            ctx = PrecisionContext(p, m)
            a = conjugate(
                rand_gl(ctx, n, rng),
                diag_matrix(ctx, [rng.randrange(ctx.modulus) for _ in range(n)]),
            )
            counts = []
            for depth in range(1, m + 1):
                measure = spectral_measure(a, depth)
                identity_check, reconstruction = spectral_integral(measure)
                assert identity_check.congruent(UMatrix.identity(n, ctx))
                assert (reconstruction - a).valuation >= depth
                counts.append(len(measure.level(depth - 1)))
            assert all(c <= n for c in counts)
            assert counts == sorted(counts)


def test_measure_at_dimension_sixteen():
    """The full-depth measure tree of a 16 x 16 Hermite operator at p = 3, m = 8."""
    ctx = PrecisionContext(3, 8)
    a, _, _ = rand_hermite(ctx, 16, random.Random(116))
    with criterion("measure-n16", 2.0):
        measure = spectral_measure(a, 8)
        identity_check, reconstruction = spectral_integral(measure)
        assert identity_check.congruent(UMatrix.identity(16, ctx))
        assert (reconstruction - a).valuation >= 8


def test_hermite_equivalence():
    """Conjugated diagonals are accepted exactly; nilpotent bumps are rejected
    with the failing digit located."""
    with criterion("hermite-equivalence", 30.0):
        rng = random.Random(103)
        primes = (2, 3, 5)
        for trial in range(200):
            p = primes[trial % 3]
            n = rng.randrange(2, 6)
            m = rng.randrange(2, 6)
            ctx = PrecisionContext(p, m)
            a = conjugate(
                rand_gl(ctx, n, rng),
                diag_matrix(ctx, [rng.randrange(ctx.modulus) for _ in range(n)]),
            )
            expansion = hermite_digits_matrix(a, 1)
            assert expansion.reassemble().congruent(a)
            for digit in expansion.digits:
                assert digit.sigma_window().congruent(digit)
        for trial in range(200):
            p = primes[trial % 3]
            n = rng.randrange(2, 6)
            m = rng.randrange(2, 6)
            ctx = PrecisionContext(p, m)
            if trial % 4 == 0:
                # pure nilpotent with a unit entry: rejected at the first digit
                rows = [[0] * n for _ in range(n)]
                rows[0][n - 1] = rng.randrange(1, p)
                bad = conjugate(rand_gl(ctx, n, rng), UMatrix.from_residues(rows, ctx))
                expected_stage = 1
            else:
                stage = rng.randrange(0, m)
                shared = rng.randrange(1, ctx.modulus)
                while shared % p == 0:
                    shared = rng.randrange(1, ctx.modulus)
                # a unit on the repeated block keeps |A| = 1, so digit indices
                # line up with the unshifted expansion
                residues = [shared, shared] + [
                    rng.randrange(ctx.modulus) for _ in range(n - 2)
                ]
                core = diag_matrix(ctx, residues)
                bump = UMatrix.from_scalars(
                    [
                        [
                            PadicScalar(ctx, stage, rng.randrange(1, p))
                            if (i, j) == (0, 1)
                            else PadicScalar.zero(ctx)
                            for j in range(n)
                        ]
                        for i in range(n)
                    ]
                )
                bad = conjugate(rand_gl(ctx, n, rng), core + bump)
                expected_stage = stage + 1
            with pytest.raises(NotHermiteError) as err:
                hermite_digits_matrix(bad, 1)
            assert err.value.stage == expected_stage, (p, n, m, expected_stage)
            assert err.value.defect_norm == 1.0


def test_hermite_at_p211_n16_m16():
    """Digit peeling at p = 211, n = 16, m = 16: one Newton limit per digit.

    About 0.8 s on a 2-vCPU Xeon VM at its fast speed and 2.2 s at its
    slow one; plain sigma iteration took 4.2 s at the fast speed.
    """
    ctx = PrecisionContext(211, 16)
    a, _, _ = rand_hermite(ctx, 16, random.Random(211))
    with criterion("hermite-p211-n16-m16", 3.0):
        expansion = hermite_digits_matrix(a, 1)
        assert expansion.reassemble().congruent(a)


def test_jordan_decomposition():
    """A = A_s + A_n exactly, A_s fixed by sigma^N, A_n dies, and the split
    survives commuting p-perturbations of the lift."""
    with criterion("jordan-decomposition", 30.0):
        rng = random.Random(104)
        primes = (2, 3, 5)
        for trial in range(200):
            p = primes[trial % 3]
            n = rng.randrange(2, 5)
            m = rng.randrange(2, 5)
            ctx = PrecisionContext(p, m)
            while True:
                a = UMatrix.from_residues(
                    [[rng.randrange(ctx.modulus) for _ in range(n)] for _ in range(n)], ctx
                )
                if a.valuation == 0:
                    break
            pair = jordan_decompose(a, 12)
            assert (pair.semisimple + pair.nilpotent).congruent(a)
            assert pair.semisimple.sigma_window(pair.period).congruent(pair.semisimple)
            killed = pair.nilpotent
            for _ in range(pair.steps_to_kill):
                killed = killed.sigma_window()
            assert killed.is_zero_mod_precision()
            noise = rand_poly_in(a, rng).scale(PadicScalar.from_int(p, ctx))
            again = jordan_decompose(pair.semisimple + noise, 12)
            assert again.semisimple.congruent(pair.semisimple)


def test_uncertainty_inequality():
    """|[A,B]psi| <= diam(A) diam(B) across 1000 pairs x 10 unit vectors.

    On the 900 pairs checked without uncertainty_check, the bound for every
    psi at once, |[A,B]| <= diam(A) diam(B) in the window, holds as well.
    """
    with criterion("uncertainty-inequality", 30.0):
        rng = random.Random(105)
        primes = (2, 3, 5)
        violations = 0
        for trial in range(1000):
            p = primes[trial % 3]
            n = rng.randrange(2, 4)
            m = rng.randrange(2, 4)
            ctx = PrecisionContext(p, m)
            diag_a = [rng.randrange(ctx.modulus) for _ in range(n)]
            diag_b = [rng.randrange(ctx.modulus) for _ in range(n)]
            u = rand_gl(ctx, n, rng)
            if trial % 2 == 0:
                a = conjugate(u, diag_matrix(ctx, diag_a))
                b = conjugate(u, diag_matrix(ctx, diag_b))
            else:
                a = conjugate(u, diag_matrix(ctx, diag_a))
                b = conjugate(rand_gl(ctx, n, rng), diag_matrix(ctx, diag_b))
            if trial % 10 == 0:
                psi = sample_unit_vector(ctx, n, rng)
                report = uncertainty_check(a, b, psi)
                if not report.holds:
                    violations += 1
                continue
            da = spectrum_diameter(a)
            db = spectrum_diameter(b)
            commutator = a * b - b * a
            rhs_zero = da.diameter_valuation == INFINITE or db.diameter_valuation == INFINITE
            # the bound for every psi at once: v([A, B]), cut at the window m
            every_psi = commutator.valuation
            if every_psi >= ctx.m:
                every_psi = INFINITE
            assert every_psi >= da.diameter_valuation + db.diameter_valuation, trial
            for _ in range(10):
                psi = sample_unit_vector(ctx, n, rng)
                lhs_val = vector_valuation(commutator.apply(psi))
                if lhs_val >= ctx.m:
                    lhs_val = INFINITE  # beyond the resolved window
                if rhs_zero:
                    ok = lhs_val == INFINITE
                else:
                    ok = lhs_val >= da.diameter_valuation + db.diameter_valuation
                if not ok:
                    violations += 1
        assert violations == 0


def test_ladder_algebra():
    """Exact eigenrelations and vanishing interior commutators at M = 32."""
    with criterion("ladder-algebra", 5.0):
        length = 32
        for p in (2, 3, 5):
            ctx = PrecisionContext(p, 6)
            for n in range(31):
                image = number_operator(MahlerVector.basis(n, length, ctx))
                expected = MahlerVector.basis(n, length, ctx).scale(
                    PadicScalar.from_int(n, ctx)
                )
                assert image == expected
            mahler_interior = interior_basis(MahlerVector, length, ctx)
            assert commutator_defect(kochubei_raise, kochubei_lower, mahler_interior) == 0.0
            assert commutator_defect(kochubei_raise, kochubei_shift, mahler_interior) == 0.0
            tate_interior = interior_basis(TateVector, length, ctx)
            assert commutator_defect(tate_raise, tate_derivative, tate_interior) == 0.0
            for k in range(32):
                image = euler_operator(TateVector.basis(k, length, ctx))
                expected = TateVector.basis(k, length, ctx).scale(PadicScalar.from_int(k, ctx))
                assert image == expected


def test_idempotent_lifting():
    """sigma-fixed exact idempotent lifts, stable across commuting
    representatives, preserving complete orthogonal families."""
    with criterion("idempotent-lifting", 10.0):
        rng = random.Random(106)
        primes = (2, 3, 5)
        for trial in range(200):
            p = primes[trial % 3]
            n = rng.randrange(2, 5)
            m = rng.randrange(2, 5)
            ctx = PrecisionContext(p, m)
            rank = rng.randrange(1, n)
            u = rand_gl(ctx, n, rng)
            core = conjugate(u, diag_matrix(ctx, [1] * rank + [0] * (n - rank)))
            noise_a = rand_poly_in(core, rng).scale(PadicScalar.from_int(p, ctx))
            noise_b = rand_poly_in(core, rng).scale(PadicScalar.from_int(p, ctx))
            rep_a = core + noise_a
            rep_b = core + noise_b
            pi = lift_idempotent(rep_a)
            assert (pi * pi).congruent(pi)
            assert pi.sigma_window().congruent(pi)
            diff = pi - rep_a
            assert diff.valuation >= 1  # congruent to the input mod p
            assert lift_idempotent(rep_b).congruent(pi)
        # complete orthogonal families of commuting idempotents stay complete
        for trial in range(20):
            p = primes[trial % 3]
            ctx = PrecisionContext(p, 3)
            u = rand_gl(ctx, 4, rng)
            masks = [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]
            diag_core = diag_matrix(ctx, [rng.randrange(ctx.modulus) for _ in range(4)])
            reps = []
            for mask in masks:
                core = conjugate(u, diag_matrix(ctx, mask))
                noise = rand_poly_in(conjugate(u, diag_core), rng).scale(
                    PadicScalar.from_int(p, ctx)
                )
                reps.append(core + noise)
            lifted = [lift_idempotent(r) for r in reps]
            total = lifted[0]
            for piece in lifted[1:]:
                total = total + piece
            assert total.congruent(UMatrix.identity(4, ctx))
            for i, x in enumerate(lifted):
                for j, y in enumerate(lifted):
                    if i != j:
                        assert (x * y).is_zero_mod_precision()


def test_oracle_equivalence():
    """Exhaustive 2x2 check over Z/p^2: Lagrange projectors fix exactly the
    brute-force eigenvectors."""
    with criterion("oracle-equivalence", 60.0):
        for p in (2, 3):
            ctx = PrecisionContext(p, 2)
            q = ctx.modulus
            fixed_points = [teichmuller_lift(r, ctx).residue() for r in range(p)]
            vectors = list(itertools.product(range(q), repeat=2))
            checked = 0
            for entries in itertools.product(range(q), repeat=4):
                rows = [list(entries[:2]), list(entries[2:])]
                if int_matpow(rows, p, q) != rows:
                    continue
                x = UMatrix.from_residues(rows, ctx)
                decomposition = teichmuller_spectral(x, 1)
                proj_by_lam = {
                    lam.residue(): residues_of(proj) for lam, proj in decomposition.points
                }
                for v in vectors:
                    image = int_matvec(rows, v, q)
                    for lam in fixed_points:
                        is_eigen = image == [(lam * c) % q for c in v]
                        proj = proj_by_lam.get(lam)
                        projected = int_matvec(proj, v, q) if proj else [0, 0]
                        assert (projected == list(v)) == is_eigen
                checked += 1
            assert checked > p  # at least the scalar fixed points appeared


def test_sigma_limit_matches_oracle_on_acceptance_corpora(monkeypatch):
    """Every sigma limit taken over the hermite-equivalence and
    idempotent-lifting corpora, planted rejections included, equals the
    plain sigma iteration."""
    calls = [0]
    real = spectral._sigma_limit

    def checked(rows, period, ops):
        got = real(rows, period, ops)
        assert got == sigma_limit_oracle(rows, period, ops)
        calls[0] += 1
        return got

    monkeypatch.setattr(spectral, "_sigma_limit", checked)
    test_hermite_equivalence()
    test_idempotent_lifting()
    assert calls[0] > 0
