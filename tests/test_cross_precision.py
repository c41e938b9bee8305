"""One input read at m and at m + delta digits: the answers must agree mod p^m.

Every answer is promised exact mod p^m.  So the same integers below
p^m, read at a higher precision m', must give an answer that reduces to
the one at m, and a verdict that both runs reach on the way must be the
same verdict.  The shapes are drawn here, not imported from the
benchmark corpus, so the property stays independent of it; only the
measure probe at the end reads the benchmark's planted operators, as
the probe that ROADMAP item 1 reports.
"""

import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    conjugate,
    diag_matrix,
    rand_gl,
    rand_hermite,
    residues_of,
    teichmuller_companion,
)
from padicspec import (
    NotHermiteError,
    PrecisionContext,
    UMatrix,
    teichmuller_lift,
    teichmuller_spectral,
)
from padicspec import spectral
from padicspec.cli import run_command

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.corpus import planted_operator  # noqa: E402


def unipotent_rows(n: int) -> list:
    """I + N for the n x n Jordan shift N."""
    return [[int(j in (i, i + 1)) for j in range(n)] for i in range(n)]


@st.composite
def hermite_inputs(draw):
    """(p, m, integer rows below p^m, period) for the digit peeling.

    planted is U diag U^-1 for random U in GL_n(Z/p^m) and a random
    diagonal, Hermite at m (read at m' it is in general not); random is
    uniform residues; unipotent is I + N.
    """
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=5))
    period = draw(st.sampled_from([1, 2]))
    shape = draw(st.sampled_from(["planted", "random", "unipotent"]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    ctx = PrecisionContext(p, m)
    if shape == "planted":
        rows = residues_of(rand_hermite(ctx, n, rng)[0])
    elif shape == "random":
        rows = [[rng.randrange(ctx.modulus) for _ in range(n)] for _ in range(n)]
    else:
        rows = unipotent_rows(n)
    return p, m, rows, period


def _peel(rows, p: int, m: int, period: int):
    """hermite's peeling of the integers rows at m digits, or ("refused", stage, reason)."""
    a = UMatrix.from_residues(rows, PrecisionContext(p, m))
    try:
        return spectral._hermite_rows(a, period, m)
    except NotHermiteError as exc:
        return "refused", exc.stage, exc.reason


@settings(max_examples=200, deadline=None)
@given(hermite_inputs(), st.sampled_from([1, 2]))
@example((2, 1, unipotent_rows(33), 1), 1)
@example((2, 1, unipotent_rows(33), 1), 2)
def test_hermite_agrees_across_precisions(problem, delta):
    """The peeling of the same integers at m and at m + delta digits.

    Stages 0..m-1 are run at both precisions, and each one's verdict is
    decided mod p.  So a refusal at m (at stage m at the latest: the
    nilpotent residue left by stage m - 1) is the same refusal at
    m + delta, and so is a refusal at m + delta at a stage s < m; only
    the run at m + delta reaches the sigma phase of stage m and the
    stages past it.  Where both accept, the lead valuations are equal
    and the first m digits at m + delta reduce mod p^m to the digits at
    m.
    """
    p, m, rows, period = problem
    low = _peel(rows, p, m, period)
    high = _peel(rows, p, m + delta, period)
    if low[0] == "refused" or high[0] == "refused" and high[1] < m:
        assert low == high
    elif high[0] != "refused":
        q = p**m
        assert high[0] == low[0]
        assert [[[c % q for c in row] for row in digit] for digit in high[1][:m]] == [
            [list(row) for row in digit] for digit in low[1]
        ]


@st.composite
def spectral_inputs(draw):
    """(p, m, delta, period, integer rows below p^(m + delta)) fixed by sigma^period there.

    Period 1 plants U diag(omega) U^-1 for Teichmuller lifts omega at
    m' = m + delta; period 2 plants U C U^-1 for the companion C of a
    Teichmuller point of degree 2.  Read at m, the same integers are
    fixed by sigma^period mod p^m too.
    """
    p = draw(st.sampled_from([2, 3, 5, 7]))
    m = draw(st.integers(min_value=1, max_value=3))
    delta = draw(st.sampled_from([1, 2]))
    period = draw(st.sampled_from([1, 2]))
    n = 2 if period == 2 else draw(st.integers(min_value=1, max_value=5))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    ctx = PrecisionContext(p, m + delta)
    if period == 1:
        planted = diag_matrix(ctx, [teichmuller_lift(rng.randrange(p), ctx).residue() for _ in range(n)])
    else:
        planted = UMatrix.from_residues(teichmuller_companion(p, 2, m + delta), ctx)
    return p, m, delta, period, residues_of(conjugate(rand_gl(ctx, n, rng), planted))


def _reduce(x, q: int):
    """Every int inside a nest of tuples and lists, mod q, as tuples."""
    return x % q if isinstance(x, int) else tuple(_reduce(y, q) for y in x)


def _spectrum(rows, p: int, m: int, period: int) -> list:
    dec = teichmuller_spectral(UMatrix.from_residues(rows, PrecisionContext(p, m)), period)
    return [(lam.residue_key(), proj.residues()) for lam, proj in dec.points]


@settings(max_examples=150, deadline=None)
@given(spectral_inputs())
def test_spectral_agrees_across_precisions(problem):
    """teichmuller_spectral of the same integers at m and at m + delta.

    Both runs accept, and the points and projectors at m + delta, in
    their order, reduce mod p^m to those at m.
    """
    p, m, delta, period, rows = problem
    low = _spectrum(rows, p, m, period)
    high = _spectrum(rows, p, m + delta, period)
    assert _reduce(high, p**m) == _reduce(low, p**m)


# -- the same properties through the batch CLI ---------------------------------


def _cli(argv, doc=None):
    """run_command's status and document, with doc, if any, in an --in file."""
    stream = io.StringIO()
    if doc is None:
        status = run_command(argv, stream)
    else:
        with tempfile.TemporaryDirectory() as workdir:
            path = os.path.join(workdir, "problem.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            status = run_command([*argv, "--in", path], stream)
    return status, json.loads(stream.getvalue())


def _integer(scalar, p: int, q: int) -> int:
    """The integral scalar document p^v u, mod q."""
    return p ** scalar["v"] * int(scalar["u"]) % q


def _matrix_doc(rows, p: int, m: int) -> dict:
    """The integers rows as a problem document read at m digits."""
    entries = []
    for value in (value for row in rows for value in row):
        v = 0
        while value and value % p == 0:
            value, v = value // p, v + 1
        entries.append({"v": v, "u": str(value)})
    return {"p": p, "m": m, "entries": entries}


_PRIMES = st.sampled_from([2, 3, 5, 7])
_DELTAS = st.sampled_from([1, 2])


@settings(max_examples=100, deadline=None)
@given(_PRIMES, st.integers(min_value=1, max_value=4), _DELTAS, st.data())
def test_cli_lift_agrees_across_precisions(p, m, delta, data):
    """The lift of a residue at m + delta reduces mod p^m to the lift at m."""
    residue = str(data.draw(st.integers(min_value=0, max_value=p - 1)))
    low, high = (_cli(["lift", "--p", str(p), "--m", str(digits), "--residue", residue])
                 for digits in (m, m + delta))
    assert low[0] == high[0] == 0
    assert _integer(high[1]["value"], p, p**m) == _integer(low[1]["value"], p, p**m)


@settings(max_examples=150, deadline=None)
@given(_PRIMES, st.integers(min_value=1, max_value=4), _DELTAS,
       st.integers(min_value=-(10**6), max_value=10**6),
       st.integers(min_value=-(10**6), max_value=10**6).filter(bool))
def test_cli_digits_agree_across_precisions(p, m, delta, num, den):
    """num/den and its digits at m + delta reduce to those at m.

    The value is known to m significant digits, so its valuation is the
    same at both precisions and its unit agrees mod p^m; the first m
    digits at m + delta reduce mod p^m to the m digits at m.
    """
    low, high = (_cli(["digits", "--p", str(p), "--m", str(digits), "--num", str(num),
                       "--den", str(den)])
                 for digits in (m, m + delta))
    assert low[0] == high[0] == 0
    low, high = low[1], high[1]
    assert high["lead_valuation"] == low["lead_valuation"]
    assert high["value"]["v"] == low["value"]["v"]
    assert int(high["value"]["u"]) % p**m == int(low["value"]["u"])
    assert [_integer(d, p, p**m) for d in high["digits"][:m]] == [
        _integer(d, p, p**m) for d in low["digits"]
    ]


@st.composite
def jordan_inputs(draw):
    """(p, m, delta, integer rows below p^m): planted Hermite, random or I + N."""
    p = draw(_PRIMES)
    m = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=4))
    shape = draw(st.sampled_from(["planted", "random", "unipotent"]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    ctx = PrecisionContext(p, m)
    if shape == "planted":
        rows = residues_of(rand_hermite(ctx, n, rng)[0])
    elif shape == "random":
        rows = [[rng.randrange(ctx.modulus) for _ in range(n)] for _ in range(n)]
    else:
        rows = unipotent_rows(n)
    return p, m, draw(_DELTAS), rows


@settings(max_examples=150, deadline=None)
@given(jordan_inputs())
def test_cli_jordan_agrees_across_precisions(problem):
    """jordan of the same integers at m and at m + delta.

    Both runs reach the same verdict.  Where both accept, the semisimple
    and nilpotent parts at m + delta reduce mod p^m to those at m.
    """
    p, m, delta, rows = problem
    low, high = (_cli(["jordan"], _matrix_doc(rows, p, digits)) for digits in (m, m + delta))
    assert high[0] == low[0]
    if low[0] != 0:
        assert high[1]["error"]["kind"] == low[1]["error"]["kind"]
        return
    q = p**m
    for part in ("semisimple", "nilpotent"):
        assert [_integer(e, p, q) for e in high[1][part]["entries"]] == [
            _integer(e, p, q) for e in low[1][part]["entries"]
        ]


@st.composite
def cli_operator_inputs(draw):
    """(p, m, delta, period, integer rows): jordan_inputs' shapes at period 1 or 2, or spectral_inputs'."""
    if draw(st.booleans()):
        return draw(spectral_inputs())
    p, m, delta, rows = draw(jordan_inputs())
    return p, m, delta, draw(st.sampled_from([1, 2])), rows


def _integers(x, p: int, q: int):
    """Every scalar document inside a nest of lists and objects as an int mod q."""
    if isinstance(x, dict):
        return _integer(x, p, q) if set(x) == {"u", "v"} else {
            key: _integers(value, p, q) for key, value in x.items()}
    return [_integers(y, p, q) for y in x] if isinstance(x, list) else x


def _run_at_both(command: str, problem):
    """command --N period on the same integers at m and at m + delta, and the refusal clause.

    Every refusal at m is a refusal at m + delta of the same kind.
    Returns both (status, document) pairs.
    """
    p, m, delta, period, rows = problem
    low, high = (_cli([command, "--N", str(period)], _matrix_doc(rows, p, digits))
                 for digits in (m, m + delta))
    if low[0] != 0:
        assert high[0] == low[0]
        assert high[1]["error"]["kind"] == low[1]["error"]["kind"]
    return low, high


@settings(max_examples=150, deadline=None)
@given(cli_operator_inputs())
def test_cli_hermite_agrees_across_precisions(problem):
    """hermite of the same integers at m and at m + delta.

    A refusal at m is the same refusal at m + delta, at the same stage.
    Where both accept, the lead valuations are equal and the first m
    digits at m + delta reduce mod p^m to the digits at m.
    """
    p, m = problem[:2]
    low, high = _run_at_both("hermite", problem)
    if low[0] != 0:
        assert high[1]["error"].get("stage") == low[1]["error"].get("stage")
    elif high[0] == 0:
        assert high[1]["lead_valuation"] == low[1]["lead_valuation"]
        assert _integers(high[1]["digits"][:m], p, p**m) == _integers(low[1]["digits"], p, p**m)


@settings(max_examples=150, deadline=None)
@given(cli_operator_inputs())
def test_cli_spectral_agrees_across_precisions(problem):
    """spectral of the same integers at m and at m + delta.

    A refusal at m is a refusal at m + delta of the same kind.  Where
    both accept, the points at m + delta, eigenvalues and projectors in
    their order, reduce mod p^m to those at m.
    """
    p, m = problem[:2]
    low, high = _run_at_both("spectral", problem)
    if low[0] == high[0] == 0:
        assert _integers(high[1]["points"], p, p**m) == _integers(low[1]["points"], p, p**m)


def _capped(valuation, m: int) -> int:
    """min(valuation, m), with null (an infinite valuation) as +infinity."""
    return m if valuation is None else min(valuation, m)


def _point_set(points, p: int, q: int) -> set:
    """The scalar documents mod q as a set; a coordinate list becomes a tuple."""
    return {tuple(x) if isinstance(x, list) else x for x in _integers(points, p, q)}


@settings(max_examples=150, deadline=None)
@given(cli_operator_inputs())
def test_cli_diam_agrees_across_precisions(problem):
    """diam of the same integers at m and at m + delta.

    A refusal at m is a refusal at m + delta of the same kind.  Where
    both accept, the diameter valuations agree up to m, and the spectra
    at m + delta reduce mod p^m to the spectrum at m, as sets.
    """
    p, m = problem[:2]
    low, high = _run_at_both("diam", problem)
    if low[0] == high[0] == 0:
        low, high = low[1], high[1]
        assert _capped(high["diameter_valuation"], m) == _capped(low["diameter_valuation"], m)
        assert _point_set(high["spectrum"], p, p**m) == _point_set(low["spectrum"], p, p**m)


@st.composite
def uncertainty_inputs(draw):
    """(p, m, delta, period, rows of A, rows of B, psi): cli_operator_inputs' A, a B of its size.

    B is drawn like A at the same p, m, delta and dimension: planted
    sigma^period-fixed at m + delta (period 1 diagonal Teichmuller lifts,
    or the degree-2 companion at n = 2), Hermite at m, uniform residues,
    or I + N.  psi is a vector of integers below p^m with a unit entry,
    so it has sup norm 1 at both precisions.
    """
    p, m, delta, period, rows_a = draw(cli_operator_inputs())
    n = len(rows_a)
    shape = draw(st.sampled_from(["planted", "hermite", "random", "unipotent"]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    high = PrecisionContext(p, m + delta)
    if shape == "planted" and period == 2 and n == 2:
        planted = UMatrix.from_residues(teichmuller_companion(p, 2, m + delta), high)
    elif shape == "planted":
        planted = diag_matrix(high, [teichmuller_lift(rng.randrange(p), high).residue()
                                     for _ in range(n)])
    if shape == "planted":
        rows_b = residues_of(conjugate(rand_gl(high, n, rng), planted))
    elif shape == "hermite":
        rows_b = residues_of(rand_hermite(PrecisionContext(p, m), n, rng)[0])
    elif shape == "random":
        rows_b = [[rng.randrange(p**m) for _ in range(n)] for _ in range(n)]
    else:
        rows_b = unipotent_rows(n)
    psi = [rng.randrange(p**m) for _ in range(n)]
    psi[rng.randrange(n)] = p * rng.randrange(p ** (m - 1)) + rng.randrange(1, p)
    return p, m, delta, period, rows_a, rows_b, psi


def _capped_norm_valuation(norm: float, p: int, m: int) -> int:
    """min(v, m) for the norm p^-v printed as a float (0.0 for an infinite v)."""
    return next((v for v in range(m) if norm == float(p) ** -v), m)


@settings(max_examples=150, deadline=None)
@given(uncertainty_inputs())
def test_cli_uncertainty_agrees_across_precisions(problem):
    """uncertainty of the same integers A, B and psi at m and at m + delta.

    A refusal at m is a refusal at m + delta of the same kind.  Where
    both accept, the verdicts agree, and so does the valuation of
    [A, B] psi capped at m, read off lhs_norm.
    """
    p, m, delta, period, rows_a, rows_b, psi = problem

    def document(digits: int) -> dict:
        doc = _matrix_doc(rows_a, p, digits)
        doc["A"] = doc.pop("entries")
        doc["B"] = _matrix_doc(rows_b, p, digits)["entries"]
        doc["psi"] = _matrix_doc([psi], p, digits)["entries"]
        return doc

    low, high = (_cli(["uncertainty", "--N", str(period)], document(digits))
                 for digits in (m, m + delta))
    if low[0] != 0:
        assert high[0] == low[0]
        assert high[1]["error"]["kind"] == low[1]["error"]["kind"]
    elif high[0] == 0:
        (low_check,), (high_check,) = low[1]["checks"], high[1]["checks"]
        assert high[1]["holds"] == low[1]["holds"]
        assert _capped_norm_valuation(high_check["lhs_norm"], p, m) == _capped_norm_valuation(
            low_check["lhs_norm"], p, m)


_LADDER_OPS = [("kochubei", op) for op in ("raise", "lower", "shift", "number", "position")] + [
    ("euler", op) for op in ("euler", "raise", "derivative")
]


@settings(max_examples=150, deadline=None)
@given(_PRIMES, st.integers(min_value=1, max_value=4), _DELTAS, st.sampled_from(_LADDER_OPS),
       st.data())
def test_cli_ladders_agree_across_precisions(p, m, delta, command_op, data):
    """Every kochubei and euler op on the same integer coefficients at m and at m + delta.

    The coefficients are integers below p^m.  Both runs end with the same
    status and the same truncated flag, and every output coefficient at
    m + delta reduces mod p^m to the one at m.
    """
    command, op = command_op
    q = p**m
    values = data.draw(st.lists(st.integers(min_value=0, max_value=q - 1), min_size=1, max_size=6))
    low, high = (_cli([command, "--op", op], {**doc, "coeffs": doc.pop("entries")})
                 for doc in (_matrix_doc([values], p, digits) for digits in (m, m + delta)))
    assert high[0] == low[0]
    if low[0] != 0:
        assert high[1]["error"]["kind"] == low[1]["error"]["kind"]
        return
    assert high[1]["truncated"] == low[1]["truncated"]
    assert [_integer(c, p, q) for c in high[1]["coeffs"]] == [
        _integer(c, p, q) for c in low[1]["coeffs"]
    ]



@st.composite
def projection_inputs(draw, shapes):
    """(p, m, delta, integer rows below p^(m + delta)): U D U^-1 for U in GL_n(Z/p^(m + delta)).

    D is diag(e) with e all 0, all 1 or mixed (both values present), an
    idempotent at every precision; shape "nilpotent" puts the shift
    [[0, 1], [0, 0]] in the top left of D, so the reduction mod p of
    U D U^-1 is not idempotent.
    """
    p = draw(_PRIMES)
    m = draw(st.integers(min_value=1, max_value=4))
    delta = draw(_DELTAS)
    shape = draw(st.sampled_from(shapes))
    n = draw(st.integers(min_value=1 if shape in ("zeros", "ones") else 2, max_value=5))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    ctx = PrecisionContext(p, m + delta)
    if shape == "mixed":
        e = [0, 1] + [rng.randrange(2) for _ in range(n - 2)]
        rng.shuffle(e)
    else:
        e = [int(shape == "ones")] * n
    planted = residues_of(diag_matrix(ctx, e))
    if shape == "nilpotent":
        planted[0][:2], planted[1][:2] = [0, 1], [0, 0]
    u = rand_gl(ctx, n, rng)
    return p, m, delta, shape, residues_of(conjugate(u, UMatrix.from_residues(planted, ctx)))


def _certify_at_both(problem):
    """certify-projection --samples 8 on the same integers at m and at m + delta."""
    p, m, delta, _, rows = problem
    return [_cli(["certify-projection", "--samples", "8"], _matrix_doc(rows, p, digits))
            for digits in (m, m + delta)]


@settings(max_examples=200, deadline=None)
@given(projection_inputs(("zeros", "ones", "mixed")))
def test_cli_certify_projection_agrees_across_precisions(problem):
    """certify-projection of a planted idempotent at m and at m + delta: the same verdict.

    U diag(e) U^-1 is an orthogonal projection at every precision, so
    every sample passes at both; all-0 e fails the norm alone.
    """
    low, high = _certify_at_both(problem)
    assert high[0] == low[0] == 0
    assert (high[1]["valid"], high[1]["failures"]) == (low[1]["valid"], low[1]["failures"])
    assert low[1]["failures"] == (["norm_not_one"] if problem[3] == "zeros" else [])


@settings(max_examples=100, deadline=None)
@given(projection_inputs(("nilpotent",)))
def test_cli_certify_projection_refuses_a_non_idempotent_reduction_at_both_precisions(problem):
    """A reduction mod p that is not idempotent is the same mod p at m and at m + delta.

    Both runs refuse it with reduction_idempotent false (the sampled
    conditions may differ, as the samples are drawn at each precision).
    """
    for status, doc in _certify_at_both(problem):
        assert status == 0
        assert (doc["valid"], doc["reduction_idempotent"]) == (False, False)
        assert "reduction_idempotent" in doc["failures"]


# -- measure: the printed p^v u of a node entry, read unreduced --------------------------------


@pytest.mark.xfail(strict=True, reason="measure prints node products p^v u past p^m (ROADMAP item 1)")
def test_cli_measure_prints_the_residue_of_the_higher_precision_answer():
    """measure --depth 2 of the same integers at m = 4 and at m = 8, p = 3.

    The integers are the planted operators U diag U^-1 of
    perfbench.corpus.planted_operator(3, 8, 4, 2, seed % 2, ...) for
    seeds 0-39, reduced mod 3^4.  Where both runs accept, every
    projector entry printed at m = 4 is the integer p^v u as it stands,
    and must equal the entry at m = 8 mod 3^4: an absolute answer mod
    p^m is printed as its canonical residue, as hermite and spectral
    print theirs.
    """
    p, m, q = 3, 4, 3**4
    compared = 0
    for seed in range(40):
        planted = planted_operator(3, 8, 4, 2, seed % 2, random.Random(seed))
        rows = [[x % q for x in row] for row in planted.matrix]
        low, high = (_cli(["measure", "--depth", "2"], _matrix_doc(rows, p, digits))
                     for digits in (m, 8))
        if low[0] or high[0]:
            continue
        low, high = low[1]["nodes"], high[1]["nodes"]
        assert [node["address"] for node in high] == [node["address"] for node in low]
        for low_node, high_node in zip(low, high):
            assert [p ** e["v"] * int(e["u"]) for e in low_node["projector"]["entries"]] == [
                _integer(e, p, q) for e in high_node["projector"]["entries"]
            ]
            compared += 1
    assert compared
