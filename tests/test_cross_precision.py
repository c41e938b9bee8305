"""One input read at m and at m + delta digits: the answers must agree mod p^m.

Every answer is promised exact mod p^m.  So the same integers below
p^m, read at a higher precision m', must give an answer that reduces to
the one at m, and a verdict that both runs reach on the way must be the
same verdict.  The shapes are drawn here, not imported from the
benchmark corpus, so the property stays independent of it.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import rand_hermite, residues_of
from padicspec import NotHermiteError, PrecisionContext, UMatrix
from padicspec import spectral


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
