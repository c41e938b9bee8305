"""Spectral decomposition of operators through the p-power map.

An operator in the unit ball whose sigma^N-orbit is stationary mod p^m
splits against the p^N fixed points of sigma^N: each point gets a
Lagrange projector, nonzero projectors are orthogonal, and the operator
is the projector-weighted sum of the points.  Only the points reducing
to eigenvalues mod p have nonzero projectors, so the resolution finds
those as roots of the characteristic polynomial mod p and interpolates
over them alone.  The polynomial costs O(n^3) field operations by
Hessenberg reduction; its roots cost at most 128 n^2 more by a scan of
the residue field F_q while q <= 128 n, and O(n^2 log p^N) per gcd or
splitting step of Cantor-Zassenhaus above that.  Then 3(k - 2)
matrix products for k >= 2 points (at most 3(n - 2)) remain, however
large p^N is.

Operators whose digit expansion consists of such fixed points (one per
power of p) carry one tree of projectors, indexed by digit paths: level
j holds the nonzero products of one projector from each of the first
j + 1 resolutions.  Over Z_p it is a finitely additive projector-valued
measure on the balls of Z_p, and integrating the ball centers against
it reconstructs the operator to the resolved depth; its deepest level
over all m digits, at any period, is the spectrum.  Once a ball holds a
single eigenvalue class, deeper digits only relabel it: a level at
which no node splits is read off one product of the stacked nodes by
the digit, so the full resolution runs only at level 0 and at the
levels where some node splits.

The same machinery yields the canonical splitting A = A_s + A_n into a
multiplicative part and a topologically nilpotent part, the spectrum
diameter, and the commutator inequality
|[A, B] psi| <= diam(A) * diam(B) for unit psi.

The pipeline exchanges residue rows mod p^m and one ring handle, the
entry protocol of padic._BaseOps or finite_field._ExtOps, which alone
knows what an entry is: _hermite_rows peels the digits, _resolve
resolves one digit, _pass_through carries the nodes past a digit that
splits none of them, _spectral_tree builds the tree and _verify_tree
certifies it (which, with the points, proves every resolved digit fixed
by sigma^N), for the Lagrange resolution (the one-level tree whose digit
is the operator itself), the measure and the spectrum (so diam and
uncertainty) alike.  _ambient moves base rows to the degree-N ring at
period N > 1, and the points are Teichmuller lifts kept as residues
(padic._teichmuller_residue, the one lift over either ring).  Scalars
and matrices are built only for what a public function returns.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import NamedTuple, Sequence

from .finite_field import SCAN_PER_DEGREE, _scan_roots, poly_roots
from .matrix import (
    UMatrix,
    _entry_maker,
    _hessenberg_charpoly,
    _res_identity,
    _res_matmul_blocks,
    _res_matpow,
    _wrap_residues,
    residue_ops,
    vector_valuation,
)
from .padic import (
    INFINITE,
    OrbitKind,
    PadicScalar,
    PrecisionContext,
    _teichmuller_residue,
    norm_from_valuation,
    pre_period_bound,
    scan_orbit,
)
from .unramified import ext_ring


class NotHermiteError(Exception):
    """Digit peeling met a residue that is not divisible by p.

    stage is the index of the digit that failed to materialise;
    defect_norm is the sup norm of the obstruction.
    """

    def __init__(self, stage: int, defect_norm: float, reason: str):
        super().__init__(reason)
        self.stage = stage
        self.defect_norm = defect_norm
        self.reason = reason


class PeriodExceededError(Exception):
    """No period up to the requested bound stabilised within the budget."""

    def __init__(self, period_bound: int, budget: int):
        super().__init__(
            f"sigma-iterates found no period <= {period_bound} within {budget} steps"
        )
        self.period_bound = period_bound
        self.budget = budget


# -- residue-level sigma machinery -------------------------------------------


def _sigma_limit(rows: tuple, period: int, ctx: PrecisionContext, ops):
    """Stationary point of y -> y^q mod p^m, q = p^period, or None on a cycle mod p.

    The sigma phase takes sigma^period steps while X^q and X differ mod
    p.  The orbit mod p is on its cycle from sigma step
    P_1 = pre_period_bound(p, 1, n deg), so from sigma^period step
    ceil(P_1 / period) on; a step from there that still moves X mod p
    shows a cycle longer than 1, and the phase returns None.  Once
    X^q = X mod p, Newton's method on f(X) = X^q - X finishes the limit:
    with E = X^(q-1) and a = q/(q-1) mod p^m, aE - 1 inverts
    f'(X) = qE - 1 up to qa(E^2 - E), a multiple of f(X), so
    X <- X^q - a(X^q E - X^q) doubles the digits of agreement at each
    step.  Roots of X^q = X that agree mod p are unique in the
    commutative algebra generated by the input (Hensel), so the Newton
    limit is the sigma limit.  Each step of either phase costs one
    _res_matpow call; the Newton phase takes at most ceil(log2 m) + 1 of
    them, counting the one that ended the sigma phase, and a limit that
    needs more is an internal defect.
    """
    p, modulus = ctx.p, ctx.modulus
    q = p**period
    x, reduction = rows, ops.map_coords(rows, p.__rmod__)
    for _ in range(-(-pre_period_bound(p, 1, len(rows) * ops.degree) // period) + 1):
        power = _res_matpow(x, q - 1, ops)
        xq = ops.matmul(power, x)
        if xq == x:
            return x
        xq_reduction = ops.map_coords(xq, p.__rmod__)
        if xq_reduction == reduction:
            break
        x, reduction = xq, xq_reduction
    else:
        return None
    a = q * pow(q - 1, -1, modulus) % modulus
    for _ in range((ctx.m - 1).bit_length()):
        correction = ops.rows_sub(ops.matmul(xq, power), xq)
        x = ops.rows_sub(xq, ops.rows_scale(a, correction))
        power = _res_matpow(x, q - 1, ops)
        xq = ops.matmul(power, x)
        if xq == x:
            return x
    raise RuntimeError(f"Newton's method on X^{q} = X did not converge (internal defect)")


# -- unique idempotent lifting -------------------------------------------------


def lift_idempotent(a: UMatrix) -> UMatrix:
    """Lift an idempotent mod p to the exact idempotent fixed by sigma.

    The sigma-iterates of any representative stabilise mod p^m; the limit
    is idempotent, congruent to the input mod p, and independent of the
    representative within the commutative algebra the input generates
    (perturbing by p times anything that commutes gives the same limit).
    """
    if not a.is_integral:
        raise ValueError("lift_idempotent requires |a| <= 1")
    ctx = a.ctx
    ops = residue_ops(a.ctx, a.ext_ring)
    rows = a.residues()
    defect = ops.rows_sub(ops.matmul(rows, rows), rows)
    if not ops.rows_are_zero(ops.map_coords(defect, ctx.p.__rmod__)):
        raise ValueError("input is not idempotent mod p")
    limit = _sigma_limit(rows, 1, ctx, ops)
    if limit is None:
        raise RuntimeError("idempotent lift failed to stabilise (internal defect)")
    if ops.matmul(limit, limit) != limit:
        raise RuntimeError("sigma limit of an idempotent is not idempotent (internal defect)")
    if not ops.rows_are_zero(ops.map_coords(ops.rows_sub(limit, rows), ctx.p.__rmod__)):
        raise RuntimeError("idempotent lift changed the reduction (internal defect)")
    return _wrap_residues(limit, ctx, a.ext_ring)


# -- Lagrange spectral decomposition -------------------------------------------


class SpectralDecomposition(NamedTuple):
    """Resolution of a sigma^N-fixed operator against the period-N points.

    points holds (eigenvalue, projector) pairs for the nonzero projectors
    only.  The four defining identities (projectors sum to 1, weighted
    sum reproduces the operator, idempotency, pairwise orthogonality) are
    certified mod p^m by the tree certificate (_verify_tree on the
    one-level tree) before the decomposition is built;
    residual_identity_defect records the sup norm of sum(projectors) - 1
    and is 0.0 for every emitted decomposition.
    """

    period: int
    points: tuple
    residual_identity_defect: float

    @property
    def eigenvalues(self) -> tuple:
        return tuple(lam for lam, _ in self.points)

    @property
    def projectors(self) -> tuple:
        return tuple(proj for _, proj in self.points)


def _spectral_points(rows: tuple, ops, period: int):
    """Teichmuller lifts of the eigenvalues of rows mod p, the ambient ops, its rows.

    The eigenvalues are the roots of the characteristic polynomial of
    rows mod p, built by Hessenberg reduction over the field F_q, q =
    p^D, that the ambient entries reduce into (D = 1 over Z_p).  For
    rows fixed by sigma^N the polynomial splits over F_{p^N}: a scan of
    F_q finds its roots while q <= SCAN_PER_DEGREE * n, and
    Cantor-Zassenhaus above that.  For other rows the scan may leave a
    factor (RuntimeError) or find roots outside F_{p^N}, and
    Cantor-Zassenhaus finds the roots in F_{p^N} only; _spectral_tree
    refuses such rows whatever happens here.  The ambient
    ring must contain the period-N fixed points (_ambient).  Each root
    is lifted once, to its residue mod p^m (_teichmuller_residue).
    Points are ordered by the residue field's enumeration of their
    reductions: by residue mod p over Z_p, by coordinates over an
    extension.
    """
    ops, rows = _ambient(rows, ops, period)
    field = ops.field
    charpoly = _hessenberg_charpoly(ops.map_coords(rows, ops.p.__rmod__), field)
    if ops.p**ops.degree <= SCAN_PER_DEGREE * len(rows):
        roots = _scan_roots(charpoly, field.elements(), field)
    else:
        roots = poly_roots(charpoly, ops.p**period, ops.degree, field, field.elements())
    return [_teichmuller_residue(r, ops) for r in roots], ops, rows


def _ambient(rows: tuple, ops, period: int):
    """The ops of the ring that holds the period-N points, and rows over it.

    A ring whose degree N divides is kept (Z_p at N = 1); base rows at
    N > 1 are promoted to the degree-N extension, with constant
    coordinates, and an extension whose degree N does not divide is
    refused with ValueError.
    """
    if ops.degree % period == 0:
        return ops, rows
    if ops.degree > 1:
        raise ValueError(f"period {period} does not divide the extension degree {ops.degree}")
    pad = (0,) * (period - 1)
    return ext_ring(ops.p, period, ops.m).ops, ops.map_coords(rows, lambda c: (c,) + pad)


def _resolve(rows: tuple, ops, period: int):
    """The Lagrange resolution of one digit of _spectral_tree on residue rows.

    _spectral_tree runs it at level 0 and at each level where some node
    splits; _pass_through covers the other levels.  It costs a
    characteristic polynomial mod p, its roots and one lift per root,
    one p^N-th power of each lift when the ambient degree D exceeds N,
    then 3(k - 2) matrix products for the projectors of k >= 2 points:
    the numerator of point j is the prefix product of the shifted
    matrices x - mu before j times the suffix product after j.

    Returns (lifts, ambient ops, rows, projector rows): the residues mod
    p^m of the eigenvalue points in the ambient ring, its ops, the input
    rows over it (base rows promoted by _spectral_points) and, in the
    order of the points, their projectors as residue rows over it.  The
    caller certifies the tree built from them (_verify_tree), which
    proves the rows fixed by sigma^N once every point is (see
    _spectral_tree).  A point not fixed by sigma^N, which only rows not
    fixed can have, raises RuntimeError.
    """
    lifts, ops, rows = _spectral_points(rows, ops, period)
    if ops.degree != period and any(ops.pow(lam, ops.p**period) != lam for lam in lifts):
        raise RuntimeError(f"eigenvalue point is not fixed by sigma^{period} (internal defect)")
    n = len(rows)
    # x - mu differs from x on the diagonal only; all of them commute
    shifted = [
        tuple([row[:r] + (ops.sub(row[r], mu),) + row[r + 1 :] for r, row in enumerate(rows)])
        for mu in lifts
    ]
    if len(lifts) <= 1:  # no point only for rows not fixed by sigma^N: the certificate fails
        numerators = [_res_identity(n, ops)] * len(lifts)
    else:
        prefixes = list(itertools.accumulate(shifted[:-1], ops.matmul))  # shifted[0..j]
        suffixes = list(itertools.accumulate(shifted[:0:-1], ops.matmul))[::-1]  # shifted[j+1..]
        numerators = [suffixes[0], *map(ops.matmul, prefixes[:-1], suffixes[1:]), prefixes[-1]]
    resolved = []
    for k, (lam, numerator) in enumerate(zip(lifts, numerators)):
        denominator = ops.one
        for j, mu in enumerate(lifts):
            if j != k:
                denominator = ops.mul(denominator, ops.sub(lam, mu))
        if not ops.is_unit(denominator):
            raise RuntimeError("Lagrange denominator is not a unit (internal defect)")
        resolved.append(ops.rows_mul(ops.inv_unit(denominator), numerator))
    return lifts, ops, rows, resolved


def teichmuller_spectral(x: UMatrix, period: int = 1) -> SpectralDecomposition:
    """Lagrange resolution of a sigma^N-fixed matrix over its eigenvalues.

    The candidate points are the Teichmuller lifts of the eigenvalues of x
    mod p, found as the roots of its characteristic polynomial in
    F_{p^N}; at most n of them exist.  Each projector is the product of
    (x - mu)/(lambda - mu) over the other points mu.  Interpolating over
    all p^N fixed points would give the same projectors: the one for a
    point that is not an eigenvalue mod p is an idempotent with zero
    reduction, hence 0.  The denominators are units because distinct
    points have distinct reductions, and this is asserted at runtime;
    projectors summing to 1 certifies that no eigenvalue was missed.

    The work is O(n^3) field operations for the characteristic
    polynomial (Hessenberg reduction), then at most q n for a scan of the
    residue field F_q when q <= 128 n, or O(n^2 log p^N) for each gcd or
    splitting step of Cantor-Zassenhaus above that (a few splitting
    shifts suffice in practice), plus 3(k - 2) matrix products for the
    projectors of k >= 2 points.  The resolution is the one-level
    spectral tree whose digit is x itself (_spectral_tree), certified on
    residue rows by _verify_tree, which with the points also proves x
    fixed by sigma^N, so no sigma^N power of x is taken on the way to an
    answer; only the projectors returned here are built as matrices, in
    address order.
    """
    if not x.is_integral:
        raise ValueError("teichmuller_spectral requires |x| <= 1")
    ops, (level,) = _spectral_tree((x.residues(),), residue_ops(x.ctx, x.ext_ring), period)
    make = _entry_maker(x.ctx, ops.ring)
    points = tuple(
        (make(level.terms[index][0]), _wrap_residues(rows, x.ctx, ops.ring))
        for (index,), rows in level.nodes
    )
    return SpectralDecomposition(period, points, 0.0)


# -- digit expansion -------------------------------------------------------------


class HermiteDigitsMatrix(NamedTuple):
    """Digit expansion A = sum_i x_i p^(k+i) with sigma^N-fixed commuting digits."""

    lead_valuation: int
    digits: tuple
    period: int

    @property
    def ctx(self) -> PrecisionContext:
        return self.digits[0].ctx

    def reassemble(self) -> UMatrix:
        acc = None
        for i, digit in enumerate(self.digits):
            term = digit.shift(self.lead_valuation + i)
            acc = term if acc is None else acc + term
        return acc


def hermite_digits_matrix(a: UMatrix, period: int = 1) -> HermiteDigitsMatrix:
    """Decide the digit expansion of an operator, digit by digit.

    The valuation is factored out first.  At stage i the sigma^N-limit of
    the current tail is the candidate digit; the remainder must vanish
    mod p so the next digit can be formed.  A remainder with a unit entry
    is a topologically nilpotent obstruction and is reported through
    NotHermiteError with the index of the digit that could not be formed;
    a tail whose sigma^N-orbit cycles without stabilising fails at the
    current digit.

    Each division by p consumes one digit of accuracy, so the peeling
    runs on the canonical representatives at a precision that falls by
    one digit per stage, from 2m - 1 digits at digit 0 to m at digit
    m - 1 (see _hermite_rows), and reduces the digits back to precision
    m; this keeps every emitted digit exact mod p^m and the digits
    pairwise commuting mod p^m.

    Each limit is a sigma phase (sigma^N steps until the tail is
    stationary mod p, none for a tail that already is) followed by
    Newton's method on X^(p^N) = X at the stage's precision P, so a
    digit costs at most ceil(P_1 / N) + ceil(log2 P) + 1 matrix powers,
    P_1 = pre_period_bound(p, 1, n deg) for a degree-deg ring (see
    _sigma_limit), each of O(N log2 p) products of n x n matrices.  The
    peeling runs on residue rows (_hermite_rows); only the digits
    returned here are built as matrices.
    """
    k, digits = _hermite_rows(a, period, a.ctx.m)
    ctx, ring = a.ctx, a.ext_ring
    return HermiteDigitsMatrix(k, tuple(_wrap_residues(d, ctx, ring) for d in digits), period)


def _hermite_rows(a: UMatrix, period: int, depth: int):
    """The digit peeling of hermite_digits_matrix: (lead valuation, digit rows 0..depth-1 mod p^m).

    Every stage i < m is run, as every one can refuse the input, but
    each at only the precision its outputs need.  The sigma limit and
    the tail below are integer polynomial maps of the entries, so digit
    i mod p^j depends only on tail i mod p^j, and tail i + 1 =
    (tail i - digit i) / p mod p^j only on tail i mod p^(j + 1).  Digit
    depth - 1 is wanted mod p^m, so stage i < depth runs at
    P_i = m + depth - 1 - i digits.  A stage past the depth is needed
    only for its verdict, which is decided mod p (below), so stage
    i >= depth runs at P_i = m - i digits; the rows are reduced mod
    p^(m - depth) where the schedule drops by more than the one digit
    the division by p takes, since the packed products need canonical
    entries.  hermite_digits_matrix and operator_spectrum take every
    digit (depth m: P_i = 2m - 1 - i); spectral_measure takes its depth.

    Each stage returns the limit of the same stage run at 2m digits,
    reduced mod p^(P_i), and the same verdicts.  Mod p^P every step of
    _sigma_limit is the 2m step reduced, so both take the same branches
    until the stage at P stops at x^q = x mod p^P.  From there the
    Newton update X^q - a(X^q E - X^q) leaves x fixed mod p^P, as
    X^q E = X^(2q - 1) = X^q mod p^P, and no sigma step can follow: the
    reduction mod p is fixed.  Every other branch (a sigma step, a cycle
    mod p, a tail that is not divisible by p) is decided mod p, the same
    at every precision.  Neither phase of _sigma_limit stops short of
    its limit or its cycle mod p at any precision, so every stage
    reaches the verdict of the stage at 2m.
    """
    ctx = a.ctx
    p, m = ctx.p, ctx.m
    k = a.valuation
    if k == INFINITE:
        return 0, (a.residues(),) * depth
    work = a.shift(-k)
    rows = work.residues()
    digits = []
    for i in range(m):
        stage_ctx = PrecisionContext(p, m + depth - 1 - i if i < depth else m - i)
        ops = residue_ops(stage_ctx, work.ext_ring)
        if i == depth:
            rows = ops.map_coords(rows, ops.q.__rmod__)
        limit = _sigma_limit(rows, period, stage_ctx, ops)
        if limit is None:
            raise NotHermiteError(
                stage=i,
                defect_norm=1.0,
                reason=f"sigma^{period} orbit of digit {i} does not stabilise",
            )
        tail = ops.rows_sub(rows, limit)
        if not ops.rows_are_zero(ops.map_coords(tail, p.__rmod__)):
            raise NotHermiteError(
                stage=i + 1,
                defect_norm=1.0,
                reason=f"nilpotent residue at digit {i + 1}",
            )
        if i < depth:
            digits.append(ops.map_coords(limit, ctx.modulus.__rmod__))
        rows = ops.map_coords(tail, p.__rfloordiv__)
    return int(k), tuple(digits)


# -- the digit tree and its certificate -----------------------------------------------


class _TreeLevel(NamedTuple):
    """One level of the digit tree, on residue rows over the ambient ring.

    digit is the level's digit; terms maps each point's index to (the
    point's residue mod p^m, projector rows), in the order of the
    resolution; nodes holds (address, rows) for the nonzero products, in
    address order.
    """

    digit: tuple
    terms: dict
    nodes: list


def _spectral_tree(digits: Sequence[tuple], ops, period: int):
    """The certified digit tree of an operator: (ambient ops, levels).

    Level 0 resolves digit 0 against the period-N points (_resolve).
    Each later level first tries _pass_through: one product of all the
    frontier nodes, stacked, by the level's digit shows whether every
    node lies in one eigenspace of it.  If so no node splits and the
    level is read off that product.  Otherwise the level is resolved and
    each frontier node is multiplied by all of its projectors in one
    _res_matmul_blocks, dropping zero children.  A child's address
    extends its parent's by the index of its point, the point's
    reduction mod p (ops.reduce: an int over Z_p, a coordinate tuple
    over an extension).  The points come ordered by that index, so each
    level is in address order.  So the full resolution (a characteristic
    polynomial, its roots, their lifts and the Lagrange products) runs
    only at level 0 and at the levels where some node splits.
    _verify_tree certifies every level before the tree is returned.
    Every spectral command runs this one tree: teichmuller_spectral on
    the single digit x, spectral_measure to its depth, operator_spectrum
    over all m digits.

    The certificate also proves every resolved digit fixed by sigma^N
    mod p^m, so no sigma^N power is taken on an accepted tree.  It shows
    digit X = sum_i lambda_i E_i, with E_i the sums of the level's nodes
    by index, orthogonal idempotents summing to 1; hence X^(p^N) =
    sum_i lambda_i^(p^N) E_i, which is X once every point lambda_i is
    fixed by sigma^N.  _teichmuller_residue checks its point fixed by
    sigma^D, which is sigma^N when the ambient degree D equals N, and
    _resolve checks lambda^(p^N) = lambda itself when D > N.  When
    building or certifying the tree raises, the digits handed to
    _resolve are checked in level order, and the first that is not
    fixed is refused with ValueError and the sup norm of X^(p^N) - X;
    any other failure is raised unchanged.  The digits of the other
    levels are sigma^N limits (_hermite_rows), fixed by construction.
    """
    levels, level, resolved = [], None, []
    try:
        for digit in digits:
            if level is not None:
                level = _pass_through(level.nodes, _ambient(digit, ops, period)[1], ambient)
            if level is None:
                resolved.append(digit)
                lifts, ambient, digit, projectors = _resolve(digit, ops, period)
                indices = list(map(ambient.reduce, lifts))
                children = []
                for addr, parent in levels[-1].nodes if levels else [((), None)]:
                    blocks = projectors if parent is None else _res_matmul_blocks(parent, projectors, ambient)
                    children += [(addr + (i,), c) for i, c in zip(indices, blocks) if not ambient.rows_are_zero(c)]
                level = _TreeLevel(digit, dict(zip(indices, zip(lifts, projectors))), children)
            levels.append(level)
        _verify_tree(levels, ambient)
    except Exception:
        for digit in resolved:
            image = _res_matpow(digit, ops.p**period, ops)
            if image != digit:
                valuation = min(map(ops.valuation, itertools.chain.from_iterable(ops.rows_sub(image, digit))))
                defect = norm_from_valuation(ops.p, valuation)
                reason = f"input is not fixed by sigma^{period} mod p^m (defect norm {defect})"
                raise ValueError(reason) from None
        raise
    return ambient, levels


def _pass_through(nodes: list, digit: tuple, ops):
    """The next tree level when no node splits under digit, or None.

    All nodes N, stacked, are multiplied by digit x in one product.  A
    node passes through if N x = lambda N, with lambda = (N x)[a][b] /
    N[a][b] at its first unit entry: then N E_mu is N for mu = lambda
    and 0 for every other point mu, so N is its own only child, at the
    index of lambda mod p.  If every node passes, the projector of each
    index is the sum of its nodes (the spectral projectors of x are
    unique) and its point is the Teichmuller lift of the index.  A node
    without a unit entry or with N x != lambda N gives None, and the
    caller resolves the level; _verify_tree's reassembly check forces
    lambda to be that lift.
    """
    n = len(digit)
    image = ops.matmul(tuple(itertools.chain.from_iterable(rows for _, rows in nodes)), digit)
    children, by_index = [], {}  # the sum of the nodes of each index
    for k, (address, rows) in enumerate(nodes):
        units = ((r, c) for r, row in enumerate(rows) for c, e in enumerate(row) if ops.is_unit(e))
        r, c = next(units, (None, None))
        if r is None:
            return None
        block = image[k * n : (k + 1) * n]
        lam = ops.mul(block[r][c], ops.inv_unit(rows[r][c]))
        if ops.rows_mul(lam, rows) != block:
            return None
        index = ops.reduce(lam)
        children.append((address + (index,), rows))
        by_index[index] = ops.rows_add(by_index[index], rows) if index in by_index else rows
    terms = {i: (_teichmuller_residue(i, ops), by_index[i]) for i in sorted(by_index)}
    return _TreeLevel(digit, terms, children)


def _verify_tree(levels: list, ops):
    """Certify a digit tree mod p^m on residue rows, over any ring.

    At the deepest level: P_i^2 = P_i and P_i P_j = 0 for every pair of
    nodes i < j, one _res_matmul_blocks per node.  At every level j: the
    nodes sum to 1; each node of level j - 1 is the sum of its children;
    the nodes weighted by the Teichmuller lift of the last index of their
    address sum to digit j, so each projector sits under its own digit.
    Each level's nodes are summed once per parent and once per index, so
    the three checks cost about two additions per node and one scaling
    per point.

    Nothing more is needed.  The deepest nodes sum to 1, so
    P_k = sum_i P_k P_i, and P_k P_i = 0 for i < k follows by induction
    on k (multiply on the right by P_i): the deepest nodes are
    orthogonal idempotents.  By induction on the refinement each node is
    the sum of its deepest descendants, and nodes with distinct
    addresses have disjoint descendants, so every level is orthogonal
    and idempotent too.
    """
    deepest = [rows for _, rows in levels[-1].nodes]
    for i, rows in enumerate(deepest):
        square, *overlaps = _res_matmul_blocks(rows, deepest[i:], ops)
        if square != rows:
            raise RuntimeError("projector is not idempotent (internal defect)")
        if not all(map(ops.rows_are_zero, overlaps)):
            raise RuntimeError("same-level projectors overlap (internal defect)")
    ident = _res_identity(len(levels[0].digit), ops)
    parents = []
    for j, level in enumerate(levels):
        by_parent, by_index = {}, {}  # the sums of the nodes under each parent, of each index
        for address, rows in level.nodes:
            parent, index = address[:-1], address[-1]
            by_parent[parent] = ops.rows_add(by_parent[parent], rows) if parent in by_parent else rows
            by_index[index] = ops.rows_add(by_index[index], rows) if index in by_index else rows
        if _res_sum(list(by_parent.values()), ops) != ident:
            raise RuntimeError(f"level {j} projectors do not sum to 1 (internal defect)")
        if any(by_parent.get(address) != rows for address, rows in parents):
            raise RuntimeError("projector does not refine into its children (internal defect)")
        weighted = [ops.rows_mul(level.terms[index][0], rows) for index, rows in by_index.items()]
        if _res_sum(weighted, ops) != level.digit:
            raise RuntimeError(f"level {j} projectors do not reassemble digit {j} (internal defect)")
        parents = level.nodes


# -- the projector-valued measure -------------------------------------------------


class SpectralMeasure(NamedTuple):
    """Finitely additive projector assignment on depth-d digit balls.

    nodes maps digit-path addresses (i_0, ..., i_j) to the product of the
    per-digit projectors along the path; zero products are omitted.  The
    stored projectors at each level sum to the identity, refine their
    parents, and are pairwise orthogonal.  lifts[j] maps each index of
    level j to the residue of its Teichmuller lift, the point that level
    j of the tree already computed, so the ball centers need no lift.
    """

    depth: int
    lead_valuation: int
    nodes: tuple  # ((address, projector), ...) sorted by level then address
    lifts: tuple  # ({index: lift residue mod p^m}, ...) per level

    def level(self, j: int) -> list:
        return [(addr, proj) for addr, proj in self.nodes if len(addr) == j + 1]

    def node_map(self) -> dict:
        return {addr: proj for addr, proj in self.nodes}

    def ball_center(self, address: tuple, ctx: PrecisionContext) -> PadicScalar:
        """The Z_p number picked out by a digit path of the tree, scaled by p^k."""
        total = sum(self.lifts[j][idx] * ctx.p**j for j, idx in enumerate(address))
        return PadicScalar.from_residue(total, ctx).shift(self.lead_valuation)


def spectral_measure(a: UMatrix, depth: int) -> SpectralMeasure:
    """Build the nested projector tree of a period-1 operator to a given depth.

    Each digit of the expansion is resolved against the p fixed points of
    sigma; level j of the tree multiplies the first j+1 resolutions
    together.  Nonzero products are orthogonal projections, and in
    dimension n at most n of them survive at any level.

    The tree is _spectral_tree's, built and certified on residue rows mod
    p^m (_verify_tree); its addresses are the residues mod p of the
    points.  Only the emitted nodes are built as matrices.  Each
    projector is wrapped once (every one is a factor of some survivor, as
    the parents sum to 1), and each node below level 0 is the
    scalar-level product parent * proj, whose entries keep m digits past
    their own valuation and agree with the certified rows mod p^m.
    Those products keep the object semantics of PadicScalar addition
    (each partial sum truncated to m digits, left to right) but run on
    (valuation, unit) ints in PadicScalar.dot.
    """
    ctx = a.ctx
    ops = residue_ops(ctx, a.ext_ring)
    if ops.degree > 1:
        raise ValueError("the ball measure is built over Z_p (base matrices)")
    if not 1 <= depth <= ctx.m:
        raise ValueError(f"depth must be in [1, m]; got {depth}")
    lead_valuation, digits = _hermite_rows(a, 1, depth)
    _, levels = _spectral_tree(digits, ops, 1)
    nodes, lifts, emitted = [], [], {(): None}
    for level in levels:
        lifts.append({i: lift for i, (lift, _) in level.terms.items()})
        projs = {i: _wrap_residues(rows, ctx, None) for i, (_, rows) in level.terms.items()}
        parents, emitted = emitted, {}
        for address, _ in level.nodes:
            parent, proj = parents[address[:-1]], projs[address[-1]]
            emitted[address] = proj if parent is None else parent * proj
        nodes.extend(emitted.items())
    return SpectralMeasure(depth, lead_valuation, tuple(nodes), tuple(lifts))


def _res_sum(terms: list, ops):
    """Entrywise sum of residue matrices; None for no terms."""
    total = None
    for rows in terms:
        total = rows if total is None else ops.rows_add(total, rows)
    return total


def spectral_integral(measure: SpectralMeasure):
    """Sum the deepest level of the measure, plain and center-weighted.

    Returns (identity_check, reconstruction): the bare sum of the deepest
    projectors, which must be the identity, and the ball-center weighted
    sum, which approximates the source operator to p^-(k + depth).
    """
    deepest = measure.level(measure.depth - 1)
    if not deepest:
        raise ValueError("measure has no nodes at its deepest level")
    ctx = deepest[0][1].ctx
    identity_check = None
    reconstruction = None
    for addr, proj in deepest:
        identity_check = proj if identity_check is None else identity_check + proj
        weighted = proj.scale(measure.ball_center(addr, ctx))
        reconstruction = weighted if reconstruction is None else reconstruction + weighted
    return identity_check, reconstruction


# -- Jordan decomposition ----------------------------------------------------------


class JordanPair(NamedTuple):
    """Canonical splitting A = A_s + A_n.

    semisimple is fixed by sigma^period mod p^m; sigma-iterates of the
    nilpotent part reach 0 mod p^m after steps_to_kill applications.
    """

    semisimple: UMatrix
    nilpotent: UMatrix
    period: int
    steps_to_kill: int


def jordan_decompose(a: UMatrix, period_bound: int = 8) -> JordanPair:
    """Split an integral matrix into its multiplicative and nilpotent parts.

    Repeated p-th powers of A enter a cycle whose length is the period of
    the multiplicative part; the cycle element whose index is a multiple
    of that period is the canonical A_s (it has the same reduction as the
    semisimple part of A mod p).  The remainder A - A_s is checked to be
    topologically nilpotent: its reduction mod p is nilpotent, so A_n^n
    is 0 mod p and A_n^(n m) is 0 mod p^m, and its orbit reaches 0 within
    the least k with p^k >= n m steps.  Its kill count is the step at
    which it does.  scan_orbit walks the first orbit on residue rows, and
    an orbit that reaches 0 is its own nilpotent part.  If no period up
    to period_bound appears within the budget, the verdict is
    PeriodExceededError.
    """
    if not a.is_integral:
        raise ValueError("jordan_decompose requires |A| <= 1")
    ctx = a.ctx
    ops = residue_ops(ctx, a.ext_ring)
    rows, step, wrap = a.residue_orbit()
    report = scan_orbit(rows, step, period_bound, ctx)
    if report.kind is OrbitKind.TOP_NILPOTENT:
        return JordanPair(wrap(ops.map_coords(rows, lambda c: 0)), a, 1, report.steps)
    if report.kind is OrbitKind.CHAOS_AT_PRECISION:
        raise PeriodExceededError(period_bound, report.budget)
    # the cycle is entered at step steps - period; A_s sits at the next multiple of the period
    cycle = rows if report.limit is None else report.limit
    for _ in range((report.period - report.steps) % report.period):
        cycle = step(cycle)
    semisimple = wrap(cycle)
    nilpotent = a - semisimple
    killed, kill = nilpotent.residues(), 0
    while not ops.rows_are_zero(killed):
        if ctx.p**kill >= a.n * ctx.m:
            raise RuntimeError("nilpotent part failed to vanish (internal defect)")
        killed, kill = step(killed), kill + 1
    return JordanPair(semisimple, nilpotent, report.period, kill)


# -- spectrum, diameter, uncertainty --------------------------------------------


def operator_spectrum(a: UMatrix, period: int = 1) -> list:
    """Eigenvalue/projector pairs from the fully refined digit resolution.

    The deepest level of _spectral_tree over all m digits, certified by
    _verify_tree: each node's projector, with the sum of the points along
    its address, each shifted by p^(k + level) and added left to right,
    as its eigenvalue, a scalar of the ambient ring.  The tree resolves
    digit 0 and every digit at which a ball splits; the others pass its
    nodes through (see _spectral_tree).  Only the deepest projectors are
    built as matrices.

    A period N > 1 resolves in the extension ring O_K/p^m, where p^k is 0
    once k >= m, so it needs an operator of valuation 0 <= k < m; any
    other valuation is refused with ValueError.
    """
    ring, centers, rows = _spectrum(a, period)
    return [(center, _wrap_residues(r, a.ctx, ring)) for center, r in zip(centers, rows)]


def _spectrum(a: UMatrix, period: int):
    """operator_spectrum on residue rows: (ambient ring, eigenvalues, projector rows)."""
    ctx = a.ctx
    k, digits = _hermite_rows(a, period, ctx.m)
    if period > 1 and not 0 <= k < ctx.m:
        raise ValueError(f"period > 1 spectra need a valuation in [0, m) = [0, {ctx.m}); got {k}")
    ops, levels = _spectral_tree(digits, residue_ops(ctx, a.ext_ring), period)
    make = _entry_maker(ctx, ops.ring)
    shifted = [
        {index: make(lift).shift(k + j) for index, (lift, _) in level.terms.items()}
        for j, level in enumerate(levels)
    ]
    deepest = levels[-1].nodes
    centers = [
        functools.reduce(operator.add, map(dict.__getitem__, shifted, address))
        for address, _ in deepest
    ]
    return ops.ring, centers, [rows for _, rows in deepest]


class SpectrumDiameter(NamedTuple):
    """Largest pairwise eigenvalue distance, with the operator-norm cross-check."""

    diameter: float
    diameter_valuation: object
    operator_norm: float
    spectrum: tuple
    period: int


def spectrum_diameter(a: UMatrix, period: int = 1) -> SpectrumDiameter:
    """diam(A) = max |lambda - mu| over the spectrum.

    Cross-checks that the operator norm is the largest eigenvalue norm
    and that every translation A - mu by a spectrum point has norm equal
    to the diameter (at the resolved precision).  The spectrum is
    operator_spectrum's, read on residue rows: no projector is built.
    """
    ctx = a.ctx
    ring, lams, _ = _spectrum(a, period)
    diam_val = min(((x - y).valuation for x, y in itertools.combinations(lams, 2)), default=INFINITE)
    diam = norm_from_valuation(ctx.p, diam_val)
    lam_val = min((lam.valuation for lam in lams), default=INFINITE)
    if lam_val != a.valuation:
        raise RuntimeError("operator norm differs from max eigenvalue norm (internal defect)")
    _check_translations(a, ring, lams, diam_val, ctx)
    return SpectrumDiameter(
        diameter=diam,
        diameter_valuation=diam_val,
        operator_norm=a.norm,
        spectrum=tuple(lams),
        period=period,
    )


def _check_translations(a: UMatrix, ring, lams: list, diam_val, ctx: PrecisionContext):
    if not lams:
        return
    k = min(lam.valuation for lam in lams)
    resolved = (0 if k == INFINITE else int(min(k, 0))) + ctx.m
    for val in _translation_valuations(a, ring, lams):
        if diam_val == INFINITE:
            if val < resolved:
                raise RuntimeError("translation law failed for a singleton spectrum (internal defect)")
        elif val != diam_val:
            raise RuntimeError("translation by a spectrum point changed the norm (internal defect)")


def _translation_valuations(a: UMatrix, ring, lams) -> list:
    """The valuation of A - lam I over ring (None for Z_p) for each scalar lam of ring.

    Off the diagonal A - lam I is A, so the minimum over those entries
    is taken once; each lam adds only its n diagonal differences.
    """
    rows = a.promote(ring).rows
    off_diagonal = min(
        (e.valuation for i, row in enumerate(rows) for j, e in enumerate(row) if i != j),
        default=INFINITE,
    )
    diagonal = [row[i] for i, row in enumerate(rows)]
    return [min(off_diagonal, min((d - lam).valuation for d in diagonal)) for lam in lams]


class UncertaintyReport(NamedTuple):
    """Both sides of |[A, B] psi| <= diam(A) diam(B), and the verdict."""

    lhs_norm: float
    rhs_norm: float
    holds: bool
    lhs_valuation: object
    diam_a: SpectrumDiameter
    diam_b: SpectrumDiameter


def uncertainty_check(
    a: UMatrix, b: UMatrix, psi: Sequence, period: int = 1
) -> UncertaintyReport:
    """Evaluate the commutator inequality on one normalised vector."""
    return uncertainty_checks(a, b, (psi,), period)[0]


def uncertainty_checks(a: UMatrix, b: UMatrix, psis: Sequence, period: int = 1) -> list:
    """Evaluate the commutator inequality on each normalised vector.

    Every psi must have sup norm exactly 1, which is checked before any
    other work, and both operators must pass the digit expansion
    (NotHermiteError propagates).  The diameters and the commutator do
    not depend on psi and are computed once.  A violation is returned
    with holds=False so the caller can persist the counterexample; it
    never passes silently.
    """
    if any(vector_valuation(psi) != 0 for psi in psis):
        raise ValueError("psi must have sup norm 1")
    da = spectrum_diameter(a, period)
    db = spectrum_diameter(b, period)
    commutator = a * b - b * a
    # the commutator is only resolved to the window p^(k_A + k_B + m),
    # k = min(0, valuation); anything beyond it is zero at precision
    window = min(0, a.valuation) + min(0, b.valuation) + a.ctx.m
    rhs_val = da.diameter_valuation + db.diameter_valuation  # INFINITE if either is
    reports = []
    for psi in psis:
        lhs_val = vector_valuation(commutator.apply(tuple(psi)))
        if lhs_val >= window:
            lhs_val = INFINITE
        reports.append(
            UncertaintyReport(
                lhs_norm=norm_from_valuation(a.ctx.p, lhs_val),
                rhs_norm=norm_from_valuation(a.ctx.p, rhs_val),
                holds=lhs_val >= rhs_val,
                lhs_valuation=lhs_val,
                diam_a=da,
                diam_b=db,
            )
        )
    return reports
