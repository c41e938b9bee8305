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
single eigenvalue class, deeper digits only relabel it: at a digit
where no ball splits, the digit is the sum of the balls, each times the
Teichmuller point of its index.  So the tree commands read such a digit
and its level off the level above, and run Newton's method and the full
resolution only at level 0 and at the levels where some node splits.

The same machinery yields the canonical splitting A = A_s + A_n into a
multiplicative part and a topologically nilpotent part, the spectrum
diameter, and the commutator inequality
|[A, B] psi| <= diam(A) * diam(B) for unit psi.

The pipeline exchanges residue rows mod p^m and one ops handle, the
entry protocol of padic._BaseOps or finite_field._ExtOps, which alone
knows what an entry is, taken from the matrix's ring (a
PrecisionContext or an ExtRing, never None); ops.ring is that ring
again, which builds the scalars and matrices returned (_wrap_residues)
and, at another precision, the ops of a peeling stage (ring.at).
_peel is the one digit-peeling loop: hermite runs it
bare (_hermite_rows), the tree commands with the tree, whose levels it
reads off the level above where no node splits (_read_off) and builds
otherwise (_level, the one level builder, over the resolution
_resolve).  _spectral_tree collects a tree and _verify_tree certifies
it (which, with the points, proves every resolved digit fixed by
sigma^N), for the Lagrange resolution (the one-level tree whose digit
is the operator itself), the measure and the spectrum (so diam and
uncertainty) alike.  _ambient moves base rows to the degree-N ring at
period N > 1, and the points are Teichmuller lifts kept as residues
(padic._teichmuller_residue, the one lift over either ring).  Scalars
and matrices are built only when a caller reads a record's view:
SpectralDecomposition and HermiteDigitsMatrix keep their ring and the
certified residue rows, and build their points and digits on each read;
SpectralMeasure keeps its nodes as (valuation, unit) rows, formed from
the certified rows by padic._dot_units, and builds them on each read.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import NamedTuple, Sequence

from .finite_field import SCAN_PER_DEGREE, _scan_roots, ext_ring, poly_roots
from .matrix import (
    UMatrix,
    _hessenberg_charpoly,
    _res_identity,
    _res_matmul_blocks,
    _res_matpow,
    _wrap_residues,
    vector_valuation,
)
from .padic import (
    INFINITE,
    OrbitKind,
    PadicScalar,
    PrecisionContext,
    _check_period,
    _dot_units,
    _residue_units,
    _teichmuller_residue,
    norm_from_valuation,
    pre_period_bound,
    scan_orbit,
)


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


def _sigma_limit(rows: tuple, period: int, ops):
    """Stationary point of y -> y^q mod p^m, q = p^period, or None on a cycle mod p.

    The rows are over the ring of ops, which gives p and m.  The sigma
    phase takes sigma^period steps while X^q and X differ mod p.  The
    orbit mod p is on its cycle from sigma step
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
    p, modulus = ops.p, ops.q
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
    for _ in range((ops.m - 1).bit_length()):
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
    ops = a.ring.ops
    rows = a.residues()
    defect = ops.rows_sub(ops.matmul(rows, rows), rows)
    if not ops.rows_are_zero(ops.map_coords(defect, ops.p.__rmod__)):
        raise ValueError("input is not idempotent mod p")
    limit = _sigma_limit(rows, 1, ops)
    if limit is None:
        raise RuntimeError("idempotent lift failed to stabilise (internal defect)")
    if ops.matmul(limit, limit) != limit:
        raise RuntimeError("sigma limit of an idempotent is not idempotent (internal defect)")
    if not ops.rows_are_zero(ops.map_coords(ops.rows_sub(limit, rows), ops.p.__rmod__)):
        raise RuntimeError("idempotent lift changed the reduction (internal defect)")
    return _wrap_residues(limit, a.ring)


# -- Lagrange spectral decomposition -------------------------------------------


class SpectralDecomposition(NamedTuple):
    """Resolution of a sigma^N-fixed operator against the period-N points.

    The record keeps the certified residues: ring is the ring of the
    points (the operator's own, or the degree-N extension of Z/p^m for a
    base operator at N > 1), and point_residues pairs the residue mod
    p^m of each point with a nonzero projector with that projector as
    residue rows over ring.  points is the view of (eigenvalue,
    projector) pairs, a scalar and a UMatrix each, built every time it
    is read.  The four defining identities (projectors sum to 1,
    weighted sum reproduces the operator, idempotency, pairwise
    orthogonality) are certified mod p^m by the tree certificate
    (_verify_tree on the one-level tree) before the decomposition is
    built; residual_identity_defect records the sup norm of
    sum(projectors) - 1 and is 0.0 for every emitted decomposition.
    """

    period: int
    ring: object
    point_residues: tuple
    residual_identity_defect: float

    @property
    def points(self) -> tuple:
        return tuple((self.ring.element(lam), _wrap_residues(rows, self.ring)) for lam, rows in self.point_residues)

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
    p^D, that the ambient entries reduce into (D = 1 over Z_p), the
    ambient ring at precision 1.  For
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
    field = ops.ring.at(1).ops
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

    _level runs it at level 0 and at each level where some node splits;
    _read_off covers the other levels of a tree command.  It costs a
    characteristic polynomial mod p, its roots and one lift per root,
    one p^N-th power of each lift when the ambient degree D exceeds N,
    then 3(k - 2) matrix products for the projectors of k >= 2 points:
    the numerator of point j is the prefix product of the shifted
    matrices x - mu before j times the suffix product after j.  The k
    Lagrange denominators, each checked to be a unit, take one
    inversion per resolution: the inverse of their product, from which
    back-substitution through the prefix products gives each one's.

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
    denominators = []
    for k, lam in enumerate(lifts):
        denominator = ops.one
        for j, mu in enumerate(lifts):
            if j != k:
                denominator = ops.mul(denominator, ops.sub(lam, mu))
        if not ops.is_unit(denominator):
            raise RuntimeError("Lagrange denominator is not a unit (internal defect)")
        denominators.append(denominator)
    # Montgomery's batch inversion: prefixes[k] = d_0 ... d_(k-1), one inverse of the whole product
    prefixes = [ops.one, *itertools.accumulate(denominators, ops.mul)]
    inverse = ops.inv_unit(prefixes.pop()) if denominators else None
    resolved = []
    for k in reversed(range(len(denominators))):  # inverse is (d_0 ... d_k)^-1 here
        resolved.append(ops.rows_mul(ops.mul(inverse, prefixes[k]), numerators[k]))
        inverse = ops.mul(inverse, denominators[k])
    return lifts, ops, rows, resolved[::-1]


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
    address order, and only when the points view is read.
    """
    if not x.is_integral:
        raise ValueError("teichmuller_spectral requires |x| <= 1")
    ops, (level,) = _spectral_tree([(x.residues(), x.ring.ops, None)], x.ring.ops, period)
    residues = tuple((level.terms[index][0], rows) for (index,), rows in level.nodes)
    return SpectralDecomposition(period, ops.ring, residues, 0.0)


# -- digit expansion -------------------------------------------------------------


class HermiteDigitsMatrix(NamedTuple):
    """Digit expansion A = sum_i x_i p^(k+i) with sigma^N-fixed commuting digits.

    digit_rows holds each digit x_i as residue rows mod p^m over ring,
    the operator's ring; digits is their view as UMatrix, built every
    time it is read.
    """

    lead_valuation: int
    digit_rows: tuple
    period: int
    ring: object

    @property
    def digits(self) -> tuple:
        return tuple(_wrap_residues(rows, self.ring) for rows in self.digit_rows)

    @property
    def ctx(self) -> PrecisionContext:
        return self.ring.ctx

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
    m - 1 (see _peel), and reduces the digits back to precision m; this
    keeps every emitted digit exact mod p^m and the digits pairwise
    commuting mod p^m.

    Each limit is a sigma phase (sigma^N steps until the tail is
    stationary mod p, none for a tail that already is) followed by
    Newton's method on X^(p^N) = X at the stage's precision P, so a
    digit costs at most ceil(P_1 / N) + ceil(log2 P) + 1 matrix powers,
    P_1 = pre_period_bound(p, 1, n deg) for a degree-deg ring (see
    _sigma_limit), each of O(N log2 p) products of n x n matrices.
    hermite builds no tree, so every stage pays this bound; a tree
    command pays it only at the stages that it cannot read off the tree
    (_read_off).  The peeling runs on residue rows (_hermite_rows), and
    the record keeps them: a digit is built as a matrix only when its
    digits view is read.
    """
    k, digits = _hermite_rows(a, period, a.ctx.m)
    return HermiteDigitsMatrix(k, digits, period, a.ring)


def _hermite_rows(a: UMatrix, period: int, depth: int):
    """The digit peeling of hermite_digits_matrix: (lead valuation, digit rows 0..depth-1 mod p^m).

    _peel without the tree, each stage's digit reduced mod p^m.
    """
    k, stages = _peel(a, period, depth, False)
    q = a.ring.ops.q
    return k, tuple([ops.map_coords(digit, q.__rmod__) for digit, ops, _ in stages])


def _peel(a: UMatrix, period: int, depth: int, tree: bool):
    """The one digit-peeling loop: (lead valuation, the stages below the depth).

    The stages are a generator, which peels as it is read and yields
    (digit i mod p^(P_i), the ops of its precision P_i, level i or None)
    for each stage i < depth.  Every stage i < m is run, as every one can
    refuse the input, but each at only the precision its outputs need.
    The sigma limit and the tail below are integer polynomial maps of the
    entries, so digit i mod p^j depends only on tail i mod p^j, and tail
    i + 1 = (tail i - digit i) / p mod p^j only on tail i mod p^(j + 1).
    Digit depth - 1 is wanted mod p^m, so stage i < depth runs at
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
    reaches the verdict of the stage at 2m.  A period below 1 is refused
    with ValueError.

    With the tree, level i is built right after stage i finds its digit,
    over the ambient ring at P_i, and stage i + 1 first tries to read
    its digit L off level i (_read_off).  That succeeds exactly when no
    node splits, and gives Newton's digit, level i + 1 and the tail
    T - L that is divided by p.  Otherwise the stage runs _sigma_limit
    and its tail check, and the level is resolved (_level) under level
    i.  Stages past the depth
    build no level and read nothing off: at their m - i digits Newton's
    method costs no more than the read-off's certificate.  The tail
    check of stage i raises before level i is built, so refusals keep
    their stage and text, and a refusal at digit s pays the levels
    before s - 1.  An extension ring whose degree the period does not
    divide gets no levels: _spectral_tree resolves level 0 itself, and
    _resolve refuses the period there.
    """
    _check_period(period)
    ring = a.ring
    k = a.valuation
    if k == INFINITE:
        k, rows = 0, a.residues()
    else:  # a.shift(-k).residues(), without building the shifted matrix
        rows = tuple([tuple([e.shift(-k).residue_key() for e in row]) for row in a.rows])
    if tree:
        try:
            _ambient((), ring.ops, period)
        except ValueError:
            tree = False
    return int(k), _stages(rows, ring, period, depth, tree)


def _stages(rows: tuple, ring, period: int, depth: int, tree: bool):
    """The loop of _peel over the stages, from the shifted rows over ring."""
    p, m = ring.ops.p, ring.ops.m
    level = None
    for i in range(m):
        ops = ring.at(m + depth - 1 - i if i < depth else m - i).ops
        if i == depth:
            rows = ops.map_coords(rows, ops.q.__rmod__)
        read = i < depth and level and _read_off(level, rows, ops, period)
        if read:
            limit, tail, level = read
        else:
            limit = _sigma_limit(rows, period, ops)
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
            if tree and not read:
                level = _level(limit, level, ops, period)
            yield limit, ops, level
        rows = ops.map_coords(tail, p.__rfloordiv__)


# -- the digit tree and its certificate -----------------------------------------------


class _TreeLevel(NamedTuple):
    """One level of the digit tree, on residue rows over the ambient ring.

    digit is the level's digit; terms maps each point's index to (the
    point's residue, projector rows), in the order of the resolution;
    nodes holds (address, rows) for the nonzero products, in address
    order; ops is the ambient ring's ops at the precision that the rows
    are kept at: a level read off the one above (_read_off) keeps the
    rows of its parent's nodes, at the parent's precision.
    """

    digit: tuple
    terms: dict
    nodes: list
    ops: object = None


def _level(digit: tuple, parent, ops, period: int) -> _TreeLevel:
    """The tree level of digit, resolved against the period-N points under the parent level.

    The one level builder of every tree: digit is resolved (_resolve)
    and each node of the parent level (None above level 0), reduced to
    the ambient precision first since the packed products need canonical
    entries, is multiplied by all of the projectors in one
    _res_matmul_blocks, dropping zero children.  A child's address
    extends its parent's by the index of its point, the point's
    reduction mod p (ops.reduce: an int over Z_p, a coordinate tuple
    over an extension).  The points come ordered by that index, so the
    level is in address order.
    """
    lifts, ambient, digit, projectors = _resolve(digit, ops, period)
    indices = list(map(ambient.reduce, lifts))
    rmod = ambient.q.__rmod__
    children = []
    for addr, node in parent.nodes if parent else [((), None)]:
        if node is None:
            blocks = projectors
        else:
            blocks = _res_matmul_blocks(ambient.map_coords(node, rmod), projectors, ambient)
        children += [(addr + (i,), c) for i, c in zip(indices, blocks) if not ambient.rows_are_zero(c)]
    return _TreeLevel(digit, dict(zip(indices, zip(lifts, projectors))), children, ambient)


def _read_off(level: _TreeLevel, tail: tuple, ops, period: int):
    """(digit, T - digit, level) of the stage whose input is T = tail, read off the level above, or None.

    tail is over ops, at a precision P no higher than the level's.  The
    level's node rows N are kept as they are, and the level read off
    keeps them (see _TreeLevel): only the packed products reduce them to
    P.  Each node gets the index lambda = (N T)[r][c] / N[r][c] mod p at
    its first unit entry (one dot product), and the candidate digit is
    L = sum_lambda omega(lambda) E_lambda, with E_lambda the sum of the
    nodes of index lambda and omega the Teichmuller lift.  A base
    operator at N > 1 forms L in the degree-N ring from the promoted
    tail (_ambient), and L must come back with constant coordinates.
    L is accepted when the stage's own tail check holds, T - L = 0 mod
    p, which is decided on the indices before any point is lifted, and
    L has the certificate of a Newton limit: L^(p^N) = L and L T = T L
    mod p^P.  Two sigma^N-fixed matrices that commute and agree mod p
    are equal, and Newton's limit is a polynomial in T, so L is then
    the sigma^N-limit of T, and the level below has the same nodes, each
    under its index.  A node without a unit entry, a tail that some
    node's image does not match mod p (the level splits) or a candidate
    without the certificate gives None, and the stage runs Newton's
    method and resolves the level.
    """
    ambient, rows = _ambient(tail, ops, period)
    rmod = ambient.q.__rmod__
    children, by_index = [], {}  # the sum of the nodes of each index
    for address, node in level.nodes:
        units = ((r, c) for r, row in enumerate(node) for c, e in enumerate(row) if ambient.is_unit(e))
        r, c = next(units, (None, None))
        if r is None:
            return None
        image = ambient.dot(ambient.map_coords(node[r : r + 1], rmod)[0], [row[c] for row in rows])
        index = ambient.reduce(ambient.mul(image, ambient.inv_unit(node[r][c])))
        children.append((address + (index,), node))
        by_index[index] = ambient.rows_add(by_index[index], node) if index in by_index else node
    # the sums E_i and the tail, flattened, as the rows of one matrix for the packed products
    indices, flat = sorted(by_index), itertools.chain.from_iterable
    stack = ambient.map_coords(tuple([tuple(flat(by_index[i])) for i in indices]), rmod) + (tuple(flat(rows)),)
    # decided mod p, before any point is lifted: T - sum_i i E_i = 0 mod p
    defect = ambient.matmul((tuple(map(ambient.neg, indices)) + (ambient.one,),), stack)
    if not ambient.rows_are_zero(ambient.map_coords(defect, ops.p.__rmod__)):
        return None
    lifts = tuple([_teichmuller_residue(i, ambient) for i in indices])
    # L = sum_i omega(i) E_i and T - L, both off the packed stack
    n, zero = len(rows), (ambient.zero,)
    weighted = ambient.matmul((lifts + zero, tuple(map(ambient.neg, lifts)) + (ambient.one,)), stack)
    digit, rest = (tuple([flat[j : j + n] for j in range(0, n * n, n)]) for flat in weighted)
    terms = {i: (lift, by_index[i]) for i, lift in zip(indices, lifts)}
    limit = digit
    if ambient is not ops:  # the constant coordinates of the digit and the rest, promoted back by _ambient
        limit, rest = (ops.map_coords(rows, operator.itemgetter(0)) for rows in (digit, rest))
        if _ambient(limit, ops, period)[1] != digit:
            raise RuntimeError("digit read off the tree is not a base matrix (internal defect)")
    if _res_matpow(limit, ops.p**period, ops) != limit:
        return None
    if ops.matmul(limit, tail) != ops.matmul(tail, limit):
        return None
    return limit, rest, _TreeLevel(digit, terms, children, level.ops)


def _spectral_tree(stages, ops, period: int):
    """The certified digit tree of the stages: (ambient ops, levels mod p^m).

    stages gives (digit, stage ops, level) for each level in turn: the
    level when the stage built it (_peel), or None for a digit to
    resolve here (_level) under the level before, as for the one-level
    tree of teichmuller_spectral, whose digit is x itself.  ops is the
    input's own ring at p^m.  The levels are reduced mod p^m, into the
    ambient ring (the operator's own, or the degree-N extension of a
    base operator at N > 1), and _verify_tree certifies every level
    before the tree is returned.  Every spectral command runs this one
    tree: teichmuller_spectral on the single digit x, spectral_measure
    to its depth, operator_spectrum over all m digits.

    The certificate also proves every resolved digit fixed by sigma^N
    mod p^m, so no sigma^N power is taken on an accepted tree.  It shows
    digit X = sum_i lambda_i E_i, with E_i the sums of the level's nodes
    by index, orthogonal idempotents summing to 1; hence X^(p^N) =
    sum_i lambda_i^(p^N) E_i, which is X once every point lambda_i is
    fixed by sigma^N.  _teichmuller_residue checks its point fixed by
    sigma^D, which is sigma^N when the ambient degree D equals N, and
    _resolve checks lambda^(p^N) = lambda itself when D > N.  When
    building or certifying the tree raises, the digits resolved here
    are checked in level order, and the first that is not fixed is
    refused with ValueError and the sup norm of X^(p^N) - X; any other
    failure is raised unchanged.  The digits of _peel are sigma^N
    limits, fixed by construction.  A period below 1 is refused with
    ValueError before any work.
    """
    _check_period(period)
    levels, level, resolved = [], None, []
    try:
        for digit, stage, built in stages:
            if built is None:
                resolved.append((digit, stage))
                built = _level(digit, level, stage, period)
            level = built
            levels.append(level)
        ambient = _ambient((), ops, period)[0]
        levels = _reduced(levels, ambient)
        _verify_tree(levels, ambient)
    except Exception:
        for digit, stage in resolved:
            image = _res_matpow(digit, stage.p**period, stage)
            if image != digit:
                valuation = min(map(stage.valuation, itertools.chain.from_iterable(stage.rows_sub(image, digit))))
                defect = norm_from_valuation(stage.p, valuation)
                reason = f"input is not fixed by sigma^{period} mod p^m (defect norm {defect})"
                raise ValueError(reason) from None
        raise
    return ambient, levels


def _reduced(levels: list, ops) -> list:
    """The levels mod p^m over ops, the ambient ring at p^m: digits, points, term rows and nodes.

    A level kept at p^m over ops is returned as it is.  A level read off
    the one above keeps its parent's node rows, and a term of one node
    its node's rows, so rows are reduced once per object, however many
    levels share them.
    """
    rmod, memo = ops.q.__rmod__, {}

    def reduce(rows):
        if id(rows) not in memo:
            memo[id(rows)] = ops.map_coords(rows, rmod)
        return memo[id(rows)]

    return [
        level if level.ops is ops else _TreeLevel(
            reduce(level.digit),
            {i: (ops.add(lift, ops.zero), reduce(rows)) for i, (lift, rows) in level.terms.items()},
            [(address, reduce(rows)) for address, rows in level.nodes],
            ops,
        )
        for level in levels
    ]


def _verify_tree(levels: list, ops):
    """Certify a digit tree mod p^m on residue rows, over any ring.

    At the deepest level: P_i^2 = P_i and P_i P_j = 0 for every pair of
    nodes i < j, one _res_matmul_blocks per node.  At every level j: the
    nodes sum to 1; each node of level j - 1 is the sum of its children;
    the nodes weighted by the Teichmuller lift of the last index of their
    address sum to digit j, so each projector sits under its own digit.
    Each level's nodes are summed once per parent and once per index, so
    the three checks cost about two additions per node and one stacked
    product per level: the 1 x k row of the lifts times the k x n^2
    matrix of the flattened index sums.

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
    n = len(levels[0].digit)
    ident = _res_identity(n, ops)
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
        # sum_i omega(i) E_i: the row of lifts times the flattened index sums, one stacked product
        lifts = tuple([level.terms[index][0] for index in by_index])
        stack = tuple([tuple(itertools.chain.from_iterable(rows)) for rows in by_index.values()])
        (weighted,) = ops.matmul((lifts,), stack)
        if tuple([weighted[r : r + n] for r in range(0, n * n, n)]) != level.digit:
            raise RuntimeError(f"level {j} projectors do not reassemble digit {j} (internal defect)")
        parents = level.nodes


# -- the projector-valued measure -------------------------------------------------


class SpectralMeasure(NamedTuple):
    """Finitely additive projector assignment on depth-d digit balls, over the context ctx.

    node_rows maps digit-path addresses (i_0, ..., i_j) to the product
    of the per-digit projectors along the path, as rows of (valuation,
    unit) pairs ((INFINITE, 0) for zero), sorted by level then address;
    zero products are omitted.  The projectors at each level sum to the
    identity, refine their parents, and are pairwise orthogonal.
    lifts[j] maps each index of level j to the residue of its
    Teichmuller lift, the point that level j of the tree already
    computed, so the ball centers need no lift.  nodes, level and
    node_map are views that build each projector as a UMatrix every
    time they are read.
    """

    depth: int
    lead_valuation: int
    node_rows: tuple  # ((address, rows of (valuation, unit) pairs), ...) sorted by level then address
    lifts: tuple  # ({index: lift residue mod p^m}, ...) per level
    ctx: PrecisionContext

    @property
    def nodes(self) -> tuple:
        return tuple((addr, _units_matrix(rows, self.ctx)) for addr, rows in self.node_rows)

    def level(self, j: int) -> list:
        return [(addr, _units_matrix(rows, self.ctx)) for addr, rows in self.node_rows if len(addr) == j + 1]

    def node_map(self) -> dict:
        return dict(self.nodes)

    def center_units(self, address: tuple) -> tuple:
        """The (valuation, unit) pair of ball_center(address)."""
        p = self.ctx.p
        v, u = _residue_units(sum(self.lifts[j][idx] * p**j for j, idx in enumerate(address)), self.ctx)
        return (v + self.lead_valuation, u) if u else (v, u)

    def ball_center(self, address: tuple, ctx: PrecisionContext) -> PadicScalar:
        """The Z_p number picked out by a digit path of the tree, scaled by p^k."""
        return PadicScalar(ctx, *self.center_units(address))


def _units_matrix(rows: tuple, ctx: PrecisionContext) -> UMatrix:
    """The matrix of rows of (valuation, unit) pairs over ctx."""
    return UMatrix(tuple([tuple([PadicScalar(ctx, v, u) for v, u in row]) for row in rows]))


def spectral_measure(a: UMatrix, depth: int) -> SpectralMeasure:
    """Build the nested projector tree of a period-1 operator to a given depth.

    Each digit of the expansion is resolved against the p fixed points of
    sigma; level j of the tree multiplies the first j+1 resolutions
    together.  Nonzero products are orthogonal projections, and in
    dimension n at most n of them survive at any level.

    The tree is _spectral_tree's, built and certified on residue rows mod
    p^m (_verify_tree); its addresses are the residues mod p of the
    points.  No scalar is built: each level's projectors are read from
    the certified residue rows as (valuation, unit) pairs, and each node
    below level 0 is parent times projector on those pairs, entry by
    entry through padic._dot_units.  That is the relative product of
    UMatrix.__mul__ (each partial sum truncated to m digits, left to
    right), so its entries keep m digits past their own valuation and
    agree with the certified rows mod p^m.
    """
    ctx, ring = a.ctx, a.ring
    if ring is not ctx:
        raise ValueError("the ball measure is built over Z_p (base matrices)")
    if not 1 <= depth <= ctx.m:
        raise ValueError(f"depth must be in [1, m]; got {depth}")
    lead_valuation, stages = _peel(a, 1, depth, True)
    _, levels = _spectral_tree(stages, ring.ops, 1)
    nodes, lifts, emitted = [], [], {(): None}
    for level in levels:
        lifts.append({i: lift for i, (lift, _) in level.terms.items()})
        projs = {
            i: tuple([tuple([_residue_units(r, ctx) for r in row]) for row in rows])
            for i, (_, rows) in level.terms.items()
        }
        parents, emitted = emitted, {}
        for address, _ in level.nodes:
            parent, proj = parents[address[:-1]], projs[address[-1]]
            if parent is not None:
                cols = tuple(zip(*proj))
                proj = tuple([tuple([_dot_units(ctx, row, col) for col in cols]) for row in parent])
            emitted[address] = proj
        nodes.extend(emitted.items())
    return SpectralMeasure(depth, lead_valuation, tuple(nodes), tuple(lifts), ctx)


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
    sum, which approximates the source operator to p^-(k + depth).  Each
    entry is the object-level sum, added node by node in address order
    with every partial sum cut to m digits, formed on the (valuation,
    unit) pairs of the deepest rows by padic._dot_units: against unit
    multipliers for the plain sum, against the centers for the weighted
    one.  Only the two results are built as matrices.
    """
    deepest = [(addr, rows) for addr, rows in measure.node_rows if len(addr) == measure.depth]
    if not deepest:
        raise ValueError("measure has no nodes at its deepest level")
    ctx, n = measure.ctx, len(deepest[0][1])
    ones = [(0, 1)] * len(deepest)
    centers = [measure.center_units(addr) for addr, _ in deepest]
    # entry k of the flattened rows, across the deepest nodes
    stacks = list(zip(*[itertools.chain.from_iterable(rows) for _, rows in deepest]))
    identity_check, reconstruction = (
        [[_dot_units(ctx, weights, stack) for stack in stacks[i : i + n]] for i in range(0, n * n, n)]
        for weights in (ones, centers)
    )
    return _units_matrix(identity_check, ctx), _units_matrix(reconstruction, ctx)


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
    ops = a.ring.ops
    rows = a.residues()
    report = scan_orbit(rows, period_bound, ops)
    if report.kind is OrbitKind.TOP_NILPOTENT:
        return JordanPair(UMatrix.zeros(a.n, a.ring), a, 1, report.steps)
    if report.kind is OrbitKind.CHAOS_AT_PRECISION:
        raise PeriodExceededError(period_bound, report.budget)
    # the cycle is entered at step steps - period; A_s sits at the next multiple of the period
    cycle = rows if report.limit is None else report.limit
    for _ in range((report.period - report.steps) % report.period):
        cycle = _res_matpow(cycle, ops.p, ops)
    semisimple = UMatrix.from_residues(cycle, a.ring)
    nilpotent = a - semisimple
    killed, kill = nilpotent.residues(), 0
    while not ops.rows_are_zero(killed):
        if ops.p**kill >= a.n * ops.m:
            raise RuntimeError("nilpotent part failed to vanish (internal defect)")
        killed, kill = _res_matpow(killed, ops.p, ops), kill + 1
    return JordanPair(semisimple, nilpotent, report.period, kill)


# -- spectrum, diameter, uncertainty --------------------------------------------


def operator_spectrum(a: UMatrix, period: int = 1) -> list:
    """Eigenvalue/projector pairs from the fully refined digit resolution.

    The deepest level of _spectral_tree over all m digits, certified by
    _verify_tree: each node's projector, with the sum of the points along
    its address, each shifted by p^(k + level) and added left to right,
    as its eigenvalue, a scalar of the ambient ring.  The tree resolves
    digit 0 and every digit at which a ball splits; the others are read
    off the level above, which carries its nodes down (see _peel).  Only
    the deepest projectors are built as matrices.

    A period N > 1 resolves in the extension ring O_K/p^m, where p^k is 0
    once k >= m, so it needs an operator of valuation 0 <= k < m; any
    other valuation is refused with ValueError.
    """
    ring, centers, rows = _spectrum(a, period)
    return [(center, _wrap_residues(r, ring)) for center, r in zip(centers, rows)]


def _spectrum(a: UMatrix, period: int):
    """operator_spectrum on residue rows: (ambient ring, eigenvalues, projector rows)."""
    ctx = a.ctx
    k, stages = _peel(a, period, ctx.m, True)
    stages = list(stages)  # the refusals of the peel come before those of the tree
    if period > 1 and not 0 <= k < ctx.m:
        raise ValueError(f"period > 1 spectra need a valuation in [0, m) = [0, {ctx.m}); got {k}")
    ops, levels = _spectral_tree(stages, a.ring.ops, period)
    ring = ops.ring
    shifted = [
        {index: ring.element(lift).shift(k + j) for index, (lift, _) in level.terms.items()}
        for j, level in enumerate(levels)
    ]
    deepest = levels[-1].nodes
    centers = [
        functools.reduce(operator.add, map(dict.__getitem__, shifted, address))
        for address, _ in deepest
    ]
    return ring, centers, [rows for _, rows in deepest]


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
    _check_translations(a, ring, lams, diam_val)
    return SpectrumDiameter(
        diameter=diam,
        diameter_valuation=diam_val,
        operator_norm=a.norm,
        spectrum=tuple(lams),
        period=period,
    )


def _check_translations(a: UMatrix, ring, lams: list, diam_val):
    if not lams:
        return
    k = min(lam.valuation for lam in lams)
    resolved = (0 if k == INFINITE else int(min(k, 0))) + a.ctx.m
    for val in _translation_valuations(a, ring, lams):
        if diam_val == INFINITE:
            if val < resolved:
                raise RuntimeError("translation law failed for a singleton spectrum (internal defect)")
        elif val != diam_val:
            raise RuntimeError("translation by a spectrum point changed the norm (internal defect)")


def _translation_valuations(a: UMatrix, ring, lams) -> list:
    """The valuation of A - lam I over ring (A's own or an extension of it) for each scalar lam of ring.

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
