"""Spectral decomposition of operators through the p-power map.

An operator in the unit ball whose sigma^N-orbit is stationary mod p^m
splits against the p^N fixed points of sigma^N: each point gets a
Lagrange projector, nonzero projectors are orthogonal, and the operator
is the projector-weighted sum of the points.  Only the points reducing
to eigenvalues mod p have nonzero projectors, so the resolution finds
those as roots of the characteristic polynomial mod p and interpolates
over them alone: O(n^4 + n^2 log p^N) field operations plus at most
n(n-1) matrix products, however large p^N is.

Operators whose digit expansion consists of such fixed points (one per
power of p) carry a finitely additive projector-valued measure on the
balls of Z_p, indexed by digit paths; integrating the ball centers
against it reconstructs the operator to the resolved depth.

The same machinery yields the canonical splitting A = A_s + A_n into a
multiplicative part and a topologically nilpotent part, the spectrum
diameter, and the commutator inequality
|[A, B] psi| <= diam(A) * diam(B) for unit psi.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .finite_field import poly_roots
from .matrix import (
    UMatrix,
    _berkowitz_charpoly,
    _map_coords,
    _res_add,
    _res_identity,
    _res_matmul,
    _res_matpow,
    _res_scale,
    _res_sub,
    _rows_are_zero,
    _wrap_residues,
    residue_ops,
    vector_valuation,
)
from .padic import INFINITE, PadicScalar, PrecisionContext, norm_from_valuation, teichmuller_lift
from .unramified import ext_ring, teichmuller_lift_ext


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


def _sigma_limit(rows: tuple, period: int, ctx: PrecisionContext, ops, budget: int):
    """Stationary point of y -> y^(p^period) mod p^m, or None on a cycle."""
    exponent = ctx.p**period
    seen = {rows}
    cur = rows
    for _ in range(budget):
        nxt = _res_matpow(cur, exponent, ops)
        if nxt == cur:
            return cur
        if nxt in seen:
            return None
        seen.add(nxt)
        cur = nxt
    return None


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
    defect = _res_sub(_res_matmul(rows, rows, ops), rows, ops)
    if not _rows_are_zero(_map_coords(defect, lambda c: c % ctx.p)):
        raise ValueError("input is not idempotent mod p")
    limit = _sigma_limit(rows, 1, ctx, ops, ctx.budget())
    if limit is None:
        raise RuntimeError("idempotent lift failed to stabilise (internal defect)")
    pi = _wrap_residues(limit, a)
    sq = _res_matmul(limit, limit, ops)
    if sq != limit:
        raise RuntimeError("sigma limit of an idempotent is not idempotent (internal defect)")
    if not _rows_are_zero(_map_coords(_res_sub(limit, rows, ops), lambda c: c % ctx.p)):
        raise RuntimeError("idempotent lift changed the reduction (internal defect)")
    return pi


# -- Lagrange spectral decomposition -------------------------------------------


@dataclass(frozen=True)
class SpectralDecomposition:
    """Resolution of a sigma^N-fixed operator against the period-N points.

    points holds (eigenvalue, projector) pairs for the nonzero projectors
    only.  The four defining identities (projectors sum to 1, weighted
    sum reproduces the operator, idempotency, pairwise orthogonality) are
    verified mod p^m at construction; residual_identity_defect records
    the sup norm of sum(projectors) - 1 and is 0.0 for every emitted
    decomposition.
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


def _spectral_points(x: UMatrix, period: int):
    """Teichmuller lifts of the eigenvalues of x mod p, and the ambient matrix.

    The eigenvalues are the roots in F_{p^N} of the Berkowitz
    characteristic polynomial of x mod p, over the field F_{p^D} that
    the ambient entries reduce into (D = 1 over Z_p).  The ambient ring
    must contain the period-N fixed points, so a base matrix is promoted
    to the degree-N extension, and an extension matrix requires N to
    divide its ring degree.  Points are ordered by residue
    mod p (base) or by the coordinates of their reduction, the order in
    which the residue field enumerates its elements.
    """
    ctx = x.ctx
    p = ctx.p
    if period == 1 and x.ext_ring is None:
        ring, ambient, degree, deltas = None, x, 1, range(p)
    else:
        ring = x.ext_ring or ext_ring(p, period, ctx.m)
        if ring.degree % period != 0:
            raise ValueError(
                f"period {period} does not divide the extension degree {ring.degree}"
            )
        ambient, degree = x.promote(ring), ring.degree
        deltas = (a.coords for a in ring.residue_field.elements())
    ops = residue_ops(PrecisionContext(p, 1), ring)
    charpoly = _berkowitz_charpoly(_map_coords(ambient.residues(), lambda c: c % p), ops)
    roots = poly_roots(list(charpoly), p**period, degree, ops, deltas)
    if ring is None:
        return [teichmuller_lift(r, ctx) for r in roots], x
    return [teichmuller_lift_ext(ring.residue_field.element(r), ctx.m) for r in roots], ambient


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

    The work is O(n^4 + n^2 log p^N) field operations for the roots (the
    characteristic polynomial, then each gcd or splitting step; a few
    splitting shifts suffice in practice) plus at most n(n-1) matrix
    products for the projectors.
    """
    ctx = x.ctx
    if not x.is_integral:
        raise ValueError("teichmuller_spectral requires |x| <= 1")
    image = x.sigma_window(period)
    if not image.congruent(x):
        defect = (image - x).norm
        raise ValueError(
            f"input is not fixed by sigma^{period} mod p^m (defect norm {defect})"
        )
    points, ambient = _spectral_points(x, period)
    n = ambient.n
    ops = residue_ops(ambient.ctx, ambient.ext_ring)
    rows = ambient.residues()
    lam_res = [pt.residue_key() for pt in points]
    shifted = [
        tuple(
            tuple(ops.sub(e, mu) if r == c else e for c, e in enumerate(row))
            for r, row in enumerate(rows)
        )
        for mu in lam_res
    ]
    resolved = []
    for k, lam in enumerate(lam_res):
        numerator = _res_identity(n, ops) if len(lam_res) == 1 else None
        denominator = ops.one
        for j, mu in enumerate(lam_res):
            if j == k:
                continue
            numerator = shifted[j] if numerator is None else _res_matmul(numerator, shifted[j], ops)
            denominator = ops.mul(denominator, ops.sub(lam, mu))
        if not ops.is_unit(denominator):
            raise RuntimeError("Lagrange denominator is not a unit (internal defect)")
        inv = ops.inv_unit(denominator)
        resolved.append((lam, _res_scale(inv, numerator, ops)))
    _verify_decomposition(rows, resolved, ops, n)
    wrapped = tuple(
        (pt, _wrap_residues(proj, ambient)) for pt, (_, proj) in zip(points, resolved)
    )
    return SpectralDecomposition(period, wrapped, 0.0)


def _verify_decomposition(rows, resolved, ops, n):
    ident = _res_identity(n, ops)
    total = None
    weighted = None
    for lam, proj in resolved:
        if not any(ops.is_unit(e) for row in proj for e in row):
            raise RuntimeError("projector has norm != 1 (internal defect)")
        if _res_matmul(proj, proj, ops) != proj:
            raise RuntimeError("projector is not idempotent (internal defect)")
        total = proj if total is None else _res_add(total, proj, ops)
        term = _res_scale(lam, proj, ops)
        weighted = term if weighted is None else _res_add(weighted, term, ops)
    if total != ident:
        raise RuntimeError("projectors do not sum to 1 (internal defect)")
    if weighted != rows:
        raise RuntimeError("weighted projectors do not reproduce x (internal defect)")
    for i in range(len(resolved)):
        for j in range(len(resolved)):
            if i == j:
                continue
            if not _rows_are_zero(_res_matmul(resolved[i][1], resolved[j][1], ops)):
                raise RuntimeError("projectors are not pairwise orthogonal (internal defect)")


# -- digit expansion -------------------------------------------------------------


@dataclass(frozen=True)
class HermiteDigitsMatrix:
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
    runs at doubled internal precision on the canonical representatives
    and reduces the digits back to precision m; this keeps every emitted
    digit exact mod p^m and the digits pairwise commuting mod p^m.
    """
    ctx = a.ctx
    k = a.valuation
    if k == INFINITE:
        return HermiteDigitsMatrix(0, (a,) * ctx.m, period)
    work = a.shift(-k)
    ctx_hi = PrecisionContext(ctx.p, 2 * ctx.m)
    ops_hi = residue_ops(ctx_hi, work.ext_ring)
    budget = ctx_hi.budget(period)
    rows = work.residues()
    digits = []
    for i in range(ctx.m):
        limit = _sigma_limit(rows, period, ctx_hi, ops_hi, budget)
        if limit is None:
            raise NotHermiteError(
                stage=i,
                defect_norm=1.0,
                reason=f"sigma^{period} orbit of digit {i} does not stabilise",
            )
        tail = _res_sub(rows, limit, ops_hi)
        if not _rows_are_zero(_map_coords(tail, lambda c: c % ctx.p)):
            raise NotHermiteError(
                stage=i + 1,
                defect_norm=1.0,
                reason=f"nilpotent residue at digit {i + 1}",
            )
        digits.append(_wrap_residues(_map_coords(limit, lambda c: c % ctx.modulus), work))
        rows = _map_coords(tail, lambda c: c // ctx.p)
    return HermiteDigitsMatrix(int(k), tuple(digits), period)


# -- the projector-valued measure -------------------------------------------------


@dataclass(frozen=True)
class SpectralMeasure:
    """Finitely additive projector assignment on depth-d digit balls.

    nodes maps digit-path addresses (i_0, ..., i_j) to the product of the
    per-digit projectors along the path; zero products are omitted.  The
    stored projectors at each level sum to the identity, refine their
    parents, and are pairwise orthogonal.
    """

    depth: int
    lead_valuation: int
    nodes: tuple  # ((address, projector), ...) sorted by level then address

    def level(self, j: int) -> list:
        return [(addr, proj) for addr, proj in self.nodes if len(addr) == j + 1]

    def node_map(self) -> dict:
        return {addr: proj for addr, proj in self.nodes}

    def ball_center(self, address: tuple, ctx: PrecisionContext) -> PadicScalar:
        """The Z_p number picked out by a digit path, scaled by p^k."""
        total = 0
        for j, idx in enumerate(address):
            total += teichmuller_lift(idx, ctx).residue() * ctx.p**j
        return PadicScalar.from_residue(total, ctx).shift(self.lead_valuation)


def spectral_measure(a: UMatrix, depth: int) -> SpectralMeasure:
    """Build the nested projector tree of a period-1 operator to a given depth.

    Each digit of the expansion is resolved against the p fixed points of
    sigma; level j of the tree multiplies the first j+1 resolutions
    together.  Nonzero products are orthogonal projections, and in
    dimension n at most n of them survive at any level.

    Every candidate child is tested for zero on residues mod p^m; only
    the survivors are formed as scalar-level products, whose entries
    keep m digits past their own valuation.
    """
    ctx = a.ctx
    if a.ext_ring is not None:
        raise ValueError("the ball measure is built over Z_p (base matrices)")
    if not 1 <= depth <= ctx.m:
        raise ValueError(f"depth must be in [1, m]; got {depth}")
    expansion = hermite_digits_matrix(a, 1)
    ops = residue_ops(ctx)
    nodes = []
    frontier = None  # (address, projector, its residues) per node of the last level
    for level in range(depth):
        resolution = teichmuller_spectral(expansion.digits[level], 1)
        terms = sorted(
            ((lam.residue() % ctx.p, proj, proj.residues()) for lam, proj in resolution.points),
            key=lambda term: term[0],
        )
        if frontier is None:
            frontier = [((idx,), proj, rows) for idx, proj, rows in terms]
        else:
            new_frontier = []
            for address, parent, parent_rows in frontier:
                for idx, proj, proj_rows in terms:
                    rows = _res_matmul(parent_rows, proj_rows, ops)
                    if not _rows_are_zero(rows):
                        new_frontier.append((address + (idx,), parent * proj, rows))
            frontier = new_frontier
        nodes.extend((address, child) for address, child, _ in frontier)
    measure = SpectralMeasure(depth, expansion.lead_valuation, tuple(nodes))
    _verify_measure(measure, expansion.digits)
    return measure


def _verify_measure(measure: SpectralMeasure, digits: Sequence[UMatrix]):
    """Check every level, pair and parent of the tree mod p^m, on residues.

    Per level: the projectors are pairwise orthogonal and sum to 1.  Per
    node above the deepest level: its children sum to it.  Per level j:
    the nodes weighted by the Teichmuller lift of the last index of their
    address sum to digit j, so each projector sits under its own digit.
    """
    first = measure.nodes[0][1]
    ctx = first.ctx
    ops = residue_ops(ctx)
    ident = _res_identity(first.n, ops)
    residues = [(address, proj.residues()) for address, proj in measure.nodes]
    for j in range(measure.depth):
        layer = [rows for address, rows in residues if len(address) == j + 1]
        for i, pa in enumerate(layer):
            for pb in layer[i + 1 :]:
                if not _rows_are_zero(_res_matmul(pa, pb, ops)):
                    raise RuntimeError("same-level projectors overlap (internal defect)")
        if _res_sum(layer, ops) != ident:
            raise RuntimeError(f"level {j} projectors do not sum to 1 (internal defect)")
    children = {}
    for address, rows in residues:
        children.setdefault(address[:-1], []).append(rows)
    for address, rows in residues:
        if len(address) < measure.depth and _res_sum(children.get(address, []), ops) != rows:
            raise RuntimeError("projector does not refine into its children (internal defect)")
    for j in range(measure.depth):
        weighted = [
            _res_scale(teichmuller_lift(address[-1], ctx).residue(), rows, ops)
            for address, rows in residues
            if len(address) == j + 1
        ]
        if _res_sum(weighted, ops) != digits[j].residues():
            raise RuntimeError(f"level {j} projectors do not reassemble digit {j} (internal defect)")


def _res_sum(terms: list, ops):
    """Entrywise sum of residue matrices; None for no terms."""
    total = None
    for rows in terms:
        total = rows if total is None else _res_add(total, rows, ops)
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


@dataclass(frozen=True)
class JordanPair:
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
    topologically nilpotent.  If no period up to period_bound appears
    within the budget, the verdict is PeriodExceededError.
    """
    if not a.is_integral:
        raise ValueError("jordan_decompose requires |A| <= 1")
    ctx = a.ctx
    ops = residue_ops(a.ctx, a.ext_ring)
    budget = ctx.budget(period_bound) + period_bound
    iterates = [a.residues()]
    found = None
    for k in range(1, budget + 1):
        iterates.append(_res_matpow(iterates[-1], ctx.p, ops))
        for period in range(1, min(period_bound, k) + 1):
            if iterates[k - period] == iterates[k]:
                found = (k, period)
                break
        if found:
            break
    if not found:
        raise PeriodExceededError(period_bound, budget)
    k, period = found
    start = k - period
    j = start + (-start) % period
    semisimple = _wrap_residues(iterates[j], a)
    nilpotent = a - semisimple
    steps = _steps_to_zero(nilpotent, ops, ctx)
    return JordanPair(semisimple, nilpotent, period, steps)


def _steps_to_zero(a: UMatrix, ops, ctx: PrecisionContext) -> int:
    rows = a.residues()
    if _rows_are_zero(rows):
        return 0
    for step in range(1, ctx.budget(1) + 1):
        rows = _res_matpow(rows, ctx.p, ops)
        if _rows_are_zero(rows):
            return step
    raise RuntimeError("nilpotent part failed to vanish (internal defect)")


# -- spectrum, diameter, uncertainty --------------------------------------------


def operator_spectrum(a: UMatrix, period: int = 1) -> list:
    """Eigenvalue/projector pairs from the fully refined digit resolution.

    Digits are resolved one power of p at a time; surviving nested
    products give the projectors and the digit paths give the
    eigenvalues, as scalars of the ambient ring.  The nested products
    are formed and tested for zero on residues mod p^m.
    """
    expansion = hermite_digits_matrix(a, period)
    k = expansion.lead_valuation
    if period > 1 and k < 0:
        raise ValueError("period > 1 spectra are supported for integral operators only")
    frontier = None
    for level, digit in enumerate(expansion.digits):
        resolution = teichmuller_spectral(digit, period)
        terms = [(lam.shift(k + level), proj.residues()) for lam, proj in resolution.points]
        if frontier is None:
            like = resolution.projectors[0]
            ops = residue_ops(like.ctx, like.ext_ring)
            frontier = terms
            continue
        new_frontier = []
        for center, rows in frontier:
            for term_center, pi in terms:
                child = _res_matmul(rows, pi, ops)
                if not _rows_are_zero(child):
                    new_frontier.append((center + term_center, child))
        frontier = new_frontier
    return [(center, _wrap_residues(rows, like)) for center, rows in frontier]


@dataclass(frozen=True)
class SpectrumDiameter:
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
    to the diameter (at the resolved precision).
    """
    ctx = a.ctx
    points = operator_spectrum(a, period)
    lams = [lam for lam, _ in points]
    diam_val = INFINITE
    for i in range(len(lams)):
        for j in range(i + 1, len(lams)):
            diff = lams[i] - lams[j]
            diam_val = min(diam_val, diff.valuation)
    diam = norm_from_valuation(ctx.p, diam_val)
    lam_val = min((lam.valuation for lam in lams), default=INFINITE)
    if lam_val != a.valuation:
        raise RuntimeError("operator norm differs from max eigenvalue norm (internal defect)")
    _check_translations(a, points, diam_val, ctx)
    return SpectrumDiameter(
        diameter=diam,
        diameter_valuation=diam_val,
        operator_norm=a.norm,
        spectrum=tuple(lams),
        period=period,
    )


def _check_translations(a: UMatrix, points, diam_val, ctx: PrecisionContext):
    k = min(lam.valuation for lam, _ in points) if points else 0
    resolved = (0 if k == INFINITE else int(min(k, 0))) + ctx.m
    for lam, proj in points:
        ring = proj.ext_ring
        val = (a.promote(ring) - UMatrix.identity(a.n, ctx).promote(ring).scale(lam)).valuation
        if diam_val == INFINITE:
            if val < resolved:
                raise RuntimeError("translation law failed for a singleton spectrum (internal defect)")
        elif val != diam_val:
            raise RuntimeError("translation by a spectrum point changed the norm (internal defect)")


@dataclass(frozen=True)
class UncertaintyReport:
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
