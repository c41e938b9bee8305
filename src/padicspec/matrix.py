"""Square matrices over p-adic scalars with the sup norm.

The norm of a matrix is the maximum of the entry norms.  It is
submultiplicative and ultrametric, and the unit group of the integral
matrices under it is GL_n(Z_p): integral entries plus unit determinant,
equivalently an invertible reduction mod p.  Columns of such matrices
are exactly the orthonormal bases of Q_p^n, and idempotents of norm 1
are exactly the orthogonal projections.

Entries are PadicScalar or ExtScalar, which share one scalar protocol
(arithmetic, dot, shift by p^k, residue_key); ext_ring names the
extension ring, or is None over Z_p.  Scalar arithmetic, the dot
product of the object-level matmul and apply included, lives with the
scalars.  Window computations (everything that only matters mod p^m)
run on plain residue representatives for speed, through the one entry
protocol that residue_ops picks: padic._BaseOps on ints over Z/p^m, or
the extension ring's ops (finite_field._ExtOps) on coordinate vectors.
Only those two classes know what an entry is; the residue helpers here
(_res_matpow, _res_matmul_blocks, _res_inverse, _res_det and the
Hessenberg reduction) call their members.  Both provide matmul, the
whole residue matrix product of any compatible shapes
(_res_matmul_blocks multiplies one matrix by several at once), through
the one Kronecker-packed kernel padic._packed_matmul: its slots are
rounded to 8, 16, 32 or 64 bits, so a row is packed and unpacked by one
struct call and int.from_bytes / int.to_bytes, and slots wider than 64
bits hand off to shift-and-mask loops.  Their entrywise row members
(rows_add, rows_sub, rows_scale, map_coords) are map chains over
operator functions and bound int methods, one % q per coordinate; only
a ring-element scale over an extension goes through ops.mul.  This
module defines no arithmetic of its own.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import NamedTuple, Optional, Sequence, Union

from .padic import (
    INFINITE,
    PadicScalar,
    PrecisionContext,
    _BaseOps,
    _Frozen,
    _setattr,
    norm_from_valuation,
)
from .unramified import ExtRing, ExtScalar, ext_ring

Scalar = Union[PadicScalar, ExtScalar]


class UMatrix(_Frozen):
    """Immutable n x n matrix over one scalar ring."""

    __slots__ = _fields = _compare = ("rows",)

    def __init__(self, rows: tuple):
        _setattr(self, "rows", rows)
        n = len(self.rows)
        if n == 0 or any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square and nonempty")
        first = self.rows[0][0]
        for row in self.rows:
            for entry in row:
                if type(entry) is not type(first):
                    raise ValueError("mixed entry types in matrix")

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_scalars(cls, rows: Sequence[Sequence[Scalar]]) -> "UMatrix":
        return cls(tuple(tuple(r) for r in rows))

    @classmethod
    def from_ints(cls, rows: Sequence[Sequence[int]], ctx: PrecisionContext) -> "UMatrix":
        return cls(
            tuple(tuple(PadicScalar.from_int(v, ctx) for v in row) for row in rows)
        )

    @classmethod
    def from_residues(cls, rows: Sequence[Sequence[int]], ctx: PrecisionContext) -> "UMatrix":
        return cls(
            tuple(tuple(PadicScalar.from_residue(v, ctx) for v in row) for row in rows)
        )

    @classmethod
    def from_ext_vectors(cls, rows: Sequence[Sequence[tuple]], ring: ExtRing) -> "UMatrix":
        return cls(
            tuple(tuple(ExtScalar.from_vector(ring, v) for v in row) for row in rows)
        )

    @classmethod
    def identity(cls, n: int, ctx: PrecisionContext) -> "UMatrix":
        one, zero = PadicScalar.one(ctx), PadicScalar.zero(ctx)
        return cls(tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, n: int, ctx: PrecisionContext) -> "UMatrix":
        zero = PadicScalar.zero(ctx)
        return cls(tuple((zero,) * n for _ in range(n)))

    # -- structure -------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def ext_ring(self) -> Optional[ExtRing]:
        entry = self.rows[0][0]
        return entry.ring if isinstance(entry, ExtScalar) else None

    @property
    def ctx(self) -> PrecisionContext:
        return self.rows[0][0].ctx

    def entry(self, i: int, j: int) -> Scalar:
        return self.rows[i][j]

    @property
    def valuation(self):
        """Minimum entry valuation; +inf for the zero matrix."""
        return min((e.valuation for row in self.rows for e in row), default=INFINITE)

    @property
    def norm(self) -> float:
        return norm_from_valuation(self.ctx.p, self.valuation)

    @property
    def is_integral(self) -> bool:
        return self.valuation >= 0

    def residues(self) -> tuple:
        """Entry representatives mod p^m (ints over Z_p, coordinate vectors over O_K)."""
        if not self.is_integral:
            raise ValueError("matrix has norm > 1, no residues mod p^m")
        return tuple(tuple(e.residue_key() for e in row) for row in self.rows)

    def congruent(self, other: "UMatrix") -> bool:
        """Entrywise equality mod p^m."""
        return self.residues() == other.residues()

    def is_zero_mod_precision(self) -> bool:
        return residue_ops(self.ctx, self.ext_ring).rows_are_zero(self.residues())

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "UMatrix") -> "UMatrix":
        self._check(other)
        return UMatrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __sub__(self, other: "UMatrix") -> "UMatrix":
        self._check(other)
        return UMatrix(
            tuple(
                tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __neg__(self) -> "UMatrix":
        return UMatrix(tuple(tuple(-a for a in row) for row in self.rows))

    def __mul__(self, other: "UMatrix") -> "UMatrix":
        self._check(other)
        dot = self.rows[0][0].dot
        cols = tuple(zip(*other.rows))
        return UMatrix(tuple(tuple(dot(row, col) for col in cols) for row in self.rows))

    def scale(self, c: Scalar) -> "UMatrix":
        return UMatrix(tuple(tuple(c * a for a in row) for row in self.rows))

    def shift(self, k: int) -> "UMatrix":
        """Multiply by p^k: a valuation shift over Z_p, a coordinate shift over O_K/p^m."""
        return UMatrix(tuple(tuple(a.shift(k) for a in row) for row in self.rows))

    def apply(self, vector: Sequence[Scalar]) -> tuple:
        if len(vector) != self.n:
            raise ValueError("vector length mismatch")
        dot = self.rows[0][0].dot
        return tuple(dot(row, vector) for row in self.rows)

    def _check(self, other: "UMatrix"):
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        if self.ctx != other.ctx or self.ext_ring != other.ext_ring:
            raise ValueError("mixed matrix rings")

    def promote(self, ring: Optional[ExtRing]) -> "UMatrix":
        """Embed a base matrix into ring (constant coordinates); one over ring is kept."""
        if self.ext_ring == ring:
            return self
        if self.ext_ring is not None:
            raise ValueError("matrix already lives in a different extension ring")
        return UMatrix(tuple(tuple(ring.embed(a) for a in row) for row in self.rows))

    # -- window operations (mod p^m) ----------------------------------------

    def window_pow(self, exponent: int) -> "UMatrix":
        """Matrix power computed on residues mod p^m; needs |A| <= 1."""
        ops = residue_ops(self.ctx, self.ext_ring)
        power = _res_matpow(self.residues(), exponent, ops)
        return _wrap_residues(power, self.ctx, self.ext_ring)

    def sigma_window(self, period: int = 1) -> "UMatrix":
        """The p-power map A -> A^(p^period) in the window."""
        return self.window_pow(self.ctx.p**period)

    def residue_key(self) -> tuple:
        return self.residues()

    def residue_orbit(self) -> tuple:
        """The residue rows, sigma on rows, and the matrix of rows (see classify_orbit)."""
        ops = residue_ops(self.ctx, self.ext_ring)
        step = functools.partial(_res_matpow, exponent=self.ctx.p, ops=ops)
        wrap = functools.partial(_wrap_residues, ctx=self.ctx, ring=self.ext_ring)
        return self.residues(), step, wrap

    def __repr__(self):
        ring = "base" if self.ext_ring is None else "ext"
        return f"UMatrix(n={self.n}, ring={ring}, p={self.ctx.p}, m={self.ctx.m})"


def residue_ops(ctx: PrecisionContext, ring: Optional[ExtRing] = None):
    """Entry arithmetic for residue rows mod p^m at ctx.

    Over Z/p^m, or, when a ring is given, over the unramified ring of its
    degree at the precision of ctx (which may differ from the ring's own).
    """
    if ring is None:
        return _BaseOps(ctx.p, ctx.m)
    return ext_ring(ctx.p, ring.degree, ctx.m).ops


def _res_hstack(blocks) -> tuple:
    """Residue matrices of one height side by side: row i joins row i of every block."""
    return tuple([tuple(itertools.chain.from_iterable(rows)) for rows in zip(*blocks)])


def _res_hsplit(rows: tuple, width: int) -> list:
    """The blocks of width columns that _res_hstack joined, left to right."""
    return [tuple([row[j : j + width] for row in rows]) for j in range(0, len(rows[0]), width)]


def _res_matmul_blocks(a: tuple, blocks: list, ops) -> list:
    """[a * b for b in blocks], as one product of a by the blocks side by side.

    The packed kernel then takes one big-int sum per row of a for all
    the blocks instead of one per block.  Where the base ring's
    per-entry dot runs instead (ops.packs is false for the inner size),
    joining and splitting the blocks only adds work, so they are
    multiplied one by one.
    """
    if not ops.packs(len(a[0])):
        return [ops.matmul(a, b) for b in blocks]
    return _res_hsplit(ops.matmul(a, _res_hstack(blocks)), len(blocks[0][0]))


def _res_identity(n: int, ops) -> tuple:
    return tuple(tuple(ops.one if i == j else ops.zero for j in range(n)) for i in range(n))


def _res_matpow(a: tuple, exponent: int, ops) -> tuple:
    """a^exponent by binary powering: floor(log2 e) + popcount(e) - 1 products for e >= 1.

    The result starts at the lowest set bit instead of the identity, and
    the square after the highest bit is never formed.
    """
    if exponent == 0:
        return _res_identity(len(a), ops)
    acc = a
    while not exponent & 1:
        acc = ops.matmul(acc, acc)
        exponent >>= 1
    result = acc
    exponent >>= 1
    while exponent:
        acc = ops.matmul(acc, acc)
        if exponent & 1:
            result = ops.matmul(result, acc)
        exponent >>= 1
    return result


def _entry_maker(ctx: PrecisionContext, ring: Optional[ExtRing]):
    """The constructor of one entry of Z/p^m at ctx, or of ring, from its residue key."""
    if ring is None:
        return functools.partial(PadicScalar.from_residue, ctx=ctx)
    return functools.partial(ExtScalar.from_vector, ring)


def _wrap_residues(rows: tuple, ctx: PrecisionContext, ring: Optional[ExtRing]) -> UMatrix:
    """The matrix of residue rows: scalars are built here, at the API boundary only."""
    make = _entry_maker(ctx, ring)
    return UMatrix(tuple(tuple(map(make, row)) for row in rows))


# -- GL_n(Z_p) and orthogonality -------------------------------------------


def _res_inverse(rows: tuple, ops) -> Optional[tuple]:
    """Gauss-Jordan inverse of residue rows, or None when a column has no unit pivot.

    Over the local rings Z/p^m and O_K/p^m a column runs out of unit
    pivots exactly when the reduction mod p is singular.
    """
    n = len(rows)
    work = [list(row) + list(ident_row) for row, ident_row in zip(rows, _res_identity(n, ops))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if ops.is_unit(work[r][col])), None)
        if pivot is None:
            return None
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
        scale = ops.inv_unit(work[col][col])
        work[col] = [ops.mul(scale, x) for x in work[col]]
        for r in range(n):
            if r == col:
                continue
            factor = work[r][col]
            if ops.is_zero(factor):
                continue
            nf = ops.neg(factor)
            work[r] = [ops.add(x, ops.mul(nf, y)) for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def _gl_inverse_rows(u: UMatrix) -> Optional[tuple]:
    if not u.is_integral:
        return None
    return _res_inverse(u.residues(), residue_ops(u.ctx, u.ext_ring))


def is_gl_zp(u: UMatrix) -> bool:
    """Membership in GL_n(Z_p): integral entries and unit determinant.

    Unit determinant is equivalent to an invertible reduction mod p, which
    the Gauss-Jordan elimination of inverse detects.
    """
    return _gl_inverse_rows(u) is not None


def inverse(u: UMatrix) -> UMatrix:
    """Inverse of a GL_n member; anything without unit determinant is refused."""
    rows = _gl_inverse_rows(u)
    if rows is None:
        raise ValueError("matrix is not in GL_n (unit determinant required)")
    return _wrap_residues(rows, u.ctx, u.ext_ring)


def determinant(a: UMatrix) -> Scalar:
    """Exact determinant mod p^m by elimination on least-valuation pivots, O(n^3).

    A matrix of negative valuation k (only base matrices have one) is
    scaled by p^-k first and its determinant by p^(n k) after, so the
    result keeps m digits past its own valuation; a window image that
    vanishes is zero at precision.
    """
    k = min(0, a.valuation)
    det = _res_det(a.shift(-k).residues(), residue_ops(a.ctx, a.ext_ring))
    return _entry_maker(a.ctx, a.ext_ring)(det).shift(a.n * k)


def _res_det(rows: tuple, ops) -> object:
    """Determinant of residue rows over Z/p^m or O_K/p^m, by elimination down the columns.

    Both are chain rings: an entry p^v u (u a unit) divides every entry
    of valuation >= v.  Each column's pivot is an entry of least
    valuation on or below the diagonal, moved up by a row swap (which
    negates the determinant).  An entry x below it is cleared exactly by
    subtracting (x / p^v) u^-1 times the pivot row, which keeps the
    determinant, so it ends as the signed product of the pivots.
    """
    n, p = len(rows), ops.p
    work = [list(row) for row in rows]
    det = ops.one
    for col in range(n):
        v, r = min((ops.valuation(work[r][col]), r) for r in range(col, n))
        if v == INFINITE:
            return ops.zero
        if r != col:
            work[col], work[r] = work[r], work[col]
            det = ops.neg(det)
        det = ops.mul(det, work[col][col])
        # the column from the pivot down, divided by p^v: exact, as no entry has a lower valuation
        ((pivot, *below),) = ops.map_coords(([row[col] for row in work[col:]],), (p**v).__rfloordiv__)
        inv = ops.inv_unit(pivot)
        for r, x in enumerate(below, col + 1):
            if not ops.is_zero(x):
                factor = ops.neg(ops.mul(x, inv))
                work[r] = [ops.add(y, ops.mul(factor, z)) for y, z in zip(work[r], work[col])]
    return det


def _hessenberg_charpoly(rows: tuple, ops) -> list:
    """Coefficients of det(X - A) over a field, constant first, in O(n^3) field operations.

    ops is an m = 1 protocol (F_p or F_{p^N}), where every nonzero entry
    is a unit.  A is reduced to upper Hessenberg form H by similarity
    (Cohen, A Course in Computational Algebraic Number Theory, Alg.
    2.2.9): for each column j, a nonzero entry below the diagonal is
    moved to the subdiagonal by a row swap and the matching column
    swap, and each entry x below it is cleared by row_i -= u row_(j+1)
    with u = x / pivot, undone on the right by col_(j+1) += u col_i.
    Then p_0 = 1 and p_k = (X - h_kk) p_(k-1) - sum_i t_i h_(k-i),k
    p_(k-i-1), where t_i is the product of the i subdiagonal entries
    h_(k-i+1),(k-i) .. h_k,(k-1), and det(X - A) = p_n.
    """
    n = len(rows)
    h = [list(row) for row in rows]
    add, sub, mul, is_zero = ops.add, ops.sub, ops.mul, ops.is_zero
    for j in range(n - 2):
        r = j + 1
        s = next((s for s in range(r, n) if not is_zero(h[s][j])), None)
        if s is None:
            continue
        if s != r:
            h[r], h[s] = h[s], h[r]
            for row in h:
                row[r], row[s] = row[s], row[r]
        inv = ops.inv_unit(h[r][j])
        pivot_row = h[r]
        for i in range(r + 1, n):
            x = h[i][j]
            if is_zero(x):
                continue
            u = mul(x, inv)
            h[i] = [sub(y, mul(u, z)) for y, z in zip(h[i], pivot_row)]
            for row in h:
                row[r] = add(row[r], mul(u, row[i]))
    polys = [[ops.one]]
    for k in range(n):
        prev = polys[k]
        diag = h[k][k]
        cur = [ops.zero] + prev
        for d, c in enumerate(prev):
            cur[d] = sub(cur[d], mul(diag, c))
        t = ops.one
        for i in range(1, k + 1):
            t = mul(t, h[k - i + 1][k - i])
            if is_zero(t):
                break
            coeff = mul(t, h[k - i][k])
            for d, c in enumerate(polys[k - i]):
                cur[d] = sub(cur[d], mul(coeff, c))
        polys.append(cur)
    return polys[n]


# -- vectors -----------------------------------------------------------------


def vector_valuation(vector: Sequence[Scalar]):
    return min((v.valuation for v in vector), default=INFINITE)


def sample_vector(
    ctx: PrecisionContext, n: int, rng: random.Random, ring: Optional[ExtRing] = None
) -> tuple:
    """Random vector with entry valuations spanning 0..m-1.

    Passing an extension ring draws the entries there instead (integral
    coordinates).  sample_unit_vector is the sampler of sup norm 1.
    """
    entries = []
    for _ in range(n):
        v = rng.randrange(ctx.m + 1)
        if v >= ctx.m:
            entries.append(ring.zero() if ring else PadicScalar.zero(ctx))
        elif ring is not None:
            coords = [rng.randrange(ctx.modulus) for _ in range(ring.degree)]
            while all(c % ctx.p == 0 for c in coords):
                coords = [rng.randrange(ctx.modulus) for _ in range(ring.degree)]
            scale = ctx.p**v
            entries.append(ring.element([c * scale for c in coords]))
        else:
            unit = rng.randrange(1, ctx.modulus)
            while unit % ctx.p == 0:
                unit = rng.randrange(1, ctx.modulus)
            entries.append(PadicScalar(ctx, v, unit))
    return tuple(entries)


def sample_unit_vector(ctx: PrecisionContext, n: int, rng: random.Random) -> tuple:
    """Coordinates drawn uniformly mod p^m, rejected unless the sup norm is 1."""
    while True:
        entries = tuple(
            PadicScalar.from_residue(rng.randrange(ctx.modulus), ctx) for _ in range(n)
        )
        if vector_valuation(entries) == 0:
            return entries


# -- orthogonal projection certification --------------------------------------


class ProjectionCertificate(NamedTuple):
    """Evidence that an idempotent is (or is not) an orthogonal projection.

    A valid certificate asserts: the idempotency defect vanishes mod p^m,
    |pi| = 1, the sampled decomposition identity |x| = max(|pi x|,
    |(1-pi) x|) held on every sample, and the reduction mod p is a
    projection.
    """

    idempotency_defect: float
    norm_of_pi: float
    max_decomposition_checked: bool
    samples: int
    unit_ball_stable: bool
    reduction_idempotent: bool
    valid: bool
    failures: tuple


def certify_orthogonal_projection(
    pi: UMatrix, samples: int = 32, seed: int = 0
) -> ProjectionCertificate:
    """Check the equivalent orthogonality conditions on a projection.

    Conditions evaluated: operator norm 1; unit-ball stability and the
    norm-decomposition identity on seeded random vectors spanning all
    valuation strata (plus the standard basis); idempotency of the
    reduction mod p.  For a nonzero idempotent these agree, and any
    disagreement at precision is reported through the failure list.
    """
    ctx = pi.ctx
    n = pi.n
    failures = []

    defect_matrix = pi * pi - pi
    defect = defect_matrix.norm
    # Idempotency is judged modulo the window that pi^2 can resolve:
    # p^m for integral pi, shifted by twice the valuation floor otherwise.
    pi_val = pi.valuation
    floor = 2 * min(0, int(pi_val)) if pi_val != INFINITE else 0
    if defect_matrix.valuation < ctx.m + floor:
        failures.append("idempotency")

    norm_of_pi = pi.norm
    if norm_of_pi != 1.0:
        failures.append("norm_not_one")

    rng = random.Random(seed)
    ring = pi.ext_ring
    ident = _wrap_residues(_res_identity(n, residue_ops(ctx, ring)), ctx, ring)
    complement = ident - pi
    decomposition_ok = True
    ball_stable = True
    checked = 0
    vectors = list(ident.rows) + [
        sample_vector(ctx, n, rng, ring=ring) for _ in range(max(0, samples - n))
    ]
    for x in vectors:
        vx = vector_valuation(x)
        v_proj = vector_valuation(pi.apply(x))
        v_comp = vector_valuation(complement.apply(x))
        if min(v_proj, v_comp) != vx:
            decomposition_ok = False
        if vx >= 0 and v_proj < 0:
            ball_stable = False
        checked += 1
    if not decomposition_ok:
        failures.append("norm_decomposition")
    if not ball_stable:
        failures.append("unit_ball")

    reduction_ok = pi.is_integral
    if reduction_ok:
        field = residue_ops(ctx, ring).field
        red = field.map_coords(pi.residues(), ctx.p.__rmod__)
        reduction_ok = field.matmul(red, red) == red
    if not reduction_ok:
        failures.append("reduction_idempotent")

    return ProjectionCertificate(
        idempotency_defect=defect,
        norm_of_pi=norm_of_pi,
        max_decomposition_checked=decomposition_ok,
        samples=checked,
        unit_ball_stable=ball_stable,
        reduction_idempotent=reduction_ok,
        valid=not failures,
        failures=tuple(failures),
    )


def is_orthonormal_columns(u: UMatrix, samples: int = 16, seed: int = 0) -> bool:
    """Whether the columns form an orthonormal system for the sup norm.

    Equivalent to GL_n membership; the norm identity
    |sum c_i col_i| = max |c_i| is additionally spot-checked on seeded
    random coefficient vectors, including coefficients of norm > 1.
    """
    if not is_gl_zp(u):
        return False
    ctx = u.ctx
    ring = u.ext_ring
    rng = random.Random(seed)
    for _ in range(samples):
        if ring is not None:
            # extension scalars model the integers of K, so the sampled
            # coefficients stay integral there
            coeffs = sample_vector(ctx, u.n, rng, ring=ring)
        else:
            coeffs = []
            for _ in range(u.n):
                v = rng.randrange(-2, ctx.m)
                unit = rng.randrange(1, ctx.modulus)
                while unit % ctx.p == 0:
                    unit = rng.randrange(1, ctx.modulus)
                if rng.random() < 0.15:
                    coeffs.append(PadicScalar.zero(ctx))
                else:
                    coeffs.append(PadicScalar(ctx, v, unit))
        combo = u.apply(tuple(coeffs))
        if vector_valuation(combo) != vector_valuation(coeffs):
            return False
    return True
