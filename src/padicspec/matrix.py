"""Square matrices over p-adic scalars with the sup norm.

The norm of a matrix is the maximum of the entry norms.  It is
submultiplicative and ultrametric, and the unit group of the integral
matrices under it is GL_n(Z_p): integral entries plus unit determinant,
equivalently an invertible reduction mod p.  Columns of such matrices
are exactly the orthonormal bases of Q_p^n, and idempotents of norm 1
are exactly the orthogonal projections.

Entries are PadicScalar or ExtScalar, which share one scalar protocol
(arithmetic, dot, shift by p^k, residue_key), all over one ring: ring
is the handle of that ring, a padic.PrecisionContext for Z/p^m or a
finite_field.ExtRing for O_K/p^m, and is never None.  Scalar arithmetic,
the dot product of the object-level matmul and apply included, lives
with the scalars.  Window computations (everything that only matters
mod p^m) run on plain residue representatives for speed, through the
ring's entry protocol ring.ops: padic._BaseOps on ints over Z/p^m, or
finite_field._ExtOps on coordinate vectors.  _wrap_residues builds the
matrix of residue rows with the ring's element constructor, and
residues reads them back with residue_key: an ExtScalar holds its
coordinate vector as that key, so neither direction converts an
extension entry.  Only the two ops classes know what an entry is; the
residue helpers here (_res_matpow, which is padic._power over
ops.matmul, _res_matmul_blocks, _res_inverse, _res_det and the
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

import itertools
import random
from typing import NamedTuple, Optional, Sequence, Union

from .finite_field import ExtRing, ExtScalar
from .padic import INFINITE, PadicScalar, PrecisionContext, _Frozen, _check_period, _power, _setattr, norm_from_valuation

Scalar = Union[PadicScalar, ExtScalar]
Ring = Union[PrecisionContext, ExtRing]


class UMatrix(_Frozen):
    """Immutable n x n matrix over one scalar ring; entries over another ring are refused."""

    __slots__ = _fields = _compare = ("rows",)

    def __init__(self, rows: tuple):
        _setattr(self, "rows", rows)
        n = len(self.rows)
        if n == 0 or any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square and nonempty")
        ring = self.rows[0][0].ring
        for row in self.rows:
            for entry in row:
                if entry.ring is not ring and entry.ring != ring:
                    raise ValueError("mixed entry types or rings in matrix")

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
    def from_residues(cls, rows: Sequence[Sequence], ring: Ring) -> "UMatrix":
        """The matrix of residue keys over ring: ints over Z/p^m, coordinate vectors over O_K/p^m."""
        return _wrap_residues(rows, ring)

    @classmethod
    def identity(cls, n: int, ring: Ring) -> "UMatrix":
        return _wrap_residues(_res_identity(n, ring.ops), ring)

    @classmethod
    def zeros(cls, n: int, ring: Ring) -> "UMatrix":
        return _wrap_residues(((ring.ops.zero,) * n,) * n, ring)

    # -- structure -------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def ring(self) -> Ring:
        return self.rows[0][0].ring

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
        """Entry representatives mod p^m (ints over Z_p, coordinate vectors over O_K).

        An extension entry is always integral, so only a base matrix is
        scanned for a negative valuation.
        """
        if self.ring is self.ctx and not self.is_integral:
            raise ValueError("matrix has norm > 1, no residues mod p^m")
        return tuple(tuple(e.residue_key() for e in row) for row in self.rows)

    def congruent(self, other: "UMatrix") -> bool:
        """Entrywise equality mod p^m."""
        return self.residues() == other.residues()

    def is_zero_mod_precision(self) -> bool:
        return self.ring.ops.rows_are_zero(self.residues())

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
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("mixed matrix rings")

    def promote(self, ring: Ring) -> "UMatrix":
        """Embed a base matrix into ring (constant coordinates); one over ring is kept.

        ring must have the matrix's p and m, and a matrix over an extension
        ring is not embedded again: either is refused with ValueError.
        """
        own = self.ring
        if ring == own:
            return self
        if own is not own.ctx:
            raise ValueError("matrix already lives in a different extension ring")
        if ring.ctx != own:
            raise ValueError(f"{ring!r} has another p or m than the matrix's {own!r}")
        return UMatrix(tuple(tuple(map(ring.embed, row)) for row in self.rows))

    # -- window operations (mod p^m) ----------------------------------------

    def window_pow(self, exponent: int) -> "UMatrix":
        """Matrix power computed on residues mod p^m; needs |A| <= 1."""
        ring = self.ring
        return _wrap_residues(_res_matpow(self.residues(), exponent, ring.ops), ring)

    def sigma_window(self, period: int = 1) -> "UMatrix":
        """The p-power map A -> A^(p^period) in the window."""
        _check_period(period)
        return self.window_pow(self.ctx.p**period)

    def residue_key(self) -> tuple:
        return self.residues()

    def __repr__(self):
        kind = "base" if self.ring is self.ctx else "ext"
        return f"UMatrix(n={self.n}, ring={kind}, p={self.ctx.p}, m={self.ctx.m})"


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
    """a^exponent on residue rows: padic._power over ops.matmul, the identity for exponent 0."""
    return _power(a, exponent, ops.matmul) if exponent else _res_identity(len(a), ops)


def _wrap_residues(rows: tuple, ring: Ring) -> UMatrix:
    """The matrix of residue rows over ring: scalars are built here, at the API boundary only."""
    make = ring.element
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
    return _res_inverse(u.residues(), u.ring.ops)


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
    return _wrap_residues(rows, u.ring)


def determinant(a: UMatrix) -> Scalar:
    """Exact determinant mod p^m by elimination on least-valuation pivots, O(n^3).

    A matrix of negative valuation k (only base matrices have one) is
    scaled by p^-k first and its determinant by p^(n k) after, so the
    result keeps m digits past its own valuation; a window image that
    vanishes is zero at precision.
    """
    k, ring = min(0, a.valuation), a.ring
    det = _res_det(a.shift(-k).residues(), ring.ops)
    return ring.element(det).shift(a.n * k)


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


def sample_vector(ring: Ring, n: int, rng: random.Random) -> tuple:
    """Random vector over ring with entry valuations spanning 0..m-1.

    Each entry's valuation v is drawn from 0..m, m giving 0, and the rest
    by ring.random_entry.  sample_unit_vector is the sampler of sup norm 1.
    """
    ops = ring.ops
    zero = ring.element(ops.zero)
    entries = []
    for _ in range(n):
        v = rng.randrange(ops.m + 1)
        entries.append(zero if v >= ops.m else ring.random_entry(rng, v))
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
    ring = pi.ring
    ident = UMatrix.identity(n, ring)
    complement = ident - pi
    decomposition_ok = True
    ball_stable = True
    checked = 0
    vectors = list(ident.rows) + [sample_vector(ring, n, rng) for _ in range(max(0, samples - n))]
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
        field = ring.at(1).ops
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
    ring = u.ring
    zero = ring.element(ring.ops.zero)
    rng = random.Random(seed)
    for _ in range(samples):
        if ring is ring.ctx:
            # base scalars are elements of Q_p: coefficients of norm > 1 and zeros are drawn too
            coeffs = []
            for _ in range(u.n):
                entry = ring.random_entry(rng, rng.randrange(-2, ring.m))
                coeffs.append(zero if rng.random() < 0.15 else entry)
        else:
            # extension scalars model the integers of K, so the sampled
            # coefficients stay integral there
            coeffs = sample_vector(ring, u.n, rng)
        combo = u.apply(tuple(coeffs))
        if vector_valuation(combo) != vector_valuation(coeffs):
            return False
    return True
