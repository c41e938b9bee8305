"""Shared generators and independent brute-force oracles for the tests.

The int-matrix helpers here deliberately avoid the package's residue
machinery so they can serve as independent cross-checks.
"""

from __future__ import annotations

import functools
import itertools
import random

from padicspec import (
    PadicScalar,
    PrecisionContext,
    UMatrix,
    ext_ring,
    finite_field,
    hermite_digits_matrix,
    is_gl_zp,
    teichmuller_lift,
    teichmuller_lift_ext,
)
from padicspec.finite_field import poly_roots
from padicspec.matrix import _res_matpow, inverse
from padicspec.padic import INFINITE
from padicspec.spectral import NotHermiteError, _sigma_limit


# -- independent integer-matrix arithmetic (oracle side) ----------------------


def int_matmul(a, b, q):
    """a * b mod q for any compatible shapes: len(a) x len(b) by len(b) x len(b[0])."""
    inner, cols = len(b), len(b[0])
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) % q for j in range(cols)]
        for i in range(len(a))
    ]


def int_matpow(a, e, q):
    n = len(a)
    out = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    acc = [row[:] for row in a]
    while e:
        if e & 1:
            out = int_matmul(out, acc, q)
        acc = int_matmul(acc, acc, q)
        e >>= 1
    return out


def int_matvec(a, v, q):
    n = len(a)
    return [sum(a[i][k] * v[k] for k in range(n)) % q for i in range(n)]


def int_det(a):
    """Exact integer determinant by cofactor expansion (small n only)."""
    n = len(a)
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in a[1:]]
        total += (-1) ** j * a[0][j] * int_det(minor)
    return total


def fq_cofactor_det(rows):
    """Determinant of a square matrix of FqElements by cofactor expansion (small n only)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = rows[0][0].ring.zero()
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = rows[0][j] * fq_cofactor_det(minor)
        total = total - term if j % 2 else total + term
    return total


# -- random generators ----------------------------------------------------------


def rand_residue_matrix(ctx: PrecisionContext, n: int, rng: random.Random) -> UMatrix:
    return UMatrix.from_residues(
        [[rng.randrange(ctx.modulus) for _ in range(n)] for _ in range(n)], ctx
    )


def rand_gl(ctx: PrecisionContext, n: int, rng: random.Random) -> UMatrix:
    while True:
        candidate = rand_residue_matrix(ctx, n, rng)
        if is_gl_zp(candidate):
            return candidate


def diag_matrix(ctx: PrecisionContext, residues) -> UMatrix:
    n = len(residues)
    return UMatrix.from_residues(
        [[residues[i] if i == j else 0 for j in range(n)] for i in range(n)], ctx
    )


def conjugate(u: UMatrix, d: UMatrix) -> UMatrix:
    return u * d * inverse(u)


def rand_hermite(ctx: PrecisionContext, n: int, rng: random.Random, diag=None):
    """U diag U^-1 for random U in GL_n(Z_p); Hermite by construction."""
    residues = diag if diag is not None else [rng.randrange(ctx.modulus) for _ in range(n)]
    u = rand_gl(ctx, n, rng)
    return conjugate(u, diag_matrix(ctx, residues)), u, residues


def rand_teich_diag(ctx: PrecisionContext, n: int, rng: random.Random):
    return [teichmuller_lift(rng.randrange(ctx.p), ctx).residue() for _ in range(n)]


def rand_unit_norm_matrix(ctx: PrecisionContext, n: int, rng: random.Random) -> UMatrix:
    while True:
        candidate = rand_residue_matrix(ctx, n, rng)
        if candidate.valuation == 0:
            return candidate


def rand_poly_in(a: UMatrix, rng: random.Random, degree: int = 2) -> UMatrix:
    """Random integer polynomial of a matrix; commutes with it."""
    ctx = a.ctx
    acc = UMatrix.identity(a.n, ctx).scale(PadicScalar.from_int(rng.randrange(ctx.modulus), ctx))
    power = a
    for _ in range(degree):
        coeff = PadicScalar.from_int(rng.randrange(ctx.modulus), ctx)
        acc = acc + power.scale(coeff)
        power = power * a
    return acc


def residues_of(a: UMatrix):
    return [[e.residue() for e in row] for row in a.rows]


# -- object-level p-adic products (oracle side) ----------------------------------


def _padic_add_oracle(a: PadicScalar, b: PadicScalar) -> PadicScalar:
    """The relative-precision sum, computed on the scalar objects themselves."""
    if a.ctx != b.ctx:
        raise ValueError("mixed precision contexts")
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    p = a.ctx.p
    base = min(a.valuation, b.valuation)
    total = a.unit * p ** (a.valuation - base) + b.unit * p ** (b.valuation - base)
    t = 0
    while total % p == 0:
        total //= p
        t += 1
    if t >= a.ctx.m:
        return PadicScalar.zero(a.ctx)
    return PadicScalar(a.ctx, base + t, total % a.ctx.modulus)


def _padic_mul_oracle(a: PadicScalar, b: PadicScalar) -> PadicScalar:
    if a.ctx != b.ctx:
        raise ValueError("mixed precision contexts")
    if a.is_zero or b.is_zero:
        return PadicScalar.zero(a.ctx)
    return PadicScalar(a.ctx, a.valuation + b.valuation, (a.unit * b.unit) % a.ctx.modulus)


def padic_dot_oracle(xs, ys) -> PadicScalar:
    """Object-level dot product, accumulated from the first product on."""
    return functools.reduce(_padic_add_oracle, map(_padic_mul_oracle, xs, ys))


def rand_padic_scalar(ctx: PrecisionContext, rng: random.Random, zero_frac: float, low: int):
    """A zero sentinel with probability zero_frac, else a valuation in [low, m] and a random unit."""
    if rng.random() < zero_frac:
        return PadicScalar.zero(ctx)
    unit = rng.randrange(1, ctx.modulus)
    while unit % ctx.p == 0:
        unit = rng.randrange(1, ctx.modulus)
    return PadicScalar(ctx, rng.randrange(low, ctx.m + 1), unit)


def cancelling_partner(y: PadicScalar, depth: int, rng: random.Random) -> PadicScalar:
    """A scalar z of y's valuation with y + z of relative valuation depth (zero once depth >= m).

    Requires y nonzero; x * y + x * z then cancels to the same depth.
    """
    ctx = y.ctx
    unit = ctx.modulus - y.unit
    if depth < ctx.m:
        unit = (unit + ctx.p**depth * rng.randrange(1, ctx.modulus, ctx.p)) % ctx.modulus
    return PadicScalar(ctx, y.valuation, unit)


def plant_cancellations(rows, cols, count: int, rng: random.Random):
    """Make up to count dot products rows[i] . cols[j] cancel, exactly or to a random depth.

    Each plant copies rows[i][k1] to rows[i][k2] and makes cols[j][k2] a
    cancelling partner of cols[j][k1], so those two products cancel to a
    depth of 1..m digits (m: past the window).  The lists are edited in place.
    """
    n = len(rows[0])
    for _ in range(count if n > 1 else 0):
        i, j = rng.randrange(len(rows)), rng.randrange(len(cols))
        k1, k2 = rng.sample(range(n), 2)
        y = cols[j][k1]
        if not y.is_zero:
            rows[i][k2] = rows[i][k1]
            cols[j][k2] = cancelling_partner(y, rng.randint(1, y.ctx.m), rng)


def padic_matmul_oracle(a: UMatrix, b: UMatrix) -> UMatrix:
    cols = tuple(zip(*b.rows))
    return UMatrix(tuple(tuple(padic_dot_oracle(row, col) for col in cols) for row in a.rows))


# -- primality, fixed fields and Lagrange resolution (oracle side) ---------------


def trial_division_is_prime(n: int) -> bool:
    if n < 4:
        return n > 1
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def sigma_fixed_points_oracle(p: int, degree: int, period: int, m: int) -> list:
    """Every element a of F_{p^degree} with a^(p^period) = a, lifted, in enumeration order."""
    field = finite_field(p, degree)
    q = p**period
    return [teichmuller_lift_ext(a, m) for a in field.elements() if a**q == a]


def ring_mul(a, b, modulus, q):
    """Product of coordinate vectors in (Z/q)[X]/(modulus); modulus is monic, constant first."""
    d = len(modulus) - 1
    conv = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    for k in range(2 * d - 2, d - 1, -1):
        c = conv[k]
        for i in range(d):
            conv[k - d + i] -= c * modulus[i]
    return tuple(c % q for c in conv[:d])


def ring_pow(a, e, modulus, q):
    out = (1,) + (0,) * (len(modulus) - 2)
    while e:
        if e & 1:
            out = ring_mul(out, a, modulus, q)
        a = ring_mul(a, a, modulus, q)
        e >>= 1
    return out


def ring_matmul(a, b, modulus, q):
    """a * b over (Z/q)[X]/(modulus) for any compatible shapes, as int_matmul."""
    zero = (0,) * (len(modulus) - 1)
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            acc = zero
            for k in range(len(b)):
                prod = ring_mul(a[i][k], b[k][j], modulus, q)
                acc = tuple((x + y) % q for x, y in zip(acc, prod))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def lagrange_oracle(rows, p: int, m: int, degree: int, period: int) -> list:
    """Full Lagrange resolution over all p^period fixed points of sigma^period.

    rows holds coordinate vectors in the degree-`degree` unramified ring
    mod p^m (1-tuples for Z/p^m).  The points are found by testing every
    residue-field element and lifted by iterating y -> y^(p^period); each
    projector is the product of (x - mu)/(lambda - mu) over all the other
    points, from prefix and suffix products.  Returns (lambda, projector)
    for the nonzero projectors, in the field's enumeration order.
    """
    q = p**m
    modulus = finite_field(p, degree).modulus
    zero = (0,) * degree
    one = (1,) + (0,) * (degree - 1)
    step = p**period
    points = []
    for coords in itertools.product(range(p), repeat=degree):
        if ring_pow(coords, step, modulus, p) != coords:
            continue
        y = coords
        while ring_pow(y, step, modulus, q) != y:
            y = ring_pow(y, step, modulus, q)
        points.append(y)
    n = len(rows)
    ident = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
    shifted = [
        tuple(
            tuple(
                tuple((a - b) % q for a, b in zip(e, mu)) if i == j else e
                for j, e in enumerate(row)
            )
            for i, row in enumerate(rows)
        )
        for mu in points
    ]
    prefix = [ident]
    for s in shifted:
        prefix.append(ring_matmul(prefix[-1], s, modulus, q))
    suffix = [ident]
    for s in reversed(shifted):
        suffix.append(ring_matmul(s, suffix[-1], modulus, q))
    suffix.reverse()
    unit_order = (p**degree - 1) * p ** (degree * (m - 1))
    out = []
    for k, lam in enumerate(points):
        denominator = one
        for j, mu in enumerate(points):
            if j != k:
                diff = tuple((a - b) % q for a, b in zip(lam, mu))
                denominator = ring_mul(denominator, diff, modulus, q)
        inv = ring_pow(denominator, unit_order - 1, modulus, q)
        assert ring_mul(inv, denominator, modulus, q) == one, "Lagrange denominator is not a unit"
        numerator = ring_matmul(prefix[k], suffix[k + 1], modulus, q)
        proj = tuple(tuple(ring_mul(inv, e, modulus, q) for e in row) for row in numerator)
        if any(any(e) for row in proj for e in row):
            out.append((lam, proj))
    return out


def sigma_limit_oracle(rows, period: int, ops):
    """Stationary point of y -> y^(p^period) mod p^m by plain iteration, or None.

    One sigma^period step at a time from rows, until an iterate is
    stationary or repeats without being stationary (None).  The residue
    rows mod p^m are finitely many, so one of the two always happens.
    """
    exponent = ops.p**period
    seen = {rows}
    cur = rows
    while True:
        nxt = _res_matpow(cur, exponent, ops)
        if nxt == cur:
            return cur
        if nxt in seen:
            return None
        seen.add(nxt)
        cur = nxt


def hermite_rows_oracle(a: UMatrix, period: int):
    """Digit peeling with every stage at one precision 2m: (lead valuation, all m digit rows).

    The schedule that spectral._hermite_rows refines: each sigma^N
    limit runs at p^(2m) on the canonical tail, which is divided by p
    after each digit, and the digits are reduced mod p^m.  Raises
    NotHermiteError with the stages and texts of _hermite_rows.
    """
    ctx = a.ctx
    k = a.valuation
    if k == INFINITE:
        return 0, (a.residues(),) * ctx.m
    work = a.shift(-k)
    ops_hi = work.ring.at(2 * ctx.m).ops
    rows = work.residues()
    digits = []
    for i in range(ctx.m):
        limit = _sigma_limit(rows, period, ops_hi)
        if limit is None:
            raise NotHermiteError(
                stage=i,
                defect_norm=1.0,
                reason=f"sigma^{period} orbit of digit {i} does not stabilise",
            )
        tail = ops_hi.rows_sub(rows, limit)
        if not ops_hi.rows_are_zero(ops_hi.map_coords(tail, ctx.p.__rmod__)):
            raise NotHermiteError(
                stage=i + 1,
                defect_norm=1.0,
                reason=f"nilpotent residue at digit {i + 1}",
            )
        digits.append(ops_hi.map_coords(limit, ctx.modulus.__rmod__))
        rows = ops_hi.map_coords(tail, ctx.p.__rfloordiv__)
    return int(k), tuple(digits)


# -- the spectral pipeline on matrix objects (oracle side) -------------------------


def teichmuller_spectral_oracle(x: UMatrix, period: int = 1) -> list:
    """(eigenvalue, projector) pairs of x by the object-level route.

    The sigma^N check compares x with its sigma_window image.  The points
    are the Teichmuller lifts of the roots of x's characteristic
    polynomial mod p, found in the ambient ring (x promoted to the
    degree-N extension when it has none); each projector is the
    object-level product of (x - mu) over the other points mu, scaled by
    the inverse of the product of the (lambda - mu).  Raises the
    ValueErrors of teichmuller_spectral, with the same text.
    """
    ctx = x.ctx
    if not x.is_integral:
        raise ValueError("teichmuller_spectral requires |x| <= 1")
    image = x.sigma_window(period)
    if not image.congruent(x):
        defect = (image - x).norm
        raise ValueError(f"input is not fixed by sigma^{period} mod p^m (defect norm {defect})")
    p = ctx.p
    ring = None if x.ring is ctx else x.ring
    if period == 1 and ring is None:
        ambient, field = x, finite_field(p, 1)
    else:
        ring = ring or ext_ring(p, period, ctx.m)
        if ring.degree % period != 0:
            raise ValueError(f"period {period} does not divide the extension degree {ring.degree}")
        ambient, field = x.promote(ring), ring.at(1)
    ops = (ring or ctx).at(1).ops
    charpoly = berkowitz_charpoly(ops.map_coords(ambient.residues(), lambda c: c % p), ops)
    roots = poly_roots(charpoly, p**period, field.degree, ops,
                       (a.coords for a in field.elements()) if ring else range(p))
    if ring is None:
        points = [teichmuller_lift(r, ctx) for r in roots]
        ident = UMatrix.identity(x.n, ctx)
    else:
        points = [teichmuller_lift_ext(field.element(r), ctx.m) for r in roots]
        ident = UMatrix.identity(x.n, ctx).promote(ring)
    out = []
    for k, lam in enumerate(points):
        numerator, denominator = ident, None
        for j, mu in enumerate(points):
            if j != k:
                numerator = numerator * (ambient - ident.scale(mu))
                diff = lam - mu
                denominator = diff if denominator is None else denominator * diff
        proj = numerator if denominator is None else numerator.scale(_inverse_unit(denominator))
        out.append((lam, proj))
    return out


def _inverse_unit(u):
    if isinstance(u, PadicScalar):
        return PadicScalar.one(u.ctx) / u
    return u.ring.one() / u


def spectral_tree_oracle(a: UMatrix, period: int, depth: int) -> list:
    """Levels 0..depth-1 of the digit tree of a by the object-level route.

    Each digit of hermite_digits_matrix is resolved by
    teichmuller_spectral_oracle; level j holds (address, center,
    projector) for the nonzero object-level products of one projector
    per level, in address order.  An address index is the reduction mod
    p of its point (an int over Z_p, a coordinate tuple over an
    extension), and a center sums the points shifted by p^(k + level).
    """
    expansion = hermite_digits_matrix(a, period)
    k = expansion.lead_valuation
    levels, frontier = [], [((), None, None)]
    for level in range(depth):
        terms = teichmuller_spectral_oracle(expansion.digits[level], period)
        frontier = [
            (address + (_point_index(lam),), _center_add(center, lam.shift(k + level)),
             proj if parent is None else parent * proj)
            for address, center, parent in frontier
            for lam, proj in terms
        ]
        frontier = [node for node in frontier if not node[2].is_zero_mod_precision()]
        levels.append(frontier)
    return levels


def spectral_terms_oracle(a: UMatrix, period: int, depth: int) -> list:
    """Per level 0..depth-1, {index: (point residue, projector residues)} of each digit's oracle resolution.

    The resolution of digit j is teichmuller_spectral_oracle's; an index
    is its point's reduction mod p, as in spectral_tree_oracle, and a
    point residue is its residue key mod p^m.
    """
    expansion = hermite_digits_matrix(a, period)
    return [
        {_point_index(lam): (lam.residue_key(), proj.residues())
         for lam, proj in teichmuller_spectral_oracle(digit, period)}
        for digit in expansion.digits[:depth]
    ]


def spectral_measure_oracle(a: UMatrix, depth: int) -> list:
    """Levels 0..depth-1 of spectral_measure's (address, center, node) by the object-level route.

    Digit j is resolved by teichmuller_spectral_oracle, and each of its
    projectors is wrapped from its residues by PadicScalar.from_int.  A
    node of level 0 is its projector; a node below is parent * projector
    through padic_matmul_oracle, kept when it is nonzero mod p^m.  A
    center is the residue sum of the Teichmuller lifts (by
    teichmuller_lift_oracle) of the address, the index of level j times
    p^j, shifted by p^k.  No library sum or product forms a node.
    """
    expansion = hermite_digits_matrix(a, 1)
    k, ctx = expansion.lead_valuation, a.ctx

    def wrap(residue):
        return PadicScalar.from_int(residue % ctx.modulus, ctx)

    levels, frontier = [], [((), 0, None)]
    for level in range(depth):
        terms = [
            (_point_index(lam), UMatrix(tuple(tuple(map(wrap, row)) for row in proj.residues())))
            for lam, proj in teichmuller_spectral_oracle(expansion.digits[level], 1)
        ]
        frontier = [
            (address + (index,), total + teichmuller_lift_oracle(index, ctx).residue() * ctx.p**level,
             proj if parent is None else padic_matmul_oracle(parent, proj))
            for address, total, parent in frontier
            for index, proj in terms
        ]
        frontier = [node for node in frontier if not node[2].is_zero_mod_precision()]
        levels.append([(address, wrap(total).shift(k), node) for address, total, node in frontier])
    return levels


def spectral_integral_oracle(deepest: list) -> tuple:
    """(identity_check, reconstruction) of the deepest (address, center, node) by object sums.

    Entry by entry, the nodes are added in order (padic_dot_oracle's
    sum), bare and each times its center.
    """
    centers = [center for _, center, _ in deepest]
    n = deepest[0][2].n

    def entrywise(weights):
        return UMatrix(tuple(
            tuple(padic_dot_oracle(weights, [node.rows[i][j] for _, _, node in deepest]) for j in range(n))
            for i in range(n)
        ))

    return entrywise([PadicScalar.one(centers[0].ctx)] * len(deepest)), entrywise(centers)


def _point_index(lam):
    key = lam.residue_key()
    p = lam.ctx.p
    return key % p if isinstance(key, int) else tuple(c % p for c in key)


def _center_add(center, lam):
    return lam if center is None else center + lam


def operator_spectrum_oracle(a: UMatrix, period: int = 1) -> list:
    """operator_spectrum by the object-level route: the deepest tree level, as (center, projector).

    Raises the ValueErrors of operator_spectrum's preconditions, with the same text.
    """
    ctx = a.ctx
    k = hermite_digits_matrix(a, period).lead_valuation
    if period > 1 and not 0 <= k < ctx.m:
        raise ValueError(f"period > 1 spectra need a valuation in [0, m) = [0, {ctx.m}); got {k}")
    return [(center, proj) for _, center, proj in spectral_tree_oracle(a, period, ctx.m)[-1]]


# -- sigma-orbit oracles: plain iteration, every iterate kept ----------------------


def translation_valuation_oracle(a: UMatrix, lam, ring) -> object:
    """The valuation of A - lam I over ring (A's own or an extension), formed as a full matrix difference.

    The identity is promoted and scaled by lam, so every off-diagonal
    entry is an explicit a_ij - lam * 0.
    """
    return (a.promote(ring) - UMatrix.identity(a.n, a.ctx).promote(ring).scale(lam)).valuation


def teichmuller_lift_oracle(residue: int, ctx: PrecisionContext) -> PadicScalar:
    """Fixed point of x -> x^p mod p^m over a residue, by iterating from it.

    Each step gains a digit of agreement, so the orbit is stationary
    within m + 4 steps.
    """
    if residue == 0:
        return PadicScalar.zero(ctx)
    x = residue
    for _ in range(ctx.m + 4):
        nxt = pow(x, ctx.p, ctx.modulus)
        if nxt == x:
            return PadicScalar.from_residue(x, ctx)
        x = nxt
    raise AssertionError("scalar lift oracle did not stabilise")


def teichmuller_lift_ext_oracle(a, m: int) -> tuple:
    """Coordinates of the fixed point of y -> y^(p^N) mod p^m over a in F_{p^N}.

    Iterates from the literal coordinate lift with ring_pow, within
    m * N + 4 steps.
    """
    ring = a.ring
    q = ring.ctx.p**ring.degree
    y = tuple(a.coords)
    for _ in range(m * ring.degree + 4):
        nxt = ring_pow(y, q, ring.modulus, ring.ctx.p**m)
        if nxt == y:
            return y
        y = nxt
    raise AssertionError("extension lift oracle did not stabilise")


def teichmuller_companion(p: int, degree: int, m: int) -> list:
    """Companion matrix mod p^m of the minimal polynomial of a Teichmuller point of degree N.

    The point lifts the class of X in F_{p^N}; its N conjugates w^(p^i)
    are the eigenvalues, distinct mod p, so the matrix is fixed by
    sigma^N and by no smaller power.
    """
    modulus = finite_field(p, degree).modulus
    q = p**m
    w = teichmuller_lift_ext_oracle(finite_field(p, degree).generator(), m)
    zero, one = (0,) * degree, (1,) + (0,) * (degree - 1)
    poly = [one]  # constant first
    for i in range(degree):
        root = ring_pow(w, p**i, modulus, q)
        shifted = [zero] + poly
        scaled = [ring_mul(c, root, modulus, q) for c in poly] + [zero]
        poly = [tuple((a - b) % q for a, b in zip(x, y)) for x, y in zip(shifted, scaled)]
    assert all(c[1:] == zero[1:] for c in poly), "minimal polynomial left Z/p^m"
    rows = [[0] * degree for _ in range(degree)]
    for i in range(degree):
        if i:
            rows[i][i - 1] = 1
        rows[i][degree - 1] = -poly[i][0] % q
    return rows


def jordan_scan_oracle(rows, p: int, m: int, period_bound: int):
    """Jordan splitting of an integer matrix mod p^m, keeping every p-th power iterate.

    At step k every period up to period_bound is tried against the
    earlier iterates; the cycle element at the first multiple of the
    period found is A_s, and A_n = A - A_s is raised to p-th powers until
    it is 0.  Returns (A_s, A_n, period, steps_to_kill) as int rows, or
    None when no period appears within m * period_bound + 4 + period_bound
    steps or A_n is not 0 within m + 4 steps.
    """
    q = p**m
    rows = [[e % q for e in row] for row in rows]
    iterates = [rows]
    found = None
    for k in range(1, m * period_bound + 4 + period_bound + 1):
        iterates.append(int_matpow(iterates[-1], p, q))
        for period in range(1, min(period_bound, k) + 1):
            if iterates[k - period] == iterates[k]:
                found = (k, period)
                break
        if found:
            break
    if not found:
        return None
    k, period = found
    start = k - period
    semisimple = iterates[start + (-start) % period]
    nilpotent = [[(a - s) % q for a, s in zip(ra, rs)] for ra, rs in zip(rows, semisimple)]
    power = nilpotent
    for steps in range(m + 5):
        if not any(map(any, power)):
            return semisimple, nilpotent, period, steps
        power = int_matpow(power, p, q)
    return None


def berkowitz_charpoly(rows, ops) -> list:
    """Coefficients of det(X - A), constant first, via iterated Samuelson-Berkowitz vectors.

    Division-free, so it runs over any ring the ops protocol describes;
    O(n^4) ring operations.
    """
    n = len(rows)
    poly = [ops.one]  # char poly of the empty matrix, leading coefficient first
    for size in range(1, n + 1):
        a = rows[size - 1][size - 1]
        col = [rows[i][size - 1] for i in range(size - 1)]
        rowv = [rows[size - 1][j] for j in range(size - 1)]
        block = [row[: size - 1] for row in rows[: size - 1]]
        # Toeplitz coefficients: 1, -a, -(row col), -(row block col), ...
        coeffs = [ops.one, ops.neg(a)]
        cur = col
        for _ in range(size - 1):
            coeffs.append(ops.neg(ops.dot(rowv, cur)))
            cur = [ops.dot(block_row, cur) for block_row in block]
        new = [ops.zero] * (size + 1)
        for i, c in enumerate(coeffs):
            for j, pcoef in enumerate(poly):
                if i + j <= size:
                    new[i + j] = ops.add(new[i + j], ops.mul(c, pcoef))
        poly = new
    return poly[::-1]


def berkowitz_det(rows, ops):
    """Division-free determinant: the signed constant term of berkowitz_charpoly."""
    const = berkowitz_charpoly(rows, ops)[0]
    return const if len(rows) % 2 == 0 else ops.neg(const)


# -- polynomials over F_p and F_q (oracle side) ------------------------------------


def monic_polys(p: int, degree: int):
    """Every monic polynomial of the given degree over F_p, constant first."""
    for tail in itertools.product(range(p), repeat=degree):
        yield tuple(tail) + (1,)


def int_poly_rem(a, b, p: int) -> list:
    """Remainder of a by the monic b over F_p, constant first, trailing zeros kept."""
    rem = [c % p for c in a]
    d = len(b) - 1
    for k in range(len(rem) - 1, d - 1, -1):
        c = rem[k]
        if c:
            for i in range(d + 1):
                rem[k - d + i] = (rem[k - d + i] - c * b[i]) % p
    return rem[:d]


def irreducible_by_trial_division(poly, p: int) -> bool:
    """No monic polynomial of degree 1 .. deg - 1 divides poly over F_p."""
    n = len(poly) - 1
    return n >= 1 and all(
        any(int_poly_rem(poly, g, p)) for d in range(1, n) for g in monic_polys(p, d)
    )


def roots_by_evaluation(f, p: int, modulus) -> list:
    """The roots in F_q = F_p[X]/(modulus) of f (coordinate-vector coefficients), sorted.

    Every element of F_q is substituted into f by Horner's rule with
    ring_mul at q = p.
    """
    degree = len(modulus) - 1
    roots = []
    for x in itertools.product(range(p), repeat=degree):
        acc = (0,) * degree
        for c in reversed(f):
            acc = tuple((a + b) % p for a, b in zip(ring_mul(acc, x, modulus, p), c))
        if not any(acc):
            roots.append(x)
    return roots


# -- answer documents (oracle side of the CLI renderer) ---------------------------


def residue_scalar_doc(r: int, p: int) -> dict:
    """The document of a residue mod p^m: r = p^v u with p not dividing u; v = 0, u = "0" for zero."""
    if r == 0:
        return {"v": 0, "u": "0"}
    v = 0
    while r % p == 0:
        r //= p
        v += 1
    return {"v": v, "u": str(r)}


def residue_entry_doc(entry, p: int):
    """An int entry is one scalar document; an extension entry, a coordinate tuple, a list of them."""
    if isinstance(entry, int):
        return residue_scalar_doc(entry, p)
    return [residue_scalar_doc(c, p) for c in entry]


def residue_matrix_doc(rows, p: int) -> dict:
    """The document of a matrix given as residue rows, entries in row-major order."""
    return {"entries": [residue_entry_doc(e, p) for row in rows for e in row], "n": len(rows)}


def scalar_matrix_doc(a: UMatrix) -> dict:
    """The document of a matrix of PadicScalars, each by its own valuation and unit, however large."""
    entries = [
        {"v": 0, "u": "0"} if e.is_zero else {"v": e.valuation, "u": str(e.unit)}
        for row in a.rows
        for e in row
    ]
    return {"entries": entries, "n": a.n}
