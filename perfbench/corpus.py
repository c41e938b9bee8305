"""Seeded problem corpora for the three workloads, with planted answers.

Every operator is built from its answer: A = U D U^-1 with U drawn from
GL_n(Z/p^m) and D a diagonal (or block-diagonal) matrix of Teichmuller
lifts chosen by the seed.  The answer the command line interface must
give follows from U and D, so each problem carries a check written
against the benchmark's own arithmetic in zp.py.

The seed picks U, the digit labels and the problem parameters inside
fixed ranges; the shape of each problem (dimension, precision, the
branching of the eigenvalue digit tree) is fixed per workload, so one
pass costs about the same on every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from . import zp

WORKLOADS = ("measure-tree", "large-p-spectral", "cli-batch")


@dataclass
class Problem:
    """One invocation of the CLI; check returns None or a failure reason."""

    pid: str
    argv: list
    doc: Optional[dict]
    status: int
    check: Callable[[dict], Optional[str]]

    @property
    def command(self) -> str:
        return self.argv[0]


def _matrix_doc(p: int, m: int, a: list) -> dict:
    q = p**m
    return {"p": p, "m": m, "entries": [zp.to_scalar(x, p, q) for x in zp.flat(a)]}


def _read_matrix(doc: dict, p: int, q: int) -> list:
    n = doc["n"]
    return zp.square([zp.from_scalar(e, p, q) for e in doc["entries"]], n)


# -- operators with a planted spectrum ------------------------------------------


@dataclass
class Planted:
    """A = U diag(lam) U^-1 over Z/p^m, with the digit strings of lam."""

    p: int
    m: int
    u: list
    uinv: list
    lam: list  # eigenvalue per diagonal position

    @property
    def q(self) -> int:
        return self.p**self.m

    @property
    def n(self) -> int:
        return len(self.lam)

    @property
    def matrix(self) -> list:
        return zp.conjugate(self.u, zp.diag(self.lam), self.uinv, self.q)

    def digits(self, value: int) -> list:
        return zp.teich_digits(value, self.p, self.m)

    def spectral_projector(self, keep) -> list:
        """U E U^-1 where E selects the positions whose eigenvalue passes keep."""
        e = zp.diag([int(keep(x)) for x in self.lam])
        return zp.conjugate(self.u, e, self.uinv, self.q)

    def function(self, f) -> list:
        return zp.conjugate(self.u, zp.diag([f(x) % self.q for x in self.lam]), self.uinv, self.q)


def eigenvalues(p: int, m: int, n: int, r: int, branch: int, rng) -> list:
    """n eigenvalues taking r distinct values with a fixed digit-tree shape.

    All values share their digits below level `branch` (the first one a
    unit, so the operator has valuation 0); they split in two at each of
    the next ceil(log2 r) levels; below that, level j uses min(r, p)
    distinct digits.  The seed picks which residues label the branches.
    """
    levels = max(1, (r - 1).bit_length())
    c = min(r, p)
    common = [rng.randrange(1, p) if j == 0 else rng.randrange(p) for j in range(branch)]
    pairs = [rng.sample(range(p), 2) for _ in range(levels)]
    tails = [rng.sample(range(p), c) for _ in range(m)]
    values = []
    for i in range(r):
        digits = []
        for j in range(m):
            if j < branch:
                digits.append(common[j])
            elif j < branch + levels:
                digits.append(pairs[j - branch][(i >> (j - branch)) & 1])
            else:
                digits.append(tails[j][i % c])
        values.append(zp.teich_value(digits, p, p**m))
    return [values[k % r] for k in range(n)]


def planted_operator(p, m, n, r, branch, rng) -> Planted:
    u, uinv = zp.rand_gl(n, p, p**m, rng)
    return Planted(p, m, u, uinv, eigenvalues(p, m, n, r, branch, rng))


def _prefixes(op: Planted, level: int) -> set:
    return {tuple(op.digits(x)[: level + 1]) for x in op.lam}


def _agree(doc: dict, want: list, p: int, digits: int) -> bool:
    """Whether a matrix document equals want modulo p^digits."""
    r = p**digits
    got = _read_matrix(doc, p, r)
    return got == [[x % r for x in row] for row in want]


# The input file carries A mod p^m only, and the library peels the digits
# of that representative.  Digit i of an expansion sum_i x_i p^i of A mod
# p^m is determined mod p^(m-i) alone, and so are the projectors resolving
# it, so the checks below compare at that precision.


def check_hermite(op: Planted) -> Callable:
    def check(out):
        if out.get("lead_valuation") != 0 or out.get("period") != 1:
            return "lead valuation or period differs from the planted operator"
        if len(out["digits"]) != op.m:
            return "digit count differs from m"
        total = [[0] * op.n for _ in range(op.n)]
        for i, got in enumerate(out["digits"]):
            want = op.function(lambda x, i=i: zp.teich(op.digits(x)[i], op.p, op.q))
            if not _agree(got, want, op.p, op.m - i):
                return f"digit {i} is not U diag(w(d_{i})) U^-1 mod p^(m-{i})"
            total = zp.matadd(total, _read_matrix(got, op.p, op.q), op.q, scale=op.p**i)
        if total != op.matrix:
            return "digits do not reassemble to A"
        return None

    return check


def check_measure(op: Planted, depth: int) -> Callable:
    def check(out):
        if out.get("lead_valuation") != 0 or out.get("depth") != depth:
            return "lead valuation or depth differs"
        seen = {}
        for node in out["nodes"]:
            addr = tuple(node["address"])
            seen.setdefault(len(addr) - 1, set()).add(addr)
            if node["center"] != zp.to_scalar(zp.teich_value(addr, op.p, op.q), op.p, op.q):
                return f"ball center of {list(addr)} is wrong"
            want = op.spectral_projector(lambda x: tuple(op.digits(x)[: len(addr)]) == addr)
            if not _agree(node["projector"], want, op.p, op.m - len(addr) + 1):
                return f"projector of ball {list(addr)} is wrong"
        for level in range(depth):
            if seen.get(level, set()) != _prefixes(op, level):
                return f"level {level} addresses differ from the planted digit prefixes"
        return None

    return check


def check_integral(op: Planted, depth: int) -> Callable:
    def check(out):
        if _read_matrix(out["identity_check"], op.p, op.q) != zp.identity(op.n):
            return "identity_check is not the identity"
        err = out["error_valuation"]
        if err is not None and err < depth:
            return f"error_valuation {err} < lead + depth = {depth}"
        want = op.function(lambda x: zp.teich_value(op.digits(x)[:depth], op.p, op.q))
        if not _agree(out["reconstruction"], want, op.p, op.m - depth + 1):
            return "reconstruction is not U diag(lam to depth digits) U^-1"
        return None

    return check


def check_diam(op: Planted) -> Callable:
    def check(out):
        distinct = sorted(set(op.lam))
        if sorted(zp.from_scalar(x, op.p, op.q) for x in out["spectrum"]) != distinct:
            return "spectrum differs from the planted eigenvalues"
        diffs = [
            zp.valuation((a - b) % op.q, op.p)
            for i, a in enumerate(distinct)
            for b in distinct[i + 1 :]
        ]
        if out["diameter_valuation"] != (min(diffs) if diffs else None):
            return "diameter valuation differs from the planted eigenvalues"
        return None

    return check


def check_uncertainty(samples: int) -> Callable:
    def check(out):
        if len(out["checks"]) != samples:
            return "wrong number of psi samples"
        if not out["holds"] or not all(c["holds"] for c in out["checks"]):
            return "commutator inequality reported as violated"
        return None

    return check


def check_rejection(kind: str, **fields) -> Callable:
    def check(out):
        err = out.get("error", {})
        if err.get("kind") != kind:
            return f"expected a {kind} rejection"
        for key, value in fields.items():
            if err.get(key) != value:
                return f"rejection {key} is {err.get(key)!r}, planted {value!r}"
        return None

    return check


def malformed(fieldname: str) -> Callable:
    return check_rejection("malformed_input", field=fieldname)


# -- spectral resolution (period 1 and over the extension ring) -------------------


@dataclass
class BlockOperator:
    """A = U B U^-1 with B block-diagonal: Teichmuller scalars and blocks.

    A block is the matrix of multiplication by a Teichmuller lift w in
    (Z/p^m)[X]/(f), f the smallest monic irreducible of degree N, so its
    eigenvalues are the N conjugates w^(p^i) of w in that ring.
    """

    p: int
    m: int
    degree: int
    u: list
    uinv: list
    matrix: list
    eigen: list  # coordinate vectors in (Z/p^m)[X]/(f)

    @property
    def q(self) -> int:
        return self.p**self.m


def block_operator(p, m, degree, scalars, blocks, rng, shared_block=False) -> BlockOperator:
    """`scalars` distinct Teichmuller scalars and `blocks` degree-N blocks."""
    q = p**m
    f = zp.smallest_irreducible(p, degree) if degree > 1 else None
    pieces, eigen = [], []
    residues = rng.sample(range(p), scalars)
    for r in residues:
        w = zp.teich(r, p, q)
        pieces.append([[w]])
        eigen.append((w,) + (0,) * (degree - 1))
    seen = set()
    for k in range(blocks):
        if shared_block and k:
            pieces.append(pieces[-1])
            continue
        while True:
            coords = tuple(rng.randrange(p) for _ in range(degree))
            if any(coords[1:]) and coords not in seen:
                break
        w = zp.teich_ext(coords, p, f, q)
        conj = [zp.ring_pow(w, p**i, f, q) for i in range(degree)]
        seen.update(tuple(c % p for c in x) for x in conj)
        pieces.append(zp.mult_matrix(w, f, q))
        eigen.extend(conj)
    n = sum(len(b) for b in pieces)
    u, uinv = zp.rand_gl(n, p, q, rng)
    b = zp.block_diag(pieces)
    return BlockOperator(p, m, degree, u, uinv, zp.conjugate(u, b, uinv, q), sorted(set(eigen)))


def _ring_entries(doc: dict, degree: int, p: int, q: int) -> list:
    """Entries of a projector document as coordinate tuples."""
    out = []
    for e in doc["entries"]:
        coords = e if isinstance(e, list) else [e]
        if len(coords) != degree:
            raise ValueError("entry has the wrong number of coordinates")
        out.append(tuple(zp.from_scalar(c, p, q) for c in coords))
    return zp.square(out, doc["n"])


def check_spectral(op: BlockOperator) -> Callable:
    p, q, d = op.p, op.q, op.degree
    f = zp.smallest_irreducible(p, d) if d > 1 else (0, 1)  # period 1: the ring Z/p^m

    def check(out):
        if out.get("period") != d or out.get("residual_identity_defect") != 0.0:
            return "period or identity defect differs"
        n = len(op.matrix)
        zero = (0,) * d
        total = [[zero] * n for _ in range(n)]
        weighted = [[zero] * n for _ in range(n)]
        lams = []
        for point in out["points"]:
            raw = point["eigenvalue"]
            lam = tuple(zp.from_scalar(c, p, q) for c in (raw if isinstance(raw, list) else [raw]))
            lams.append(lam)
            if zp.ring_pow(lam, p**d, f, q) != lam:
                return "eigenvalue is not fixed by sigma^N"
            proj = _ring_entries(point["projector"], d, p, q)
            for i in range(n):
                for j in range(n):
                    x = proj[i][j]
                    total[i][j] = tuple((s + t) % q for s, t in zip(total[i][j], x))
                    weighted[i][j] = tuple(
                        (s + t) % q for s, t in zip(weighted[i][j], zp.ring_mul(lam, x, f, q)))
        if sorted(lams) != op.eigen:
            return "eigenvalues differ from the planted ones"
        one = (1,) + (0,) * (d - 1)
        if total != [[one if i == j else zero for j in range(n)] for i in range(n)]:
            return "projectors do not sum to the identity"
        want = [[(x,) + (0,) * (d - 1) for x in row] for row in op.matrix]
        if weighted != want:
            return "eigenvalue-weighted projectors do not sum to the operator"
        return None

    return check


# -- corpus builders ----------------------------------------------------------------


class _Corpus:
    def __init__(self, workload: str):
        self.workload = workload
        self.items = []

    def add(self, argv, doc, status, check):
        pid = f"{self.workload}-{len(self.items):04d}-{argv[0]}"
        self.items.append(Problem(pid, list(argv), doc, status, check))


def _measure_family(c: _Corpus, op: Planted, depth: Optional[int] = None):
    doc = _matrix_doc(op.p, op.m, op.matrix)
    full = depth or op.m
    flags = ["--depth", str(depth)] if depth else []
    c.add(["measure", *flags], doc, 0, check_measure(op, full))
    c.add(["integral", *flags], doc, 0, check_integral(op, full))
    c.add(["hermite"], doc, 0, check_hermite(op))
    c.add(["diam"], doc, 0, check_diam(op))


# (p, n, m, distinct eigenvalues, branch level, depth or None for m)
MEASURE_TREE = (
    (3, 4, 4, 2, 1, None),
    (3, 4, 4, 4, 0, None),
    (3, 4, 8, 2, 2, None),
    (3, 4, 8, 4, 0, None),
    (5, 4, 4, 2, 0, None),
    (5, 4, 4, 4, 1, None),
    (5, 4, 8, 2, 1, None),
    (5, 4, 8, 4, 0, None),
    (3, 8, 8, 4, 0, None),
    (5, 8, 4, 4, 1, None),
    (3, 16, 8, 4, 0, 2),
)


def build_measure_tree(rng) -> list:
    c = _Corpus("measure-tree")
    for p, n, m, r, branch, depth in MEASURE_TREE:
        _measure_family(c, planted_operator(p, m, n, r, branch, rng), depth)
    _uncertainty(c, planted_operator(3, 4, 4, 4, 0, rng), planted_operator(3, 4, 4, 2, 1, rng), 4, rng)
    return c.items


# (p, N, m, Teichmuller scalars, degree-N blocks); period 1 rows use N = 1.
# Four similar p = 101, n = 4 rows sit at problem_tail_ms (the 11th
# slowest), where base-ring work does not depend on the seed.
LARGE_P = (
    (53, 1, 3, 4, 0), (53, 1, 4, 2, 0), (53, 1, 4, 4, 0), (53, 1, 3, 2, 0),
    (101, 1, 3, 2, 0), (101, 1, 4, 4, 0), (101, 1, 4, 2, 0), (101, 1, 3, 4, 0),
    (101, 1, 4, 4, 0), (101, 1, 3, 4, 0),
    (211, 1, 3, 4, 0), (211, 1, 4, 2, 0), (211, 1, 3, 2, 0),
    (3, 2, 4, 0, 1), (3, 2, 3, 2, 1), (3, 2, 4, 0, 2), (3, 2, 3, 0, 1), (3, 2, 4, 2, 1),
    (3, 3, 3, 1, 1), (3, 3, 4, 2, 0), (3, 3, 4, 1, 1), (3, 3, 3, 2, 0),
    (5, 2, 3, 0, 1), (5, 2, 4, 2, 1), (5, 2, 3, 0, 2), (5, 2, 4, 0, 1), (5, 2, 3, 2, 1),
    (5, 3, 3, 2, 0),
    (7, 2, 4, 0, 1), (7, 2, 3, 2, 1), (7, 2, 3, 0, 1), (7, 2, 4, 2, 1),
    (11, 2, 3, 0, 1), (11, 2, 4, 0, 1),
)


def build_large_p(rng) -> list:
    c = _Corpus("large-p-spectral")
    for p, degree, m, scalars, blocks in LARGE_P:
        op = block_operator(p, m, degree, scalars, blocks, rng)
        c.add(["spectral", "--N", str(degree)], _matrix_doc(p, m, op.matrix), 0, check_spectral(op))
    return c.items


def build_cli_batch(rng) -> list:
    c = _Corpus("cli-batch")
    for k in range(30):
        _lift(c, _pick((3, 5, 7, 11, 13), k), 2 + k % 7, rng)
    for k in range(30):
        _digits(c, _pick((3, 5, 7), k), 2 + k % 6, rng)
    for k in range(6):
        _classify_family(c, k, rng)
    for k in range(10):
        p = _pick((3, 5, 7), k)
        op = block_operator(p, 2 + k % 3, 1, 1 + k % 3, 0, rng)
        c.add(["spectral"], _matrix_doc(p, op.m, op.matrix), 0, check_spectral(op))
    for k in range(4):
        op = block_operator(3, 2 + k % 2, 2, 0, 1, rng)
        c.add(["spectral", "--N", "2"], _matrix_doc(3, op.m, op.matrix), 0, check_spectral(op))
    for k in range(8):
        n = _pick((2, 3, 4), k)
        op = planted_operator(_pick((3, 5), k), 2 + k % 3, n, min(n, 2 + k % 2), k % 2, rng)
        _measure_family(c, op)
    for k in range(12):
        _nilpotent_rejection(c, k, rng)
    for _ in range(3):
        _uncertainty(c, planted_operator(3, 3, 2, 2, 0, rng), planted_operator(3, 3, 2, 2, 0, rng), 2, rng)
    for k in range(14):
        _jordan(c, k, rng)
    for k in range(7):
        for op in ("raise", "lower", "shift", "number", "position"):
            _ladder(c, "kochubei", op, k, rng)
        for op in ("euler", "raise", "derivative"):
            _ladder(c, "euler", op, k, rng)
    for k in range(20):
        _certify(c, k, rng)
    for k in range(2):
        _malformed_family(c, k, rng)
    return c.items


def _pick(values, k):
    """Problem shapes cycle through fixed values, so every seed costs alike."""
    return values[k % len(values)]


def _uncertainty(c, a: Planted, b: Planted, samples: int, rng):
    doc = {"p": a.p, "m": a.m, "A": _matrix_doc(a.p, a.m, a.matrix)["entries"],
           "B": _matrix_doc(b.p, b.m, b.matrix)["entries"]}
    c.add(["uncertainty", "--samples", str(samples), "--seed", str(rng.randrange(10**6))],
          doc, 0, check_uncertainty(samples))


def _unit(p, q, rng) -> int:
    while True:
        u = rng.randrange(1, q)
        if u % p:
            return u


def _lift(c, p, m, rng):
    r = rng.randrange(p)
    q = p**m
    want = {"p": p, "m": m, "residue": r, "value": zp.to_scalar(zp.teich(r, p, q), p, q)}
    c.add(["lift", "--p", str(p), "--m", str(m), "--residue", str(r)], None, 0,
          lambda out: None if out == want else "lift differs from w(residue)")


def _digits(c, p, m, rng):
    q = p**m
    num = rng.randrange(1, 10**6) * p ** rng.randrange(3) * rng.choice((1, -1))
    den = rng.randrange(1, 1000) * p ** rng.randrange(2)
    vn, vd = zp.valuation(abs(num), p), zp.valuation(den, p)
    unit = (num // p**vn) * pow(den // p**vd, -1, q) % q
    want = {
        "p": p, "m": m, "value": {"v": vn - vd, "u": str(unit)}, "lead_valuation": vn - vd,
        "digits": [zp.to_scalar(zp.teich(d, p, q), p, q) for d in zp.teich_digits(unit, p, m)],
    }
    c.add(["digits", "--p", str(p), "--m", str(m), "--num", str(num), "--den", str(den)], None, 0,
          lambda out: None if out == want else "digit expansion differs")


def _classify_check(kind, period=None, steps=None, limit=None):
    def check(out):
        if out.get("kind") != kind or out.get("period") != period:
            return f"orbit is {out.get('kind')}/{out.get('period')}, planted {kind}/{period}"
        if steps is not None and out.get("steps") != steps:
            return f"steps {out.get('steps')} differ from the planted {steps}"
        if limit is not None and out.get("limit") != limit:
            return "limit differs from the planted Teichmuller point"
        return None

    return check


def _classify_family(c, k, rng):
    """One input per orbit kind, as scalars and as matrices."""
    p = _pick((3, 5, 7), k)
    m = 3 + k % 4
    q = p**m
    # top-nilpotent scalar p^v u: zero after the first j with v p^j >= m
    v = 1 + k % (m - 1)
    steps = next(j for j in range(m + 1) if v * p**j >= m)
    x = p**v * _unit(p, q, rng) % q
    c.add(["classify"], {"p": p, "m": m, "scalar": zp.to_scalar(x, p, q)}, 0,
          _classify_check("TopNilpotent", steps=steps))
    # Teichmuller point: periodic with period 1
    w = zp.teich(rng.randrange(1, p), p, q)
    c.add(["classify"], {"p": p, "m": m, "scalar": zp.to_scalar(w, p, q)}, 0,
          _classify_check("Periodic", period=1, steps=1))
    # a unit off its Teichmuller point falls onto it: quasi-periodic
    r = rng.randrange(1, p)
    y = (zp.teich(r, p, q) + p * rng.randrange(1, p)) % q
    c.add(["classify"], {"p": p, "m": m, "scalar": zp.to_scalar(y, p, q)}, 0,
          _classify_check("QuasiPeriodic", period=1, limit=zp.to_scalar(zp.teich(r, p, q), p, q)))
    # matrices: a degree-2 or degree-3 block has period N
    for degree in (2, 3):
        bp = 3 if degree == 3 else _pick((3, 5), k)
        op = block_operator(bp, 3, degree, 0, 1, rng)
        doc = _matrix_doc(bp, 3, op.matrix)
        c.add(["classify", "--N", str(degree)], doc, 0,
              _classify_check("Periodic", period=degree, steps=degree))
        # a period beyond the bound reads as chaos at precision
        c.add(["classify", "--N", str(degree - 1)], doc, 0, _classify_check("ChaosAtPrecision"))
        # adding p (which commutes with the block) moves it off its cycle;
        # its orbit falls back onto the period-N one
        bq = bp**3
        pert = zp.matadd(op.matrix, zp.identity(len(op.matrix)), bq, scale=bp)
        c.add(["classify", "--N", str(degree)], _matrix_doc(bp, 3, pert), 0,
              _classify_check("QuasiPeriodic", period=degree))
    # a nilpotent matrix mod p
    n = 2 + k % min(p - 1, 3)
    u, uinv = zp.rand_gl(n, p, q, rng)
    strict = [[rng.randrange(q) if j > i else 0 for j in range(n)] for i in range(n)]
    nil = zp.conjugate(u, strict, uinv, q)
    c.add(["classify"], _matrix_doc(p, m, nil), 0, _classify_check("TopNilpotent"))


def _nilpotent_rejection(c, k, rng):
    """U (D + p^(s-1) E_01) U^-1 with D_00 = D_11: digit peeling stops at stage s."""
    p = _pick((3, 5), k)
    m = 3 + k % 3
    n = _pick((2, 3, 4), k)
    q = p**m
    s = 1 + k % m
    op = planted_operator(p, m, n, 2, 1, rng)
    d = zp.diag([op.lam[0], op.lam[0]] + [op.lam[1]] * (n - 2))
    d[0][1] = p ** (s - 1) * rng.randrange(1, p)
    a = zp.conjugate(op.u, d, op.uinv, q)
    cmd = _pick(("hermite", "measure", "diam", "integral"), k)
    c.add([cmd], _matrix_doc(p, m, a), 1, check_rejection("not_hermite", stage=s))


def _jordan(c, k, rng):
    """S + N with N nilpotent and commuting with S; S has period 1 or 2."""
    p = _pick((3, 5), k)
    m = 2 + k % 3
    q = p**m
    if k % 3:
        n = _pick((2, 3, 4), k)
        period = 1
        w = [zp.teich(r, p, q) for r in rng.sample(range(p), 2)]
        s = zp.diag([w[0], w[0]] + [w[1]] * (n - 2))
        nil = [[0] * n for _ in range(n)]
        nil[0][1] = p ** rng.randrange(m) * rng.randrange(1, p)
    else:
        op = block_operator(p, m, 2, 0, 2, rng, shared_block=True)
        n, period = 4, 2
        s = zp.conjugate(op.uinv, op.matrix, op.u, q)  # back to block form
        nil = [[0] * 4 for _ in range(4)]
        nil[0][2] = nil[1][3] = p ** rng.randrange(m)
    u, uinv = zp.rand_gl(n, p, q, rng)
    a = zp.conjugate(u, zp.matadd(s, nil, q), uinv, q)
    doc = _matrix_doc(p, m, a)
    if period == 2 and k % 2:
        c.add(["jordan", "--N", "1"], doc, 1, check_rejection("period_exceeded", period_bound=1))
        return

    def check(out):
        ss = _read_matrix(out["semisimple"], p, q)
        nn = _read_matrix(out["nilpotent"], p, q)
        if out["period"] != period:
            return f"period {out['period']} differs from the planted {period}"
        if zp.matadd(ss, nn, q) != a:
            return "semisimple + nilpotent is not A"
        if zp.matpow(ss, p**period, q) != ss:
            return "semisimple part is not fixed by sigma^N"
        steps = out["steps_to_kill"]
        if zp.matpow(nn, p**steps, q) != [[0] * n for _ in range(n)]:
            return "nilpotent part survives steps_to_kill p-th powers"
        return None

    c.add(["jordan"], doc, 0, check)


def _ladder(c, command, op, k, rng):
    p = _pick((3, 5, 7), k)
    m = 2 + k % 4
    q = p**m
    size = 3 + k % 6
    coeffs = [0 if rng.randrange(5) == 0 else p ** rng.randrange(m) * rng.randrange(1, q) % q
              for _ in range(size)]
    if op in ("raise", "position") and k % 2:
        coeffs[-1] = 0
    c_ = coeffs + [0]
    if command == "kochubei":
        lower = coeffs[1:] + [0]
        shift = [c_[j] + c_[j + 1] for j in range(size)]
        truncated = op in ("raise", "position") and coeffs[-1] != 0
        if op == "lower":
            want = lower
        elif op == "number":
            want = [j * x for j, x in enumerate(coeffs)]
        elif op == "shift":
            want = shift
        else:
            base = coeffs if op == "raise" else shift
            want = [0] + [(j + 1) * base[j] for j in range(size - 1)]
    else:
        truncated = op == "raise" and coeffs[-1] != 0
        want = {
            "euler": [j * x for j, x in enumerate(coeffs)],
            "raise": [0] + coeffs[:-1],
            "derivative": [(j + 1) * c_[j + 1] for j in range(size - 1)] + [0],
        }[op]
    want = [x % q for x in want]
    doc = {"p": p, "m": m, "coeffs": [zp.to_scalar(x, p, q) for x in coeffs]}

    def check(out):
        got = [zp.from_scalar(x, p, q) for x in out["coeffs"]]
        if got != want or out["truncated"] != truncated or out["op"] != op:
            return f"{command} {op} differs from the planted coefficients"
        return None

    c.add([command, "--op", op], doc, 0, check)


def _certify(c, k, rng):
    p = _pick((3, 5, 7), k)
    m = 2 + k % 4
    n = _pick((2, 3, 4), k)
    q = p**m
    u, uinv = zp.rand_gl(n, p, q, rng)
    rank = 1 + k % (n - 1)
    proj = zp.conjugate(u, zp.diag([1] * rank + [0] * (n - rank)), uinv, q)
    flags = ["--samples", str(4 + k % 9), "--seed", str(rng.randrange(1000))]
    kind = k % 3
    if kind == 0:
        c.add(["certify-projection", *flags], _matrix_doc(p, m, proj), 0,
              lambda out: None if out["valid"] and out["failures"] == [] else "valid projection refused")
        return
    if kind == 1:
        # pi + p^s: the idempotency defect p^s (2 pi - 1) has valuation s
        s = 1 + k % (m - 1)
        doc = _matrix_doc(p, m, zp.matadd(proj, zp.identity(n), q, scale=p**s))
        failure = "idempotency"
    else:
        doc = _matrix_doc(p, m, proj)
        for e in doc["entries"]:
            if e["u"] != "0":
                e["v"] -= 1
        failure = "norm_not_one"
    c.add(["certify-projection", *flags], doc, 0,
          lambda out: None if not out["valid"] and failure in out["failures"]
          else f"non-projection not refused with {failure}")


def _malformed_family(c, k, rng):
    """Inputs with one planted bad field each; the rejection must name it."""
    p = _pick((3, 5, 7), k)
    m = 2 + k % 3
    op = planted_operator(p, m, 2, 2, 0, rng)
    good = _matrix_doc(p, m, op.matrix)

    def bad(mutate):
        doc = {key: (list(map(dict, v)) if key == "entries" else v) for key, v in good.items()}
        mutate(doc)
        return doc

    i = rng.randrange(4)
    cases = [
        (["hermite"], bad(lambda d: d["entries"][i].update(u="12x")), f"entries[{i}].u"),
        (["measure"], bad(lambda d: d["entries"][i].update(u=str(p * 7))), f"entries[{i}].u"),
        (["diam"], bad(lambda d: d["entries"][i].update(v="0")), f"entries[{i}].v"),
        (["spectral"], bad(lambda d: d.pop("p")), "p"),
        (["classify"], bad(lambda d: d.update(m=0)), "m"),
        (["jordan"], bad(lambda d: d.update(p=9)), "p"),
        (["integral"], bad(lambda d: d["entries"].pop()), "entries"),
        (["spectral", "--N", "0"], good, "N"),
        (["measure", "--depth", str(m + 1)], good, "depth"),
        (["certify-projection"], bad(lambda d: d["entries"].__setitem__(i, 5)), f"entries[{i}]"),
        (["kochubei", "--op", "raise"], {"p": p, "m": m, "coeffs": []}, "coeffs"),
        (["euler", "--op", "integrate"], {"p": p, "m": m, "coeffs": [{"v": 0, "u": "1"}]}, "op"),
        (["lift", "--p", str(p), "--m", str(m), "--residue", str(p)], None, "residue"),
        (["lift", "--p", str(p), "--residue", "1"], None, "m"),
        (["digits", "--p", str(p), "--m", str(m), "--num", "1", "--den", "0"], None, "den"),
    ]
    b3 = planted_operator(p, m, 3, 2, 0, rng)
    cases.append((["uncertainty"], {"p": p, "m": m, "A": good["entries"],
                                    "B": _matrix_doc(p, m, b3.matrix)["entries"]}, "B"))
    for argv, doc, fieldname in cases:
        c.add(argv, doc, 2, malformed(fieldname))


BUILDERS = {
    "measure-tree": build_measure_tree,
    "large-p-spectral": build_large_p,
    "cli-batch": build_cli_batch,
}


def build(workload: str, seed: int) -> list:
    """The workload's problems for one seed; identical for identical seeds."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"))
