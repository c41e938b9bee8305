"""The benchmark's own modular arithmetic, independent of padicspec.

Everything here works on plain ints modulo q = p^m: matrix products and
inverses, Teichmuller lifts in Z/p^m and in the unramified ring
(Z/p^m)[X]/(f), Teichmuller digit strings, and the {"v", "u"} scalar
encoding of the command line interface.  Inputs are generated and answers
are checked with these functions alone, so neither changes when the
library does.
"""

from __future__ import annotations

import itertools


def valuation(r: int, p: int) -> int:
    v = 0
    while r % p == 0:
        r //= p
        v += 1
    return v


def to_scalar(r: int, p: int, q: int) -> dict:
    """Encode a residue mod q as the CLI's canonical scalar document."""
    r %= q
    if r == 0:
        return {"v": 0, "u": "0"}
    v = valuation(r, p)
    return {"v": v, "u": str(r // p**v)}


def from_scalar(doc: dict, p: int, q: int) -> int:
    """Residue mod q of a scalar document with non-negative valuation."""
    unit = int(doc["u"])
    if unit == 0:
        return 0
    if doc["v"] < 0:
        raise ValueError("scalar has negative valuation")
    return unit * p ** doc["v"] % q


def flat(rows) -> list:
    return [x for row in rows for x in row]


def square(entries: list, n: int) -> list:
    return [entries[i * n : (i + 1) * n] for i in range(n)]


def identity(n: int) -> list:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def diag(values) -> list:
    n = len(values)
    return [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a: list, b: list, q: int) -> list:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % q for col in cols] for row in a]


def matadd(a: list, b: list, q: int, scale: int = 1) -> list:
    return [[(x + scale * y) % q for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def matpow(a: list, e: int, q: int) -> list:
    out = identity(len(a))
    while e:
        if e & 1:
            out = matmul(out, a, q)
        a = matmul(a, a, q)
        e >>= 1
    return out


def matinv(a: list, p: int, q: int):
    """Inverse mod q by Gauss-Jordan on unit pivots; None if det is 0 mod p."""
    n = len(a)
    work = [list(row) + ident for row, ident in zip(a, identity(n))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] % p), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        inv = pow(work[col][col], -1, q)
        work[col] = [x * inv % q for x in work[col]]
        for r in range(n):
            f = work[r][col]
            if r != col and f:
                work[r] = [(x - f * y) % q for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def rand_gl(n: int, p: int, q: int, rng):
    """A uniform element of GL_n(Z/q) with its inverse."""
    while True:
        u = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        inv = matinv(u, p, q)
        if inv is not None:
            return u, inv


def conjugate(u, d, uinv, q):
    return matmul(matmul(u, d, q), uinv, q)


def teich(r: int, p: int, q: int) -> int:
    """Teichmuller lift of r mod p into Z/q: the fixed point of x -> x^p."""
    x = r % p
    while True:
        nxt = pow(x, p, q)
        if nxt == x:
            return x
        x = nxt


def teich_value(digit_idx, p: int, q: int) -> int:
    """sum_j w(idx_j) p^j mod q for a string of residues mod p."""
    return sum(teich(d, p, q) * p**j for j, d in enumerate(digit_idx)) % q


def teich_digits(x: int, p: int, m: int) -> list:
    """Residues mod p of the m Teichmuller digits of x in Z/p^m."""
    q = p**m
    out = []
    r = x % q
    for _ in range(m):
        d = r % p
        out.append(d)
        r = (r - teich(d, p, q)) % q // p
    return out


# -- the unramified ring (Z/q)[X]/(f) ------------------------------------------


def smallest_irreducible(p: int, degree: int) -> tuple:
    """Lexicographically smallest monic irreducible of degree 2 or 3 over F_p.

    Coefficients are constant-first with the leading 1; a cubic or
    quadratic is irreducible exactly when it has no root in F_p.
    """
    if degree not in (2, 3):
        raise ValueError("root test decides irreducibility for degree 2 or 3 only")
    for tail in itertools.product(range(p), repeat=degree):
        f = tail + (1,)
        if all(sum(c * x**i for i, c in enumerate(f)) % p for x in range(p)):
            return f
    raise ValueError("no irreducible found")


def ring_mul(a, b, f, q) -> tuple:
    n = len(f) - 1
    conv = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    for k in range(2 * n - 2, n - 1, -1):
        c = conv[k]
        if c:
            for i in range(n):
                conv[k - n + i] -= c * f[i]
    return tuple(c % q for c in conv[:n])


def ring_pow(a, e: int, f, q) -> tuple:
    n = len(f) - 1
    out = (1,) + (0,) * (n - 1)
    while e:
        if e & 1:
            out = ring_mul(out, a, f, q)
        a = ring_mul(a, a, f, q)
        e >>= 1
    return out


def teich_ext(coords, p: int, f, q: int) -> tuple:
    """Fixed point of y -> y^(p^N) reducing to coords mod p."""
    y = tuple(c % p for c in coords)
    qn = p ** (len(f) - 1)
    while True:
        nxt = ring_pow(y, qn, f, q)
        if nxt == y:
            return y
        y = nxt


def mult_matrix(a, f, q) -> list:
    """Matrix of y -> a*y on the basis 1, X, ..., X^(N-1) (columns are images)."""
    n = len(f) - 1
    cols = [ring_mul(a, tuple(int(i == j) for i in range(n)), f, q) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def block_diag(blocks) -> list:
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(row)] = row
        at += len(b)
    return out
