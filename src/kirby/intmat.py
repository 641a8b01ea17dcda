"""Exact integer matrix utilities shared by the homology and form modules.

All matrices are lists (or tuples) of rows of Python ints, so every
computation here is exact.  The Smith form ends with the invariant factors
on the diagonal, each at most |det| for a nonsingular matrix, but on the
way the entries of d, U and V still grow with n: on random 30x30 linking
matrices they reach thousands to ~100k bits against ~70 bits of det.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Matrix = list[list[int]]


def zeros(m: int, n: int) -> Matrix:
    return [[0] * n for _ in range(m)]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def copy(a) -> Matrix:
    return [list(row) for row in a]


def dims(a) -> tuple[int, int]:
    return len(a), len(a[0]) if a else 0


def transpose(a) -> Matrix:
    m, n = dims(a)
    return [[a[i][j] for i in range(m)] for j in range(n)]


def matmul(a, b) -> Matrix:
    m, k = dims(a)
    k2, n = dims(b)
    if k != k2:
        raise ValueError(f"dimension mismatch {k} != {k2}")
    out = zeros(m, n)
    for i in range(m):
        for j in range(n):
            out[i][j] = sum(a[i][t] * b[t][j] for t in range(k))
    return out


def matvec(a, v) -> list[int]:
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


def dot(u, v) -> int:
    return sum(x * y for x, y in zip(u, v, strict=True))


def pairing(q, u, v) -> int:
    """u^T q v for a symmetric matrix q."""
    return dot(u, matvec(q, v))


def is_symmetric(a) -> bool:
    m, n = dims(a)
    return m == n and all(a[i][j] == a[j][i] for i in range(n) for j in range(i))


def equal(a, b) -> bool:
    return [list(r) for r in a] == [list(r) for r in b]


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass
class SmithForm:
    d: Matrix  # u @ a @ v == d, diagonal
    u: Matrix  # unimodular row transform
    v: Matrix  # unimodular column transform

    @property
    def divisors(self) -> list[int]:
        """Nonzero diagonal entries d_1 | d_2 | ..."""
        m, n = dims(self.d)
        out = []
        for i in range(min(m, n)):
            if self.d[i][i] != 0:
                out.append(abs(self.d[i][i]))
        return out


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = x*a + y*b: (a, 1, 0) when a divides b, else g = gcd > 0."""
    if b % a == 0:
        return a, 1, 0
    r0, r1, x0, x1 = a, b, 1, 0
    while r1:
        q = r0 // r1
        r0, r1, x0, x1 = r1, r0 - q * r1, x1, x0 - q * x1
    if r0 < 0:
        r0, x0 = -r0, -x0
    return r0, x0, (r0 - x0 * a) // b


def smith_normal_form(a) -> SmithForm:
    """Diagonalize an integer matrix by unimodular row/column operations.

    Each pivot clears its column and row with 2x2 extended-gcd steps
    (Kannan & Bachem 1979; Cohen, *A Course in Computational Algebraic
    Number Theory*, 2.4); (a, b) -> (gcd, lcm) on the diagonal then makes
    each divisor divide the next.  Pivots stay positive, so d does too.
    """
    m, n = dims(a)
    # d carries u to its right and v below it, so a row step acts on d and
    # u at once and a column step (always on the first n columns) on d and v.
    d = [list(row) + e for row, e in zip(a, identity(m))] + identity(n)

    def rows(i, j, x, y, z, w):
        """Rows i, j become x*ri + y*rj, z*ri + w*rj (j wins if i == j)."""
        ri, rj = d[i], d[j]
        if (x, y, w) == (1, 0, 1):
            d[j] = [q + z * p for p, q in zip(ri, rj)]
        elif (x, y, w) == (0, 1, 0):
            d[i], d[j] = rj, [z * p for p in ri]
        else:
            d[i] = [x * p + y * q for p, q in zip(ri, rj)]
            d[j] = [z * p + w * q for p, q in zip(ri, rj)]

    def cols(i, j, x, y, z, w):
        """Columns i, j likewise."""
        if (x, y, w) == (1, 0, 1):
            for row in d:
                row[j] += z * row[i]
        else:
            for row in d:
                p, q = row[i], row[j]
                row[i], row[j] = x * p + y * q, z * p + w * q

    for t in range(min(m, n)):
        pivot = next(((i, j) for i in range(t, m) for j in range(t, n) if d[i][j]), None)
        if pivot is None:
            break
        p, q = pivot
        if p != t or d[p][q] < 0:
            rows(p, t, 0, 1, 1 if d[p][q] > 0 else -1, 0)
        if q != t:
            cols(q, t, 0, 1, 1, 0)
        # A step that is not a plain subtraction shrinks the pivot, and a
        # column step that is one puts nothing back below it, so this ends.
        while any(d[t][t + 1 : n]) or any(row[t] for row in d[t + 1 : m]):
            for i in range(t + 1, m):
                if d[i][t]:
                    g, x, y = _xgcd(d[t][t], d[i][t])
                    rows(t, i, x, y, -d[i][t] // g, d[t][t] // g)
            for j in range(t + 1, n):
                if d[t][j]:
                    g, x, y = _xgcd(d[t][t], d[t][j])
                    cols(t, j, x, y, -d[t][j] // g, d[t][t] // g)
    for i in range(min(m, n)):
        for j in range(i + 1, min(m, n)):
            di, dj = d[i][i], d[j][j]
            if di and dj % di:
                g, x, y = _xgcd(di, dj)
                rows(i, j, x, y, -dj // g, di // g)
                cols(i, j, 1, 1, -y * dj // g, x * di // g)
    return SmithForm([row[:n] for row in d[:m]], [row[n:] for row in d[:m]], d[m:])


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group: free rank plus invariant factors > 1."""

    rank: int
    torsion: tuple[int, ...] = ()

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = [f"Z/{t}" for t in self.torsion]
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        return " + ".join(parts) if parts else "0"


def cokernel(a, ambient_rank: int | None = None) -> AbelianGroup:
    """Z^m / column-span of the m x n matrix ``a``.

    ``ambient_rank`` defaults to the row count; pass it explicitly for an
    empty matrix viewed as a map into Z^m.
    """
    m, n = dims(a)
    if ambient_rank is None:
        ambient_rank = m
    if n == 0 or m == 0:
        return AbelianGroup(rank=ambient_rank)
    divisors = smith_normal_form(a).divisors
    torsion = tuple(d for d in divisors if d > 1)
    return AbelianGroup(rank=ambient_rank - len(divisors), torsion=torsion)


def kernel_basis(a) -> list[list[int]]:
    """Integer basis of the null space of ``a`` (vectors as columns of v)."""
    m, n = dims(a)
    if n == 0:
        return []
    if m == 0:
        return [row[:] for row in identity(n)]
    sf = smith_normal_form(a)
    r = len(sf.divisors)
    cols = transpose(sf.v)
    return [cols[j] for j in range(r, n)]


def rank(a) -> int:
    m, n = dims(a)
    if m == 0 or n == 0:
        return 0
    return len(smith_normal_form(a).divisors)


def det(a) -> int:
    m, n = dims(a)
    if m != n:
        raise ValueError("determinant of non-square matrix")
    if n == 0:
        return 1
    # Bareiss fraction-free elimination
    b = copy(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if b[k][k] == 0:
            for i in range(k + 1, n):
                if b[i][k] != 0:
                    b[i], b[k] = b[k], b[i]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                b[i][j] = (b[i][j] * b[k][k] - b[i][k] * b[k][j]) // prev
        prev = b[k][k]
    return sign * b[n - 1][n - 1]


def solve(a, b) -> list[int] | None:
    """An integer solution x of a x = b, or None if none exists."""
    m, n = dims(a)
    if len(b) != m:
        raise ValueError("dimension mismatch")
    if n == 0:
        return [] if all(x == 0 for x in b) else None
    sf = smith_normal_form(a)
    bp = matvec(sf.u, list(b))
    y = [0] * n
    for i in range(m):
        d = sf.d[i][i] if i < n else 0
        if d == 0:
            if bp[i] != 0:
                return None
        else:
            if bp[i] % d != 0:
                return None
            y[i] = bp[i] // d
    return matvec(sf.v, y)


def is_unimodular(a) -> bool:
    m, n = dims(a)
    return m == n and abs(det(a)) == 1


# ---------------------------------------------------------------------------
# Signature of a symmetric matrix, by exact congruence diagonalization


def inertia(q) -> tuple[int, int, int]:
    """(positive, negative, zero) counts of a symmetric integer matrix."""
    if not is_symmetric(q):
        raise ValueError("matrix is not symmetric")
    n = len(q)
    a = [[Fraction(x) for x in row] for row in q]
    pos = neg = zero = 0
    start = 0
    while start < n:
        # choose a nonzero diagonal pivot, creating one if necessary
        p = None
        for i in range(start, n):
            if a[i][i] != 0:
                p = i
                break
        if p is None:
            offdiag = None
            for i in range(start, n):
                for j in range(i + 1, n):
                    if a[i][j] != 0:
                        offdiag = (i, j)
                        break
                if offdiag:
                    break
            if offdiag is None:
                zero += n - start
                break
            i, j = offdiag
            # row/col i += row/col j makes a[i][i] = 2 a[i][j] != 0
            for k in range(n):
                a[i][k] += a[j][k]
            for k in range(n):
                a[k][i] += a[k][j]
            p = i
        if p != start:
            a[p], a[start] = a[start], a[p]
            for row in a:
                row[p], row[start] = row[start], row[p]
        piv = a[start][start]
        if piv > 0:
            pos += 1
        else:
            neg += 1
        for i in range(start + 1, n):
            if a[i][start] != 0:
                c = a[i][start] / piv
                for k in range(n):
                    a[i][k] -= c * a[start][k]
        for i in range(start + 1, n):
            if a[start][i] != 0:
                c = a[start][i] / piv
                for k in range(n):
                    a[k][i] -= c * a[k][start]
        start += 1
    return pos, neg, zero


def signature(q) -> int:
    pos, neg, _ = inertia(q)
    return pos - neg
