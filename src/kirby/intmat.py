"""Exact integer matrix utilities shared by the homology and form modules.

All matrices are lists (or tuples) of rows of Python ints.  Bareiss
elimination (``det``, ``rank``, ``inertia``) keeps each entry a minor;
only ``smith_normal_form``, which must also return U and V, lets entries
grow.  ``det`` and ``rank`` pivot on the full matrix; ``inertia``, whose
input is symmetric, eliminates on the upper triangle alone and so does
about half the multiplications.

``cokernel`` needs only the invariant factors (``_divisors``), and takes
the cheap pivots first: the +-1 entries over Z, where every entry stays
a minor; then, on the block left, Bareiss for its rank and one nonzero
minor M, and the entries prime to M, modulo M.  The extended-gcd
elimination mod M runs only on the block with no unit mod M.  Every
cokernel matrix of the bundled corpus ends after the pivots over Z, and
so do 53 of the 431 of one round of the benchmark's ``moves`` workload;
of the others, 176 leave a 1 x 1 block, 142 a 2 x 2 and 60 a 3 x 3 or
4 x 4.  Against Bareiss and the elimination mod M on the whole matrix,
timed in one process, interleaved, best of 15: those 431 take 22.9 ms
against 55.7 ms, the 222 corpus matrices 1.1 against 2.7 ms, and the
40-component linking matrix of seed 40004 (the benchmark's
``link_spec``) 13.7 against 25.1 ms (Python 3.11, a shared 2-core
Xeon).  A matrix with no unit anywhere, such as twice a random 12 x 12
one, takes about 10% longer.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

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


def _int_rows(a) -> None:
    """ValueError unless every row of ``a`` has as many entries as the
    first, each an int (``True`` is not one).  Every entry point that reads
    the entries checks them here, once, before anything else."""
    n = len(a[0]) if a else 0
    for row in a:
        if len(row) != n or not {int}.issuperset(map(type, row)):
            raise ValueError(f"row {list(row)!r}: expected {n} entries, each an int")


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


def _rows(d, i, j, x, y, z, w):
    """Rows i, j of d become x*ri + y*rj, z*ri + w*rj (j wins if i == j)."""
    ri, rj = d[i], d[j]
    if (x, y, w) == (1, 0, 1):
        d[j] = [q + z * p for p, q in zip(ri, rj)]
    elif (x, y, w) == (0, 1, 0):
        d[i], d[j] = rj, [z * p for p in ri]
    else:
        d[i] = [x * p + y * q for p, q in zip(ri, rj)]
        d[j] = [z * p + w * q for p, q in zip(ri, rj)]


def _cols(d, i, j, x, y, z, w):
    """Columns i, j of d likewise, over every row of d."""
    if (x, y, w) == (1, 0, 1):
        for row in d:
            row[j] += z * row[i]
    else:
        for row in d:
            p, q = row[i], row[j]
            row[i], row[j] = x * p + y * q, z * p + w * q


def _eliminate(d, m, n, mod=0) -> int:
    """Diagonalize the leading m x n block of d in place; return the pivot count.

    Each pivot clears its column and row with 2x2 extended-gcd steps
    (Kannan & Bachem 1979; Cohen, *A Course in Computational Algebraic
    Number Theory*, 2.4).  A row step acts on the whole row of d and a
    column step on the whole column, so rows and columns beyond the block
    carry the transforms.  A pivot may stay negative.

    With ``mod`` > 0, d has no transforms and only the diagonal is read
    afterwards: the rows still to be pivoted are reduced to residues of
    least absolute value before each pivot search, and a pivot row whose
    entries the pivot divides is left as it is, because the column steps
    that would clear it change no other row.
    """
    half = mod // 2
    for t in range(min(m, n)):
        if mod:
            d[t:m] = [[(x + half) % mod - half for x in row] for row in d[t:m]]
        pivot = next(((i, j) for i in range(t, m) for j in range(t, n) if d[i][j]), None)
        if pivot is None:
            return t
        p, q = pivot
        if p != t:
            _rows(d, p, t, 0, 1, 1, 0)
        if q != t:
            _cols(d, q, t, 0, 1, 1, 0)
        # A step that is not a plain subtraction shrinks |pivot|, and a
        # column step that is one puts nothing back below it, so this ends.
        while True:
            for i in range(t + 1, m):
                if d[i][t]:
                    g, x, y = _xgcd(d[t][t], d[i][t])
                    _rows(d, t, i, x, y, -d[i][t] // g, d[t][t] // g)
            if not any(d[t][t + 1 : n]):
                break
            if mod and not any(x % d[t][t] for x in d[t][t + 1 : n]):
                break
            for j in range(t + 1, n):
                if d[t][j]:
                    g, x, y = _xgcd(d[t][t], d[t][j])
                    _cols(d, t, j, x, y, -d[t][j] // g, d[t][t] // g)
            if not any(row[t] for row in d[t + 1 : m]):
                break
    return min(m, n)


def smith_normal_form(a) -> SmithForm:
    """Diagonalize an integer matrix by unimodular row/column operations.

    After the elimination, negative pivots are negated and (a, b) ->
    (gcd, lcm) on the diagonal makes each divisor divide the next.
    Raises ValueError on a ragged matrix or an entry that is not an int.
    """
    _int_rows(a)
    m, n = dims(a)
    # d carries u to its right and v below it, so a row step acts on d and
    # u at once and a column step (always on the first n columns) on d and v.
    d = [list(row) + e for row, e in zip(a, identity(m))] + identity(n)
    _eliminate(d, m, n)
    for i in range(min(m, n)):
        if d[i][i] < 0:
            _rows(d, i, i, 0, 1, -1, 0)
    for i in range(min(m, n)):
        for j in range(i + 1, min(m, n)):
            di, dj = d[i][i], d[j][j]
            if di and dj % di:
                g, x, y = _xgcd(di, dj)
                _rows(d, i, j, x, y, -dj // g, di // g)
                _cols(d, i, j, 1, 1, -y * dj // g, x * di // g)
    return SmithForm([row[:n] for row in d[:m]], [row[n:] for row in d[:m]], d[m:])


def _rank_minor(a) -> tuple[int, int]:
    """(r, M): the rank r of ``a`` and one nonzero r x r minor M (1 when r
    is 0), by Bareiss fraction-free elimination with full pivoting.  For a
    nonsingular square matrix M is its determinant."""
    b = copy(a)
    sign = prev = 1
    r = 0
    while True:
        if b and b[0] and b[0][0]:
            i = j = 0
        else:
            pivot = next(((i, j) for i, row in enumerate(b) for j, x in enumerate(row) if x), None)
            if pivot is None:
                return r, sign * prev
            i, j = pivot
        if i:
            b[0], b[i] = b[i], b[0]
            sign = -sign
        if j:
            for row in b:
                row[0], row[j] = row[j], row[0]
            sign = -sign
        prev, b = b[0][0], _bareiss_step(b, prev)
        r += 1


def _bareiss_step(b, prev):
    """The block left after pivoting on b[0][0], ``prev`` being the pivot
    before it.  Every entry stays a minor of the input, so each division
    is exact (Bareiss 1968)."""
    piv, *top = b[0]
    return [[(piv * x - c * y) // prev for x, y in zip(rest, top)] for c, *rest in b[1:]]


def _unit_pivots(b, mod) -> int:
    """Pivot on units of b, the first in row-major order each time, until
    none is left; return the pivot count.  A pivot clears its column from
    the other rows, then drops out of b with its row, in place.

    Over Z (``mod`` 0) a unit is +-1, its own inverse.  Modulo ``mod`` it
    is a nonzero residue prime to ``mod``, with an inverse mod ``mod``, and
    the entries of b are kept reduced mod ``mod``.
    """
    if mod:
        b[:] = [[x % mod for x in row] for row in b]
    rows = len(b)
    while True:
        for p, top in enumerate(b):
            # over Z, ``in`` skips the rows without a unit at C speed
            if mod or 1 in top or -1 in top:
                q = next((j for j, x in enumerate(top) if x and gcd(x, mod) == 1), None)
                if q is not None:
                    break
        else:
            return rows - len(b)
        del b[p]
        inverse = pow(top[q], -1, mod) if mod else top[q]
        for i, row in enumerate(b):
            if row[q]:
                if mod:
                    c = row[q] * inverse % mod
                    row = [(x - c * y) % mod for x, y in zip(row, top)]
                else:
                    c = row[q] * inverse
                    row = [x - c * y for x, y in zip(row, top)]
                b[i] = row
            del row[q]


def _divisors(a) -> list[int]:
    """The nonzero invariant factors d_1 | d_2 | ... of ``a``, without U or V.

    The +-1 entries go first, as pivots over Z.  Each such step is
    unimodular, so Smith(a) = diag(1, ..., 1, Smith(s)) for the block s
    left, and as the pivots taken have determinant +-1, every entry of s is
    a minor of ``a`` up to sign: nothing grows more than under Bareiss.
    When s is empty or zero, the answer is all 1s.

    Otherwise let r be the rank of s, e_1 | ... | e_r its factors and M a
    nonzero r x r minor of it.  e_1 ... e_r divides M, so Z^m / (span s +
    M Z^m) has invariant factors e_1, ..., e_r, M, ..., M (Domich, Kannan &
    Trotter 1987; Cohen, Alg. 2.4.14), and s can be read mod M: each step
    there is invertible mod M, and every entry is reduced again after it,
    so none exceeds M.  Units mod M are factors 1 again.  On the block
    left, which has none, the elimination mod M gives gcd(p, M) for a
    pivot p and M for a row left without one; the (gcd, lcm) pass orders
    them, and the first r, less the units mod M, are kept.

    Raises ValueError on a ragged matrix or an entry that is not an int.
    """
    _int_rows(a)
    b = copy(a)
    ones = _unit_pivots(b, 0)
    if not any(map(any, b)):
        return [1] * ones
    r, minor = _rank_minor(b)
    mod = abs(minor)
    units = _unit_pivots(b, mod)
    m, n = dims(b)
    t = _eliminate(b, m, n, mod)
    out = [gcd(b[i][i], mod) for i in range(t)] + [mod] * (m - t)
    for i in range(m):
        for j in range(i + 1, m):
            if out[j] % out[i]:
                out[i], out[j] = gcd(out[i], out[j]), lcm(out[i], out[j])
    return [1] * (ones + units) + out[: r - units]


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
    empty matrix viewed as a map into Z^m.  Raises ValueError on a ragged
    matrix or an entry that is not an int.
    """
    if ambient_rank is None:
        ambient_rank = len(a)
    if not any(a):
        return AbelianGroup(rank=ambient_rank)
    divisors = _divisors(a)
    torsion = tuple(d for d in divisors if d > 1)
    return AbelianGroup(rank=ambient_rank - len(divisors), torsion=torsion)


def kernel_basis(a) -> list[list[int]]:
    """Integer basis of the null space of ``a`` (vectors as columns of v).
    Raises ValueError on a ragged matrix or an entry that is not an int."""
    m, n = dims(a)
    if n == 0:
        _int_rows(a)
        return []
    if m == 0:
        return [row[:] for row in identity(n)]
    sf = smith_normal_form(a)
    r = len(sf.divisors)
    cols = transpose(sf.v)
    return [cols[j] for j in range(r, n)]


def rank(a) -> int:
    _int_rows(a)
    return _rank_minor(a)[0]


def det(a) -> int:
    _int_rows(a)
    m, n = dims(a)
    if m != n:
        raise ValueError("determinant of non-square matrix")
    r, minor = _rank_minor(a)
    return minor if r == n else 0


def solve(a, b) -> list[int] | None:
    """An integer solution x of a x = b, or None if none exists.  Raises
    ValueError on a ragged matrix or an entry that is not an int."""
    m, n = dims(a)
    if len(b) != m:
        raise ValueError("dimension mismatch")
    if n == 0:
        _int_rows(a)
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


# ---------------------------------------------------------------------------
# Signature of a symmetric matrix, by fraction-free congruence elimination


def inertia(q) -> tuple[int, int, int]:
    """(positive, negative, zero) counts of a symmetric integer matrix.

    Symmetric Bareiss elimination on the upper triangle, whose row i holds
    the entries j >= i.  A step pivots in place on the first nonzero
    diagonal entry p, with no row or column swaps: every other entry
    becomes (piv * a_ij - a_ip * a_pj) // prev, an exact division, and row
    and column p drop out.  Each pivot is a ratio of leading principal
    minors of a congruent matrix, so the k-th LDL^T pivot has the sign of
    pivot_k * pivot_{k-1} (Sylvester's law of inertia).  When the diagonal
    is all zero, the congruence row/col i += row/col j on the first nonzero
    a_ij makes a_ii = 2 a_ij.  Raises ValueError on a ragged matrix or an
    entry that is not an int.
    """
    _int_rows(q)
    if not is_symmetric(q):
        raise ValueError("matrix is not symmetric")
    u = [list(row[i:]) for i, row in enumerate(q)]
    pos = neg = 0
    prev = 1
    while u:
        p = next((i for i, row in enumerate(u) if row[0]), None)
        if p is None:
            offdiag = next(
                ((i, k) for i, row in enumerate(u) for k, x in enumerate(row) if x), None
            )
            if offdiag is None:
                break
            p, k = offdiag
            # rows above p are zero, so only row p changes; a_pj += a_jj = 0
            row, j = u[p], p + k
            for t in range(1, k):
                row[t] += u[p + t][k - t]
            for t in range(k + 1, len(row)):
                row[t] += u[j][t - k]
            row[0] = 2 * row[k]
        piv = u[p][0]
        if piv * prev > 0:
            pos += 1
        else:
            neg += 1
        col = [u[r][p - r] for r in range(p)] + u[p]  # column p, pivot included
        tail = col[p + 1:]
        rest = []
        for i in range(p):
            row, c = u[i], col[i]
            del row[p - i]
            rest.append([(piv * x - c * y) // prev for x, y in zip(row, col[i:p] + tail)])
        for i in range(p + 1, len(u)):
            c = col[i]
            rest.append([(piv * x - c * y) // prev for x, y in zip(u[i], col[i:])])
        prev, u = piv, rest
    return pos, neg, len(q) - pos - neg


def signature(q) -> int:
    pos, neg, _ = inertia(q)
    return pos - neg
