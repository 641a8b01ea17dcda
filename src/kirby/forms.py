"""Integral symmetric bilinear forms.

Classification (rank, signature, parity, definiteness), direct-sum
stabilization arithmetic, reflections in classes of square +-1 or +-2, the
composite reflection induced on homology by twisting along a sphere with two
exceptional classes, and passing to the orthogonal complement of a +-1 class
(the homological shadow of blowing down).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product

from . import intmat
from .intmat import Matrix


class FormError(ValueError):
    pass


@dataclass(frozen=True)
class Classification:
    rank: int
    signature: int
    parity: str  # "even" | "odd"
    definiteness: str  # "positive" | "negative" | "indefinite" | "zero" | "degenerate"

    @property
    def canonical_diagonal(self) -> tuple[int, int] | None:
        """(p, q) with the form congruent to p<1> + q<-1>, for odd indefinite
        nondegenerate forms (and for the trivially diagonal definite ones)."""
        if self.parity != "odd" or self.definiteness == "degenerate":
            return None
        p = (self.rank + self.signature) // 2
        q = (self.rank - self.signature) // 2
        return (p, q)


@dataclass(frozen=True)
class BilinearForm:
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not intmat.is_symmetric(self.matrix):
            raise FormError("matrix is not symmetric")

    @staticmethod
    def from_rows(rows) -> "BilinearForm":
        return BilinearForm(tuple(tuple(int(x) for x in row) for row in rows))

    @property
    def rank(self) -> int:
        return len(self.matrix)

    @property
    def rows(self) -> Matrix:
        return [list(r) for r in self.matrix]

    @property
    def signature(self) -> int:
        return intmat.signature(self.rows)

    @property
    def parity(self) -> str:
        return "even" if all(self.matrix[i][i] % 2 == 0 for i in range(self.rank)) else "odd"

    def pairing(self, u, v) -> int:
        return intmat.pairing(self.rows, u, v)

    def self_pairing(self, v) -> int:
        return self.pairing(v, v)

    def classify(self) -> Classification:
        pos, neg, zero = intmat.inertia(self.rows)
        if zero:
            definiteness = "degenerate"
        elif pos and neg:
            definiteness = "indefinite"
        elif pos:
            definiteness = "positive"
        elif neg:
            definiteness = "negative"
        else:
            definiteness = "zero"
        return Classification(self.rank, pos - neg, self.parity, definiteness)

    def direct_sum(self, other: "BilinearForm") -> "BilinearForm":
        n, m = self.rank, other.rank
        rows = intmat.zeros(n + m, n + m)
        for i in range(n):
            for j in range(n):
                rows[i][j] = self.matrix[i][j]
        for i in range(m):
            for j in range(m):
                rows[n + i][n + j] = other.matrix[i][j]
        return BilinearForm.from_rows(rows)

    def __str__(self) -> str:
        c = self.classify()
        return f"BilinearForm(rank={c.rank}, sig={c.signature}, {c.parity})"


def diagonal_form(*entries: int) -> BilinearForm:
    n = len(entries)
    return BilinearForm.from_rows(
        [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
    )


def hyperbolic_form() -> BilinearForm:
    """The rank-2 even form [[0,1],[1,0]] (intersection form of S^2 x S^2)."""
    return BilinearForm.from_rows([[0, 1], [1, 0]])


def decomposable_form(p: int, q: int) -> BilinearForm:
    """p<1> + q<-1>: the form of the connected sum of p CP^2 and q -CP^2."""
    return diagonal_form(*([1] * p + [-1] * q))


_E8 = [
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, -1],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, 0],
    [0, 0, 0, 0, -1, 0, 0, 2],
]


def e8_form(sign: int = 1) -> BilinearForm:
    return BilinearForm.from_rows([[sign * x for x in row] for row in _E8])


def elliptic_form(n: int) -> BilinearForm:
    """Intersection form of the elliptic surface E(n).

    Rank 12n-2 and signature -8n; spin (even) exactly when n is even, in
    which case the form is n(-E8) + (2n-1)H, otherwise it is diagonal
    (2n-1)<1> + (10n-1)<-1>.
    """
    if n < 1:
        raise FormError("n must be positive")
    if n % 2 == 0:
        out = e8_form(-1)
        for _ in range(n - 1):
            out = out.direct_sum(e8_form(-1))
        for _ in range(2 * n - 1):
            out = out.direct_sum(hyperbolic_form())
        return out
    return decomposable_form(2 * n - 1, 10 * n - 1)


# ---------------------------------------------------------------------------
# Stabilization arithmetic

_SUMMANDS = {
    "<1>": diagonal_form(1),
    "<-1>": diagonal_form(-1),
    "H": hyperbolic_form(),
}


def stabilize(q: BilinearForm, summand: str) -> BilinearForm:
    if summand not in _SUMMANDS:
        raise FormError(f"unknown summand {summand!r} (use '<1>', '<-1>' or 'H')")
    return q.direct_sum(_SUMMANDS[summand])


@dataclass(frozen=True)
class StableEquivalence:
    status: str  # "equivalent" | "inequivalent" | "unsupported"
    counts: tuple[tuple[str, int], ...] = ()  # summand counts added to the first form
    counts_other: tuple[tuple[str, int], ...] = ()

    @property
    def equivalent(self) -> bool:
        return self.status == "equivalent"


@functools.lru_cache(maxsize=8)
def _stabilizations(allowed: tuple[str, ...], max_count: int) -> tuple:
    """Every way to add at most ``max_count`` of each allowed summand, as
    (counts, added to pos, added to neg, makes the form odd), in
    ``product`` order stably sorted by the number of summands.  Built on
    first use for each (allowed, max_count); the cache is bounded because
    a table has (max_count + 1) ** len(allowed) rows."""
    table = []
    for counts in product(range(max_count + 1), repeat=len(allowed)):
        dpos = dneg = 0
        makes_odd = False
        for name, k in zip(allowed, counts):
            if name != "<-1>":
                dpos += k
            if name != "<1>":
                dneg += k
            makes_odd = makes_odd or (name != "H" and k > 0)
        table.append((counts, dpos, dneg, makes_odd))
    table.sort(key=lambda row: sum(row[0]))
    return tuple(table)


def stably_equivalent(
    q1: BilinearForm,
    q2: BilinearForm,
    allowed: tuple[str, ...] = ("<1>", "<-1>", "H"),
    max_count: int = 6,
) -> StableEquivalence:
    """Decide Q1 + (summands) ~ Q2 + (summands) by classification arithmetic.

    Only cases where both stabilized forms are odd and indefinite (or equal
    outright) are decided; anything hinging on definite or even unimodular
    classification is refused as "unsupported".
    """
    for s in allowed:
        if s not in _SUMMANDS:
            raise FormError(f"unknown summand {s!r}")
    if q1.matrix == q2.matrix:
        return StableEquivalence("equivalent")
    if abs(intmat.det(q1.rows)) != 1 or abs(intmat.det(q2.rows)) != 1:
        return StableEquivalence("unsupported")  # rank/sig/parity do not classify

    names = tuple(allowed)
    pos1, neg1, _ = intmat.inertia(q1.rows)
    pos2, neg2, _ = intmat.inertia(q2.rows)
    odd1 = q1.parity == "odd"
    odd2 = q2.parity == "odd"
    table = _stabilizations(names, max_count)

    def fewest(pos, neg, odd):
        # first counts in product order with the fewest summands, per (pos, neg)
        # of an odd indefinite stabilization: (rank, sig) decide only those
        found = {}
        for counts, dpos, dneg, makes_odd in table:
            p, n = pos + dpos, neg + dneg
            if (odd or makes_odd) and p > 0 and n > 0:
                found.setdefault((p, n), counts)
        return found

    w1, w2 = fewest(pos1, neg1, odd1), fewest(pos2, neg2, odd2)
    shared = w1.keys() & w2.keys()
    if shared:
        _, c1, c2 = min((sum(w1[k]) + sum(w2[k]), w1[k], w2[k]) for k in shared)
        return StableEquivalence("equivalent", tuple(zip(names, c1)), tuple(zip(names, c2)))
    # no witness: see whether an invariant untouched by the allowed summands
    # rules equivalence out entirely
    signed = any(s in allowed for s in ("<1>", "<-1>"))
    if not signed:
        if odd1 != odd2:
            return StableEquivalence("inequivalent")
        if pos1 - neg1 != pos2 - neg2:
            return StableEquivalence("inequivalent")
        if (pos1 + neg1) % 2 != (pos2 + neg2) % 2:
            return StableEquivalence("inequivalent")
    return StableEquivalence("unsupported")


# ---------------------------------------------------------------------------
# Isometries


@dataclass(frozen=True)
class Isometry:
    form: BilinearForm
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        q = self.form.rows
        m = [list(r) for r in self.matrix]
        if not intmat.equal(intmat.matmul(intmat.matmul(intmat.transpose(m), q), m), q):
            raise FormError("matrix does not preserve the form")

    @property
    def rows(self) -> Matrix:
        return [list(r) for r in self.matrix]

    def compose(self, other: "Isometry") -> "Isometry":
        if self.form.matrix != other.form.matrix:
            raise FormError("isometries of different forms")
        prod = intmat.matmul(self.rows, other.rows)
        return Isometry(self.form, tuple(tuple(r) for r in prod))

    def apply(self, v) -> list[int]:
        return intmat.matvec(self.rows, v)

    def determinant(self) -> int:
        return intmat.det(self.rows)

    def is_involution(self) -> bool:
        return intmat.equal(
            intmat.matmul(self.rows, self.rows), intmat.identity(self.form.rank)
        )


def reflect(q: BilinearForm, sigma) -> Isometry:
    """Reflection x -> x - 2 (x.sigma)/(sigma.sigma) sigma.

    Defined (and integral) when sigma.sigma is +-1 or +-2; sends sigma to
    -sigma and fixes its orthogonal complement.
    """
    sigma = [int(x) for x in sigma]
    if len(sigma) != q.rank:
        raise FormError("class has wrong length")
    ss = q.self_pairing(sigma)
    if ss not in (1, -1, 2, -2):
        raise FormError(f"self-pairing {ss} not in {{+-1, +-2}}")
    qs = intmat.matvec(q.rows, sigma)  # (sigma . e_j) for each basis vector
    n = q.rank
    m = intmat.identity(n)
    for i in range(n):
        for j in range(n):
            m[i][j] -= 2 * sigma[i] * qs[j] // ss
    return Isometry(q, tuple(tuple(r) for r in m))


def fs_action(q: BilinearForm, s, e1, e2) -> Isometry:
    """Composite of the reflections in s+e1+e2 and s-e1+e2.

    Requires s.s = 1, e1.e1 = e2.e2 = -1, with s, e1, e2 pairwise
    orthogonal.  The result has determinant +1 and fixes the common
    orthogonal complement of the three classes.
    """
    s, e1, e2 = ([int(x) for x in v] for v in (s, e1, e2))
    if q.self_pairing(s) != 1:
        raise FormError("s.s must be +1")
    for e in (e1, e2):
        if q.self_pairing(e) != -1:
            raise FormError("exceptional classes must have self-pairing -1")
    for u, v in ((s, e1), (s, e2), (e1, e2)):
        if q.pairing(u, v) != 0:
            raise FormError("classes must be pairwise orthogonal")
    plus = [a + b + c for a, b, c in zip(s, e1, e2)]
    minus = [a - b + c for a, b, c in zip(s, e1, e2)]
    return reflect(q, plus).compose(reflect(q, minus))


def blowdown_class(q: BilinearForm, v) -> BilinearForm:
    """Form induced on the orthogonal complement of a class with v.v = +-1."""
    v = [int(x) for x in v]
    vv = q.self_pairing(v)
    if vv not in (1, -1):
        raise FormError(f"self-pairing {vv} is not +-1")
    pairings = [intmat.matvec(q.rows, v)]  # 1 x n matrix, kernel = v-perp
    basis = intmat.kernel_basis(pairings)
    b = intmat.transpose(basis) if basis else [[] for _ in range(q.rank)]
    rows = intmat.matmul(intmat.matmul(intmat.transpose(b), q.rows), b)
    return BilinearForm.from_rows(rows)
