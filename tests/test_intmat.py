"""Exact integer linear algebra, checked against sympy and the earlier code."""

import math
import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from kirby import dsl, forms, handlebody, intmat, pdcode
from kirby.pdcode import FRAMED, Component, Crossing, Diagram

from conftest import bench_workloads, random_symmetric, random_unimodular

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def benchmark_link_matrix(seed, n):
    w = bench_workloads()
    return w.link_matrix(w.link_spec(random.Random(seed), n))


def random_matrix(m, n, rng, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def random_linking_matrix(n, rng):
    """Framings in [-3, 3] on the diagonal, linking numbers in [-2, 2] off it."""
    q = random_symmetric(n, rng, -2, 2)
    for i in range(n):
        q[i][i] = rng.randint(-3, 3)
    return q


def sympy_divisors(a):
    d = sympy_snf(sympy.Matrix(a))
    return [abs(d[i, i]) for i in range(min(d.shape)) if d[i, i] != 0]


def reference_divisors(a):
    """``intmat._divisors`` as of commit 661f681, before the unit pivots: the
    rank r and a nonzero r x r minor M of the whole matrix by Bareiss, then
    the extended-gcd elimination mod M, the (gcd, lcm) pass and the first r
    factors."""
    m, n = intmat.dims(a)
    r, minor = intmat._rank_minor(a)
    mod = abs(minor)
    d = intmat.copy(a)
    t = intmat._eliminate(d, m, n, mod)
    out = [math.gcd(d[i][i], mod) for i in range(t)] + [mod] * (m - t)
    for i in range(m):
        for j in range(i + 1, m):
            if out[j] % out[i]:
                out[i], out[j] = math.gcd(out[i], out[j]), math.lcm(out[i], out[j])
    return out[:r]


def test_smith_form_transforms_and_divisors(rng):
    cases = [random_matrix(rng.randint(1, 5), rng.randint(1, 5), rng) for _ in range(40)]
    cases += [random_matrix(n, n, rng) for n in (8, 12, 16, 20)]
    cases += [random_linking_matrix(n, rng) for n in (16, 20)]
    cases += [random_matrix(20, 13, rng), random_matrix(11, 20, rng)]
    rank_deficient = intmat.matmul(
        random_matrix(20, 9, rng, -2, 2), random_matrix(9, 20, rng, -2, 2)
    )
    assert intmat.rank(rank_deficient) == 9
    for a in cases + [rank_deficient]:
        m, n = intmat.dims(a)
        sf = intmat.smith_normal_form(a)
        assert intmat.equal(
            intmat.matmul(intmat.matmul(sf.u, a), sf.v), sf.d
        )
        assert abs(intmat.det(sf.u)) == 1
        assert abs(intmat.det(sf.v)) == 1
        assert all(sf.d[i][j] == 0 for i in range(m) for j in range(n) if i != j)
        assert all(sf.d[i][i] >= 0 for i in range(min(m, n)))
        divisors = sf.divisors
        for x, y in zip(divisors, divisors[1:]):
            assert y % x == 0
        assert divisors == sympy_divisors(a)


def test_cokernel_and_rank_against_sympy_at_30(rng):
    rank_deficient = intmat.matmul(
        random_matrix(30, 14, rng, -2, 2), random_matrix(14, 30, rng, -2, 2)
    )
    for a in (random_linking_matrix(30, rng), random_matrix(30, 22, rng), rank_deficient):
        divisors = sympy_divisors(a)
        g = intmat.cokernel(a)
        assert g.rank == len(a) - len(divisors)
        assert list(g.torsion) == [x for x in divisors if x > 1]
        assert intmat.rank(a) == len(divisors)


def test_boundary_h1_of_a_16_component_link_against_sympy(rng):
    q = random_linking_matrix(16, rng)
    ids = [f"c{i}" for i in range(16)]
    comps = tuple(Component(c, FRAMED, q[i][i]) for i, c in enumerate(ids))
    crossings = tuple(
        Crossing(f"x{i}_{j}", v // abs(v), between=(ids[i], ids[j]), count=2 * abs(v))
        for i in range(16)
        for j, v in enumerate(q[i])
        if j > i and v
    )
    h = handlebody.Handlebody(Diagram("link16", comps, crossings))
    divisors = sympy_divisors(q)
    torsion = tuple(x for x in divisors if x > 1)
    assert handlebody.boundary_H1(h) == intmat.AbelianGroup(16 - len(divisors), torsion)


def test_rank_and_det_against_sympy(rng):
    for trial in range(40):
        n = rng.randint(1, 5)
        a = random_matrix(n, n, rng)
        sm = sympy.Matrix(a)
        assert intmat.rank(a) == sm.rank()
        assert intmat.det(a) == sm.det()


def test_cokernel_against_sympy_invariant_factors(rng):
    for trial in range(30):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = random_matrix(m, n, rng)
        g = intmat.cokernel(a)
        d = sympy_snf(sympy.Matrix(a))
        divs = [abs(d[i, i]) for i in range(min(m, n)) if d[i, i] != 0]
        assert g.rank == m - len(divs)
        assert list(g.torsion) == [x for x in divs if x > 1]


def test_cokernel_trivial_and_free():
    assert intmat.cokernel([[1]]).is_trivial
    assert str(intmat.cokernel([[0]])) == "Z"
    assert str(intmat.cokernel([[2]])) == "Z/2"
    assert str(intmat.cokernel([[2, 0], [0, 3]])) == "Z/6"
    assert str(intmat.AbelianGroup(2, (2,))) == "Z/2 + Z^2"


def test_kernel_basis_spans_nullspace(rng):
    for trial in range(30):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = random_matrix(m, n, rng)
        basis = intmat.kernel_basis(a)
        for v in basis:
            assert all(x == 0 for x in intmat.matvec(a, v))
        assert len(basis) == n - intmat.rank(a)


def test_solve_finds_constructed_solutions(rng):
    for trial in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = random_matrix(m, n, rng)
        x0 = [rng.randint(-3, 3) for _ in range(n)]
        b = intmat.matvec(a, x0)
        x = intmat.solve(a, b)
        assert x is not None
        assert intmat.matvec(a, x) == b


def test_solve_refuses_exactly_when_no_integer_solution(rng):
    for trial in range(40):
        n = rng.randint(1, 4)
        a = random_matrix(n, n, rng)
        if intmat.det(a) == 0:
            continue
        b = [rng.randint(-4, 4) for _ in range(n)]
        x = intmat.solve(a, b)
        sol = sympy.Matrix(a).solve(sympy.Matrix(b))
        integral = all(v == int(v) for v in sol)
        if integral:
            assert x is not None and intmat.matvec(a, x) == b
        else:
            assert x is None


def test_inertia_against_sympy_eigenvalue_signs(rng):
    for trial in range(25):
        n = rng.randint(1, 4)
        q = random_symmetric(n, rng)
        pos, neg, zero = intmat.inertia(q)
        roots = sympy.real_roots(sympy.Matrix(q).charpoly())
        opos = sum(1 for r in roots if r.is_positive)
        oneg = sum(1 for r in roots if r.is_negative)
        assert (pos, neg, zero) == (opos, oneg, n - opos - oneg)


def test_inertia_rejects_asymmetric():
    with pytest.raises(ValueError):
        intmat.inertia([[0, 1], [2, 0]])


def test_signature_congruence_invariant(rng):
    for trial in range(20):
        n = rng.randint(1, 4)
        q = random_symmetric(n, rng)
        e, _ = random_unimodular(n, rng)
        q2 = intmat.matmul(intmat.matmul(intmat.transpose(e), q), e)
        assert intmat.signature(q) == intmat.signature(q2)


def test_is_unimodular():
    assert abs(intmat.det([[1, 5], [0, -1]])) == 1
    assert abs(intmat.det([[2, 0], [0, 1]])) != 1
    with pytest.raises(ValueError):
        intmat.det([[1, 0]])


def fraction_inertia(q):
    """The earlier inertia: congruence diagonalization over Fractions."""
    n = len(q)
    a = [[Fraction(x) for x in row] for row in q]
    pos = neg = zero = 0
    start = 0
    while start < n:
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


def full_matrix_inertia(q):
    """The earlier inertia: symmetric Bareiss elimination on the full
    matrix, swapping each pivot to the top-left corner."""
    if not intmat.is_symmetric(q):
        raise ValueError("matrix is not symmetric")
    a = intmat.copy(q)
    pos = neg = 0
    prev = 1
    while a:
        p = next((i for i in range(len(a)) if a[i][i]), None)
        if p is None:
            offdiag = next(
                ((i, j) for i in range(len(a)) for j in range(i + 1, len(a)) if a[i][j]), None
            )
            if offdiag is None:
                break
            i, j = offdiag
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for row in a:
                row[i] += row[j]
            p = i
        if p:
            a[0], a[p] = a[p], a[0]
            for row in a:
                row[0], row[p] = row[p], row[0]
        if a[0][0] * prev > 0:
            pos += 1
        else:
            neg += 1
        prev, a = a[0][0], intmat._bareiss_step(a, prev)
    return pos, neg, len(q) - pos - neg


def direct_sum(*blocks):
    n = sum(len(b) for b in blocks)
    out, at = intmat.zeros(n, n), 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(b)] = list(row)
        at += len(b)
    return out


def congruent(q, rng, steps=12):
    """e^T q e for a random unimodular e: the same inertia, other entries."""
    e, _ = random_unimodular(len(q), rng, steps)
    return intmat.matmul(intmat.matmul(intmat.transpose(e), q), e)


def permuted(q, rng):
    order = rng.sample(range(len(q)), len(q))
    return [[q[i][j] for j in order] for i in order]


def inertia_subjects():
    """Seeded symmetric matrices up to 12 x 12: all-zero diagonals (random,
    and sums of H blocks in shuffled order), degenerate ones of every rank,
    and E8 blocks, bare, summed with H and +-1 and disguised."""
    rng = random.Random(0x1E27)
    h = [[0, 1], [1, 0]]
    e8, e8m = forms.e8_form().rows, forms.e8_form(-1).rows
    out = []
    for n in range(1, 13):
        q = random_symmetric(n, rng)
        for i in range(n):
            q[i][i] = 0
        out.append(q)
    for k in range(1, 7):
        out.append(permuted(direct_sum(*[h] * k), rng))
        out.append(permuted(direct_sum(*[h] * k, *[[[0]]] * (12 - 2 * k)), rng))
    for n in range(1, 13):
        for r in range(n + 1):
            b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)]
            dq = [rng.choice((1, -1, 2, -3)) for _ in range(r)]
            out.append(
                [[sum(b[t][i] * dq[t] * b[t][j] for t in range(r)) for j in range(n)]
                 for i in range(n)]
            )
    for q in (e8, e8m, direct_sum(e8, h), direct_sum(e8m, h, h), direct_sum(e8, [[-1]]),
              direct_sum([[0]], e8m, [[0]], [[1]])):
        out += [q, permuted(q, rng), congruent(q, rng)]
    return out


def test_inertia_matches_the_full_matrix_elimination():
    for q in inertia_subjects():
        want = full_matrix_inertia(q)
        assert intmat.inertia(q) == want == fraction_inertia(q), q


def test_inertia_of_a_64_component_link_matches_both_oracles():
    w = bench_workloads()
    spec = w.link_spec(random.Random(64064), 64)
    q = pdcode.linking_matrix(dsl.parse(w.link_kd("L64", spec)).diagrams["L64"])
    assert q == w.link_matrix(spec)
    assert intmat.inertia(q) == full_matrix_inertia(q) == fraction_inertia(q)


@st.composite
def symmetric_matrices(draw):
    """Up to 8x8, optionally with a zero diagonal, optionally singular."""
    n = draw(st.integers(0, 7))
    zero_diagonal = draw(st.booleans())
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or not zero_diagonal:
                b[i][j] = b[j][i] = draw(st.integers(-3, 3))
    if n and draw(st.booleans()):  # one more basis vector repeats the first
        idx = list(range(n)) + [0]
        return [[b[i][j] for j in idx] for i in idx]
    return b


@st.composite
def integer_matrices(draw):
    """Up to 6x6, square or not, dense or of rank at most k."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        return [[draw(st.integers(-4, 4)) for _ in range(n)] for _ in range(m)]
    k = draw(st.integers(0, min(m, n)))
    left = [[draw(st.integers(-2, 2)) for _ in range(k)] for _ in range(m)]
    right = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(k)]
    return [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(n)] for i in range(m)]


@SEEDED
@given(symmetric_matrices())
def test_inertia_matches_fraction_elimination(q):
    assert intmat.inertia(q) == full_matrix_inertia(q) == fraction_inertia(q)


@SEEDED
@given(integer_matrices())
def test_divisors_match_smith_form(a):
    divisors = intmat.smith_normal_form(a).divisors
    assert intmat._divisors(a) == divisors
    assert intmat.rank(a) == len(divisors)
    g = intmat.cokernel(a)
    assert g.rank == len(a) - len(divisors)
    assert list(g.torsion) == [x for x in divisors if x > 1]


@st.composite
def divisor_subjects(draw):
    """Up to 9x9, of four kinds: dense with entries in [-4, 4]; every entry
    a multiple of 2, 3 or 6, so no unit anywhere; a product of rank at most
    k; and a block of +-1 entries beside an even block, with small entries
    above the even block."""
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    kind = draw(st.sampled_from(("dense", "multiples", "low rank", "unit block")))

    def entries(rows, cols, values):
        return [[draw(values) for _ in range(cols)] for _ in range(rows)]

    if kind == "dense":
        return entries(m, n, st.integers(-4, 4))
    if kind == "multiples":
        f = draw(st.sampled_from((2, 3, 6)))
        return [[f * x for x in row] for row in entries(m, n, st.integers(-3, 3))]
    if kind == "low rank":
        k = draw(st.integers(0, min(m, n)))
        return intmat.matmul(entries(m, k, st.integers(-2, 2)), entries(k, n, st.integers(-2, 2)))
    k = draw(st.integers(1, min(m, n)))
    units = entries(k, k, st.sampled_from((1, -1)))
    above = entries(k, n - k, st.integers(-2, 2))
    even = [[2 * x for x in row] for row in entries(m - k, n - k, st.integers(-3, 3))]
    return [u + v for u, v in zip(units, above)] + [[0] * k + row for row in even]


@SEEDED
@given(divisor_subjects())
@example([[2, 3, 5], [3, 5, 8], [5, 8, 13]])  # rank 2, no unit, a minor 1: all residues 0
def test_unit_pivot_divisors_match_the_reference_and_the_smith_form(a):
    assert intmat._divisors(a) == reference_divisors(a) == intmat.smith_normal_form(a).divisors


def test_corpus_matrices_need_no_minor_and_no_elimination(monkeypatch):
    from kirby import corpus

    seen, cokernel = [], intmat.cokernel

    def recorded(a, ambient_rank=None):
        seen.append(intmat.copy(a))
        return cokernel(a, ambient_rank)

    monkeypatch.setattr(intmat, "cokernel", recorded)
    assert corpus.verify_corpus().ok
    monkeypatch.setattr(intmat, "cokernel", cokernel)
    calls = []
    for name in ("_rank_minor", "_eliminate"):

        def counted(*args, name=name, f=getattr(intmat, name)):
            calls.append(name)
            return f(*args)

        monkeypatch.setattr(intmat, name, counted)
    assert len(seen) > 100
    for a in seen:
        intmat.cokernel(a)
    assert calls == []
    # no entry of [[2, 4], [4, 2]] is a unit, over Z or mod its determinant 12
    assert str(intmat.cokernel([[2, 4], [4, 2]])) == "Z/2 + Z/6"
    assert calls == ["_rank_minor", "_eliminate"]


@pytest.mark.parametrize("a", [
    [[1, 2], [3]], [[], [1]], [[1], [2, 3]], [[1.5]], [[2.0]], [[True]], [[1, False]],
    [[Fraction(1)]], [["1"]],
], ids=["short-row", "empty-first-row", "long-row", "float", "integral-float", "true",
        "false", "fraction", "string"])
def test_cokernel_refuses_a_ragged_or_non_int_matrix(a):
    with pytest.raises(ValueError):
        intmat.cokernel(a)


@pytest.mark.parametrize("read", [
    intmat.det, intmat.rank, intmat.smith_normal_form, intmat.kernel_basis,
    lambda a: intmat.solve(a, [1] * len(a)), intmat.inertia, intmat.signature,
], ids=["det", "rank", "smith_normal_form", "kernel_basis", "solve", "inertia", "signature"])
@pytest.mark.parametrize("a", [
    [[1, 2], [3]], [[1, 2], [2]], [[], [1]], [[2.0]], [[1.5]], [[True, 0], [0, 1]], [[1, False]],
    [[Fraction(1)]],
], ids=["ragged", "ragged-symmetric", "empty-first-row", "integral-float", "float", "true",
        "false", "fraction"])
def test_every_entry_point_refuses_a_ragged_or_non_int_matrix(read, a):
    with pytest.raises(ValueError, match=r"^row \[.*\]: expected \d+ entries, each an int$"):
        read(a)


@SEEDED
@given(integer_matrices(), st.data())
def test_span_membership_by_cokernel_matches_solve(q, data):
    m, n = intmat.dims(q)
    if data.draw(st.booleans()):
        v = intmat.matvec(q, [data.draw(st.integers(-3, 3)) for _ in range(n)])
        v = [x + data.draw(st.sampled_from((0, 0, 1))) for x in v]
    else:
        v = [data.draw(st.integers(-4, 4)) for _ in range(m)]
    adjoined = [row + [x] for row, x in zip(q, v)]
    assert (intmat.cokernel(adjoined) == intmat.cokernel(q)) == (intmat.solve(q, v) is not None)


@pytest.mark.parametrize("seed", [40001, 40002])
def test_cokernel_and_inertia_against_sympy_at_40(seed):
    q = benchmark_link_matrix(seed, 40)
    divisors = sympy_divisors(q)
    g = intmat.cokernel(q)
    assert g.rank == 40 - len(divisors)
    assert list(g.torsion) == [x for x in divisors if x > 1]
    assert intmat.rank(q) == len(divisors)
    assert intmat.inertia(q) == fraction_inertia(q)


@contextmanager
def deadline(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_divisors_of_the_slowest_40_component_link_under_a_deadline():
    # Seed 40004 drove the unreduced elimination past five minutes.
    q = benchmark_link_matrix(40004, 40)
    with deadline(5):
        g = intmat.cokernel(q)
        d = intmat.det(q)
    product = 1
    for x in g.torsion:
        product *= x
    assert g.rank == 0
    assert product == abs(d) != 0
