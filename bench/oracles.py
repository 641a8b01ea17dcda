"""Oracle checks, run after the timed passes.

Every check either computes the expected answer without the program
(sympy's Smith form, characteristic polynomials, the textbook move
formulas, a separate count of homomorphisms, a separate search for stable
equivalence witnesses) or tests a property the answer must have (a Tietze
log replays to its result, a frozen corpus report matches).  ``check``
returns a list of problems; an empty list means every answer passed.
"""

from __future__ import annotations

import itertools
import json
from math import gcd

import sympy
from sympy.matrices.normalforms import smith_normal_form

import workloads


def check(w, doc, kirby, answers, src) -> list[str]:
    """Problems found in the first answers (label -> digest) of ``w``."""
    checker = {"corpus": check_corpus, "links": check_links,
               "moves": check_moves, "search": check_search}[w.name]
    return checker(w, doc, kirby, answers, src)


# ---------------------------------------------------------------------------
# Independent algebra


def invariant_factors(q) -> tuple[int, list[int]]:
    """(free rank, torsion coefficients > 1) of Z^n / q Z^n, via sympy."""
    n = len(q)
    if n == 0:
        return 0, []
    d = smith_normal_form(sympy.Matrix(q), domain=sympy.ZZ)
    nonzero = [abs(int(d[i, i])) for i in range(n) if d[i, i] != 0]
    return n - len(nonzero), sorted(x for x in nonzero if x > 1)


def group_text(rank: int, torsion) -> str:
    """Z/a + Z/b + Z^r, written the way the program prints abelian groups."""
    parts = [f"Z/{t}" for t in torsion]
    if rank == 1:
        parts.append("Z")
    elif rank > 1:
        parts.append(f"Z^{rank}")
    return " + ".join(parts) if parts else "0"


def boundary_text(q) -> str:
    return group_text(*invariant_factors(q))


def inertia(q) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric integer
    matrix: Descartes' rule of signs is exact on its characteristic
    polynomial, whose roots are all real."""
    n = len(q)
    coeffs = [int(c) for c in sympy.Matrix(q).charpoly().all_coeffs()]
    zero = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        zero += 1

    def changes(cs):
        signs = [c > 0 for c in cs if c]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    pos = changes(coeffs)
    return pos, n - pos - zero, zero


def classification(q) -> tuple:
    """(rank, signature, parity, definiteness) of a symmetric form."""
    pos, neg, zero = inertia(q)
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
    parity = "odd" if any(q[i][i] % 2 for i in range(len(q))) else "even"
    return len(q), pos - neg, parity, definiteness


def congruence(q, e):
    """e^T q e."""
    n = len(q)
    eq = [[sum(e[k][i] * q[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(eq[i][k] * e[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# links


def check_links(w, doc, kirby, answers, src):
    problems = []
    for name, spec in w.spec["links"].items():
        q = workloads.link_matrix(spec)
        n = spec["n"]
        if answers[f"{name}.linking_matrix"] != q:
            problems.append(f"{name}: linking matrix differs from the generated one")
        want = classification(q)
        c = answers[f"{name}.intersection_form"]
        if (c.rank, c.signature, c.parity, c.definiteness) != want:
            problems.append(f"{name}: classification {c} != {want}")
        if n <= workloads.REPORT_MAX_N:
            rep = json.loads(answers[f"{name}.invariant_report"])
            form = rep["form"] or {}
            got = (rep["linking_matrix"], rep["boundary_h1"], rep["homology"]["h2_rank"],
                   form.get("matrix"), (form.get("rank"), form.get("signature"), form.get("parity")))
            expect = (q, boundary_text(q), n, q, want[:3])
            if got != expect:
                problems.append(f"{name}: invariant report {got} != {expect}")
    for name, spec in w.spec["kept"].items():
        got = answers.get(f"{name}.boundary_H1")  # absent while it runs out of time
        want = boundary_text(workloads.link_matrix(spec))
        if got is not None and got != want:
            problems.append(f"{name}: boundary H1 {got} != {want}")
    return problems


# ---------------------------------------------------------------------------
# moves: the linking matrix tracked by the textbook move formulas


def after_move(move, ids, q, new_ids):
    """(ids, linking matrix) after ``move`` (Gompf-Stipsicz section 5.1).

    ``new_ids`` is the program's component list, used only to learn the
    name it gave a blown-up unknot."""
    n = len(ids)
    kind = move[0]
    if kind == "slide":
        _, a, c, sign = move
        e = [[int(i == j) for j in range(n)] for i in range(n)]
        e[ids.index(c)][ids.index(a)] = sign  # [a] -> [a] + sign [c]
        return ids, congruence(q, e)
    if kind == "blowup":
        _, sign, through = move
        l = [0] * n
        for cid, _, s in through:
            l[ids.index(cid)] += s
        out = [[q[i][j] + sign * l[i] * l[j] for j in range(n)] + [l[i]] for i in range(n)]
        out.append(l + [sign])
        return ids + [new_ids[-1]], out
    if kind == "blowdown":
        eps = q[-1][-1]
        l = q[-1][:-1]
        return ids[:-1], [[q[i][j] - eps * l[i] * l[j] for j in range(n - 1)] for i in range(n - 1)]
    if kind == "cancel":
        _, dot, framed = move
        di, fi = ids.index(dot), ids.index(framed)
        s = q[fi][di]
        keep = [i for i in range(n) if i not in (di, fi)]
        m = {i: -s * q[i][di] for i in keep}
        out = [[q[i][j] + m[i] * q[fi][j] + m[j] * q[i][fi] + m[i] * m[j] * q[fi][fi]
                for j in keep] for i in keep]
        return [ids[i] for i in keep], out
    raise ValueError(f"unknown move {move!r}")


def track_sequence(name, ids, q, plan, answers):
    problems = []
    boundary = boundary_text(q)
    for step, move in enumerate(plan):
        got_ids, got_q, got_h1 = answers[f"{name}.{step}.{move[0]}"]
        ids, q = after_move(move, ids, q, got_ids)
        if got_ids != ids or got_q != q:
            problems.append(f"{name} step {step} {move}: linking matrix {got_q} != {q}")
            break
        if got_h1 != boundary:
            problems.append(f"{name} step {step}: boundary H1 {got_h1} != {boundary}")
    return problems


def check_moves(w, doc, kirby, answers, src):
    problems = []
    for name, spec in w.spec["bodies"].items():
        ids, q = workloads.handlebody_matrix(spec)
        problems += track_sequence(name, ids, q, spec["plan"], answers)
    problems += track_sequence("P22", ["a", "b"], [[-2, 1], [1, -2]], w.spec["plumbing"], answers)
    return problems


# ---------------------------------------------------------------------------
# search


def torus_counts(n: int, qs) -> dict[int, tuple[int, int]]:
    """Homomorphisms from <a, b | (ab)^k a = b (ab)^k> (the group of
    T(2, 2k+1)) into S_n: {q: (total, surjective)}, over all pairs (a, b)."""
    elems = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    mul = [[index[tuple(p[x] for x in r)] for r in elems] for p in elems]
    ident = index[tuple(range(n))]

    def generates(a, b):
        seen, frontier = {ident}, [ident]
        while frontier:
            x = frontier.pop()
            for y in (mul[x][a], mul[x][b]):
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return len(seen) == len(elems)

    counts = {q: [0, 0] for q in qs}
    for a, b in itertools.product(range(len(elems)), repeat=2):
        ab, power = mul[a][b], ident
        for k in range(1, max(qs) // 2 + 1):
            power = mul[power][ab]
            if 2 * k + 1 in counts and mul[power][a] == mul[b][power]:
                counts[2 * k + 1][0] += 1
                counts[2 * k + 1][1] += generates(a, b)
    return {q: tuple(c) for q, c in counts.items()}


def _cyclic_forms(word):
    word = tuple(word)
    inverse = tuple(-x for x in reversed(word))
    return {w[i:] + w[:i] for w in (word, inverse) for i in range(max(len(w), 1))}


def relators_match(p1, p2, generator_map) -> bool:
    """p1's relators, renamed by ``generator_map`` and some choice of
    generator signs, equal p2's up to order, rotation and inversion."""
    target = {g: i + 1 for i, g in enumerate(p2.generators)}
    perm = [target[dict(generator_map)[g]] for g in p1.generators]
    want = sorted(min(_cyclic_forms(r)) for r in p2.relators)
    for signs in itertools.product((1, -1), repeat=len(perm)):
        mapped = [tuple(signs[abs(x) - 1] * perm[abs(x) - 1] * (1 if x > 0 else -1) for x in r)
                  for r in p1.relators]
        if sorted(min(_cyclic_forms(r)) for r in mapped) == want:
            return True
    return False


SUMMAND_INVARIANTS = {name: (pos, neg, odd) for name, pos, neg, odd in workloads.FORM_SUMMANDS}


def form_invariants(summands) -> tuple[int, int, bool]:
    pos = sum(SUMMAND_INVARIANTS[s][0] for s in summands)
    neg = sum(SUMMAND_INVARIANTS[s][1] for s in summands)
    return pos, neg, any(SUMMAND_INVARIANTS[s][2] for s in summands)


def _compositions(total, parts, cap):
    if parts == 1:
        if total <= cap:
            yield (total,)
        return
    for first in range(min(total, cap) + 1):
        for rest in _compositions(total - first, parts - 1, cap):
            yield (first,) + rest


def balanced(inv1, inv2, c1, c2) -> bool:
    """Do inv1 + c1 * (<1>, <-1>, H) and inv2 + c2 * (...) agree in rank and
    signature as odd indefinite forms?"""
    (p1, n1, o1), (p2, n2, o2) = inv1, inv2
    a1, b1, h1 = c1
    a2, b2, h2 = c2
    pos, neg = p1 + a1 + h1, n1 + b1 + h1
    return ((pos, neg) == (p2 + a2 + h2, n2 + b2 + h2) and pos > 0 and neg > 0
            and (o1 or a1 > 0 or b1 > 0) and (o2 or a2 > 0 or b2 > 0))


def minimal_witness_total(inv1, inv2, cap=6):
    """Fewest summands that make the two forms stably equal, or None."""
    for total in range(6 * cap + 1):
        for c in _compositions(total, 6, cap):
            if balanced(inv1, inv2, c[:3], c[3:]):
                return total
    return None


def check_stable(label, left, right, result) -> list[str]:
    inv1, inv2 = form_invariants(left), form_invariants(right)
    best = minimal_witness_total(inv1, inv2)
    if best is None:
        return [] if result.status == "unsupported" else [f"{label}: {result} but no witness exists"]
    if result.status != "equivalent":
        return [f"{label}: {result.status}, but a witness of {best} summands exists"]
    c1 = tuple(dict(result.counts).get(s, 0) for s in ("<1>", "<-1>", "H"))
    c2 = tuple(dict(result.counts_other).get(s, 0) for s in ("<1>", "<-1>", "H"))
    if not balanced(inv1, inv2, c1, c2):
        return [f"{label}: witness {c1}, {c2} does not balance rank and signature"]
    if sum(c1) + sum(c2) != best:
        return [f"{label}: witness uses {sum(c1) + sum(c2)} summands, minimum is {best}"]
    return []


def check_search(w, doc, kirby, answers, src):
    gp = kirby.grouppres
    problems = []
    qs = w.spec["qs"]
    counts = {n: torus_counts(n, qs) for n in (4, 5)}
    for q in qs:
        g, gm = answers[f"T{q}.wirtinger"], answers[f"T{q}m.wirtinger"]
        if q <= workloads.RAW_S3_MAX_Q:
            c = answers[f"T{q}.homs_s3_raw"]
            want = (3 + 3 * gcd(q, 3), 3 * gcd(q, 3) - 3)
            if (c.total, c.surjective) != want:
                problems.append(f"T{q}: S3 counts {(c.total, c.surjective)} != {want}")
        simp = answers[f"T{q}.tietze_simplify"]
        if gp.apply_tietze(g, simp.log) != simp.presentation:
            problems.append(f"T{q}: Tietze log does not replay to its result")
        for n in (4, 5):
            c = answers[f"T{q}.homs_s{n}"]
            if (c.total, c.surjective) != counts[n][q] or len(c.witnesses) != c.surjective:
                problems.append(f"T{q}: S{n} counts {(c.total, c.surjective)} != {counts[n][q]}")
        cert = answers[f"T{q}.tietze_equivalent"]
        if cert is None:
            problems.append(f"T{q}: not certified equivalent to its mirror")
        else:
            p1, p2 = gp.apply_tietze(g, cert.log1), gp.apply_tietze(gm, cert.log2)
            if not relators_match(p1, p2, cert.generator_map):
                problems.append(f"T{q}: equivalence certificate does not match relators")
    for i, (left, right) in enumerate(w.spec["pairs"]):
        label = f"F{i}.stably_equivalent"
        problems += check_stable(label, left, right, answers[label])
    return problems


# ---------------------------------------------------------------------------
# corpus


def torus_q(d) -> int | None:
    """q for a one-box two-strand diagram of T(2, q), else None."""
    if len(d.components) != 1 or len(d.boxes) != 1 or d.crossings:
        return None
    box = d.boxes[0]
    if len(box.strands) != 2 or box.strands[0].orient != box.strands[1].orient:
        return None
    return abs(box.halftwists)


def check_corpus(w, doc, kirby, answers, src):
    corpus = kirby.corpus
    problems = []
    frozen_dir = src / "kirby" / "corpus_data" / "expected"
    for name, case in sorted(corpus.cases().items()):
        if answers[name] != [(name, True, ())]:
            problems.append(f"{name}: verify_corpus reported {answers[name]}")
        got = json.loads(json.dumps(corpus.compute_case(name, doc)))
        frozen = json.loads((frozen_dir / f"{name}.json").read_text(encoding="utf-8"))
        if got != frozen:
            problems.append(f"{name}: report differs from its frozen copy")
        if case.kind == "knot":
            q = torus_q(doc.diagrams[name])
            if q is None:
                problems.append(f"{name}: not a two-strand torus knot diagram")
            else:
                want = (3 + 3 * gcd(q, 3), 3 * gcd(q, 3) - 3)
                have = (got["wirtinger"]["s3_total"], got["wirtinger"]["s3_surjective"])
                if have != want:
                    problems.append(f"{name}: S3 counts {have} != closed form {want}")
        if case.kind == "script":
            h1s = {step["boundary_h1"] for step in got["steps"]}
            if len(h1s) != 1:
                problems.append(f"{name}: boundary H1 changes along the script: {sorted(h1s)}")
    return problems
