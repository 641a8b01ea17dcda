"""Group presentations: words, Tietze moves, quotient counting, and
presentations read off diagrams."""

import contextlib
import itertools
import math
import signal

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from kirby import corpus, grouppres, handlebody, pdcode
from kirby.grouppres import GroupPresentation

from test_pdcode import clasp, expansion_subjects, hopf, outcome, unknot


# -- independent S_n oracle (permutations as tuples, composed directly) ----


def perms(n):
    return list(itertools.permutations(range(n)))


def compose(p, q):  # (p q)(i) = p[q[i]]
    return tuple(p[q[i]] for i in range(len(p)))


def invert(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def eval_word_oracle(word, images, n):
    acc = tuple(range(n))
    for x in word:
        g = images[abs(x) - 1]
        if x < 0:
            g = invert(g)
        acc = compose(acc, g)
    return acc


def count_homs_oracle(g: GroupPresentation, n: int) -> int:
    idp = tuple(range(n))
    total = 0
    for images in itertools.product(perms(n), repeat=g.rank):
        if all(eval_word_oracle(r, images, n) == idp for r in g.relators):
            total += 1
    return total


# -- the loops that the searches replaced, kept as oracles -----------------


def enumerate_homs_oracle(g: GroupPresentation, n: int, witnesses: bool = True):
    """Every one of the |S_n|^rank assignments, in product order."""
    elems, index, table, inverse = grouppres._perm_table(n)
    identity = index[tuple(range(n))]
    order = len(elems)
    total = surj = 0
    found = []
    for images in itertools.product(range(order), repeat=g.rank):
        if any(
            grouppres.evaluate_word(r, images, table, inverse, identity) != identity
            for r in g.relators
        ):
            continue
        total += 1
        if grouppres._generates(images, table, identity, order):
            surj += 1
            if witnesses:
                found.append(tuple(elems[i] for i in images))
    return grouppres.QuotientCount(total, surj, tuple(found))


def class_rep_enumerate_homs(g: GroupPresentation, n: int, witnesses: bool = True):
    """The depth-first search with conjugation invariance at the first
    binding level only: one representative of each conjugacy class for
    the first generator, weighted by its class size, and all of S_n for
    every later generator."""
    elems, index, table, inverse = grouppres._perm_table(n)
    identity = index[tuple(range(n))]
    order = len(elems)
    classes, seen = [], set()
    for x in range(order):
        if x not in seen:
            cls = {table[table[s][x]][inverse[s]] for s in range(order)}
            seen |= cls
            classes.append((x, len(cls)))
    anything = [(x, 1) for x in range(order)]
    plan = grouppres._binding_order(g)
    images = [identity] * g.rank
    total = surj = 0
    found = []

    def bind(level, weight):
        nonlocal total, surj
        if level == len(plan):
            total += weight
            if grouppres._generates(images, table, identity, order):
                surj += weight
                if witnesses:
                    found.append(tuple(images))
            return
        gen, rels = plan[level]
        for x, size in classes if level == 0 else anything:
            images[gen] = x
            if all(grouppres.evaluate_word(r, images, table, inverse, identity) == identity
                   for r in rels):
                bind(level + 1, weight * size)

    bind(0, 1)
    conjugates = sorted({
        tuple(table[table[s][x]][inverse[s]] for x in h) for h in found for s in range(order)
    })
    return grouppres.QuotientCount(
        total, surj, tuple(tuple(elems[x] for x in h) for h in conjugates)
    )


def cyclic_equal_oracle(a, b) -> bool:
    if len(a) != len(b):
        return False
    return any(grouppres.rotate_word(a, k) == b for k in range(max(len(a), 1)))


def single_occurrence_oracle(r, g: int):
    hits = [k for k, x in enumerate(r) if abs(x) == g]
    return hits[0] if len(hits) == 1 else None


def tietze_simplify_oracle(g: GroupPresentation, budget: int = 1000):
    """The pairwise duplicate scan and the per-generator occurrence scan,
    applying each step with plain list edits of its own."""
    invert_word, cyclic_reduce = grouppres.invert_word, grouppres.cyclic_reduce
    Simplification = grouppres.Simplification
    log = []
    gens = list(g.generators)
    rels = list(GroupPresentation.make(g.generators, g.relators).relators)
    steps = 0

    def apply(step) -> bool:
        """Spend one step of the budget on ``step``; False once spent."""
        nonlocal steps, rels
        steps += 1
        if steps > budget:
            return False
        log.append(step)
        op, i = step[0], step[-1]
        if op == "invert":
            rels[i] = invert_word(rels[i])
        elif op == "rotate":
            rels[i] = grouppres.rotate_word(rels[i], step[2])
        elif op == "multiply":
            rels[step[1]] = cyclic_reduce(grouppres.free_reduce(rels[step[1]] + rels[i]))
            rels = [w for w in rels if w]
        elif op == "remove":
            assert any(cyclic_equal_oracle(rels[i], w) for k, w in enumerate(rels) if k != i)
            del rels[i]
        else:
            rels = eliminate_oracle(rels, step[1], i)
            del gens[step[1] - 1]
        return True

    def result(exhausted: bool):
        return Simplification(GroupPresentation(tuple(gens), tuple(rels)), tuple(log), exhausted)

    changed = True
    while changed:
        changed = False
        for i in range(len(rels)):
            r = rels[i]
            if any(cyclic_equal_oracle(r, rels[j]) or cyclic_equal_oracle(r, invert_word(rels[j]))
                   for j in range(i)):
                if not any(cyclic_equal_oracle(r, rels[j]) for j in range(i)):
                    if not apply(("invert", i)):
                        return result(True)
                if not apply(("remove", i)):
                    return result(True)
                changed = True
                break
        if changed:
            continue

        best = None
        for i, r in enumerate(rels):
            for gen in range(1, len(gens) + 1):
                if single_occurrence_oracle(r, gen) is not None:
                    key = (len(r), i, gen)
                    if best is None or key < best:
                        best = key
        if best is not None:
            _, i, gen = best
            if not apply(("eliminate", gen, i)):
                return result(True)
            changed = True
            continue

        best = None
        for i, j in itertools.permutations(range(len(rels)), 2):
            for inv in (0, 1):
                rj = invert_word(rels[j]) if inv else rels[j]
                for k in range(len(rj)):
                    cand = cyclic_reduce(
                        grouppres.free_reduce(rels[i] + grouppres.rotate_word(rj, k))
                    )
                    gain = len(rels[i]) - len(cand)
                    if gain > 0:
                        key = (-gain, i, j, inv, k)
                        if best is None or key < best:
                            best = key
        if best is not None:
            _, i, j, inv, k = best
            steps_needed = [("invert", j)] * inv + ([("rotate", j, k)] if k else []) + [("multiply", i, j)]
            for step in steps_needed:
                if not apply(step):
                    return result(True)
            changed = True
    return result(False)


def eliminate_oracle(rels, gen: int, i: int):
    """Substitute for the generator letter by letter, shift the higher
    generators down, and reduce every relator."""
    invert_word = grouppres.invert_word
    r = rels[i]
    k = single_occurrence_oracle(r, gen)
    repl = invert_word(r[:k]) + invert_word(r[k + 1:])
    if r[k] < 0:
        repl = invert_word(repl)
    out = []
    for j, w in enumerate(rels):
        if j == i:
            continue
        subst = []
        for x in w:
            subst.extend((x,) if abs(x) != gen else repl if x > 0 else invert_word(repl))
        shifted = [x - 1 if x > gen else x + 1 if x < -gen else x for x in subst]
        out.append(grouppres.cyclic_reduce(shifted))
    return [w for w in out if w]


def tietze_equivalent_oracle(g1: GroupPresentation, g2: GroupPresentation, budget: int = 1000):
    """The greedy pairwise matching over every signed relabelling."""
    s1 = grouppres.tietze_simplify(g1, budget)
    s2 = grouppres.tietze_simplify(g2, budget)
    p1, p2 = s1.presentation, s2.presentation
    if p1.rank != p2.rank or len(p1.relators) != len(p2.relators):
        return None
    n = p1.rank
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            def remap(w):
                out = []
                for x in w:
                    g = perm[abs(x) - 1] + 1
                    s = signs[abs(x) - 1] * (1 if x > 0 else -1)
                    out.append(s * g)
                return grouppres.cyclic_reduce(tuple(out))

            mapped = [remap(r) for r in p1.relators]
            used = [False] * len(p2.relators)
            ok = True
            for r in mapped:
                hit = next(
                    (
                        j
                        for j, s in enumerate(p2.relators)
                        if not used[j]
                        and (cyclic_equal_oracle(r, s)
                             or cyclic_equal_oracle(grouppres.invert_word(r), s))
                    ),
                    None,
                )
                if hit is None:
                    ok = False
                    break
                used[hit] = True
            if ok:
                gmap = tuple((p1.generators[i], p2.generators[perm[i]]) for i in range(n))
                return grouppres.EquivalenceCertificate(s1.log, s2.log, gmap, signs)
    return None


SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def presentations(draw, max_rank=3, max_length=6):
    """Random relators over at most ``max_rank`` (up to four) generators,
    with planted copies of some of them, rotated and possibly inverted."""
    rank = draw(st.integers(0, max_rank))
    gens = tuple("xyzw"[:rank])
    if not rank:
        return GroupPresentation.make(gens, ())
    letter = st.sampled_from([s * i for i in range(1, rank + 1) for s in (1, -1)])
    words = draw(st.lists(st.lists(letter, min_size=1, max_size=max_length), max_size=3))
    planted = []
    for w in words:
        if draw(st.booleans()):
            copy = grouppres.rotate_word(tuple(w), draw(st.integers(0, len(w))))
            planted.append(grouppres.invert_word(copy) if draw(st.booleans()) else copy)
    return GroupPresentation.make(gens, draw(st.permutations([tuple(w) for w in words] + planted)))


def corpus_presentations():
    """The Wirtinger presentation (where the diagram has one) and the
    handlebody group of every valid corpus diagram."""
    out = []
    for name, d in sorted(corpus.load_document().diagrams.items()):
        if pdcode.validate(d):
            continue
        try:
            out.append((f"{name}.wirtinger", grouppres.wirtinger(d)))
        except grouppres.GroupError:
            pass
        out.append((f"{name}.pi1", handlebody.fundamental_group(handlebody.Handlebody(d))))
    return out


@contextlib.contextmanager
def deadline(seconds: float):
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# -- words ------------------------------------------------------------------


def test_free_and_cyclic_reduce():
    assert grouppres.free_reduce((1, -1, 2)) == (2,)
    assert grouppres.free_reduce((1, 2, -2, -1)) == ()
    assert grouppres.cyclic_reduce((1, 2, -1)) == (2,)
    assert grouppres.invert_word((1, -2, 3)) == (-3, 2, -1)


def test_parse_and_format_roundtrip():
    gens = ("x", "y")
    for text in ("x y x^-1 y^-1", "x^3 y^-2", "x"):
        w = grouppres.parse_word(text, gens)
        assert grouppres.parse_word(grouppres.format_word(w, gens), gens) == w


def test_parse_word_parenthesized_powers():
    gens = ("x", "y")
    w = grouppres.parse_word("x y (y x)^-2", gens)
    assert w == grouppres.free_reduce((1, 2, -1, -2, -1, -2))


def test_exponents_are_decimal_digits():
    # a superscript is a digit to str.isdigit but no decimal int() reads
    for text, column in (("a^²", 3), ("a^-²", 4), ("(a b)^²", 7)):
        with pytest.raises(grouppres.GroupError, match=f"^column {column}: malformed exponent$"):
            grouppres.parse_word(text, ["a", "b"])
    assert grouppres.parse_word("a^-١٢", ["a"]) == (-1,) * 12  # Arabic-Indic digits


def test_abelianization_against_sympy(rng):
    for trial in range(20):
        n_gens = rng.randint(1, 3)
        relators = []
        for _ in range(rng.randint(0, 3)):
            w = tuple(
                rng.choice([i, -i])
                for i in [rng.randint(1, n_gens) for _ in range(rng.randint(1, 5))]
            )
            relators.append(w)
        g = GroupPresentation(
            tuple(f"g{i}" for i in range(n_gens)), tuple(map(grouppres.free_reduce, relators))
        )
        ab = g.abelianization()
        # oracle: cokernel of the exponent matrix via sympy SNF
        mat = [[0] * max(len(g.relators), 1) for _ in range(n_gens)]
        for j, r in enumerate(g.relators):
            for x in r:
                mat[abs(x) - 1][j] += 1 if x > 0 else -1
        d = sympy_snf(sympy.Matrix(mat))
        divs = [
            abs(d[i, i])
            for i in range(min(d.shape))
            if d[i, i] != 0
        ]
        assert ab.rank == n_gens - len(divs)
        assert list(ab.torsion) == [x for x in divs if x > 1]


# -- Tietze -----------------------------------------------------------------


def test_simplify_log_replays_exactly():
    g = GroupPresentation.make(
        ("a", "b", "c"), ("a b^-1", "b c", "a c a^-1 c^-1")
    )
    simp = grouppres.tietze_simplify(g, 500)
    replay = grouppres.apply_tietze(g, simp.log)
    assert replay == simp.presentation


def test_simplify_trivializes_obvious_presentations():
    g = GroupPresentation.make(("a", "b"), ("a b", "a b^2"))
    simp = grouppres.tietze_simplify(g, 500)
    assert simp.presentation.is_obviously_trivial()


def test_tietze_equivalent_up_to_renaming_and_inversion():
    g1 = GroupPresentation.make(("x", "y"), ("x y x^-1 y^-1 x^-1 y^-1",))
    g2 = GroupPresentation.make(("u", "v"), ("u v u^-1 v^-1 u^-1 v^-1",))
    cert = grouppres.tietze_equivalent(g1, g2)
    assert cert is not None
    # the certificate logs must replay to presentations related by its map
    assert grouppres.apply_tietze(g1, cert.log1).rank == grouppres.apply_tietze(
        g2, cert.log2
    ).rank
    g3 = GroupPresentation.make(("x", "y"), ("x y^-1",))
    g4 = GroupPresentation.make(("x", "y"), ("x y",))
    assert grouppres.tietze_equivalent(g3, g4) is not None
    g5 = GroupPresentation.make(("x", "y"), ("x y x y",))
    assert grouppres.tietze_equivalent(g1, g5) is None


def test_apply_tietze_rejects_illegal_steps():
    g = GroupPresentation.make(("a",), ("a a",))
    with pytest.raises(grouppres.GroupError):
        grouppres.apply_tietze(g, (("remove", 5),))


def test_apply_tietze_rejects_malformed_steps():
    # a log is a certificate read from outside: every malformed step is a
    # GroupError, and booleans are not indices
    g = GroupPresentation.make(("a", "b"), ("a b", "a a b"))
    for step in (5, ["invert", 0], (), (7,), ("invert",), ("rotate", 0, "x"),
                 ("eliminate", "a", 0), ("invert", True), ("eliminate", True, 0),
                 ("multiply", 0, 1, 9), ("remove", 0.0), ("shuffle", 0)):
        with pytest.raises(grouppres.GroupError):
            grouppres.apply_tietze(g, [step])
    assert grouppres.apply_tietze(g, [("rotate", 1, -1), ("invert", 0)]).relators[0] == (-2, -1)


@SEEDED
@given(presentations(max_length=8), st.sampled_from((1, 2, 3, 1000)))
def test_tietze_simplify_matches_pairwise_scans(g, budget):
    assert grouppres.tietze_simplify(g, budget) == tietze_simplify_oracle(g, budget)


def test_tietze_simplify_matches_pairwise_scans_on_corpus():
    for name, g in corpus_presentations():
        for budget in (1, 2, 3, 1000):
            want = tietze_simplify_oracle(g, budget)
            assert grouppres.tietze_simplify(g, budget) == want, (name, budget)


def test_tietze_simplify_matches_pairwise_scans_on_torus_knots():
    # long relators and many steps: the raw Wirtinger presentation of
    # T(2, ±q) is simplified by q eliminations and removals
    for q in (*range(3, 22, 2), 41, 61):
        for g in (grouppres.wirtinger(torus_knot(q)), grouppres.wirtinger(torus_knot(-q))):
            simp = grouppres.tietze_simplify(g)
            assert simp == tietze_simplify_oracle(g), q
            assert grouppres.apply_tietze(g, simp.log) == simp.presentation
            if q < 41:
                continue
            # budgets that run out part way through the eliminations
            for budget in (1, q // 3, q // 2, q - 2):
                cut = grouppres.tietze_simplify(g, budget)
                assert cut.budget_exhausted and len(cut.log) == budget, (q, budget)
                assert cut == tietze_simplify_oracle(g, budget), (q, budget)
                assert grouppres.apply_tietze(g, cut.log) == cut.presentation


@st.composite
def bucket_collisions(draw):
    """Relators with the same letters up to sign: rotated or inverted
    copies of a relator, which the duplicate scan must find, and
    reorderings with fresh signs (a b c against a c b), which it must
    tell apart."""
    rank = draw(st.integers(1, 3))
    gens = tuple("xyz"[:rank])
    letter = st.sampled_from([s * i for i in range(1, rank + 1) for s in (1, -1)])
    words = [tuple(w) for w in draw(st.lists(st.lists(letter, min_size=1, max_size=6), min_size=1, max_size=3))]
    planted = []
    for w in words:
        for kind in draw(st.lists(st.sampled_from(("rotation", "inverse", "reordering")), max_size=3)):
            if kind == "reordering":
                planted.append(tuple(x * draw(st.sampled_from((1, -1))) for x in draw(st.permutations(w))))
                continue
            copy = grouppres.rotate_word(w, draw(st.integers(0, len(w))))
            planted.append(grouppres.invert_word(copy) if kind == "inverse" else copy)
    return GroupPresentation.make(gens, draw(st.permutations(words + planted)))


@SEEDED
@given(bucket_collisions(), st.sampled_from((1, 2, 3, 1000)))
def test_tietze_simplify_matches_pairwise_scans_on_bucket_collisions(g, budget):
    simp = grouppres.tietze_simplify(g, budget)
    assert simp == tietze_simplify_oracle(g, budget)
    assert grouppres.apply_tietze(g, simp.log) == simp.presentation


@SEEDED
@given(bucket_collisions())
def test_eliminate_matches_letter_by_letter_substitution(g):
    for i, r in enumerate(g.relators):
        for gen in range(1, g.rank + 1):
            if single_occurrence_oracle(r, gen) is None:
                continue
            state = grouppres._Tietze(g)
            grouppres._apply_step(state, ("eliminate", gen, i))
            out = state.presentation()
            assert list(out.relators) == eliminate_oracle(g.relators, gen, i), (g, gen, i)
            assert list(out.generators) == [name for k, name in enumerate(g.generators) if k != gen - 1]


def test_duplicate_scan_compares_within_letter_buckets():
    def next_steps(rels):
        return grouppres._next_steps(grouppres._Tietze(GroupPresentation(("a", "b", "c"), rels)))

    # a c b has the letters of a b c but is no rotation of it or its inverse
    assert next_steps([(1, 2, 3), (1, 3, 2)]) == [("eliminate", 1, 0)]
    assert next_steps([(1, 2, 3), (2, 1), (3, 1, 2)]) == [("remove", 2)]
    assert next_steps([(1, 2, 3), (2, 1), (-2, -1, -3)]) == [("invert", 2), ("remove", 2)]


@SEEDED
@given(presentations(max_length=8), st.sampled_from((1, 2, 3, 1000)))
def test_simplification_log_replays(g, budget):
    simp = grouppres.tietze_simplify(g, budget)
    assert grouppres.apply_tietze(g, simp.log) == simp.presentation


def test_log_replays_after_a_step_empties_a_relator():
    # the first elimination turns "a b^-1 a b^-1" into the empty word, so
    # the second step indexes the list without it
    g = GroupPresentation.make(("a", "b", "c"), ("a b^-1", "a b^-1 a b^-1", "c b c"))
    simp = grouppres.tietze_simplify(g)
    assert simp.log == (("eliminate", 1, 0), ("eliminate", 1, 0))
    assert grouppres.apply_tietze(g, simp.log) == simp.presentation
    assert simp.presentation == GroupPresentation(("c",), ())


def test_empty_relators_are_dropped_before_the_first_step():
    raw = GroupPresentation(("a", "b"), ((), (1, -2), (1,), ()))
    reduced = GroupPresentation(("a", "b"), ((1, -2), (1,)))
    assert grouppres.apply_tietze(raw, ()) == reduced
    simp = grouppres.tietze_simplify(raw)
    assert simp == grouppres.tietze_simplify(reduced)
    assert grouppres.apply_tietze(raw, simp.log) == simp.presentation
    # an empty relator is gone, so it is no longer there to remove
    with pytest.raises(grouppres.GroupError, match="not redundant"):
        grouppres.apply_tietze(raw, (("remove", 0),))


def relabelled_matches(cert, p1: GroupPresentation, p2: GroupPresentation) -> bool:
    """p1's relators, renamed and signed by the certificate, equal p2's up
    to order, rotation and inversion."""
    target = {name: i + 1 for i, name in enumerate(p2.generators)}
    image = [sign * target[name] for (_, name), sign in zip(cert.generator_map, cert.generator_signs)]

    def forms(w):
        return min(grouppres.rotate_word(v, k) for v in (w, grouppres.invert_word(w))
                   for k in range(max(len(v), 1)))

    mapped = [tuple(image[abs(x) - 1] * (1 if x > 0 else -1) for x in r) for r in p1.relators]
    return sorted(map(forms, mapped)) == sorted(map(forms, p2.relators))


def test_certificate_records_generator_signs():
    g1 = GroupPresentation.make(("x", "y"), ("x y x^-1 y^-1 x^-1 y^-1",))
    g2 = GroupPresentation.make(("u", "v"), ("u^-1 v u v^-1 u v^-1",))
    cert = grouppres.tietze_equivalent(g1, g2)
    assert cert.generator_map == (("x", "u"), ("y", "v"))
    assert cert.generator_signs == (-1, 1)
    p1 = grouppres.apply_tietze(g1, cert.log1)
    p2 = grouppres.apply_tietze(g2, cert.log2)
    assert relabelled_matches(cert, p1, p2)
    unsigned = grouppres.EquivalenceCertificate(cert.log1, cert.log2, cert.generator_map, (1, 1))
    assert not relabelled_matches(unsigned, p1, p2)


@st.composite
def disguised_pairs(draw):
    """A presentation and a copy with renamed, signed and permuted
    generators, and rotated, inverted and shuffled relators."""
    g = draw(presentations(max_length=8))
    n = g.rank
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    copies = []
    for r in g.relators:
        w = tuple(signs[abs(x) - 1] * (perm[abs(x) - 1] + 1) * (1 if x > 0 else -1) for x in r)
        w = grouppres.rotate_word(w, draw(st.integers(0, len(w))))
        copies.append(grouppres.invert_word(w) if draw(st.booleans()) else w)
    return g, GroupPresentation.make(tuple("uvw"[:n]), draw(st.permutations(copies)))


@SEEDED
@given(disguised_pairs(), st.sampled_from((3, 1000)))
def test_tietze_equivalent_matches_greedy_matching(pair, budget):
    g1, g2 = pair
    cert = grouppres.tietze_equivalent(g1, g2, budget)
    assert cert == tietze_equivalent_oracle(g1, g2, budget)
    if cert is not None:
        p1 = grouppres.apply_tietze(g1, cert.log1)
        p2 = grouppres.apply_tietze(g2, cert.log2)
        assert relabelled_matches(cert, p1, p2)


def test_tietze_equivalent_matches_greedy_matching_on_torus_knots():
    for q in (3, 5, 7, 9):
        knot, mirror = grouppres.wirtinger(torus_knot(q)), grouppres.wirtinger(torus_knot(-q))
        cert = grouppres.tietze_equivalent(knot, mirror)
        assert cert is not None
        assert cert == tietze_equivalent_oracle(knot, mirror), q
        p1 = grouppres.apply_tietze(knot, cert.log1)
        p2 = grouppres.apply_tietze(mirror, cert.log2)
        assert relabelled_matches(cert, p1, p2)


# -- quotient counting ------------------------------------------------------


def test_enumerate_homs_matches_independent_oracle(rng):
    samples = [
        GroupPresentation.make(("x",), ()),  # Z
        GroupPresentation.make(("x",), ("x^3",)),  # Z/3
        GroupPresentation.make(("x", "y"), ("x y x^-1 y^-1",)),  # Z^2
        GroupPresentation.make(("x", "y"), ("x y x y^-1",)),
    ]
    for g in samples:
        for n in (2, 3):
            assert grouppres.enumerate_homs(g, n).total == count_homs_oracle(g, n)


@SEEDED
@given(presentations(), st.sampled_from((4, 3, 2, 1)))
def test_enumerate_homs_matches_brute_force(g, n):
    assert grouppres.enumerate_homs(g, n) == enumerate_homs_oracle(g, n)
    assert grouppres.enumerate_homs(g, n, witnesses=False) == enumerate_homs_oracle(g, n, False)


def test_enumerate_homs_matches_brute_force_on_corpus():
    for name, g in corpus_presentations():
        simplified = grouppres.tietze_simplify(g).presentation
        for p, n in ((g, 3), (simplified, 3), (simplified, 4)):
            assert grouppres.enumerate_homs(p, n) == enumerate_homs_oracle(p, n), (name, p, n)
        for p, n in ((g, 3), (g, 4), (simplified, 5)):
            assert grouppres.enumerate_homs(p, n) == class_rep_enumerate_homs(p, n), (name, p, n)


@st.composite
def presentations_and_degrees(draw):
    """A random presentation of rank at most 4 and a degree n <= 5, with
    the rank capped so that (n!)^(rank - 1) <= 13824, which bounds the
    assignments the class-representative search may visit."""
    n = draw(st.integers(1, 5))
    return draw(presentations(max_rank={4: 3, 5: 2}.get(n, 4))), n


@SEEDED
@given(presentations_and_degrees())
def test_enumerate_homs_matches_class_representative_search(case):
    g, n = case
    assert grouppres.enumerate_homs(g, n) == class_rep_enumerate_homs(g, n)
    assert grouppres.enumerate_homs(g, n, witnesses=False) == class_rep_enumerate_homs(g, n, False)


def test_enumerate_homs_matches_class_representative_search_on_torus_knots():
    for q in range(3, 23, 2):
        for k in (q, -q):
            g = grouppres.wirtinger(torus_knot(k))
            simplified = grouppres.tietze_simplify(g).presentation
            cases = [(simplified, n) for n in (3, 4, 5, 6)]
            if q <= 7:
                cases += [(g, n) for n in (1, 2, 3, 4, 5)]
            for p, n in cases:
                assert grouppres.enumerate_homs(p, n) == class_rep_enumerate_homs(p, n), (k, p, n)


def test_free_group_counts_weigh_every_orbit():
    # every assignment is a homomorphism, so the orbit weights at each
    # level must add up to n! for the total to be (n!)^rank
    for rank in (1, 2, 3):
        g = GroupPresentation.make(tuple("xyz"[:rank]), ())
        for n in (1, 2, 3, 4, 5):
            small = math.factorial(n) ** rank <= 14400
            got = grouppres.enumerate_homs(g, n, witnesses=small)
            assert got.total == math.factorial(n) ** rank, (rank, n)
            if small:
                assert got == enumerate_homs_oracle(g, n), (rank, n)
            else:  # 120^3 brute-force assignments: compare with the class search
                assert got.surjective == class_rep_enumerate_homs(g, n, False).surjective


def test_perm_table_built_once_per_n():
    grouppres._perm_table.cache_clear()
    g = GroupPresentation.make(("x", "y"), ("x y x^-1 y^-1",))
    for _ in range(3):
        for n in (1, 2, 3, 4):
            grouppres.enumerate_homs(g, n)
    info = grouppres._perm_table.cache_info()
    assert (info.misses, info.currsize) == (4, 4)
    for n, partitions in zip(range(1, 6), (1, 2, 3, 5, 7)):
        elems = grouppres._perm_table(n)[0]
        classes = grouppres._orbits(n, tuple(range(len(elems))))
        assert len(classes) == partitions
        assert sum(size for _, size, _ in classes) == len(elems)
        # each stabilizer is the centralizer, of order n!/|class|
        assert all(size * len(centralizer) == len(elems) for _, size, centralizer in classes)


def test_orbit_cache_grows_only_on_new_subgroups():
    samples = [
        GroupPresentation.make(("x", "y"), ("x y x^-1 y^-1",)),
        GroupPresentation.make(("x", "y", "z"), ("x y x y^-1", "z^2")),
        grouppres.wirtinger(torus_knot(5)),
    ]

    def run():
        for g in samples:
            for n in (1, 2, 3, 4, 5):
                grouppres.enumerate_homs(g, n)

    grouppres._orbits.cache_clear()
    run()
    first = grouppres._orbits.cache_info()
    run()
    again = grouppres._orbits.cache_info()
    assert first.currsize == again.currsize == again.misses > 0
    assert again.hits > first.hits


def test_raw_wirtinger_counts_finish():
    # brute force walked 24^5, 120^7 and 720^11 assignments on these
    for q, n, seconds in ((5, 4, 2), (7, 5, 5), (11, 6, 10)):
        g = grouppres.wirtinger(torus_knot(q))
        with deadline(seconds):
            raw = grouppres.enumerate_homs(g, n)
        simplified = grouppres.enumerate_homs(grouppres.tietze_simplify(g).presentation, n)
        assert (raw.total, raw.surjective) == (simplified.total, simplified.surjective)
        assert (raw.total, raw.surjective) == ({4: 24, 5: 120, 6: 720}[n], 0)


def test_evaluate_word_composition_order():
    elems, index, table, inverse = grouppres._perm_table(3)
    x = index[(1, 0, 2)]  # transposition (1 2)
    y = index[(0, 2, 1)]  # transposition (2 3)
    identity = index[(0, 1, 2)]
    prod = grouppres.evaluate_word((1, 2), (x, y), table, inverse, identity)
    assert elems[prod] == (1, 2, 0)  # the 3-cycle x(y(.))


def test_enumerate_homs_range_check():
    g = GroupPresentation.make(("x",), ())
    with pytest.raises(grouppres.GroupError):
        grouppres.enumerate_homs(g, 7)


# -- presentations from diagrams -------------------------------------------


def test_wirtinger_unknot_and_hopf():
    g = grouppres.wirtinger(unknot())
    assert str(g.abelianization()) == "Z"
    h = grouppres.wirtinger(hopf())
    assert str(h.abelianization()) == "Z^2"


def torus_knot(q: int) -> pdcode.Diagram:
    """The closure of a two-strand braid with q half-twists: the torus
    knot T(2, q)."""
    return pdcode.Diagram(
        f"T{q}",
        components=(
            pdcode.Component("k", pdcode.FRAMED, 0, edges=("k1", "k2", "k3", "k4")),
        ),
        boxes=(
            pdcode.TwistBox(
                "T", q, strands=(pdcode.BoxStrand("k1", "k2"), pdcode.BoxStrand("k3", "k4"))
            ),
        ),
    )


def union_find_wirtinger(d) -> GroupPresentation:
    """The Wirtinger presentation with its arcs merged by union-find, each
    named by its least edge: the reference for ``wirtinger``."""
    if d.boxes:
        d = pdcode.expand_twistboxes(d)
    d = pdcode.normalize(d)
    for x in d.crossings:
        if not x.is_geometric:
            raise grouppres.GroupError(f"crossing {x.id} has no planar data")
    for c in d.components:
        if c.is_round and c.through:
            raise grouppres.GroupError(f"round component {c.id} is not split")
    inc = pdcode.resolve_incidence(d)
    parent: dict[str, str] = {}

    def find(e):
        while parent.get(e, e) != e:
            parent[e] = parent.get(parent[e], parent[e])
            e = parent[e]
        return e

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for c in d.components:
        for e in c.edges:
            parent.setdefault(e, e)
    for x in d.crossings:
        union(*x.over_pair())
    arc_names = sorted({find(e) for e in parent})
    arcs = {e: arc_names.index(find(e)) + 1 for e in parent}
    free = [c.id for c in d.components if c.is_round]
    gens = tuple(f"g{a}" for a in arc_names) + tuple(free)
    relators = []
    for x in d.crossings:
        over_in, _ = inc.flow[(x.id, x.over)]
        under_in, under_out = inc.flow[(x.id, 1 - x.over)]
        o, u, v = arcs[over_in], arcs[under_in], arcs[under_out]
        w = (-v, o, u, -o) if x.sign > 0 else (-v, -o, u, o)
        relators.append(grouppres.cyclic_reduce(w))
    return GroupPresentation.make(gens, [r for r in relators if r])


def test_wirtinger_arcs_match_union_find():
    presented = 0
    for d in expansion_subjects():
        got = outcome(grouppres.wirtinger, d)
        assert got == outcome(union_find_wirtinger, d), d.name
        presented += isinstance(got, GroupPresentation)
    assert presented > 100


def test_wirtinger_trefoil_vs_unknot_quotients():
    trefoil = torus_knot(3)
    assert pdcode.validate(trefoil) == []
    g = grouppres.wirtinger(trefoil)
    qc = grouppres.enumerate_homs(g, 3)
    assert (qc.total, qc.surjective) == (12, 6)
    u = grouppres.wirtinger(unknot())
    qu = grouppres.enumerate_homs(u, 3)
    assert (qu.total, qu.surjective) == (6, 0)


def test_wirtinger_clasp_diagram_is_unknotted():
    # the plat closure of a two-strand twist region is an unknot for any
    # twist count, so its group has only abelian S3 quotients
    g = grouppres.wirtinger(clasp(5))
    qc = grouppres.enumerate_homs(g, 3)
    assert (qc.total, qc.surjective) == (6, 0)


def test_handlebody_pi1_dotted_generators():
    d = pdcode.Diagram(
        "dot",
        (
            pdcode.Component("a", pdcode.FRAMED, 0, edges=("a1",)),
            pdcode.Component(
                "m",
                pdcode.DOTTED,
                None,
                through=(pdcode.Pass("a1", 1, 0),),
            ),
        ),
    )
    g = grouppres.handlebody_pi1(d)
    assert g.generators == ("m",)
    assert g.relators == ((1,),)
