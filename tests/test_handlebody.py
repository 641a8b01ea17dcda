"""Handle calculus: slides, blowups, cancellation, and the algebraic
invariants they must preserve, checked against matrix congruence oracles."""

import itertools
from dataclasses import replace

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from kirby import corpus, dsl, handlebody, intmat, pdcode, surface
from kirby.handlebody import Handlebody
from kirby.pdcode import (
    BoxStrand, Component, Crossing, Diagram, FRAMED, DOTTED, Pass, SymmetryMarking, TwistBox,
)
from kirby.surface import Disk, Ribbon, Sheet, SurfacePresentation

from conftest import (
    bench_workloads, model_cancel_pair, model_slide, random_symmetric, random_unimodular,
)
from test_pdcode import hopf, sweep_diagrams


def abstract_link(framings, lk):
    """Framed components with exact pairwise linking given abstractly."""
    comps = tuple(Component(c, FRAMED, f) for c, f in framings.items())
    crossings = []
    n = 0
    for (a, b), v in lk.items():
        sign = 1 if v > 0 else -1
        for _ in range(2 * abs(v)):
            crossings.append(Crossing(f"x{n}", sign, between=(a, b)))
            n += 1
    return Handlebody(Diagram("abs", comps, tuple(crossings)))


def sympy_cokernel(mat, ambient):
    m = sympy.Matrix(mat) if mat and mat[0] else sympy.zeros(ambient, 1)
    d = sympy_snf(m)
    divs = [abs(d[i, i]) for i in range(min(d.shape)) if d[i, i] != 0]
    return ambient - len(divs), sorted(x for x in divs if x > 1)


def dotted_example():
    d = Diagram(
        "dx",
        (
            Component("f", FRAMED, 1, edges=("f1",)),
            Component("b", FRAMED, 2, edges=("b1",)),
            Component(
                "m",
                DOTTED,
                through=(Pass("f1", 1, 0), Pass("b1", 1, 0), Pass("b1", -1, 1)),
            ),
            Component("m2", DOTTED, through=(Pass("b1", 1, 2),)),
        ),
        crossings=(Crossing("x0", 1, between=("f", "b")), Crossing("x1", 1, between=("f", "b"))),
    )
    return Handlebody(d)


# -- slides ----------------------------------------------------------------


def test_slide_matches_congruence_oracle(rng):
    for trial in range(50):
        n = rng.randint(2, 4)
        ids = [f"c{i}" for i in range(n)]
        framings = {c: rng.randint(-3, 3) for c in ids}
        lk = {
            (a, b): rng.randint(-2, 2)
            for a, b in itertools.combinations(ids, 2)
            if rng.random() < 0.7
        }
        h = abstract_link(framings, {k: v for k, v in lk.items() if v})
        q = pdcode.linking_matrix(h.diagram, ids)
        for _ in range(rng.randint(1, 4)):
            ia, ic = rng.sample(range(n), 2)
            sign = rng.choice([1, -1])
            h = handlebody.slide(h, ids[ia], ids[ic], sign)
            # basis change oracle: the slid handle's class becomes a + sign*c
            e = intmat.identity(n)
            e[ic][ia] = sign
            q = intmat.matmul(intmat.matmul(intmat.transpose(e), q), e)
            assert pdcode.linking_matrix(h.diagram, ids) == q
        # the boundary is untouched by any slide
        assert intmat.cokernel(q, ambient_rank=n) == handlebody.boundary_H1(h)


def test_slide_preserves_invariants_with_dots():
    h = dotted_example()
    before = handlebody.invariant_report(h)
    out = handlebody.slide(h, "f", "b", -1)
    after = handlebody.invariant_report(out)
    for key in ("components", "homology", "boundary_h1"):
        assert after[key] == before[key]
    assert (
        handlebody.fundamental_group(out).abelianization()
        == handlebody.fundamental_group(h).abelianization()
    )


def test_slide_rejects_bad_arguments():
    h = dotted_example()
    with pytest.raises(handlebody.HandlebodyError):
        handlebody.slide(h, "f", "f")
    with pytest.raises(handlebody.HandlebodyError):
        handlebody.slide(h, "f", "m")
    with pytest.raises(handlebody.HandlebodyError):
        handlebody.slide(h, "f", "b", 2)


# -- blowups and blowdowns -------------------------------------------------


def test_blowup_refuses_a_string_of_edges():
    h = Handlebody(Diagram("u", (Component("a", FRAMED, 0, edges=("a", "b")),)))
    with pytest.raises(handlebody.HandlebodyError, match="string, not a list of edges"):
        handlebody.blowup(h, 1, "ab")
    assert handlebody.blowup(h, 1, ("a",)).diagram.components[-1].through != ()


def hopf_handlebody():
    return Handlebody(
        Diagram(
            "hopf",
            components=(
                Component("a", FRAMED, 0, edges=("a1", "a2")),
                Component("b", FRAMED, 0, edges=("b1", "b2")),
            ),
            crossings=(
                Crossing("x1", 1, edges=("a1", "b1", "a2", "b2"), over=1),
                Crossing("x2", 1, edges=("b2", "a2", "b1", "a1"), over=1),
            ),
        )
    )


def test_blowup_changes_form_by_one_sphere():
    h = hopf_handlebody()
    c0 = handlebody.intersection_form(h).classify()
    for sign in (1, -1):
        up = handlebody.blowup(h, sign)
        c = handlebody.intersection_form(up).classify()
        assert c.rank == c0.rank + 1
        assert c.signature == c0.signature + sign
        assert str(handlebody.boundary_H1(up)) == str(handlebody.boundary_H1(h))


def test_blowup_blowdown_roundtrip_linked():
    h = hopf_handlebody()
    before = handlebody.invariant_report(h)
    for sign in (1, -1):
        # a1 and b1 run in parallel between the two crossings, so the
        # blown-up sphere can encircle both with matching pass signs
        for through in ((), ("a1",), (("a1", 1), ("b1", 1))):
            up = handlebody.blowup(h, sign, through)
            assert handlebody.validate(up) == []
            uid = up.diagram.components[-1].id
            back = handlebody.blowdown(up, uid)
            assert handlebody.validate(back) == []
            assert handlebody.invariant_report(back) == before


def test_blowdown_rejects_non_spheres():
    h = hopf_handlebody()
    with pytest.raises(handlebody.HandlebodyError):
        handlebody.blowdown(h, "a")  # framing 0
    up = handlebody.blowup(h, 1, ("a1", "a2"))
    with pytest.raises(handlebody.HandlebodyError):
        # the new unknot passes twice over `a`'s strands but is still
        # round; deleting an honest component must still be refused
        handlebody.blowdown(up, "a")


# -- dot swaps and cancellation --------------------------------------------


def test_swap_dot_round_trip_and_certificates():
    d = Diagram(
        "sw",
        (
            Component("a", FRAMED, 0, edges=("a1",)),
            Component("m", DOTTED, through=(Pass("a1", 1, 0),)),
        ),
    )
    h = Handlebody(d)
    bh = str(handlebody.boundary_H1(h))
    undotted = handlebody.swap_dot(h, "m")
    assert undotted.diagram.component("m").kind == FRAMED
    assert undotted.diagram.component("m").framing == 0
    assert str(handlebody.boundary_H1(undotted)) == bh
    with pytest.raises(handlebody.HandlebodyError):
        handlebody.swap_dot(undotted, "m")  # needs a disk certificate
    back = handlebody.swap_dot(undotted, "m", certificate="example")
    assert back.diagram.component("m").kind == DOTTED
    with pytest.raises(handlebody.HandlebodyError):
        handlebody.swap_dot(h, "a")  # framing 0 but not round (has a pass over it)


def test_cancel_pair_preserves_invariants():
    h = dotted_example()
    before = handlebody.invariant_report(h)
    out = handlebody.cancel_pair(h, "m", "f")
    assert len(out.diagram.components) == 2
    after = handlebody.invariant_report(out)
    assert after["homology"] == before["homology"]
    assert after["boundary_h1"] == before["boundary_h1"]
    assert (
        handlebody.fundamental_group(out).abelianization()
        == handlebody.fundamental_group(h).abelianization()
    )
    # cancel the remaining pair too: nothing is left
    final = handlebody.cancel_pair(out, "m2", "b")
    assert len(final.diagram.components) == 0
    assert handlebody.invariant_report(final)["boundary_h1"] == before["boundary_h1"]


def test_cancel_pair_requires_single_geometric_pass():
    d = Diagram(
        "cc",
        (
            Component("f", FRAMED, 0, edges=("f1",)),
            Component("m", DOTTED, through=(Pass("f1", 1, 0), Pass("f1", -1, 1))),
        ),
    )
    with pytest.raises(handlebody.HandlebodyError):
        handlebody.cancel_pair(Handlebody(d), "m", "f")


# -- invariants against sympy ----------------------------------------------


def test_homology_and_boundary_against_sympy():
    h = dotted_example()
    # pass matrix by construction: rows (m, m2), columns (f, b)
    p = [[1, 0], [0, 1]]
    rank, torsion = sympy_cokernel(p, 2)
    rep = handlebody.homology(h)
    assert rep.h1.rank == rank and list(rep.h1.torsion) == torsion
    assert rep.h2_rank == 2 - sympy.Matrix(p).rank()
    assert rep.contractible  # square unimodular pass matrix, connected
    # boundary: dots become 0-framed; linking by construction
    #   order f, b, m, m2; lk(f,b)=1, passes give lk(f,m)=1, lk(b,m)=0, lk(b,m2)=1
    q = [
        [1, 1, 1, 0],
        [1, 2, 0, 1],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ]
    rank, torsion = sympy_cokernel(q, 4)
    bh = handlebody.boundary_H1(h)
    assert bh.rank == rank and sorted(bh.torsion) == torsion


def test_homology_nontrivial_torsion():
    d = Diagram(
        "tor",
        (
            Component("f", FRAMED, 0, edges=("f1", "f2", "f3")),
            Component(
                "m",
                DOTTED,
                through=(Pass("f1", 1, 0), Pass("f2", 1, 0), Pass("f3", 1, 0)),
            ),
        ),
    )
    rep = handlebody.homology(Handlebody(d))
    assert str(rep.h1) == "Z/3"
    assert rep.h2_rank == 0
    assert not rep.contractible


def test_intersection_form_defined_iff_no_passes():
    h = abstract_link({"a": 2, "b": -1}, {("a", "b"): 3})
    f = handlebody.intersection_form(h)
    assert f.matrix == ((2, 3), (3, -1))
    with pytest.raises(handlebody.HandlebodyError):
        handlebody.intersection_form(dotted_example())


def test_three_handles_block_contractibility():
    d = Diagram("u", (Component("a", FRAMED, 1, edges=("a1",)),))
    assert handlebody.homology(Handlebody(d)).contractible is False  # no 1-handles but S^2 class
    e = Diagram("e", ())
    assert handlebody.homology(Handlebody(e)).contractible
    assert handlebody.homology(Handlebody(e, three_handles=1)).contractible is False


# -- extension certificates ------------------------------------------------


def test_extension_check_certifies_meridians():
    h = hopf_handlebody()
    good = handlebody.extension_check(h, [([1, 0], 0), ([0, 1], 0)])
    assert good.certified
    bad_framing = handlebody.extension_check(h, [([1, 0], 2), ([0, 1], 0)])
    assert not bad_framing.certified
    assert "framing" in bad_framing.reasons[0]


def test_extension_check_refuses_wrong_class():
    d = Diagram("u", (Component("a", FRAMED, 0, edges=("a1",)),))
    h = Handlebody(d)
    assert handlebody.extension_check(h, [([1], 0)]).certified
    ref = handlebody.extension_check(h, [([0], 0)])
    assert ref.status == "refused"
    # framing 2 boundary is a lens space: classes agree mod 2
    d2 = Diagram("u2", (Component("a", FRAMED, 2, edges=("a1",)),))
    assert handlebody.extension_check(Handlebody(d2), [([3], 0)]).certified
    assert not handlebody.extension_check(Handlebody(d2), [([2], 0)]).certified


# -- corks and equivariance ------------------------------------------------


def symmetric_pair():
    d = Diagram(
        "sym",
        (
            Component("a1", FRAMED, 0, edges=("e1",)),
            Component("a2", FRAMED, 0, edges=("e2",)),
            Component("m1", DOTTED, through=(Pass("e1", 1, 0),)),
            Component("m2", DOTTED, through=(Pass("e2", 1, 0),)),
        ),
        crossings=(
            Crossing("x0", 1, between=("a1", "a2")),
            Crossing("x1", 1, between=("a1", "a2")),
        ),
    )
    marking = SymmetryMarking(
        component_map=(("a1", "a2"), ("a2", "a1"), ("m1", "m2"), ("m2", "m1")),
        edge_map=(("e1", "e2"), ("e2", "e1")),
    )
    return Handlebody(d), marking


def test_cork_presentation_checks_contractibility_and_marking():
    h, marking = symmetric_pair()
    cork = handlebody.CorkPresentation(h, marking)
    assert cork.handlebody is h
    bad = abstract_link({"a1": 2, "a2": 2}, {})
    with pytest.raises(handlebody.HandlebodyError):
        handlebody.CorkPresentation(
            bad, SymmetryMarking(component_map=(("a1", "a2"), ("a2", "a1")))
        )


def test_marking_must_preserve_linking():
    h = abstract_link({"a1": 0, "a2": 1}, {})
    m = SymmetryMarking(component_map=(("a1", "a2"), ("a2", "a1")))
    assert not handlebody.marking_is_automorphism(
        handlebody.boundary_diagram(h.diagram), m
    )


def test_check_equivariant_translates_moves():
    h, marking = symmetric_pair()
    assert handlebody.check_equivariant(
        h, marking, ("slide", "a1", "a2", 1), ("slide", "a2", "a1", 1)
    )
    assert not handlebody.check_equivariant(
        h, marking, ("slide", "a1", "a2", 1), ("slide", "a1", "a2", 1)
    )
    assert handlebody.check_equivariant(
        h, marking, ("blowup", 1, ("e1",)), ("blowup", 1, ("e2",))
    )


# -- the congruence behind every move ---------------------------------------


def test_slide_rows_is_the_congruence(rng):
    for _ in range(100):
        n = rng.randint(2, 5)
        q = random_symmetric(n, rng)
        a, c = rng.sample(range(n), 2)
        k = rng.randint(-3, 3)
        e = intmat.identity(n)
        e[a][c] = k
        expected = intmat.matmul(intmat.matmul(e, q), intmat.transpose(e))
        handlebody._slide_rows(q, a, c, k)
        assert q == expected


def test_slide_keeps_dotted_linking_carried_by_passes():
    # f passes through d once, and an abstract crossing cancels that linking
    d = Diagram(
        "hidden",
        (
            Component("d", DOTTED, through=(Pass("f1", 1, 0),)),
            Component("f", FRAMED, 0, edges=("f1",)),
            Component("g", FRAMED, 1, edges=("g1",)),
        ),
        (Crossing("x", -1, between=("f", "d"), count=2),),
    )
    q = pdcode.linking_matrix(d)
    assert q[0][1] == 0
    for sign in (1, -1):
        out = handlebody.slide(Handlebody(d), "g", "f", sign)
        e = intmat.identity(3)
        e[2][1] = sign
        expected = intmat.matmul(intmat.matmul(e, q), intmat.transpose(e))
        assert pdcode.linking_matrix(out.diagram) == expected


def pass_diagram(p, n, rng):
    """Dotted circles d0.. and n 0-framed loops f0.. whose algebraic pass
    counts are the rows of ``p``, with some cancelling pairs of passes."""
    m = len(p)
    seq = {}
    dots = []
    for i in range(m):
        marks = []
        for j in range(n):
            signs = [1 if p[i][j] > 0 else -1] * abs(p[i][j])
            if rng.random() < 0.3:
                signs += [1, -1]
            for s in signs:
                edge = f"f{j}.l"
                marks.append(Pass(edge, s, seq.get(edge, 0)))
                seq[edge] = seq.get(edge, 0) + 1
        dots.append(Component(f"d{i}", DOTTED, through=tuple(marks)))
    framed = [Component(f"f{j}", FRAMED, 0, edges=(f"f{j}.l",)) for j in range(n)]
    return Diagram("passes", tuple(dots + framed))


def three_elimination_homology(h):
    """homology as computed from three separate eliminations of p."""
    p, dots, framed = handlebody.pass_matrix(h.diagram)
    h1 = intmat.cokernel(p, ambient_rank=len(dots))
    h2_rank = len(framed) - intmat.rank(p)
    square_unimodular = (
        len(dots) == len(framed) and (not dots or abs(intmat.det(p)) == 1)
    )
    contractible = (
        square_unimodular
        and h.three_handles == 0
        and handlebody.is_connected(h.diagram)
    )
    return handlebody.HomologyReport(h1, h2_rank, contractible)


def random_pass_matrices(rng):
    yield [], 0
    yield [], 3
    yield [[] for _ in range(2)], 0
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        yield [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)], n
        if m > 1:  # a square singular matrix: one row repeats another
            sq = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)]
            sq[-1] = list(sq[0])
            yield sq, m
        unimodular, _ = random_unimodular(m, rng, steps=rng.randint(0, 6))
        yield unimodular, m


def test_homology_matches_three_eliminations(rng):
    kinds = set()
    for p, n in random_pass_matrices(rng):
        d = pass_diagram(p, n, rng)
        assert pdcode.validate(d) == []
        h = Handlebody(d, three_handles=rng.choice([0, 0, 1]))
        rep = handlebody.homology(h)
        assert rep == three_elimination_homology(h)
        kinds.add((len(p) == n, rep.h1.is_trivial, rep.contractible))
    # square and not, unimodular and not, contractible and not all occur
    assert {k[0] for k in kinds} == {k[1] for k in kinds} == {k[2] for k in kinds} == {True, False}


def test_homology_runs_one_elimination(rng, monkeypatch):
    calls = []
    for name in ("_divisors", "smith_normal_form"):
        elimination = getattr(intmat, name)

        def counted(a, elimination=elimination):
            calls.append(a)
            return elimination(a)

        monkeypatch.setattr(intmat, name, counted)
    for p, n in random_pass_matrices(rng):
        calls.clear()
        handlebody.homology(Handlebody(pass_diagram(p, n, rng)))
        assert len(calls) == (1 if p and n else 0)


def test_invariant_report_builds_each_matrix_once(monkeypatch):
    from kirby import corpus

    dotted = Diagram(
        "framed_dot",
        (
            Component("m", DOTTED, framing=5, through=(Pass("a1", 1, 0),)),
            Component("k", FRAMED, 2, ("a1",)),
        ),
        (Crossing("x", 1, between=("m", "k"), count=2),),
    )
    cases = [Handlebody(d) for d in corpus.load_document().diagrams.values()] + [
        dotted_example(), hopf_handlebody(), Handlebody(dotted)
    ]
    calls = []
    for module, name in ((pdcode, "linking_matrix"), (handlebody, "pass_matrix")):
        build = getattr(module, name)

        def counted(*args, build=build, name=name):
            calls.append(name)
            return build(*args)

        monkeypatch.setattr(module, name, counted)
    reports = []
    for h in cases:
        calls.clear()
        reports.append(handlebody.invariant_report(h))
        assert sorted(calls) == ["linking_matrix", "pass_matrix"]
    monkeypatch.undo()
    for h, report in zip(cases, reports):
        b = handlebody.boundary_diagram(h.diagram)
        ids = [c.id for c in b.components if c.kind == FRAMED]
        expected = intmat.cokernel(pdcode.linking_matrix(b, ids), ambient_rank=len(ids))
        assert report["boundary_h1"] == str(expected) == str(handlebody.boundary_H1(h))
        try:
            form = [list(r) for r in handlebody.intersection_form(h).matrix]
        except handlebody.HandlebodyError:
            form = None
        assert (report["form"] and report["form"]["matrix"]) == form


def test_blowup_keys_follow_the_passes_on_each_edge():
    # m passes a2 with key 0, so the new sphere's pass on a2 goes after
    # it; the sphere sits on the left of its box, where the strand of a4
    # leaves on the new edge w1
    d = Diagram(
        "C",
        (
            Component("a", FRAMED, 0, edges=("a1", "a2", "a4", "a3")),
            Component("m", DOTTED, through=(Pass("a1", 1, 0), Pass("a2", 1, 0), Pass("a4", -1, 0))),
        ),
        boxes=(pdcode.TwistBox("B", 0, (pdcode.BoxStrand("a1", "a2", 1), pdcode.BoxStrand("a3", "a4", -1))),),
    )
    h = Handlebody(d)
    up = handlebody.blowup(h, 1, (("a2", 1), ("a4", -1)))
    assert up.diagram.component("u0").through == (Pass("a2", 1, 1), Pass("w1", -1, 0))
    assert handlebody.validate(up) == []
    assert pdcode._pass_words(up.diagram)["a"] == pdcode._pass_words(d)["a"]
    down = handlebody.blowdown(up, "u0")
    assert handlebody.validate(down) == []
    assert pdcode.linking_matrix(down.diagram) == pdcode.linking_matrix(d)


# -- one reading per diagram fact ------------------------------------------


def walked_is_connected(d):
    """The walk over crossings, boxes and passes that ``is_connected`` ran
    before it read the incidences of ``pdcode._crossing_totals``."""
    ids = [c.id for c in d.components]
    if len(ids) <= 1:
        return True
    owner = d.edge_owner()
    adj = {i: set() for i in ids}

    def link(a, b):
        if a != b:
            adj[a].add(b)
            adj[b].add(a)

    for x in d.crossings:
        if x.is_geometric:
            owners = {owner[e] for e in x.edges}
            for a in owners:
                for b in owners:
                    link(a, b)
        else:
            link(*x.between)
    for box in d.boxes:
        owners = {owner[s.left] for s in box.strands}
        for a in owners:
            for b in owners:
                link(a, b)
    for c in d.components:
        for p in c.through:
            link(c.id, owner[p.edge])
    seen = {ids[0]}
    frontier = [ids[0]]
    while frontier:
        for b in adj[frontier.pop()]:
            if b not in seen:
                seen.add(b)
                frontier.append(b)
    return len(seen) == len(ids)


def test_is_connected_matches_the_walk_it_replaced():
    valid = [d for _, d in sorted(corpus.load_document().diagrams.items()) if not pdcode.validate(d)]
    subjects = valid + [pdcode.expand_twistboxes(d) for d in valid] + list(sweep_diagrams())
    split = Diagram("split", hopf().components + (Component("c", FRAMED, 0, edges=("c1",)),),
                    hopf().crossings)
    subjects.append(split)
    verdicts = [handlebody.is_connected(d) for d in subjects]
    assert verdicts == [walked_is_connected(d) for d in subjects]
    assert True in verdicts and False in verdicts


def _stray(records=(), boxes=(), passes=()):
    """Framed a, b and a round +1 sphere u; each argument adds records
    that may name something the diagram lacks."""
    comps = (
        Component("a", FRAMED, 0, edges=("a1", "a2")),
        Component("b", FRAMED, 0, edges=("b1", "b2")),
        Component("u", FRAMED, 1, through=tuple(passes)),
    )
    return Diagram("stray", comps, tuple(records), tuple(boxes))


BOX = _stray(boxes=(TwistBox("B", 2, (BoxStrand("a1", "a2"), BoxStrand("b9", "b2"))),))
PASS = _stray(passes=(Pass("a1", 1, 0), Pass("z1", 1, 0)))
ABSTRACT = _stray(records=(Crossing("y", 1, between=("a", "q"), count=2),))
PAIRLESS = _stray(records=(Crossing("y", 1),))
THREE_EDGES = _stray(records=(Crossing("x", 1, edges=("a1", "a2", "a1")),))
SLOT_2 = _stray(records=(Crossing("x", 1, edges=("a1", "b1", "zz", "b2")),))
DOTTED_PASS = Diagram("stray", (
    Component("f", FRAMED, 0, edges=("f1",)),
    Component("m", DOTTED, through=(Pass("z1", 1, 0),)),
))
SURFACE = SurfacePresentation("s", Handlebody(Diagram()), minima=(Disk("d0"), Disk("d1")))


@pytest.mark.parametrize("read, error, match", [
    (lambda: pdcode.linking_matrix(BOX), pdcode.DiagramError, "box B: unknown edge 'b9'"),
    (lambda: pdcode.linking_matrix(PASS), pdcode.DiagramError,
     "component u: pass references unknown edge 'z1'"),
    (lambda: pdcode.linking_matrix(ABSTRACT), pdcode.DiagramError,
     r"crossing y: unknown component in \('a', 'q'\)"),
    (lambda: handlebody.is_connected(BOX), pdcode.DiagramError, "unknown edge 'b9'"),
    (lambda: handlebody.is_connected(PASS), pdcode.DiagramError, "unknown edge 'z1'"),
    (lambda: handlebody.homology(Handlebody(DOTTED_PASS)), pdcode.DiagramError,
     "component m: pass references unknown edge 'z1'"),
    (lambda: handlebody.blowdown(Handlebody(PASS), "u"), handlebody.HandlebodyError,
     "unknown edge 'z1'"),
    (lambda: pdcode.reverse_orientation(
        _stray(records=(Crossing("x", 1, edges=("a1", "q1", "a2", "b2")),)), "a"),
     pdcode.DiagramError, "crossing x: unknown edge 'q1'"),
    (lambda: surface.is_connected_surface(replace(SURFACE, ribbons=(Ribbon("r", ("d0", "d9")),))),
     surface.SurfaceError, "unknown piece 'd9'"),
    (lambda: surface.is_connected_surface(replace(SURFACE, sheets=(Sheet("s", "a", cap="d9"),))),
     surface.SurfaceError, "unknown piece 'd9'"),
    (lambda: handlebody.blowup(hopf_handlebody(), 1, [7]), handlebody.HandlebodyError,
     "through entry 7"),
    (lambda: handlebody.blowup(hopf_handlebody(), 1, [("a1",)]), handlebody.HandlebodyError,
     "through entry"),
    (lambda: handlebody.blowup(hopf_handlebody(), 1, 3), handlebody.HandlebodyError,
     "through 3 is not a list of edges"),
    (lambda: handlebody.blowup(hopf_handlebody(), 1, None), handlebody.HandlebodyError,
     "through None is not a list of edges"),
    *[(read, pdcode.DiagramError, "crossing y: abstract crossing needs two components") for read in (
        lambda: pdcode.linking_matrix(PAIRLESS),
        lambda: handlebody.invariant_report(Handlebody(PAIRLESS)),
        lambda: handlebody.is_connected(PAIRLESS),
        lambda: handlebody.slide(Handlebody(PAIRLESS), "a", "b"),
        lambda: pdcode.reverse_orientation(PAIRLESS, "a"),
        lambda: pdcode.linking_matrix(_stray(records=(Crossing("y", 1, between=("a", "b", "u")),))),
    )],
    (lambda: handlebody.blowdown(Handlebody(PAIRLESS), "u"), handlebody.HandlebodyError,
     "crossing y: abstract crossing needs two components"),
    *[(read, pdcode.DiagramError, "crossing x: geometric crossing needs four edges") for read in (
        lambda: pdcode.linking_matrix(THREE_EDGES),
        lambda: pdcode.linking_matrix(_stray(records=(Crossing("x", 1, edges=()),))),
        lambda: pdcode.linking_matrix(_stray(records=(Crossing("x", 1, edges=("a1",) * 5),))),
        lambda: handlebody.is_connected(THREE_EDGES),
        lambda: pdcode.reverse_orientation(THREE_EDGES, "a"),
        lambda: pdcode.normalize(THREE_EDGES),
    )],
    *[(read, pdcode.DiagramError, "^crossing x: unknown edge 'zz'$") for read in (
        lambda: pdcode.linking_matrix(SLOT_2),
        lambda: pdcode.reverse_orientation(SLOT_2, "a"),
    )],
], ids=[
    "linking_matrix-box", "linking_matrix-pass", "linking_matrix-abstract",
    "is_connected-box", "is_connected-pass", "homology-pass", "blowdown-pass",
    "reverse_orientation-crossing", "is_connected_surface-ribbon",
    "is_connected_surface-cap", "blowup-bare-int", "blowup-short-tuple",
    "blowup-int-through", "blowup-none-through",
    "linking_matrix-pairless", "invariant_report-pairless", "is_connected-pairless",
    "slide-pairless", "reverse_orientation-pairless", "linking_matrix-triple",
    "blowdown-pairless",
    "linking_matrix-three-edges", "linking_matrix-no-edges", "linking_matrix-five-edges",
    "is_connected-three-edges", "reverse_orientation-three-edges", "normalize-three-edges",
    "linking_matrix-slot-2", "reverse_orientation-slot-2",
])
def test_unknown_names_are_refused_with_typed_errors(read, error, match):
    with pytest.raises(error, match=match):
        read()


@pytest.mark.parametrize("between", ["ab", ["a", "b"]])
def test_a_between_that_is_not_a_tuple_of_two_is_refused(between):
    d = _stray(records=(Crossing("y", 1, between=between, count=2),))
    message = "crossing y: abstract crossing needs two components"
    assert message in pdcode.validate(d)
    for read in (
        pdcode.linking_matrix,
        lambda d: pdcode.linking_number(d, "a", "b"),
        lambda d: handlebody.invariant_report(Handlebody(d)),
        handlebody.is_connected,
        lambda d: handlebody.slide(Handlebody(d), "a", "b"),
        lambda d: pdcode.reverse_orientation(d, "a"),
    ):
        with pytest.raises(pdcode.DiagramError, match=message):
            read(d)
    with pytest.raises(handlebody.HandlebodyError, match=message):
        handlebody.blowdown(Handlebody(d), "u")


@pytest.mark.parametrize("call, error", [
    (lambda: handlebody.blowup(hopf_handlebody(), True), handlebody.HandlebodyError),
    (lambda: handlebody.blowup(hopf_handlebody(), 1, [("a1", True)]), handlebody.HandlebodyError),
    (lambda: handlebody.slide(dotted_example(), "f", "b", True), handlebody.HandlebodyError),
    (lambda: pdcode.r1_insert(hopf(), "a1", True), pdcode.MoveError),
    (lambda: pdcode.validate(replace(hopf(), crossings=tuple(
        replace(x, sign=True) for x in hopf().crossings))), None),
    (lambda: pdcode.validate(replace(dotted_example().diagram, components=tuple(
        replace(c, through=tuple(replace(p, sign=True) for p in c.through))
        for c in dotted_example().diagram.components))), None),
    (lambda: pdcode.validate(Diagram("box", (Component("k", FRAMED, 0, edges=("k1", "k2")),),
                                     boxes=(TwistBox("T", 1, (BoxStrand("k1", "k2", True),)),))),
     None),
    (lambda: surface.validate_surface(SurfacePresentation(
        "s", hopf_handlebody(), sheets=(Sheet("s0", "a", True),))), None),
], ids=[
    "blowup", "blowup-pass", "slide", "r1_insert", "validate-crossing", "validate-pass",
    "validate-strand", "validate_surface-sheet",
])
def test_boolean_signs_are_refused(call, error):
    if error is None:
        assert any("sign" in v or "orientation" in v for v in call())
    else:
        with pytest.raises(error, match="sign"):
            call()


@pytest.mark.parametrize("framing", [True, 1.0, "0", 1.5])
def test_non_integer_framings_are_refused(framing):
    d = _stray()
    d = replace(d, components=tuple(replace(c, framing=framing) for c in d.components))
    assert "component a: framing must be an integer" in pdcode.validate(d)
    for read in (pdcode.linking_matrix, lambda d: handlebody.invariant_report(Handlebody(d))):
        with pytest.raises(pdcode.DiagramError, match="framing must be an integer"):
            read(d)
    with pytest.raises(handlebody.HandlebodyError, match="framing"):
        handlebody.blowdown(Handlebody(d), "u")


def test_slides_and_cancellations_match_the_slide_model_on_the_moves_plans():
    # every state of the benchmark's move plans, seeds 1-5: each slide and
    # cancellation equals the model's, record for record
    w = bench_workloads()
    compared = 0
    for seed in range(1, 6):
        work = w.build("moves", seed)
        doc = dsl.parse(work.text)
        plans = [(name, spec["plan"]) for name, spec in work.spec["bodies"].items()]
        for name, plan in plans + [("P22", work.spec["plumbing"])]:
            h = Handlebody(doc.diagrams[name])
            for move in plan:
                nxt = w._apply_move(handlebody, h, move)
                if move[0] == "slide":
                    assert nxt == model_slide(h, *move[1:]), (seed, name, move)
                    compared += 1
                elif move[0] == "cancel":
                    assert nxt == model_cancel_pair(h, *move[1:]), (seed, name, move)
                    compared += 1
                h = nxt
    assert compared > 1000
