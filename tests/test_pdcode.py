"""Framed-link diagram structure, validation, and Reidemeister moves."""

import itertools
import random
import re
from dataclasses import replace

import pytest

from kirby import grouppres, pdcode
from kirby.pdcode import (
    BoxStrand,
    Component,
    Crossing,
    Diagram,
    FRAMED,
    DOTTED,
    Pass,
    TwistBox,
)


def unknot(framing=0):
    return Diagram("u", (Component("a", FRAMED, framing, edges=("a1",)),))


def hopf():
    return Diagram(
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


def clasp(halftwists=3):
    return Diagram(
        "clasp",
        components=(Component("k", FRAMED, -1, edges=("e1", "e2", "e4", "e3")),),
        boxes=(
            TwistBox(
                "B",
                halftwists,
                strands=(BoxStrand("e1", "e2", 1), BoxStrand("e3", "e4", -1)),
            ),
        ),
    )


def three_strand_braid():
    d = Diagram(
        "braid",
        components=(
            Component("A", FRAMED, 0, edges=("l0", "r0", "l2", "r2")),
            Component("B", FRAMED, 0, edges=("l1", "r1")),
        ),
        boxes=(
            TwistBox(
                "X",
                1,
                strands=(
                    BoxStrand("l0", "r0"),
                    BoxStrand("l1", "r1"),
                    BoxStrand("l2", "r2"),
                ),
            ),
        ),
    )
    return pdcode.expand_twistboxes(d)


def test_validate_accepts_standard_diagrams():
    for d in (unknot(), hopf(), clasp(), three_strand_braid()):
        assert pdcode.validate(d) == []


def test_validate_rejects_duplicate_ids_and_bad_references():
    dup = Diagram(
        "bad",
        (
            Component("a", FRAMED, 1, edges=("e1",)),
            Component("a", FRAMED, 2, edges=("e2",)),
        ),
    )
    assert pdcode.validate(dup)
    # the linking matrix reads the first component of a repeated id
    assert pdcode.linking_matrix(dup, ["a"]) == [[1]]
    dangling = Diagram(
        "bad2",
        (Component("a", FRAMED, 0, edges=("e1", "e2")),),
        crossings=(Crossing("x", 1, edges=("e1", "e2", "e3", "e4"), over=0),),
    )
    assert pdcode.validate(dangling)
    unframed = Diagram("bad3", (Component("a", FRAMED, None, edges=("e1",)),))
    assert pdcode.validate(unframed)


def test_linking_number_hopf_and_symmetry():
    d = hopf()
    assert pdcode.linking_number(d, "a", "b") == 1
    assert pdcode.linking_number(d, "b", "a") == 1
    m = pdcode.mirror(d)
    assert pdcode.linking_number(m, "a", "b") == -1


def test_linking_abstract_crossings():
    d = Diagram(
        "abs",
        (
            Component("a", FRAMED, 0),
            Component("b", FRAMED, 0),
        ),
        crossings=(
            Crossing("y1", 1, between=("a", "b")),
            Crossing("y2", 1, between=("a", "b")),
        ),
    )
    assert pdcode.linking_number(d, "a", "b") == 1


def test_box_linking_matches_expansion():
    # a two-component parallel twist region: symbolic linking must agree
    # with the fully expanded geometric count
    # odd twist counts would merge the closure into a single component,
    # so only even values give a consistent two-component diagram
    for t in (-4, -2, 2, 4):
        d = Diagram(
            "tw",
            components=(
                Component("a", FRAMED, 0, edges=("a1", "a2")),
                Component("b", FRAMED, 0, edges=("b1", "b2")),
            ),
            boxes=(
                TwistBox(
                    "B", t, strands=(BoxStrand("a1", "a2"), BoxStrand("b1", "b2"))
                ),
            ),
        )
        e = pdcode.expand_twistboxes(d)
        assert pdcode.validate(e) == []
        assert pdcode.linking_number(d, "a", "b") == pdcode.linking_number(
            e, "a", "b"
        )


def test_reverse_orientation_negates_row():
    d = hopf()
    r = pdcode.reverse_orientation(d, "a")
    assert pdcode.linking_number(r, "a", "b") == -1


def test_r1_roundtrip_preserves_structure():
    d = unknot()
    for sign in (1, -1):
        kinked = pdcode.r1_insert(d, "a1", sign)
        assert pdcode.validate(kinked) == []
        assert len(kinked.crossings) == 1
        back = pdcode.r1_remove(kinked, kinked.crossings[0].id)
        assert pdcode.validate(back) == []
        assert len(back.crossings) == 0


def test_r2_roundtrip_and_linking_invariance():
    d = Diagram(
        "two",
        (
            Component("a", FRAMED, 0, edges=("a1",)),
            Component("b", FRAMED, 0, edges=("b1",)),
        ),
    )
    poked = pdcode.r2_insert(d, "a1", "b1")
    assert pdcode.validate(poked) == []
    assert len(poked.crossings) == 2
    assert pdcode.linking_number(poked, "a", "b") == 0
    x1, x2 = (x.id for x in poked.crossings)
    back = pdcode.r2_remove(poked, x1, x2)
    assert pdcode.validate(back) == []
    assert len(back.crossings) == 0


def test_r3_preserves_linking_and_is_reversible():
    e = three_strand_braid()
    lk0 = pdcode.linking_matrix(e)
    out = pdcode.r3(e, "Xx0", "Xx1", "Xx2")
    assert pdcode.validate(out) == []
    assert pdcode.linking_matrix(out) == lk0
    back = pdcode.r3(out, "Xx0", "Xx1", "Xx2")
    assert pdcode.validate(back) == []
    assert pdcode.linking_matrix(back) == lk0
    m = pdcode.mirror(e)
    outm = pdcode.r3(m, "Xx0", "Xx1", "Xx2")
    assert pdcode.validate(outm) == []
    assert pdcode.linking_matrix(outm) == pdcode.linking_matrix(m)


def test_reidemeister_dispatcher_and_errors():
    d = unknot()
    kinked = pdcode.reidemeister(d, "R1", ("insert", "a1", 1))
    assert len(kinked.crossings) == 1
    with pytest.raises(pdcode.MoveError):
        pdcode.reidemeister(d, "R9", ("insert",))
    with pytest.raises(pdcode.MoveError):
        pdcode.r1_remove(hopf(), "x1")  # not a kink


def test_reidemeister_dispatches_every_move():
    kinked = pdcode.reidemeister(unknot(), "R1", ("insert", "a1", 1))
    (kink,) = (x.id for x in kinked.crossings)
    assert pdcode.reidemeister(kinked, "r1", ("remove", kink)) == pdcode.r1_remove(kinked, kink)
    two = Diagram(
        "two",
        (Component("a", FRAMED, 0, edges=("a1",)), Component("b", FRAMED, 0, edges=("b1",))),
    )
    poked = pdcode.reidemeister(two, "R2", ("insert", "a1", "b1"))
    assert poked == pdcode.r2_insert(two, "a1", "b1")
    x1, x2 = (x.id for x in poked.crossings)
    back = pdcode.reidemeister(poked, "R2", ("remove", x1, x2))
    assert back == pdcode.r2_remove(poked, x1, x2)
    assert back.crossings == ()
    e = three_strand_braid()
    assert pdcode.reidemeister(e, "R3", ("Xx0", "Xx1", "Xx2")) == pdcode.r3(e, "Xx0", "Xx1", "Xx2")
    for move, site in (("R1", ("twist", "a1")), ("R2", ("swap", "a1", "b1"))):
        with pytest.raises(pdcode.MoveError, match="unknown move"):
            pdcode.reidemeister(two, move, site)


@pytest.mark.parametrize("move, site", [
    ("R1", ("insert", "a1")),
    ("R1", ()),
    ("R1", ("remove",)),
    ("R2", ("remove", "x")),
    ("R3", ("x",)),
    ("R2", ("insert", "a1", ["x"])),
    ("R1", ("insert", ["a1"], 1)),
    (5, ("insert", "a1", 1)),
    ("R1", ("insert", "a1", 1, 2)),
    ("R1", "insert"),
    ("R1", (["insert"], "a1", 1)),
])
def test_reidemeister_refuses_malformed_sites(move, site):
    two_edges = Diagram("u", (Component("a", FRAMED, 0, edges=("a1", "a2")),))
    with pytest.raises(pdcode.MoveError):
        pdcode.reidemeister(two_edges, move, site)


def test_fresh_names_take_the_first_free_index():
    d = Diagram("d", (Component("a", FRAMED, 0, edges=("w0", "w2", "u1")),),
                (Crossing("u0", 1, between=("a", "a")),))
    assert d.fresh_edges(3) == ["w1", "w3", "w4"]
    assert d.fresh_id("u") == "u2"
    used = {"s0", "s1"}
    assert [pdcode._fresh(used, "s") for _ in range(2)] == ["s2", "s3"]
    assert used == {"s0", "s1", "s2", "s3"}


def test_validate_states_each_fault():
    h, c = hopf(), clasp()
    x1 = h.crossings[0]
    cases = [
        (Diagram("d", (Component("a", "weird", None),)), "component a: unknown kind 'weird'"),
        (
            Diagram("d", (Component("m", DOTTED, 3),)),
            "component m: only framed components carry framings",
        ),
        (
            Diagram("d", (Component("m", DOTTED, None, edges=("m1",)),)),
            "component m: dotted circles must be round-encoded",
        ),
        (
            Diagram("d", (Component("a", FRAMED, 0, edges=("a1",), through=(Pass("a1"),)),)),
            "component a: through-passes only on round components",
        ),
        (
            Diagram(
                "d",
                (Component("a", FRAMED, 0, edges=("a1",)), Component("b", FRAMED, 0, edges=("a1",))),
            ),
            "edge a1: used by components a and b",
        ),
        (
            Diagram(
                "d",
                (
                    Component("a", FRAMED, 0, edges=("a1",)),
                    Component("m", DOTTED, through=(Pass("a1"), Pass("a1", -1))),
                ),
            ),
            "edge a1: duplicate pass sequence key 0",
        ),
        (
            replace(h, crossings=h.crossings + (replace(x1, id="x3"),)),
            "edge a1: appears 3 times at vertices (expected 2)",
        ),
        (
            replace(c, boxes=(replace(c.boxes[0], strands=(BoxStrand("e1", "e2", 1),
                                                            BoxStrand("e3", "e4", 1))),)),
            "box B strand 1: declared orientation contradicts the component cycle",
        ),
        (
            replace(h, crossings=(replace(x1, sign=-1), h.crossings[1])),
            "crossing x1: declared sign -1 contradicts planar handedness +1",
        ),
        (
            replace(h, crossings=(replace(x1, over=2), h.crossings[1])),
            "crossing x1: over must be 0 or 1, got 2",
        ),
        (
            replace(h, crossings=(replace(x1, over=True), h.crossings[1])),
            "crossing x1: over must be 0 or 1, got True",
        ),
        (
            replace(c, boxes=(replace(c.boxes[0], halftwists="x"),)),
            "box B: halftwists must be an integer, got 'x'",
        ),
        (
            replace(c, boxes=(replace(c.boxes[0], halftwists=True),)),
            "box B: halftwists must be an integer, got True",
        ),
        (
            Diagram("d", (Component("a", FRAMED, 0, edges=(1,)),)),
            "component a: edge name 1 is not a string",
        ),
        (
            replace(h, crossings=(replace(x1, edges=("a1", ["b1"], "a2", "b2")), h.crossings[1])),
            "crossing x1: edge name ['b1'] is not a string",
        ),
        (
            replace(c, boxes=(replace(c.boxes[0], strands=(BoxStrand("e1", 2, 1),)),)),
            "box B: edge name 2 is not a string",
        ),
    ]
    for d, message in cases:
        assert message in pdcode.validate(d), message


def test_mistyped_records_are_refused_by_expansion_and_wirtinger():
    h, c = hopf(), clasp()
    for d in (
        replace(h, crossings=(replace(h.crossings[0], over=2), h.crossings[1])),
        replace(c, boxes=(replace(c.boxes[0], halftwists="x"),)),
        Diagram("d", (Component("a", FRAMED, 0, edges=(1,)),)),
    ):
        (fault,) = pdcode.validate(d)
        with pytest.raises(pdcode.DiagramError, match=re.escape(fault)):
            pdcode.expand_twistboxes(d)
        with pytest.raises(grouppres.GroupError, match=re.escape(fault)):
            grouppres.wirtinger(d)


def test_mirror_is_involution():
    d = hopf()
    assert pdcode.mirror(pdcode.mirror(d)) == d


def test_round_component_passes():
    d = Diagram(
        "dotted",
        (
            Component("a", FRAMED, 0, edges=("a1",)),
            Component(
                "m", DOTTED, None, through=(Pass("a1", 1, 0), Pass("a1", -1, 1))
            ),
        ),
    )
    assert pdcode.validate(d) == []
    assert pdcode.linking_number(d, "m", "a") == 0


def test_normalize_idempotent():
    e = three_strand_braid()
    n1 = pdcode.normalize(e)
    assert pdcode.normalize(n1) == n1


def test_parity_counts_twist_boxes():
    # a Hopf link drawn as one half-twist box plus one crossing: the box
    # supplies the second crossing of the pair
    d = Diagram(
        "boxed_hopf",
        components=(
            Component("a", FRAMED, 0, edges=("a1", "a2")),
            Component("b", FRAMED, 0, edges=("b1", "b2")),
        ),
        crossings=(Crossing("x", 1, edges=("a1", "b2", "a2", "b1"), over=0),),
        boxes=(
            TwistBox("B", 1, (BoxStrand("a1", "a2", 1), BoxStrand("b1", "b2", 1))),
        ),
    )
    assert pdcode.validate(d) == []
    e = pdcode.expand_twistboxes(d)
    assert pdcode.linking_number(d, "a", "b") == pdcode.linking_number(e, "a", "b") == 1


def test_validate_checks_crossing_counts():
    def pair(*crossings):
        comps = (Component("a", FRAMED, 0), Component("b", FRAMED, 0))
        return Diagram("counted", comps, crossings)

    assert pdcode.validate(pair(Crossing("y", 1, between=("a", "b"), count=4))) == []
    assert pdcode.validate(pair(Crossing("y", 1, between=("a", "b"), count=0)))
    geometric = replace(hopf().crossings[0], count=2)
    d = replace(hopf(), crossings=(geometric, hopf().crossings[1]))
    assert any("count 1" in p for p in pdcode.validate(d))


def test_validate_reports_odd_pairs_in_component_order():
    # component order c, a, b differs from the order of the id pairs
    comps = tuple(Component(c, FRAMED, 0) for c in "cab")
    records = tuple(
        Crossing(f"y{k}", 1, between=pair, count=count)
        for k, (pair, count) in enumerate(
            ((("b", "a"), 3), (("a", "c"), 1), (("b", "c"), 5), (("c", "a"), 2))
        )
    )
    assert pdcode.validate(Diagram("odd", comps, records)) == [
        "components c,a: odd crossing count 3",
        "components c,b: odd crossing count 5",
        "components a,b: odd crossing count 3",
    ]


def test_counted_record_links_like_its_unit_records():
    comps = (Component("a", FRAMED, 0), Component("b", FRAMED, 0))
    units = Diagram("u", comps, tuple(
        Crossing(f"y{i}", -1, between=("a", "b")) for i in range(6)
    ))
    counted = Diagram("c", comps, (Crossing("y", -1, between=("b", "a"), count=6),))
    assert pdcode.linking_number(units, "a", "b") == -3
    assert pdcode.linking_matrix(counted) == pdcode.linking_matrix(units)
    odd = replace(counted, crossings=(replace(counted.crossings[0], count=5),))
    with pytest.raises(pdcode.DiagramError):
        pdcode.linking_matrix(odd)


def test_crossing_on_unknown_edge_is_a_diagram_error():
    from kirby import handlebody

    d = Diagram(
        "stray",
        (Component("a", FRAMED, 0, edges=("e1", "e2")), Component("f", FRAMED, 0, edges=("f1",))),
        (Crossing("x", 1, edges=("e9", "e2", "e3", "e4"), over=0),),
    )
    for read in (
        lambda: pdcode.linking_matrix(d),
        lambda: pdcode.linking_number(d, "a", "f"),
        lambda: handlebody.boundary_H1(handlebody.Handlebody(d)),
    ):
        with pytest.raises(pdcode.DiagramError, match="crossing x: unknown edge 'e9'"):
            read()


@pytest.mark.parametrize("halftwists", [0, 1, 3, -2])
def test_expansion_refuses_a_box_on_undeclared_edges(halftwists):
    from kirby import grouppres

    bare = Diagram("bare", boxes=(
        TwistBox("B", halftwists, (BoxStrand("p", "q"), BoxStrand("r", "s"))),
    ))
    one_strand = Diagram("one", boxes=(TwistBox("B", halftwists, (BoxStrand("p", "q"),)),))
    half_declared = Diagram(
        "half",
        (Component("k", FRAMED, 0, edges=("k1", "k2")),),
        boxes=(TwistBox("B", halftwists, (BoxStrand("k1", "k2"), BoxStrand("k2", "p"))),),
    )
    for d in (bare, one_strand, half_declared):
        assert "box B: unknown edge 'p'" in pdcode.validate(d)
        for read in (pdcode.expand_twistboxes, grouppres.wirtinger):
            with pytest.raises(pdcode.DiagramError, match="^box B: unknown edge 'p'$"):
                read(d)


def torus_knot(halftwists=5):
    return Diagram(
        "torus",
        (Component("K", FRAMED, 0, edges=("k1", "k2", "k3", "k4")),),
        boxes=(TwistBox("T", halftwists, (BoxStrand("k1", "k2"), BoxStrand("k3", "k4"))),),
    )


def sweep_diagrams():
    return (hopf(), pdcode.expand_twistboxes(torus_knot()), three_strand_braid())


def test_r1_insert_on_every_edge_validates():
    # the kink's exit edge takes the cut edge's head slot
    for d in sweep_diagrams():
        lk = pdcode.linking_matrix(d)
        for e in d.edge_owner():
            for sign in (1, -1):
                kinked = pdcode.r1_insert(d, e, sign)
                assert pdcode.validate(kinked) == [], (d.name, e, sign)
                assert pdcode.linking_matrix(kinked) == lk
                kink = kinked.crossings[-1].id
                assert pdcode.r1_remove(kinked, kink) == pdcode.normalize(d), (d.name, e, sign)


def test_accepted_r2_inserts_validate():
    # every ordered pair of edges on a common face is a legal site, and
    # r2_remove cancels the two new crossings again, up to the name the
    # fused edge keeps
    sites = exact = 0
    for d in sweep_diagrams():
        lk = pdcode.linking_matrix(d)
        old, dn = {x.id for x in d.crossings}, pdcode.normalize(d)
        for e, f in itertools.permutations(d.edge_owner(), 2):
            if not pdcode._share_face(dn, e, f):
                with pytest.raises(pdcode.MoveError):
                    pdcode.r2_insert(d, e, f)
                continue
            sites += 1
            poked = pdcode.r2_insert(d, e, f)
            assert pdcode.validate(poked) == [], (d.name, e, f)
            assert pdcode.linking_matrix(poked) == lk
            new = [x.id for x in poked.crossings if x.id not in old]
            assert len(new) == 2
            back = pdcode.r2_remove(poked, *new)
            assert pdcode.validate(back) == [], (d.name, e, f)
            assert pdcode.linking_matrix(back) == lk
            if back == dn:
                exact += 1
                continue
            ((kept,), (lost,)) = (
                set(x.edge_owner()) - set(y.edge_owner()) for x, y in ((back, dn), (dn, back))
            )
            assert _rename_edge(back, kept, lost) == dn, (d.name, e, f)
    assert (sites, exact) == (78, 48)


def test_box_rotation_follows_box_layout():
    # the pre-layout arithmetic: lefts top to bottom, then the rights bottom
    # to top, with the rows on the right reversed by an odd twist count
    for k in range(1, 5):
        for t in range(-3, 5):
            strands = tuple(BoxStrand(f"l{r}", f"r{r}", 1 if r % 2 else -1) for r in range(k))
            b = TwistBox("B", t, strands)
            rights = [s.right for s in strands]
            right_order = list(reversed(rights)) if t % 2 else rights
            rotation, pairings = pdcode._collect_pairings(Diagram("box", boxes=(b,)))
            assert rotation["B"] == [s.left for s in strands] + list(reversed(right_order))
            layout = pdcode._box_layout(b)
            assert rotation["B"] == [getattr(strands[row], side) for row, side in layout]
            for row, s in enumerate(strands):
                ((_, r, slot_l, slot_r, _),) = pairings[frozenset((s.left, s.right))]
                assert (r, slot_l, slot_r) == (row, row, k + (row if t % 2 else k - 1 - row))


def test_weld_ends_have_no_slot():
    # k2 -> k4 and k3 -> k1 meet at no vertex: the resolver leaves those
    # ends unset instead of refusing the diagram
    d = clasp(3)
    inc = pdcode.resolve_incidence(d)
    assert inc.ends["e2"][1] is None and inc.ends["e4"][0] is None
    assert inc.ends["e3"][1] is None and inc.ends["e1"][0] is None
    assert inc.ends["e1"][1] == ("B", 0)
    assert "a1" not in pdcode.resolve_incidence(unknot()).ends
    # a vertex strand that no cycle runs through still raises
    bad = Diagram(
        "bad",
        (Component("a", FRAMED, 0, edges=("a1", "a2")),),
        crossings=(Crossing("x", 1, edges=("a1", "a3", "a2", "a4"), over=0),),
    )
    with pytest.raises(pdcode.DiagramError, match="unused vertex pairings"):
        pdcode.resolve_incidence(bad)


def test_fusing_keeps_diagrams_valid():
    from kirby import corpus, grouppres
    from kirby.pdcode import _pass_words

    diagrams = [d for d in corpus.load_document().diagrams.values() if not pdcode.validate(d)]
    diagrams += [clasp(t) for t in range(4)]
    for d in diagrams:
        n = pdcode.normalize(d)
        assert pdcode.validate(n) == [], d.name
        assert _pass_words(n) == _pass_words(d), d.name
        assert pdcode.validate(pdcode.expand_twistboxes(d)) == [], d.name
    assert pdcode.expand_twistboxes(clasp(0)).components[0].edges == ("e1",)
    assert grouppres.wirtinger(clasp(0)).generators == ("ge1",)


def test_fuse_renumbers_passes_along_the_cycle():
    # e3 -> e1 is a weld across the end of the cycle, so e3's passes come
    # first on the joined edge
    d = replace(clasp(3), components=clasp(3).components + (
        Component("m", DOTTED, through=(Pass("e1", 1, 0), Pass("e3", -1, 0), Pass("e1", 1, 1))),
    ))
    n = pdcode.normalize(d)
    assert n.component("k").edges == ("e1", "e2")
    assert n.component("m").through == (Pass("e1", 1, 1), Pass("e1", -1, 0), Pass("e1", 1, 2))


def test_move_refusals_name_the_site():
    abstract = Crossing("y", 1, between=("a", "b"), count=2)
    kinked = pdcode.r1_insert(unknot(), "a1", 1)
    poked = pdcode.r2_insert(Diagram("two", (
        Component("a", FRAMED, 0, edges=("a1",)), Component("b", FRAMED, 0, edges=("b1",)),
    )), "a1", "b1")
    braid = three_strand_braid()

    def threaded(d):
        # a dotted circle through every edge of d
        edges = sorted(d.edge_owner())
        m = Component("m", DOTTED, through=tuple(Pass(e, 1, 0) for e in edges))
        return replace(d, components=d.components + (m,))

    def with_abstract(d):
        return replace(d, crossings=d.crossings + (abstract,))

    (kink,) = (x.id for x in kinked.crossings)
    x1, x2 = (x.id for x in poked.crossings)
    cases = [
        (lambda: pdcode.r1_remove(with_abstract(hopf()), "y"), "crossing y is abstract"),
        (lambda: pdcode.r2_remove(with_abstract(hopf()), "x1", "y"), "crossing y is abstract"),
        (lambda: pdcode.r3(with_abstract(braid), "Xx0", "y", "Xx2"), "crossing y is abstract"),
        (lambda: pdcode.r1_remove(threaded(kinked), kink),
         r"kink loop \w+ passes through round component m"),
        (lambda: pdcode.r2_remove(threaded(poked), x1, x2),
         "bigon edges pass through round component m"),
        (lambda: pdcode.r3(threaded(braid), "Xx0", "Xx1", "Xx2"),
         "triangle edges pass through round component m"),
    ]
    for move, match in cases:
        with pytest.raises(pdcode.MoveError, match=match):
            move()


def _rename_edge(d: Diagram, old: str, new: str) -> Diagram:
    """Rename edge ``old`` to ``new``; records that do not name it are kept."""

    def fix(e):
        return new if e == old else e

    comps = tuple(
        replace(
            c,
            edges=tuple(map(fix, c.edges)),
            through=tuple(replace(p, edge=new) if p.edge == old else p for p in c.through),
        )
        if old in c.edges or any(p.edge == old for p in c.through) else c
        for c in d.components
    )
    crossings = tuple(
        replace(x, edges=tuple(map(fix, x.edges))) if x.is_geometric and old in x.edges else x
        for x in d.crossings
    )
    boxes = tuple(
        replace(
            b,
            strands=tuple(
                replace(s, left=fix(s.left), right=fix(s.right)) for s in b.strands
            ),
        )
        if any(old in (s.left, s.right) for s in b.strands) else b
        for b in d.boxes
    )
    return Diagram(d.name, comps, crossings, boxes)


def spliced_expansion(d: Diagram) -> Diagram:
    """Twist-box expansion by splicing fresh edges into the cycles and then
    renaming each strand's last one to its right edge: the reference that
    ``expand_twistboxes`` must reproduce name for name."""
    d = pdcode.normalize(d)
    while d.boxes:
        d = _spliced_box(d, d.boxes[0])
    return d


def _spliced_box(d: Diagram, b: TwistBox) -> Diagram:
    k = len(b.strands)
    t = b.halftwists
    if t == 0 or k < 2:
        for row in range(k):
            s = d.box(b.id).strands[row]
            if s.left != s.right:
                d = pdcode._fuse(d, s.left, s.right)
        return replace(d, boxes=tuple(x for x in d.boxes if x.id != b.id))
    d = replace(d, boxes=tuple(x for x in d.boxes if x.id != b.id))

    rows = list(range(k))
    cur = [s.left for s in b.strands]
    sign_dir = 1 if t > 0 else -1
    new_crossings: list[Crossing] = []
    inserts: dict[int, list[str]] = {i: [] for i in range(k)}

    counter = itertools.count()
    fresh = d.fresh_edges(abs(t) * k * (k - 1))

    def make_crossing(i):
        nw, sw = cur[i], cur[i + 1]
        se = fresh[next(counter)]
        ne = fresh[next(counter)]
        top_strand, bottom_strand = rows[i], rows[i + 1]
        over = 1 if sign_dir > 0 else 0
        or_top = b.strands[top_strand].orient
        or_bot = b.strands[bottom_strand].orient
        x = Crossing(
            id=f"{b.id}x{len(new_crossings)}",
            sign=sign_dir * or_top * or_bot,
            edges=(nw, sw, se, ne),
            over=over,
        )
        new_crossings.append(x)
        inserts[top_strand].append(se)
        inserts[bottom_strand].append(ne)
        cur[i], cur[i + 1] = ne, se
        rows[i], rows[i + 1] = bottom_strand, top_strand

    for _ in range(abs(t)):
        for start in range(1, k):
            for i in range(start - 1, -1, -1):
                make_crossing(i)

    d2 = replace(d, crossings=d.crossings + tuple(new_crossings))
    comps = []
    for c in d2.components:
        if c.is_round or not any(s.left in c.edges for s in b.strands):
            comps.append(c)
            continue
        edges = list(c.edges)
        for sidx, s in enumerate(b.strands):
            if s.left not in edges:
                continue
            chain = inserts[sidx][:-1]
            if s.orient == -1:
                pos = edges.index(s.right)
                edges[pos + 1 : pos + 1] = list(reversed(chain))
            else:
                pos = edges.index(s.left)
                edges[pos + 1 : pos + 1] = chain
        comps.append(replace(c, edges=tuple(edges)))
    d2 = replace(d2, components=tuple(comps))
    for sidx, s in enumerate(b.strands):
        d2 = _rename_edge(d2, inserts[sidx][-1], s.right)
    return d2


def expansion_subjects() -> list[Diagram]:
    """The corpus, the sweep diagrams, clasps, T(2,q) for odd |q| <= 21,
    and 1-4-strand boxes with every orientation pattern and -3..4 half
    twists, bare and with each strand closed into its own component."""
    from kirby import corpus

    subjects = list(corpus.load_document().diagrams.values()) + list(sweep_diagrams())
    subjects += [clasp(t) for t in range(4)]
    subjects += [torus_knot(q) for q in range(-21, 22, 2)]
    for k in range(1, 5):
        for t in range(-3, 5):
            for orients in itertools.product((1, -1), repeat=k):
                strands = tuple(
                    BoxStrand(f"l{r}", f"r{r}", o) for r, o in enumerate(orients)
                )
                closed = tuple(
                    Component(f"c{r}", FRAMED, 0, edges=(s.left, s.right)[:: s.orient])
                    for r, s in enumerate(strands)
                )
                box = TwistBox("B", t, strands)
                subjects += [Diagram("box", boxes=(box,)), Diagram("closed", closed, boxes=(box,))]
    return subjects


def outcome(f, *args):
    """f(*args), or the type and message of the error it raises."""
    try:
        return f(*args)
    except Exception as err:
        return type(err), str(err)


def undeclared_box_edge(d: Diagram) -> tuple[str, str] | None:
    """(box id, edge) of the first box strand edge that no component
    declares, or None."""
    owner = d.edge_owner()
    return next(
        (
            (b.id, e)
            for b in d.boxes for s in b.strands for e in (s.left, s.right)
            if e not in owner
        ),
        None,
    )


def test_expansion_matches_splicing_reference():
    subjects = expansion_subjects()
    for d in subjects:
        got = outcome(pdcode.expand_twistboxes, d)
        stray = undeclared_box_edge(d)
        if stray is None:
            assert got == outcome(spliced_expansion, d), d.name
        else:
            # refused before the box is expanded or dissolved
            assert got == (pdcode.DiagramError, "box {}: unknown edge {!r}".format(*stray)), d.name
    # most of them are genuine boxed diagrams, not refusals on both sides
    assert sum(not pdcode.validate(d) and bool(d.boxes) for d in subjects) > 100


def random_words_input(rng):
    """Components of all three kinds in shuffled id order, a pass word over
    the dotted circles for every framed component, and linking numbers for
    a random subset of the pairs."""
    ids = rng.sample([f"c{i}" for i in range(8)], rng.randint(1, 6))
    comps = []
    for cid in ids:
        kind = rng.choice((FRAMED, FRAMED, DOTTED, pdcode.PLAIN))
        comps.append((cid, kind, rng.randint(-3, 3) if kind == FRAMED else None))
    dots = [cid for cid, kind, _ in comps if kind == DOTTED]
    words = {
        cid: [(rng.choice(dots), rng.choice((1, -1))) for _ in range(rng.randint(0, 4) if dots else 0)]
        for cid, kind, _ in comps if kind == FRAMED
    }
    linking = {
        pair: rng.randint(-3, 3)
        for pair in itertools.combinations(sorted(ids), 2) if rng.random() < 0.7
    }
    return comps, words, linking


def test_from_words_round_trips_through_its_readers():
    rng = random.Random(17)
    for trial in range(3000):
        comps, words, linking = random_words_input(rng)
        d = pdcode._from_words(f"W{trial}", comps, words, linking)
        assert pdcode.validate(d) == [], trial
        assert pdcode._pass_words(d) == words, trial
        ids = [cid for cid, _, _ in comps]
        share = {}  # a pair left out of ``linking`` is linked by its passes alone
        for fid, word in words.items():
            for dot, s in word:
                pair = tuple(sorted((fid, dot)))
                share[pair] = share.get(pair, 0) + s
        q = pdcode.linking_matrix(d)
        for i, (a, kind, framing) in enumerate(comps):
            assert q[i][i] == (framing if kind == FRAMED else 0), trial
            for j in range(i + 1, len(comps)):
                pair = tuple(sorted((a, ids[j])))
                assert q[i][j] == linking.get(pair, share.get(pair, 0)), (trial, pair)
