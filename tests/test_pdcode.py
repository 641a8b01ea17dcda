"""Framed-link diagram structure, validation, and Reidemeister moves."""

import contextlib
import itertools
import random
import re
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

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


def test_validate_derives_each_handedness_once(monkeypatch):
    """The resolution hands its sign faults on, so ``validate`` reads the
    handedness of each of the 801 crossings of expanded T(2,801) once."""
    k = Component("K", FRAMED, 0, edges=("k1", "k2", "k3", "k4"))
    box = TwistBox("T", 801, (BoxStrand("k1", "k2", 1), BoxStrand("k3", "k4", 1)))
    d = pdcode.expand_twistboxes(Diagram("T", (k,), boxes=(box,)))
    derived_sign = pdcode.derived_sign
    calls = []

    def counted(d, inc, x):
        calls.append(x.id)
        return derived_sign(d, inc, x)

    monkeypatch.setattr(pdcode, "derived_sign", counted)
    assert pdcode.validate(d) == []
    assert len(d.crossings) == len(calls) == 801


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
        # a strand that uses one edge twice: the slot counts are read first
        (
            Diagram("d", (Component("a", FRAMED, 0, edges=("a1", "a2")),),
                    (Crossing("x", 1, edges=("a1", "a2", "a1", "a2"), over=0),)),
            "edge a1: appears 4 times at vertices (expected 2)",
        ),
        (
            Diagram("d", (Component("a", FRAMED, 0, edges=("a1",)),
                          Component("b", FRAMED, 0, edges=("b1",))),
                    (Crossing("x", 1, edges=("a1", "b1", "a1", "b1"), over=0),)),
            "crossing x: strand uses one edge twice",
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
        *[
            replace(h, crossings=(replace(h.crossings[0], edges=edges), h.crossings[1]))
            for edges in (("a1", "b1", "a2"), (), ("a1",) * 5, ["a1", "b1", "a2", "b2"])
        ],
    ):
        (fault,) = pdcode.validate(d)
        with pytest.raises(pdcode.DiagramError, match=re.escape(fault)):
            pdcode.expand_twistboxes(d)
        with pytest.raises(pdcode.DiagramError, match=re.escape(fault)):
            grouppres.wirtinger(d)
    # normalize reads a box of any halftwists: welds do not depend on it
    n = pdcode.normalize(c)
    mistyped = replace(c, boxes=(replace(c.boxes[0], halftwists="x"),))
    assert pdcode.normalize(mistyped) == replace(n, boxes=(replace(n.boxes[0], halftwists="x"),))


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

    # every slot is looked up, the first unknown edge in slot order named
    comps = (
        Component("a", FRAMED, 0, edges=("e1", "e2")), Component("f", FRAMED, 0, edges=("f1",)),
    )
    for edges, stray in (
        (("e9", "e2", "e3", "e4"), "e9"),
        (("e1", "f1", "e9", "f1"), "e9"),
        (("e1", "f1", "e2", "e8"), "e8"),
    ):
        d = Diagram("stray", comps, (Crossing("x", 1, edges=edges, over=0),))
        message = f"crossing x: unknown edge {stray!r}"
        assert message in pdcode.validate(d)
        for read in (
            lambda: pdcode.linking_matrix(d),
            lambda: pdcode.linking_number(d, "a", "f"),
            lambda: handlebody.boundary_H1(handlebody.Handlebody(d)),
            lambda: pdcode.reverse_orientation(d, "a"),
        ):
            with pytest.raises(pdcode.DiagramError, match=f"^{message}$"):
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
            if not share_face(dn, e, f):
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


def share_face(dn: Diagram, e: str, f: str) -> bool:
    """Whether edges e and f of the normalized diagram dn bound a common
    face; a free loop shares one with every edge."""
    inc = pdcode.resolve_incidence(dn)
    if e not in inc.ends or f not in inc.ends:
        return True
    return any({e, f} <= {dart[0] for dart in face} for face in pdcode.trace_faces(inc))


def r2_insert_by_trial(d: Diagram, over_edge: str, under_edge: str) -> Diagram:
    """R2 insertion that tries four planar layouts in turn and keeps the
    first that validates: the reference whose choice ``pdcode.r2_insert``
    must reproduce from the shared face."""
    owner = d.edge_owner()
    for e in (over_edge, under_edge):
        if e not in owner:
            raise pdcode.MoveError(f"no edge {e!r}")
    if over_edge == under_edge:
        raise pdcode.MoveError("R2 needs two distinct edges")
    dn = pdcode.normalize(d)
    if over_edge not in dn.edge_owner() or under_edge not in dn.edge_owner():
        raise pdcode.MoveError("site edges vanish under normalization")
    if not share_face(dn, over_edge, under_edge):
        raise pdcode.MoveError(f"edges {over_edge},{under_edge} do not share a face")
    em, e2, fm, f2 = dn.fresh_edges(4)
    base = pdcode._split_edges(dn, pdcode.resolve_incidence(dn), {
        over_edge: [over_edge, em, e2], under_edge: [under_edge, fm, f2],
    })
    x1id, x2id = base.fresh_id("r2a_"), base.fresh_id("r2b_")
    # the first crossing on the under pieces (under_edge, fm) or on
    # (fm, f2), each with both relative directions of the strands
    layouts = [
        (
            Crossing(x1id, 1, edges=(over_edge, under_edge, em, fm), over=0),
            Crossing(x2id, 1, edges=(em, f2, e2, fm), over=0),
        ),
        (
            Crossing(x1id, 1, edges=(over_edge, fm, em, under_edge), over=0),
            Crossing(x2id, 1, edges=(em, fm, e2, f2), over=0),
        ),
        (
            Crossing(x1id, 1, edges=(over_edge, fm, em, f2), over=0),
            Crossing(x2id, 1, edges=(em, fm, e2, under_edge), over=0),
        ),
        (
            Crossing(x1id, 1, edges=(over_edge, f2, em, fm), over=0),
            Crossing(x2id, 1, edges=(em, under_edge, e2, fm), over=0),
        ),
    ]
    last_err = None
    for pair in layouts:
        cand = replace(base, crossings=base.crossings + pair)
        try:
            cand = with_derived_signs(pdcode.normalize(cand), {x1id, x2id})
        except pdcode.DiagramError as err:
            last_err = err
            continue
        if not pdcode.validate(cand):
            return cand
    raise pdcode.MoveError(f"no planar R2 layout at ({over_edge},{under_edge}): {last_err}")


def with_derived_signs(d: Diagram, ids: set[str]) -> Diagram:
    """d with the crossings ``ids`` signed by their planar handedness."""
    inc = pdcode.resolve_incidence(d)
    crossings = tuple(
        replace(x, sign=pdcode.derived_sign(d, inc, x)) if x.id in ids else x
        for x in d.crossings
    )
    return replace(d, crossings=crossings)


def r2_subjects() -> list[Diagram]:
    """The sweep diagrams, diagrams with free loops, the corpus diagrams
    that validate once expanded and have edges, and a seeded variant of
    each sweep and corpus diagram with two R1 kinks added."""
    from kirby import corpus

    two = Diagram("two", (
        Component("a", FRAMED, 0, edges=("a1",)), Component("b", FRAMED, 0, edges=("b1",)),
    ))
    loop = Component("c", FRAMED, 1, edges=("c1",))
    expanded = [pdcode.expand_twistboxes(d) for d in corpus.load_document().diagrams.values()]
    expanded = [d for d in expanded if d.edge_owner() and not pdcode.validate(d)]
    rng = random.Random(5)
    kinked = []
    for d in list(sweep_diagrams()) + expanded:
        for _ in range(2):
            d = pdcode.r1_insert(d, rng.choice(sorted(d.edge_owner())), rng.choice((1, -1)))
        kinked.append(d)
    free = [
        two,
        replace(hopf(), components=hopf().components + (loop,)),
        replace(three_strand_braid(), components=three_strand_braid().components + (loop,)),
    ]
    return list(sweep_diagrams()) + free + expanded + kinked


def test_r2_layout_from_the_face_matches_the_trial_reference():
    sites = refused = 0
    for d in r2_subjects():
        assert pdcode.validate(d) == [], d.name
        for e, f in itertools.permutations(d.edge_owner(), 2):
            got = outcome(pdcode.r2_insert, d, e, f)
            assert got == outcome(r2_insert_by_trial, d, e, f), (d.name, e, f)
            if isinstance(got, Diagram):
                sites += 1
            else:
                assert got[0] is pdcode.MoveError, (d.name, e, f)
                refused += 1
    assert sites >= 2000 and refused >= 1000, (sites, refused)


def test_r2_insert_refuses_an_invalid_diagram():
    bad = replace(hopf(), crossings=(replace(hopf().crossings[0], sign=-1), hopf().crossings[1]))
    with pytest.raises(pdcode.MoveError, match="R2 on an invalid diagram: crossing x1: declared"):
        pdcode.r2_insert(bad, "a1", "b1")


def test_box_rotation_follows_box_layout():
    # the pre-layout arithmetic: lefts top to bottom, then the rights bottom
    # to top, with the rows on the right reversed by an odd twist count
    for k in range(1, 5):
        for t in range(-3, 5):
            strands = tuple(BoxStrand(f"l{r}", f"r{r}", 1 if r % 2 else -1) for r in range(k))
            b = TwistBox("B", t, strands)
            rights = [s.right for s in strands]
            right_order = list(reversed(rights)) if t % 2 else rights
            rotation, pairings, _, _ = pdcode._collect_pairings(Diagram("box", boxes=(b,)))
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


def normalize_by_welds(d: Diagram) -> Diagram:
    """Weld-at-a-time normalization, reading the slots again after every
    fuse: the reference for ``pdcode.normalize``.  The least welded pair of
    the first component that has one is fused onto its lesser name."""
    while True:
        pairings = pdcode._collect_pairings(d).pairings
        weld = None
        for c in d.components:
            if c.is_round or len(c.edges) < 2:
                continue
            n = len(c.edges)
            needed: dict[frozenset, int] = {}
            for i in range(n):
                key = frozenset((c.edges[i], c.edges[(i + 1) % n]))
                if len(key) == 2:
                    needed[key] = needed.get(key, 0) + 1
            for key in sorted(needed, key=sorted):
                if needed[key] > len(pairings.get(key, ())):
                    weld = sorted(key)
                    break
            if weld:
                break
        if weld is None:
            return d
        d = fuse_pair(d, *weld)


def fuse_pair(d: Diagram, keep: str, drop: str) -> Diagram:
    """Join edge ``drop`` onto its neighbour ``keep`` in their component
    cycle: drop it from the cycle and rename it everywhere.  The passes on
    the joined edge are renumbered in their order along the cycle: those of
    whichever edge comes first, then the other's, each by its old key."""
    comps = list(pdcode._recut(d, {drop: ()}))
    joined = [
        (ci, pi, p)
        for ci, c in enumerate(d.components)
        for pi, p in enumerate(c.through)
        if p.edge == keep or p.edge == drop
    ]
    if joined:
        edges = next(c.edges for c in d.components if keep in c.edges)
        n, i, j = len(edges), edges.index(keep), edges.index(drop)
        first = edges[min(i, j) if n == 2 else (i if (i + 1) % n == j else j)]
        joined.sort(key=lambda t: (t[2].edge != first, t[2].seq))
        through = {ci: list(comps[ci].through) for ci, _, _ in joined}
        for k, (ci, pi, p) in enumerate(joined):
            through[ci][pi] = replace(p, edge=keep, seq=k)
        for ci, passes in through.items():
            comps[ci] = replace(comps[ci], through=tuple(passes))
    return _rename_edge(replace(d, components=tuple(comps)), drop, keep)


def spliced_expansion(d: Diagram) -> Diagram:
    """Twist-box expansion by splicing fresh edges into the cycles and then
    renaming each strand's last one to its right edge: the reference that
    ``expand_twistboxes`` must reproduce name for name."""
    d = normalize_by_welds(d)
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
                d = fuse_pair(d, s.left, s.right)
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


def fuse_in_turn(d: Diagram, joins) -> Diagram:
    """The joins (keep, drop) of ``pdcode._fuse`` made one ``fuse_pair`` at
    a time, each under the names the earlier ones left: the reference for
    ``_fuse`` as a twist box dissolves."""
    renamed: dict[str, str] = {}

    def now(e):
        while e in renamed:
            e = renamed[e]
        return e

    for keep, drop in joins:
        keep, drop = now(keep), now(drop)
        if keep != drop:
            d = fuse_pair(d, keep, drop)
            renamed[drop] = keep
    return d


@contextlib.contextmanager
def weld_at_a_time():
    """Every normalization in pdcode and grouppres, the planar record's
    included, runs ``normalize_by_welds``, and a dissolving box fuses its
    strands one at a time."""
    def planar(d):
        n = normalize_by_welds(d)
        return pdcode._Planar(n, pdcode._collect_pairings(n))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pdcode, "normalize", normalize_by_welds)
        mp.setattr(pdcode, "_planar", planar)
        mp.setattr(pdcode, "_fuse", fuse_in_turn)
        yield


READERS = (
    lambda d: pdcode.normalize(d),
    lambda d: pdcode.validate(d),
    lambda d: pdcode.expand_twistboxes(d),
    lambda d: str(grouppres.wirtinger(d)),
)


def agrees_with_fusing_a_weld_at_a_time(d: Diagram) -> bool:
    got = [outcome(read, d) for read in READERS]
    with weld_at_a_time():
        return got == [outcome(read, d) for read in READERS]


def test_one_pass_fusing_matches_the_weld_at_a_time_reference():
    m = Component("m", DOTTED, through=(
        Pass("e1", 1, 0), Pass("e3", -1, 0), Pass("e2", 1, 0), Pass("e4", -1, 1), Pass("e4", 1, 0),
    ))
    dotted = [replace(clasp(t), components=clasp(t).components + (m,)) for t in range(4)]
    subjects = expansion_subjects() + r2_subjects() + dotted
    assert (len(subjects), len(r2_subjects())) == (635, 83)
    for d in subjects:
        assert agrees_with_fusing_a_weld_at_a_time(d), d.name
    # e3's pass comes before e1's on the joined e1, and e2's before e4's
    assert pdcode.normalize(dotted[3]).component("m").through == (
        Pass("e1", 1, 1), Pass("e1", -1, 0), Pass("e2", 1, 0), Pass("e2", -1, 2), Pass("e2", 1, 1),
    )


@st.composite
def welded_cycles(draw):
    """One or two framed cycles cut into runs of 1-50 edges that meet no
    vertex, the runs joined through the strands of one twist box (a cycle
    with no strand, or with one, is a single run), each cycle listed from a
    random edge so that runs wrap across its end, and two dotted circles
    passing the edges under keys in random order.  Edge names are random,
    so the least and the greatest name of a run sit anywhere in it."""
    rng = draw(st.randoms(use_true_random=False))
    names = (f"e{i}" for i in rng.sample(range(10000), 400))
    comps, strands = [], []
    for ci in range(draw(st.integers(1, 2))):
        vertices = draw(st.integers(0, 3))
        runs = [
            [next(names) for _ in range(n)]
            for n in draw(st.lists(st.integers(1, 50), min_size=max(vertices, 1),
                                   max_size=max(vertices, 1)))
        ]
        if vertices:
            strands += [BoxStrand(a[-1], b[0]) for a, b in zip(runs, runs[1:] + runs[:1])]
        edges = [e for run in runs for e in run]
        shift = draw(st.integers(0, len(edges) - 1))
        comps.append(Component(f"k{ci}", FRAMED, 0, edges=tuple(edges[shift:] + edges[:shift])))
    passes: list[list[Pass]] = [[], []]
    for e in (e for c in comps for e in c.edges):
        for seq in rng.sample(range(9), rng.choice((0, 0, 1, 2))):
            passes[rng.randrange(2)].append(Pass(e, rng.choice((1, -1)), seq))
    for i, through in enumerate(passes):
        rng.shuffle(through)
        comps.append(Component(f"m{i}", DOTTED, through=tuple(through)))
    boxes = (TwistBox("B", draw(st.integers(0, 3)), tuple(strands)),) if strands else ()
    return Diagram("welded", tuple(comps), boxes=boxes)


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(welded_cycles())
def test_one_pass_fusing_matches_the_reference_on_welded_cycles(d):
    assert agrees_with_fusing_a_weld_at_a_time(d)


def lines_run(f, *args) -> int:
    """The lines of pdcode that f(*args) runs, counted by a tracer: a
    measure of work that does not depend on the machine."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        if frame.f_code.co_filename != pdcode.__file__:
            return None
        count += event == "line"
        return trace

    before = sys.gettrace()
    sys.settrace(trace)
    try:
        f(*args)
    finally:
        sys.settrace(before)
    return count


def test_fresh_edges_tries_at_most_one_name_per_edge_or_answer():
    # on m edges w0, w2, ..., fresh_edges(m) tries 2m names from one
    # counter; starting again from w0 for every name tries about m * m
    for m in (100, 200):
        d = Diagram("d", (Component("a", FRAMED, 0, edges=tuple(f"w{2 * i}" for i in range(m))),))
        assert d.fresh_edges(m) == [f"w{2 * i + 1}" for i in range(m)]
        assert lines_run(d.fresh_edges, m) <= 3 * (m + m), m


def hopf_links(m: int, virtual_at: int | None = None) -> Diagram:
    """m split Hopf links, the one at ``virtual_at`` replaced by a
    two-crossing diagram that is no sphere."""
    comps, crossings = [], []
    for i in range(m):
        a, b = (f"{c}{i}" for c in "ab")
        if i == virtual_at:
            edges = tuple(f"{a}e{k}" for k in range(1, 5))
            comps.append(Component(a, FRAMED, 0, edges=edges))
            crossings += [
                Crossing(f"x{i}", 1, edges=tuple(edges[k] for k in (0, 1, 3, 2)), over=0),
                Crossing(f"y{i}", -1, edges=tuple(edges[k] for k in (0, 2, 1, 3)), over=0),
            ]
            continue
        comps += [Component(c, FRAMED, 0, edges=(f"{c}1", f"{c}2")) for c in (a, b)]
        crossings += [
            Crossing(f"x{i}", 1, edges=(f"{a}1", f"{b}1", f"{a}2", f"{b}2"), over=1),
            Crossing(f"y{i}", 1, edges=(f"{b}2", f"{a}2", f"{b}1", f"{a}1"), over=1),
        ]
    return Diagram("hopfs", tuple(comps), tuple(crossings))


def test_planarity_is_counted_in_one_pass_over_the_pieces():
    assert pdcode.validate(hopf_links(5, virtual_at=2)) == [
        "nonplanar piece at vertices ['x2', 'y2']: V-E+F = 0"
    ]
    # per piece, a re-sum over every edge and face grows with m * m
    small, large = (lines_run(pdcode.validate, hopf_links(m)) for m in (100, 200))
    assert large < 2.5 * small, (small, large)


def welded_unknot(k: int) -> Diagram:
    return Diagram("u", (Component("a", FRAMED, 0, edges=tuple(f"a{i}" for i in range(k))),))


def counting(monkeypatch, *names) -> dict[str, int]:
    """Calls of the pdcode functions ``names`` from now on.  Of
    ``_resolve_once`` only the first attempt of a resolution counts, the
    one under no pool orders; the retries under other orders do not."""
    calls = dict.fromkeys(names, 0)

    def counted(name, f):
        def call(*args):
            calls[name] += name != "_resolve_once" or not args[3]
            return f(*args)
        return call

    for name in names:
        monkeypatch.setattr(pdcode, name, counted(name, getattr(pdcode, name)))
    return calls


def test_validate_reads_one_planar_record(monkeypatch):
    calls = counting(monkeypatch, "_collect_pairings", "_resolve_once", "trace_faces")
    assert pdcode.validate(hopf()) == []
    assert calls == {"_collect_pairings": 1, "_resolve_once": 1, "trace_faces": 1}
    for d in (clasp(3), welded_unknot(800)):
        calls.update(dict.fromkeys(calls, 0))
        assert pdcode.validate(d) == []
        assert calls["_collect_pairings"] <= 2, d.name


def test_r2_insert_resolves_its_input_once(monkeypatch):
    # the validation, the face lookup and the edge split read one record;
    # the signs of the new pair come from its layout, not from a resolution
    calls = counting(monkeypatch, "_resolve_once")
    loops = replace(welded_unknot(9), components=welded_unknot(9).components + (
        Component("b", FRAMED, 0, edges=("b0", "b1")),
    ))
    for d, e, f in ((hopf(), "a1", "b1"), (clasp(3), "e1", "e2"), (loops, "a0", "b0")):
        calls["_resolve_once"] = 0
        poked = pdcode.r2_insert(d, e, f)
        assert calls["_resolve_once"] == 1, (d.name, e, f)
        assert pdcode.validate(poked) == [], (d.name, e, f)


def test_face_moves_trace_their_input_once(monkeypatch):
    # the gate's planarity check and the R2 layout, bigon and triangle
    # lookups all read the faces of one planar record
    calls = counting(monkeypatch, "trace_faces")
    pushed = pdcode.r2_insert(hopf(), "a1", "b1")
    assert calls["trace_faces"] == 1
    pair = [x.id for x in pushed.crossings if x.id not in {"x1", "x2"}]
    calls["trace_faces"] = 0
    assert pdcode.validate(pdcode.r2_remove(pushed, *pair)) == []
    assert calls["trace_faces"] == 2  # the move's, then validate's own
    calls["trace_faces"] = 0
    pdcode.r3(three_strand_braid(), "Xx0", "Xx1", "Xx2")
    assert calls["trace_faces"] == 1


def test_wirtinger_normalizes_once(monkeypatch):
    calls = counting(monkeypatch, "normalize")
    assert str(grouppres.wirtinger(torus_knot(5))).startswith("<")
    assert calls == {"normalize": 1}


def r3_by_named_slots(d: Diagram, xid1: str, xid2: str, xid3: str) -> Diagram:
    """``pdcode.r3`` as of commit e7e43f4: the eight slots of the triangle
    named one by one, each crossing rewired through its own slot map."""
    p = pdcode._planar(d)
    d, inc = p.diagram, p.inc
    x, y, z = pdcode._geometric(d, xid1, xid2, xid3)

    def joins(e: str) -> frozenset:
        tail, head = inc.ends[e]
        return frozenset((tail[0], head[0]))

    site = None
    for face in pdcode.trace_faces(inc):
        if len(face) != 3:
            continue
        edges = [dart[0] for dart in face]
        if len(set(edges)) != 3:
            continue
        lookup = {joins(e): e for e in edges}
        try:
            site = (
                lookup[frozenset((x.id, y.id))],
                lookup[frozenset((x.id, z.id))],
                lookup[frozenset((y.id, z.id))],
            )
        except KeyError:
            continue
        break
    if site is None:
        raise pdcode.MoveError(f"crossings {xid1},{xid2},{xid3} bound no triangle")
    a_t, b_t, c_t = site
    if (a_t in x.over_pair()) != (a_t in y.over_pair()):
        raise pdcode.MoveError("moving strand is not over (or under) both crossings")
    pdcode._unthreaded(d, (b_t, c_t), "triangle edges pass")

    nb, nc = d.fresh_edges(2)

    def pair_slots(w: Crossing, e: str) -> tuple[int, int]:
        for s in (0, 1):
            if w.edges[s] == e:
                return s, s + 2
            if w.edges[s + 2] == e:
                return s + 2, s
        raise AssertionError

    bx_t, bx_near = pair_slots(x, b_t)
    bz_t, bz_far = pair_slots(z, b_t)
    cy_t, cy_near = pair_slots(y, c_t)
    cz_t, cz_far = pair_slots(z, c_t)
    if bz_t % 2 == cz_t % 2:
        raise pdcode.MoveError("triangle sides meet z on a single strand")
    b_near = x.edges[bx_near]
    b_far = z.edges[bz_far]
    c_near = y.edges[cy_near]
    c_far = z.edges[cz_far]

    ax_t, ax_mate = pair_slots(x, a_t)
    ay_t, ay_mate = pair_slots(y, a_t)
    a_tail_vid = inc.ends[a_t][0][0]
    if a_tail_vid == x.id:
        x_map = {ax_mate: a_t, ax_t: y.edges[ay_mate]}
        y_map = {ay_t: x.edges[ax_mate], ay_mate: a_t}
    elif a_tail_vid == y.id:
        y_map = {ay_mate: a_t, ay_t: x.edges[ax_mate]}
        x_map = {ax_t: y.edges[ay_mate], ax_mate: a_t}
    else:
        raise pdcode.MoveError("moving strand does not run between its crossings")

    def rewire(w: Crossing, slot_map: dict[int, str]) -> Crossing:
        return replace(w, edges=tuple(slot_map.get(i, e) for i, e in enumerate(w.edges)))

    crossings = []
    for w in d.crossings:
        if w.id == x.id:
            w = rewire(w, {bx_t: b_far, bx_near: nb, **x_map})
        elif w.id == y.id:
            w = rewire(w, {cy_t: c_far, cy_near: nc, **y_map})
        elif w.id == z.id:
            w = rewire(w, {bz_t: b_near, bz_far: nb, cz_t: c_near, cz_far: nc})
        crossings.append(w)
    comps = pdcode._recut(d, {b_t: (nb,), c_t: (nc,)})
    return replace(d, components=comps, crossings=tuple(crossings))


def closed_boxes(k: int, halftwists) -> list[Diagram]:
    """Expanded k-strand boxes, each strand closed into its own component,
    in every orientation with the first strand running left to right
    (reversing every strand gives the mirror-image sites again)."""
    subjects = []
    for t in halftwists:
        for orients in itertools.product((1, -1), repeat=k - 1):
            strands = tuple(BoxStrand(f"l{r}", f"r{r}", o) for r, o in enumerate((1, *orients)))
            closed = tuple(
                Component(f"c{r}", FRAMED, 0, edges=(s.left, s.right)[:: s.orient])
                for r, s in enumerate(strands)
            )
            box = TwistBox("B", t, strands)
            subjects.append(pdcode.expand_twistboxes(Diagram(f"box{k}.{t}", closed, boxes=(box,))))
    return subjects


def r3_subjects() -> list[Diagram]:
    """The 3-strand closed boxes of -3..3 half twists, and the expanded
    corpus diagrams that have boxes.  An odd twist links two closed strands
    an odd number of times, so those boxes do not validate, and r3 refuses
    every triple of them at its gate."""
    from kirby import corpus

    subjects = closed_boxes(3, range(-3, 4))
    for _, d in sorted(corpus.load_document().diagrams.items()):
        if d.boxes:
            subjects.append(pdcode.expand_twistboxes(d))
    return subjects


def r3_sites(d: Diagram, sharing: bool = False):
    """Every ordered triple of distinct crossings of d or, with ``sharing``,
    those in which every two crossings share an edge: only they can bound a
    triangle."""
    for site in itertools.permutations([x.id for x in d.crossings], 3):
        edges = [set(d.crossing(xid).edges) for xid in site]
        if not sharing or all(e & f for e, f in itertools.combinations(edges, 2)):
            yield site


def test_r3_matches_the_named_slot_reference_on_every_triple():
    # on an invalid subject the reference does not apply: r3 refuses it
    subjects = [(d, False) for d in r3_subjects()]
    subjects += [(d, True) for d in closed_boxes(4, (-2, 2))]
    moves = refused = 0
    for d, sharing in subjects:
        problems = pdcode.validate(d)
        for site in r3_sites(d, sharing):
            got = outcome(pdcode.r3, d, *site)
            if problems:
                assert got == (pdcode.MoveError, f"R3 on an invalid diagram: {problems[0]}")
            else:
                assert got == outcome(r3_by_named_slots, d, *site), (d.name, site)
            if isinstance(got, Diagram):
                moves += 1
            else:
                assert got[0] is pdcode.MoveError, (d.name, site, got)
                refused += 1
    assert moves >= 150 and refused >= 3000, (moves, refused)


def named_like(d: Diagram, like: Diagram) -> Diagram:
    """d with each edge renamed to the edge at its place in the component
    cycles of ``like``, all at once."""
    pairs = [
        (e, f)
        for c, k in zip(d.components, like.components, strict=True)
        for e, f in zip(c.edges, k.edges, strict=True) if e != f
    ]
    for e, _ in pairs:
        d = _rename_edge(d, e, e + "'")
    for e, f in pairs:
        d = _rename_edge(d, e + "'", f)
    return d


def test_r3_twice_at_the_same_crossings_gives_the_diagram_back():
    # on valid subjects, 4-strand boxes among them
    subjects = [d for d in closed_boxes(4, (-2, 2)) + r3_subjects() if not pdcode.validate(d)]
    moves = 0
    for d in subjects:
        for site in r3_sites(d, sharing=True):
            try:
                out = pdcode.r3(d, *site)
            except pdcode.MoveError:
                continue
            moves += 1
            assert pdcode.validate(out) == [], (d.name, site)
            assert pdcode.linking_matrix(out) == pdcode.linking_matrix(d), (d.name, site)
            back, dn = pdcode.r3(out, *site), pdcode.normalize(d)
            assert named_like(back, dn) == dn, (d.name, site)
    assert moves >= 300, moves


def face_pairs(d: Diagram) -> list[tuple[str, str]]:
    """Every ordered pair of distinct edges on a face of d's planar
    reading, if it has one."""
    try:
        faces = pdcode.trace_faces(pdcode._planar(d).inc)
    except pdcode.DiagramError:
        return []
    return sorted({(e, f) for face in faces for e, _ in face for f, _ in face if e != f})


def poked(d: Diagram) -> Diagram:
    """d with a positive kink on its least edge, then an R2 pair at the
    first pair of face edges that takes one."""
    d = pdcode.r1_insert(d, min(d.edge_owner()), 1)
    for e, f in face_pairs(d):
        with contextlib.suppress(pdcode.MoveError):
            return pdcode.r2_insert(d, e, f)
    return d


def reversed_cycles(poke: bool = False) -> list[Diagram]:
    """Each boxed corpus diagram with its component cycles reversed and its
    box strands kept, so that every box strand runs against its declared
    direction.  With ``poke`` it gets a kink and an R2 pair first, so that
    removal sites remain that pass their site checks."""
    from kirby import corpus

    boxed = [d for _, d in sorted(corpus.load_document().diagrams.items()) if d.boxes]
    return [
        replace(d, name=f"{d.name}.rev",
                components=tuple(replace(c, edges=c.edges[::-1]) for c in d.components))
        for d in (map(poked, boxed) if poke else boxed)
    ]


def test_reversed_box_strands_are_invalid():
    # fused, K_m2's cycle is (k1, k2), which runs through both box strands
    # in either direction; its own cycle runs through each once
    subjects = reversed_cycles()
    assert len(subjects) == 32
    for d in subjects:
        assert "declared orientation contradicts the component cycle" in str(pdcode.validate(d))
    k_m2 = next(d for d in subjects if d.name == "K_m2.rev")
    assert pdcode.validate(k_m2) == [
        f"box T strand {row}: declared orientation contradicts the component cycle"
        for row in (0, 1)
    ]


def move_calls(d: Diagram):
    """(move name, move, site) of R1 insertion at every edge with both
    signs, R1 removal at every crossing, R2 removal at every pair of
    geometric crossings that share two edges, R3 at every triple of them
    that share edges pairwise, and R2 insertion at every pair of face
    edges."""
    geometric = replace(d, crossings=tuple(x for x in d.crossings if x.is_geometric))
    for e in sorted(d.edge_owner()):
        for sign in (1, -1):
            yield "R1", pdcode.r1_insert, (e, sign)
    for x in d.crossings:
        yield "R1", pdcode.r1_remove, (x.id,)
    for x, y in itertools.combinations(geometric.crossings, 2):
        if len(set(x.edges) & set(y.edges)) >= 2:
            yield "R2", pdcode.r2_remove, (x.id, y.id)
    for site in r3_sites(geometric, sharing=True):
        yield "R3", pdcode.r3, site
    for e, f in face_pairs(d):
        yield "R2", pdcode.r2_insert, (e, f)


def test_r_moves_take_valid_diagrams_to_valid_ones_and_refuse_invalid_ones():
    # each call returns a diagram that validates or raises DiagramError; on
    # an invalid input each raises MoveError, the gate's naming the first
    # violation unless a removal's site check, which runs first, refused
    from kirby import corpus

    diagrams = [d for _, d in sorted(corpus.load_document().diagrams.items())]
    subjects = diagrams + [pdcode.expand_twistboxes(d) for d in diagrams if d.boxes]
    subjects += closed_boxes(3, range(-3, 4)) + reversed_cycles() + reversed_cycles(poke=True)
    removals = (pdcode.r1_remove, pdcode.r2_remove)
    applied, gated = 0, dict.fromkeys((pdcode.r1_insert, pdcode.r2_insert, pdcode.r3, *removals), 0)
    for d in subjects:
        problems = pdcode.validate(d)
        for name, move, site in move_calls(d):
            got = outcome(move, d, *site)
            where = (d.name, move.__name__, site, got)
            if isinstance(got, Diagram):
                assert not problems and pdcode.validate(got) == [], where
                applied += 1
            elif not problems:
                assert issubclass(got[0], pdcode.DiagramError), where
            elif got == (pdcode.MoveError, f"{name} on an invalid diagram: {problems[0]}"):
                gated[move] += 1
            else:
                assert got[0] is pdcode.MoveError and move in removals, where
    # every move's gate is seen to refuse
    assert applied >= 1900 and min(gated.values()) >= 15, (applied, gated)
