"""Seeded property tests of the linking store: counted abstract records,
the one-pass linking matrix, and the moves that write them."""

import itertools
from dataclasses import replace

import sympy
from hypothesis import given, settings, strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from kirby import corpus, handlebody, pdcode, script
from kirby.handlebody import Handlebody
from kirby.pdcode import BoxStrand, Component, Crossing, Diagram, DOTTED, FRAMED, Pass, TwistBox

from conftest import model_cancel_pair, model_slide
from test_handlebody import walked_is_connected
from test_pdcode import sweep_diagrams

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def reference_linking_number(d, c1, c2):
    """Per-pair scan in which every crossing record counts once."""
    d.component(c1), d.component(c2)
    return reference_half(d, c1, c2)


def reference_half(d, c1, c2):
    """The per-pair scan of ``reference_linking_number``, in which an id
    that no component carries meets no record."""
    if c1 == c2:
        raise pdcode.DiagramError("self-linking is the framing, not a linking number")
    a, b = (next((c for c in d.components if c.id == cid), None) for cid in (c1, c2))
    owner = d.edge_owner()
    total = 0
    for x in d.crossings:
        if x.is_geometric:
            ca, cb = owner[x.edges[0]], owner[x.edges[1]]
            if {ca, cb} == {c1, c2}:
                total += x.sign
        elif set(x.between) == {c1, c2}:
            total += x.sign
    for box in d.boxes:
        for s1, s2 in itertools.combinations(box.strands, 2):
            if {owner.get(s1.left), owner.get(s2.left)} == {c1, c2}:
                # each strand pair crosses once per half twist
                total += box.halftwists * s1.orient * s2.orient
    if total % 2:
        raise pdcode.DiagramError(f"odd signed crossing sum between {c1} and {c2}")
    lk = total // 2
    for round_c, other in ((a, b), (b, a)):
        if round_c is not None and other is not None and round_c.is_round:
            other_edges = set(other.edges)
            lk += sum(p.sign for p in round_c.through if p.edge in other_edges)
    return lk


def per_pair_linking_matrix(d, comps):
    """The earlier linking matrix: row by row, a component lookup for the
    entry and a per-pair scan for each later entry of the row."""
    n = len(comps)
    q = [[0] * n for _ in range(n)]
    for i, ci in enumerate(comps):
        framing = d.component(ci).framing
        if framing is None:
            framing = 0
        elif type(framing) is not int:
            raise pdcode.DiagramError(f"component {ci}: framing must be an integer")
        q[i][i] = framing
        for j in range(i + 1, n):
            q[i][j] = q[j][i] = reference_half(d, ci, comps[j])
    return q


def outcome(read, *args):
    """What ``read`` returns, or the message of the DiagramError it raises."""
    try:
        return read(*args)
    except pdcode.DiagramError as err:
        return f"DiagramError: {err}"


def unit_records(d):
    """The same diagram with every counted record written as unit records."""
    crossings = []
    for x in d.crossings:
        if x.is_geometric:
            crossings.append(x)
        else:
            crossings.extend(
                Crossing(f"{x.id}.{k}", x.sign, between=x.between) for k in range(x.count)
            )
    return Diagram(d.name, d.components, tuple(crossings), d.boxes)


def abstract_records(d):
    per_pair = {}
    for x in d.crossings:
        if not x.is_geometric:
            key = frozenset(x.between)
            per_pair[key] = per_pair.get(key, 0) + 1
    return per_pair


@st.composite
def diagrams(draw):
    """Framed loops and dotted circles with passes, twist boxes on the loop
    edges, and abstract records both unit and counted; every pair's signed
    crossing total is made even."""
    nf = draw(st.integers(1, 4))
    nd = draw(st.integers(0, 2))
    framed = [f"c{i}" for i in range(nf)]
    dots = [f"m{i}" for i in range(nd)]
    comps = [
        Component(c, FRAMED, draw(st.integers(-3, 3)), edges=(f"{c}.l",)) for c in framed
    ]
    seq = {}
    for m in dots:
        through = []
        for c in draw(st.lists(st.sampled_from(framed), max_size=4)):
            edge = f"{c}.l"
            seq[edge] = seq.get(edge, 0) + 1
            through.append(Pass(edge, draw(st.sampled_from((1, -1))), seq[edge]))
        comps.append(Component(m, DOTTED, through=tuple(through)))
    ids = framed + dots
    pairs = list(itertools.combinations(ids, 2))
    crossings, parity = [], {}
    if pairs:
        for k in range(draw(st.integers(0, 8))):
            a, b = draw(st.sampled_from(pairs))
            count = draw(st.sampled_from((1, 1, 2, 3, 4)))
            between = (a, b) if draw(st.booleans()) else (b, a)
            crossings.append(
                Crossing(f"y{k}", draw(st.sampled_from((1, -1))), between=between, count=count)
            )
            parity[(a, b)] = parity.get((a, b), 0) + count
    boxes = []
    for k in range(draw(st.integers(0, 1)) if nf > 1 else 0):
        a, b = draw(st.lists(st.sampled_from(framed), min_size=2, max_size=2, unique=True))
        twists = draw(st.integers(-3, 3))
        o1, o2 = draw(st.sampled_from((1, -1))), draw(st.sampled_from((1, -1)))
        boxes.append(TwistBox(
            f"B{k}", twists, (BoxStrand(f"{a}.l", f"{a}.l", o1), BoxStrand(f"{b}.l", f"{b}.l", o2))
        ))
        key = (a, b) if (a, b) in pairs else (b, a)
        parity[key] = parity.get(key, 0) + twists
    for k, ((a, b), total) in enumerate(sorted(parity.items())):
        if total % 2:
            crossings.append(Crossing(f"z{k}", 1, between=(a, b)))
    return Diagram("random", tuple(comps), tuple(crossings), tuple(boxes))


@SEEDED
@given(diagrams(), st.data())
def test_one_pass_linking_matrix_matches_per_pair_scan(d, data):
    ids = [c.id for c in d.components]
    units = unit_records(d)
    want = [
        [
            (c.framing or 0) if a == b else reference_linking_number(units, a, b)
            for b in ids
        ]
        for a, c in zip(ids, d.components)
    ]
    assert pdcode.linking_matrix(d) == want
    for a, b in itertools.combinations(ids, 2):
        assert pdcode.linking_number(d, a, b) == want[ids.index(a)][ids.index(b)]

    # a permuted subset of the components
    comps = data.draw(st.permutations(ids))[: data.draw(st.integers(0, len(ids)))]
    assert pdcode.linking_matrix(d, comps) == per_pair_linking_matrix(units, comps)

    # repeated and unknown ids fail with the earlier message
    faulty = list(comps)
    for cid in data.draw(st.lists(st.sampled_from(comps + ["zz", "c9"]), min_size=1, max_size=3)):
        faulty.insert(data.draw(st.integers(0, len(faulty))), cid)
    got = outcome(pdcode.linking_matrix, d, faulty)
    assert got == outcome(per_pair_linking_matrix, units, faulty)
    assert got.startswith("DiagramError: ")

    # odd totals: of several, the first pair in the order of comps is named
    pairs = list(itertools.combinations(ids, 2))
    flipped = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3)) if pairs else []
    odd = replace(d, crossings=d.crossings + tuple(
        Crossing(f"o{k}", data.draw(st.sampled_from((1, -1))), between=p)
        for k, p in enumerate(flipped)
    ))
    odd_units = unit_records(odd)
    for order in (ids, comps, faulty):
        got = outcome(pdcode.linking_matrix, odd, order)
        assert got == outcome(per_pair_linking_matrix, odd_units, order)
        if len(set(order)) < len(order) or not set(order) <= set(ids):
            continue
        first = next(
            ((a, b) for a, b in itertools.combinations(order, 2)
             if (a, b) in flipped or (b, a) in flipped),
            None,
        )
        if first is not None:
            assert got == "DiagramError: odd signed crossing sum between {} and {}".format(*first)


@SEEDED
@given(diagrams(), st.randoms(use_true_random=False))
def test_signature_counts_records_by_multiplicity(d, rnd):
    units = unit_records(d)
    # the same multiplicities regrouped at random into fewer records
    regrouped, pending = [], {}
    for x in units.crossings:
        key = (x.sign, x.between)
        pending[key] = pending.get(key, 0) + 1
        if rnd.random() < 0.4:
            regrouped.append(Crossing(f"r{len(regrouped)}", x.sign, between=x.between,
                                      count=pending.pop(key)))
    for (sign, between), count in pending.items():
        regrouped.append(Crossing(f"r{len(regrouped)}", sign, between=between, count=count))
    other = Diagram(d.name, d.components, tuple(regrouped), d.boxes)
    sig = script._diagram_signature(d)
    assert sig == script._diagram_signature(units) == script._diagram_signature(other)
    if units.crossings:
        fewer = Diagram(d.name, d.components, units.crossings[1:], d.boxes)
        assert script._diagram_signature(fewer) != sig


def sympy_cokernel(mat, ambient):
    m = sympy.Matrix(mat) if mat and mat[0] else sympy.zeros(ambient, 1)
    snf = sympy_snf(m)
    divs = [abs(snf[i, i]) for i in range(min(snf.shape)) if snf[i, i] != 0]
    return ambient - len(divs), sorted(x for x in divs if x > 1)


@st.composite
def handlebodies(draw):
    """Framed loops with linking held in unit and counted records, and
    dotted circles each passed once by a partner 2-handle."""
    nf = draw(st.integers(2, 4))
    nd = draw(st.integers(0, min(2, nf - 1)))
    framed = [f"c{i}" for i in range(nf)]
    comps = [
        Component(c, FRAMED, draw(st.integers(-3, 3)), edges=(f"{c}.l",)) for c in framed
    ]
    seq = {}
    for i in range(nd):
        others = draw(st.lists(st.sampled_from(framed[nd:]), max_size=2))
        through = []
        for c in [framed[i]] + others:
            edge = f"{c}.l"
            seq[edge] = seq.get(edge, 0) + 1
            through.append(Pass(edge, draw(st.sampled_from((1, -1))), seq[edge]))
        comps.append(Component(f"m{i}", DOTTED, through=tuple(through)))
    crossings = []
    for a, b in itertools.combinations(framed, 2):
        v = draw(st.integers(-2, 2))
        if not v:
            continue
        sign = 1 if v > 0 else -1
        if draw(st.booleans()):
            crossings.append(Crossing(f"x{len(crossings)}", sign, between=(a, b), count=2 * abs(v)))
        else:
            crossings.extend(
                Crossing(f"x{len(crossings) + k}", sign, between=(a, b)) for k in range(2 * abs(v))
            )
    return Handlebody(Diagram("random", tuple(comps), tuple(crossings)))


def framed_and_dots(d):
    framed = [c.id for c in d.components if c.kind == FRAMED]
    dots = [c.id for c in d.components if c.kind == DOTTED]
    return framed, dots


@SEEDED
@given(handlebodies(), st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99),
                                          st.sampled_from((1, -1)), st.booleans()),
                                max_size=6))
def test_moves_keep_linking_equal_to_tracked_congruence(h, moves):
    framed, dots = framed_and_dots(h.diagram)
    # tracked state: framed linking matrix Q and pass matrix P, transformed
    # by every move's change of 2-handle basis E as E Q E^T and P E^T
    q = sympy.Matrix(pdcode.linking_matrix(h.diagram, framed))
    p = sympy.Matrix(handlebody.pass_matrix(h.diagram)[0]) if dots else None
    for i, j, sign, cancel in moves:
        if cancel and dots:
            dot, f = dots[i % len(dots)], framed[j % len(framed)]
            try:
                h, before = handlebody.cancel_pair(h, dot, f), h
            except handlebody.HandlebodyError:
                continue
            assert h == model_cancel_pair(before, dot, f)
            r, c = dots.index(dot), framed.index(f)
            s = p[r, c]
            e = sympy.eye(len(framed))
            for k in range(len(framed)):
                if k != c:
                    e[k, c] = -s * p[r, k]
            keep = [k for k in range(len(framed)) if k != c]
            q = (e * q * e.T).extract(keep, keep)
            p = (p * e.T).extract([k for k in range(len(dots)) if k != r], keep)
            framed.remove(f)
            dots.remove(dot)
        elif len(framed) > 1:
            a = framed[i % len(framed)]
            c = framed[(i + 1 + j % (len(framed) - 1)) % len(framed)]
            h, before = handlebody.slide(h, a, c, sign), h
            assert h == model_slide(before, a, c, sign)
            e = sympy.eye(len(framed))
            e[framed.index(a), framed.index(c)] = sign
            q = e * q * e.T
            if dots:
                p = p * e.T
        else:
            continue
        d = h.diagram
        assert framed_and_dots(d) == (framed, dots)
        assert all(n == 1 for n in abstract_records(d).values())
        assert pdcode.linking_matrix(d, framed) == q.tolist()
        b = q.tolist()
        if dots:
            assert handlebody.pass_matrix(d)[0] == p.tolist()
            b = sympy.Matrix(sympy.BlockMatrix(
                [[q, p.T], [p, sympy.zeros(len(dots), len(dots))]]
            )).tolist()
        order = framed + dots
        boundary = pdcode.linking_matrix(handlebody.boundary_diagram(d), order)
        assert boundary == b
        rank, torsion = sympy_cokernel(b, len(b))
        bh = handlebody.boundary_H1(h)
        assert (bh.rank, list(bh.torsion)) == (rank, torsion)


@st.composite
def precut_handlebodies(draw):
    """Framed circles cut into one to three edges that meet at no vertex,
    or clasped through a twist box as the C_n diagrams are, with dotted
    circles passing through them and counted records for their linking:
    diagrams that are valid but not normalized."""
    comps, boxes = [], []
    for i in range(draw(st.integers(2, 3))):
        c = f"c{i}"
        if draw(st.booleans()):
            edges = (f"{c}e1", f"{c}e2", f"{c}e4", f"{c}e3")
            strands = (BoxStrand(edges[0], edges[1], 1), BoxStrand(edges[3], edges[2], -1))
            boxes.append(TwistBox(f"B{i}", draw(st.integers(0, 3)), strands))
        else:
            edges = tuple(f"{c}e{k}" for k in range(draw(st.integers(1, 3))))
        comps.append(Component(c, FRAMED, draw(st.integers(-2, 2)), edges=edges))
    framed = [c.id for c in comps]
    edges = [e for c in comps for e in c.edges]
    seq = {}
    for m in range(draw(st.integers(0, 2))):
        through = []
        for e in draw(st.lists(st.sampled_from(edges), max_size=3)):
            seq[e] = seq.get(e, -1) + 1
            through.append(Pass(e, draw(st.sampled_from((1, -1))), seq[e]))
        comps.append(Component(f"m{m}", DOTTED, through=tuple(through)))
    crossings = []
    for a, b in itertools.combinations(framed, 2):
        v = draw(st.integers(-1, 1))
        if v:
            crossings.append(Crossing(f"x{len(crossings)}", v, between=(a, b), count=2))
    return Handlebody(Diagram("precut", tuple(comps), tuple(crossings), tuple(boxes)))


def _blowup_linking(q, eps, l):
    """Q + eps l l^T, bordered by the new sphere's row l and framing eps."""
    n = len(q)
    out = [[q[i][j] + eps * l[i] * l[j] for j in range(n)] + [l[i]] for i in range(n)]
    return out + [list(l) + [eps]]


def pieces(d):
    """Each edge's piece of the planar map: the components that a twist
    box threads together."""
    owner = d.edge_owner()
    root = {c.id: c.id for c in d.components}

    def find(c):
        while root[c] != c:
            c = root[c]
        return c

    for b in d.boxes:
        first = find(owner[b.strands[0].left])
        for s in b.strands[1:]:
            root[find(owner[s.left])] = first
    return {e: find(c) for e, c in owner.items()}


STRANDS = st.lists(st.tuples(st.integers(0, 99), st.sampled_from((1, -1))), min_size=1, max_size=2)
MOVES = st.lists(
    st.tuples(st.sampled_from(("blowup", "blowdown", "slide", "blowup", "blowdown")),
              st.integers(0, 99), st.one_of(STRANDS, STRANDS, st.just([])), st.sampled_from((1, -1))),
    max_size=6,
)


@settings(SEEDED, max_examples=120)
@given(precut_handlebodies(), MOVES)
def test_moves_on_unnormalized_diagrams_stay_valid(h, moves):
    # tracked: slides as E Q E^T, a blowup of sign eps through strands with
    # signed pass counts l as Q (+) <eps> + eps l l^T, a blowdown as the
    # inverse, Q - eps l l^T with the sphere's row and column removed
    d = h.diagram
    assert pdcode.validate(d) == []
    assert handlebody.is_connected(d) == walked_is_connected(d)
    order = [c.id for c in d.components]
    q = pdcode.linking_matrix(d)
    for kind, i, through, sign in moves:
        framed = [c for c in d.components if c.kind == FRAMED]
        if kind == "slide" and len(framed) > 1:
            a, over = framed[i % len(framed)].id, framed[(i + 1) % len(framed)].id
            h, before = handlebody.slide(h, a, over, sign), h
            assert h == model_slide(before, a, over, sign)
            e = sympy.eye(len(order))
            e[order.index(a), order.index(over)] = sign
            q = (e * sympy.Matrix(q) * e.T).tolist()
        elif kind == "blowup":
            # one strand per piece of the planar map: blowup does not check
            # that strands of one piece can run side by side through the
            # sphere's disk
            piece, groups = pieces(d), {}
            for e in (e for c in framed for e in c.edges):
                groups.setdefault(piece[e], []).append(e)
            roots = list(groups)
            picked = {}
            for j, (k, s) in enumerate(through[: len(roots)]):
                group = groups[roots[(through[0][0] + j) % len(roots)]]
                picked[group[k % len(group)]] = s
            h = handlebody.blowup(h, sign, tuple(picked.items()))
            owner = d.edge_owner()
            l = [sum(s for e, s in picked.items() if owner[e] == cid) for cid in order]
            q = _blowup_linking(q, sign, l)
            order.append(h.diagram.components[-1].id)
        elif kind == "blowdown":
            # a round sphere if there is one; a sphere that a slide
            # re-encoded as a linked loop is refused
            spheres = [c for c in framed if c.framing in (1, -1) and c.is_round]
            spheres = spheres or [c for c in framed if c.framing in (1, -1)]
            if not spheres:
                continue
            u = spheres[i % len(spheres)]
            try:
                h = handlebody.blowdown(h, u.id)
            except handlebody.HandlebodyError:
                assert not u.is_round
                continue
            k = order.index(u.id)
            l = q[k][:k] + [0] + q[k][k + 1:]
            q = [[q[r][c] - u.framing * l[r] * l[c] for c in range(len(order)) if c != k]
                 for r in range(len(order)) if r != k]
            order.remove(u.id)
        else:
            continue
        d = h.diagram
        assert [c.id for c in d.components] == order
        assert pdcode.validate(d) == [], (kind, d)
        assert pdcode.linking_matrix(d) == q
        assert handlebody.is_connected(d) == walked_is_connected(d)


def mirror_subjects():
    """The valid corpus diagrams and the diagrams of the R1/R2 sweeps."""
    valid = [d for _, d in sorted(corpus.load_document().diagrams.items()) if not pdcode.validate(d)]
    return valid + list(sweep_diagrams())


@SEEDED
@given(st.sampled_from(mirror_subjects()))
def test_mirror_is_a_valid_involution_negating_linking(d):
    m = pdcode.mirror(d)
    assert pdcode.mirror(m) == d
    assert pdcode.validate(m) == []
    assert pdcode.linking_matrix(m) == [[-v for v in row] for row in pdcode.linking_matrix(d)]
