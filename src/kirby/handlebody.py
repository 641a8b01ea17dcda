"""Kirby diagrams as 4-manifold presentations.

A 2-handlebody is a framed-link diagram (dotted circles carve out
1-handles, framed circles attach 2-handles) plus optional 3- and 4-handle
counts.  This module provides the handle calculus — slides, blowups,
blowdowns, dot/zero swaps, 1-2 cancellation — and the algebraic shadows:
homology, intersection form, boundary homology, extension certificates,
and equivariance bookkeeping for marked symmetric diagrams.

Slides and cancellations operate at the algebraic level.  Each reads the
linking matrix (framings on the diagonal) and the through-pass words from
``pdcode``, applies a congruence Q -> E Q E^T together with the matching
rewrite of the words, and writes the result through ``pdcode._from_words``:
free loops carrying framings and pass words, with one counted abstract
crossing of multiplicity 2*|lk| per linked pair.  Every invariant defined
on such diagrams (homology, forms, fundamental group) transforms by the
textbook formulas, which the tests check against independent matrix
congruence oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

from . import forms, grouppres, intmat, pdcode
from .forms import BilinearForm
from .intmat import AbelianGroup
from .pdcode import (
    Component,
    Diagram,
    Pass,
    SymmetryMarking,
    TwistBox,
)


class HandlebodyError(ValueError):
    pass


@dataclass(frozen=True)
class Handlebody:
    diagram: Diagram
    three_handles: int = 0
    four_handles: int = 0

    def __post_init__(self):
        if self.three_handles < 0 or self.four_handles not in (0, 1):
            raise HandlebodyError("handle counts out of range")

    def with_diagram(self, d: Diagram) -> "Handlebody":
        return replace(self, diagram=d)


def validate(h: Handlebody) -> list[str]:
    return pdcode.validate(h.diagram)


# ---------------------------------------------------------------------------
# Algebraic rewrites: linking matrix and pass words, read and written by pdcode


def _slide_rows(q: list[list[int]], a: int, c: int, k: int) -> None:
    """Slide handle ``a`` over handle ``c`` k times, in place: the
    congruence q -> E q E^T with E = I + k e_a e_c^T."""
    for j in range(len(q)):
        q[a][j] += k * q[c][j]
    for row in q:
        row[a] += k * row[c]


def _inverse(word):
    return [(dot, -s) for dot, s in reversed(word)]


def _write(d: Diagram, order: list[str], q, words) -> Diagram:
    """d's components of ``order``, with linking matrix q over ``order``
    (framings on the diagonal) and pass words ``words``, written through
    ``pdcode._from_words``."""
    kind = {c.id: c.kind for c in d.components}
    comps = [
        (cid, kind[cid], q[i][i] if kind[cid] == pdcode.FRAMED else None)
        for i, cid in enumerate(order)
    ]
    linking = {}
    for i, j in combinations(range(len(order)), 2):
        a, b = order[i], order[j]
        linking[(a, b) if a < b else (b, a)] = q[i][j]
    return pdcode._from_words(d.name, comps, words, linking)


# ---------------------------------------------------------------------------
# Invariants


def pass_matrix(d: Diagram) -> tuple[list[list[int]], list[str], list[str]]:
    """Algebraic pass counts: rows = dotted circles, columns = 2-handles."""
    dots = [c.id for c in d.components if c.kind == pdcode.DOTTED]
    framed = [c.id for c in d.components if c.kind == pdcode.FRAMED]
    words = pdcode._pass_words(d)
    p = intmat.zeros(len(dots), len(framed))
    for j, fid in enumerate(framed):
        for dot, s in words[fid]:
            p[dots.index(dot)][j] += s
    return p, dots, framed


def is_connected(d: Diagram) -> bool:
    """Whether the components form one piece under the incidences that
    ``pdcode._crossing_totals`` records (crossings, boxes and passes)."""
    return len(pdcode._pieces([c.id for c in d.components], pdcode._crossing_totals(d))) <= 1


@dataclass(frozen=True)
class HomologyReport:
    h1: AbelianGroup
    h2_rank: int
    contractible: bool


def homology(h: Handlebody) -> HomologyReport:
    return _homology(h, *pass_matrix(h.diagram))


def _homology(h: Handlebody, p, dots, framed) -> HomologyReport:
    h1 = intmat.cokernel(p, ambient_rank=len(dots))
    # rank p = #dots - rank h1, and a square p is unimodular iff h1 is trivial
    contractible = (
        len(dots) == len(framed)
        and h1.is_trivial
        and h.three_handles == 0
        and is_connected(h.diagram)
    )
    return HomologyReport(h1, len(framed) - len(dots) + h1.rank, contractible)


def intersection_form(h: Handlebody) -> BilinearForm:
    """The linking matrix of the 2-handles, with framings on the diagonal.

    Defined here only when no 2-handle passes over a 1-handle (algebraic
    pass matrix zero); the general case needs boundary corrections this
    calculus never requires after cancellation.
    """
    p, _, _ = pass_matrix(h.diagram)
    return _intersection_form(h.diagram, p, pdcode.linking_matrix(h.diagram))


def _intersection_form(d: Diagram, p, lk) -> BilinearForm:
    """The form cut from ``lk``, the linking matrix of all of d's components."""
    if any(any(row) for row in p):
        raise HandlebodyError("intersection form undefined: 2-handles pass over 1-handles")
    keep = [i for i, c in enumerate(d.components) if c.kind == pdcode.FRAMED]
    return BilinearForm.from_rows([[lk[i][j] for j in keep] for i in keep])


def boundary_diagram(d: Diagram) -> Diagram:
    """Surgery diagram of the boundary: every dotted circle becomes 0-framed."""
    comps = tuple(
        replace(c, kind=pdcode.FRAMED, framing=0) if c.kind == pdcode.DOTTED else c
        for c in d.components
    )
    return replace(d, components=comps)


def _boundary_matrix(d: Diagram, lk) -> tuple[list[list[int]], list[str]]:
    """Linking matrix of the boundary surgery diagram, with its component ids,
    cut from ``lk``, the linking matrix of all of d's components."""
    keep = [i for i, c in enumerate(d.components) if c.kind in (pdcode.FRAMED, pdcode.DOTTED)]
    dotted = [d.components[i].kind == pdcode.DOTTED for i in keep]
    q = [[0 if i == j and dot else lk[i][j] for j in keep] for i, dot in zip(keep, dotted)]
    return q, [d.components[i].id for i in keep]


def boundary_H1(h: Handlebody) -> AbelianGroup:
    q, ids = _boundary_matrix(h.diagram, pdcode.linking_matrix(h.diagram))
    return intmat.cokernel(q, ambient_rank=len(ids))


def fundamental_group(h: Handlebody):
    return grouppres.handlebody_pi1(h.diagram)


def pi1_trivial(h: Handlebody, budget: int) -> tuple[bool, str]:
    """Whether Tietze simplification of pi1 reaches the trivial group, and
    a note to append to a refusal when the budget ran out first."""
    simp = grouppres.tietze_simplify(fundamental_group(h), budget)
    note = f" (Tietze budget of {budget} steps ran out)" if simp.budget_exhausted else ""
    return simp.presentation.is_obviously_trivial(), note


def invariant_report(h: Handlebody) -> dict:
    p, dots, framed = pass_matrix(h.diagram)
    lk = pdcode.linking_matrix(h.diagram)
    hom = _homology(h, p, dots, framed)
    q, ids = _boundary_matrix(h.diagram, lk)
    report = {
        "components": len(h.diagram.components),
        "linking_matrix": [list(r) for r in lk],
        "homology": {
            "h1": str(hom.h1),
            "h2_rank": hom.h2_rank,
            "contractible": hom.contractible,
        },
        "boundary_h1": str(intmat.cokernel(q, ambient_rank=len(ids))),
        "pi1": str(fundamental_group(h)),
    }
    try:
        form = _intersection_form(h.diagram, p, lk)
        c = form.classify()
        report["form"] = {
            "matrix": [list(r) for r in form.matrix],
            "rank": c.rank,
            "signature": c.signature,
            "parity": c.parity,
        }
    except HandlebodyError:
        report["form"] = None
    return report


# ---------------------------------------------------------------------------
# Calculus moves


def slide(h: Handlebody, a: str, c: str, sign: int = 1) -> Handlebody:
    """Band-sum 2-handle ``a`` with a framed pushoff of 2-handle ``c``.

    The result is algebraic: a's framing becomes f_a + f_c + 2*sign*lk(a,c),
    its linking row gains sign * (c's row), and its pass word gains a copy
    of c's word (inverted for a negative slide).  The band is taken in the
    diagram complement, so no new linking is introduced.
    """
    if not pdcode._is_sign(sign):
        raise HandlebodyError("slide sign must be +-1")
    d = h.diagram
    ca, cc = d.component(a), d.component(c)
    if a == c:
        raise HandlebodyError("cannot slide a handle over itself")
    if ca.kind != pdcode.FRAMED or cc.kind != pdcode.FRAMED:
        raise HandlebodyError("slides are supported for framed components only")
    order = [x.id for x in d.components]
    q, words = pdcode.linking_matrix(d), pdcode._pass_words(d)
    _slide_rows(q, order.index(a), order.index(c), sign)
    words[a] = words[a] + (words[c] if sign > 0 else _inverse(words[c]))
    return h.with_diagram(_write(d, order, q, words))


def _insert_twist_box(d: Diagram, passes, halftwists: int) -> Diagram:
    """Cut the edge of each pass at that pass and thread the two pieces
    through a new twist box.

    ``passes`` are the ``Pass`` records of a sphere's disk; a negative sign
    means the strand runs through the box against the left-to-right
    direction, so the disk lies on the box's left either way.  The passes
    that come later on a cut edge move to its new piece.
    """
    fresh = d.fresh_edges(len(passes))
    strands = tuple(
        pdcode.BoxStrand(p.edge, new, 1) if p.sign > 0 else pdcode.BoxStrand(new, p.edge, -1)
        for p, new in zip(passes, fresh)
    )
    box = TwistBox(d.fresh_id("tb"), halftwists, strands)
    d = pdcode._split_edges(d, {p.edge: [p.edge, new] for p, new in zip(passes, fresh)})
    cut = {p.edge: (p.seq, new) for p, new in zip(passes, fresh)}

    def moved(q: Pass) -> Pass:
        seq, new = cut.get(q.edge, (q.seq, q.edge))
        return replace(q, edge=new) if q.seq > seq else q

    comps = []
    for c in d.components:
        through = tuple(map(moved, c.through))
        comps.append(c if through == c.through else replace(c, through=through))
    return replace(d, components=tuple(comps), boxes=d.boxes + (box,))


def _twist(d: Diagram, passes, t: int, move: str) -> Diagram:
    """Give the strands of ``passes``, the disk of a ±1 sphere, t full
    twists, and correct each framing by t*l^2, where l is the component's
    signed pass count through the disk."""
    owner = d.edge_owner()
    counts: dict[str, int] = {}
    for p in passes:
        if p.edge not in owner:
            raise HandlebodyError(f"unknown edge {p.edge!r}")
        if not pdcode._is_sign(p.sign):
            raise HandlebodyError("pass signs must be +-1")
        cid = owner[p.edge]
        if d.component(cid).kind == pdcode.DOTTED:
            raise HandlebodyError(f"{move} through a dotted circle is unsupported")
        counts[cid] = counts.get(cid, 0) + p.sign
    if len({p.edge for p in passes}) != len(passes):
        raise HandlebodyError(f"{move} with repeated through-edges is unsupported")
    comps = tuple(
        replace(c, framing=c.framing + t * counts[c.id] ** 2)
        if c.id in counts and c.framing is not None else c
        for c in d.components
    )
    d = replace(d, components=comps)
    return _insert_twist_box(d, passes, 2 * t) if passes else d


def blowup(h: Handlebody, sign: int, through=()) -> Handlebody:
    """Connected-sum with a ±1 sphere: add a ±1-framed unknot, optionally
    encircling the listed strands.

    ``through`` lists (edge, sign) pairs (bare edges mean sign +1).  A
    linked blowup inserts a compensating full twist of the same sign on
    the strands and corrects their framings by +sign*l^2, so the manifold
    and its boundary only change by the connected sum.  The new component
    is round-encoded and can always be blown down again.
    """
    if not pdcode._is_sign(sign):
        raise HandlebodyError("blowup sign must be +-1")
    if isinstance(through, str):
        raise HandlebodyError(f"through {through!r} is a string, not a list of edges")
    through = [(p, 1) if isinstance(p, str) else p for p in through]
    for p in through:
        if not (isinstance(p, (tuple, list)) and len(p) == 2 and isinstance(p[0], str)):
            raise HandlebodyError(f"through entry {p!r} is not an edge or (edge, sign)")
    d = h.diagram
    uid = d.fresh_id("u")
    # the new sphere's passes come after those already on their edges, and
    # the box right after them
    last: dict[str, int] = {}
    for c in d.components:
        for p in c.through:
            last[p.edge] = max(last.get(p.edge, -1), p.seq)
    passes = [Pass(e, s, last.get(e, -1) + 1) for e, s in through]
    d2 = _twist(d, passes, sign, "blowup")
    if passes:
        # a strand running right to left meets the sphere on its new piece
        passes = [
            p if p.sign > 0 else Pass(s.left, p.sign, 0)
            for p, s in zip(passes, d2.boxes[-1].strands)
        ]
    d2 = replace(d2, components=d2.components + (
        Component(uid, pdcode.FRAMED, framing=sign, through=tuple(passes)),
    ))
    return h.with_diagram(d2)


def blowdown(h: Handlebody, u: str) -> Handlebody:
    """Blow down a round-encoded ±1-framed unknot.

    The unknot is deleted and a compensating full twist box (of opposite
    sign) is inserted on the strands through its disk; framings pick up
    the usual -eps * l^2 correction, where l is each component's total
    signed pass count through the disk.
    """
    d = h.diagram
    cu = d.component(u)
    if cu.kind != pdcode.FRAMED or not pdcode._is_sign(cu.framing):
        raise HandlebodyError("blowdown needs a framed component with framing +-1")
    if not cu.is_round:
        # a free loop (single edge meeting no vertex and carrying no
        # passes) is an unknot diagram too
        if not (cu.is_loop and cu.edges[0] not in pdcode._slot_counts(d)):
            raise HandlebodyError(f"component {u} is not round-encoded")
        if any(p.edge == cu.edges[0] for c in d.components for p in c.through):
            raise HandlebodyError(
                "blowdown target is passed over by other components"
            )
    for x in d.crossings:
        if x.is_geometric:
            continue
        try:
            pair = pdcode._between(x)
        except pdcode.DiagramError as err:
            raise HandlebodyError(str(err)) from None
        if u in pair:
            raise HandlebodyError(
                "blowdown target has linking not recorded by its through-strands"
            )
    rest = replace(d, components=tuple(c for c in d.components if c.id != u))
    return h.with_diagram(_twist(rest, cu.through, -cu.framing, "blowdown"))


def swap_dot(h: Handlebody, c: str, certificate: str | None = None) -> Handlebody:
    """Exchange a dot with a zero framing on a round component.

    Dotted -> 0-framed is always legal (surgery description of the same
    boundary).  0-framed -> dotted asserts the circle bounds a trivial
    disk in the 4-manifold; that fact is corpus data, so a certificate
    token must be supplied.
    """
    d = h.diagram
    comp = d.component(c)
    if comp.kind == pdcode.DOTTED:
        new = replace(comp, kind=pdcode.FRAMED, framing=0)
    elif comp.kind == pdcode.FRAMED:
        if comp.framing != 0:
            raise HandlebodyError("only 0-framed components can be dotted")
        if not comp.is_round:
            raise HandlebodyError("dotting requires a round-encoded component")
        if certificate is None:
            raise HandlebodyError("dotting a 0-framed circle needs a disk certificate")
        new = replace(comp, kind=pdcode.DOTTED, framing=None)
    else:
        raise HandlebodyError(f"cannot swap dot on kind {comp.kind!r}")
    comps = tuple(new if x.id == c else x for x in d.components)
    return h.with_diagram(replace(d, components=comps))


def cancel_pair(h: Handlebody, dot: str, framed: str) -> Handlebody:
    """Cancel a 1-handle/2-handle pair.

    The 2-handle must run through the dotted circle geometrically once.
    Every other component is first slid off the dotted circle over the
    cancelling 2-handle (the algebraic rerouting of the cancellation),
    then the pair is deleted.
    """
    d = h.diagram
    cd, cf = d.component(dot), d.component(framed)
    if cd.kind != pdcode.DOTTED or cf.kind != pdcode.FRAMED:
        raise HandlebodyError("cancel_pair needs a dotted and a framed component")
    order = [x.id for x in d.components]
    q, words = pdcode.linking_matrix(d), pdcode._pass_words(d)
    wf = words.pop(framed)
    hits = [(i, s) for i, (dt, s) in enumerate(wf) if dt == dot]
    if len(hits) != 1:
        raise HandlebodyError(
            f"component {framed} passes {len(hits)} times through {dot}, need exactly 1"
        )
    idx, s = hits[0]

    # the cancelling relator reads u dot^s v = 1, so each pass through the
    # dot is rerouted along (u^-1 v^-1)^s — one slide over the 2-handle per
    # pass, inserted at the position of the pass
    rep = _inverse(wf[:idx]) + _inverse(wf[idx + 1:])
    if s < 0:
        rep = _inverse(rep)

    pos = {x: i for i, x in enumerate(order)}
    for x, wx in words.items():
        out: list[tuple[str, int]] = []
        count = 0  # net number of slides over `framed`
        for dt, sg in wx:
            if dt == dot:
                out.extend(rep if sg > 0 else _inverse(rep))
                count -= s * sg
            else:
                out.append((dt, sg))
        words[x] = out
        # every slide is over `framed`, so these congruences commute
        _slide_rows(q, pos[x], pos[framed], count)
    keep = [pos[x] for x in order if x not in (dot, framed)]
    q = [[q[i][j] for j in keep] for i in keep]
    return h.with_diagram(_write(d, [order[i] for i in keep], q, words))


# ---------------------------------------------------------------------------
# Extension certificates and equivariance


@dataclass(frozen=True)
class ExtensionCheck:
    status: str  # "certified" | "refused"
    reasons: tuple[str, ...] = ()

    @property
    def certified(self) -> bool:
        return self.status == "certified"


def extension_check(h: Handlebody, images) -> ExtensionCheck:
    """Necessary homological conditions for a boundary map to extend over
    the 2-handles.

    ``images`` lists, for each 2-handle, the image of its belt-sphere
    meridian as (linking vector over the boundary surgery components,
    framing).  Certification requires framing 0 and the right class in
    the first homology of the boundary; it never asserts a smooth
    extension exists.
    """
    q, ids = _boundary_matrix(h.diagram, pdcode.linking_matrix(h.diagram))
    h1 = intmat.cokernel(q, ambient_rank=len(ids))
    framed = [c.id for c in h.diagram.components if c.kind == pdcode.FRAMED]
    if len(images) != len(framed):
        raise HandlebodyError(
            f"{len(images)} curves given for {len(framed)} 2-handles"
        )
    reasons = []
    for fid, (vec, fr) in zip(framed, images):
        if fr != 0:
            reasons.append(f"meridian image for {fid} has framing {fr}, expected 0")
            continue
        if len(vec) != len(ids):
            raise HandlebodyError("linking vector has wrong length")
        target = [0] * len(ids)
        target[ids.index(fid)] = 1
        diff = [v - t for v, t in zip(vec, target)]
        # diff is in the span of q iff adjoining it keeps rank and divisor product
        with_diff = [row + [x] for row, x in zip(q, diff)]
        if intmat.cokernel(with_diff, ambient_rank=len(ids)) != h1:
            reasons.append(
                f"meridian image for {fid} is not the meridian class in H1(boundary)"
            )
    if reasons:
        return ExtensionCheck("refused", tuple(reasons))
    return ExtensionCheck("certified")


def marking_is_automorphism(d: Diagram, marking: SymmetryMarking) -> bool:
    """Does the marking permute components preserving kind, framing,
    linking numbers, and pass words (up to the marked edge map)?"""
    cmap = {c.id: marking.comp(c.id) for c in d.components}
    ids = set(cmap)
    if set(cmap.values()) != ids:
        return False
    for c in d.components:
        img = d.component(cmap[c.id])
        if (c.kind, c.framing) != (img.kind, img.framing):
            return False
    q = pdcode.linking_matrix(d)
    pos = {c.id: i for i, c in enumerate(d.components)}
    for a in ids:
        for b in ids:
            if a < b and q[pos[a]][pos[b]] != q[pos[cmap[a]]][pos[cmap[b]]]:
                return False
    words = pdcode._pass_words(d)
    for fid, word in words.items():
        img_word = words.get(cmap[fid], [])
        mapped = [(cmap[dt], s) for dt, s in word]
        rotations = [
            img_word[k:] + img_word[:k] for k in range(max(len(img_word), 1))
        ]
        reversed_ = [list(reversed([(dt, -s) for dt, s in r])) for r in rotations]
        if mapped not in rotations and mapped not in reversed_:
            return False
    return True


def check_equivariant(h: Handlebody, marking: SymmetryMarking, move, image_move) -> bool:
    """True iff ``image_move`` is the marking-conjugate of ``move``.

    Moves are tuples: op name followed by its arguments; component and
    edge arguments are translated through the marking.
    """
    if not marking_is_automorphism(boundary_diagram(h.diagram), marking):
        raise HandlebodyError("marking is not an automorphism of the boundary diagram")

    def translate(move):
        op, *args = move
        out = [op]
        known_comps = {c.id for c in h.diagram.components}
        known_edges = set(h.diagram.edge_owner())
        for a in args:
            if isinstance(a, str) and a in known_comps:
                out.append(marking.comp(a))
            elif isinstance(a, str) and a in known_edges:
                out.append(marking.edge(a))
            elif isinstance(a, tuple):
                out.append(tuple(marking.edge(e) for e in a))
            else:
                out.append(a)
        return tuple(out)

    return translate(tuple(move)) == tuple(image_move)


@dataclass(frozen=True)
class CorkPresentation:
    """A contractible handlebody with a marked boundary involution."""

    handlebody: Handlebody
    marking: SymmetryMarking

    def __post_init__(self):
        rep = homology(self.handlebody)
        if not rep.contractible:
            raise HandlebodyError("cork presentations must be contractible")
        b = boundary_diagram(self.handlebody.diagram)
        if not marking_is_automorphism(b, self.marking):
            raise HandlebodyError("marking is not a boundary automorphism")
