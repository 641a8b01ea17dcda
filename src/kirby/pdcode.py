"""Framed link diagrams as combinatorial planar diagram codes.

A diagram is a collection of components (framed, dotted, or plain marker
curves), crossings, and twist boxes.  Geometric crossings record the four
incident edges in planar cyclic order together with which strand passes
over; planarity is enforced through the induced rotation system by face
counting, never through coordinates.

Two deliberate representation choices:

* Framings are explicit integers, never inferred from writhe, so the first
  Reidemeister move does not touch them.

* "Round" components (dotted circles, and unknotted +-1 circles destined
  to be blown down) carry no edges of their own.  Instead they record an
  ordered list of through-strand passes, which makes the words that
  attaching circles spell over 1-handles, and the spanning disks used by
  blowdowns, directly readable.

Crossings may also be *abstract*: a signed incidence between two
components without planar data, carrying a multiplicity ``count`` so that
one record stands for ``count`` crossings of the same sign.  Handle slides
and cancellations synthesize such records, one per linked pair; all
linking/homology computations read them in the same single pass as
geometric crossings, twist boxes and through-passes, while moves that need
honest planar structure (Reidemeister, Wirtinger) refuse them.

``_crossing_totals`` is the one walk over those incidence records.  It keys
each pair of distinct components by the id tuple ``(a, b)`` with ``a < b``
and refuses a record that names an unknown edge or component.  Linking
numbers, the parity check of ``validate`` and the connectivity of a
handlebody all read its keys and totals; ``linking_matrix`` reads them in
one pass, through an id -> index map.  Likewise ``_pass_words`` is the one
reading of the passes through dotted circles, and ``_from_words`` the one
writer of the algebraic format that it and ``linking_matrix`` read back
(one-edge loops, passes on round dotted circles, one counted abstract
crossing per linked pair): slides, cancellations and ribbon complements
all write through it.  ``_pieces`` is the one search
for the connected pieces of a planar map, a handlebody or a surface, and
``_recut`` the one edit of a component cycle: edge splits, fusing, box
expansion and the Reidemeister moves all rewrite cycles through it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

FRAMED = "framed"
DOTTED = "dotted"
PLAIN = "plain"


class DiagramError(ValueError):
    pass


class MoveError(DiagramError):
    """A calculus move whose site does not match its pattern."""


@dataclass(frozen=True)
class Pass:
    """One through-strand pass of an edge through a round component's disk."""

    edge: str
    sign: int = 1
    seq: int = 0


@dataclass(frozen=True)
class Component:
    id: str
    kind: str  # FRAMED | DOTTED | PLAIN
    framing: int | None = None
    edges: tuple[str, ...] = ()
    through: tuple[Pass, ...] = ()  # only for round components

    @property
    def is_round(self) -> bool:
        return not self.edges

    @property
    def is_loop(self) -> bool:
        return len(self.edges) == 1


@dataclass(frozen=True)
class Crossing:
    """Geometric: ``edges`` in planar cyclic order, strands are the slot
    pairs (0,2) and (1,3), ``over`` names the over pair by parity.
    Abstract: ``between`` holds the two component ids, ``edges`` is empty
    and ``count`` (at least 1) copies of the signed crossing stand in this
    one record; geometric crossings keep ``count`` 1.
    """

    id: str
    sign: int
    edges: tuple[str, str, str, str] | None = None
    over: int = 0  # 0 -> pair (0,2) is over, 1 -> pair (1,3)
    between: tuple[str, str] | None = None
    count: int = 1

    @property
    def is_geometric(self) -> bool:
        return self.edges is not None

    def strand_pairs(self) -> tuple[tuple[str, str], tuple[str, str]]:
        e = self.edges
        return ((e[0], e[2]), (e[1], e[3]))

    def over_pair(self) -> tuple[str, str]:
        return self.strand_pairs()[self.over]


@dataclass(frozen=True)
class BoxStrand:
    left: str
    right: str
    orient: int = 1  # +1 flows left to right


@dataclass(frozen=True)
class TwistBox:
    id: str
    halftwists: int
    strands: tuple[BoxStrand, ...]


@dataclass(frozen=True)
class Diagram:
    name: str = ""
    components: tuple[Component, ...] = ()
    crossings: tuple[Crossing, ...] = ()
    boxes: tuple[TwistBox, ...] = ()

    # -- basic lookups ------------------------------------------------------

    def component(self, cid: str) -> Component:
        for c in self.components:
            if c.id == cid:
                return c
        raise DiagramError(f"no component {cid!r}")

    def crossing(self, xid: str) -> Crossing:
        for x in self.crossings:
            if x.id == xid:
                return x
        raise DiagramError(f"no crossing {xid!r}")

    def box(self, bid: str) -> TwistBox:
        for b in self.boxes:
            if b.id == bid:
                return b
        raise DiagramError(f"no box {bid!r}")

    def edge_owner(self) -> dict[str, str]:
        owner: dict[str, str] = {}
        for c in self.components:
            for e in c.edges:
                owner[e] = c.id
        return owner

    def fresh_id(self, prefix: str) -> str:
        used = {c.id for c in self.components}
        used |= {x.id for x in self.crossings}
        used |= {b.id for b in self.boxes}
        for c in self.components:
            used |= set(c.edges)
        return _fresh(used, prefix)

    def fresh_edges(self, n: int) -> list[str]:
        used = {e for c in self.components for e in c.edges}
        return [_fresh(used, "w") for _ in range(n)]


def _fresh(used: set[str], prefix: str) -> str:
    """The first ``prefix<i>`` not in ``used``, which it then joins."""
    i = 0
    while f"{prefix}{i}" in used:
        i += 1
    used.add(f"{prefix}{i}")
    return f"{prefix}{i}"


@dataclass(frozen=True)
class SymmetryMarking:
    """An involution on the components and edges of a diagram."""

    component_map: tuple[tuple[str, str], ...]
    edge_map: tuple[tuple[str, str], ...] = ()

    def comp(self, cid: str) -> str:
        return dict(self.component_map).get(cid, cid)

    def edge(self, eid: str) -> str:
        return dict(self.edge_map).get(eid, eid)


# ---------------------------------------------------------------------------
# Incidence resolution and validation


@dataclass
class Incidence:
    """Resolved planar structure: where each edge starts and ends."""

    # edge -> ((vertex_id, slot) of tail, (vertex_id, slot) of head); an
    # end at a weld is None
    ends: dict[str, tuple[tuple[str, int] | None, tuple[str, int] | None]]
    # vertex -> list of edge ids in cyclic slot order
    rotation: dict[str, list[str]]
    # (vertex, strand index) -> (in_edge, out_edge); strand index 0/1 for
    # crossings, row number for boxes
    flow: dict[tuple[str, int], tuple[str, str]]


def resolve_incidence(d: Diagram) -> Incidence:
    """Orient every edge through its two vertex slots, following the
    component cycles.  Raises DiagramError when the cycles and vertex data
    cannot be reconciled.

    A consecutive pair of edges that meets at no vertex is a weld (see
    ``normalize``): the two edge ends there get no slot, ``None`` in
    ``ends``, and an edge meeting no vertex at all has no entry.

    When the same unordered edge pair meets at several vertices the
    assignment of cycle steps to vertices is ambiguous; the resolver then
    prefers an assignment under which every declared crossing sign matches
    the planar handedness.
    """
    rotation, pairings = _collect_pairings(d)
    base = _resolve_once(d, rotation, pairings, {})
    if not _sign_mismatches(d, base):
        return base
    ambiguous = [k for k, v in pairings.items() if len(v) > 1]
    if not ambiguous:
        return base
    orders = [list(itertools.permutations(range(len(pairings[k])))) for k in ambiguous]
    for combo in itertools.islice(itertools.product(*orders), 64):
        try:
            cand = _resolve_once(d, rotation, pairings, dict(zip(ambiguous, combo)))
        except DiagramError:
            continue
        if not _sign_mismatches(d, cand):
            return cand
    return base


def _sign_mismatches(d: Diagram, inc: Incidence) -> list[str]:
    bad = []
    for x in d.crossings:
        if not x.is_geometric:
            continue
        try:
            if derived_sign(d, inc, x) != x.sign:
                bad.append(x.id)
        except DiagramError:
            bad.append(x.id)
    return bad


def _box_layout(b: TwistBox) -> list[tuple[int, str]]:
    """The (row, side) at each slot of box b, in rotation order: the left
    side top to bottom, then the right side bottom to top.  An odd number
    of half twists reverses the rows on the right, so the strand entering
    in row r exits in row k-1-r."""
    rows = range(len(b.strands))
    right = rows if b.halftwists % 2 else reversed(rows)
    return [(r, "left") for r in rows] + [(r, "right") for r in right]


def _collect_pairings(d: Diagram):
    """Rotation system plus, per unordered adjacent edge pair, the vertex
    incidences that can realize it."""
    rotation: dict[str, list[str]] = {}
    # unordered adjacent pair -> list of (vertex, strand, slot_a, slot_b, in edge)
    pairings: dict[frozenset, list[tuple[str, int, int, int, str | None]]] = {}

    for x in d.crossings:
        if not x.is_geometric:
            continue
        rotation[x.id] = list(x.edges)
        for strand, (a, b) in enumerate(x.strand_pairs()):
            if a == b:
                raise DiagramError(f"crossing {x.id}: strand uses one edge twice")
            key = frozenset((a, b))
            slot_a = strand  # slots strand, strand+2
            pairings.setdefault(key, []).append((x.id, strand, slot_a, slot_a + 2, None))
    for b in d.boxes:
        layout = _box_layout(b)
        rotation[b.id] = [getattr(b.strands[row], side) for row, side in layout]
        slot = {cell: i for i, cell in enumerate(layout)}
        for row, s in enumerate(b.strands):
            key = frozenset((s.left, s.right))
            slot_l, slot_r = slot[(row, "left")], slot[(row, "right")]
            if s.orient == -1 and s.left == s.right:
                # the edge leaves the box on the left and returns on the right
                slot_l, slot_r = slot_r, slot_l
            expect_in = s.left if s.orient == 1 else s.right
            pairings.setdefault(key, []).append((b.id, row, slot_l, slot_r, expect_in))
    return rotation, pairings


def _resolve_once(d: Diagram, rotation, pairings, pool_orders: dict) -> Incidence:
    flow: dict[tuple[str, int], tuple[str, str]] = {}
    tails: dict[str, tuple[str, int] | None] = {}
    heads: dict[str, tuple[str, int] | None] = {}

    remaining = {
        k: [v[i] for i in pool_orders[k]] if k in pool_orders else list(v)
        for k, v in pairings.items()
    }
    for c in d.components:
        n = len(c.edges)
        for i in range(n):
            e, f = c.edges[i], c.edges[(i + 1) % n]
            if e in heads or f in tails:
                raise DiagramError(f"edge {e}: oriented through vertices twice")
            pool = remaining.get(frozenset((e, f)))
            if not pool:
                heads[e] = tails[f] = None  # a weld
                continue
            # prefer a pairing whose declared direction matches the traversal
            pick = next(
                (idx for idx, p in enumerate(pool) if p[4] == e),
                next((idx for idx, p in enumerate(pool) if p[4] is None), 0),
            )
            vid, strand, slot_e, slot_f, _expect = pool.pop(pick)
            rot = rotation[vid]
            if e != f:
                if rot[slot_e] != e:
                    slot_e, slot_f = slot_f, slot_e
                if rot[slot_e] != e or rot[slot_f] != f:
                    raise DiagramError(f"vertex {vid}: slot bookkeeping failed")
            heads[e] = (vid, slot_e)
            tails[f] = (vid, slot_f)
            flow[(vid, strand)] = (e, f)
    leftovers = [k for k, v in remaining.items() if v]
    if leftovers:
        raise DiagramError(f"unused vertex pairings: {sorted(map(sorted, leftovers))}")
    ends = {}
    for e in set(tails) | set(heads):
        if e not in tails or e not in heads:
            raise DiagramError(f"edge {e}: inconsistent orientation through vertices")
        if tails[e] or heads[e]:
            ends[e] = (tails[e], heads[e])
    return Incidence(ends=ends, rotation=rotation, flow=flow)


def derived_sign(d: Diagram, inc: Incidence, x: Crossing) -> int:
    """Crossing handedness from the rotation system and strand directions:
    positive when the incoming over edge sits one slot counterclockwise of
    the incoming under edge."""
    under_in, _ = inc.flow[(x.id, 1 - x.over)]
    over_in, _ = inc.flow[(x.id, x.over)]

    # strand s occupies slots s and s+2; find which one is the in end
    def in_slot(strand, e):
        head_vid, head_slot = inc.ends[e][1]
        if head_vid == x.id and head_slot % 2 == strand % 2:
            return head_slot
        raise DiagramError(f"crossing {x.id}: cannot locate in-slot of {e}")

    u = in_slot(1 - x.over, under_in)
    o = in_slot(x.over, over_in)
    if (u + 1) % 4 == o:
        return 1
    if (u - 1) % 4 == o:
        return -1
    raise DiagramError(f"crossing {x.id}: in-slots are not adjacent")


def trace_faces(inc: Incidence) -> list[list[tuple[str, int]]]:
    """Faces of the combinatorial map as orbits of darts (edge, direction)."""
    darts = [(e, +1) for e in inc.ends] + [(e, -1) for e in inc.ends]
    seen = set()
    faces = []

    def next_dart(dart):
        e, direction = dart
        tail, head = inc.ends[e]

        vid, slot = head if direction == +1 else tail
        rot = inc.rotation[vid]
        nxt = (slot + 1) % len(rot)
        f = rot[nxt]
        f_tail, f_head = inc.ends[f]
        if f_tail == (vid, nxt):
            return (f, +1)
        if f_head == (vid, nxt):
            return (f, -1)
        raise DiagramError(f"face tracing lost at vertex {vid}")

    for start in darts:
        if start in seen:
            continue
        face = []
        dart = start
        while dart not in seen:
            seen.add(dart)
            face.append(dart)
            dart = next_dart(dart)
        faces.append(face)
    return faces


def _pieces(nodes, pairs) -> list[set]:
    """Connected pieces of the graph on ``nodes`` with one edge per pair, in
    the order of their first node.  A pair naming a node outside ``nodes``
    raises KeyError."""
    adj: dict = {v: [] for v in nodes}
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    pieces: list[set] = []
    seen: set = set()
    for v in adj:
        if v in seen:
            continue
        piece, stack = {v}, [v]
        while stack:
            for u in adj[stack.pop()]:
                if u not in piece:
                    piece.add(u)
                    stack.append(u)
        seen |= piece
        pieces.append(piece)
    return pieces


def _slot_counts(d: Diagram) -> dict[str, int]:
    uses: dict[str, int] = {}
    for x in d.crossings:
        if x.is_geometric:
            for e in x.edges:
                uses[e] = uses.get(e, 0) + 1
    for b in d.boxes:
        for s in b.strands:
            for e in (s.left, s.right):
                uses[e] = uses.get(e, 0) + 1
    return uses


def _pairing_counts(d: Diagram) -> dict[frozenset, int]:
    counts: dict[frozenset, int] = {}
    for x in d.crossings:
        if x.is_geometric:
            for a, b in x.strand_pairs():
                key = frozenset((a, b))
                counts[key] = counts.get(key, 0) + 1
    for b in d.boxes:
        for s in b.strands:
            key = frozenset((s.left, s.right))
            counts[key] = counts.get(key, 0) + 1
    return counts


def normalize(d: Diagram) -> Diagram:
    """Fuse consecutive edges of a component that meet at no vertex.

    Such "welds" arise when a curve closes up through a free arc (for
    example a circle entering a twist box once and looping back around it);
    fusing them leaves every remaining edge running from vertex slot to
    vertex slot, which the planar checks require.
    """
    while True:
        counts = _pairing_counts(d)
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
                if needed[key] > counts.get(key, 0):
                    weld = sorted(key)
                    break
            if weld:
                break
        if weld is None:
            return d
        d = _fuse(d, *weld)


def _recut(d: Diagram, chains) -> tuple[Component, ...]:
    """d's components with each edge e of ``chains`` replaced in its cycle
    by the names ``chains[e]``: no names delete e, one renames it, several
    split it."""
    return tuple(
        replace(c, edges=tuple(p for e in c.edges for p in chains.get(e, (e,))))
        if any(e in chains for e in c.edges) else c
        for c in d.components
    )


def _fuse(d: Diagram, keep: str, drop: str) -> Diagram:
    """Join edge ``drop`` onto its neighbour ``keep`` in their component
    cycle: drop it from the cycle and rename it everywhere.  The passes on
    the joined edge are renumbered in their order along the cycle: those of
    whichever edge comes first, then the other's, each by its old key."""
    comps = list(_recut(d, {drop: ()}))
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

    def fix(e):
        return keep if e == drop else e

    crossings = tuple(
        replace(x, edges=tuple(map(fix, x.edges))) if x.is_geometric and drop in x.edges else x
        for x in d.crossings
    )
    boxes = tuple(
        replace(b, strands=tuple(
            replace(s, left=fix(s.left), right=fix(s.right)) for s in b.strands
        ))
        if any(drop in (s.left, s.right) for s in b.strands) else b
        for b in d.boxes
    )
    return Diagram(d.name, tuple(comps), crossings, boxes)


def _is_sign(v) -> bool:
    """Whether v is the int +1 or -1 (``True`` is not a sign)."""
    return type(v) is int and v in (1, -1)


def _between(x: Crossing) -> tuple[str, str]:
    """The two component ids of abstract crossing x; DiagramError unless
    ``between`` is a tuple of two."""
    pair = x.between
    if type(pair) is not tuple or len(pair) != 2:
        raise DiagramError(f"crossing {x.id}: abstract crossing needs two components")
    return pair


def _record_faults(d: Diagram) -> list[str]:
    """The record fields of d that have the wrong type: an edge name that is
    not a string, an ``over`` that is not the int 0 or 1, and a
    ``halftwists`` that is not an int (``True`` is not an int here)."""
    out = []
    names = [
        (f"component {c.id}", c.edges + tuple(p.edge for p in c.through)) for c in d.components
    ]
    for x in d.crossings:
        if x.edges is not None:
            names.append((f"crossing {x.id}", x.edges))
            if type(x.over) is not int or x.over not in (0, 1):
                out.append(f"crossing {x.id}: over must be 0 or 1, got {x.over!r}")
    for b in d.boxes:
        names.append((f"box {b.id}", tuple(e for s in b.strands for e in (s.left, s.right))))
        if type(b.halftwists) is not int:
            out.append(f"box {b.id}: halftwists must be an integer, got {b.halftwists!r}")
    out += [
        f"{what}: edge name {e!r} is not a string"
        for what, edges in names
        for e in edges
        if type(e) is not str
    ]
    return out


def validate(d: Diagram) -> list[str]:
    """All diagram invariants; returns human-readable violations (empty for
    a valid diagram)."""
    out = _record_faults(d)
    if out:
        return out  # the checks below index by these fields
    seen_ids: set[str] = set()
    for c in d.components:
        if c.id in seen_ids:
            out.append(f"duplicate component id {c.id!r}")
        seen_ids.add(c.id)
        if c.kind not in (FRAMED, DOTTED, PLAIN):
            out.append(f"component {c.id}: unknown kind {c.kind!r}")
        if c.kind == FRAMED and c.framing is None:
            out.append(f"component {c.id}: framed component needs a framing")
        elif c.kind == FRAMED and type(c.framing) is not int:
            out.append(f"component {c.id}: framing must be an integer")
        if c.kind != FRAMED and c.framing is not None:
            out.append(f"component {c.id}: only framed components carry framings")
        if c.kind == DOTTED and not c.is_round:
            out.append(f"component {c.id}: dotted circles must be round-encoded")
        if c.through and not c.is_round:
            out.append(f"component {c.id}: through-passes only on round components")
        for p in c.through:
            if not _is_sign(p.sign):
                out.append(f"component {c.id}: pass sign must be +-1")

    owner: dict[str, str] = {}
    for c in d.components:
        for e in c.edges:
            if e in owner:
                out.append(f"edge {e}: used by components {owner[e]} and {c.id}")
            owner[e] = c.id

    for x in d.crossings:
        if not _is_sign(x.sign):
            out.append(f"crossing {x.id}: sign must be +-1")
        if x.is_geometric:
            if x.count != 1:
                out.append(f"crossing {x.id}: geometric crossings have count 1")
            for e in x.edges:
                if e not in owner:
                    out.append(f"crossing {x.id}: unknown edge {e!r}")
            continue
        if x.count < 1:
            out.append(f"crossing {x.id}: abstract count must be at least 1")
        try:
            pair = _between(x)
        except DiagramError as err:
            out.append(str(err))
            continue
        if not set(pair) <= seen_ids:
            out.append(f"crossing {x.id}: unknown component in {x.between}")
    for b in d.boxes:
        for s in b.strands:
            for e in (s.left, s.right):
                if e not in owner:
                    out.append(f"box {b.id}: unknown edge {e!r}")
            if not _is_sign(s.orient):
                out.append(f"box {b.id}: strand orientation must be +-1")
    # passes must reference edges of non-round components, with distinct
    # sequence keys per edge
    seqs: dict[str, set[int]] = {}
    for c in d.components:
        for p in c.through:
            if p.edge not in owner:
                out.append(f"component {c.id}: pass references unknown edge {p.edge!r}")
                continue
            if p.seq in seqs.setdefault(p.edge, set()):
                out.append(f"edge {p.edge}: duplicate pass sequence key {p.seq}")
            seqs[p.edge].add(p.seq)

    if out:
        return out  # structural problems make the planar checks unreliable

    try:
        d = normalize(d)
    except DiagramError as err:
        return [str(err)]

    for e, n in _slot_counts(d).items():
        if n != 2:
            out.append(f"edge {e}: appears {n} times at vertices (expected 2)")
    if out:
        return out

    try:
        inc = resolve_incidence(d)
    except DiagramError as err:
        return [str(err)]

    for b in d.boxes:
        for row, s in enumerate(b.strands):
            if s.left == s.right:
                continue
            into = inc.flow[(b.id, row)][0]
            expected = s.left if s.orient == 1 else s.right
            if into != expected:
                out.append(
                    f"box {b.id} strand {row}: declared orientation "
                    "contradicts the component cycle"
                )

    for x in d.crossings:
        if x.is_geometric:
            try:
                ds = derived_sign(d, inc, x)
            except DiagramError as err:
                out.append(str(err))
                continue
            if ds != x.sign:
                out.append(
                    f"crossing {x.id}: declared sign {x.sign:+d} contradicts "
                    f"planar handedness {ds:+d}"
                )

    # planarity: every connected piece of the map is a sphere
    try:
        faces = trace_faces(inc)
    except DiagramError as err:
        return out + [str(err)]
    vertices = [v for v, rot in inc.rotation.items() if rot]
    for piece in _pieces(vertices, [(t[0], h[0]) for t, h in inc.ends.values()]):
        v = len(piece)
        e = sum(1 for _, (tail, _head) in inc.ends.items() if tail[0] in piece)
        f = sum(
            1
            for face in faces
            if face and inc.ends[face[0][0]][0][0] in piece
        )
        if v - e + f != 2:
            out.append(
                f"nonplanar piece at vertices {sorted(piece)}: V-E+F = {v - e + f}"
            )

    # integral linking: signed crossing totals between distinct components
    # must be even; reported in the order of the component pairs
    pos = {c.id: i for i, c in enumerate(d.components)}
    odd = sorted(
        (min(pos[a], pos[b]), max(pos[a], pos[b]), total)
        for (a, b), total in _crossing_totals(d).items()
        if total % 2
    )
    for i, j, total in odd:
        out.append(
            f"components {d.components[i].id},{d.components[j].id}: odd crossing count {total}"
        )
    return out


# ---------------------------------------------------------------------------
# Linking numbers, mirrors, orientation reversal


def _crossing_totals(d: Diagram) -> dict[tuple[str, str], int]:
    """Signed crossing total of every pair of distinct components, in one
    pass, keyed by the id pair ``(a, b)`` with ``a < b``: a crossing counts
    ``sign * count``, each strand pair of a twist box crosses once per half
    twist, and a through-pass counts as the two crossings of its strand with
    the round component.  Every pair that meets at some record has a key,
    even when its total is 0.  A name this pass reads that the diagram
    lacks raises DiagramError: the first two edges of a geometric crossing,
    the pair of an abstract one, either edge of a box strand, or the edge
    of a pass; so does an abstract ``between`` that is not a tuple of two."""
    owner = d.edge_owner()
    ids = {c.id for c in d.components}
    totals: dict[tuple[str, str], int] = {}
    # the key and sum are written out in each loop: a helper call per
    # record is a tenth of this walk on diagrams of abstract records
    for x in d.crossings:
        edges = x.edges
        if edges is not None:  # geometric
            try:
                a, b = owner[edges[0]], owner[edges[1]]
            except KeyError as err:
                raise DiagramError(f"crossing {x.id}: unknown edge {err.args[0]!r}") from None
            v = x.sign
        else:
            pair = x.between
            a, b = pair if type(pair) is tuple and len(pair) == 2 else _between(x)
            if a not in ids or b not in ids:
                raise DiagramError(f"crossing {x.id}: unknown component in {x.between}")
            v = x.sign * x.count
        if a != b:
            key = (a, b) if a < b else (b, a)
            totals[key] = totals.get(key, 0) + v
    _check_box_edges(d, owner)
    for box in d.boxes:
        for s1, s2 in itertools.combinations(box.strands, 2):
            a, b = owner[s1.left], owner[s2.left]
            if a != b:
                key = (a, b) if a < b else (b, a)
                totals[key] = totals.get(key, 0) + box.halftwists * s1.orient * s2.orient
    for c in d.components:
        if c.is_round:
            a = c.id
            for p in c.through:
                try:
                    b = owner[p.edge]
                except KeyError:
                    raise DiagramError(
                        f"component {a}: pass references unknown edge {p.edge!r}"
                    ) from None
                if a != b:
                    key = (a, b) if a < b else (b, a)
                    totals[key] = totals.get(key, 0) + 2 * p.sign
    return totals


def _check_box_edges(d: Diagram, owner) -> None:
    """DiagramError naming the first box strand edge missing from ``owner``."""
    for box in d.boxes:
        for s in box.strands:
            for e in (s.left, s.right):
                if e not in owner:
                    raise DiagramError(f"box {box.id}: unknown edge {e!r}")


def _pass_words(d: Diagram) -> dict[str, list[tuple[str, int]]]:
    """The pass word of every framed component, keyed by its id: its signed
    passes through the dotted circles, in order along the component."""
    # passes are stored on the round dotted components; regroup them by the
    # passing edge's owner, ordered along that component
    owner = d.edge_owner()
    per_comp: dict[str, list] = {}
    for dot in d.components:
        if dot.kind != DOTTED:
            continue
        for p in dot.through:
            if p.edge not in owner:
                raise DiagramError(
                    f"component {dot.id}: pass references unknown edge {p.edge!r}"
                )
            per_comp.setdefault(owner[p.edge], []).append((p.edge, p.seq, dot.id, p.sign))
    words: dict[str, list[tuple[str, int]]] = {}
    for c in d.components:
        if c.kind != FRAMED:
            continue
        passes = per_comp.get(c.id, [])
        pos = {e: i for i, e in enumerate(c.edges)}
        passes.sort(key=lambda t: (pos.get(t[0], 0), t[1]))
        words[c.id] = [(dot, s) for _, _, dot, s in passes]
    return words


def _from_words(name: str, comps, words, linking) -> Diagram:
    """The algebraic diagram of ``comps``, read back by ``_pass_words`` and
    ``linking_matrix``.

    ``comps`` lists (id, kind, framing) in order.  A dotted circle is round
    and carries the passes of ``words`` (framed id -> [(dot id, sign)]),
    framed ids sorted and ``seq`` the position in the word; every other
    component is the one-edge loop ``<id>.l``.  ``linking`` maps pairs
    (a, b) with a < b to their linking number: the passes' share is taken
    off and the rest written as one counted abstract crossing.  A pair it
    omits is linked by its passes alone."""
    through: dict[str, list[Pass]] = {cid: [] for cid, kind, _ in comps if kind == DOTTED}
    share: dict[tuple[str, str], int] = {}
    for fid in sorted(words):
        for seq, (dot, s) in enumerate(words[fid]):
            through[dot].append(Pass(f"{fid}.l", s, seq))
            key = (fid, dot) if fid < dot else (dot, fid)
            share[key] = share.get(key, 0) + s
    components = tuple(
        Component(cid, kind, through=tuple(through[cid])) if kind == DOTTED
        else Component(cid, kind, framing, (f"{cid}.l",))
        for cid, kind, framing in comps
    )
    crossings = []
    for pair, v in sorted(linking.items()):
        v -= share.get(pair, 0)
        if v:
            crossings.append(Crossing(
                f"ax{len(crossings)}", 1 if v > 0 else -1, between=pair, count=2 * abs(v),
            ))
    return Diagram(name, components, tuple(crossings))


_SELF_LINKING = "self-linking is the framing, not a linking number"


def linking_number(d: Diagram, c1: str, c2: str) -> int:
    """Half the signed crossing total of two distinct components, through-
    passes included when one of them is round."""
    d.component(c1), d.component(c2)  # unknown ids raise DiagramError
    if c1 == c2:
        raise DiagramError(_SELF_LINKING)
    total = _crossing_totals(d).get((c1, c2) if c1 < c2 else (c2, c1), 0)
    if total % 2:
        raise DiagramError(f"odd signed crossing sum between {c1} and {c2}")
    return total // 2


def linking_matrix(d: Diagram, comps: list[str] | None = None) -> list[list[int]]:
    """Framings on the diagonal (0 for dotted/plain), linking numbers off it.

    One pass over ``_crossing_totals`` fills both halves through an
    id -> index map.  A fault raises DiagramError; of several, the first in
    reading order row by row, where row i checks ``comps[i]`` (unknown id,
    non-integer framing) before its pairs with later entries (a repeated
    id, an odd total)."""
    if comps is None:
        comps = [c.id for c in d.components]
    totals = _crossing_totals(d)
    n = len(comps)
    framings = {c.id: c.framing for c in reversed(d.components)}  # first wins
    index: dict[str, int] = {}
    faults = []  # (row, 0 for the entry or 1 for a pair, column, message)
    q = [[0] * n for _ in range(n)]
    for i, ci in enumerate(comps):
        try:
            first = index.setdefault(ci, i)
        except TypeError:  # unhashable, so no component's id
            faults.append((i, 0, 0, f"no component {ci!r}"))
            continue
        if first != i:
            faults.append((first, 1, i, _SELF_LINKING))
        elif ci not in framings:
            faults.append((i, 0, 0, f"no component {ci!r}"))
        elif type(framings[ci]) is int:
            q[i][i] = framings[ci]
        elif framings[ci] is not None:
            faults.append((i, 0, 0, f"component {ci}: framing must be an integer"))
    for (a, b), total in totals.items():
        i, j = index.get(a), index.get(b)
        if i is None or j is None:
            continue
        if total % 2:
            i, j = min(i, j), max(i, j)
            faults.append((i, 1, j, f"odd signed crossing sum between {comps[i]} and {comps[j]}"))
        q[i][j] = q[j][i] = total // 2
    if faults:
        raise DiagramError(min(faults)[3])
    return q


def mirror(d: Diagram) -> Diagram:
    """Flip every crossing; negates framings, linking numbers and twists."""
    comps = tuple(
        replace(
            c,
            framing=-c.framing if c.framing is not None else None,
            through=tuple(replace(p, sign=-p.sign) for p in c.through),
        )
        for c in d.components
    )
    crossings = tuple(
        replace(x, sign=-x.sign, over=(1 - x.over) if x.is_geometric else x.over)
        for x in d.crossings
    )
    boxes = tuple(replace(b, halftwists=-b.halftwists) for b in d.boxes)
    return Diagram(d.name, comps, crossings, boxes)


def reverse_orientation(d: Diagram, cid: str) -> Diagram:
    """Reverse one component; linking numbers with it change sign."""
    c = d.component(cid)
    owner = d.edge_owner()
    comps = []
    for comp in d.components:
        if comp.id == cid:
            comp = replace(comp, edges=tuple(reversed(comp.edges)))
            if comp.is_round:
                comp = replace(
                    comp, through=tuple(replace(p, sign=-p.sign) for p in comp.through)
                )
        elif comp.is_round:
            flipped = tuple(
                replace(p, sign=-p.sign) if owner.get(p.edge) == cid else p
                for p in comp.through
            )
            comp = replace(comp, through=flipped)
        comps.append(comp)
    crossings = []
    for x in d.crossings:
        if x.is_geometric:
            try:
                ca, cb = owner[x.edges[0]], owner[x.edges[1]]
            except KeyError as err:
                raise DiagramError(f"crossing {x.id}: unknown edge {err.args[0]!r}") from None
            involved = (ca == cid) + (cb == cid)
        else:
            involved = _between(x).count(cid)
        crossings.append(replace(x, sign=-x.sign) if involved == 1 else x)
    return Diagram(d.name, tuple(comps), tuple(crossings), d.boxes)


# ---------------------------------------------------------------------------
# Twist box expansion


def expand_twistboxes(d: Diagram) -> Diagram:
    """Replace every twist box by explicit crossings (a half-twist braid
    block per half twist), preserving linking numbers and framings.  A box
    strand on an edge that no component declares raises DiagramError, as
    does a record field of the wrong type (``validate`` lists those)."""
    faults = _record_faults(d)
    if faults:
        raise DiagramError(faults[0])
    _check_box_edges(d, d.edge_owner())
    out = normalize(d)
    while out.boxes:
        out = _expand_one_box(out, out.boxes[0])
    return out


def _expand_one_box(d: Diagram, b: TwistBox) -> Diagram:
    k = len(b.strands)
    t = b.halftwists
    if t == 0 or k < 2:
        # box dissolves: each strand's two edges join; the strands are read
        # from the box as the earlier joins renamed them
        for row in range(k):
            s = d.box(b.id).strands[row]
            if s.left != s.right:
                d = _fuse(d, s.left, s.right)
        return replace(d, boxes=tuple(x for x in d.boxes if x.id != b.id))
    d = replace(d, boxes=tuple(x for x in d.boxes if x.id != b.id))

    # rows carry (strand_index); cur[row] = dangling edge flowing rightward
    rows = list(range(k))
    cur = [s.left for s in b.strands]
    sign_dir = 1 if t > 0 else -1
    new_crossings: list[Crossing] = []
    inserts: dict[int, list[str]] = {i: [] for i in range(k)}  # interior edges per strand
    # each strand crosses every other once per half twist; its last
    # crossing takes the strand's right edge, and the fresh name drawn for
    # it goes unused so that the later names, which order the Wirtinger
    # generators, stay the same
    last = abs(t) * (k - 1)

    counter = itertools.count()
    fresh = d.fresh_edges(abs(t) * k * (k - 1))
    xid_base = b.id

    def out_edge(strand):
        e = fresh[next(counter)]
        if len(inserts[strand]) == last - 1:
            return b.strands[strand].right
        inserts[strand].append(e)
        return e

    def make_crossing(i):
        """Cross rows i and i+1 (the occupants swap)."""
        nw, sw = cur[i], cur[i + 1]
        top_strand, bottom_strand = rows[i], rows[i + 1]
        se, ne = out_edge(top_strand), out_edge(bottom_strand)
        # positive twists: bottom strand over; negative: top strand over
        over = 1 if sign_dir > 0 else 0
        or_top = b.strands[top_strand].orient
        or_bot = b.strands[bottom_strand].orient
        x = Crossing(
            id=f"{xid_base}x{len(new_crossings)}",
            sign=sign_dir * or_top * or_bot,
            edges=(nw, sw, se, ne),
            over=over,
        )
        new_crossings.append(x)
        cur[i], cur[i + 1] = ne, se
        rows[i], rows[i + 1] = bottom_strand, top_strand

    for _ in range(abs(t)):
        # one half twist: weave each strand across the block
        for start in range(1, k):
            for i in range(start - 1, -1, -1):
                make_crossing(i)

    # the interior edges follow each strand's entry edge; a strand running
    # right to left meets them in reverse
    chains = {}
    for sidx, s in enumerate(b.strands):
        if s.orient == 1:
            chains[s.left] = (s.left, *inserts[sidx])
        else:
            chains[s.right] = (s.right, *reversed(inserts[sidx]))
    return replace(d, components=_recut(d, chains), crossings=d.crossings + tuple(new_crossings))


# ---------------------------------------------------------------------------
# Reidemeister moves


def reidemeister(d: Diagram, move: str, site) -> Diagram:
    """Apply one Reidemeister move.

    Sites:
      R1 ("insert", edge, sign) | ("remove", crossing_id)
      R2 ("insert", over_edge, under_edge) | ("remove", xid1, xid2)
      R3 (xid1, xid2, xid3) with the distinguished strand passing the
         first two crossings (over both or under both).

    Any other move or site, a site with items missing or to spare, and an
    edge or crossing name that is not a string raise MoveError.
    """
    if isinstance(move, str) and isinstance(site, (tuple, list)):
        move = move.upper()
        if move == "R3":
            kind, args = None, tuple(site)
        else:
            kind, args = site[0] if site and isinstance(site[0], str) else "", tuple(site[1:])
        apply, arity, names = {  # the move, its site items, how many are names
            ("R1", "insert"): (r1_insert, 2, 1),
            ("R1", "remove"): (r1_remove, 1, 1),
            ("R2", "insert"): (r2_insert, 2, 2),
            ("R2", "remove"): (r2_remove, 2, 2),
            ("R3", None): (r3, 3, 3),
        }.get((move, kind), (None, 0, 0))
        if apply is not None:
            if len(args) != arity or not all(isinstance(a, str) for a in args[:names]):
                raise MoveError(f"malformed {move} site {site!r}")
            return apply(d, *args)
    raise MoveError(f"unknown move {move!r} or site {site!r}")


def _split_edges(d: Diagram, splits: dict[str, list[str]]) -> Diagram:
    """Cut each edge e of ``splits`` into the chain ``splits[e]``, which
    starts with e: the chain replaces e in its component cycle, and the
    vertex slot at e's head, if it has one, takes the chain's last piece.
    The caller adds whatever joins the pieces."""
    heads: dict[str, dict[int, str]] = {}
    ends = resolve_incidence(d).ends
    for e, pieces in splits.items():
        head = ends.get(e, (None, None))[1]
        if head is not None:
            heads.setdefault(head[0], {})[head[1]] = pieces[-1]
    crossings = tuple(
        replace(x, edges=tuple(heads[x.id].get(i, e) for i, e in enumerate(x.edges)))
        if x.id in heads else x
        for x in d.crossings
    )
    boxes = []
    for b in d.boxes:
        if b.id in heads:
            layout, strands = _box_layout(b), list(b.strands)
            for slot, new in heads[b.id].items():
                row, side = layout[slot]
                strands[row] = replace(strands[row], **{side: new})
            b = replace(b, strands=tuple(strands))
        boxes.append(b)
    return Diagram(d.name, _recut(d, splits), crossings, tuple(boxes))


def _geometric(d: Diagram, *xids: str) -> list[Crossing]:
    """The crossings ``xids`` of a move site; MoveError if one is abstract."""
    xs = [d.crossing(xid) for xid in xids]
    for x in xs:
        if not x.is_geometric:
            raise MoveError(f"crossing {x.id} is abstract")
    return xs


def _unthreaded(d: Diagram, edges, what: str) -> None:
    """Refuse a move site whose ``edges`` pass through a round component."""
    for c in d.components:
        if c.is_round and any(p.edge in edges for p in c.through):
            raise MoveError(f"{what} through round component {c.id}")


def _delete(d: Diagram, xids, edges) -> Diagram:
    """Drop the crossings ``xids`` and the ``edges`` between them, then
    fuse the loose ends."""
    return normalize(replace(
        d,
        components=_recut(d, {e: () for e in edges}),
        crossings=tuple(x for x in d.crossings if x.id not in xids),
    ))


def r1_insert(d: Diagram, edge: str, sign: int) -> Diagram:
    """Add a kink on the given edge; writhe changes by the sign, framings
    do not."""
    if not _is_sign(sign):
        raise MoveError("kink sign must be +-1")
    owner = d.edge_owner()
    if edge not in owner:
        raise MoveError(f"no edge {edge!r}")
    g, f = d.fresh_edges(2)
    d2 = _split_edges(d, {edge: [edge, g, f]})
    x = Crossing(
        id=d.fresh_id("r1_"),
        sign=sign,
        edges=(edge, g, g, f),
        over=1 if sign > 0 else 0,
    )
    return replace(d2, crossings=d2.crossings + (x,))


def r1_remove(d: Diagram, xid: str) -> Diagram:
    """Remove a kink crossing (a crossing whose two strands share an edge
    bounding a monogon)."""
    (x,) = _geometric(d, xid)
    a, b = x.strand_pairs()
    shared = set(a) & set(b)
    # the monogon loop occupies two adjacent slots; on a two-edge unknot
    # curl both edges qualify and either removal is legal
    g = None
    for cand in sorted(shared):
        slots = [i for i, e in enumerate(x.edges) if e == cand]
        if len(slots) == 2 and slots[1] - slots[0] in (1, 3):
            g = cand
            break
    if g is None:
        raise MoveError(f"crossing {xid} is not a kink bounding a monogon")
    _unthreaded(d, (g,), f"kink loop {g} passes")
    return _delete(d, (xid,), (g,))


def _with_derived_signs(d: Diagram, ids: set[str]) -> Diagram:
    inc = resolve_incidence(d)
    crossings = tuple(
        replace(x, sign=derived_sign(d, inc, x)) if x.id in ids else x
        for x in d.crossings
    )
    return replace(d, crossings=crossings)


def _share_face(d: Diagram, e: str, f: str) -> bool:
    inc = resolve_incidence(d)
    if e not in inc.ends or f not in inc.ends:
        return True  # a free loop floats in whichever face we need
    for face in trace_faces(inc):
        es = {dart[0] for dart in face}
        if e in es and f in es:
            return True
    return False


def r2_insert(d: Diagram, over_edge: str, under_edge: str) -> Diagram:
    """Push over_edge across under_edge, creating two crossings of opposite
    sign; the two edges must co-bound a face."""
    owner = d.edge_owner()
    for e in (over_edge, under_edge):
        if e not in owner:
            raise MoveError(f"no edge {e!r}")
    if over_edge == under_edge:
        raise MoveError("R2 needs two distinct edges")
    dn = normalize(d)
    if over_edge not in dn.edge_owner() or under_edge not in dn.edge_owner():
        raise MoveError("site edges vanish under normalization")
    if not _share_face(dn, over_edge, under_edge):
        raise MoveError(f"edges {over_edge},{under_edge} do not share a face")
    em, e2, fm, f2 = dn.fresh_edges(4)
    base = _split_edges(dn, {over_edge: [over_edge, em, e2],
                             under_edge: [under_edge, fm, f2]})
    x1id, x2id = base.fresh_id("r2a_"), base.fresh_id("r2b_")
    # four planar layouts: the first crossing on the under pieces
    # (under_edge, fm) or on (fm, f2), each with both relative directions
    # of the strands along the shared face; take the first that validates
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
            cand = _with_derived_signs(normalize(cand), {x1id, x2id})
        except DiagramError as err:
            last_err = err
            continue
        if not validate(cand):
            return cand
    raise MoveError(f"no planar R2 layout at ({over_edge},{under_edge}): {last_err}")


def r2_remove(d: Diagram, xid1: str, xid2: str) -> Diagram:
    """Cancel two crossings that share both strands across a bigon."""
    x1, x2 = _geometric(d, xid1, xid2)
    shared = set(x1.edges) & set(x2.edges)
    if len(shared) < 2:
        raise MoveError(f"crossings {xid1},{xid2} share {len(shared)} edges")
    if x1.sign + x2.sign != 0:
        raise MoveError("crossing signs do not cancel")
    inc = resolve_incidence(normalize(d))
    bigons = {
        frozenset(dart[0] for dart in face)
        for face in trace_faces(inc)
        if len(face) == 2
    }

    def is_site(em, fm):
        """The shared pair must lie on opposite strands of both crossings,
        with a consistent over/under pattern, bounding a bigon."""
        for x in (x1, x2):
            pairs = x.strand_pairs()
            on0 = (em in pairs[0]) + (fm in pairs[0])
            on1 = (em in pairs[1]) + (fm in pairs[1])
            if on0 != 1 or on1 != 1:
                return False
        if (em in x1.over_pair()) != (em in x2.over_pair()):
            return False
        return frozenset((em, fm)) in bigons

    site = next(
        (
            pair
            for pair in itertools.combinations(sorted(shared), 2)
            if is_site(*pair)
        ),
        None,
    )
    if site is None:
        raise MoveError(f"crossings {xid1},{xid2} do not bound a cancelling bigon")
    _unthreaded(d, site, "bigon edges pass")
    return _delete(d, (xid1, xid2), site)


def r3(d: Diagram, xid1: str, xid2: str, xid3: str) -> Diagram:
    """Slide the strand passing crossings xid1 and xid2 across the crossing
    xid3 of the other two strands.  The three crossings must bound a
    triangular face, and the moving strand must be over (or under) at both
    of its crossings."""
    d = normalize(d)
    x, y, z = _geometric(d, xid1, xid2, xid3)

    inc = resolve_incidence(d)

    def joins(e: str) -> frozenset:
        tail, head = inc.ends[e]
        return frozenset((tail[0], head[0]))

    site = None
    for face in trace_faces(inc):
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
        raise MoveError(f"crossings {xid1},{xid2},{xid3} bound no triangle")
    a_t, b_t, c_t = site
    if (a_t in x.over_pair()) != (a_t in y.over_pair()):
        raise MoveError("moving strand is not over (or under) both crossings")
    _unthreaded(d, (b_t, c_t), "triangle edges pass")

    nb, nc = d.fresh_edges(2)

    def pair_slots(w: Crossing, e: str) -> tuple[int, int]:
        """Slots (edge's own, strand mate's) of the strand containing e."""
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
        raise MoveError("triangle sides meet z on a single strand")
    b_near = x.edges[bx_near]
    b_far = z.edges[bz_far]
    c_near = y.edges[cy_near]
    c_far = z.edges[cz_far]

    # the moving strand's two crossings swap order along it
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
        raise MoveError("moving strand does not run between its crossings")

    def rewire(w: Crossing, slot_map: dict[int, str]) -> Crossing:
        edges = tuple(
            slot_map.get(i, e) for i, e in enumerate(w.edges)
        )
        return replace(w, edges=edges)

    crossings = []
    for w in d.crossings:
        if w.id == x.id:
            w = rewire(w, {bx_t: b_far, bx_near: nb, **x_map})
        elif w.id == y.id:
            w = rewire(w, {cy_t: c_far, cy_near: nc, **y_map})
        elif w.id == z.id:
            w = rewire(w, {bz_t: b_near, bz_far: nb, cz_t: c_near, cz_far: nc})
        crossings.append(w)
    comps = _recut(d, {b_t: (nb,), c_t: (nc,)})
    return replace(d, components=comps, crossings=tuple(crossings))
