"""Seeded workloads for the kirby-calc benchmark.

Each workload is a fixed list of operations (``Op``) that one round runs in
order.  Inputs come from ``--seed`` alone and reach the program as ``.kd``
text, parsed by ``kirby.dsl.parse`` exactly as ``kirby invariants FILE``
would; ``corpus`` instead reads the bundled sources through
``kirby.corpus.load_document``.  A round never depends on the previous one:
stateful sequences (moves, search pipelines) restart from the parsed
inputs at the start of every round.

``spec`` records what the generator put into the inputs, so that the
oracles in ``oracles.py`` can compute expected answers without asking the
program.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable

WORKLOADS = ("corpus", "links", "moves", "search")

# An operation that runs this long has hung; it counts as an unexpected
# failure and makes the run incorrect.
SAFETY_LIMIT_S = 20.0

# links: generated framed links, {n: how many links of that size}.  Per
# round 27 operations are faster than the ten-component linking_matrix
# (whose cost the seed does not change) and 28 are slower, so the median
# falls on the fourth of its six samples; the 90th percentile falls between
# the two 24-component intersection_form samples.  Neither sits on the jump
# between two operation classes.  invariant_report (which
# computes boundary H1 through the Smith form) only runs where the Smith
# form is known to finish; from about 12 components on it mostly does not.
LINK_COPIES = {4: 4, 5: 3, 6: 1, 7: 1, 8: 2, 10: 6, 12: 1, 16: 1, 20: 1, 24: 2, 28: 1, 32: 1}
REPORT_MAX_N = 8
# The kept failures: boundary_H1 on two fixed 16-component links.  Their
# inputs do not depend on --seed; with the current Smith form neither
# finishes within 20 s, so each fails at KEPT_LIMIT_S in every run.  Once
# one finishes, its answer is checked like any other.
KEPT_N = 16
KEPT_SEEDS = (16001, 16002)
KEPT_LIMIT_S = 0.5

# moves: generated handlebodies (total component counts, HANDLEBODIES_PER_SIZE
# of each) and the README's -2/-2 plumbing chain.  Every handlebody of a
# size runs the same template of move kinds; the seed picks components,
# strands and signs.  So the operation list, and the cost of a round, hardly
# depend on the seed.
MOVE_SIZES = (3, 4, 5, 6, 7, 8)
HANDLEBODIES_PER_SIZE = 6
MOVE_TEMPLATE = ("slide", "unslide", "blowup", "blowdown", "slide", "unslide",
                 "blowup", "blowdown", "slide", "unslide")
BLOWUP_MAX_COMPONENTS = 7  # blow up only while the result has <= 8 components
PLUMBING_SLIDES = 11

# search: torus knots T(2,q) and seeded form pairs.
TORUS_QS = tuple(range(3, 23, 2))
RAW_S3_MAX_Q = 5
FORM_PAIRS = 8
# (summand name, pos, neg, odd): the building blocks of the form pairs
FORM_SUMMANDS = (
    ("<1>", 1, 0, True),
    ("<-1>", 0, 1, True),
    ("H", 1, 1, False),
    ("E8", 8, 0, False),
    ("-E8", 0, 8, False),
    ("E(1)", 1, 9, True),
    ("E(2)", 3, 19, False),
)


@dataclass
class Op:
    """One timed operation.

    ``call`` does the work and returns the program's answer.  ``digest``
    turns that answer into a small comparable value, outside the timed
    region; the digests of the first round go to the oracles and every
    later round must reproduce them.
    """

    label: str
    cls: str
    size: int
    call: Callable[[], Any]
    digest: Callable[[Any], Any] = lambda value: value
    limit: float = SAFETY_LIMIT_S
    kept: bool = False  # may run out of ``limit``; that failure is counted, not an error


@dataclass
class Workload:
    name: str
    seed: int
    text: str | None  # the .kd source handed to the program; None for corpus
    spec: dict = field(default_factory=dict)


def build(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return {"corpus": _corpus, "links": _links, "moves": _moves, "search": _search}[name](seed)


def load(w: Workload, kirby) -> Any:
    """Parse the workload's inputs with the program (the set-up step)."""
    if w.text is None:
        return kirby.corpus.load_document()
    return kirby.dsl.parse(w.text)


def operations(w: Workload, doc, kirby) -> list[Op]:
    return {
        "corpus": _corpus_ops,
        "links": _links_ops,
        "moves": _moves_ops,
        "search": _search_ops,
    }[w.name](w, doc, kirby)


def _sign(v: int) -> str:
    return "+" if v > 0 else "-"


# ---------------------------------------------------------------------------
# corpus: every bundled case, as `kirby corpus verify` runs it


def _corpus(seed: int) -> Workload:
    # The corpus is fixed; the seed only names the run.
    return Workload("corpus", seed, None)


def _corpus_ops(w, doc, kirby):
    corpus = kirby.corpus
    ops = []
    for name in sorted(corpus.cases()):
        kind = corpus.cases()[name].kind
        ops.append(
            Op(
                label=name,
                cls=kind,
                size=0,
                call=lambda name=name: corpus.verify_corpus([name], doc),
                digest=lambda rep: [(r.name, r.ok, r.diffs) for r in rep.results],
            )
        )
    return ops


# ---------------------------------------------------------------------------
# links: n-component framed links written with abstract `across` records


def _balanced(rng: random.Random, values, count: int) -> list[int]:
    """``count`` values cycling through ``values``, in seeded order: every
    value appears equally often, so the size of the diagram is set by
    ``count`` alone while the seed decides where each value goes."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def link_spec(rng: random.Random, n: int) -> dict:
    """Framings in [-3, 3] and linking numbers in [-2, 2]."""
    framings = _balanced(rng, range(-3, 4), n)
    pairs = list(itertools.combinations(range(n), 2))
    values = _balanced(rng, (0, 1, -1, 2, -2), len(pairs))
    lk = {pair: v for pair, v in zip(pairs, values) if v}
    return {"n": n, "framings": framings, "lk": lk}


def link_kd(name: str, spec: dict) -> str:
    lines = [f"diagram {name} {{"]
    for i, f in enumerate(spec["framings"]):
        lines.append(f"  component c{i} kind=framed framing={f};")
    k = 0
    for (i, j), v in sorted(spec["lk"].items()):
        for _ in range(2 * abs(v)):
            lines.append(f"  across x{k} between=(c{i},c{j}) sign={_sign(v)};")
            k += 1
    lines.append("}")
    return "\n".join(lines) + "\n"


def link_matrix(spec: dict) -> list[list[int]]:
    n = spec["n"]
    q = [[0] * n for _ in range(n)]
    for i, f in enumerate(spec["framings"]):
        q[i][i] = f
    for (i, j), v in spec["lk"].items():
        q[i][j] = q[j][i] = v
    return q


def _links(seed: int) -> Workload:
    rng = random.Random(seed)
    links = {
        f"L{n}_{copy}": link_spec(rng, n) for n, copies in LINK_COPIES.items() for copy in range(copies)
    }
    kept = {
        f"H{KEPT_N}_{k}": link_spec(random.Random(s), KEPT_N)
        for k, s in enumerate(KEPT_SEEDS)
    }
    text = "".join(link_kd(name, spec) for name, spec in {**links, **kept}.items())
    return Workload("links", seed, text, {"links": links, "kept": kept})


def _links_ops(w, doc, kirby):
    hb, pdcode = kirby.handlebody, kirby.pdcode
    ops = []
    for name, spec in w.spec["links"].items():
        d = doc.diagrams[name]
        n = spec["n"]
        ops.append(
            Op(f"{name}.linking_matrix", "linking_matrix", n,
               lambda d=d: pdcode.linking_matrix(d))
        )
        ops.append(
            Op(f"{name}.intersection_form", "intersection_form", n,
               lambda d=d: hb.intersection_form(hb.Handlebody(d)).classify())
        )
        if n <= REPORT_MAX_N:
            ops.append(
                Op(f"{name}.invariant_report", "invariant_report", n,
                   lambda d=d: hb.invariant_report(hb.Handlebody(d)),
                   digest=lambda r: json.dumps(r, sort_keys=True))
            )
    for name in w.spec["kept"]:
        d = doc.diagrams[name]
        ops.append(
            Op(f"{name}.boundary_H1", "boundary_H1", KEPT_N,
               lambda d=d: hb.boundary_H1(hb.Handlebody(d)), digest=str,
               limit=KEPT_LIMIT_S, kept=True)
        )
    return ops


# ---------------------------------------------------------------------------
# moves: move sequences on generated handlebodies, plus the plumbing chain
#
# A generated handlebody has k dotted circles m0..m{k-1} and framed
# components c0..; c_j passes once through m_j (its cancelling partner),
# other framed components may pass through the dots too.  Partners are never
# the moving handle of a slide, so every planned cancellation stays legal.
# Blowups are undone by the very next move, because a slide re-encodes the
# new unknot as a linked loop that blowdown refuses.


def handlebody_spec(rng: random.Random, size: int) -> dict:
    """Every pair of framed components links once, with a seeded sign, and
    every dot carries its partner plus two seeded passes: the amount of
    diagram a move has to scan depends on the size alone."""
    k = 1 if size <= 4 else 2
    f = size - k
    framings = [rng.randint(-3, 3) for _ in range(f)]
    lk = {pair: rng.choice((1, -1)) for pair in itertools.combinations(range(f), 2)}
    dots = []
    for m in range(k):
        passes = [(m, 0, rng.choice((1, -1)))]  # (framed index, edge index, sign)
        for _ in range(2):
            passes.append((rng.randrange(k, f), rng.randint(0, 1), rng.choice((1, -1))))
        dots.append(passes)
    return {"framings": framings, "lk": lk, "dots": dots}


def handlebody_kd(name: str, spec: dict) -> str:
    lines = [f"diagram {name} {{"]
    for i, fr in enumerate(spec["framings"]):
        lines.append(f"  component c{i} kind=framed framing={fr} edges=(c{i}e0,c{i}e1);")
    for m, passes in enumerate(spec["dots"]):
        through = ",".join(f"{_sign(s)}c{i}e{e}" for i, e, s in passes)
        lines.append(f"  component m{m} kind=dot through=({through});")
    k = 0
    for (i, j), v in sorted(spec["lk"].items()):
        for _ in range(2 * abs(v)):
            lines.append(f"  across x{k} between=(c{i},c{j}) sign={_sign(v)};")
            k += 1
    lines.append("}")
    return "\n".join(lines) + "\n"


def handlebody_matrix(spec: dict) -> tuple[list[str], list[list[int]]]:
    """Component ids in diagram order and the linking matrix (dots: 0)."""
    f = len(spec["framings"])
    ids = [f"c{i}" for i in range(f)] + [f"m{m}" for m in range(len(spec["dots"]))]
    q = [[0] * len(ids) for _ in ids]
    for i, fr in enumerate(spec["framings"]):
        q[i][i] = fr
    for (i, j), v in spec["lk"].items():
        q[i][j] = q[j][i] = v
    for m, passes in enumerate(spec["dots"]):
        for i, _, s in passes:
            q[f + m][i] += s
            q[i][f + m] += s
    return ids, q


def plan_moves(rng: random.Random, spec: dict) -> list[tuple]:
    """A legal move sequence: ("slide", a, c, sign), ("blowup", sign,
    ((component, edge index, sign), ...)), ("blowdown",), ("cancel", dot,
    framed).  MOVE_TEMPLATE first, then one cancellation per dotted circle.

    Each slide is followed by the slide of the opposite sign that undoes it
    and each blowup by its blowdown, so linking numbers stay small and a
    round costs about the same on every seed; the growing case is the
    plumbing chain."""
    f, k = len(spec["framings"]), len(spec["dots"])
    framed = [f"c{i}" for i in range(f)]
    movers = framed[k:]  # partners c0..c{k-1} never move, so they stay cancellable
    kinds = list(MOVE_TEMPLATE)
    if f + k > BLOWUP_MAX_COMPONENTS:
        kinds = [{"blowup": "slide", "blowdown": "unslide"}.get(kind, kind) for kind in kinds]
    plan: list[tuple] = []
    for kind in kinds:
        if kind == "slide":
            a = rng.choice(movers)
            c = rng.choice([x for x in framed if x != a])
            plan.append(("slide", a, c, rng.choice((1, -1))))
        elif kind == "unslide":
            _, a, c, sign = plan[-1]
            plan.append(("slide", a, c, -sign))
        elif kind == "blowup":
            through = tuple((c, rng.randint(0, 1), rng.choice((1, -1)))
                            for c in rng.sample(framed, 2))
            plan.append(("blowup", rng.choice((1, -1)), through))
        else:
            plan.append(("blowdown",))
    plan += [("cancel", f"m{m}", f"c{m}") for m in range(k)]
    return plan


PLUMBING_KD = """diagram P22 {
  component a kind=framed framing=-2;
  component b kind=framed framing=-2;
  across p0 between=(a,b) sign=+;
  across p1 between=(a,b) sign=+;
}
"""


def plumbing_plan() -> list[tuple]:
    return [
        ("slide", "a", "b", 1) if k % 2 == 0 else ("slide", "b", "a", 1)
        for k in range(PLUMBING_SLIDES)
    ]


def _moves(seed: int) -> Workload:
    rng = random.Random(seed)
    bodies = {}
    for size in MOVE_SIZES:
        for copy in range(HANDLEBODIES_PER_SIZE):
            spec = handlebody_spec(rng, size)
            spec["plan"] = plan_moves(rng, spec)
            bodies[f"B{size}_{copy}"] = spec
    text = "".join(handlebody_kd(name, spec) for name, spec in bodies.items())
    text += PLUMBING_KD
    return Workload("moves", seed, text, {"bodies": bodies, "plumbing": plumbing_plan()})


def _apply_move(hb, h, move):
    """Run one planned move on handlebody ``h``."""
    kind = move[0]
    if kind == "slide":
        return hb.slide(h, move[1], move[2], move[3])
    if kind == "blowup":
        d = h.diagram
        through = []
        for cid, e, s in move[2]:
            edges = d.component(cid).edges
            through.append((edges[e % len(edges)], s))
        return hb.blowup(h, move[1], through)
    if kind == "blowdown":
        return hb.blowdown(h, h.diagram.components[-1].id)
    if kind == "cancel":
        return hb.cancel_pair(h, move[1], move[2])
    raise ValueError(f"unknown move {move!r}")


def _move_ops(kirby, name, size, start, plan, cls=None):
    hb, pdcode = kirby.handlebody, kirby.pdcode
    state = {}

    def digest(value):
        h, h1 = value
        d = h.diagram
        return ([c.id for c in d.components], pdcode.linking_matrix(d), str(h1))

    ops = []
    for step, move in enumerate(plan):
        def call(step=step, move=move):
            h = start if step == 0 else state["h"]
            h = _apply_move(hb, h, move)
            state["h"] = h
            return h, hb.boundary_H1(h)

        ops.append(Op(f"{name}.{step}.{move[0]}", cls or move[0], size, call, digest))
    return ops


def _moves_ops(w, doc, kirby):
    hb = kirby.handlebody
    ops = []
    for name, spec in w.spec["bodies"].items():
        start = hb.Handlebody(doc.diagrams[name])
        size = len(spec["framings"]) + len(spec["dots"])
        ops.extend(_move_ops(kirby, name, size, start, spec["plan"]))
    ops.extend(_move_ops(kirby, "P22", 2, hb.Handlebody(doc.diagrams["P22"]),
                         w.spec["plumbing"], cls="plumbing_slide"))
    return ops


# ---------------------------------------------------------------------------
# search: torus knots T(2,q) and stable equivalence of unimodular forms


def torus_kd(name: str, q: int) -> str:
    return (
        f"diagram {name} {{\n"
        f"  component K kind=framed framing=0 edges=(k1,k2,k3,k4);\n"
        f"  box T halftwists={q} strands=((k1,k2,+),(k3,k4,+));\n"
        f"}}\n"
    )


def form_pair(rng: random.Random) -> tuple[list[str], list[str]]:
    """Two different sums of summands.  On two equal forms
    stably_equivalent returns at once, so a seed that drew one would run
    a cheaper round than the others."""
    names = [s[0] for s in FORM_SUMMANDS]
    weights = [4, 4, 3, 1, 1, 1, 1]
    while True:
        left, right = (rng.choices(names, weights, k=rng.randint(1, 3)) for _ in range(2))
        if left != right:
            return left, right


def build_form(forms, summands):
    parts = {
        "<1>": lambda: forms.diagonal_form(1),
        "<-1>": lambda: forms.diagonal_form(-1),
        "H": forms.hyperbolic_form,
        "E8": lambda: forms.e8_form(1),
        "-E8": lambda: forms.e8_form(-1),
        "E(1)": lambda: forms.elliptic_form(1),
        "E(2)": lambda: forms.elliptic_form(2),
    }
    out = parts[summands[0]]()
    for s in summands[1:]:
        out = out.direct_sum(parts[s]())
    return out


def _search(seed: int) -> Workload:
    rng = random.Random(seed)
    text = "".join(torus_kd(f"T{q}", q) + torus_kd(f"T{q}m", -q) for q in TORUS_QS)
    pairs = [form_pair(rng) for _ in range(FORM_PAIRS)]
    return Workload("search", seed, text, {"qs": list(TORUS_QS), "pairs": pairs})


def _search_ops(w, doc, kirby):
    gp, forms = kirby.grouppres, kirby.forms
    state = {}
    ops = []

    def step(label, cls, q, fn, key=None):
        def call():
            value = fn()
            if key is not None:
                state[key] = value
            return value

        ops.append(Op(label, cls, q, call))

    for q in w.spec["qs"]:
        knot, mirror = doc.diagrams[f"T{q}"], doc.diagrams[f"T{q}m"]
        step(f"T{q}.wirtinger", "wirtinger", q,
             lambda d=knot: gp.wirtinger(d), ("g", q))
        step(f"T{q}m.wirtinger", "wirtinger", q,
             lambda d=mirror: gp.wirtinger(d), ("gm", q))
        if q <= RAW_S3_MAX_Q:
            step(f"T{q}.homs_s3_raw", "homs_s3_raw", q,
                 lambda q=q: gp.enumerate_homs(state[("g", q)], 3))
        step(f"T{q}.tietze_simplify", "tietze_simplify", q,
             lambda q=q: gp.tietze_simplify(state[("g", q)]), ("s", q))
        for n in (4, 5):
            step(f"T{q}.homs_s{n}", f"homs_s{n}", q,
                 lambda q=q, n=n: gp.enumerate_homs(state[("s", q)].presentation, n))
        step(f"T{q}.tietze_equivalent", "tietze_equivalent", q,
             lambda q=q: gp.tietze_equivalent(state[("g", q)], state[("gm", q)]))
    for i, (left, right) in enumerate(w.spec["pairs"]):
        q1, q2 = build_form(forms, left), build_form(forms, right)
        step(f"F{i}.stably_equivalent", "stably_equivalent", q1.rank + q2.rank,
             lambda q1=q1, q2=q2: forms.stably_equivalent(q1, q2))
    return ops
