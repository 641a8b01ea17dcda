import importlib.util
import random
import sys
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import pytest

from kirby import handlebody, intmat, pdcode
from kirby.pdcode import Component, Crossing, Diagram, Pass


def random_unimodular(n: int, rng: random.Random, steps: int = 12):
    """Random product of elementary integer row operations (det = +-1),
    with its exact inverse."""
    m = intmat.identity(n)
    inv = intmat.identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if n == 1 or rng.random() < 0.2:
            # negate a row: self-inverse
            m[i] = [-x for x in m[i]]
            inv_col = [row[i] for row in inv]
            for r, v in zip(inv, inv_col):
                r[i] = -v
            continue
        c = rng.choice([-2, -1, 1, 2])
        # row i += c * row j  on m; the inverse gets col j -= c * col i
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        for row in inv:
            row[j] -= c * row[i]
    return m, inv


def bench_workloads():
    """The benchmark's input generators (bench/workloads.py, stdlib only)."""
    if "bench_workloads" not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[spec.name])
    return sys.modules["bench_workloads"]


def random_symmetric(n: int, rng: random.Random, lo: int = -3, hi: int = 3):
    q = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            q[i][j] = q[j][i] = rng.randint(lo, hi)
    return q


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


# -- the slide model: the algebraic writer as handlebody kept it before
# pdcode._from_words, a differential reference for slides, cancellations
# and ribbon complements


@dataclass
class Model:
    order: list[str]
    kind: dict[str, str]
    q: list[list[int]]  # linking matrix over ``order``, framings on the diagonal
    words: dict[str, list[tuple[str, int]]]  # framed id -> [(dot id, sign)]


def model_from_diagram(d: Diagram) -> Model:
    return Model(
        [c.id for c in d.components],
        {c.id: c.kind for c in d.components},
        pdcode.linking_matrix(d),
        pdcode._pass_words(d),
    )


def model_to_diagram(m: Model, name: str = "") -> Diagram:
    loop = {
        cid: f"{cid}.l" for cid in m.order if m.kind[cid] != pdcode.DOTTED
    }
    comps = []
    for i, cid in enumerate(m.order):
        if m.kind[cid] == pdcode.DOTTED:
            through = []
            for fid in sorted(m.words):
                for seq, (dot, s) in enumerate(m.words[fid]):
                    if dot == cid:
                        through.append(Pass(loop[fid], s, seq))
            comps.append(Component(cid, pdcode.DOTTED, through=tuple(through)))
        else:
            comps.append(
                Component(
                    cid,
                    m.kind[cid],
                    framing=m.q[i][i] if m.kind[cid] == pdcode.FRAMED else None,
                    edges=(loop[cid],),
                )
            )
    pos = {cid: i for i, cid in enumerate(m.order)}
    crossings = []
    for a, b in combinations(sorted(m.order), 2):
        v = m.q[pos[a]][pos[b]]
        if pdcode.DOTTED in (m.kind[a], m.kind[b]):
            # passes already account for part of a dotted circle's linking
            v -= sum(s for dot, s in m.words.get(a, m.words.get(b, [])) if dot in (a, b))
        if v:
            crossings.append(Crossing(
                f"ax{len(crossings)}", 1 if v > 0 else -1,
                between=(a, b), count=2 * abs(v),
            ))
    return Diagram(name, tuple(comps), tuple(crossings))


def model_slide(h, a, c, sign=1):
    """``handlebody.slide`` on a legal site, through the model."""
    m = model_from_diagram(h.diagram)
    handlebody._slide_rows(m.q, m.order.index(a), m.order.index(c), sign)
    wc = m.words.get(c, [])
    add = wc if sign > 0 else [(dot, -s) for dot, s in reversed(wc)]
    m.words[a] = m.words.get(a, []) + list(add)
    return h.with_diagram(model_to_diagram(m, h.diagram.name))


def model_cancel_pair(h, dot, framed):
    """``handlebody.cancel_pair`` on a legal site, through the model."""
    m = model_from_diagram(h.diagram)
    wf = m.words.get(framed, [])
    ((idx, s),) = [(i, s) for i, (dt, s) in enumerate(wf) if dt == dot]

    def inv(word):
        return [(dt, -sg) for dt, sg in reversed(word)]

    u, v = wf[:idx], wf[idx + 1:]
    rep = inv(u) + inv(v)
    if s < 0:
        rep = inv(rep)
    pos = {x: i for i, x in enumerate(m.order)}
    new_words = {}
    for x, wx in m.words.items():
        if x == framed:
            continue
        out = []
        count = 0
        for dt, sg in wx:
            if dt == dot:
                out.extend(rep if sg > 0 else inv(rep))
                count -= s * sg
            else:
                out.append((dt, sg))
        new_words[x] = out
        handlebody._slide_rows(m.q, pos[x], pos[framed], count)
    keep = [pos[x] for x in m.order if x not in (dot, framed)]
    m.q = [[m.q[i][j] for j in keep] for i in keep]
    m.order = [m.order[i] for i in keep]
    m.words = new_words
    m.kind.pop(dot), m.kind.pop(framed)
    return h.with_diagram(model_to_diagram(m, h.diagram.name))
