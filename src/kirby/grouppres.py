"""Finitely presented groups: words, Tietze moves, abelianization, and
homomorphism counting into symmetric groups.

Words are tuples of nonzero ints: letter ``i+1`` is the i-th generator,
negative letters are inverses.  Relators are kept freely and cyclically
reduced.  Simplification works by logged Tietze moves, so every reduction
ships with a replayable certificate: applying the log to the input
presentation reproduces the output exactly.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType

from . import intmat, pdcode
from .intmat import AbelianGroup

Word = tuple[int, ...]


class GroupError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Words


def free_reduce(w) -> Word:
    out: list[int] = []
    for x in w:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def cyclic_reduce(w) -> Word:
    w = list(free_reduce(w))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def invert_word(w) -> Word:
    return tuple(-x for x in reversed(w))


def rotate_word(w, k: int) -> Word:
    if not w:
        return ()
    k %= len(w)
    return tuple(w[k:] + w[:k])


def parse_word(text: str, generators) -> Word:
    """Read a word like ``x y^-1 (x y)^2`` over the given generator names.

    Single-letter generators may be juxtaposed (``xyx``), and an uppercase
    letter stands for the inverse of its lowercase generator.
    """
    gens = list(generators)
    index = {g: i + 1 for i, g in enumerate(gens)}
    pos = 0
    n = len(text)

    def error(msg):
        return GroupError(f"column {pos + 1}: {msg}")

    def skip_ws():
        nonlocal pos
        while pos < n and (text[pos].isspace() or text[pos] in "*·"):
            pos += 1

    def parse_exponent() -> int:
        nonlocal pos
        skip_ws()
        if pos < n and text[pos] == "^":
            pos += 1
            skip_ws()
            start = pos
            if pos < n and text[pos] in "+-":
                pos += 1
            while pos < n and text[pos].isdecimal():
                pos += 1
            if pos == start or not text[start:pos].lstrip("+-"):
                raise error("malformed exponent")
            return int(text[start:pos])
        return 1

    def parse_atom() -> Word:
        nonlocal pos
        skip_ws()
        if pos >= n:
            raise error("expected a generator or '('")
        ch = text[pos]
        if ch == "(":
            pos += 1
            inner = parse_seq()
            skip_ws()
            if pos >= n or text[pos] != ")":
                raise error("unbalanced parenthesis")
            pos += 1
            base = inner
        else:
            # longest generator name match, then uppercase-inverse shorthand
            match = None
            for g in sorted(gens, key=len, reverse=True):
                if text.startswith(g, pos):
                    match = (g, 1)
                    break
            if match is None and ch.isupper() and ch.lower() in index:
                match = (ch.lower(), -1)
                pos += 1
            elif match is not None:
                pos += len(match[0])
            if match is None:
                raise error(f"unknown generator at {text[pos:pos + 8]!r}")
            g, s = match
            base = (s * index[g],)
        exp = parse_exponent()
        if exp < 0:
            base = invert_word(base)
            exp = -exp
        return base * exp

    def parse_seq() -> Word:
        nonlocal pos
        out: list[int] = []
        while True:
            skip_ws()
            if pos >= n or text[pos] == ")":
                return tuple(out)
            out.extend(parse_atom())

    word = parse_seq()
    if pos != n:
        raise error("trailing input")
    return free_reduce(word)


def format_word(w, generators) -> str:
    if not w:
        return "1"
    parts = []
    for x in w:
        name = generators[abs(x) - 1]
        parts.append(name if x > 0 else f"{name}^-1")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Presentations


@dataclass(frozen=True)
class GroupPresentation:
    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise GroupError("duplicate generator names")
        for r in self.relators:
            for x in r:
                if x == 0 or abs(x) > len(self.generators):
                    raise GroupError(f"letter {x} out of range")

    @staticmethod
    def make(generators, relators) -> "GroupPresentation":
        """Build a presentation; string relators are parsed, and all
        relators are freely and cyclically reduced with empties dropped."""
        generators = tuple(generators)
        words = []
        for r in relators:
            w = parse_word(r, generators) if isinstance(r, str) else tuple(r)
            w = cyclic_reduce(w)
            if w:
                words.append(w)
        return GroupPresentation(generators, tuple(words))

    @property
    def rank(self) -> int:
        return len(self.generators)

    def exponent_matrix(self) -> list[list[int]]:
        """Rows indexed by generators, columns by relators."""
        m = intmat.zeros(len(self.generators), len(self.relators))
        for j, r in enumerate(self.relators):
            for x in r:
                m[abs(x) - 1][j] += 1 if x > 0 else -1
        return m

    def abelianization(self) -> AbelianGroup:
        return intmat.cokernel(self.exponent_matrix(), ambient_rank=self.rank)

    def is_obviously_trivial(self) -> bool:
        return not self.generators

    def __str__(self) -> str:
        rels = ", ".join(format_word(r, self.generators) for r in self.relators)
        return f"<{', '.join(self.generators)} | {rels}>"


# ---------------------------------------------------------------------------
# Tietze moves with replayable logs
#
# A log is a list of steps; each step is a tuple whose first entry names
# the move:
#   ("invert", i)          relator i := its inverse
#   ("rotate", i, k)       relator i := cyclic rotation by k
#   ("multiply", i, j)     relator i := reduce(relator_i * relator_j), i != j
#   ("remove", i)          drop relator i (must be a rotation of another)
#   ("eliminate", g, i)    remove generator g using relator i, in which g
#                          occurs exactly once; substitutes everywhere
#
# Relators are kept cyclically reduced and nonempty: a relator that a step
# leaves empty is dropped right after that step, so every index refers to
# the list as the step before left it.  Log indices are positional at the
# time of their step: g counts the generators still present, from 1.
#
# While a log is applied, letters keep the ids of the presentation it
# started from, and only the result is renumbered.  That renumbering keeps
# the order of letters (negatives below positives, each side by id), so
# every comparison of words or ids that picks a step picks the same one
# as it would on renumbered words.


class _Tietze:
    """The working state of a Tietze log: the relators over the original
    generator ids, the ids still present (ascending), and per relator its
    letters sorted by id and the least id that occurs in it once (0 if
    none).  A relator's facts are recomputed only when it is edited."""

    __slots__ = ("names", "live", "rels", "facts")

    def __init__(self, g: GroupPresentation):
        self.names = g.generators
        self.live = list(range(1, g.rank + 1))
        self.rels = [w for w in map(cyclic_reduce, g.relators) if w]
        self.facts = list(map(_facts, self.rels))

    def edit(self, i: int, w: Word) -> None:
        """Relator i := w, dropped when w is empty."""
        if w:
            self.rels[i], self.facts[i] = w, _facts(w)
        else:
            del self.rels[i], self.facts[i]

    def presentation(self) -> GroupPresentation:
        """The state with its generators renumbered 1, 2, ... in id order."""
        number = {}
        for k, x in enumerate(self.live, 1):
            number[x], number[-x] = k, -k
        return GroupPresentation(
            tuple(self.names[x - 1] for x in self.live),
            tuple(tuple(map(number.__getitem__, r)) for r in self.rels),
        )


def _facts(w: Word) -> tuple[Word, int]:
    """(w's letters by id, the least id occurring once in w or 0)."""
    letters = tuple(sorted(map(abs, w)))
    last = len(letters) - 1
    for k, x in enumerate(letters):
        # sorted, x occurs once when neither neighbour equals it
        if (k == 0 or letters[k - 1] != x) and (k == last or letters[k + 1] != x):
            return letters, x
    return letters, 0


def apply_tietze(g: GroupPresentation, log) -> GroupPresentation:
    """Replay a Tietze log, checking each step's legality.  Empty
    relators of ``g`` are dropped before the first step."""
    state = _Tietze(g)
    for step in log:
        _apply_step(state, step)
    return state.presentation()


# the number of integer arguments of each Tietze step
_STEP_ARITY = {"invert": 1, "rotate": 2, "multiply": 2, "remove": 1, "eliminate": 2}


def _apply_step(state: _Tietze, step) -> None:
    """Check one Tietze step and apply it to the state in place."""
    if not (isinstance(step, tuple) and step and isinstance(step[0], str)):
        raise GroupError(f"malformed Tietze step {step!r}")
    op = step[0]
    if op not in _STEP_ARITY:
        raise GroupError(f"unknown Tietze step {step!r}")
    if len(step) != 1 + _STEP_ARITY[op] or any(type(a) is not int for a in step[1:]):
        raise GroupError(f"Tietze step {step!r}: {op} takes {_STEP_ARITY[op]} integer arguments")
    rels, facts = state.rels, state.facts

    def check(i: int) -> int:
        if not 0 <= i < len(rels):
            raise GroupError(f"relator index {i!r} out of range")
        return i

    # inverting or rotating a relator keeps its letters, so its facts stay
    if op == "invert":
        i = check(step[1])
        rels[i] = invert_word(rels[i])
    elif op == "rotate":
        i, k = check(step[1]), step[2]
        rels[i] = rotate_word(rels[i], k)
    elif op == "multiply":
        i, j = check(step[1]), check(step[2])
        if i == j:
            raise GroupError("cannot multiply a relator into itself")
        state.edit(i, cyclic_reduce(rels[i] + rels[j]))
    elif op == "remove":
        # a rotation has the same letters, so only relators with the same
        # sorted letters are compared by least rotation
        i = check(step[1])
        letters, key = facts[i][0], _least_rotation(rels[i])
        if not any(
            k != i and f[0] == letters and _least_rotation(rels[k]) == key
            for k, f in enumerate(facts)
        ):
            raise GroupError(f"relator {i} is not redundant")
        del rels[i], facts[i]
    elif op == "eliminate":
        gen_idx, i = step[1], check(step[2])
        if not 1 <= gen_idx <= len(state.live):
            raise GroupError(f"generator index {gen_idx!r} out of range")
        _eliminate(state, gen_idx, i)


def _least_rotation(w: Word) -> Word:
    """The least of the cyclic rotations of w: equal exactly for
    cyclically equal words."""
    return min((w[k:] + w[:k] for k in range(len(w))), default=w)


def _eliminate(state: _Tietze, gen_idx: int, i: int) -> None:
    """Remove the ``gen_idx``-th (1-based) remaining generator using
    relator i, in which it occurs exactly once, and substitute for it in
    the relators that contain it."""
    gen = state.live[gen_idx - 1]
    r = state.rels[i]
    count = r.count(gen) + r.count(-gen)
    if count != 1:
        raise GroupError(f"generator occurs {count} times in relator {i}")
    # r = u g^e v = 1  =>  g^e = u^-1 v^-1
    k = r.index(gen) if gen in r else r.index(-gen)
    u, e, v = r[:k], r[k], r[k + 1:]
    repl = invert_word(u) + invert_word(v)
    if e < 0:
        repl = invert_word(repl)
    image = {gen: repl, -gen: invert_word(repl)}

    del state.live[gen_idx - 1], state.rels[i], state.facts[i]
    # walk down, so that dropping an emptied relator moves no index to come
    for j in range(len(state.rels) - 1, -1, -1):
        s = state.rels[j]
        if gen in s or -gen in s:
            state.edit(j, cyclic_reduce([y for x in s for y in image.get(x, (x,))]))


@dataclass(frozen=True)
class Simplification:
    presentation: GroupPresentation
    log: tuple = ()
    budget_exhausted: bool = False


def tietze_simplify(g: GroupPresentation, budget: int = 1000) -> Simplification:
    """Greedy deterministic simplification: drop redundant relators,
    eliminate generators with a single occurrence in some relator, and
    shorten relators against each other.  Every step is logged."""
    state = _Tietze(g)
    log: list[tuple] = []

    def result(exhausted: bool) -> Simplification:
        return Simplification(state.presentation(), tuple(log), exhausted)

    while steps := _next_steps(state):
        for step in steps:
            if len(log) >= budget:
                return result(True)
            log.append(step)
            _apply_step(state, step)
    return result(False)


def _next_steps(state: _Tietze) -> list[tuple]:
    """The steps of the next greedy move, or none when no move applies."""
    rels, facts = state.rels, state.facts
    # drop a duplicate relator, compared by least rotation; inverting
    # first when it only duplicates the inverse of an earlier one.  A
    # rotation of r or of r^-1 has the letters of r up to sign, so only
    # relators in one bucket of sorted letters can match: least rotations
    # are taken once a second relator reaches a bucket, once per relator
    lone: dict[Word, Word] = {}  # bucket -> its only relator so far
    keyed: dict[Word, tuple[set[Word], set[Word]]] = {}  # bucket -> (seen, seen_inverse)
    for i, (bucket, _) in enumerate(facts):
        r = rels[i]
        if bucket not in keyed:
            if bucket not in lone:
                lone[bucket] = r
                continue
            first = lone.pop(bucket)
            keyed[bucket] = ({_least_rotation(first)}, {_least_rotation(invert_word(first))})
        seen, seen_inverse = keyed[bucket]
        key = _least_rotation(r)
        if key in seen:
            return [("remove", i)]
        if key in seen_inverse:
            return [("invert", i), ("remove", i)]
        seen.add(key)
        seen_inverse.add(_least_rotation(invert_word(r)))

    # eliminate a generator occurring once in some relator; prefer the
    # shortest relator, then lowest indices
    best = None
    for i, (bucket, once) in enumerate(facts):
        if once and (best is None or len(bucket) < best[0]):
            best = (len(bucket), i, once)
    if best is not None:
        _, i, gen = best
        return [("eliminate", bisect.bisect_left(state.live, gen) + 1, i)]

    # shorten some relator by multiplying with a rotated (possibly
    # inverted) other relator
    best = None
    for i, j in itertools.permutations(range(len(rels)), 2):
        for inv in (0, 1):
            rj = invert_word(rels[j]) if inv else rels[j]
            for k in range(len(rj)):
                gain = len(rels[i]) - len(cyclic_reduce(rels[i] + rotate_word(rj, k)))
                if gain > 0:
                    key = (-gain, i, j, inv, k)
                    if best is None or key < best:
                        best = key
    if best is None:
        return []
    _, i, j, inv, k = best
    return [("invert", j)] * inv + ([("rotate", j, k)] if k else []) + [("multiply", i, j)]


@dataclass(frozen=True)
class EquivalenceCertificate:
    """The two simplification logs, and the relabelling that matches the
    simplified relators: p1's i-th generator maps to the second name of
    ``generator_map[i]`` raised to ``generator_signs[i]``."""

    log1: tuple
    log2: tuple
    generator_map: tuple[tuple[str, str], ...]
    generator_signs: tuple[int, ...] = ()


def tietze_equivalent(
    g1: GroupPresentation, g2: GroupPresentation, budget: int = 1000
) -> EquivalenceCertificate | None:
    """Try to certify that two presentations give isomorphic groups by
    simplifying both and matching the results up to renaming/inverting
    generators.  None means "not certified", not "non-isomorphic"."""
    s1 = tietze_simplify(g1, budget)
    s2 = tietze_simplify(g2, budget)
    p1, p2 = s1.presentation, s2.presentation
    if p1.rank != p2.rank or len(p1.relators) != len(p2.relators):
        return None

    def class_key(w: Word) -> Word:
        # one key for all rotations of w and of its inverse
        return min(_least_rotation(w), _least_rotation(invert_word(w)))

    want = Counter(map(class_key, p2.relators))
    n = p1.rank
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            image = {i + 1: signs[i] * (perm[i] + 1) for i in range(n)}
            image.update({-a: -b for a, b in image.items()})
            if Counter(class_key(tuple(image[x] for x in r)) for r in p1.relators) == want:
                gmap = tuple((p1.generators[i], p2.generators[perm[i]]) for i in range(n))
                return EquivalenceCertificate(s1.log, s2.log, gmap, signs)
    return None


# ---------------------------------------------------------------------------
# Homomorphisms into symmetric groups


@functools.lru_cache(maxsize=None)
def _perm_table(n: int):
    """S_n as (elems, index, table, inverse), built on first use for each
    n and shared read-only afterwards.

    ``elems`` are the sorted one-line tuples and ``index`` their positions.
    ``table[p][q]`` is the index of p∘q, with (p∘q)(k) = p(q(k)).
    """
    elems = tuple(sorted(itertools.permutations(range(n))))
    index = {p: i for i, p in enumerate(elems)}
    table = tuple(
        tuple(index[tuple(p[q[k]] for k in range(n))] for q in elems) for p in elems
    )
    inverse = []
    for p in elems:
        inv = [0] * n
        for a, b in enumerate(p):
            inv[b] = a
        inverse.append(index[tuple(inv)])
    return elems, MappingProxyType(index), table, tuple(inverse)


@functools.lru_cache(maxsize=None)
def _orbits(n: int, group: tuple[int, ...]) -> tuple:
    """The orbits of a subgroup of S_n acting on S_n by conjugation, as
    (representative, orbit size, stabilizer) for each orbit, filled in on
    first use for each (n, group).

    ``group`` and each stabilizer are ascending tuples of table indices;
    the representatives are the least index of their orbits, ascending.
    With ``group`` all of S_n these are the conjugacy classes and the
    centralizers of their representatives.
    """
    _, _, table, inverse = _perm_table(n)
    seen = set()
    out = []
    for x in range(len(table)):
        if x not in seen:
            orbit = set()
            stabilizer = []
            for h in group:
                y = table[table[h][x]][inverse[h]]
                orbit.add(y)
                if y == x:
                    stabilizer.append(h)
            seen |= orbit
            out.append((x, len(orbit), tuple(stabilizer)))
    return tuple(out)


def evaluate_word(w: Word, images, table, inverse, identity: int) -> int:
    """Evaluate a word at permutation images (indices into the table).
    Words act as functions composed right to left: (xy)(p) = x(y(p))."""
    acc = identity
    for x in w:
        g = images[abs(x) - 1]
        if x < 0:
            g = inverse[g]
        acc = table[acc][g]
    return acc


@dataclass(frozen=True)
class QuotientCount:
    total: int
    surjective: int
    witnesses: tuple = ()  # surjective homs as tuples of one-line perms


def enumerate_homs(g: GroupPresentation, n: int, witnesses: bool = True) -> QuotientCount:
    """Count the homomorphisms into the symmetric group S_n, and the
    surjective ones.  The counts are exact.

    A depth-first search binds the generators one at a time and checks
    each relator as soon as its last generator has an image.  It walks a
    stabilizer chain: at each level H is the subgroup of S_n that fixes
    every image bound so far under conjugation (all of S_n at the first
    level).  The next generator takes only one representative x of each
    orbit of H acting on S_n by conjugation, its branch counts the orbit
    size times, and the level below runs with H replaced by the stabilizer
    of x in H.  Conjugating by h in H fixes the bound images, so it maps
    the assignments that bind x one-to-one onto those that bind h x h^-1,
    and keeps relators and surjectivity; each leaf therefore stands for
    its whole S_n-conjugacy class of homomorphisms, and its weight is that
    class's size.  Once H is trivial every orbit is a single element.  The
    witnesses are all conjugates of the surjective homomorphisms found,
    ordered by their images as in ``itertools.product`` over the sorted
    elements of S_n.
    """
    if n < 1 or n > 6:
        raise GroupError("supported range is 1 <= n <= 6")
    elems, index, table, inverse = _perm_table(n)
    identity = index[tuple(range(n))]
    order = len(elems)
    plan = _binding_order(g)
    images = [identity] * g.rank
    total = surj = 0
    found = []

    def bind(level: int, weight: int, group: tuple[int, ...]) -> None:
        nonlocal total, surj
        if level == len(plan):
            total += weight
            if _generates(images, table, identity, order):
                surj += weight
                if witnesses:
                    found.append(tuple(images))
            return
        gen, rels = plan[level]
        for x, size, stabilizer in _orbits(n, group):
            images[gen] = x
            for r in rels:
                if evaluate_word(r, images, table, inverse, identity) != identity:
                    break
            else:
                bind(level + 1, weight * size, stabilizer)

    bind(0, 1, tuple(range(order)))
    conjugates = sorted({
        tuple(table[table[s][x]][inverse[s]] for x in h) for h in found for s in range(order)
    })
    return QuotientCount(total, surj, tuple(tuple(elems[x] for x in h) for h in conjugates))


def _binding_order(g: GroupPresentation) -> list[tuple[int, tuple[Word, ...]]]:
    """(generator, relators it completes) in the order the search binds
    them: next the generator that completes the most relators, then the
    one that shares relators with the most bound generators, then the
    lowest."""
    pending = [(frozenset(abs(x) - 1 for x in r), r) for r in g.relators]
    neighbours = [set() for _ in range(g.rank)]
    for gens, _ in pending:
        for gen in gens:
            neighbours[gen] |= gens
    bound: set[int] = set()
    plan = []
    remaining = list(range(g.rank))

    def score(gen):
        completes = sum(1 for gens, _ in pending if gen in gens and gens <= bound | {gen})
        return completes, len(neighbours[gen] & bound), -gen

    while remaining:
        gen = max(remaining, key=score)
        remaining.remove(gen)
        bound.add(gen)
        plan.append((gen, tuple(r for gens, r in pending if gen in gens and gens <= bound)))
        pending = [(gens, r) for gens, r in pending if not gens <= bound]
    return plan


def _generates(images, table, identity: int, order: int) -> bool:
    seen = {identity}
    frontier = [identity]
    while frontier:
        x = frontier.pop()
        for g in images:
            y = table[x][g]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen) == order


# ---------------------------------------------------------------------------
# Presentations from diagrams


def wirtinger(d) -> GroupPresentation:
    """Wirtinger presentation of the complement of the underlying link.

    Needs a geometric diagram (boxes expanded, no abstract crossings).
    Round components must be split from everything else; each contributes
    a free generator.  A record field of the wrong type, such as an
    ``over`` other than 0 or 1, raises GroupError.
    """
    faults = pdcode._record_faults(d)
    if faults:
        raise GroupError(faults[0])
    p = pdcode._planar(pdcode.expand_twistboxes(d) if d.boxes else d)
    d = p.diagram
    for x in d.crossings:
        if not x.is_geometric:
            raise GroupError(f"crossing {x.id} has no planar data")
    for c in d.components:
        if c.is_round and c.through:
            raise GroupError(f"round component {c.id} is not split")
    inc = p.inc

    # arcs: the edges joined across over-strands, numbered by least edge
    arcs = sorted(
        pdcode._pieces(
            [e for c in d.components for e in c.edges], [x.over_pair() for x in d.crossings]
        ),
        key=min,
    )
    arc_of = {e: i for i, arc in enumerate(arcs, 1) for e in arc}
    free = [c.id for c in d.components if c.is_round]
    gens = tuple(f"g{min(arc)}" for arc in arcs) + tuple(free)

    relators = []
    for x in d.crossings:
        over_in, _ = inc.flow[(x.id, x.over)]
        under_in, under_out = inc.flow[(x.id, 1 - x.over)]
        o, u, v = arc_of[over_in], arc_of[under_in], arc_of[under_out]
        if x.sign > 0:
            w = (-v, o, u, -o)
        else:
            w = (-v, -o, u, o)
        relators.append(cyclic_reduce(w))
    return GroupPresentation.make(gens, [r for r in relators if r])


def handlebody_pi1(d) -> GroupPresentation:
    """Fundamental group of the 2-handlebody: one generator per dotted
    circle, one relator per framed component spelling its passes through
    the dotted circles in order."""
    dotted = [c for c in d.components if c.kind == pdcode.DOTTED]
    gen_index = {c.id: i + 1 for i, c in enumerate(dotted)}
    relators = []
    for word in pdcode._pass_words(d).values():
        w = cyclic_reduce(tuple(s * gen_index[dot] for dot, s in word))
        if w:
            relators.append(w)
    gens = tuple(c.id for c in dotted)
    return GroupPresentation.make(gens, relators)
