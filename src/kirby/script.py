"""Deterministic replay of move scripts against handlebody diagrams.

Each step is either a calculus move, a surface-tracking operation, or an
inline assertion.  The engine records a verdict per step (with the
boundary homology after the step, so invariance is auditable), and fails
fast with the step index on the first illegal move or failed assertion.

Two trust levels exist for isotopy-type steps: ``certified`` steps must
also agree in a structural signature after greedy Reidemeister 1 and 2
removals (a bounded check that can still accept non-isotopic diagrams),
while ``trusted-endpoints`` steps only require the full invariant reports
of the two endpoint diagrams to agree.  A ``certified`` flag that fails
this check is a replay failure, not a warning.

The environment variable ``KIRBY_BUDGET`` overrides the default search
and simplification budget of 2000 (values below 1 count as 1); a value
that is not an integer raises ``ScriptError``.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, replace

from . import pdcode
from . import handlebody as hb
from . import surface as sf
from .dsl import _STEPS, MoveScript, Step, _sign
from .handlebody import Handlebody
from .surface import SurfacePresentation


class ScriptError(ValueError):
    def __init__(self, msg: str, step: int | None = None):
        prefix = f"step {step}: " if step is not None else ""
        super().__init__(prefix + msg)
        self.step = step


def default_budget() -> int:
    raw = os.environ.get("KIRBY_BUDGET", "")
    if not raw:
        return 2000
    try:
        return max(int(raw), 1)
    except ValueError:
        raise ScriptError(f"KIRBY_BUDGET must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class StepResult:
    index: int
    op: str
    ok: bool
    detail: str
    flag: str
    boundary_h1: str


@dataclass(frozen=True)
class ScriptReport:
    script: str
    target: str
    ok: bool
    steps: tuple[StepResult, ...]
    final: dict
    surface: dict | None


def surface_report(s: SurfacePresentation | None) -> dict | None:
    if s is None:
        return None
    return {
        "class": list(sf.homology_class(s).vector),
        "self_intersection": sf.self_intersection(s),
        "chi": sf.euler_characteristic(s),
        "sphere": sf.is_sphere(s),
        "sheets": len(s.sheets),
    }


def _form(h: Handlebody):
    try:
        return [list(r) for r in hb.intersection_form(h).matrix]
    except hb.HandlebodyError:
        return "none"


# What each assertion key measures, on the engine's host handlebody or on
# its tracked surface.  An ``assert`` step may also check ``pi1_trivial``
# and ``sheets_over``, which ``Engine._assert`` measures itself.
_MEASURES = {
    "boundary_h1": lambda e: str(hb.boundary_H1(e.state)),
    "h1": lambda e: str(hb.homology(e.state).h1),
    "contractible": lambda e: hb.homology(e.state).contractible,
    "h2_rank": lambda e: hb.homology(e.state).h2_rank,
    "components": lambda e: len(e.state.diagram.components),
    "form": lambda e: _form(e.state),
    "chi": lambda e: sf.euler_characteristic(e._require_surface()),
    "self_intersection": lambda e: sf.self_intersection(e._require_surface()),
    "sphere": lambda e: sf.is_sphere(e._require_surface()),
    "class": lambda e: tuple(sf.homology_class(e._require_surface()).vector),
}
_ASSERTIONS = (*_MEASURES, "pi1_trivial", "sheets_over")


def _sign_of(value) -> int:
    """A step's sign: + or - (or +-1), and +1 when absent."""
    if value is None:
        return 1
    sign = _sign(value)
    if sign is None:
        raise ScriptError(f"bad sign {value!r}")
    return sign


def _shape(step: Step) -> list:
    """The positionals of ``step``, once they and its keys fit its row of
    ``dsl._STEPS``.  A bare ``over`` between two positionals, as in
    ``slide a over c``, is not one of them."""
    if step.op not in _STEPS:
        raise ScriptError(f"unknown step op {step.op!r}")
    fewest, most, keys, required = _STEPS[step.op]
    pos = list(step.args.get("_args", ()))
    if len(pos) == 3 and pos[1] == "over":
        del pos[1]
    given = [k for k in step.args if k != "_args"]
    what = f"{step.op} key"
    if keys is None:  # assert: at least one check, each one a measure
        if pos or not given:
            raise ScriptError(f"assert needs key=value checks, got {pos or 'none'}")
        keys, what = _ASSERTIONS, "assertion"
    if not fewest <= len(pos) <= most:
        takes = fewest if fewest == most else f"{fewest} to {most}"
        raise ScriptError(f"wrong number of {step.op} arguments: takes {takes}, got {pos}")
    for key in given:
        if key not in keys:
            raise ScriptError(
                f"unknown {what} {key!r}; {step.op} reads {', '.join(keys) or 'no key'}"
            )
    for key in required:
        if key not in step.args:
            raise ScriptError(f"{step.op} needs key {key!r}")
    return pos


def _greedy_reduce(d: pdcode.Diagram, budget: int) -> pdcode.Diagram:
    """Remove Reidemeister 1 kinks and 2 bigons until none apply.

    A pass tries every kink, then every pair of geometric crossings that
    share two edges as a bigon, and applies the first legal try.  Each try
    spends one step of ``budget``; a pass starts only while budget is
    left, and may overrun it.
    """
    spent = 0
    while spent < budget:
        geometric = [x for x in d.crossings if x.is_geometric]
        tries = itertools.chain(
            ((pdcode.r1_remove, x.id) for x in geometric),
            (
                (pdcode.r2_remove, x.id, y.id)
                for x, y in itertools.combinations(geometric, 2)
                if len(set(x.edges) & set(y.edges)) >= 2
            ),
        )
        for move, *site in tries:
            spent += 1
            try:
                d = move(d, *site)
            except pdcode.DiagramError:
                continue
            break
        else:
            return d
    return d


def _diagram_signature(d: pdcode.Diagram):
    """Order-insensitive structural fingerprint used by the bounded
    isotopy search."""
    comps = sorted(
        (c.kind, c.framing, len(c.edges), tuple(sorted(p.sign for p in c.through)))
        for c in d.components
    )
    # abstract records count by multiplicity, so one record of count k
    # reads like k unit records
    crossings: dict[tuple, int] = {}
    for x in d.crossings:
        key = (x.sign, x.over if x.is_geometric else None)
        crossings[key] = crossings.get(key, 0) + x.count
    boxes = sorted((b.halftwists, len(b.strands)) for b in d.boxes)
    return (comps, sorted(crossings.items()), boxes)


class Engine:
    """Replays one script.  ``resolve`` maps an isotopy target's name to its
    Handlebody, or to None for an unknown name."""

    def __init__(self, target: Handlebody, resolve=None, budget: int | None = None):
        self.state = target
        self.surface: SurfacePresentation | None = None
        self.records: list[tuple[sf.SphereSummand, sf.SumCertificate]] = []
        self.resolve = resolve or (lambda name: None)
        self.budget = budget if budget is not None else default_budget()

    # -- helpers ------------------------------------------------------------

    def _set_host(self, h: Handlebody):
        self.state = h
        if self.surface is not None:
            self.surface = replace(self.surface, host=h)

    def _require_surface(self) -> SurfacePresentation:
        if self.surface is None:
            raise ScriptError("no tracked surface")
        return self.surface

    def _check_no_sheets_on(self, cid: str):
        if self.surface is not None and any(sh.on == cid for sh in self.surface.sheets):
            raise ScriptError(f"tracked surface has sheets over {cid}; transfer them first")

    # -- steps --------------------------------------------------------------

    def run_step(self, step: Step) -> str:
        """Apply ``step`` and return its detail; any refusal is a
        ScriptError that names the step."""
        try:
            pos = _shape(step)
            return self._HANDLERS[step.op](self, step, *pos)
        except (ValueError, KeyError) as exc:
            raise ScriptError(str(exc), step.index) from exc

    def _blowdown(self, step: Step, uid) -> str:
        self._check_no_sheets_on(uid)
        self._set_host(hb.blowdown(self.state, uid))
        return f"blew down {uid}"

    def _blowup(self, step: Step, sign=None) -> str:
        sign = _sign_of(step.args.get("sign") if sign is None else sign)
        through = step.args.get("through", ())
        if isinstance(through, (tuple, list)):
            # an item reads like a component's: a name, or (name, sign)
            through = [
                (p[0], _sign_of(p[1])) if isinstance(p, (tuple, list)) and len(p) == 2 else p
                for p in through
            ]
        elif not isinstance(through, str):  # hb.blowup names a string itself
            raise ScriptError(f"through {through!r} is not a list of edges")
        h = hb.blowup(self.state, sign, through)
        owner = self.state.diagram.edge_owner()
        for p in through:
            self._check_no_sheets_on(owner[p if isinstance(p, str) else p[0]])
        self._set_host(h)
        return f"blew up {sign:+d} through {len(through)} strands"

    def _slide(self, step: Step, a, c) -> str:
        """``slide`` and ``surface_slide``: a tracked surface's sheets over
        ``a`` are dragged along; ``surface_slide`` requires one."""
        sign = _sign_of(step.args.get("sign"))
        if step.op == "surface_slide" or self.surface is not None:
            self.surface = sf.surface_slide(self._require_surface(), a, c, sign)
            self.state = self.surface.host
        else:
            self._set_host(hb.slide(self.state, a, c, sign))
        verb = "surface-slid" if step.op == "surface_slide" else "slid"
        return f"{verb} {a} over {c} ({sign:+d})"

    def _swap_dot(self, step: Step, cid) -> str:
        self._check_no_sheets_on(cid)
        self._set_host(hb.swap_dot(self.state, cid, certificate=step.args.get("cert")))
        return f"swapped dot on {cid}"

    def _cancel(self, step: Step, dot, framed) -> str:
        self._check_no_sheets_on(dot)
        self._check_no_sheets_on(framed)
        self._set_host(hb.cancel_pair(self.state, dot, framed))
        return f"cancelled pair ({dot}, {framed})"

    def _reidemeister(self, step: Step, move) -> str:
        site = step.args.get("site", ())
        kink = type(site) is tuple and len(site) == 3 and site[0] == "insert"
        if kink and str(move).upper() == "R1":
            site = (*site[:2], _sign_of(site[2]))
        self._set_host(self.state.with_diagram(pdcode.reidemeister(self.state.diagram, move, site)))
        return f"applied {move}"

    def _isotopy(self, step: Step) -> str:
        name = step.args.get("to")
        if not isinstance(name, str) or not name:
            raise ScriptError("isotopy needs to=<name>")
        goal = self.resolve(name)
        if goal is None:
            raise ScriptError(f"unknown isotopy target {name!r}")
        if step.flag == "certified":
            a = _greedy_reduce(self.state.diagram, self.budget)
            b = _greedy_reduce(goal.diagram, self.budget)
            if _diagram_signature(a) != _diagram_signature(b):
                raise ScriptError(f"bounded search could not certify isotopy to {name!r}")
        mine = hb.invariant_report(self.state)
        theirs = hb.invariant_report(goal)
        if mine != theirs:
            diff = {
                k: (mine.get(k), theirs.get(k))
                for k in set(mine) | set(theirs)
                if mine.get(k) != theirs.get(k)
            }
            raise ScriptError(f"invariant reports differ at {name!r}: {diff}")
        before = surface_report(self.surface)
        # components correspond by position (the linking matrices agree in
        # that order); carry tracked sheets across any renaming
        rename = {
            old.id: new.id
            for old, new in zip(self.state.diagram.components, goal.diagram.components)
        }
        self._set_host(goal)
        if self.surface is not None:
            self.surface = replace(
                self.surface,
                sheets=tuple(
                    replace(sh, on=rename.get(sh.on, sh.on)) for sh in self.surface.sheets
                ),
            )
            if surface_report(self.surface) != before:
                raise ScriptError("tracked surface invariants changed")
        return f"isotoped to {name!r} ({step.flag})"

    def _track(self, step: Step, kind="sphere") -> str:
        if kind != "sphere":
            raise ScriptError(f"cannot track {kind!r}")
        on = step.args["on"]
        tracked = sf.capped_sphere("tracked", self.state, on, cap=step.args.get("cap", "d0"))
        problems = sf.validate_surface(tracked)
        if problems:
            raise ScriptError("invalid tracked surface: " + "; ".join(problems))
        self.surface = tracked
        return f"tracking sphere over {on}"

    def _transfer_sheets(self, step: Step, src, dst) -> str:
        s = self._require_surface()
        if any(self.state.diagram.component(x).kind != pdcode.FRAMED for x in (src, dst)):
            raise ScriptError("sheets live over 2-handles")
        moved = replace(
            s, sheets=tuple(replace(sh, on=dst) if sh.on == src else sh for sh in s.sheets)
        )
        if sf.self_intersection(moved) != sf.self_intersection(s):
            raise ScriptError("transfer changes the self-intersection")
        if step.flag != "trusted-endpoints" and src != dst:
            raise ScriptError("sheet transfer between distinct handles cannot be certified")
        self.surface = moved
        return f"transferred sheets {src} -> {dst} ({step.flag})"

    def _band_slide(self, step: Step, c) -> str:
        self.surface = sf.band_slide(self._require_surface(), c, step.args["ribbon"])
        return f"band-slid over {c}"

    def _split_tube(self, step: Step, c) -> str:
        sign = _sign_of(step.args.get("sign"))
        dual = step.args.get("dual")
        cert_token = step.args.get("cert")
        if cert_token is None and dual:
            # the core disk of the dual handle caps the mid-level circle
            cert_token = f"dual-disk:{dual}"
        base, summand = sf.split_tube(self._require_surface(), c, cert_token, sign)
        cert = sf.check_sum_well_defined(
            base,
            summand.sphere,
            self.state,
            dual_sphere=sf.capped_sphere("dual", self.state, dual) if dual else None,
            budget=self.budget,
        )
        if not cert.granted:
            raise ScriptError("sum well-definedness not granted: " + "; ".join(cert.reasons))
        self.surface = base
        self.records.append((summand, cert))
        return f"split {sign:+d} tube over {c}"

    def _cancel_sum(self, step: Step) -> str:
        if len(self.records) < 2:
            raise ScriptError("need two recorded summands")
        (bar, cert_bar) = self.records.pop()
        (sph, cert) = self.records.pop()
        self.surface = sf.cancel_sum(
            sf.SumRecord(self._require_surface(), sph.sphere, bar.sphere, cert, cert_bar)
        )
        return "cancelled sphere summand pair"

    def _assert(self, step: Step) -> str:
        checked = []
        for key, want in step.args.items():
            if key == "_args":
                continue
            note = ""
            if key == "pi1_trivial":
                got, note = hb.pi1_trivial(self.state, self.budget)
            elif key == "sheets_over":
                if not (type(want) is tuple and len(want) == 2):
                    raise ScriptError(f"sheets_over needs (handle, count), got {want!r}")
                got = (want[0], sum(sh.on == want[0] for sh in self._require_surface().sheets))
            else:
                got = _MEASURES[key](self)
            if got != want:
                raise ScriptError(f"assertion {key} failed: expected {want!r}, got {got!r}{note}")
            checked.append(key)
        return "asserted " + ", ".join(checked)

    _HANDLERS = {
        "blowdown": _blowdown,
        "blowup": _blowup,
        "slide": _slide,
        "swap_dot": _swap_dot,
        "cancel": _cancel,
        "reidemeister": _reidemeister,
        "isotopy": _isotopy,
        "track": _track,
        "transfer_sheets": _transfer_sheets,
        "surface_slide": _slide,
        "band_slide": _band_slide,
        "split_tube": _split_tube,
        "cancel_sum": _cancel_sum,
        "assert": _assert,
    }


def run(
    script: MoveScript,
    target: Handlebody,
    resolve=None,
    budget: int | None = None,
) -> ScriptReport:
    engine = Engine(target, resolve=resolve, budget=budget)
    results = []
    for step in script.steps:
        good = True
        try:
            detail = engine.run_step(step)
        except ScriptError as exc:
            detail = str(exc)
            good = False
        results.append(
            StepResult(
                step.index,
                step.op,
                good,
                detail,
                step.flag,
                str(hb.boundary_H1(engine.state)),
            )
        )
        if not good:
            break
    return ScriptReport(
        script=script.name,
        target=script.target,
        ok=all(r.ok for r in results),
        steps=tuple(results),
        final=hb.invariant_report(engine.state),
        surface=surface_report(engine.surface),
    )
