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

import os
from dataclasses import dataclass, replace

from . import pdcode
from . import handlebody as hb
from . import surface as sf
from .dsl import MoveScript, Step, _sign
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


def _greedy_reduce(d: pdcode.Diagram, budget: int) -> pdcode.Diagram:
    """Remove Reidemeister 1 kinks and 2 bigons until none apply."""
    spent = 0
    while spent < budget:
        progressed = False
        geometric = [x for x in d.crossings if x.is_geometric]
        for x in geometric:
            spent += 1
            try:
                d = pdcode.r1_remove(d, x.id)
                progressed = True
                break
            except pdcode.DiagramError:
                continue
        if progressed:
            continue
        for i, x in enumerate(geometric):
            for y in geometric[i + 1 :]:
                if len(set(x.edges) & set(y.edges)) < 2:
                    continue
                spent += 1
                try:
                    d = pdcode.r2_remove(d, x.id, y.id)
                    progressed = True
                    break
                except pdcode.DiagramError:
                    continue
            if progressed:
                break
        if not progressed:
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
    """Replays one script.  ``resolve`` maps corpus names to Handlebody or
    SurfacePresentation objects for isotopy targets."""

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

    def _require_surface(self, index: int) -> SurfacePresentation:
        if self.surface is None:
            raise ScriptError("no tracked surface", index)
        return self.surface

    # -- steps --------------------------------------------------------------

    def run_step(self, step: Step) -> str:
        op = step.op
        args = dict(step.args)
        pos = list(args.pop("_args", ()))
        i = step.index

        def sign_of(v):
            if v is None:
                return 1
            sign = _sign(v)
            if sign is None:
                raise ScriptError(f"bad sign {v!r}", i)
            return sign

        try:
            if op == "blowdown":
                (uid,) = pos
                self._check_no_sheets_on(uid, i)
                self._set_host(hb.blowdown(self.state, uid))
                return f"blew down {uid}"
            if op == "blowup":
                sign = sign_of(pos[0] if pos else args.get("sign"))
                through = args.get("through", ())
                self._set_host(hb.blowup(self.state, sign, through))
                return f"blew up {sign:+d} through {len(through)} strands"
            if op == "slide":
                a, c = [p for p in pos if p != "over"]
                sign = sign_of(args.get("sign"))
                self._set_host(hb.slide(self.state, a, c, sign))
                return f"slid {a} over {c} ({sign:+d})"
            if op == "swap_dot":
                (cid,) = pos
                self._set_host(
                    hb.swap_dot(self.state, cid, certificate=args.get("cert"))
                )
                return f"swapped dot on {cid}"
            if op == "cancel":
                dot, framed = pos
                self._check_no_sheets_on(dot, i)
                self._check_no_sheets_on(framed, i)
                self._set_host(hb.cancel_pair(self.state, dot, framed))
                return f"cancelled pair ({dot}, {framed})"
            if op == "reidemeister":
                (move,) = pos
                d = pdcode.reidemeister(self.state.diagram, move, args.get("site", ()))
                self._set_host(self.state.with_diagram(d))
                return f"applied {move}"
            if op == "isotopy":
                return self._isotopy(step)
            if op == "track":
                kind = pos[0] if pos else "sphere"
                if kind != "sphere":
                    raise ScriptError(f"cannot track {kind!r}", i)
                on = args["on"]
                tracked = sf.capped_sphere(
                    "tracked", self.state, on, cap=args.get("cap", "d0")
                )
                problems = sf.validate_surface(tracked)
                if problems:
                    raise ScriptError(
                        "invalid tracked surface: " + "; ".join(problems), i
                    )
                self.surface = tracked
                return f"tracking sphere over {on}"
            if op == "transfer_sheets":
                return self._transfer_sheets(step, pos)
            if op == "surface_slide":
                a, c = [p for p in pos if p != "over"]
                sign = sign_of(args.get("sign"))
                s = self._require_surface(i)
                s = sf.surface_slide(s, a, c, sign)
                self.state = s.host
                self.surface = s
                return f"surface-slid {a} over {c} ({sign:+d})"
            if op == "band_slide":
                (c,) = pos
                s = self._require_surface(i)
                s = sf.band_slide(s, c, args["ribbon"])
                self.surface = s
                return f"band-slid over {c}"
            if op == "split_tube":
                (c,) = pos
                sign = sign_of(args.get("sign"))
                s = self._require_surface(i)
                cert_token = args.get("cert")
                if cert_token is None and args.get("dual"):
                    # the core disk of the dual handle caps the mid-level circle
                    cert_token = f"dual-disk:{args['dual']}"
                base, summand = sf.split_tube(s, c, cert_token, sign)
                dual = None
                if args.get("dual"):
                    dual = sf.capped_sphere("dual", self.state, args["dual"])
                cert = sf.check_sum_well_defined(
                    base, summand.sphere, self.state, dual_sphere=dual,
                    budget=self.budget,
                )
                if not cert.granted:
                    raise ScriptError(
                        "sum well-definedness not granted: " + "; ".join(cert.reasons),
                        i,
                    )
                self.surface = base
                self.records.append((summand, cert))
                return f"split {sign:+d} tube over {c}"
            if op == "cancel_sum":
                if len(self.records) < 2:
                    raise ScriptError("need two recorded summands", i)
                (bar, cert_bar) = self.records.pop()
                (sph, cert) = self.records.pop()
                s = self._require_surface(i)
                self.surface = sf.cancel_sum(
                    sf.SumRecord(s, sph.sphere, bar.sphere, cert, cert_bar)
                )
                return "cancelled sphere summand pair"
            if op == "assert":
                return self._assertions(step, args, pos)
        except (
            hb.HandlebodyError,
            sf.SurfaceError,
            pdcode.DiagramError,
            ValueError,
            KeyError,
        ) as exc:
            if isinstance(exc, ScriptError):
                raise
            raise ScriptError(str(exc), i) from exc
        raise ScriptError(f"unknown step op {op!r}", i)

    def _check_no_sheets_on(self, cid: str, index: int):
        if self.surface is not None and any(
            sh.on == cid for sh in self.surface.sheets
        ):
            raise ScriptError(
                f"tracked surface has sheets over {cid}; transfer them first", index
            )

    def _transfer_sheets(self, step: Step, pos) -> str:
        src, dst = pos
        i = step.index
        s = self._require_surface(i)
        a = self.state.diagram.component(src)
        b = self.state.diagram.component(dst)
        if a.kind != pdcode.FRAMED or b.kind != pdcode.FRAMED:
            raise ScriptError("sheets live over 2-handles", i)
        before = sf.self_intersection(s)
        moved = replace(
            s,
            sheets=tuple(
                replace(sh, on=dst) if sh.on == src else sh for sh in s.sheets
            ),
        )
        if sf.self_intersection(moved) != before:
            raise ScriptError("transfer changes the self-intersection", i)
        if step.flag != "trusted-endpoints":
            if src != dst:
                raise ScriptError(
                    "sheet transfer between distinct handles cannot be certified",
                    i,
                )
        self.surface = moved
        return f"transferred sheets {src} -> {dst} ({step.flag})"

    def _isotopy(self, step: Step) -> str:
        i = step.index
        name = step.args.get("to")
        if not isinstance(name, str) or not name:
            raise ScriptError("isotopy needs to=<name>", i)
        target = self.resolve(name)
        if target is None:
            raise ScriptError(f"unknown isotopy target {name!r}", i)
        if isinstance(target, Handlebody):
            goal = target
        else:
            goal = Handlebody(target)
        if step.flag == "certified":
            a = _greedy_reduce(self.state.diagram, self.budget)
            b = _greedy_reduce(goal.diagram, self.budget)
            if _diagram_signature(a) != _diagram_signature(b):
                raise ScriptError(
                    f"bounded search could not certify isotopy to {name!r}", i
                )
        mine = hb.invariant_report(self.state)
        theirs = hb.invariant_report(goal)
        if mine != theirs:
            diff = {
                k: (mine.get(k), theirs.get(k))
                for k in set(mine) | set(theirs)
                if mine.get(k) != theirs.get(k)
            }
            raise ScriptError(f"invariant reports differ at {name!r}: {diff}", i)
        before = (
            surface_report(self.surface) if self.surface is not None else None
        )
        # components correspond by position (the linking matrices agree in
        # that order); carry tracked sheets across any renaming
        rename = {
            old.id: new.id
            for old, new in zip(
                self.state.diagram.components, goal.diagram.components
            )
        }
        self._set_host(goal)
        if self.surface is not None:
            self.surface = replace(
                self.surface,
                sheets=tuple(
                    replace(sh, on=rename.get(sh.on, sh.on))
                    for sh in self.surface.sheets
                ),
            )
        if before is not None:
            after = surface_report(self.surface)
            if before != after:
                raise ScriptError("tracked surface invariants changed", i)
        return f"isotoped to {name!r} ({step.flag})"

    def _assertions(self, step: Step, args: dict, pos) -> str:
        i = step.index
        if pos or not args:
            raise ScriptError(f"assert needs key=value checks, got {pos or 'none'}", i)
        checked = []
        for key, want in args.items():
            if key == "pi1_trivial":
                got, note = hb.pi1_trivial(self.state, self.budget)
            else:
                got, note = self._measure(key, want, i), ""
            if got != want:
                raise ScriptError(
                    f"assertion {key} failed: expected {want!r}, got {got!r}{note}", i
                )
            checked.append(key)
        return "asserted " + ", ".join(checked)

    def _measure(self, key: str, want, index: int):
        if key == "boundary_h1":
            return str(hb.boundary_H1(self.state))
        if key == "h1":
            return str(hb.homology(self.state).h1)
        if key == "contractible":
            return hb.homology(self.state).contractible
        if key == "h2_rank":
            return hb.homology(self.state).h2_rank
        if key == "components":
            return len(self.state.diagram.components)
        if key == "form":
            try:
                return [list(r) for r in hb.intersection_form(self.state).matrix]
            except hb.HandlebodyError:
                return "none"
        if key == "chi":
            return sf.euler_characteristic(self._require_surface(index))
        if key == "self_intersection":
            return sf.self_intersection(self._require_surface(index))
        if key == "sphere":
            return sf.is_sphere(self._require_surface(index))
        if key == "class":
            return tuple(sf.homology_class(self._require_surface(index)).vector)
        if key == "sheets_over":
            comp, expected = want
            s = self._require_surface(index)
            count = sum(1 for sh in s.sheets if sh.on == comp)
            return (comp, count)
        raise ScriptError(f"unknown assertion {key!r}", index)


def run(
    script: MoveScript,
    target: Handlebody,
    resolve=None,
    budget: int | None = None,
) -> ScriptReport:
    engine = Engine(target, resolve=resolve, budget=budget)
    results = []
    ok = True
    for step in script.steps:
        try:
            detail = engine.run_step(step)
            good = True
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
            ok = False
            break
    return ScriptReport(
        script=script.name,
        target=script.target,
        ok=ok,
        steps=tuple(results),
        final=hb.invariant_report(engine.state),
        surface=surface_report(engine.surface),
    )
