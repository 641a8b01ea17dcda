"""Bundled example corpus and its verifier.

``corpus_data/`` ships a set of diagram, surface, and script sources in
the text formats of :mod:`kirby.dsl`, together with one frozen JSON
report per named case under ``corpus_data/expected/``.  ``verify_corpus``
recomputes every case from its sources and diffs the result against the
frozen report, returning localized path-level differences, so any
tampering with sources, scripts, or reports is caught and attributed.

Trust levels: a case whose script contains ``trusted-endpoints`` steps is
verified up to invariant-report equality at those steps; everything else
is replayed move by move.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from importlib import resources

from . import dsl, forms, grouppres, pdcode, script
from . import handlebody as hb
from . import surface as sf
from .handlebody import Handlebody
from .surface import Disk, Ribbon, Sheet, SurfacePresentation

TAGS = ("0", "m1_2", "m1", "m3_2", "m2")


def data_root():
    return resources.files(__package__) / "corpus_data"


def load_document() -> dsl.Document:
    """All corpus sources merged into one document."""
    return dsl._merge(
        dsl.parse(entry.read_text(encoding="utf-8"))
        for entry in sorted(data_root().iterdir(), key=lambda e: e.name)
        if entry.name.endswith((".kd", ".ks"))
    )


def build_surface(spec: dsl.SurfaceSpec, doc: dsl.Document) -> SurfacePresentation:
    if spec.host not in doc.diagrams:
        raise KeyError(f"surface {spec.name!r} hosted by unknown diagram {spec.host!r}")
    return SurfacePresentation(
        name=spec.name,
        host=Handlebody(doc.diagrams[spec.host]),
        minima=tuple(Disk(i, abuts) for i, abuts in spec.disks),
        sheets=tuple(Sheet(i, on, mult, cap) for i, on, mult, cap in spec.sheets),
        ribbons=tuple(Ribbon(i, (a, b), passes) for i, a, b, passes in spec.ribbons),
    )


# ---------------------------------------------------------------------------
# Case computations


def _diagram_case(doc: dsl.Document, name: str) -> dict:
    d = doc.diagrams[name]
    problems = pdcode.validate(d)
    out = {"validate": list(problems)}
    if not problems:
        out["report"] = hb.invariant_report(Handlebody(d))
    return out


def _knot_case(doc: dsl.Document, name: str) -> dict:
    out = _diagram_case(doc, name)
    if out["validate"]:
        return out
    out["wirtinger"] = _s3_summary(grouppres.wirtinger(doc.diagrams[name]))
    return out


def _s3_summary(g: grouppres.GroupPresentation) -> dict:
    qc = grouppres.enumerate_homs(g, 3)
    return {
        "abelianization": str(g.abelianization()),
        "s3_total": qc.total,
        "s3_surjective": qc.surjective,
    }


def _cork_case(doc: dsl.Document, name: str) -> dict:
    out = _diagram_case(doc, name)
    if out["validate"]:
        return out
    marking = pdcode.SymmetryMarking(component_map=(("m", "a"), ("a", "m")))
    h = Handlebody(doc.diagrams[name])
    try:
        hb.CorkPresentation(h, marking)
        out["cork"] = True
    except hb.HandlebodyError as exc:
        out["cork"] = False
        out["cork_error"] = str(exc)
    out["equivariant_example"] = hb.check_equivariant(
        h, marking, ("slide", "a", "m", 1), ("slide", "m", "a", 1)
    )
    return out


def _ribbon_case(doc: dsl.Document, name: str) -> dict:
    s = build_surface(doc.surfaces[name], doc)
    problems = sf.validate_surface(s)
    out = {"validate": list(problems)}
    if problems:
        return out
    out["chi"] = sf.euler_characteristic(s)
    out["connected"] = sf.is_connected_surface(s)
    comp = sf.ribbon_complement(s)
    g = hb.fundamental_group(comp)
    out["complement"] = {
        "generators": list(g.generators),
        "relators": [grouppres.format_word(r, g.generators) for r in g.relators],
        **_s3_summary(g),
    }
    return out


def _sheet_surface_case(doc: dsl.Document, name: str) -> dict:
    s = build_surface(doc.surfaces[name], doc)
    problems = sf.validate_surface(s)
    out = {"validate": list(problems)}
    if problems:
        return out
    out.update(script.surface_report(s))
    del out["sheets"]
    return out


def script_report_dict(rep: script.ScriptReport) -> dict:
    return asdict(rep)


def run_script(doc: dsl.Document, name: str) -> script.ScriptReport:
    ms = doc.scripts[name]
    if ms.target not in doc.diagrams:
        raise KeyError(f"script {name!r} targets unknown diagram {ms.target!r}")

    def resolve(n):
        if n in doc.diagrams:
            return Handlebody(doc.diagrams[n])
        return None

    return script.run(ms, Handlebody(doc.diagrams[ms.target]), resolve=resolve)


def _brunnian_case(m: int) -> dict:
    """Class bookkeeping for the sphere pair produced from an m-component
    Brunnian-style stabilization: the ambient form is two <1> and two <-1>
    summands (plus a hyperbolic summand per extra component), and both
    spheres carry the second <1> basis class."""
    q = forms.diagonal_form(1, 1, -1, -1)
    for _ in range(m - 2):
        q = q.direct_sum(forms.hyperbolic_form())
    v = [0] * q.rank
    v[1] = 1
    blown = forms.blowdown_class(q, v)
    target = forms.diagonal_form(1, -1, -1)
    for _ in range(m - 2):
        target = target.direct_sum(forms.hyperbolic_form())
    bc = blown.classify()
    tc = target.classify()
    return {
        "ambient": asdict(q.classify()),
        "class_S": v,
        "class_T": v,
        "pairing_ST": q.pairing(v, v),
        "blowdown": asdict(bc),
        "target": asdict(tc),
        "matches_target": forms.stably_equivalent(blown, target).equivalent,
    }


# ---------------------------------------------------------------------------
# Case registry


@dataclass(frozen=True)
class CorpusCase:
    name: str
    kind: str  # "diagram" | "knot" | "cork" | "ribbon" | "surface" | "script" | "forms"
    trust: str  # "replayed" | "trusted-endpoints"


def _registry() -> dict[str, CorpusCase]:
    out: dict[str, CorpusCase] = {}

    def add(name, kind, trust="replayed"):
        out[name] = CorpusCase(name, kind, trust)

    add("W", "cork")
    for tag in TAGS:
        add(f"C_{tag}", "diagram")
        add(f"Cbar_{tag}", "diagram")
        add(f"C_{tag}_plus", "diagram")
        add(f"C_{tag}_mid", "diagram")
        add(f"R_{tag}", "knot")
        add(f"K_{tag}", "knot")
        add(f"Kbar_{tag}", "knot")
        add(f"A_{tag}", "ribbon")
        add(f"Abar_{tag}", "ribbon")
        add(f"S_{tag}", "surface")
        add(f"rho_{tag}", "script", "trusted-endpoints")
    add("P", "diagram")
    add("R_stab", "diagram")
    add("key_isotopy", "script")
    add("brunnian_m2", "forms")
    add("brunnian_m3", "forms")
    return out


_CASES = _registry()

# case kind -> report of the named case
_COMPUTE = {
    "diagram": _diagram_case,
    "knot": _knot_case,
    "cork": _cork_case,
    "ribbon": _ribbon_case,
    "surface": _sheet_surface_case,
    "script": lambda doc, name: script_report_dict(run_script(doc, name)),
    "forms": lambda doc, name: _brunnian_case(int(name[-1])),
}


def cases() -> dict[str, CorpusCase]:
    """The case registry, as a fresh dict the caller may change."""
    return dict(_CASES)


def compute_case(name: str, doc: dsl.Document | None = None) -> dict:
    if doc is None:
        doc = load_document()
    case = _CASES.get(name)
    if case is None:
        raise KeyError(f"unknown corpus case {name!r}")
    return _COMPUTE[case.kind](doc, name)


def expected_case(name: str) -> dict:
    path = data_root() / "expected" / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def diff_reports(expected, got, path="$") -> list[str]:
    """Localized differences between two JSON-like values."""
    if isinstance(expected, dict) and isinstance(got, dict):
        out = []
        for k in sorted(set(expected) | set(got)):
            if k not in expected:
                out.append(f"{path}.{k}: unexpected key (got {got[k]!r})")
            elif k not in got:
                out.append(f"{path}.{k}: missing (expected {expected[k]!r})")
            else:
                out.extend(diff_reports(expected[k], got[k], f"{path}.{k}"))
        return out
    if isinstance(expected, list) and isinstance(got, list):
        out = []
        if len(expected) != len(got):
            out.append(f"{path}: length {len(got)} != expected {len(expected)}")
        for i, (e, g) in enumerate(zip(expected, got)):
            out.extend(diff_reports(e, g, f"{path}[{i}]"))
        return out
    if expected != got:
        return [f"{path}: {got!r} != expected {expected!r}"]
    return []


@dataclass(frozen=True)
class CaseResult:
    name: str
    ok: bool
    diffs: tuple[str, ...]


@dataclass(frozen=True)
class CorpusReport:
    results: tuple[CaseResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "cases": {
                r.name: {"ok": r.ok, "diffs": list(r.diffs)} for r in self.results
            },
        }


def verify_corpus(names=None, doc: dsl.Document | None = None) -> CorpusReport:
    if doc is None:
        doc = load_document()
    if names is None:
        names = sorted(_CASES)
    results = []
    for name in names:
        if name not in _CASES:
            results.append(CaseResult(name, False, (f"unknown case {name!r}",)))
            continue
        try:
            got = _normalize(compute_case(name, doc))
        except Exception as exc:  # verification must report, not crash
            results.append(CaseResult(name, False, (f"$: computation failed: {exc}",)))
            continue
        try:
            want = expected_case(name)
        except FileNotFoundError:
            results.append(CaseResult(name, False, ("$: no frozen report",)))
            continue
        diffs = diff_reports(want, got)
        results.append(CaseResult(name, not diffs, tuple(diffs)))
    return CorpusReport(tuple(results))


def _normalize(value):
    """Round-trip through JSON so tuples/lists compare uniformly."""
    return json.loads(json.dumps(value))


def regenerate(names=None) -> list[str]:
    """Recompute and freeze the expected reports (maintenance helper)."""
    doc = load_document()
    if names is None:
        names = sorted(_CASES)
    written = []
    root = data_root() / "expected"
    for name in names:
        got = compute_case(name, doc)
        path = root / f"{name}.json"
        path.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n", "utf-8")
        written.append(str(path))
    return written
