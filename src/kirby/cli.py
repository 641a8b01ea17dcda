"""Command-line interface.

Subcommands:

    kirby validate FILE [--diagram NAME]     check well-formedness
    kirby invariants FILE [--diagram NAME]   invariant reports
    kirby pi1 FILE [--diagram NAME]          fundamental group (simplified)
    kirby form FILE [--diagram NAME]         intersection form classification
    kirby run FILE --script NAME             replay a move script
    kirby corpus verify [--case NAME]        re-verify the bundled corpus
    kirby corpus list                        list bundled cases

Every subcommand accepts ``--json`` for machine-readable output.  Exit
codes: 0 success, 1 verification failure, 2 malformed input.  The
environment variable ``KIRBY_BUDGET`` bounds searches and
simplifications; a value that is not an integer is malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from functools import partial

from . import corpus, dsl, grouppres, pdcode
from . import handlebody as hb
from .handlebody import Handlebody
from .script import ScriptError, default_budget

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


class InputError(Exception):
    pass


def _load(paths) -> dsl.Document:
    parts = []
    for path in paths:
        try:
            parts.append(dsl.parse_file(path))
        except (FileNotFoundError, IsADirectoryError):
            raise InputError(f"no such file: {path}")
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {path}: {exc}")
        except dsl.ParseError as exc:
            raise InputError(f"{path}: {exc}")
    return dsl._merge(parts)


def _emit(payload: dict, as_json: bool, lines):
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _each_diagram(args, read) -> int:
    """Run ``read(name, d) -> (payload entry, text lines, failed)`` on every
    picked diagram in name order; exit 1 if any failed."""
    diagrams = _load(args.file).diagrams
    if args.diagram is not None:
        if args.diagram not in diagrams:
            raise InputError(f"no diagram named {args.diagram!r}")
        diagrams = {args.diagram: diagrams[args.diagram]}
    elif not diagrams:
        raise InputError("no diagrams in input")
    payload, lines, bad = {}, [], False
    for name, d in sorted(diagrams.items()):
        payload[name], text, failed = read(name, d)
        lines.extend(text)
        bad = bad or failed
    _emit(payload, args.json, lines)
    return EXIT_FAIL if bad else EXIT_OK


def _valid_handlebody(name: str, d: pdcode.Diagram) -> Handlebody:
    problems = pdcode.validate(d)
    if problems:
        raise InputError(f"diagram {name!r} is invalid: " + "; ".join(problems))
    return Handlebody(d)


def _validate(name, d):
    problems = pdcode.validate(d)
    if not problems:
        return [], [f"{name}: ok"], False
    return list(problems), [f"{name}: INVALID", *(f"  - {p}" for p in problems)], True


def _invariants(name, d):
    rep = hb.invariant_report(_valid_handlebody(name, d))
    return rep, [
        f"{name}:",
        f"  components:  {rep['components']}",
        f"  linking:     {rep['linking_matrix']}",
        f"  H1:          {rep['homology']['h1']}",
        f"  H2 rank:     {rep['homology']['h2_rank']}",
        f"  contractible:{rep['homology']['contractible']}",
        f"  boundary H1: {rep['boundary_h1']}",
        f"  pi1:         {rep['pi1']}",
        f"  form:        {rep['form']}",
    ], False


def _pi1(name, d):
    g = hb.fundamental_group(_valid_handlebody(name, d))
    simp = grouppres.tietze_simplify(g, default_budget())
    ab = g.abelianization()
    entry = {
        "presentation": str(g),
        "simplified": str(simp.presentation),
        "abelianization": str(ab),
        "trivial": simp.presentation.is_obviously_trivial(),
        "budget_exhausted": simp.budget_exhausted,
    }
    return entry, [
        f"{name}: {g}",
        f"  simplified:     {simp.presentation}",
        f"  abelianization: {ab}",
    ], False


def _form(name, d):
    h = _valid_handlebody(name, d)
    try:
        form = hb.intersection_form(h)
    except hb.HandlebodyError as exc:
        return {"error": str(exc)}, [f"{name}: undefined ({exc})"], False
    c = form.classify()
    line = f"{name}: rank {c.rank}, signature {c.signature}, {c.parity}, {c.definiteness}"
    return {"matrix": [list(r) for r in form.matrix], **asdict(c)}, [line], False


_PER_DIAGRAM = (
    ("validate", "check diagram well-formedness", _validate),
    ("invariants", "print invariant reports", _invariants),
    ("pi1", "fundamental group presentations", _pi1),
    ("form", "intersection form classification", _form),
)


def cmd_run(args) -> int:
    doc = _load(args.file)
    if args.script not in doc.scripts:
        raise InputError(f"no script named {args.script!r}")
    ms = doc.scripts[args.script]
    if ms.target not in doc.diagrams:
        raise InputError(f"script target {ms.target!r} not in input")
    _valid_handlebody(ms.target, doc.diagrams[ms.target])
    rep = corpus.run_script(doc, args.script)
    payload = corpus.script_report_dict(rep)
    lines = [f"script {rep.script!r} on {rep.target!r}"]
    for sr in rep.steps:
        mark = "ok " if sr.ok else "FAIL"
        lines.append(f"  [{sr.index:2d}] {mark} {sr.op:16s} {sr.detail}")
    lines.append("replay " + ("succeeded" if rep.ok else "failed"))
    _emit(payload, args.json, lines)
    return EXIT_OK if rep.ok else EXIT_FAIL


def cmd_corpus(args) -> int:
    if args.action == "list":
        registry = corpus.cases()
        payload = {
            n: {"kind": c.kind, "trust": c.trust} for n, c in registry.items()
        }
        lines = [
            f"{n:16s} {c.kind:8s} {c.trust}" for n, c in sorted(registry.items())
        ]
        _emit(payload, args.json, lines)
        return EXIT_OK
    names = args.case or None
    registry = corpus.cases()
    if names:
        unknown = [n for n in names if n not in registry]
        if unknown:
            raise InputError("unknown case(s): " + ", ".join(unknown))
    rep = corpus.verify_corpus(names)
    lines = []
    for r in rep.results:
        lines.append(f"{r.name}: {'ok' if r.ok else 'FAIL'}")
        lines.extend(f"  {d}" for d in r.diffs)
    lines.append("corpus " + ("verified" if rep.ok else "verification failed"))
    _emit(rep.as_dict(), args.json, lines)
    return EXIT_OK if rep.ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kirby",
        description="Combinatorial calculus for framed-link handlebody diagrams.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    for name, help_text, read in _PER_DIAGRAM:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("file", nargs="+", help="input document(s) (.kd/.ks)")
        sp.add_argument("--diagram", help="restrict to one diagram")
        sp.add_argument("--json", action="store_true", help="JSON output")
        sp.set_defaults(func=partial(_each_diagram, read=read))

    sp = sub.add_parser("run", help="replay a move script")
    sp.add_argument("file", nargs="+", help="input document(s) containing the script and its targets")
    sp.add_argument("--script", required=True, help="script name")
    sp.add_argument("--json", action="store_true", help="JSON output")
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("corpus", help="bundled example corpus")
    sp.add_argument("action", choices=["verify", "list"])
    sp.add_argument("--case", action="append", help="restrict to named case(s)")
    sp.add_argument("--json", action="store_true", help="JSON output")
    sp.set_defaults(func=cmd_corpus)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, dsl.ParseError, ScriptError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
