"""Per-layer tracing of kirby from outside the package.

``Tracer.install`` replaces every public function of the measured kirby
modules with a wrapper that records a span (name, start, end, parent) and
``Tracer.uninstall`` puts the originals back.  Nothing is replaced while
tracing is off; ``untouched`` checks that.

Functions called in the innermost loops (word evaluation in the
homomorphism search, word reduction, matrix helpers) are only counted: a
span per call would cost more than the work it measures, and their time
stays in the self time of the function that called them.
"""

from __future__ import annotations

import json
import statistics
import types
from collections import defaultdict
from time import perf_counter

MODULES = ("dsl", "corpus", "script", "surface", "handlebody", "pdcode",
           "intmat", "grouppres", "forms")

COUNT_ONLY = {
    "grouppres.evaluate_word", "grouppres.free_reduce", "grouppres.cyclic_reduce",
    "grouppres.invert_word", "grouppres.rotate_word",
    "intmat.dims", "intmat.zeros", "intmat.identity", "intmat.copy",
    "intmat.dot", "intmat.is_symmetric", "intmat.equal", "intmat.matvec",
    "intmat.pairing", "dsl.tokenize",
}

MOVES = ("handlebody.slide", "handlebody.blowup", "handlebody.blowdown",
         "handlebody.cancel_pair")

# Per-layer metrics: name -> (unit, how to read it from one round's totals)
PER_LAYER = {
    "intmat.smith_normal_form.ms": ("ms", ("self", "intmat.smith_normal_form")),
    "intmat.smith_normal_form.calls": ("count", ("calls", "intmat.smith_normal_form")),
    "intmat.transform_digits": ("digits", ("counter", "transform_digits")),
    "intmat.inertia.ms": ("ms", ("self", "intmat.inertia")),
    "pdcode.linking_number.ms": ("ms", ("self", "pdcode.linking_number")),
    "pdcode.linking_number.calls": ("count", ("calls", "pdcode.linking_number")),
    "pdcode.crossings_scanned": ("count", ("counter", "crossings_scanned")),
    "pdcode.validate.ms": ("ms", ("self", "pdcode.validate")),
    "pdcode.expand_twistboxes.ms": ("ms", ("self", "pdcode.expand_twistboxes")),
    "handlebody.moves.ms": ("ms", ("self", MOVES)),
    "handlebody.moves.calls": ("count", ("calls", MOVES)),
    "handlebody.abstract_crossings": ("count", ("counter", "abstract_crossings")),
    "handlebody.invariant_report.ms": ("ms", ("self", "handlebody.invariant_report")),
    "handlebody.invariant_report.calls": ("count", ("calls", "handlebody.invariant_report")),
    "handlebody.boundary_H1.ms": ("ms", ("self", "handlebody.boundary_H1")),
    "grouppres.enumerate_homs.ms": ("ms", ("self", "grouppres.enumerate_homs")),
    "grouppres.evaluate_word.calls": ("count", ("calls", "grouppres.evaluate_word")),
    "grouppres.tietze_simplify.ms": ("ms", ("self", "grouppres.tietze_simplify")),
    "grouppres.tietze_simplify.steps": ("count", ("counter", "tietze_steps")),
    "grouppres.budget_exhausted": ("count", ("counter", "budget_exhausted")),
    "grouppres.tietze_equivalent.ms": ("ms", ("self", "grouppres.tietze_equivalent")),
    "grouppres.wirtinger.ms": ("ms", ("self", "grouppres.wirtinger")),
    "forms.stably_equivalent.ms": ("ms", ("self", "forms.stably_equivalent")),
    "forms.stably_equivalent.calls": ("count", ("calls", "forms.stably_equivalent")),
    "script.run.ms": ("ms", ("self", "script.run")),
    "script.steps": ("count", ("counter", "script_steps")),
    "surface.ms": ("ms", ("self", "surface.*")),
    "surface.calls": ("count", ("calls", "surface.*")),
    "dsl.parse.ms": ("ms", ("setup", "dsl.parse")),
    "corpus.load_document.ms": ("ms", ("setup", "corpus.load_document")),
}


def _digits(bits: int) -> int:
    """Decimal digits of the largest integer with this many bits."""
    return len(str(2 ** bits - 1)) if bits < 3000 else int(bits * 0.30102999566398120) + 1


def _smith_digits(tr, args, result):
    bits = max((abs(x).bit_length() for m in (result.u, result.v) for row in m for x in row),
               default=0)
    tr.counters["transform_bits"] = max(tr.counters["transform_bits"], bits)


def _linking_scan(tr, args, result):
    tr.counters["crossings_scanned"] += len(args[0].crossings)


def _move_crossings(tr, args, result):
    tr.counters["abstract_crossings"] += sum(
        1 for x in result.diagram.crossings if not x.is_geometric)


def _tietze(tr, args, result):
    tr.counters["tietze_steps"] += len(result.log)
    tr.counters["budget_exhausted"] += int(result.budget_exhausted)


def _script_steps(tr, args, result):
    tr.counters["script_steps"] += len(result.steps)


POST = {
    "intmat.smith_normal_form": _smith_digits,
    "pdcode.linking_number": _linking_scan,
    "grouppres.tietze_simplify": _tietze,
    "script.run": _script_steps,
    **{name: _move_crossings for name in MOVES},
}


def public_functions(module):
    """(attribute, function) for every public function defined in ``module``."""
    return [
        (attr, obj) for attr, obj in vars(module).items()
        if not attr.startswith("_") and isinstance(obj, types.FunctionType)
        and obj.__module__ == module.__name__
    ]


def untouched(kirby) -> list[str]:
    """Names of kirby functions that are currently replaced by a wrapper."""
    return [
        f"{mod}.{attr}" for mod in MODULES
        for attr, fn in public_functions(getattr(kirby, mod))
        if hasattr(fn, "__bench_original__")
    ]


class Tracer:
    """Spans and counters of traced rounds.

    Spans are recorded only while ``active`` (inside a timed operation or
    a traced set-up step).  Every traced round is aggregated per function
    name (calls, total and self time) and closed by ``end_round``; the
    spans themselves are kept for the set-up steps and the first traced
    round only, so that memory stays bounded however long the run.
    """

    def __init__(self, kirby):
        self.kirby = kirby
        self.installed: list[tuple] = []
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (name index, start, end, parent index, op index)
        self.ops: list[str] = []  # labels of the operations the spans belong to
        self.keep_spans = True
        self.rounds: list[dict] = []
        self.setup: dict[str, list[float]] = defaultdict(list)
        self.active = False  # spans are recorded only inside timed operations
        self._reset_round()

    def _reset_round(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(int)
        self.stack: list[int] = []  # span indices (or -1 when not kept)
        self.child: list[float] = []  # time covered by children, per open span

    # -- wrapping -------------------------------------------------------------

    def install(self):
        for mod in MODULES:
            module = getattr(self.kirby, mod)
            for attr, fn in public_functions(module):
                name = f"{mod}.{attr}"
                wrapper = (self._counter(name, fn) if name in COUNT_ONLY
                           else self._spanner(name, fn, POST.get(name)))
                wrapper.__bench_original__ = fn
                setattr(module, attr, wrapper)
                self.installed.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in self.installed:
            setattr(module, attr, fn)
        self.installed.clear()

    def _counter(self, name, fn):
        def counted(*args, **kwargs):
            if self.active:
                self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanner(self, name, fn, post):
        name_id = len(self.names)
        self.names.append(name)

        def spanned(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self.stack[-1] if self.stack else -1
            idx = len(self.spans) if self.keep_spans else -1
            if self.keep_spans:
                self.spans.append(None)
            self.stack.append(idx)
            self.child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                # runs also when a deadline abandons the call, so the time
                # spent stays attributed to the span that spent it
                end = perf_counter()
                self.stack.pop()
                covered = self.child.pop()
                duration = end - start
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - covered
                if idx >= 0:
                    self.spans[idx] = (name_id, start, end, parent, len(self.ops) - 1)
                if self.child:
                    self.child[-1] += duration
            if post is not None:
                counted = perf_counter()
                post(self, args, result)
                if self.child:  # counting is not the caller's work either
                    self.child[-1] += perf_counter() - counted
            return result

        return spanned

    # -- rounds ---------------------------------------------------------------

    def begin_op(self, label):
        """Record spans from here on, as part of operation ``label``."""
        self.ops.append(label)
        self.active = True

    def end_op(self):
        """Stop recording; drop spans left open by an operation abandoned at
        its deadline."""
        self.active = False
        self.stack.clear()
        self.child.clear()

    def end_round(self):
        self.rounds.append({
            "calls": dict(self.calls), "self": dict(self.self_time),
            "total": dict(self.total), "counters": dict(self.counters),
        })
        self.keep_spans = False
        self._reset_round()

    def timed_setup(self, label, fn):
        """Run a set-up step (parsing) traced, and keep its span totals."""
        self._reset_round()
        self.begin_op(label)
        try:
            result = fn()
        finally:
            self.end_op()
        for name in ("dsl.parse", "corpus.load_document"):
            self.setup[name].append(self.self_time.get(name, 0.0) * 1e3)
        self._reset_round()
        return result

    # -- results --------------------------------------------------------------

    def _read(self, rnd, how):
        kind, target = how
        if kind == "counter":
            if target == "transform_digits":
                bits = rnd["counters"].get("transform_bits", 0)
                return _digits(bits) if bits else 0
            return rnd["counters"].get(target, 0)
        names = target if isinstance(target, tuple) else (target,)
        table = rnd["calls" if kind == "calls" else "self"]
        total = 0
        for key, value in table.items():
            if key in names or (target == "surface.*" and key.startswith("surface.")):
                total += value
        return total * 1e3 if kind == "self" else total

    def metrics(self) -> dict:
        """Per-layer metrics: per-round medians over the traced rounds."""
        out = {}
        for metric, (unit, how) in PER_LAYER.items():
            if how[0] == "setup":
                values = self.setup.get(how[1]) or [0.0]
            else:
                values = [self._read(r, how) for r in self.rounds] or [0]
            if unit == "ms":
                out[metric] = {"value": statistics.median(values), "unit": unit}
            else:
                out[metric] = {"value": statistics.median_low(values), "unit": unit}
        return out

    def write(self, path):
        """Spans of the set-up steps and the first traced round, plus the
        per-round totals, as JSON.  ``parent`` is the ``id`` of the calling
        span (-1 at the top); ``op`` names the operation."""
        spans = [
            {"id": i, "name": self.names[span[0]], "start": span[1], "end": span[2],
             "parent": span[3], "op": self.ops[span[4]]}
            for i, span in enumerate(self.spans) if span is not None
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "rounds": self.rounds}, fh)
