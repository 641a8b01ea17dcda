"""Benchmark for kirby-calc.

    python3 bench/run.py --workload {corpus,links,moves,search} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  One process, one thread.  The run

1. generates the workload's inputs from the seed and writes them as
   ``.kd`` text to ``bench/out/``;
2. measures set-up (``setup_s``): fresh interpreters that import ``kirby``
   and ``kirby.cli`` and parse the inputs, median of several;
3. runs one untimed warm-up round; the first answer of every operation
   goes to the oracles;
4. repeats whole rounds of the same operations, in the same order, until
   ``--seconds`` have passed, timing every operation;
5. checks every answer (``oracles.py``, with sympy, after the timed
   passes) and prints one JSON line.

With ``--trace 0`` the last line carries the end-to-end metrics.  With
``--trace 1`` untraced and traced rounds alternate; the last line carries
the per-layer metrics of the traced rounds, the spans go to
``bench/out/trace-<workload>-<seed>.json``, and the detail line reports the
tracing overhead as the difference between the two kinds of round.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import signal
import statistics
import subprocess
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_RUNS = 9

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Deadline(Exception):
    """Raised by SIGALRM when an operation runs past its limit."""


def _alarm(signum, frame):
    raise Deadline()


def import_kirby():
    """Import the checkout's own kirby; refuse any other copy."""
    package = SRC / "kirby"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no kirby sources at {package}")
    sys.path.insert(0, str(SRC))
    kirby = importlib.import_module("kirby")
    if Path(kirby.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported kirby from {kirby.__file__}, not {package}")
    importlib.import_module("kirby.cli")
    for mod in tracing.MODULES:
        importlib.import_module(f"kirby.{mod}")
    return kirby


def reference_ms() -> float:
    """A fixed pure-Python loop: machine drift shows here, not in kirby."""
    start = perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc * 31 + i) % 1_000_003
    return (perf_counter() - start) * 1e3


def measure_setup(w, kd_path) -> list[float]:
    """Seconds from spawning a fresh interpreter until it reports ready."""
    cmd = [sys.executable, str(BENCH / "ready.py"), w.name]
    if kd_path is not None:
        cmd.append(str(kd_path))
    times = []
    for attempt in range(SETUP_RUNS + 1):  # the first warms the file cache
        start = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as child:
            line = child.stdout.readline()
            elapsed = perf_counter() - start
            child.stdout.read()
        if line.strip() != b"ready" or child.returncode != 0:
            raise RuntimeError(f"set-up child failed (exit {child.returncode})")
        if attempt:
            times.append(elapsed)
    return times


def run_op(op, trace):
    """(value, seconds, error) for one operation under its deadline."""
    if trace is not None:
        trace.begin_op(op.label)
    signal.setitimer(signal.ITIMER_REAL, op.limit)
    start = perf_counter()
    try:
        try:
            value = op.call()
        finally:
            elapsed = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            if trace is not None:
                trace.end_op()
    except Deadline:
        return None, perf_counter() - start, "deadline"
    except Exception as exc:  # an operation that raises is reported, not fatal
        return None, elapsed, f"{type(exc).__name__}: {exc}"
    return value, elapsed, None


def run_round(ops, trace=None):
    """One pass over the operation list: [(op, digest, seconds, error)]."""
    gc.collect()
    if trace is not None:
        trace.install()
    out = []
    try:
        for op in ops:
            value, seconds, error = run_op(op, trace)
            out.append((op, None if error else op.digest(value), seconds, error))
            del value
    finally:
        if trace is not None:
            trace.uninstall()
            trace.end_round()
    return out


def outcome_problem(op, digest, error, expected) -> str | None:
    """What is wrong with one operation's outcome, if anything.

    ``expected`` maps labels to the first answer each operation gave; a
    first answer is recorded here, and every later one must equal it.  A
    kept operation may run out of its deadline; when it finishes, its
    answer is treated like any other."""
    if error is not None:
        return None if op.kept and error == "deadline" else f"{op.label}: {error}"
    if expected.setdefault(op.label, digest) != digest:
        return f"{op.label}: answer differs from its first answer"
    return None


class Tally:
    """Counts and latencies of the timed rounds."""

    def __init__(self):
        self.attempted = self.failed = 0
        # ms of the untraced rounds; arrays keep the benchmark's own share of
        # peak RSS small
        self.latencies = array("d")
        self.round_seconds = {False: [], True: []}
        self.classes = defaultdict(
            lambda: {"attempted": 0, "failed": 0, "ms": defaultdict(lambda: array("d"))})
        self.problems: list[str] = []

    def add(self, samples, expected, traced):
        self.round_seconds[traced].append(sum(s for _, _, s, _ in samples))
        for op, digest, seconds, error in samples:
            cls = self.classes[op.cls]
            self.attempted += 1
            cls["attempted"] += 1
            if error is not None:
                self.failed += 1
                cls["failed"] += 1
            problem = outcome_problem(op, digest, error, expected)
            if problem:
                self.problems.append(problem)
            if not traced:
                self.latencies.append(seconds * 1e3)
                cls["ms"][op.size].append(seconds * 1e3)

    def class_table(self) -> dict:
        return {
            name: {
                "attempted": c["attempted"],
                "failed": c["failed"],
                "median_ms_by_size": {size: statistics.median(v) for size, v in sorted(c["ms"].items())},
            }
            for name, c in sorted(self.classes.items())
        }


def timed_rounds(ops, expected, seconds, trace) -> Tally:
    """Whole rounds until ``seconds`` have passed; with a tracer, untraced
    and traced rounds alternate and at least one of each runs."""
    tally = Tally()
    start = perf_counter()
    traced = False
    while True:
        tally.add(run_round(ops, trace if traced else None), expected, traced)
        if trace is not None:
            traced = not traced
        done = perf_counter() - start >= seconds
        if trace is not None:
            done = done and all(tally.round_seconds.values())
        if done or tally.problems:
            return tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    kirby = import_kirby()
    signal.signal(signal.SIGALRM, _alarm)
    OUT.mkdir(exist_ok=True)
    problems: list[str] = []

    w = workloads.build(args.workload, args.seed)
    kd_path = None
    if w.text is not None:
        kd_path = OUT / f"{w.name}-{w.seed}.kd"
        kd_path.write_text(w.text, encoding="utf-8")

    trace = tracing.Tracer(kirby) if args.trace else None
    if trace is None:
        setup_times = measure_setup(w, kd_path)
        doc = workloads.load(w, kirby)
    else:
        trace.install()
        try:
            for _ in range(3):
                doc = trace.timed_setup("setup", lambda: workloads.load(w, kirby))
        finally:
            trace.uninstall()
    ops = workloads.operations(w, doc, kirby)
    replaced = tracing.untouched(kirby)
    if replaced:
        problems.append(f"kirby functions replaced with tracing off: {replaced[:5]}")

    reference = [reference_ms() for _ in range(5)]
    expected = {}
    for op, digest, _, error in run_round(ops):  # the warm-up round
        problem = outcome_problem(op, digest, error, expected)
        if problem:
            problems.append("warm-up " + problem)

    tally = timed_rounds(ops, expected, args.seconds, trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reference += [reference_ms() for _ in range(5)]
    problems += tally.problems
    replaced = tracing.untouched(kirby)
    if replaced:
        problems.append(f"kirby functions still replaced after the run: {replaced[:5]}")

    import oracles  # imports sympy; kept out of the timed passes and peak_rss_mb

    problems += oracles.check(w, doc, kirby, expected, SRC)

    detail = {
        "workload": w.name,
        "seed": w.seed,
        "trace": args.trace,
        "rounds": sum(len(r) for r in tally.round_seconds.values()),
        "ops_per_round": len(ops),
        "reference_loop_ms": statistics.median(reference),
        "classes": tally.class_table(),
        "problems": problems[:20],
    }
    if trace is None:
        detail["setup_runs_s"] = setup_times
        lat = tally.latencies
        metrics = {
            "ops_per_s": (tally.attempted - tally.failed) / (sum(lat) / 1e3),
            "op_ms.p50": statistics.median(lat),
            "op_ms.p90": statistics.quantiles(lat, n=10)[8],
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    else:
        untraced = statistics.median(tally.round_seconds[False])
        traced = statistics.median(tally.round_seconds[True])
        detail["trace_overhead"] = {
            "untraced_round_s": untraced,
            "traced_round_s": traced,
            "overhead_s": traced - untraced,
            "overhead_pct": 100 * (traced - untraced) / untraced,
        }
        trace_path = OUT / f"trace-{w.name}-{w.seed}.json"
        trace.write(trace_path)
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
        metrics = trace.metrics()

    result = {"correct": not problems, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    with open(OUT / f"result-{w.name}-{w.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1, sort_keys=True)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
