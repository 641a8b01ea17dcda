"""Tests of the benchmark's own checks: each oracle passes the program's
answers and rejects a perturbed one, and tracing leaves kirby untouched.

    python3 -m pytest bench/test_oracles.py
"""

import copy
import dataclasses
import json
from math import gcd

import pytest

import oracles
import run
import tracer
import workloads

kirby = run.import_kirby()


def answers_for(name, seed=3):
    """The warm-up answers of one round (kept failures skipped)."""
    w = workloads.build(name, seed)
    doc = workloads.load(w, kirby)
    ops = [op for op in workloads.operations(w, doc, kirby) if not op.kept]
    answers = {}
    for op, digest, _, error in run.run_round(ops):
        assert error is None, (op.label, error)
        answers[op.label] = digest
    return w, doc, answers


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def workload(request):
    return answers_for(request.param)


def problems(w, doc, answers):
    return oracles.check(w, doc, kirby, answers, run.SRC)


def test_program_answers_pass(workload):
    assert problems(*workload) == []


def perturbed(answers, label, change):
    out = dict(answers)
    out[label] = change(copy.deepcopy(answers[label]))
    return out


def bump_matrix(q):
    q[0][1] += 1
    q[1][0] += 1
    return q


def test_links_oracle_rejects_perturbed_answers():
    w, doc, answers = answers_for("links")
    bad = [
        perturbed(answers, "L10_0.linking_matrix", bump_matrix),
        perturbed(answers, "L12_0.intersection_form",
                  lambda c: dataclasses.replace(c, signature=c.signature + 2)),
        perturbed(answers, "L6_0.invariant_report",
                  lambda r: r.replace('"boundary_h1": "', '"boundary_h1": "Z/2 + ')),
    ]
    for case in bad:
        assert problems(w, doc, case)


def test_links_oracle_checks_a_kept_operation_once_it_finishes():
    w, doc, answers = answers_for("links")
    label = "H16_0.boundary_H1"
    want = oracles.boundary_text(workloads.link_matrix(w.spec["kept"]["H16_0"]))
    assert problems(w, doc, {**answers, label: want}) == []
    assert problems(w, doc, {**answers, label: want + " + Z"})


def test_kept_operation_may_time_out_but_not_raise():
    w = workloads.build("links", 3)
    op = next(op for op in workloads.operations(w, workloads.load(w, kirby), kirby) if op.kept)
    assert run.outcome_problem(op, None, "deadline", {}) is None
    assert run.outcome_problem(op, None, "ValueError: x", {})
    expected = {}
    assert run.outcome_problem(op, "Z/7", None, expected) is None
    assert expected == {op.label: "Z/7"}
    assert run.outcome_problem(op, "Z/5", None, expected)


def test_moves_oracle_rejects_perturbed_answers():
    w, doc, answers = answers_for("moves")
    slide = next(label for label in answers if label.startswith("B8_0.") and "slide" in label)
    ids, q, h1 = answers[slide]
    assert problems(w, doc, {**answers, slide: (ids, bump_matrix(copy.deepcopy(q)), h1)})
    assert problems(w, doc, {**answers, slide: (ids, q, h1 + " + Z")})
    last = f"P22.{workloads.PLUMBING_SLIDES - 1}.slide"
    ids, q, h1 = answers[last]
    assert problems(w, doc, {**answers, last: (ids, bump_matrix(copy.deepcopy(q)), h1)})


def test_search_oracle_rejects_perturbed_answers():
    w, doc, answers = answers_for("search")
    bump = lambda c: dataclasses.replace(c, total=c.total + 1)  # noqa: E731
    bad = [
        perturbed(answers, "T5.homs_s3_raw", bump),
        perturbed(answers, "T9.homs_s4", bump),
        perturbed(answers, "T15.homs_s5",
                  lambda c: dataclasses.replace(c, surjective=c.surjective + 1)),
        perturbed(answers, "T11.tietze_simplify",
                  lambda s: dataclasses.replace(s, log=s.log[:-1])),
        perturbed(answers, "T7.tietze_equivalent", lambda c: None),
    ]
    for case in bad:
        assert problems(w, doc, case)
    label = "F0.stably_equivalent"

    def pad(result):  # one more H on each side: still balanced, no longer minimal
        grow = lambda counts: tuple((s, k + (s == "H")) for s, k in counts)  # noqa: E731
        return dataclasses.replace(result, counts=grow(result.counts),
                                   counts_other=grow(result.counts_other))

    assert answers[label].status == "equivalent"
    assert problems(w, doc, perturbed(answers, label, pad))


def test_corpus_oracle_rejects_perturbed_answers(monkeypatch):
    w, doc, answers = answers_for("corpus")
    assert problems(w, doc, {**answers, "K_0": [("K_0", False, ("$.x: 1 != 2",))]})
    original = kirby.corpus.compute_case

    def tampered(name, doc=None):
        out = original(name, doc)
        if name == "K_0":
            out["wirtinger"]["s3_total"] += 6
        if name == "rho_0":
            out["steps"][1]["boundary_h1"] = "Z/5"
        return out

    monkeypatch.setattr(kirby.corpus, "compute_case", tampered)
    found = problems(w, doc, answers)
    assert any(p.startswith("K_0: S3") for p in found)
    assert any(p.startswith("rho_0: boundary H1 changes") for p in found)


def test_algebra_oracles_on_known_values():
    assert oracles.inertia(kirby.forms.e8_form().rows) == (8, 0, 0)
    assert oracles.inertia([[0, 1], [1, 0]]) == (1, 1, 0)
    assert oracles.inertia([[1, 1], [1, 1]]) == (1, 0, 1)
    assert oracles.boundary_text([[-2, 1], [1, -2]]) == "Z/3"
    assert oracles.boundary_text([[0, 0], [0, 2]]) == "Z/2 + Z"
    counts = oracles.torus_counts(3, [3, 5, 7, 9])
    assert counts == {q: (3 + 3 * gcd(q, 3), 3 * gcd(q, 3) - 3) for q in (3, 5, 7, 9)}
    assert oracles.minimal_witness_total((1, 0, True), (0, 1, True)) == 2
    assert oracles.minimal_witness_total((0, 8, False), (0, 8, False)) == 2


def test_tracing_restores_kirby_and_records_spans():
    w = workloads.build("search", 5)
    doc = workloads.load(w, kirby)
    ops = workloads.operations(w, doc, kirby)[:8]
    trace = tracer.Tracer(kirby)
    run.run_round(ops, trace)
    assert tracer.untouched(kirby) == []
    assert trace.spans and all(span is not None for span in trace.spans)
    names = {trace.names[s[0]] for s in trace.spans}
    assert {"grouppres.wirtinger", "grouppres.enumerate_homs"} <= names
    for name_id, start, end, parent, op in trace.spans:
        assert start <= end
        if parent >= 0:
            _, p_start, p_end, _, p_op = trace.spans[parent]
            assert p_start <= start and end <= p_end and p_op == op
    rnd = trace.rounds[0]
    assert all(rnd["self"][k] <= rnd["total"][k] + 1e-9 for k in rnd["self"])
    assert rnd["calls"]["grouppres.evaluate_word"] > 0
    metrics = trace.metrics()
    assert set(metrics) == set(tracer.PER_LAYER)
    assert json.loads(json.dumps(metrics)) == metrics
