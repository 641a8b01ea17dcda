"""Bundled corpus verification: frozen reports, replay, and tampering."""

from dataclasses import replace

import pytest

from kirby import corpus, dsl
from kirby.handlebody import Handlebody


@pytest.fixture(scope="module")
def doc():
    return corpus.load_document()


def test_registry_and_full_verification(doc):
    registry = corpus.cases()
    assert len(registry) == 61
    report = corpus.verify_corpus(doc=doc)
    assert report.ok
    assert len(report.results) == len(registry)
    assert all(r.ok and not r.diffs for r in report.results)
    d = report.as_dict()
    assert d["ok"] and set(d["cases"]) == set(registry)
    # a case is trusted exactly when its script has a trusted-endpoints step
    trust = {
        name: "trusted-endpoints"
        if c.kind == "script"
        and any(step.flag == "trusted-endpoints" for step in doc.scripts[name].steps)
        else "replayed"
        for name, c in registry.items()
    }
    assert {name: c.trust for name, c in registry.items()} == trust
    assert set(trust.values()) == {"trusted-endpoints", "replayed"}


def test_registry_copies_do_not_leak(doc):
    first = corpus.cases()
    assert first == corpus.cases() and first is not corpus.cases()
    assert first["K_0"] == corpus.CorpusCase("K_0", "knot", "replayed")
    assert first["rho_m2"].trust == "trusted-endpoints"
    first.clear()
    first["bogus"] = corpus.CorpusCase("bogus", "knot", "replayed")
    assert len(corpus.cases()) == 61 and "bogus" not in corpus.cases()
    report = corpus.verify_corpus(["K_0", "bogus"], doc=doc)
    assert [r.ok for r in report.results] == [True, False]
    assert "unknown case" in report.results[1].diffs[0]
    assert [r.name for r in corpus.verify_corpus(doc=doc).results] == sorted(corpus.cases())


def test_verification_is_order_independent(doc):
    names = sorted(corpus.cases())[:6]
    fwd = corpus.verify_corpus(names, doc=doc)
    rev = corpus.verify_corpus(list(reversed(names)), doc=doc)
    assert fwd.ok and rev.ok
    assert {r.name for r in fwd.results} == {r.name for r in rev.results}


def test_unknown_case_reported_not_raised(doc):
    report = corpus.verify_corpus(["no-such-case"], doc=doc)
    assert not report.ok
    assert "unknown case" in report.results[0].diffs[0]


def test_diff_reports_localizes_paths():
    want = {"a": {"b": [1, 2, 3]}, "c": True}
    got = {"a": {"b": [1, 9, 3]}, "c": False, "d": 0}
    diffs = corpus.diff_reports(want, got)
    assert "$.a.b[1]: 9 != expected 2" in diffs
    assert "$.c: False != expected True" in diffs
    assert any(d.startswith("$.d: unexpected key") for d in diffs)
    assert corpus.diff_reports(want, want) == []


def test_tampered_expected_report_fails_with_localized_diff(doc, monkeypatch):
    original = corpus.expected_case

    def tampered(name):
        out = original(name)
        if name == "C_0":
            out["report"]["homology"]["contractible"] = False
        return out

    monkeypatch.setattr(corpus, "expected_case", tampered)
    report = corpus.verify_corpus(["C_0", "C_m1"], doc=doc)
    by_name = {r.name: r for r in report.results}
    assert by_name["C_m1"].ok
    assert not by_name["C_0"].ok
    assert by_name["C_0"].diffs == (
        "$.report.homology.contractible: True != expected False",
    )


def test_tampered_script_step_fails(doc):
    tampered = dsl.Document(
        dict(doc.diagrams), dict(doc.surfaces), dict(doc.scripts)
    )
    ms = tampered.scripts["rho_0"]
    steps = list(ms.steps)
    for i, st in enumerate(steps):
        if st.op == "blowdown":
            steps[i] = replace(st, args={**st.args, "_args": ("a",)})
            break
    tampered.scripts["rho_0"] = replace(ms, steps=tuple(steps))
    report = corpus.verify_corpus(["rho_0"], doc=tampered)
    assert not report.ok
    diffs = report.results[0].diffs
    assert any("steps[" in d for d in diffs)


def test_tampered_source_diagram_fails(doc):
    tampered = dsl.Document(
        dict(doc.diagrams), dict(doc.surfaces), dict(doc.scripts)
    )
    d = tampered.diagrams["C_0"]
    comps = tuple(
        replace(c, framing=1) if c.id == "a" else c for c in d.components
    )
    tampered.diagrams["C_0"] = replace(d, components=comps)
    report = corpus.verify_corpus(["C_0"], doc=tampered)
    assert not report.ok
    assert any("$." in x for x in report.results[0].diffs)


def test_missing_source_reports_computation_failure(doc):
    tampered = dsl.Document(
        dict(doc.diagrams), dict(doc.surfaces), dict(doc.scripts)
    )
    del tampered.diagrams["C_0"]
    report = corpus.verify_corpus(["C_0"], doc=tampered)
    assert not report.ok
    assert "computation failed" in report.results[0].diffs[0]


def test_every_script_step_leaves_a_valid_diagram(doc):
    from kirby import pdcode, script

    for name, ms in doc.scripts.items():
        engine = script.Engine(
            Handlebody(doc.diagrams[ms.target]),
            resolve=lambda n: Handlebody(doc.diagrams[n]) if n in doc.diagrams else None,
        )
        for step in ms.steps:
            engine.run_step(step)
            assert pdcode.validate(engine.state.diagram) == [], (name, step.index, step.op)

