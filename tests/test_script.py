"""Move-script replay: verdicts, trust flags, and failure localization."""

import itertools
import random

import pytest

from kirby import corpus, dsl, handlebody, pdcode, script
from kirby.handlebody import Handlebody
from kirby.pdcode import Component, Diagram, FRAMED

from test_pdcode import torus_knot


def make_resolver(doc):
    def resolve(name):
        d = doc.diagrams.get(name)
        return Handlebody(d) if d is not None else None

    return resolve


def run_text(text, target_name=None):
    doc = dsl.parse(text)
    s = next(iter(doc.scripts.values()))
    target = Handlebody(doc.diagrams[target_name or s.target])
    return script.run(s, target, resolve=make_resolver(doc))


# -- budgets ---------------------------------------------------------------


def test_default_budget_env(monkeypatch):
    monkeypatch.delenv("KIRBY_BUDGET", raising=False)
    assert script.default_budget() == 2000
    monkeypatch.setenv("KIRBY_BUDGET", "50")
    assert script.default_budget() == 50
    monkeypatch.setenv("KIRBY_BUDGET", "0")
    assert script.default_budget() == 1
    monkeypatch.setenv("KIRBY_BUDGET", "")
    assert script.default_budget() == 2000
    monkeypatch.setenv("KIRBY_BUDGET", "lots")
    with pytest.raises(script.ScriptError, match="KIRBY_BUDGET must be an integer, got 'lots'"):
        script.default_budget()


# -- replay ----------------------------------------------------------------


TWO_SPHERES = """
diagram pair {
  component a kind=framed framing=1;
  component b kind=framed framing=-1;
}
"""


def test_replay_records_boundary_per_step():
    report = run_text(
        TWO_SPHERES
        + """
    script moves on pair {
      blowup +;
      slide a b sign=1;
      blowdown u0;
      assert boundary_h1="0" components=2;
    }
    """
    )
    assert report.ok
    assert [s.op for s in report.steps] == ["blowup", "slide", "blowdown", "assert"]
    assert all(s.ok for s in report.steps)
    assert all(s.boundary_h1 == "0" for s in report.steps)
    assert report.final["homology"]["h1"] == "0"


def test_failure_stops_replay_with_step_index():
    report = run_text(
        TWO_SPHERES
        + """
    script moves on pair {
      slide a b sign=1;
      blowdown a;
      slide a b sign=-1;
    }
    """
    )
    assert not report.ok
    assert len(report.steps) == 2  # nothing runs past the failure
    bad = report.steps[-1]
    assert not bad.ok and bad.index == 1
    assert "step 1" in bad.detail


def test_assert_failure_names_the_key():
    report = run_text(
        TWO_SPHERES
        + """
    script moves on pair {
      assert components=5;
    }
    """
    )
    assert not report.ok
    assert "components" in report.steps[0].detail
    assert "expected 5" in report.steps[0].detail


def test_unknown_op_and_unknown_assert_fail():
    doc = dsl.parse(TWO_SPHERES)
    engine = script.Engine(Handlebody(doc.diagrams["pair"]))
    with pytest.raises(script.ScriptError, match="unknown step"):
        engine.run_step(dsl.Step(0, 1, "teleport", {"_args": ("a",)}))
    report2 = run_text(
        TWO_SPHERES
        + """
    script moves on pair {
      assert chirality=1;
    }
    """
    )
    assert not report2.ok and "unknown assertion" in report2.steps[0].detail


# -- isotopy trust levels --------------------------------------------------


KINKED = """
diagram flat {
  component a kind=framed framing=0 edges=(a1,);
}
diagram roundabout {
  component a kind=framed framing=0;
}
"""


def test_certified_isotopy_reduces_reidemeister_kinks():
    report = run_text(
        KINKED
        + """
    script moves on flat {
      reidemeister R1 site=(insert, a1, 1);
      reidemeister R1 site=(insert, a1, -1);
      isotopy to=flat;
    }
    """
    )
    assert report.ok, report.steps[-1].detail


def test_certified_isotopy_cancels_a_bigon():
    # T(2,5) with a cancelling bigon on the face of k1 and w3: no crossing
    # is a kink, so the R2 pass of the certified search brings the two
    # endpoints together
    knot = pdcode.expand_twistboxes(torus_knot())
    text = "script moves on torus { reidemeister R2 site=(insert, k1, w3); isotopy to=torus; }"
    doc = dsl.Document(diagrams={"torus": knot})
    report = script.run(dsl.parse(text).scripts["moves"], Handlebody(knot), resolve=make_resolver(doc))
    assert report.ok, report.steps[-1].detail
    poked = pdcode.r2_insert(knot, "k1", "w3")
    assert len(poked.crossings) == 7
    assert len(script._greedy_reduce(poked, 100).crossings) == 5
    # a bigon between two loops: its two crossings share all four edges
    loops = run_text(
        """
    diagram two {
      component a kind=framed framing=0 edges=(a1);
      component b kind=framed framing=0 edges=(b1);
    }
    script moves on two { reidemeister R2 site=(insert, a1, b1); isotopy to=two; }
    """
    )
    assert loops.ok, loops.steps[-1].detail
    assert [s.detail for s in loops.steps] == ["applied R2", "isotoped to 'two' (certified)"]


def greedy_by_two_loops(d: pdcode.Diagram, budget: int) -> pdcode.Diagram:
    """``script._greedy_reduce`` as of commit e7e43f4: the kink tries and
    the bigon tries of a pass as two loops, each with its own flag."""
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


def poked_corpus() -> list[Diagram]:
    """Each expanded corpus diagram that validates and has edges, after one
    to four seeded R1 or R2 insertions (an R2 site that is refused is
    skipped)."""
    rng = random.Random(11)
    out = []
    for _, d in sorted(corpus.load_document().diagrams.items()):
        d = pdcode.expand_twistboxes(d)
        if not d.edge_owner() or pdcode.validate(d):
            continue
        for inserts in range(1, 5):
            poked = d
            for _ in range(inserts):
                edges = sorted(poked.edge_owner())
                if rng.random() < 0.5:
                    poked = pdcode.r1_insert(poked, rng.choice(edges), rng.choice((1, -1)))
                    continue
                try:
                    poked = pdcode.r2_insert(poked, rng.choice(edges), rng.choice(edges))
                except pdcode.MoveError:
                    pass
            out.append(poked)
    return out


def test_greedy_pass_matches_the_two_loop_reference():
    # budgets below, at and above the tries one pass takes, so that passes
    # stop early, overrun the budget and run to the end
    subjects = poked_corpus()
    budgets = (1, 2, 3, 5, 8, 50, 2000)
    cut = 0  # the subjects whose result depends on the budget
    for d in subjects:
        got = [script._greedy_reduce(d, budget) for budget in budgets]
        assert got == [greedy_by_two_loops(d, budget) for budget in budgets], d.name
        cut += got[0] != got[-1]
    assert len(subjects) >= 100 and cut >= 50, (len(subjects), cut)


def test_certified_isotopy_rejects_different_encodings():
    # same invariants, structurally different encodings: the certified
    # search must refuse, the trusted-endpoints flag must accept
    refused = run_text(
        KINKED
        + """
    script moves on flat {
      isotopy to=roundabout;
    }
    """
    )
    assert not refused.ok
    assert "could not certify" in refused.steps[0].detail
    accepted = run_text(
        KINKED
        + """
    script moves on flat {
      isotopy to=roundabout trusted_endpoints;
    }
    """
    )
    assert accepted.ok


def test_isotopy_refuses_differing_invariants():
    text = (
        KINKED
        + """
    diagram heavier {
      component a kind=framed framing=1;
    }
    script moves on flat {
      isotopy to=heavier trusted_endpoints;
    }
    """
    )
    report = run_text(text)
    assert not report.ok
    assert "invariant reports differ" in report.steps[0].detail


# -- surface tracking ------------------------------------------------------


def test_track_and_assert_surface():
    report = run_text(
        """
    diagram one {
      component k kind=framed framing=1;
    }
    script moves on one {
      track sphere on=k cap=d0;
      assert class=(1,) chi=2 sphere=true self_intersection=1 sheets_over=(k, 1);
    }
    """
    )
    assert report.ok, report.steps[-1].detail
    assert report.surface == {
        "class": [1],
        "self_intersection": 1,
        "chi": 2,
        "sphere": True,
        "sheets": 1,
    }


def test_moves_refuse_to_discard_tracked_sheets():
    report = run_text(
        """
    diagram one {
      component k kind=framed framing=1;
    }
    script moves on one {
      track sphere on=k;
      blowdown k;
    }
    """
    )
    assert not report.ok
    assert "transfer them first" in report.steps[1].detail


def test_transfer_sheets_needs_trusted_endpoints():
    base = """
    diagram two {
      component k kind=framed framing=1;
      component l kind=framed framing=1;
    }
    """
    refused = run_text(
        base
        + """
    script moves on two {
      track sphere on=k;
      transfer_sheets k l;
    }
    """
    )
    assert not refused.ok
    assert "cannot be certified" in refused.steps[1].detail
    accepted = run_text(
        base
        + """
    script moves on two {
      track sphere on=k;
      transfer_sheets k l trusted_endpoints;
      assert sheets_over=(l, 1) self_intersection=1;
    }
    """
    )
    assert accepted.ok, accepted.steps[-1].detail


def test_transfer_sheets_must_preserve_square():
    report = run_text(
        """
    diagram two {
      component k kind=framed framing=1;
      component l kind=framed framing=3;
    }
    script moves on two {
      track sphere on=k;
      transfer_sheets k l trusted_endpoints;
    }
    """
    )
    assert not report.ok
    assert "self-intersection" in report.steps[1].detail


TRACK_UNKNOWN = """
diagram D {
  component a kind=framed framing=1;
}
script t on D { track sphere on=nope; }
"""


def test_track_on_unknown_handle_fails_the_step():
    report = run_text(TRACK_UNKNOWN)
    assert not report.ok
    assert [s.ok for s in report.steps] == [False]
    assert "unknown 2-handle 'nope'" in report.steps[0].detail
    assert report.surface is None


# -- step signs ------------------------------------------------------------


def test_step_signs_refuse_booleans():
    # true == 1 in Python, but it is no sign
    for steps in (
        "slide a over b sign=true;",
        "blowup true;",
        "blowup sign=true;",
        "track sphere on=a; surface_slide a over b sign=true;",
        "track sphere on=a; split_tube a sign=true;",
    ):
        report = run_text(TWO_SPHERES + f"script s on pair {{ {steps} }}")
        assert not report.ok, steps
        bad = report.steps[-1]
        assert bad.detail == f"step {bad.index}: bad sign True", steps
    for steps in ("slide a over b;", "slide a over b sign=-;", "slide a over b sign=-1;", "blowup +;"):
        report = run_text(TWO_SPHERES + f"script s on pair {{ {steps} }}")
        assert report.ok, (steps, report.steps[-1].detail)


# -- steps that would check nothing or read the wrong input ------------------


UNKNOT = "diagram U { component a kind=framed framing=0 edges=(a1,a2); }\n"


@pytest.mark.parametrize("steps, detail", [
    ("assert components=1 boundary_h1;", "assert needs key=value checks, got ['boundary_h1']"),
    ("assert boundary_h1;", "assert needs key=value checks, got ['boundary_h1']"),
    ("assert;", "assert needs key=value checks, got none"),
    ("blowup + through=a1a2;", "through 'a1a2' is a string, not a list of edges"),
    ("isotopy to=[[1]];", "isotopy needs to=<name>"),
    ("isotopy to=(U);", "isotopy needs to=<name>"),
    ("reidemeister R1 site=(insert, a1);", "malformed R1 site ('insert', 'a1')"),
    ("reidemeister R1 site=(insert, a1, 1, 2);", "malformed R1 site ('insert', 'a1', 1, 2)"),
    ("reidemeister R3 site=(x);", "malformed R3 site ('x',)"),
    ("reidemeister R1 site=insert;", "unknown move 'R1' or site 'insert'"),
    ("blowup + thru=(a1);", "unknown blowup key 'thru'; blowup reads sign, through"),
    ("slide a over b sgn=-;", "unknown slide key 'sgn'; slide reads sign"),
    ("blowdown;", "wrong number of blowdown arguments: takes 1, got []"),
    ("cancel a b c;", "wrong number of cancel arguments: takes 2, got ['a', 'b', 'c']"),
    ("track sphere;", "track needs key 'on'"),
    ("track sphere cap=d0;", "track needs key 'on'"),
    ("band_slide a;", "band_slide needs key 'ribbon'"),
    ("isotopy;", "isotopy needs key 'to'"),
    ("track sphere on=a; blowup + through=(a1);", "tracked surface has sheets over a; transfer them first"),
    ("track sphere on=a; swap_dot a cert=disk;", "tracked surface has sheets over a; transfer them first"),
])
def test_steps_that_check_nothing_or_misread_are_refused(steps, detail):
    report = run_text(UNKNOT + f"script s on U {{ {steps} }}")
    assert not report.ok
    # the last step listed is the one refused
    assert report.steps[-1].detail == f"step {steps.count(';') - 1}: {detail}"


def test_blowup_through_items_read_like_a_components():
    states = []
    for through in ("(-a1, +a2)", "((a1, -), (a2, +))", "((a1, -1), (a2, 1))"):
        doc = dsl.parse(UNKNOT + f"script s on U {{ blowup + through={through}; }}")
        engine = script.Engine(Handlebody(doc.diagrams["U"]))
        engine.run_step(doc.scripts["s"].steps[0])
        states.append(engine.state.diagram)
    assert states[0] == states[1] == states[2]
    for through, detail in (("((a1, x))", "bad sign 'x'"), ("3", "through 3 is not a list of edges")):
        report = run_text(UNKNOT + f"script s on U {{ blowup + through={through}; }}")
        assert not report.ok
        assert report.steps[-1].detail == f"step 0: {detail}"


def test_well_formed_steps_still_replay():
    steps = ("assert components=1 boundary_h1=Z; reidemeister R1 site=(insert, a2, 1); "
             "reidemeister R1 site=(insert, a2, +); "
             "isotopy to=U trusted_endpoints; blowup + through=(a1); assert components=2;")
    report = run_text(UNKNOT + f"script s on U {{ {steps} }}")
    assert report.ok, report.steps[-1].detail


def test_plain_slide_drags_the_tracked_sphere():
    # a slide of the sheet's handle k over h rewrites the class as e_k - e_h,
    # so the sphere keeps its self-intersection
    report = run_text(
        """
    diagram two {
      component k kind=framed framing=1;
      component h kind=framed framing=1;
    }
    script moves on two {
      track sphere on=k;
      slide k over h;
      assert class=(1, -1) self_intersection=1 chi=2 sphere=true;
    }
    """
    )
    assert report.ok, report.steps[-1].detail
    assert report.steps[1].detail == "slid k over h (+1)"
    assert report.surface["self_intersection"] == 1 and report.surface["sheets"] == 2


def test_every_step_op_has_one_handler():
    # dsl._STEPS states the ops; the engine dispatches each to its handler
    assert set(script.Engine._HANDLERS) == set(dsl._STEPS)
    with pytest.raises(dsl.ParseError, match="expected a move or assertion"):
        dsl.parse(UNKNOT + "script s on U { teleport a; }")
