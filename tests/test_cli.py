"""Command-line interface: exit codes and JSON output."""

import json

import pytest

from kirby import cli


GOOD = """
diagram pair {
  component a kind=framed framing=1;
  component b kind=framed framing=-1;
}
script shuffle on pair {
  slide a b sign=1;
  assert components=2;
}
script broken on pair {
  slide a a sign=1;
}
"""

BAD_SYNTAX = "diagram oops { component a kind="

INVALID = """
diagram dangling {
  component a kind=framed framing=0 edges=(e1, e2);
  cross x sign=+ over=0 edges=(e1, e2, e3, e4);
}
"""


@pytest.fixture
def good_file(tmp_path):
    p = tmp_path / "good.kd"
    p.write_text(GOOD)
    return str(p)


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_validate_ok_and_json(good_file, capsys):
    code, payload = run_json(capsys, ["validate", good_file, "--json"])
    assert code == 0
    assert payload == {"pair": []}


def test_validate_reports_problems(tmp_path, capsys):
    p = tmp_path / "bad.kd"
    p.write_text(INVALID)
    code, payload = run_json(capsys, ["validate", str(p), "--json"])
    assert code == 1
    assert payload["dangling"]


def test_invariants_and_form(good_file, capsys):
    code, payload = run_json(capsys, ["invariants", good_file, "--json"])
    assert code == 0
    rep = payload["pair"]
    assert rep["components"] == 2
    assert rep["form"]["signature"] == 0
    code2, payload2 = run_json(capsys, ["form", good_file, "--json"])
    assert code2 == 0
    assert payload2["pair"] == {
        "matrix": [[1, 0], [0, -1]],
        "rank": 2,
        "signature": 0,
        "parity": "odd",
        "definiteness": "indefinite",
    }


def test_pi1_output(good_file, capsys):
    code, payload = run_json(capsys, ["pi1", good_file, "--json"])
    assert code == 0
    assert payload["pair"]["trivial"] is True


TWIN = """
diagram twin {
  component a kind=framed framing=0 edges=(a1);
  component m kind=dot through=(+a1);
  component b kind=framed framing=0 edges=(b1);
  component n kind=dot through=(+b1);
}
"""


def test_pi1_reports_tietze_budget_exhaustion(tmp_path, monkeypatch, capsys):
    p = tmp_path / "twin.kd"
    p.write_text(TWIN)
    code, payload = run_json(capsys, ["pi1", str(p), "--json"])
    assert code == 0
    assert (payload["twin"]["trivial"], payload["twin"]["budget_exhausted"]) == (True, False)
    # two generators to eliminate, one step allowed
    monkeypatch.setenv("KIRBY_BUDGET", "1")
    code, payload = run_json(capsys, ["pi1", str(p), "--json"])
    assert code == 0
    assert (payload["twin"]["trivial"], payload["twin"]["budget_exhausted"]) == (False, True)


def test_pi1_trivial_assertion_names_an_exhausted_budget(tmp_path, monkeypatch, capsys):
    p = tmp_path / "twin.kd"
    p.write_text(TWIN + "script trivial on twin { assert pi1_trivial=true; }\n")
    argv = ["run", str(p), "--script", "trivial"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    monkeypatch.setenv("KIRBY_BUDGET", "1")
    assert cli.main(argv) == 1
    out = capsys.readouterr().out
    assert "expected True, got False (Tietze budget of 1 steps ran out)" in out


def test_run_script_success_and_failure(good_file, capsys):
    code, payload = run_json(capsys, ["run", good_file, "--script", "shuffle", "--json"])
    assert code == 0
    assert payload["ok"] is True
    code2, payload2 = run_json(capsys, ["run", good_file, "--script", "broken", "--json"])
    assert code2 == 1
    assert payload2["ok"] is False
    assert payload2["steps"][-1]["ok"] is False


def test_input_errors_exit_2(good_file, tmp_path, capsys):
    assert cli.main(["validate", str(tmp_path / "absent.kd")]) == 2
    bad = tmp_path / "syntax.kd"
    bad.write_text(BAD_SYNTAX)
    assert cli.main(["validate", str(bad)]) == 2
    assert cli.main(["validate", good_file, "--diagram", "nope"]) == 2
    assert cli.main(["run", good_file, "--script", "nope"]) == 2
    assert cli.main(["corpus", "verify", "--case", "no-such-case"]) == 2
    capsys.readouterr()


def test_malformed_budget_exits_2(good_file, monkeypatch, capsys):
    monkeypatch.setenv("KIRBY_BUDGET", "abc")
    for argv in (["run", good_file, "--script", "shuffle"], ["pi1", good_file]):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: KIRBY_BUDGET must be an integer, got 'abc'\n"


def test_multiple_input_files_merge(tmp_path, capsys):
    a = tmp_path / "a.kd"
    a.write_text("diagram one { component k kind=framed framing=1; }\n")
    b = tmp_path / "b.ks"
    b.write_text("script go on one { assert components=1; }\n")
    code, payload = run_json(
        capsys, ["run", str(a), str(b), "--script", "go", "--json"]
    )
    assert code == 0 and payload["ok"]


def test_corpus_list_and_verify_subset(capsys):
    code, payload = run_json(capsys, ["corpus", "list", "--json"])
    assert code == 0
    assert payload["W"]["kind"] == "cork"
    code2, payload2 = run_json(
        capsys, ["corpus", "verify", "--case", "W", "--case", "brunnian_m2", "--json"]
    )
    assert code2 == 0
    assert payload2["ok"] is True
    assert set(payload2["cases"]) == {"W", "brunnian_m2"}


def test_run_invalid_tracked_surface_exits_1(tmp_path, capsys):
    p = tmp_path / "track.kd"
    p.write_text(
        "diagram D { component a kind=framed framing=1; }\n"
        "script t on D { track sphere on=nope; }\n"
    )
    assert cli.main(["run", str(p), "--script", "t"]) == 1
    captured = capsys.readouterr()
    assert "FAIL track" in captured.out
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("step", [
    "assert components=1 boundary_h1;",
    "assert boundary_h1;",
    "blowup + through=ab;",
    "isotopy to=[[1]];",
    "reidemeister R1 site=(insert, a);",
    "blowup + thru=(a);",
    "blowdown;",
    "track sphere on=a; swap_dot a cert=disk;",
])
def test_run_refuses_malformed_steps_with_exit_1(tmp_path, capsys, step):
    p = tmp_path / "steps.kd"
    p.write_text(
        "diagram U { component a kind=framed framing=0 edges=(a,b); }\n"
        f"script s on U {{ {step} }}\n"
    )
    assert cli.main(["run", str(p), "--script", "s"]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("diagram", [
    "component a kind=framed framing=0; component b kind=framed framing=0; "
    "across x sign=+ between=(a,b);",
    "component a kind=framed framing=0 edges=(a1,a2); cross x sign=+ over=0 edges=(a1,a2,a9,a1);",
])
def test_run_refuses_an_invalid_target_with_exit_2(tmp_path, capsys, diagram):
    p = tmp_path / "target.kd"
    p.write_text(f"diagram D {{ {diagram} }}\nscript s on D {{ assert components=1; }}\n")
    assert cli.main(["run", str(p), "--script", "s"]) == 2
    assert cli.main(["invariants", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: diagram 'D' is invalid: ")
    assert captured.out == ""
