"""Text formats for diagrams, surfaces, and move scripts."""

import re

import pytest

from kirby import dsl, pdcode


DIAGRAM = """
diagram twist {
  param t = -2;
  component a kind=framed framing=0 edges=(a1, a2, a4, a3);
  component m kind=dot through=(+a1, +a2, -a4);
  box B halftwists=$t strands=((a1, a2, +), (a3, a4, -));
}
"""


def test_parse_diagram_block():
    doc = dsl.parse(DIAGRAM)
    d = doc.diagrams["twist"]
    assert pdcode.validate(d) == []
    a = d.component("a")
    assert (a.kind, a.framing) == (pdcode.FRAMED, 0)
    assert a.edges == ("a1", "a2", "a4", "a3")
    m = d.component("m")
    assert m.kind == pdcode.DOTTED
    assert [(p.edge, p.sign) for p in m.through] == [("a1", 1), ("a2", 1), ("a4", -1)]
    box = d.boxes[0]
    assert box.halftwists == -2  # via the $t parameter
    assert [(s.left, s.right, s.orient) for s in box.strands] == [
        ("a1", "a2", 1),
        ("a3", "a4", -1),
    ]


def test_pass_sequence_keys_are_per_edge():
    text = """
    diagram d {
      component a kind=framed framing=0 edges=(e1,);
      component m1 kind=dot through=(+e1,);
      component m2 kind=dot through=(+e1, -e1);
    }
    """
    d = dsl.parse(text).diagrams["d"]
    seqs = [
        (c.id, p.edge, p.seq) for c in d.components for p in c.through
    ]
    assert seqs == [("m1", "e1", 0), ("m2", "e1", 1), ("m2", "e1", 2)]
    assert pdcode.validate(d) == []


def test_parse_abstract_crossings_and_framed_unknots():
    text = """
    diagram d {
      component a kind=framed framing=1;
      component b kind=framed framing=0;
      across x0 sign=+ between=(a, b);
      across x1 sign=+ between=(a, b);
    }
    """
    d = dsl.parse(text).diagrams["d"]
    assert pdcode.linking_number(d, "a", "b") == 1


def test_parse_surface_block():
    text = """
    diagram host {
      component k kind=framed framing=1;
    }
    surface cap on host {
      disk d0;
      sheet core on=k mult=+ cap=d0;
      ribbon r0 from=d0 to=core passes=(+d0, -d0);
    }
    """
    doc = dsl.parse(text)
    spec = doc.surfaces["cap"]
    assert spec.host == "host"
    assert spec.disks == (("d0", None),)
    assert spec.sheets == (("core", "k", 1, "d0"),)
    assert spec.ribbons == (("r0", "d0", "core", (("d0", 1), ("d0", -1))),)


def test_parse_script_block_with_flags():
    text = """
    script moves on host {
      blowup + through=(+a1,);
      slide a b sign=-1;
      isotopy to=other trusted_endpoints;
      assert boundary_h1="Z/2" form=[[1, 0], [0, -1]];
    }
    """
    doc = dsl.parse(text)
    s = doc.scripts["moves"]
    assert s.target == "host"
    assert [st.op for st in s.steps] == ["blowup", "slide", "isotopy", "assert"]
    assert s.steps[0].index == 0 and s.steps[0].args["_args"] == ("+",)
    assert s.steps[1].args["_args"] == ("a", "b")
    assert s.steps[1].args["sign"] == -1
    assert s.steps[2].flag == "trusted-endpoints"
    assert s.steps[0].flag == "certified"
    assert s.steps[3].args["boundary_h1"] == "Z/2"
    assert s.steps[3].args["form"] == [[1, 0], [0, -1]]
    # each step remembers its source line for error reports
    assert all(st.line > 0 for st in s.steps)


def test_parse_errors_carry_position():
    with pytest.raises(dsl.ParseError) as err:
        dsl.parse('diagram d {\n  component a kind=nope;\n}')
    assert err.value.line == 2
    with pytest.raises(dsl.ParseError):
        dsl.parse('diagram d { component a kind=framed framing=$missing; }')
    with pytest.raises(dsl.ParseError) as err2:
        dsl.parse('diagram d { box B halftwists="x" }')
    assert err2.value.line == 1
    with pytest.raises(dsl.ParseError):
        dsl.tokenize('diagram "unterminated')
    with pytest.raises(dsl.ParseError):
        dsl.tokenize("diagram d { ? }")


def test_signed_lists_and_signs_keep_their_messages():
    d = dsl.parse("diagram d { component m kind=dot through=(+a1, b1, -c1); }")
    marks = d.diagrams["d"].component("m").through
    assert [(p.edge, p.sign) for p in marks] == [("a1", 1), ("b1", 1), ("c1", -1)]
    s = dsl.parse('surface s on "d" { disk x; ribbon r from=x to=x passes=(-x, x); }')
    assert s.surfaces["s"].ribbons[0][3] == (("x", -1), ("x", 1))
    d = dsl.parse("diagram d { component m kind=dot through=((a1, -), (b1, +), (c1, -1)); }")
    marks = d.diagrams["d"].component("m").through
    assert [(p.edge, p.sign) for p in marks] == [("a1", -1), ("b1", 1), ("c1", -1)]
    s = dsl.parse('surface s on "d" { disk x; ribbon r from=x to=x passes=((x, -)); }')
    assert s.surfaces["s"].ribbons[0][3] == (("x", -1),)
    bad = {
        "diagram d { component m kind=dot through=((a,b,c)); }": "bad through entry",
        'surface s on "d" { disk x; ribbon r from=x to=x passes=(3); }': "bad pass 3",
        "diagram d { across y sign=x between=(a,b); }": "crossing sign must be + or -",
        'surface s on "d" { sheet t on=a mult=0; }': "sheet mult must be + or -",
        "diagram d { box B strands=((a,b,x)); }": "strand orientation must be + or -",
        "diagram d { component m kind=dot through=a1; }": (
            "through must be a parenthesised list, got 'a1'"
        ),
        'surface s on "d" { disk x; ribbon r from=x to=x passes=x; }': (
            "passes must be a parenthesised list, got 'x'"
        ),
        "diagram d { across y sign=true between=(a,b); }": "crossing sign must be + or -",
        'surface s on "d" { sheet t on=a mult=true; }': "sheet mult must be + or -",
        "diagram d { box B strands=((a,b,true)); }": "strand orientation must be + or -, got True",
        "diagram d { component m kind=dot through=((a1, b1)); }": (
            "through entry sign must be + or -, got 'b1'"
        ),
        "diagram d { component m kind=dot through=((a2, 7)); }": (
            "through entry sign must be + or -, got 7"
        ),
        "diagram d { component m kind=dot through=((a2, true)); }": (
            "through entry sign must be + or -, got True"
        ),
        'surface s on "d" { disk x; ribbon r from=x to=x passes=((x, y)); }': (
            "pass sign must be + or -, got 'y'"
        ),
    }
    for text, message in bad.items():
        with pytest.raises(dsl.ParseError, match=re.escape(message)):
            dsl.parse(text)


def test_corpus_files_parse_and_merge():
    from kirby import corpus

    doc = corpus.load_document()
    assert doc.diagrams and doc.surfaces and doc.scripts
    for d in doc.diagrams.values():
        assert pdcode.validate(d) == []
