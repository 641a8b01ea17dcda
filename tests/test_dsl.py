"""Text formats for diagrams, surfaces, and move scripts."""

import ast
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kirby import corpus, dsl, pdcode

from conftest import bench_workloads


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
    doc = corpus.load_document()
    assert doc.diagrams and doc.surfaces and doc.scripts
    for d in doc.diagrams.values():
        assert pdcode.validate(d) == []


def test_list_values_need_parentheses_and_names():
    bad = {
        "diagram d { component a kind=framed framing=0 edges=a1; }": (
            "edges must be a parenthesised list, got 'a1'"
        ),
        "diagram d { component a kind=framed framing=0 edges=2; }": (
            "edges must be a parenthesised list, got 2"
        ),
        "diagram d { component a kind=framed framing=0 edges=[a1]; }": (
            "edges must be a parenthesised list, got ['a1']"
        ),
        "diagram d { component a kind=framed framing=0 edges=([1],); }": "bad edge [1]",
        "diagram d { across x between=ab; }": "between must be a parenthesised list, got 'ab'",
        "diagram d { across x between=(a, 2); }": "bad component 2",
        "diagram d { cross x edges=(a, b, c, true); }": "bad edge True",
        "diagram d { box B strands=((1, 2, +)); }": "box strand needs (left,right,orient), got (1, 2, '+')",
        "diagram d { box B strands=a; }": "strands must be a parenthesised list, got 'a'",
        "diagram d { component m kind=dot through=((3, +)); }": "bad through entry (3, '+')",
    }
    for text, message in bad.items():
        with pytest.raises(dsl.ParseError, match=re.escape(message)) as err:
            dsl.parse(text)
        assert (err.value.line, err.value.col) == (1, 13)  # the declaration keyword


def test_sign_values_that_are_not_signs_are_refused():
    assert [dsl._sign(v) for v in ("+", "-", 1, -1, True, [1], (1,), "x", 2)] == [
        1, -1, 1, -1, None, None, None, None, None,
    ]
    bad = {
        "diagram d { across y sign=[1] between=(a,b); }": "crossing sign must be + or -",
        'surface s on "d" { sheet t on=a mult=[1]; }': "sheet mult must be + or -",
        "diagram d { box B strands=((a,b,[1])); }": "strand orientation must be + or -, got [1]",
        "diagram d { component m kind=dot through=((a1, [1])); }": (
            "through entry sign must be + or -, got [1]"
        ),
    }
    for text, message in bad.items():
        with pytest.raises(dsl.ParseError, match=re.escape(message)):
            dsl.parse(text)


def test_unknown_declaration_keys_are_refused():
    bad = {
        "diagram d { box B halftwist=3; }": (
            "line 1, column 13: unknown box key 'halftwist'; expected one of halftwists, strands"
        ),
        "diagram d {\n  across x sign=+ between=(a,b) count=2;\n}": (
            "line 2, column 3: unknown across key 'count'; expected one of sign, between"
        ),
        'surface s on "d" { disk x abut=y; }': (
            "line 1, column 20: unknown disk key 'abut'; expected one of abuts"
        ),
    }
    for text, message in bad.items():
        with pytest.raises(dsl.ParseError) as err:
            dsl.parse(text)
        assert str(err.value) == message
    # every key a declaration reads passes the key check
    for kw, keys in dsl._KEYS.items():
        block = 'surface s on "d" {' if kw in ("disk", "sheet", "ribbon") else "diagram d {"
        for key in keys:
            try:
                dsl.parse(f"{block} {kw} i {key}=(); }}")
            except dsl.ParseError as err:
                assert " key " not in str(err), err


def test_duplicate_component_ids_keep_their_own_passes():
    text = """
    diagram d {
      component a kind=framed framing=0 edges=(e1,);
      component m kind=dot through=(+e1,);
      component m kind=dot through=(-e1, -e1);
    }
    """
    d = dsl.parse(text).diagrams["d"]
    assert [[(p.edge, p.sign, p.seq) for p in c.through] for c in d.components] == [
        [], [("e1", 1, 0)], [("e1", -1, 1), ("e1", -1, 2)],
    ]
    old = reference_parse(text).diagrams["d"]
    assert [[(p.edge, p.sign, p.seq) for p in c.through] for c in old.components] == [
        [], [("e1", -1, 0), ("e1", -1, 1)], [("e1", -1, 2), ("e1", -1, 3)],
    ]
    assert pdcode.validate(d) == ["duplicate component id 'm'"]


def test_unknown_surface_keyword_is_reported_at_the_keyword():
    text = 'surface s on "d" {\n  disk x;\n  shet y on=a;\n}'
    with pytest.raises(dsl.ParseError) as err:
        dsl.parse(text)
    assert str(err.value) == "line 3, column 3: expected disk, sheet, or ribbon (found 'shet')"
    with pytest.raises(dsl.ParseError) as err:
        reference_parse(text)
    assert str(err.value) == "line 3, column 14: expected disk, sheet, or ribbon (found ';')"


def test_integers_are_decimal_digits():
    assert [(t.kind, t.value) for t in dsl.tokenize("+12 -3 45 x- +y 6\u00b2")] == [
        ("int", "+12"), ("int", "-3"), ("int", "45"), ("name", "x"), ("sign", "-"),
        ("sign", "+"), ("name", "y"), ("int", "6"), ("name", "\u00b2"),
    ]


# ---------------------------------------------------------------------------
# The parser as it stood before every declaration had one reader, kept as
# the reference of the differential tests below.  Do not edit.


def reference_tokenize(text: str) -> list[dsl.Token]:
    out = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise dsl.ParseError("unterminated string", line, start_col)
                j += 1
            if j >= n:
                raise dsl.ParseError("unterminated string", line, start_col)
            out.append(dsl.Token("string", text[i + 1:j], line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch in dsl._PUNCT:
            out.append(dsl.Token("punct", ch, line, start_col))
            i += 1
            col += 1
            continue
        if ch in "+-":
            j = i + 1
            if j < n and text[j].isdigit():
                while j < n and text[j].isdigit():
                    j += 1
                out.append(dsl.Token("int", text[i:j], line, start_col))
                col += j - i
                i = j
            else:
                out.append(dsl.Token("sign", ch, line, start_col))
                i += 1
                col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(dsl.Token("int", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalnum() or ch == "_" or ch == ".":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_."):
                j += 1
            out.append(dsl.Token("name", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        raise dsl.ParseError(f"unexpected character {ch!r}", line, start_col)
    return out


_REF_SIGNS = {"+": 1, "-": -1, 1: 1, -1: -1}


def _ref_sign(value) -> int | None:
    """+1 or -1 for a sign value, None for anything else (``true`` is not 1)."""
    return None if isinstance(value, bool) else _REF_SIGNS.get(value)


def _ref_signed_list(kv: dict, key: str, what: str, at: dsl.Token) -> list[tuple]:
    """(name, sign) pairs from the list ``key=(...)``; a bare name means +."""
    items = kv.get(key, ())
    if not isinstance(items, tuple):
        raise dsl.ParseError(
            f"{key} must be a parenthesised list, got {items!r}", at.line, at.col
        )
    out = []
    for item in items:
        if isinstance(item, tuple) and len(item) == 2:
            sign = _ref_sign(item[1])
            if sign is None:
                raise dsl.ParseError(
                    f"{what} sign must be + or -, got {item[1]!r}", at.line, at.col
                )
            out.append((item[0], sign))
        elif isinstance(item, str):
            out.append((item, 1))
        else:
            raise dsl.ParseError(f"bad {what} {item!r}", at.line, at.col)
    return out


class ReferenceParser:
    def __init__(self, text: str):
        self.tokens = reference_tokenize(text)
        self.pos = 0

    # -- token plumbing -----------------------------------------------------

    def peek(self) -> dsl.Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def error(self, msg: str):
        t = self.peek()
        if t is None:
            last = self.tokens[-1] if self.tokens else dsl.Token("punct", "", 1, 1)
            raise dsl.ParseError(f"{msg} (at end of input)", last.line, last.col)
        raise dsl.ParseError(f"{msg} (found {t.value!r})", t.line, t.col)

    def take(self, kind: str | None = None, value: str | None = None) -> dsl.Token:
        t = self.peek()
        if t is None or (kind and t.kind != kind) or (value and t.value != value):
            self.error(f"expected {value or kind}")
        self.pos += 1
        return t

    def at(self, kind: str, value: str | None = None) -> bool:
        t = self.peek()
        return t is not None and t.kind == kind and (value is None or t.value == value)

    # -- values -------------------------------------------------------------

    def value(self, params: dict):
        """int | signed name | name | string | tuple | matrix."""
        t = self.peek()
        if t is None:
            self.error("expected a value")
        if t.kind == "int":
            self.pos += 1
            return int(t.value)
        if t.kind == "string":
            self.pos += 1
            return t.value
        if t.kind == "sign":
            self.pos += 1
            nxt = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
            # "+name" is a signed reference, unless the name starts a key=value
            if self.at("name") and not (
                nxt is not None and nxt.kind == "punct" and nxt.value == "="
            ):
                name = self.take("name").value
                return (name, 1 if t.value == "+" else -1)
            return t.value  # bare sign, e.g. orientation "+" or "-"
        if t.kind == "punct" and t.value == "$":
            self.pos += 1
            name = self.take("name").value
            if name not in params:
                raise dsl.ParseError(f"unknown parameter ${name}", t.line, t.col)
            return params[name]
        if t.kind == "punct" and t.value == "(":
            self.pos += 1
            items = []
            while not self.at("punct", ")"):
                items.append(self.value(params))
                if self.at("punct", ","):
                    self.pos += 1
            self.take("punct", ")")
            return tuple(items)
        if t.kind == "punct" and t.value == "[":
            self.pos += 1
            items = []
            while not self.at("punct", "]"):
                items.append(self.value(params))
                if self.at("punct", ","):
                    self.pos += 1
            self.take("punct", "]")
            return list(items)
        if t.kind == "name":
            self.pos += 1
            if t.value == "true":
                return True
            if t.value == "false":
                return False
            return t.value
        self.error("expected a value")

    def keyvals(self, params: dict, stop=(";",)) -> dict:
        out = {}
        while True:
            t = self.peek()
            if t is None or (t.kind == "punct" and t.value in stop):
                return out
            key = self.take("name").value
            self.take("punct", "=")
            out[key] = self.value(params)

    def semicolon(self):
        self.take("punct", ";")

    def block_name(self) -> str:
        """Block names may be quoted or bare identifiers."""
        if self.at("string"):
            return self.take("string").value
        return self.take("name").value

    # -- blocks -------------------------------------------------------------

    def document(self) -> dsl.Document:
        doc = dsl.Document()
        while self.peek() is not None:
            t = self.take("name")
            if t.value == "diagram":
                d = self.diagram_block()
                doc.diagrams[d.name] = d
            elif t.value == "surface":
                s = self.surface_block()
                doc.surfaces[s.name] = s
            elif t.value == "script":
                s = self.script_block()
                doc.scripts[s.name] = s
            else:
                self.pos -= 1
                self.error("expected 'diagram', 'surface', or 'script'")
        return doc

    def diagram_block(self) -> pdcode.Diagram:
        name = self.block_name()
        self.take("punct", "{")
        params: dict = {}
        components: list[pdcode.Component] = []
        crossings: list[pdcode.Crossing] = []
        boxes: list[pdcode.TwistBox] = []
        passes: dict[str, list] = {}  # component id -> [(edge, sign)]
        while not self.at("punct", "}"):
            kw = self.take("name")
            if kw.value == "param":
                pname = self.take("name").value
                self.take("punct", "=")
                params[pname] = self.value(params)
                self.semicolon()
            elif kw.value == "component":
                cid = self.take("name").value
                kv = self.keyvals(params)
                self.semicolon()
                kind = kv.get("kind", "framed")
                if kind == "dot":
                    kind = pdcode.DOTTED
                if kind not in (pdcode.FRAMED, pdcode.DOTTED, pdcode.PLAIN):
                    raise dsl.ParseError(f"unknown kind {kind!r}", kw.line, kw.col)
                passes[cid] = _ref_signed_list(kv, "through", "through entry", kw)
                components.append(
                    pdcode.Component(
                        cid,
                        kind,
                        framing=kv.get("framing") if kind == pdcode.FRAMED else None,
                        edges=tuple(kv.get("edges", ())),
                    )
                )
            elif kw.value == "box":
                bid = self.take("name").value
                kv = self.keyvals(params)
                self.semicolon()
                strands = []
                for item in kv.get("strands", ()):
                    if not (isinstance(item, tuple) and len(item) == 3):
                        raise dsl.ParseError(
                            f"box strand needs (left,right,orient), got {item!r}",
                            kw.line,
                            kw.col,
                        )
                    left, right, orient = item
                    if isinstance(orient, tuple):  # bare sign token parsed oddly
                        raise dsl.ParseError("bad strand orientation", kw.line, kw.col)
                    o = _ref_sign(orient)
                    if o is None:
                        raise dsl.ParseError(
                            f"strand orientation must be + or -, got {orient!r}",
                            kw.line,
                            kw.col,
                        )
                    strands.append(pdcode.BoxStrand(left, right, o))
                ht = kv.get("halftwists", 0)
                boxes.append(pdcode.TwistBox(bid, ht, tuple(strands)))
            elif kw.value in ("cross", "across"):
                xid = self.take("name").value
                kv = self.keyvals(params)
                self.semicolon()
                sign = _ref_sign(kv.get("sign", "+"))
                if sign is None:
                    raise dsl.ParseError("crossing sign must be + or -", kw.line, kw.col)
                if kw.value == "cross":
                    edges = tuple(kv.get("edges", ()))
                    if len(edges) != 4:
                        raise dsl.ParseError(
                            "cross needs edges=(e1,e2,e3,e4)", kw.line, kw.col
                        )
                    crossings.append(
                        pdcode.Crossing(xid, sign, edges=edges, over=kv.get("over", 0))
                    )
                else:
                    between = tuple(kv.get("between", ()))
                    if len(between) != 2:
                        raise dsl.ParseError("across needs between=(a,b)", kw.line, kw.col)
                    crossings.append(pdcode.Crossing(xid, sign, between=between))
            else:
                self.pos -= 1
                self.error("expected a diagram declaration")
        self.take("punct", "}")
        # attach passes to round components; sequence keys must be unique
        # per edge across the whole diagram, in declaration order
        seq_counter: dict[str, int] = {}
        final = []
        for c in components:
            plist = passes.get(c.id, [])
            if plist:
                marks = []
                for e, s in plist:
                    k = seq_counter.get(e, 0)
                    seq_counter[e] = k + 1
                    marks.append(pdcode.Pass(e, s, k))
                c = pdcode.Component(
                    c.id,
                    c.kind,
                    framing=c.framing,
                    edges=c.edges,
                    through=tuple(marks),
                )
            final.append(c)
        return pdcode.Diagram(name, tuple(final), tuple(crossings), tuple(boxes))

    def surface_block(self) -> dsl.SurfaceSpec:
        name = self.block_name()
        self.take("name", "on")
        host = self.block_name()
        self.take("punct", "{")
        disks, sheets, ribbons = [], [], []
        while not self.at("punct", "}"):
            kw = self.take("name")
            sid = self.take("name").value
            kv = self.keyvals({})
            self.semicolon()
            if kw.value == "disk":
                disks.append((sid, kv.get("abuts")))
            elif kw.value == "sheet":
                mult = _ref_sign(kv.get("mult", "+"))
                if mult is None:
                    raise dsl.ParseError("sheet mult must be + or -", kw.line, kw.col)
                sheets.append((sid, kv.get("on"), mult, kv.get("cap")))
            elif kw.value == "ribbon":
                plist = tuple(_ref_signed_list(kv, "passes", "pass", kw))
                ribbons.append((sid, kv.get("from"), kv.get("to"), plist))
            else:
                self.pos -= 1
                self.error("expected disk, sheet, or ribbon")
        self.take("punct", "}")
        return dsl.SurfaceSpec(name, host, tuple(disks), tuple(sheets), tuple(ribbons))

    _STEP_OPS = {
        "blowdown",
        "blowup",
        "slide",
        "swap_dot",
        "cancel",
        "reidemeister",
        "isotopy",
        "track",
        "transfer_sheets",
        "surface_slide",
        "band_slide",
        "split_tube",
        "cancel_sum",
        "assert",
    }

    def script_block(self) -> dsl.MoveScript:
        name = self.block_name()
        self.take("name", "on")
        target = self.block_name()
        self.take("punct", "{")
        steps: list[dsl.Step] = []
        index = 0
        while not self.at("punct", "}"):
            kw = self.take("name")
            if kw.value not in self._STEP_OPS:
                self.pos -= 1
                self.error("expected a move or assertion")
            args: dict = {}
            positional = []
            while not self.at("punct", ";"):
                t = self.peek()
                if t is None:
                    self.error("expected ';'")
                nxt = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
                if (
                    t.kind == "name"
                    and nxt is not None
                    and nxt.kind == "punct"
                    and nxt.value == "="
                ):
                    key = self.take("name").value
                    self.take("punct", "=")
                    args[key] = self.value({})
                else:
                    positional.append(self.value({}))
            self.semicolon()
            flag = "certified"
            cleaned = []
            for p in positional:
                if p in ("trusted-endpoints", "trusted_endpoints"):
                    flag = "trusted-endpoints"
                elif p == "certified":
                    flag = "certified"
                else:
                    cleaned.append(p)
            args["_args"] = tuple(cleaned)
            steps.append(dsl.Step(index, kw.line, kw.value, args, flag))
            index += 1
        self.take("punct", "}")
        return dsl.MoveScript(name, target, tuple(steps))


def reference_parse(text: str) -> dsl.Document:
    return ReferenceParser(text).document()


# ---------------------------------------------------------------------------
# Differential tests: dsl.parse against reference_parse


def _outcome(parse, text):
    try:
        return ("ok", parse(text))
    except dsl.ParseError as err:
        return ("refused", str(err), err.line, err.col)
    except Exception as err:  # an untyped failure is one of the outcomes compared
        return ("raised", type(err).__name__)


# Refusals the rewrite added: list values that are not parenthesised lists
# of names, unknown declaration keys, and an unknown surface keyword, which
# is now reported at the keyword rather than at the ";" after it.
_NEW_REFUSALS = {
    "list value": re.compile(
        r"(edges|between|strands) must be a parenthesised list, got "
        r"|bad (edge|component|through entry|pass) "
        r"|box strand needs \(left,right,orient\), got "
    ),
    "unknown key": re.compile(r"unknown (component|box|cross|across|disk|sheet|ribbon) key "),
    "surface keyword": re.compile(r"expected disk, sheet, or ribbon \(found "),
}


def _without_passes(doc):
    return {
        name: (d.name, [(c.id, c.kind, c.framing, c.edges) for c in d.components], d.crossings, d.boxes)
        for name, d in doc.diagrams.items()
    }


def _difference(old, new) -> str | None:
    """None when the two outcomes agree, else the listed difference that
    explains them, or "unexplained"."""
    if old == new:
        return None
    if new[0] == "refused":
        if old[0] == "raised":
            return "typed refusal"  # today's parser raised an untyped error
        message = new[1].split(": ", 1)[1]
        for name, pattern in _NEW_REFUSALS.items():
            # refused at a declaration that today's parser read past
            if pattern.match(message) and (old[0] == "ok" or old[0] == "refused" and old[2:] >= new[2:]):
                return name
    if old[0] == new[0] == "ok":
        a, b = old[1], new[1]
        dup = {
            name for name, d in a.diagrams.items()
            if len({c.id for c in d.components}) < len(d.components)
        }
        if (
            dup
            and (a.surfaces, a.scripts) == (b.surfaces, b.scripts)
            and _without_passes(a) == _without_passes(b)
            and all(a.diagrams[n] == b.diagrams[n] for n in a.diagrams.keys() - dup)
        ):
            return "duplicate component id"
    return "unexplained"


def _corpus_sources() -> list[str]:
    return [
        entry.read_text(encoding="utf-8")
        for entry in sorted(corpus.data_root().iterdir(), key=lambda e: e.name)
        if entry.name.endswith((".kd", ".ks"))
    ]


def _workload_texts() -> list[str]:
    w = bench_workloads()
    return [w.build(name, seed).text for name in ("links", "moves", "search") for seed in (1, 2)]


def _suite_texts() -> list[str]:
    """Every string constant of the test suite that holds a block."""
    out = []
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and re.search(r"\b(diagram|surface|script)\b[^;{}]*\{", node.value)
            ):
                out.append(node.value)
    return out


def _spans(text: str) -> list[tuple[int, int]]:
    """Source offsets (start, end) of each token of ``text``."""
    starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
    out = []
    for t in reference_tokenize(text):
        start = starts[t.line - 1] + t.col - 1
        out.append((start, start + len(t.value) + (2 if t.kind == "string" else 0)))
    return out


def _tokenizes(text: str) -> bool:
    try:
        reference_tokenize(text)
    except dsl.ParseError:
        return False
    return True


def _blocks(text: str) -> list[str]:
    """The top-level blocks of ``text``, each as its own source."""
    out, depth, start = [], 0, None
    for (a, b), t in zip(_spans(text), reference_tokenize(text)):
        if depth == 0 and start is None:
            start = a
        if t.value == "{" and t.kind == "punct":
            depth += 1
        elif t.value == "}" and t.kind == "punct":
            depth -= 1
            if depth == 0:
                out.append(text[start:b])
                start = None
    return out


# Replacement and inserted snippets: bad values, stray punctuation and
# misspelt keys.  A mutation may also use any token of the text it mutates.
SNIPPETS = (
    "2", "-1", "x", "a1", "true", '"s"', "[1]", "(", ")", "[", "]", ",", ";", "=",
    "$t", "+", "-", "{", "}", "halftwist", "count", "over", "shet", "edges",
)
MUTATIONS = ("delete", "replace", "insert")


def _mutate(text: str, spans, k: int, op: str, snippet: str) -> str:
    a, b = spans[k]
    if op == "delete":
        return text[:a] + text[b:]
    if op == "replace":
        return text[:a] + snippet + text[b:]
    return text[:a] + snippet + " " + text[a:]


CORPUS_BLOCKS = [b for text in _corpus_sources() for b in _blocks(text)]


def test_parse_matches_reference_on_every_source():
    for text in _corpus_sources() + _workload_texts():
        assert _outcome(dsl.parse, text) == _outcome(reference_parse, text)
    # the suite holds texts written to show the listed differences
    kinds = {
        text: _difference(_outcome(reference_parse, text), _outcome(dsl.parse, text))
        for text in _suite_texts()
    }
    assert [text for text, kind in kinds.items() if kind == "unexplained"] == []
    assert set(kinds.values()) == {
        None, "list value", "unknown key", "surface keyword", "typed refusal",
        "duplicate component id",
    }


def test_parse_matches_reference_on_mutations():
    """Seeded one-token mutations of the corpus blocks, the small workload
    blocks and the suite texts.  Workload blocks over 40 lines are left to
    the unmutated test: they repeat the declarations of the small ones."""
    rng = random.Random(15)
    bases = CORPUS_BLOCKS + [text for text in _suite_texts() if _tokenizes(text)] + [
        b for text in _workload_texts() for b in _blocks(text) if b.count("\n") <= 40
    ]
    counts: dict[str, int] = {}
    unexplained = []
    for _ in range(4000):
        text = rng.choice(bases)
        spans = _spans(text)
        k = rng.randrange(len(spans))
        op = rng.choice(MUTATIONS)
        a, b = rng.choice(spans)
        snippet = rng.choice(SNIPPETS + (text[a:b],))
        mutant = _mutate(text, spans, k, op, snippet)
        kind = _difference(_outcome(reference_parse, mutant), _outcome(dsl.parse, mutant))
        counts[kind] = counts.get(kind, 0) + 1
        if kind == "unexplained":
            unexplained.append(mutant)
    assert not unexplained, unexplained[:3]
    assert counts[None] > 3000, counts
    assert {"list value", "unknown key", "surface keyword", "typed refusal"} <= counts.keys(), counts


@st.composite
def corpus_mutants(draw):
    text = draw(st.sampled_from(CORPUS_BLOCKS))
    spans = _spans(text)
    k = draw(st.integers(0, len(spans) - 1))
    op = draw(st.sampled_from(MUTATIONS))
    snippet = draw(st.sampled_from(SNIPPETS + tuple(text[a:b] for a, b in spans)))
    return _mutate(text, spans, k, op, snippet)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(corpus_mutants())
def test_mutated_corpus_texts_parse_or_refuse_and_validate(text):
    try:
        doc = dsl.parse(text)
    except dsl.ParseError:
        return
    for d in doc.diagrams.values():
        assert isinstance(pdcode.validate(d), list)
