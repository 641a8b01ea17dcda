"""Text formats for diagrams, surfaces, and move scripts.

One document may contain several blocks:

    # framed-link diagram
    diagram "W" {
      param t = -2;
      component a kind=framed framing=0 edges=(a1,a2,a4,a3);
      component m kind=dot through=(+a1,+a2,-a4);
      box B halftwists=$t strands=((a1,a2,+),(a3,a4,-));
      cross X sign=+ over=0 edges=(e1,e2,e3,e4);
      across Y sign=- between=(a,m);
    }

    # critical-level surface, hosted by a named diagram
    surface "S" on "W" {
      disk d0;
      sheet s0 on=a mult=+ cap=d0;
      ribbon r0 from=d0 to=s0 passes=(+m,-m);
    }

    # move script, replayed against a named diagram
    script "rho1" on "C_plus" {
      blowdown u0;
      blowup + through=(+a2,-a4);
      assert boundary_h1 = "0";
    }

`#` starts a comment; declarations end with `;`.  Parse errors carry line
and column.  Values may be integers, `$param` references, signs `+`/`-`,
bare identifiers, quoted strings, tuples `( ... )`, and matrices
`[[...],[...]]`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import pdcode
from .pdcode import BoxStrand, Component, Crossing, Diagram, Pass, TwistBox


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {msg}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Tokenizer

_PUNCT = "{}()[],;=$"


@dataclass(frozen=True)
class Token:
    kind: str  # "name" | "int" | "string" | "punct" | "sign"
    value: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
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
                    raise ParseError("unterminated string", line, start_col)
                j += 1
            if j >= n:
                raise ParseError("unterminated string", line, start_col)
            out.append(Token("string", text[i + 1:j], line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch in _PUNCT:
            out.append(Token("punct", ch, line, start_col))
            i += 1
            col += 1
            continue
        if ch in "+-":
            j = i + 1
            if j < n and text[j].isdigit():
                while j < n and text[j].isdigit():
                    j += 1
                out.append(Token("int", text[i:j], line, start_col))
                col += j - i
                i = j
            else:
                out.append(Token("sign", ch, line, start_col))
                i += 1
                col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(Token("int", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalnum() or ch == "_" or ch == ".":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_."):
                j += 1
            out.append(Token("name", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    return out


# ---------------------------------------------------------------------------
# Parsed values


@dataclass(frozen=True)
class SurfaceSpec:
    """A surface block before its host diagram is attached."""

    name: str
    host: str
    disks: tuple = ()
    sheets: tuple = ()  # (id, on, mult, cap)
    ribbons: tuple = ()  # (id, from, to, passes)


@dataclass(frozen=True)
class Step:
    index: int
    line: int
    op: str
    args: dict
    flag: str = "certified"  # "certified" | "trusted-endpoints"


@dataclass(frozen=True)
class MoveScript:
    name: str
    target: str
    steps: tuple[Step, ...]


@dataclass(frozen=True)
class Document:
    diagrams: dict[str, Diagram] = field(default_factory=dict)
    surfaces: dict[str, SurfaceSpec] = field(default_factory=dict)
    scripts: dict[str, MoveScript] = field(default_factory=dict)


_SIGNS = {"+": 1, "-": -1, 1: 1, -1: -1}


def _sign(value) -> int | None:
    """+1 or -1 for a sign value, None for anything else (``true`` is not 1)."""
    return None if isinstance(value, bool) else _SIGNS.get(value)


def _signed_list(kv: dict, key: str, what: str, at: Token) -> list[tuple]:
    """(name, sign) pairs from the list ``key=(...)``; a bare name means +."""
    items = kv.get(key, ())
    if not isinstance(items, tuple):
        raise ParseError(
            f"{key} must be a parenthesised list, got {items!r}", at.line, at.col
        )
    out = []
    for item in items:
        if isinstance(item, tuple) and len(item) == 2:
            sign = _sign(item[1])
            if sign is None:
                raise ParseError(
                    f"{what} sign must be + or -, got {item[1]!r}", at.line, at.col
                )
            out.append((item[0], sign))
        elif isinstance(item, str):
            out.append((item, 1))
        else:
            raise ParseError(f"bad {what} {item!r}", at.line, at.col)
    return out


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    # -- token plumbing -----------------------------------------------------

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def error(self, msg: str):
        t = self.peek()
        if t is None:
            last = self.tokens[-1] if self.tokens else Token("punct", "", 1, 1)
            raise ParseError(f"{msg} (at end of input)", last.line, last.col)
        raise ParseError(f"{msg} (found {t.value!r})", t.line, t.col)

    def take(self, kind: str | None = None, value: str | None = None) -> Token:
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
                raise ParseError(f"unknown parameter ${name}", t.line, t.col)
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

    def document(self) -> Document:
        doc = Document()
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

    def diagram_block(self) -> Diagram:
        name = self.block_name()
        self.take("punct", "{")
        params: dict = {}
        components: list[Component] = []
        crossings: list[Crossing] = []
        boxes: list[TwistBox] = []
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
                    raise ParseError(f"unknown kind {kind!r}", kw.line, kw.col)
                passes[cid] = _signed_list(kv, "through", "through entry", kw)
                components.append(
                    Component(
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
                        raise ParseError(
                            f"box strand needs (left,right,orient), got {item!r}",
                            kw.line,
                            kw.col,
                        )
                    left, right, orient = item
                    if isinstance(orient, tuple):  # bare sign token parsed oddly
                        raise ParseError("bad strand orientation", kw.line, kw.col)
                    o = _sign(orient)
                    if o is None:
                        raise ParseError(
                            f"strand orientation must be + or -, got {orient!r}",
                            kw.line,
                            kw.col,
                        )
                    strands.append(BoxStrand(left, right, o))
                ht = kv.get("halftwists", 0)
                boxes.append(TwistBox(bid, ht, tuple(strands)))
            elif kw.value in ("cross", "across"):
                xid = self.take("name").value
                kv = self.keyvals(params)
                self.semicolon()
                sign = _sign(kv.get("sign", "+"))
                if sign is None:
                    raise ParseError("crossing sign must be + or -", kw.line, kw.col)
                if kw.value == "cross":
                    edges = tuple(kv.get("edges", ()))
                    if len(edges) != 4:
                        raise ParseError(
                            "cross needs edges=(e1,e2,e3,e4)", kw.line, kw.col
                        )
                    crossings.append(
                        Crossing(xid, sign, edges=edges, over=kv.get("over", 0))
                    )
                else:
                    between = tuple(kv.get("between", ()))
                    if len(between) != 2:
                        raise ParseError("across needs between=(a,b)", kw.line, kw.col)
                    crossings.append(Crossing(xid, sign, between=between))
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
                    marks.append(Pass(e, s, k))
                c = Component(
                    c.id,
                    c.kind,
                    framing=c.framing,
                    edges=c.edges,
                    through=tuple(marks),
                )
            final.append(c)
        return Diagram(name, tuple(final), tuple(crossings), tuple(boxes))

    def surface_block(self) -> SurfaceSpec:
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
                mult = _sign(kv.get("mult", "+"))
                if mult is None:
                    raise ParseError("sheet mult must be + or -", kw.line, kw.col)
                sheets.append((sid, kv.get("on"), mult, kv.get("cap")))
            elif kw.value == "ribbon":
                plist = tuple(_signed_list(kv, "passes", "pass", kw))
                ribbons.append((sid, kv.get("from"), kv.get("to"), plist))
            else:
                self.pos -= 1
                self.error("expected disk, sheet, or ribbon")
        self.take("punct", "}")
        return SurfaceSpec(name, host, tuple(disks), tuple(sheets), tuple(ribbons))

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

    def script_block(self) -> MoveScript:
        name = self.block_name()
        self.take("name", "on")
        target = self.block_name()
        self.take("punct", "{")
        steps: list[Step] = []
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
            steps.append(Step(index, kw.line, kw.value, args, flag))
            index += 1
        self.take("punct", "}")
        return MoveScript(name, target, tuple(steps))


def parse(text: str) -> Document:
    return _Parser(text).document()


def _merge(parts) -> Document:
    """One document holding every block of ``parts``; a later block
    replaces an earlier one of the same name."""
    doc = Document()
    for part in parts:
        doc.diagrams.update(part.diagrams)
        doc.surfaces.update(part.surfaces)
        doc.scripts.update(part.scripts)
    return doc


def parse_file(path) -> Document:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())
