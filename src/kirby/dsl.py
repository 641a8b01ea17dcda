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
`[[...],[...]]`.  The list-valued keys (`edges`, `between`, `strands`,
`through`, `passes`) take a parenthesised tuple, and each diagram and
surface declaration reads only the keys in its row of `_KEYS`.  Each
script step takes the positionals and keys in its row of `_STEPS`, and
must have the keys that row requires.
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
            j += 1
        elif ch in _PUNCT:
            out.append(Token("punct", ch, line, start_col))
            j = i + 1
        elif ch.isdecimal() or (ch in "+-" and text[i + 1:i + 2].isdecimal()):
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            out.append(Token("int", text[i:j], line, start_col))
        elif ch in "+-":
            out.append(Token("sign", ch, line, start_col))
            j = i + 1
        elif ch.isalnum() or ch in "_.":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "_."):
                j += 1
            out.append(Token("name", text[i:j], line, start_col))
        else:
            raise ParseError(f"unexpected character {ch!r}", line, start_col)
        col += j - i
        i = j
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
    return _SIGNS.get(value) if type(value) in (str, int) else None


# Each script step: the fewest and most positionals it takes, the keys it
# reads (for ``assert``, None: every key the engine measures) and the keys
# it must have.  The parser refuses any other op, and replay refuses a step
# of another shape.
_STEPS = {
    "blowdown": (1, 1, (), ()),
    "blowup": (0, 1, ("sign", "through"), ()),
    "slide": (2, 2, ("sign",), ()),
    "swap_dot": (1, 1, ("cert",), ()),
    "cancel": (2, 2, (), ()),
    "reidemeister": (1, 1, ("site",), ()),
    "isotopy": (0, 0, ("to",), ("to",)),
    "track": (0, 1, ("on", "cap"), ("on",)),
    "transfer_sheets": (2, 2, (), ()),
    "surface_slide": (2, 2, ("sign",), ()),
    "band_slide": (1, 1, ("ribbon",), ("ribbon",)),
    "split_tube": (1, 1, ("sign", "cert", "dual"), ()),
    "cancel_sum": (0, 0, (), ()),
    "assert": (0, 0, None, ()),
}

# The keys each diagram and surface declaration reads; any other is refused.
_KEYS = {
    "component": ("kind", "framing", "edges", "through"),
    "box": ("halftwists", "strands"),
    "cross": ("sign", "over", "edges"),
    "across": ("sign", "between"),
    "disk": ("abuts",),
    "sheet": ("on", "mult", "cap"),
    "ribbon": ("from", "to", "passes"),
}

# What one item of each list-valued key is called in error messages.
_ITEMS = {
    "edges": "edge",
    "between": "component",
    "strands": "box strand",
    "through": "through entry",
    "passes": "pass",
}


def _listed(kv: dict, key: str, at: Token) -> tuple:
    """The items of the list value ``key=(...)``, () when absent.  An item
    of ``edges`` or ``between`` is a name; one of ``through`` or ``passes``
    a (name, sign) pair, where a bare name means +; one of ``strands`` a
    BoxStrand from (left, right, orient).  Anything else is a ParseError
    at ``at``."""
    items = kv.get(key, ())
    if type(items) is not tuple:
        raise ParseError(f"{key} must be a parenthesised list, got {items!r}", at.line, at.col)
    what = _ITEMS[key]
    out = []
    for item in items:
        if key == "strands":
            if not (
                type(item) is tuple
                and len(item) == 3
                and type(item[0]) is str
                and type(item[1]) is str
            ):
                raise ParseError(
                    f"box strand needs (left,right,orient), got {item!r}", at.line, at.col
                )
            if type(item[2]) is tuple:  # "+name": the sign took the next name
                raise ParseError("bad strand orientation", at.line, at.col)
            item = BoxStrand(item[0], item[1], _need_sign(item[2], "strand orientation", at))
        elif key in ("through", "passes"):
            if type(item) is str:
                item = (item, "+")
            if not (type(item) is tuple and len(item) == 2 and type(item[0]) is str):
                raise ParseError(f"bad {what} {item!r}", at.line, at.col)
            item = (item[0], _need_sign(item[1], f"{what} sign", at))
        elif type(item) is not str:
            raise ParseError(f"bad {what} {item!r}", at.line, at.col)
        out.append(item)
    return tuple(out)


def _need_sign(value, what: str, at: Token) -> int:
    sign = _sign(value)
    if sign is None:
        raise ParseError(f"{what} must be + or -, got {value!r}", at.line, at.col)
    return sign


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

    def keyword(self, allowed, expected: str) -> Token:
        """The next token, a name in ``allowed``; ``expected`` names them."""
        t = self.take("name")
        if t.value not in allowed:
            self.pos -= 1
            self.error(expected)
        return t

    def key_follows(self) -> bool:
        """Whether the next two tokens are ``name =``."""
        toks, p = self.tokens, self.pos
        return (
            p + 1 < len(toks)
            and toks[p].kind == "name"
            and toks[p + 1].kind == "punct"
            and toks[p + 1].value == "="
        )

    # -- values -------------------------------------------------------------

    def value(self, params: dict):
        """int | signed name | name | string | tuple | matrix."""
        t = self.peek()
        if t is None:
            self.error("expected a value")
        self.pos += 1
        if t.kind == "int":
            return int(t.value)
        if t.kind == "string":
            return t.value
        if t.kind == "sign":
            # "+name" is a signed reference, unless the name starts a key=value
            if self.at("name") and not self.key_follows():
                return (self.take().value, 1 if t.value == "+" else -1)
            return t.value  # bare sign, e.g. orientation "+" or "-"
        if t.kind == "name":
            if t.value == "true":
                return True
            if t.value == "false":
                return False
            return t.value
        if t.value == "$":
            name = self.take("name").value
            if name not in params:
                raise ParseError(f"unknown parameter ${name}", t.line, t.col)
            return params[name]
        if t.value in "([":
            close = ")" if t.value == "(" else "]"
            items = []
            while not self.at("punct", close):
                items.append(self.value(params))
                if self.at("punct", ","):
                    self.pos += 1
            self.take("punct", close)
            return tuple(items) if close == ")" else items
        self.pos -= 1
        self.error("expected a value")

    def declaration(self, kw: Token, params: dict) -> tuple[str, dict]:
        """The id, ``key=value`` pairs and ``;`` of the declaration that
        keyword ``kw`` starts; a key outside ``_KEYS[kw.value]`` is refused
        at ``kw``, as the declaration's other faults are."""
        did = self.take("name").value
        keys = _KEYS[kw.value]
        kv = {}
        while (t := self.peek()) is not None and not (t.kind == "punct" and t.value == ";"):
            self.take("name")
            self.take("punct", "=")
            if t.value not in keys:
                raise ParseError(
                    f"unknown {kw.value} key {t.value!r}; expected one of {', '.join(keys)}",
                    kw.line,
                    kw.col,
                )
            kv[t.value] = self.value(params)
        self.take("punct", ";")
        return did, kv

    def block_name(self) -> str:
        """Block names may be quoted or bare identifiers."""
        if self.at("string"):
            return self.take("string").value
        return self.take("name").value

    # -- blocks -------------------------------------------------------------

    def document(self) -> Document:
        doc = Document()
        while self.peek() is not None:
            kw = self.keyword(
                ("diagram", "surface", "script"), "expected 'diagram', 'surface', or 'script'"
            )
            if kw.value == "diagram":
                d = self.diagram_block()
                doc.diagrams[d.name] = d
            elif kw.value == "surface":
                s = self.surface_block()
                doc.surfaces[s.name] = s
            else:
                s = self.script_block()
                doc.scripts[s.name] = s
        return doc

    def diagram_block(self) -> Diagram:
        name = self.block_name()
        self.take("punct", "{")
        params: dict = {}
        components: list[Component] = []
        crossings: list[Crossing] = []
        boxes: list[TwistBox] = []
        # passes through each edge so far: a pass's sequence key is its
        # rank among the passes through its edge, in declaration order
        seen: dict[str, int] = {}
        while not self.at("punct", "}"):
            kw = self.keyword(
                ("param", "component", "box", "cross", "across"), "expected a diagram declaration"
            )
            if kw.value == "param":
                pname = self.take("name").value
                self.take("punct", "=")
                params[pname] = self.value(params)
                self.take("punct", ";")
                continue
            did, kv = self.declaration(kw, params)
            if kw.value == "component":
                kind = kv.get("kind", "framed")
                if kind == "dot":
                    kind = pdcode.DOTTED
                if kind not in (pdcode.FRAMED, pdcode.DOTTED, pdcode.PLAIN):
                    raise ParseError(f"unknown kind {kind!r}", kw.line, kw.col)
                through = []
                for e, s in _listed(kv, "through", kw):
                    seen[e] = seen.get(e, 0) + 1
                    through.append(Pass(e, s, seen[e] - 1))
                framing = kv.get("framing") if kind == pdcode.FRAMED else None
                components.append(
                    Component(did, kind, framing, _listed(kv, "edges", kw), tuple(through))
                )
            elif kw.value == "box":
                boxes.append(TwistBox(did, kv.get("halftwists", 0), _listed(kv, "strands", kw)))
            else:
                sign = _sign(kv.get("sign", "+"))
                if sign is None:
                    raise ParseError("crossing sign must be + or -", kw.line, kw.col)
                if kw.value == "cross":
                    edges = _listed(kv, "edges", kw)
                    if len(edges) != 4:
                        raise ParseError("cross needs edges=(e1,e2,e3,e4)", kw.line, kw.col)
                    crossings.append(Crossing(did, sign, edges=edges, over=kv.get("over", 0)))
                else:
                    between = _listed(kv, "between", kw)
                    if len(between) != 2:
                        raise ParseError("across needs between=(a,b)", kw.line, kw.col)
                    crossings.append(Crossing(did, sign, between=between))
        self.take("punct", "}")
        return Diagram(name, tuple(components), tuple(crossings), tuple(boxes))

    def surface_block(self) -> SurfaceSpec:
        name = self.block_name()
        self.take("name", "on")
        host = self.block_name()
        self.take("punct", "{")
        parts: dict[str, list] = {"disk": [], "sheet": [], "ribbon": []}
        while not self.at("punct", "}"):
            kw = self.keyword(parts, "expected disk, sheet, or ribbon")
            sid, kv = self.declaration(kw, {})
            if kw.value == "disk":
                parts["disk"].append((sid, kv.get("abuts")))
            elif kw.value == "sheet":
                mult = _sign(kv.get("mult", "+"))
                if mult is None:
                    raise ParseError("sheet mult must be + or -", kw.line, kw.col)
                parts["sheet"].append((sid, kv.get("on"), mult, kv.get("cap")))
            else:
                passes = _listed(kv, "passes", kw)
                parts["ribbon"].append((sid, kv.get("from"), kv.get("to"), passes))
        self.take("punct", "}")
        return SurfaceSpec(
            name, host, tuple(parts["disk"]), tuple(parts["sheet"]), tuple(parts["ribbon"])
        )

    def script_block(self) -> MoveScript:
        name = self.block_name()
        self.take("name", "on")
        target = self.block_name()
        self.take("punct", "{")
        steps: list[Step] = []
        while not self.at("punct", "}"):
            kw = self.keyword(_STEPS, "expected a move or assertion")
            args: dict = {}
            positional = []
            flag = "certified"
            while not self.at("punct", ";"):
                if self.peek() is None:
                    self.error("expected ';'")
                if self.key_follows():
                    key = self.take().value
                    self.pos += 1  # the "="
                    args[key] = self.value({})
                    continue
                p = self.value({})
                if p in ("certified", "trusted-endpoints", "trusted_endpoints"):
                    flag = "certified" if p == "certified" else "trusted-endpoints"
                else:
                    positional.append(p)
            self.take("punct", ";")
            args["_args"] = tuple(positional)
            steps.append(Step(len(steps), kw.line, kw.value, args, flag))
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
