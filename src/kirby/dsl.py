r"""Text formats for diagrams, surfaces, and move scripts.

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

Lexically (one regular expression, ``_LEXEME``) a text is a sequence of
lexemes.  Each is a run of horizontal whitespace (space, tab, CR), maybe
empty, and then one of: punctuation (one of `{}()[],;=$`), an integer
(`[+-]?\d+`, where `\d` is `str.isdecimal`), a sign (`+` or `-`), a name
(`[\w.]+`, where `\w` is `str.isalnum` or `_`), a newline, a string (`"` to
the next `"` on its line), a comment (`#` to the end of the line) or the
end of the text.  An integer is tried before a sign and a name; the others
differ in their first character.  Any other character is a ParseError,
and at a `"` an unterminated string.  A token's column is that of its first
character, and a string's that of its opening quote.  The parser reads
tokens one at a time, at most two ahead, but a lexical fault anywhere is
still reported first.

Declarations end with `;`.  Parse errors carry line and column, counted
in code points.  Values may be integers, `$param` references, signs `+`/`-`,
bare identifiers, quoted strings, tuples `( ... )`, and matrices
`[[...],[...]]`.  The list-valued keys (`edges`, `between`, `strands`,
`through`, `passes`) take a parenthesised tuple, and each diagram and
surface declaration reads only the keys in its row of `_KEYS`.  Each
script step takes the positionals and keys in its row of `_STEPS`, and
must have the keys that row requires.  A declaration or step gives each
key at most once, and one text declares each diagram, surface and script
name at most once; across files, ``_merge`` lets the later block win.
"""

from __future__ import annotations

import re
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import NamedTuple

from . import pdcode
from .pdcode import BoxStrand, Component, Crossing, Diagram, Pass, TwistBox


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {msg}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Tokenizer


class Token(NamedTuple):
    kind: str  # "name" | "int" | "string" | "punct" | "sign"
    value: str
    line: int
    col: int


_PUNCT = "{}()[],;=$"
# The lexical grammar: whitespace, then one lexeme; the group that matched
# is the kind of the lexeme (None for a comment or the end of the text).
_LEXEME = re.compile(
    r"[ \t\r]*(?:"
    r"(?P<punct>[" + re.escape(_PUNCT) + "])"
    r"|(?P<int>[+-]?\d+)"
    r"|(?P<sign>[+-])"
    r"|(?P<name>[\w.]+)"
    r"|(?P<newline>\n)"
    r'|"(?P<string>[^"\n]*)"'
    r"|#[^\n]*"  # comment
    r"|(?P<fault>.)"  # a character that starts no lexeme
    r"|\Z)"  # whitespace at the end of the text
)
_PLAIN = frozenset(("punct", "int", "sign", "name"))  # a token of these kinds starts at its group


def _tokens(text: str) -> Iterator[tuple[str, str, int, int]]:
    """The tokens of ``text`` as plain (kind, value, line, col) tuples, one
    at a time; a character no token can start is a ParseError at its line
    and column (counted in code points)."""
    line, base = 1, -1  # base: the offset before the current line's first character
    for m in _LEXEME.finditer(text):
        kind = m.lastgroup
        if kind in _PLAIN:
            yield kind, m[kind], line, m.start(kind) - base
        elif kind == "newline":
            line, base = line + 1, m.end() - 1
        elif kind == "string":
            yield kind, m[kind], line, m.start(kind) - base - 1  # at the opening quote
        elif kind == "fault":
            ch = m[kind]
            msg = "unterminated string" if ch == '"' else f"unexpected character {ch!r}"
            raise ParseError(msg, line, m.start(kind) - base)


def tokenize(text: str) -> list[Token]:
    return [Token._make(t) for t in _tokens(text)]


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


def _listed(kv: dict, key: str, at: tuple) -> tuple:
    """The items of the list value ``key=(...)``, () when absent.  An item
    of ``edges`` or ``between`` is a name; one of ``through`` or ``passes``
    a (name, sign) pair, where a bare name means +; one of ``strands`` a
    BoxStrand from (left, right, orient).  Anything else is a ParseError
    at ``at``."""
    items = kv.get(key, ())
    if type(items) is not tuple:
        raise ParseError(f"{key} must be a parenthesised list, got {items!r}", *at[2:])
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
                    f"box strand needs (left,right,orient), got {item!r}", *at[2:]
                )
            if type(item[2]) is tuple:  # "+name": the sign took the next name
                raise ParseError("bad strand orientation", *at[2:])
            item = BoxStrand(item[0], item[1], _need_sign(item[2], "strand orientation", at))
        elif key in ("through", "passes"):
            if type(item) is str:
                item = (item, "+")
            if not (type(item) is tuple and len(item) == 2 and type(item[0]) is str):
                raise ParseError(f"bad {what} {item!r}", *at[2:])
            item = (item[0], _need_sign(item[1], f"{what} sign", at))
        elif type(item) is not str:
            raise ParseError(f"bad {what} {item!r}", *at[2:])
        out.append(item)
    return tuple(out)


def _need_sign(value, what: str, at: tuple) -> int:
    sign = _sign(value)
    if sign is None:
        raise ParseError(f"{what} must be + or -, got {value!r}", *at[2:])
    return sign


_MAX_NESTING = 16  # the formats nest 2 deep: strands=((k1, k2, +)), form=[[1]]


class _Parser:
    """Reads tokens one at a time from ``_tokens``: ``tok`` is the next one
    (None at the end of the text) and ``more`` the one after it, once a
    look-ahead has read it.  So the parser holds its output and O(1) tokens.
    The hot loops read ``tok`` and move past it in line."""

    def __init__(self, text: str):
        self.text = text
        self.stream = _tokens(text)
        self.read = chain(self.stream, repeat(None)).__next__  # None past the end
        self.more: list = []  # at most one token, read after tok
        self.tok = self.read()

    # -- token plumbing -----------------------------------------------------

    def advance(self):
        """Moves past the next token."""
        self.tok = self.more.pop() if self.more else self.read()

    def error(self, msg: str):
        t = self.tok
        if t is None:  # at the text's last token, found by lexing it again
            last = deque(_tokens(self.text), maxlen=1)
            line, col = last[0][2:] if last else (1, 1)
            raise ParseError(f"{msg} (at end of input)", line, col)
        raise ParseError(f"{msg} (found {t[1]!r})", *t[2:])

    def take(self, kind: str | None = None, value: str | None = None) -> tuple:
        t = self.tok
        if t is None or (kind and t[0] != kind) or (value and t[1] != value):
            self.error(f"expected {value or kind}")
        self.tok = self.more.pop() if self.more else self.read()
        return t

    def keyword(self, allowed, expected: str) -> tuple:
        """The next token, a name in ``allowed``; ``expected`` names them."""
        t = self.tok
        if t is not None and t[0] == "name" and t[1] not in allowed:
            self.error(expected)
        return self.take("name")

    def key_follows(self) -> bool:
        """Whether the next two tokens are ``name =``."""
        t = self.tok
        if t is None or t[0] != "name":
            return False
        if not self.more:
            self.more.append(self.read())
        eq = self.more[0]
        return eq is not None and eq[1] == "=" and eq[0] == "punct"

    # -- values -------------------------------------------------------------

    def value(self, params: dict, depth: int = 0):
        """int | signed name | name | string | tuple | matrix, read inside
        ``depth`` brackets; a bracket past ``_MAX_NESTING`` is refused."""
        t = self.tok
        if t is None or t[0] == "punct" and t[1] not in "$([":
            self.error("expected a value")
        more, read = self.more, self.read
        self.tok = more.pop() if more else read()
        kind, v = t[0], t[1]
        if kind == "int":
            return int(v)
        if kind == "string":
            return v
        if kind == "sign":
            # "+name" is a signed reference, unless the name starts a key=value
            n = self.tok
            if n is not None and n[0] == "name" and not self.key_follows():
                self.advance()
                return n[1], 1 if v == "+" else -1
            return v  # bare sign, e.g. orientation "+" or "-"
        if kind == "name":
            if v == "true":
                return True
            if v == "false":
                return False
            return v
        if v == "$":
            name = self.take("name")[1]
            if name not in params:
                raise ParseError(f"unknown parameter ${name}", *t[2:])
            return params[name]
        if depth == _MAX_NESTING:  # t is "(" or "["
            raise ParseError(f"nested deeper than {_MAX_NESTING} brackets", *t[2:])
        close = ")" if v == "(" else "]"
        items = []
        while (t := self.tok) is None or t[1] != close or t[0] != "punct":
            items.append(self.value(params, depth + 1))
            t = self.tok
            if t is not None and t[1] == "," and t[0] == "punct":
                self.tok = more.pop() if more else read()
        self.tok = more.pop() if more else read()
        return tuple(items) if close == ")" else items

    def declaration(self, kw: tuple, params: dict) -> tuple[str, dict]:
        """The id, ``key=value`` pairs and ``;`` of the declaration that
        keyword ``kw`` starts; a key outside ``_KEYS[kw[1]]``, or one given
        twice, is refused at ``kw``, as the declaration's other faults are."""
        did = self.take("name")[1]
        keys = _KEYS[kw[1]]
        kv = {}
        more, read = self.more, self.read
        while (t := self.tok) is not None and (t[1] != ";" or t[0] != "punct"):
            if t[0] != "name":
                self.error("expected name")
            self.tok = eq = more.pop() if more else read()
            if eq is None or eq[1] != "=" or eq[0] != "punct":
                self.error("expected =")
            self.tok = more.pop() if more else read()
            key = t[1]
            if key not in keys:
                raise ParseError(
                    f"unknown {kw[1]} key {key!r}; expected one of {', '.join(keys)}", *kw[2:]
                )
            if key in kv:
                raise ParseError(f"{kw[1]} key {key!r} given twice", *kw[2:])
            kv[key] = self.value(params)
        if t is None:
            self.error("expected ;")
        self.tok = more.pop() if more else read()
        return did, kv

    def block_name(self) -> str:
        """Block names may be quoted or bare identifiers."""
        t = self.tok
        return self.take("string" if t is not None and t[0] == "string" else "name")[1]

    # -- blocks -------------------------------------------------------------

    def document(self) -> Document:
        doc = Document()
        blocks = {
            "diagram": (self.diagram_block, doc.diagrams),
            "surface": (self.surface_block, doc.surfaces),
            "script": (self.script_block, doc.scripts),
        }
        while self.tok is not None:
            kw = self.keyword(blocks, "expected 'diagram', 'surface', or 'script'")
            read, into = blocks[kw[1]]
            name = self.block_name()
            if name in into:
                raise ParseError(f"{kw[1]} {name!r} defined twice", *kw[2:])
            into[name] = read(name)
        return doc

    def diagram_block(self, name: str) -> Diagram:
        self.take("punct", "{")
        params: dict = {}
        components: list[Component] = []
        crossings: list[Crossing] = []
        boxes: list[TwistBox] = []
        # passes through each edge so far: a pass's sequence key is its
        # rank among the passes through its edge, in declaration order
        seen: dict[str, int] = {}
        while (t := self.tok) is None or t[1] != "}" or t[0] != "punct":
            kw = self.keyword(
                ("param", "component", "box", "cross", "across"), "expected a diagram declaration"
            )
            if kw[1] == "param":
                pname = self.take("name")[1]
                self.take("punct", "=")
                params[pname] = self.value(params)
                self.take("punct", ";")
                continue
            did, kv = self.declaration(kw, params)
            if kw[1] == "component":
                kind = kv.get("kind", "framed")
                if kind == "dot":
                    kind = pdcode.DOTTED
                if kind not in (pdcode.FRAMED, pdcode.DOTTED, pdcode.PLAIN):
                    raise ParseError(f"unknown kind {kind!r}", *kw[2:])
                through = []
                for e, s in _listed(kv, "through", kw):
                    seen[e] = seen.get(e, 0) + 1
                    through.append(Pass(e, s, seen[e] - 1))
                framing = kv.get("framing") if kind == pdcode.FRAMED else None
                components.append(
                    Component(did, kind, framing, _listed(kv, "edges", kw), tuple(through))
                )
            elif kw[1] == "box":
                boxes.append(TwistBox(did, kv.get("halftwists", 0), _listed(kv, "strands", kw)))
            else:
                sign = _sign(kv.get("sign", "+"))
                if sign is None:
                    raise ParseError("crossing sign must be + or -", *kw[2:])
                if kw[1] == "cross":
                    edges = _listed(kv, "edges", kw)
                    if len(edges) != 4:
                        raise ParseError("cross needs edges=(e1,e2,e3,e4)", *kw[2:])
                    crossings.append(Crossing(did, sign, edges=edges, over=kv.get("over", 0)))
                else:
                    between = _listed(kv, "between", kw)
                    if len(between) != 2:
                        raise ParseError("across needs between=(a,b)", *kw[2:])
                    crossings.append(Crossing(did, sign, between=between))
        self.advance()
        return Diagram(name, tuple(components), tuple(crossings), tuple(boxes))

    def surface_block(self, name: str) -> SurfaceSpec:
        self.take("name", "on")
        host = self.block_name()
        self.take("punct", "{")
        parts: dict[str, list] = {"disk": [], "sheet": [], "ribbon": []}
        while (t := self.tok) is None or t[1] != "}" or t[0] != "punct":
            kw = self.keyword(parts, "expected disk, sheet, or ribbon")
            sid, kv = self.declaration(kw, {})
            if kw[1] == "disk":
                parts["disk"].append((sid, kv.get("abuts")))
            elif kw[1] == "sheet":
                mult = _sign(kv.get("mult", "+"))
                if mult is None:
                    raise ParseError("sheet mult must be + or -", *kw[2:])
                parts["sheet"].append((sid, kv.get("on"), mult, kv.get("cap")))
            else:
                passes = _listed(kv, "passes", kw)
                parts["ribbon"].append((sid, kv.get("from"), kv.get("to"), passes))
        self.advance()
        return SurfaceSpec(
            name, host, tuple(parts["disk"]), tuple(parts["sheet"]), tuple(parts["ribbon"])
        )

    def script_block(self, name: str) -> MoveScript:
        self.take("name", "on")
        target = self.block_name()
        self.take("punct", "{")
        steps: list[Step] = []
        while (t := self.tok) is None or t[1] != "}" or t[0] != "punct":
            kw = self.keyword(_STEPS, "expected a move or assertion")
            args: dict = {}
            positional = []
            flag = "certified"
            while (t := self.tok) is None or t[1] != ";" or t[0] != "punct":
                if t is None:
                    self.error("expected ';'")
                if self.key_follows():
                    key = t[1]
                    self.advance()
                    self.advance()  # the "="
                    if key in args:
                        raise ParseError(f"{kw[1]} key {key!r} given twice", *kw[2:])
                    if key == "_args":  # where the positionals are kept
                        raise ParseError(f"{kw[1]} key '_args' is reserved", *kw[2:])
                    args[key] = self.value({})
                    continue
                p = self.value({})
                if p in ("certified", "trusted-endpoints", "trusted_endpoints"):
                    flag = "certified" if p == "certified" else "trusted-endpoints"
                else:
                    positional.append(p)
            self.advance()
            args["_args"] = tuple(positional)
            steps.append(Step(len(steps), kw[2], kw[1], args, flag))
        self.advance()
        return MoveScript(name, target, tuple(steps))


def parse(text: str) -> Document:
    parser = _Parser(text)
    try:
        return parser.document()
    finally:
        # lex the rest of the text, so that a lexical fault anywhere in it
        # is reported before any fault the parser found
        for _ in parser.stream:
            pass


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
