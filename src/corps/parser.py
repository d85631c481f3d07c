"""Concrete syntax for Corps programs.

Grammar (`//` starts a line comment):

    program  ::= topo? input* def* mainDef
    topo     ::= "topology" (IDENT | STRING) ";"
    input    ::= "input" IDENT ":" type ";"
    def      ::= "def" IDENT ":" type "=" expr ";"
    mainDef  ::= "main" ":" type "=" expr ";"
    path     ::= "[" "]" | "[" AGENT ("." AGENT)* "]"
    type     ::= type "->" type | type "+" type | type "*" type
               | "unit" | "void" | path type | "(" type ")"
    expr     ::= "fun" IDENT "->" expr
               | "let" path path IDENT "=" expr "in" expr
               | "case" expr "of" "inl" IDENT "->" expr "|" "inr" IDENT "->" expr
               | "send" expr "to" path | "up" path expr | "down" path expr
               | "inl" expr | "inr" expr | "fst" expr | "snd" expr | "absurd" expr
               | expr expr | AGENT "." expr | IDENT | "()" | "(" expr "," expr ")"
               | "(" expr ":" type ")" | "(" expr ")"

Agents are uppercase-initial identifiers, variables lowercase-initial.
`->` is right-associative and binds loosest among the type operators,
then `+`, then `*`; a modality `[g] t` binds tightest.  Application is
left-associative; the payload of send/up/down is an application chain,
so payloads headed by a keyword form need parentheses.  A located body
`A.e` is an atom; compound bodies are written `A.(e)`.

The lexer is one regular expression.  It fills parallel lists of token
kinds, texts, start and end offsets, and pads them with a few `eof`
entries, so lookahead never runs off the end.  The parser is recursive
descent over those lists.

Nesting is bounded: past `MAX_NESTING` levels the parser raises a
`ParseError` ("input nests too deeply") at the token that opens the next
level, so neither it nor the stages that recurse over its trees run out
of Python stack.  A level is opened by each parenthesis (expression or
type), each prefix keyword (`inl`, `inr`, `fst`, `snd`, `absurd`), each
located body `A.`, each `fun`, `let` or `case` form, each agent of a
modality, and each operator of a chain: each application (at its
argument) and each `->`, `+` or `*`.  `send`, `up` and `down` open none:
their payloads nest only through those.  So `((()))` nests 3 deep, a
chain of n sends, each payload but the innermost `A.()` in parentheses,
nests n deep, and so do `f` applied to n arguments and a type with n
arrows.  The levels of a form close where it ends.  A chain of n
operators builds n nested nodes, so the levels of its operators close
where the chain ends.
"""

from __future__ import annotations

import re

from .syntax import (
    UNIT, VOID, Absurd, Annot, App, Arrow, Believes, Case, Down, Expr, Fst,
    Inl, Inr, Lam, Located, ModalLet, Pair, Path, Product, Send, Snd, Span,
    Sum, Type, UnitVal, Up, Var, _frozen,
)

KEYWORDS = frozenset({
    "topology", "input", "def", "main", "let", "in", "send", "to", "up",
    "down", "fun", "fst", "snd", "inl", "inr", "case", "of", "absurd",
    "unit", "void", "true", "false",
})

MAX_NESTING = 256

_PUNCT = ("->", "()", *"()[].,;:|=+*")
# Whitespace, then one token, comment or stray character.  Only
# whitespace is left between matches, so the lengths give the positions.
# The punctuation is `_PUNCT`'s, its single characters one character
# class, which matches faster than an alternative per character.
_TOKEN = re.compile(r'(\s*)(\w+|->|\(\)|[()\[\].,;:|=+*]|"[^"]*"|//[^\n]*|\S)')
_KIND = {t: t for t in (*KEYWORDS, *_PUNCT)}
_EOF_PAD = 2  # the parser looks at most one token past the current one


class ParseError(Exception):
    def __init__(self, message: str, span: Span, expected: frozenset[str] = frozenset()):
        super().__init__(message)
        self.message = message
        self.span = span
        self.expected = expected

    def __str__(self) -> str:
        note = ""
        if self.expected:
            note = " (expected " + ", ".join(sorted(self.expected)) + ")"
        return f"{self.span}: {self.message}{note}"


def _lex(text: str, file: str) -> tuple[list[str], list[str], list[int], list[int]]:
    """Token kinds, texts, starts and ends, padded with `eof` entries.

    A kind is the punctuation or keyword text itself, or "ident",
    "agent", "string" or "eof".
    """
    kinds: list[str] = []
    texts: list[str] = []
    starts: list[int] = []
    ends: list[int] = []
    end = 0
    for space, tok in _TOKEN.findall(text):
        start = end + len(space)
        end = start + len(tok)
        kind = _KIND.get(tok)
        if kind is None:
            c = tok[0]
            if c.isalpha():  # `\w` also admits digits, `_`, `²`, `Ⅻ`, ...
                kind = "agent" if c.isupper() else "ident"
            elif c == '"' and len(tok) > 1:
                kind = "string"
                tok = tok[1:-1]
            elif tok.startswith("//"):
                continue
            elif c == '"':
                raise ParseError("unterminated string", Span(file, start, len(text)))
            else:
                raise ParseError(f"unexpected character {c!r}", Span(file, start, start + 1))
        kinds.append(kind)
        texts.append(tok)
        starts.append(start)
        ends.append(end)
    n = len(text)
    kinds.extend(["eof"] * _EOF_PAD)
    texts.extend([""] * _EOF_PAD)
    starts.extend([n] * _EOF_PAD)
    ends.extend([n] * _EOF_PAD)
    return kinds, texts, starts, ends


# Kinds that may start an atom / a unary / an expression.
_ATOM_START = frozenset({"(", "()", "ident", "agent"})
_UNARY = {"inl": Inl, "inr": Inr, "fst": Fst, "snd": Snd, "absurd": Absurd}
_UNARY_START = _ATOM_START | frozenset(_UNARY)
_EXPR_KW = frozenset({"fun", "let", "case", "send", "up", "down"})
# Type operators, loosest first; `->` associates to the right.
_TYPE_PREC = {"->": 1, "+": 2, "*": 3}
_TYPE_OP = {"->": Arrow, "+": Sum, "*": Product}


@_frozen
class Program:
    """A parsed program: its topology reference, inputs, definitions and
    the type and expression of `main`."""
    topology_ref: str | None
    inputs: tuple[tuple[str, Type], ...]
    defs: tuple[tuple[str, Type, Expr], ...]
    main_type: Type
    main_expr: Expr


class _Parser:
    def __init__(self, text: str, file: str):
        self.kinds, self.texts, self.starts, self.ends = _lex(text, file)
        self.file = file
        self.pos = 0
        self.depth = 0  # nesting levels open around the current token

    # -- token plumbing -----------------------------------------------------

    def expect(self, kind: str, what: str | None = None) -> str:
        pos = self.pos
        if self.kinds[pos] != kind:
            raise self.error(f"found {self.found()}", expected=frozenset({what or kind}))
        self.pos = pos + 1
        return self.texts[pos]

    def found(self) -> str:
        return repr(self.texts[self.pos] or "end of input")

    def error(self, message: str, expected: frozenset[str] = frozenset()) -> ParseError:
        start = self.starts[self.pos]
        return ParseError(message, Span(self.file, start, max(self.ends[self.pos], start + 1)),
                          expected)

    def duplicate(self, pos: int) -> ParseError:
        """The repeated input or definition name at token `pos`."""
        return ParseError(f"duplicate definition of {self.texts[pos]!r}",
                          Span(self.file, self.starts[pos], self.ends[pos]))

    def span_from(self, start: int) -> Span:
        return Span(self.file, start, self.ends[self.pos - 1])

    def nest(self, pos: int, levels: int = 1) -> None:
        """Open `levels` nesting levels at token `pos`; the caller closes them."""
        self.depth += levels
        if self.depth > MAX_NESTING:
            raise ParseError("input nests too deeply",
                             Span(self.file, self.starts[pos], self.ends[pos]))

    # -- paths and types ----------------------------------------------------

    def path(self) -> Path:
        self.expect("[")
        if self.kinds[self.pos] == "]":
            self.pos += 1
            return ()
        parts = [self.expect("agent", "agent name")]
        while self.kinds[self.pos] == ".":
            self.pos += 1
            parts.append(self.expect("agent", "agent name"))
        self.expect("]")
        return tuple(parts)

    def type_(self) -> Type:
        # Operands separated by operators, combined by precedence: `->`
        # (right-associative) loosest, then `+`, then `*`.  An operand is
        # modalities, one level each, before `unit`, `void` or `(type)`.
        # Each operator opens a level that stays open to the type's end.
        kinds = self.kinds
        depth = self.depth
        operands: list[Type] = []
        ops: list[str] = []
        while True:
            pos = self.pos
            names: list[str] = []
            while kinds[self.pos] == "[":
                names.extend(self.path())
            self.nest(pos, len(names))
            kind = kinds[self.pos]
            if kind == "unit":
                self.pos += 1
                ty = UNIT
            elif kind == "void":
                self.pos += 1
                ty = VOID
            elif kind == "(":
                self.nest(self.pos)
                self.pos += 1
                ty = self.type_()
                self.expect(")")
                self.depth -= 1
            else:
                raise self.error(f"found {self.found()} where a type was expected",
                                 expected=frozenset({"unit", "void", "(", "["}))
            for name in reversed(names):
                ty = Believes(name, ty)
            self.depth -= len(names)
            operands.append(ty)
            op = kinds[self.pos]
            prec = _TYPE_PREC.get(op, 0)  # 0: the type ends here
            while ops and (_TYPE_PREC[ops[-1]] > prec or ops[-1] == op != "->"):
                right = operands.pop()
                operands[-1] = _TYPE_OP[ops.pop()](operands[-1], right)
            if not prec:
                self.depth = depth
                return operands[0]
            self.nest(self.pos)
            self.pos += 1
            ops.append(op)

    # -- expressions ----------------------------------------------------------

    def expr(self) -> Expr:
        pos = self.pos
        kind = self.kinds[pos]
        if kind not in _EXPR_KW:
            return self.app()
        start = self.starts[pos]
        self.pos = pos + 1
        if kind == "send":
            payload = self.app()
            self.expect("to")
            return Send(payload, self.path(), self.span_from(start))
        if kind == "up":
            return Up(self.path(), self.app(), self.span_from(start))
        if kind == "down":
            return Down(self.path(), self.app(), self.span_from(start))
        # The payloads above nest only through atoms; these bodies are
        # whole expressions, so the form opens one level.
        self.nest(pos)
        if kind == "fun":
            var = self.expect("ident", "variable")
            self.expect("->")
            e = Lam(var, self.expr(), self.span_from(start))
        elif kind == "let":
            g1, g2 = self.path(), self.path()
            var = self.expect("ident", "variable")
            self.expect("=")
            bound = self.expr()
            self.expect("in")
            e = ModalLet(g1, g2, var, bound, self.expr(), self.span_from(start))
        else:
            scrutinee = self.expr()
            self.expect("of")
            self.expect("inl")
            lv = self.expect("ident", "variable")
            self.expect("->")
            lb = self.expr()
            self.expect("|")
            self.expect("inr")
            rv = self.expect("ident", "variable")
            self.expect("->")
            e = Case(scrutinee, lv, lb, rv, self.expr(), self.span_from(start))
        self.depth -= 1
        return e

    def app(self) -> Expr:
        # Each application opens a level, at its argument, that stays open
        # to the chain's end.
        kinds = self.kinds
        start = self.starts[self.pos]
        depth = self.depth
        e = self.unary() if kinds[self.pos] in _UNARY else self.atom()
        while kinds[self.pos] in _UNARY_START:
            self.nest(self.pos)
            arg = self.unary() if kinds[self.pos] in _UNARY else self.atom()
            e = App(e, arg, self.span_from(start))
        self.depth = depth
        return e

    def unary(self) -> Expr:
        pos = self.pos
        self.nest(pos)
        self.pos = pos + 1
        inner = self.unary() if self.kinds[pos + 1] in _UNARY else self.atom()
        self.depth -= 1
        return _UNARY[self.kinds[pos]](inner, self.span_from(self.starts[pos]))

    def atom(self) -> Expr:
        kinds = self.kinds
        pos = self.pos
        kind = kinds[pos]
        start = self.starts[pos]
        if kind == "ident" or kind == "()":
            self.pos = pos + 1
            span = Span(self.file, start, self.ends[pos])
            return Var(self.texts[pos], span) if kind == "ident" else UnitVal(span)
        if kind == "agent":
            self.pos = pos + 1
            self.expect(".")
            self.nest(pos)
            body = self.atom()
            self.depth -= 1
            return Located(self.texts[pos], body, self.span_from(start))
        if kind != "(":
            raise self.error(f"found {self.found()} where an expression was expected",
                             expected=frozenset({"(", "()", "identifier", "agent"}))
        if kinds[pos + 1] == ")":
            self.pos = pos + 2
            return UnitVal(self.span_from(start))
        self.nest(pos)
        self.pos = pos + 1
        e = self.expr()
        if kinds[self.pos] == ",":
            self.pos += 1
            right = self.expr()
            self.expect(")")
            e = Pair(e, right, self.span_from(start))
        elif kinds[self.pos] == ":":
            self.pos += 1
            ty = self.type_()
            self.expect(")")
            e = Annot(e, ty, self.span_from(start))
        else:
            self.expect(")")
        self.depth -= 1
        return e

    # -- program structure ----------------------------------------------------

    def program(self) -> Program:
        kinds = self.kinds
        topology_ref = None
        if kinds[self.pos] == "topology":
            self.pos += 1
            if kinds[self.pos] not in ("ident", "string"):
                raise self.error("topology expects a preset name or a quoted path",
                                 expected=frozenset({"identifier", "string"}))
            topology_ref = self.texts[self.pos]
            self.pos += 1
            self.expect(";")
        inputs: list[tuple[str, Type]] = []
        names: set[str] = set()  # the inputs and definitions so far
        while kinds[self.pos] == "input":
            self.pos += 1
            name_pos = self.pos
            name = self.expect("ident", "input name")
            self.expect(":")
            ty = self.type_()
            self.expect(";")
            if name in names:
                raise self.duplicate(name_pos)
            names.add(name)
            inputs.append((name, ty))
        defs: list[tuple[str, Type, Expr]] = []
        while kinds[self.pos] == "def":
            self.pos += 1
            name_pos = self.pos
            name = self.expect("ident", "definition name")
            self.expect(":")
            ty = self.type_()
            self.expect("=")
            body = self.expr()
            self.expect(";")
            if name in names:
                raise self.duplicate(name_pos)
            names.add(name)
            defs.append((name, ty, body))
        self.expect("main")
        self.expect(":")
        main_type = self.type_()
        self.expect("=")
        main_expr = self.expr()
        self.expect(";")
        self.expect("eof", "end of input")
        return Program(topology_ref, tuple(inputs), tuple(defs), main_type, main_expr)


def parse_program(text: str, file: str = "<input>") -> Program:
    return _Parser(text, file).program()


def _parse_all(rule, text: str, file: str):
    """`text` parsed by the `_Parser` method `rule`, up to the end of input."""
    p = _Parser(text, file)
    tree = rule(p)
    p.expect("eof", "end of input")
    return tree


def parse_expr(text: str, file: str = "<input>") -> Expr:
    return _parse_all(_Parser.expr, text, file)


def parse_type(text: str, file: str = "<input>") -> Type:
    return _parse_all(_Parser.type_, text, file)


def parse_path(text: str, file: str = "<input>") -> Path:
    return _parse_all(_Parser.path, text, file)
