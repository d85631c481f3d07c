"""Abstract syntax for Corps: agent paths, types, expressions, local
processes, contexts.

An agent path addresses a node in the process tree.  The empty path is
the root (ground truth); each extension steps one level further into an
agent's beliefs, so ("A", "B") is "A's version of B".  Paths form a
monoid under concatenation, which is why they are plain tuples here.

Typing contexts are ordered sequences of variable bindings and locks.
A lock shifts the viewpoint of everything to its right; a binding is
tagged with the path of locks that must be crossed after it before the
variable becomes usable.  Contexts are kept in a canonical form: no
empty locks, no two adjacent locks.

Choreographic expressions and the local processes that endpoint
projection produces share one term schema (`SCHEMA`): per node class,
its fields, its subterms and the binder scoping each subterm.  Children,
free variables, substitution and alpha-equality are each written once
over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import NamedTuple, Optional, Union

# ---------------------------------------------------------------------------
# Agent paths

Path = tuple[str, ...]

ROOT: Path = ()


def is_agent_name(name: str) -> bool:
    return bool(name) and name[0].isupper() and name.replace("_", "").isalnum()


def path_concat(g1: Path, g2: Path) -> Path:
    """Monoid action on agent paths; the empty path is the identity."""
    return g1 + g2


# ---------------------------------------------------------------------------
# Source positions

@dataclass(frozen=True)
class Span:
    file: str
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError("span start after end")

    def __str__(self) -> str:
        return f"{self.file}:{self.start}-{self.end}"


# ---------------------------------------------------------------------------
# Types

@dataclass(frozen=True)
class Unit:
    pass


@dataclass(frozen=True)
class Void:
    pass


@dataclass(frozen=True)
class Believes:
    agent: str
    body: "Type"


@dataclass(frozen=True)
class Product:
    left: "Type"
    right: "Type"


@dataclass(frozen=True)
class Sum:
    left: "Type"
    right: "Type"


@dataclass(frozen=True)
class Arrow:
    dom: "Type"
    cod: "Type"


Type = Union[Unit, Void, Believes, Product, Sum, Arrow]

UNIT = Unit()
VOID = Void()


def belief_stack(g: Path, core: Type) -> Type:
    """Wrap `core` in one Believes layer per path segment, outermost first."""
    for name in reversed(g):
        core = Believes(name, core)
    return core


def split_stack(ty: Type) -> tuple[Path, Type]:
    """Peel the maximal Believes prefix; the returned core is not a Believes."""
    g: list[str] = []
    while isinstance(ty, Believes):
        g.append(ty.agent)
        ty = ty.body
    return tuple(g), ty


def peel_stack(ty: Type, g: Path) -> Optional[Type]:
    """Strip exactly the stack `g` from `ty`, or None if it does not match."""
    for name in g:
        if not isinstance(ty, Believes) or ty.agent != name:
            return None
        ty = ty.body
    return ty


# ---------------------------------------------------------------------------
# Expressions

@dataclass(frozen=True)
class Node:
    span: Optional[Span] = field(default=None, compare=False, kw_only=True)


@dataclass(frozen=True)
class Var(Node):
    name: str


@dataclass(frozen=True)
class Located(Node):
    agent: str
    body: "Expr"


@dataclass(frozen=True)
class ModalLet(Node):
    # let [open_path] [stack_path] var = bound in body
    open_path: Path
    stack_path: Path
    var: str
    bound: "Expr"
    body: "Expr"


@dataclass(frozen=True)
class Send(Node):
    payload: "Expr"
    dest: Path


@dataclass(frozen=True)
class Up(Node):
    path: Path
    body: "Expr"


@dataclass(frozen=True)
class Down(Node):
    path: Path
    body: "Expr"


@dataclass(frozen=True)
class Lam(Node):
    var: str
    body: "Expr"


@dataclass(frozen=True)
class App(Node):
    fn: "Expr"
    arg: "Expr"


@dataclass(frozen=True)
class Pair(Node):
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Fst(Node):
    inner: "Expr"


@dataclass(frozen=True)
class Snd(Node):
    inner: "Expr"


@dataclass(frozen=True)
class Inl(Node):
    inner: "Expr"


@dataclass(frozen=True)
class Inr(Node):
    inner: "Expr"


@dataclass(frozen=True)
class Case(Node):
    scrutinee: "Expr"
    left_var: str
    left_body: "Expr"
    right_var: str
    right_body: "Expr"


@dataclass(frozen=True)
class UnitVal(Node):
    pass


@dataclass(frozen=True)
class Absurd(Node):
    inner: "Expr"


@dataclass(frozen=True)
class Annot(Node):
    inner: "Expr"
    ty: Type


Expr = Union[
    Var, Located, ModalLet, Send, Up, Down,
    Lam, App, Pair, Fst, Snd, Inl, Inr, Case, UnitVal, Absurd, Annot,
]

UNIT_VAL = UnitVal()


# Local processes, the target of endpoint projection: the intuitionistic
# fragment of Expr plus four process forms.

@dataclass(frozen=True)
class Skip(Node):
    pass


@dataclass(frozen=True)
class SendTo(Node):
    dest: Path
    payload: "LocalExpr"


@dataclass(frozen=True)
class RecvFrom(Node):
    src: Path


@dataclass(frozen=True)
class Seq(Node):
    first: "LocalExpr"
    rest: "LocalExpr"


LocalExpr = Union[
    Skip, SendTo, RecvFrom, Seq,
    Var, Lam, App, Pair, Fst, Snd, Inl, Inr, Case, UnitVal, Absurd,
]

SKIP = Skip()


# ---------------------------------------------------------------------------
# The term schema, shared by both languages

class Shape(NamedTuple):
    """How a node class is built.

    `fields` are its constructor fields in order, span aside.  Each entry
    of `subterms` is the index of a subterm field and the index of the
    binder field that scopes it, or None.  `data` names the fields that
    are neither subterms nor binders; alpha-equality compares them with ==.
    """
    fields: tuple[str, ...]
    subterms: tuple[tuple[int, Optional[int]], ...]
    data: tuple[str, ...]


# Subterm fields per node class, left to right; a subterm under a binder
# is written (subterm field, binder field).
_SUBTERMS = {
    Var: (), UnitVal: (), Skip: (), RecvFrom: (),
    Located: ("body",), Up: ("body",), Down: ("body",),
    Send: ("payload",), SendTo: ("payload",), Annot: ("inner",),
    Fst: ("inner",), Snd: ("inner",), Inl: ("inner",), Inr: ("inner",),
    Absurd: ("inner",),
    App: ("fn", "arg"), Pair: ("left", "right"), Seq: ("first", "rest"),
    Lam: (("body", "var"),),
    ModalLet: ("bound", ("body", "var")),
    Case: ("scrutinee", ("left_body", "left_var"),
           ("right_body", "right_var")),
}


def _build_shape(cls: type, subterms) -> Shape:
    names = tuple(f.name for f in fields(cls) if f.name != "span")
    pairs = [s if isinstance(s, tuple) else (s, None) for s in subterms]
    named = {name for pair in pairs for name in pair}
    return Shape(
        names,
        tuple((names.index(s), None if b is None else names.index(b))
              for s, b in pairs),
        tuple(name for name in names if name not in named))


SCHEMA: dict[type, Shape] = {
    cls: _build_shape(cls, subterms) for cls, subterms in _SUBTERMS.items()}


def _shape_of(e: Node) -> Shape:
    try:
        return SCHEMA[type(e)]
    except KeyError:
        raise TypeError(f"not an expression: {e!r}") from None


def children(e: Node) -> list[Node]:
    shape = _shape_of(e)
    return [getattr(e, shape.fields[i]) for i, _ in shape.subterms]


def free_vars(e: Node) -> frozenset[str]:
    out: set[str] = set()
    bound: dict[str, int] = {}  # binders in scope, with multiplicity
    # Entries are nodes, or (name, +1 / -1) on entering / leaving the
    # scope of a binder.
    todo: list = [e]
    while todo:
        e = todo.pop()
        if type(e) is tuple:
            name, step = e
            bound[name] = bound.get(name, 0) + step
        elif type(e) is Var:
            if not bound.get(e.name):
                out.add(e.name)
        else:
            shape = _shape_of(e)
            for i, b in shape.subterms:
                if b is None:
                    todo.append(getattr(e, shape.fields[i]))
                else:
                    var = getattr(e, shape.fields[b])
                    todo += ((var, -1), getattr(e, shape.fields[i]), (var, 1))
    return frozenset(out)


def fresh_name(base: str, avoid: frozenset[str]) -> str:
    stem = base.rstrip("0123456789") or base
    i = 1
    while True:
        candidate = f"{stem}{i}"
        if candidate not in avoid:
            return candidate
        i += 1


def substitute(e: Node, x: str, v: Node) -> Node:
    """Capture-avoiding substitution of `v` for free occurrences of `x`.

    Rebuilt nodes keep their spans.  Unlike `free_vars` and `expr_equal`
    it recurses once per node, so a term nested past the interpreter's
    recursion limit raises RecursionError.
    """
    fvv = free_vars(v)

    def go(e: Node) -> Node:
        if type(e) is Var:
            return v if e.name == x else e
        shape = _shape_of(e)
        if not shape.subterms:
            return e
        parts = [getattr(e, name) for name in shape.fields]
        for i, b in shape.subterms:
            if b is None:
                parts[i] = go(parts[i])
            elif parts[b] != x:
                var, body = parts[b], parts[i]
                # Rename the binder when it would capture a free variable of v.
                if var in fvv and x in free_vars(body):
                    renamed = fresh_name(var, fvv | free_vars(body))
                    var, body = renamed, substitute(body, var, Var(renamed))
                parts[b], parts[i] = var, go(body)
        return type(e)(*parts, span=e.span)

    return go(e)


def expr_equal(e1: Node, e2: Node) -> bool:
    """Alpha-equivalence of expressions and of local processes.

    Bound variables compare by the depth of their binders (de Bruijn
    levels); free ones by name.
    """
    todo: list = [(e1, e2, {}, {}, 0)]
    while todo:
        a, b, env1, env2, depth = todo.pop()
        if type(a) is not type(b):
            return False
        if type(a) is Var:
            d1, d2 = env1.get(a.name), env2.get(b.name)
            if d1 != d2 or d1 is None and a.name != b.name:
                return False
            continue
        shape = _shape_of(a)
        if any(getattr(a, n) != getattr(b, n) for n in shape.data):
            return False
        names = shape.fields
        for i, binder in shape.subterms:
            sa, sb = getattr(a, names[i]), getattr(b, names[i])
            if binder is None:
                todo.append((sa, sb, env1, env2, depth))
            else:
                todo.append((sa, sb, {**env1, getattr(a, names[binder]): depth},
                             {**env2, getattr(b, names[binder]): depth}, depth + 1))
    return True


# ---------------------------------------------------------------------------
# Located stacks over expressions

def unannot(e: Expr) -> Expr:
    """Peel top-level type annotations; they are transparent to values."""
    while isinstance(e, Annot):
        e = e.inner
    return e


def peel_located(e: Expr) -> tuple[Path, Expr]:
    """Strip the maximal located spine A1.(...An.(core)).

    Annotations along the spine are discarded; the core keeps its own.
    """
    spine: list[str] = []
    while True:
        stripped = unannot(e)
        if not isinstance(stripped, Located):
            return tuple(spine), e
        spine.append(stripped.agent)
        e = stripped.body


def match_located(e: Expr, g: Path) -> Optional[Expr]:
    """Strip exactly the located spine `g`, or None on mismatch."""
    for name in g:
        stripped = unannot(e)
        if not isinstance(stripped, Located) or stripped.agent != name:
            return None
        e = stripped.body
    return e


def wrap_located(g: Path, e: Expr) -> Expr:
    for name in reversed(g):
        e = Located(name, e)
    return e


# ---------------------------------------------------------------------------
# Typing contexts

@dataclass(frozen=True)
class Binding:
    name: str
    ty: Type
    tag: Path


@dataclass(frozen=True)
class Lock:
    path: Path


ContextEntry = Union[Binding, Lock]
Context = tuple[ContextEntry, ...]

EMPTY_CONTEXT: Context = ()


def locks_of(ctx: Context) -> Path:
    """Concatenation, in order, of every lock path in the context."""
    acc: Path = ()
    for entry in ctx:
        if isinstance(entry, Lock):
            acc = path_concat(acc, entry.path)
    return acc


def normalize_context(ctx: Context) -> Context:
    """Canonical form: drop empty locks, fuse adjacent locks."""
    out: list[ContextEntry] = []
    for entry in ctx:
        if isinstance(entry, Lock):
            if not entry.path:
                continue
            if out and isinstance(out[-1], Lock):
                out[-1] = Lock(path_concat(out[-1].path, entry.path))
            else:
                out.append(entry)
        else:
            out.append(entry)
    return tuple(out)


def ctx_lock(ctx: Context, g: Path) -> Context:
    """Extend a canonical context with a lock, staying canonical."""
    if not g:
        return ctx
    if ctx and isinstance(ctx[-1], Lock):
        return ctx[:-1] + (Lock(path_concat(ctx[-1].path, g)),)
    return ctx + (Lock(g),)


def ctx_bind(ctx: Context, name: str, ty: Type, tag: Path) -> Context:
    return ctx + (Binding(name, ty, tag),)
