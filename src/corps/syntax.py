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
free variables, substitution, alpha-equality and the refocusing machine
that both languages' fast evaluators run are each written once over it.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from operator import attrgetter
from typing import Callable, NamedTuple, Optional, Union


def _frozen(cls: type) -> type:
    """`dataclass(frozen=True)` with a faster `__init__`.

    The generated `__init__` of a frozen dataclass calls
    `object.__setattr__` once per field; this one writes the fields into
    the instance's `__dict__`, in field order, then runs `__post_init__`
    if the class has one.  Its parameters are the dataclass's.  Only
    `__init__` changes: assignment still raises `FrozenInstanceError`,
    and `==`, `hash` and `repr` are the dataclass's own.
    """
    cls = dataclass(frozen=True, init=False)(cls)
    positional, keyword, body, env = [], [], [], {}
    for f in fields(cls):
        param = f.name
        if f.default is not MISSING:
            env[f"_default_{f.name}"] = f.default
            param += f"=_default_{f.name}"
        (keyword if f.kw_only else positional).append(param)
        body.append(f"    d[{f.name!r}] = {f.name}\n")
    params = ["self", *positional] + (["*", *keyword] if keyword else [])
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()\n")
    exec(f"def __init__({', '.join(params)}):\n    d = self.__dict__\n" + "".join(body), env)
    cls.__init__ = env["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return cls


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

@_frozen
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

@_frozen
class Unit:
    pass


@_frozen
class Void:
    pass


@_frozen
class Believes:
    agent: str
    body: "Type"


@_frozen
class Product:
    left: "Type"
    right: "Type"


@_frozen
class Sum:
    left: "Type"
    right: "Type"


@_frozen
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

@_frozen
class Node:
    span: Optional[Span] = field(default=None, compare=False, kw_only=True)


@_frozen
class Var(Node):
    name: str


@_frozen
class Located(Node):
    agent: str
    body: "Expr"


@_frozen
class ModalLet(Node):
    # let [open_path] [stack_path] var = bound in body
    open_path: Path
    stack_path: Path
    var: str
    bound: "Expr"
    body: "Expr"


@_frozen
class Send(Node):
    payload: "Expr"
    dest: Path


@_frozen
class Up(Node):
    path: Path
    body: "Expr"


@_frozen
class Down(Node):
    path: Path
    body: "Expr"


@_frozen
class Lam(Node):
    var: str
    body: "Expr"


@_frozen
class App(Node):
    fn: "Expr"
    arg: "Expr"


@_frozen
class Pair(Node):
    left: "Expr"
    right: "Expr"


@_frozen
class Fst(Node):
    inner: "Expr"


@_frozen
class Snd(Node):
    inner: "Expr"


@_frozen
class Inl(Node):
    inner: "Expr"


@_frozen
class Inr(Node):
    inner: "Expr"


@_frozen
class Case(Node):
    scrutinee: "Expr"
    left_var: str
    left_body: "Expr"
    right_var: str
    right_body: "Expr"


@_frozen
class UnitVal(Node):
    pass


@_frozen
class Absurd(Node):
    inner: "Expr"


@_frozen
class Annot(Node):
    inner: "Expr"
    ty: Type


Expr = Union[
    Var, Located, ModalLet, Send, Up, Down,
    Lam, App, Pair, Fst, Snd, Inl, Inr, Case, UnitVal, Absurd, Annot,
]


# Local processes, the target of endpoint projection: the intuitionistic
# fragment of Expr plus four process forms.

@_frozen
class Skip(Node):
    pass


@_frozen
class SendTo(Node):
    dest: Path
    payload: "LocalExpr"


@_frozen
class RecvFrom(Node):
    src: Path


@_frozen
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
        raise TypeError(f"not an expression: {type(e).__name__}") from None


Hole = tuple[Callable[[Node], Node], Callable[[Node, Node], Node]]


def hole(cls: type, i: int) -> Hole:
    """Field `i` of a `cls` node (span aside) as a pair: read the subterm
    in it, and plug another subterm into it, which rebuilds the node with
    its span."""
    names = SCHEMA[cls].fields

    def plug(e: Node, k: Node) -> Node:
        parts = [getattr(e, name) for name in names]
        parts[i] = k
        return cls(*parts, span=e.span)

    return attrgetter(names[i]), plug


def eval_holes(classes) -> dict[type, tuple[Hole, ...]]:
    """The evaluation positions of each of `classes`, left to right: every
    subterm that no binder scopes, except a sequence's rest, which runs
    only once its head is a value.  A plugged node keeps its span."""
    return {cls: tuple(hole(cls, i) for i, binder in SCHEMA[cls].subterms
                       if binder is None and (cls, i) != (Seq, 1))
            for cls in classes}


class Machine:
    """A call-by-value refocusing machine (Danvy and Nielsen, "Refocusing
    in reduction semantics", 2004) over a table of evaluation positions
    (`holes`, from `eval_holes`) and the classes of value forms (`values`).

    The evaluation context of the focus is a linked stack of frames,
    innermost first: each frame is (node, index of the position that holds
    the hole, the next frame out), or None for the empty context.  Every
    position left of a hole holds a value, or a term the caller had the
    search climb past as one.  Rebuilding a node shares the
    frames outside it, and the loops are iterative, so context depth costs
    no Python stack.
    """
    __slots__ = ("holes", "values")

    def __init__(self, holes: dict[type, tuple[Hole, ...]], values: frozenset[type]):
        self.holes, self.values = holes, values

    def refocus(self, frames: Optional[tuple], e: Node,
                climb: bool = False) -> tuple[Optional[tuple], Node]:
        """The next stop at or right of `e`, the subterm in the hole of the
        innermost of `frames`, and its context: a leaf that is no value
        form (a class with no positions in the table counts as a leaf), or
        a node that is none, whose positions all hold values.  With no stop left, the
        whole term, a value, and no frames.  With `climb`, `e` counts as a
        value and the search starts right of it.
        """
        holes, values = self.holes, self.values
        while True:
            if climb:
                climb = False
            else:
                positions = holes.get(type(e))
                while positions:
                    frames = (e, 0, frames)
                    e = positions[0][0](e)
                    positions = holes.get(type(e))
                if type(e) not in values:
                    return frames, e
            # Climb with the value `e`: plug it into its frame, then move
            # right to the next position, or stop at a node that is no value.
            while frames is not None:
                node, i, outer = frames
                positions = holes[type(node)]
                get, plug = positions[i]
                if get(node) is not e:
                    node = plug(node, e)
                i += 1
                if i < len(positions):
                    frames = (node, i, outer)
                    e = positions[i][0](node)
                    break
                frames, e = outer, node
                if type(node) not in values:
                    return frames, e
            else:
                return None, e

    def plug(self, frames: Optional[tuple], e: Node) -> Node:
        """The whole term: `e` plugged into the context `frames`."""
        holes = self.holes
        while frames is not None:
            node, i, frames = frames
            get, plug = holes[type(node)][i]
            e = node if get(node) is e else plug(node, e)
        return e


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


_LEAVES = frozenset(cls for cls, shape in SCHEMA.items() if not shape.subterms)

# The entries of substitute's work stack.
_VISIT, _BUILD, _THEN = range(3)


def substitute(e: Node, x: str, v: Node) -> Node:
    """Capture-avoiding substitution of `v` for free occurrences of `x`.

    A binder that would capture a free variable of `v` is first renamed
    to `fresh_name` of it, avoiding the free variables of `v` and of its
    scope.  Subterms in which nothing changes are shared with `e`;
    rebuilt nodes keep their spans.  The walk keeps its own stack, so
    nesting depth costs no Python stack.
    """
    # Each entry writes its result to dest[at], which holds the input
    # until something in it changes; the last item of dest then turns True.
    #   (_VISIT, e, sub, dest, at)    substitute sub = (x, v, free_vars(v)) in e
    #   (_BUILD, e, parts, dest, at)  rebuild e from parts (its fields with
    #                                 the subterms done, then the flag) if
    #                                 any of them changed
    #   (_THEN, box, sub, dest, at)   substitute sub in box[0], the result of
    #                                 renaming a binder in its scope
    # A node's _BUILD entry sits below the entries of its subterms.
    root = [e, False]
    todo: list = [(_VISIT, e, (x, v, free_vars(v)), root, 0)]
    while todo:
        op, e, arg, dest, at = todo.pop()
        if op is _BUILD:
            if arg.pop():
                dest[at] = type(e)(*arg, span=e.span)
                dest[-1] = True
            continue
        if op is _THEN:
            dest[at] = e[0]
            todo.append((_VISIT, e[0], arg, dest, at))
            continue
        x, v, fvv = arg
        if type(e) is Var:
            if e.name == x:
                dest[at] = v
                dest[-1] = True
            continue
        shape = _shape_of(e)
        if not shape.subterms:
            continue
        parts = [getattr(e, name) for name in shape.fields]
        parts.append(False)
        todo.append((_BUILD, e, parts, dest, at))
        for i, b in shape.subterms:
            child = parts[i]
            if b is not None:
                var = parts[b]
                if var == x:
                    continue
                if var in fvv and x in free_vars(child):
                    renamed = fresh_name(var, fvv | free_vars(child))
                    parts[b] = renamed
                    parts[-1] = True
                    box = [child, False]
                    todo.append((_THEN, box, arg, parts, i))
                    todo.append((_VISIT, child, (var, Var(renamed), frozenset((renamed,))),
                                 box, 0))
                    continue
            kind = type(child)
            if kind is Var:
                if child.name == x:
                    parts[i] = v
                    parts[-1] = True
            elif kind not in _LEAVES:
                todo.append((_VISIT, child, arg, parts, i))
    return root[0]


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

@_frozen
class Binding:
    name: str
    ty: Type
    tag: Path


@_frozen
class Lock:
    path: Path


ContextEntry = Union[Binding, Lock]
Context = tuple[ContextEntry, ...]


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
