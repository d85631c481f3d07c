"""Abstract syntax for Corps: agent paths, types, expressions, local
processes, contexts.

An agent path addresses a node in the process tree.  The empty path is
the root (ground truth); each extension steps one level further into an
agent's beliefs, so ("A", "B") is "A's version of B".  Paths form a
monoid under concatenation, which is why they are plain tuples here.

A typing context is an ordered sequence of variable bindings.  Each
binding records the viewpoint it was bound at, and its tag is the path
that extends that viewpoint to the one the variable may be used at (see
`typecheck`).  The viewpoint itself is not in the context: the checker's
walk passes it down, so a context holds no locks and has no canonical
form.

Choreographic expressions and the local processes that endpoint
projection produces share one term schema (`SCHEMA`): per node class,
its fields, its subterms and the binder scoping each subterm.  Children,
free variables, substitution, alpha-equality, the value test and the
refocusing machine that both languages' fast evaluators run are each
written once over it.

Spans, types, nodes and bindings are records (`_frozen`), as are
the other value classes of the package: slotted, immutable values that
refuse assignment, compare and hash by their fields without the source
`span`, print as `Cls(field=value, ...)` as a frozen dataclass would, and
take part in `match` through `__match_args__`.  Assigning to one raises
`dataclasses.FrozenInstanceError`, the error a frozen dataclass raises;
`dataclasses` is imported only when that happens.  A record class
compiles nothing: its `__init__`, `__eq__` and `__hash__` are copies, with
its own names, of code compiled once per method shape and field count.
"""

from __future__ import annotations

from functools import cache
from operator import attrgetter
from types import CodeType, FunctionType
from typing import Callable, NamedTuple, Optional, Union


def _frozen(cls: type) -> type:
    """Make `cls` a record: a slotted, immutable value with the fields it
    annotates.

    The fields are the annotated names of the class and its bases, base
    fields first (`cls._fields`).  Every field but `span` is a parameter,
    in order, and takes the value the class body gives it, if any, as its
    default (a subclass inherits no default but the span's).  A field
    named `span` is the source position: the last parameter, positional
    or keyword (positional is the faster call), None by default and left
    out of `==` and `hash`.  The record contract, which
    `dataclass(frozen=True, slots=True)` would also give:

    - the class is rebuilt with `__slots__` of its own fields, so its
      instances have no `__dict__`, and `__init__` stores each field
      through its slot, then runs `__post_init__` if the class has one;
    - assigning or deleting an attribute raises
      `dataclasses.FrozenInstanceError`, imported when it is raised;
    - `a == b` holds when both are of the same class and their fields
      other than `span` are equal, and `hash` is the hash of the tuple of
      those fields;
    - `repr` is `Cls(field=value, ...)` over all fields, `span` included;
    - `__match_args__` names the positional fields, for `match`;
    - `pickle` and `copy` go through `__getstate__`, the tuple of the
      fields, and `__setstate__`, which stores it past the frozen
      `__setattr__`.

    Compiling is most of what a record class costs at import, so no class
    compiles anything: `__init__`, `__eq__` and `__hash__` each come from
    a template compiled once per shape (`_template`), whose code a class
    copies with its own parameter names (so signatures, keyword calls and
    missing-argument messages are its own) and field names; a class's
    slot setters are its functions' globals.  A method runs the code
    dataclasses would generate (the same cost per call, the same hash
    values); the other methods are shared by all records.
    """
    base = getattr(cls, "_fields", ())
    own = tuple(name for name in cls.__dict__.get("__annotations__", ())
                if name not in base)
    names = base + own
    compared = tuple(name for name in names if name != "span")
    namespace = dict(cls.__dict__)
    # A class-level value would shadow the slot of the same name.
    defaults = {name: namespace.pop(name) for name in own if name in namespace}
    namespace.pop("__dict__", None)
    namespace.pop("__weakref__", None)
    cls = type(cls)(cls.__name__, cls.__bases__, {
        **namespace, "__slots__": own, "__qualname__": cls.__qualname__,
        "_fields": names, "__match_args__": compared, "__repr__": _record_repr,
        "__setattr__": _record_setattr, "__delattr__": _record_delattr,
        "__getstate__": _record_getstate, "__setstate__": _record_setstate})
    params = compared + ("span",) * ("span" in names)
    with_default = tuple(name for name in compared if name in defaults)
    if compared[len(compared) - len(with_default):] != with_default:
        raise TypeError(f"{cls.__qualname__}: a field without a default follows one with")
    init = _template("__init__", len(params), hasattr(cls, "__post_init__"))
    methods = {"__init__": (init.replace(co_varnames=("self", *params)), tuple(
        defaults[name] for name in with_default) + (None,) * ("span" in names))}
    rename = {f"_{i}": name for i, name in enumerate(compared)}
    for method in ("__eq__", "__hash__"):
        code = _template(method, len(compared))
        methods[method] = (code.replace(co_names=tuple(
            rename.get(name, name) for name in code.co_names)), None)
    env = {f"_set_{i}": getattr(cls, name).__set__ for i, name in enumerate(params)}
    for method, (code, argdefs) in methods.items():
        function = FunctionType(code, env, method, argdefs)
        function.__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, function)
    return cls


@cache
def _template(method: str, n: int, post_init: bool = False) -> CodeType:
    """The code of `method` over `n` fields, compiled the first time a class
    asks for it.  Fields are `_0`, `_1`, ...: parameters of `__init__`,
    which stores `_i` through the global `_set_i`, and attributes of
    `__eq__` and `__hash__`."""
    mine = "".join(f"self._{i}," for i in range(n))
    theirs = "".join(f"other._{i}," for i in range(n))
    stores = "".join(f"    _set_{i}(self, _{i})\n" for i in range(n))
    if post_init:
        stores += "    self.__post_init__()\n"
    sources = {
        "__init__": f"def __init__(self, {''.join(f'_{i},' for i in range(n))}):\n"
                    f"{stores or '    pass'}\n",
        "__eq__": "def __eq__(self, other):\n"
                  "    if other.__class__ is self.__class__:\n"
                  f"        return ({mine})==({theirs})\n"
                  "    return NotImplemented\n",
        "__hash__": f"def __hash__(self):\n    return hash(({mine}))\n"}
    env: dict = {}
    exec(sources[method], env)
    return env[method].__code__


def _record_repr(self) -> str:
    fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
    return f"{self.__class__.__qualname__}({fields})"


def _record_setattr(self, name: str, value) -> None:
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _record_delattr(self, name: str) -> None:
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _record_getstate(self) -> tuple:
    return tuple(getattr(self, name) for name in self._fields)


def _record_setstate(self, state: tuple) -> None:
    for name, value in zip(self._fields, state):
        object.__setattr__(self, name, value)


# ---------------------------------------------------------------------------
# Agent paths

Path = tuple[str, ...]


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
    span: Optional[Span] = None


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
    names = tuple(name for name in cls._fields if name != "span")
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
    in it, and plug another subterm into it, which reads every field and
    the span with one `attrgetter` call and rebuilds the node from that."""
    names = SCHEMA[cls].fields
    read = attrgetter(*names, "span")

    def plug(e: Node, k: Node) -> Node:
        parts = [*read(e)]
        parts[i] = k
        return cls(*parts)

    return attrgetter(names[i]), plug


def eval_holes(classes) -> dict[type, tuple[Hole, ...]]:
    """The evaluation positions of each of `classes`, left to right: every
    subterm that no binder scopes, except a sequence's rest, which runs
    only once its head is a value.  A plugged node keeps its span."""
    return {cls: tuple(hole(cls, i) for i, binder in SCHEMA[cls].subterms
                       if binder is None and (cls, i) != (Seq, 1))
            for cls in classes}


def value_test(holes: dict[type, tuple[Hole, ...]],
               forms: frozenset[type]) -> Callable[[Node], bool]:
    """The values of a language whose evaluation positions are `holes` and
    whose value forms are `forms`: a term is a value when its class is a
    value form and each of its evaluation positions holds a value.  The
    walk keeps its own stack, so nesting depth costs no Python stack."""
    getters = {cls: tuple(get for get, _ in holes.get(cls, ())) for cls in forms}

    def is_value(e: Node) -> bool:
        pending = [e]
        while pending:
            e = pending.pop()
            gets = getters.get(type(e))
            if gets is None:
                return False
            for get in gets:
                pending.append(get(e))
        return True

    return is_value


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

# Per node class, a reader of each subterm and of the binder scoping it.
_SCOPES = {cls: tuple((attrgetter(shape.fields[i]),
                       None if b is None else attrgetter(shape.fields[b]))
                      for i, b in shape.subterms)
           for cls, shape in SCHEMA.items()}


def _occurs_free(e: Node, x: str) -> bool:
    """Whether `x` occurs free in `e`, by a read-only walk that keeps its
    own stack and does not enter the scope of a binder of `x`."""
    todo = [e]
    while todo:
        e = todo.pop()
        if type(e) is Var:
            if e.name == x:
                return True
            continue
        scopes = _SCOPES.get(type(e))
        if scopes is None:
            _shape_of(e)  # raises: not an expression
        for get, binder in scopes:
            if binder is None or binder(e) != x:
                todo.append(get(e))
    return False


# The entries of substitute's work stack.
_VISIT, _BUILD, _THEN = range(3)


def substitute(e: Node, x: str, v: Node) -> Node:
    """Capture-avoiding substitution of `v` for free occurrences of `x`.

    A substitution that changes nothing, because `x` does not occur free
    in `e`, is one read-only scan of `e` and returns `e` itself.
    Otherwise a binder that would capture a free variable of `v` is first
    renamed to `fresh_name` of it, avoiding the free variables of `v` and
    of its scope.  Subterms in which nothing changes are shared with `e`;
    rebuilt nodes keep their spans.  Both walks keep their own stacks, so
    nesting depth costs no Python stack.
    """
    if not _occurs_free(e, x):
        return e
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
                dest[at] = type(e)(*arg, e.span)
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


def located_core(e: Expr) -> Expr:
    """The core of the maximal located spine A1.(...An.(core)).

    Annotations along the spine are discarded; the core keeps its own.
    """
    while isinstance(stripped := unannot(e), Located):
        e = stripped.body
    return e


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
    at: Path


Context = tuple[Binding, ...]
