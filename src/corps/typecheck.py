"""Bidirectional typechecker; doubles as the proof checker for the logic.

A judgment ctx |-_L e : t is read as "e computes a t from the viewpoint
L".  The walk passes L down: it grows by A under a located `A.(e)` and
by g1 in the bound expression of `let [g1] [g2] x = ...`, and stays put
everywhere else.  The context holds only bindings, each recording the
viewpoint it was bound at (`Binding.at`).  Axiom takes the rightmost
binding b of the variable, with no fallback to shadowed ones, and
accepts it exactly when b.at ++ b.tag = L.  That is the Fitch rule
(Clouston, FoSSaCS 2018), whose contexts keep locks between bindings
and ask that the locks right of b spell b.tag: the locks left of b
concatenate to b.at and all of them to L, so in a context the walk
builds b.at is a prefix of L and the locks right of b spell the rest.
The equation, unlike a test of that rest alone, also refuses a binding
whose `at` is no prefix of L, which only a hand-built context can hold.
The three communication rules consult the topology on absolute
addresses: `up g`/`down g` query (L, L ++ g), and `send e to g2` queries
(L ++ g1, L ++ g2) where g1 is the full modality stack of the payload's
inferred type.

Checking mode exists so functions, injections, absurd and case branches
need no annotations when the expected type is known; everything else
infers and compares for syntactic type equality.

`Checker.infer`/`check` are the only bidirectional walk of the package.
Given a list to collect into, each rule hands the checker's hook the
rule name, the node, the viewpoint, the type, the hook's results for the
node's children in walk order and `comm`: for send/up/down the (sender,
receiver, moved type) of its query, for Axiom the position in the
context of the binding found, so a hook can tell a definition from a
local binder of the same name.  What the hook returns becomes the node's
result.  `derive`, the default hook, builds the `Derivation`s of `check
--derivation`; endpoint projection is the other hook.  Given no list,
the walk builds no per-node results.

A normal form's injections carry no annotations, so projecting one (the
expected result of a run, `projection.project_expr`) needs two more
checking rules: a pair against a product and a located value against its
own modality.  They are off everywhere else, and projection walks the
`judgments` of a program as `check_program` does, so `check_program`
and `project_network` accept the same programs, definitions included.

`infer` and `check` branch on `type(e) is C`, most frequent form first,
and read fields as attributes: on CPython 3.11 a `match` class pattern
costs about 0.08 us per case that fails and 0.35 us per positional
field, several times an identity test, and this walk runs once per node
for checking and again for projection.
"""

from __future__ import annotations

import os
from typing import Callable, Iterator, Optional

from .parser import Program
from .printer import expr_str, path_str, type_str
from .syntax import (
    UNIT, VOID, Absurd, Annot, App, Arrow, Believes, Binding, Case, Context,
    Down, Expr, Fst, Inl, Inr, Lam, Located, ModalLet, Pair, Path, Product,
    Send, Snd, Span, Sum, Type, UnitVal, Up, Var, _frozen, belief_stack,
    path_concat, peel_stack, split_stack, substitute,
)
from .topology import (
    PRESETS, Topology, TopologyError, load_preset, parse_topology, relation_holds,
)


class TypeCheckError(Exception):
    """A rejected judgment; carries exactly one rule tag."""

    def __init__(self, rule: str, message: str, span: Optional[Span] = None,
                 query: Optional[tuple[str, Path, Path]] = None):
        super().__init__(message)
        self.rule = rule
        self.message = message
        self.span = span
        self.query = query

    def __str__(self) -> str:
        where = f"{self.span}: " if self.span else ""
        return f"{where}[{self.rule}] {self.message}"


@_frozen
class Derivation:
    """One node of a typing derivation: rule, viewpoint, subject, type and
    the derivations of its premises."""
    rule: str
    viewpoint: Path
    subject: str
    ty: Type
    children: list["Derivation"]

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [f"{pad}{self.rule}: {self.subject} : {type_str(self.ty)}"
                 f"  (from {path_str(self.viewpoint)}'s point of view)"]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)


def derive(rule: str, e: Expr, viewpoint: Path, ty: Type,
           kids: list[Derivation], comm) -> Derivation:
    """The hook that records the walk as a derivation tree."""
    return Derivation(rule, viewpoint, expr_str(e), ty, kids)


_UNINFERABLE = {Lam: "an unannotated function", Inl: "an injection; annotate it",
                Inr: "an injection; annotate it", Absurd: "absurd; annotate it"}


class Checker:
    """The bidirectional walk (see the module docstring).

    `infer` and `check` take the viewpoint of the node they judge, the
    root by default.  Given a list `out`, the walk builds each node's result with the hook
    (`derive` unless another is given) and appends it there: to the
    caller's list for the root, to the parent's children below it.
    Without one, it builds nothing.
    """

    # The checking rules for canonical values (see the module docstring).
    _canonical = False

    def __init__(self, topology: Topology, hook: Callable = derive):
        self.topology = topology
        self.hook = hook

    def _require(self, rule: str, kind: str, a: Path, b: Path, viewpoint: Path,
                 e: Expr, stack: Optional[Path] = None) -> None:
        if not relation_holds(self.topology, kind, a, b):
            payload = "" if stack is None else f", payload stack {path_str(stack)}"
            raise TypeCheckError(
                rule, f"{kind}({path_str(a)}, {path_str(b)}) does not hold "
                f"(viewpoint {path_str(viewpoint)}{payload})", e.span, (kind, a, b))

    def _axiom(self, ctx: Context, e: Var, viewpoint: Path) -> tuple[Type, int]:
        for i in range(len(ctx) - 1, -1, -1):
            b = ctx[i]
            if b.name == e.name:
                if path_concat(b.at, b.tag) != viewpoint:
                    raise TypeCheckError(
                        "Axiom",
                        f"variable {e.name!r} is tagged {path_str(b.tag)} but is "
                        f"used under locks {path_str(viewpoint[len(b.at):])} past its "
                        f"binding (viewpoint {path_str(viewpoint)})",
                        e.span)
                return b.ty, i
        raise TypeCheckError("Axiom", f"unbound variable {e.name!r}", e.span)

    def _branches(self, ctx: Context, e: Case, scrut_ty: Type,
                  viewpoint: Path) -> tuple[Context, Context]:
        """The contexts of the two branches, given the scrutinee's type."""
        if not isinstance(scrut_ty, Sum):
            raise TypeCheckError(
                "Case", f"case scrutinee has non-sum type {type_str(scrut_ty)}", e.span)
        return (ctx + (Binding(e.left_var, scrut_ty.left, (), viewpoint),),
                ctx + (Binding(e.right_var, scrut_ty.right, (), viewpoint),))

    # -- inference ----------------------------------------------------------

    def infer(self, ctx: Context, e: Expr, out: Optional[list] = None,
              viewpoint: Path = ()) -> Type:
        kids: Optional[list] = [] if out is not None else None
        comm = None  # the hook's `comm` (see the module docstring)
        kind = type(e)
        if kind is UnitVal:
            rule, ty = "Unit", UNIT
        elif kind is Located:
            rule, ty = "BelievesI", Believes(e.agent, self.infer(
                ctx, e.body, kids, path_concat(viewpoint, (e.agent,))))
        elif kind is Send:
            g1, core = split_stack(self.infer(ctx, e.payload, kids, viewpoint))
            comm = (path_concat(viewpoint, g1), path_concat(viewpoint, e.dest), core)
            self._require("Send", "cansend", comm[0], comm[1], viewpoint, e, g1)
            rule, ty = "Send", belief_stack(e.dest, core)
        elif kind is Pair:
            rule, ty = "Pair", Product(self.infer(ctx, e.left, kids, viewpoint),
                                       self.infer(ctx, e.right, kids, viewpoint))
        elif kind is Annot:
            ty = e.ty
            self.check(ctx, e.inner, ty, kids, viewpoint)
            rule = "Annot"
        elif kind is ModalLet:
            g1, g2 = e.open_path, e.stack_path
            bound_ty = self.infer(ctx, e.bound, kids, path_concat(viewpoint, g1))
            core = peel_stack(bound_ty, g2)
            if core is None:
                raise TypeCheckError(
                    "BelievesE",
                    f"bound expression has type {type_str(bound_ty)}, which does not "
                    f"carry the modality stack {path_str(g2)}",
                    e.span)
            rule, ty = "BelievesE", self.infer(
                ctx + (Binding(e.var, core, path_concat(g1, g2), viewpoint),),
                e.body, kids, viewpoint)
        elif kind is App:
            fn_ty = self.infer(ctx, e.fn, kids, viewpoint)
            if not isinstance(fn_ty, Arrow):
                raise TypeCheckError(
                    "App", f"applied expression has non-function type {type_str(fn_ty)}",
                    e.span)
            self.check(ctx, e.arg, fn_ty.dom, kids, viewpoint)
            rule, ty = "App", fn_ty.cod
        elif kind is Fst or kind is Snd:
            rule = "Fst" if kind is Fst else "Snd"
            ty = self.infer(ctx, e.inner, kids, viewpoint)
            if not isinstance(ty, Product):
                raise TypeCheckError(
                    rule, f"{rule.lower()} of non-product type {type_str(ty)}", e.span)
            ty = ty.left if kind is Fst else ty.right
        elif kind is Down:
            ty = self.infer(ctx, e.body, kids, viewpoint)
            core = peel_stack(ty, e.path)
            if core is None:
                raise TypeCheckError(
                    "Down",
                    f"expected a type stacked with {path_str(e.path)}, got {type_str(ty)}",
                    e.span)
            comm = (path_concat(viewpoint, e.path), viewpoint, core)
            self._require("Down", "candown", viewpoint, comm[0], viewpoint, e)
            rule, ty = "Down", core
        elif kind is Case:
            left, right = self._branches(
                ctx, e, self.infer(ctx, e.scrutinee, kids, viewpoint), viewpoint)
            ty = self.infer(left, e.left_body, kids, viewpoint)
            rt = self.infer(right, e.right_body, kids, viewpoint)
            if ty != rt:
                raise TypeCheckError(
                    "Case", f"branch types differ: {type_str(ty)} vs {type_str(rt)}",
                    e.span)
            rule = "Case"
        elif kind is Var:
            rule, (ty, comm) = "Axiom", self._axiom(ctx, e, viewpoint)
        elif kind is Up:
            core = self.infer(ctx, e.body, kids, viewpoint)
            comm = (viewpoint, path_concat(viewpoint, e.path), core)
            self._require("Up", "canup", viewpoint, comm[1], viewpoint, e)
            rule, ty = "Up", belief_stack(e.path, core)
        elif kind in _UNINFERABLE:
            raise TypeCheckError(
                "Infer", f"cannot infer the type of {_UNINFERABLE[kind]}", e.span)
        else:
            raise TypeError(f"not an expression: {kind.__name__}")
        if out is not None:
            out.append(self.hook(rule, e, viewpoint, ty, kids, comm))
        return ty

    # -- checking -------------------------------------------------------------

    def check(self, ctx: Context, e: Expr, ty: Type, out: Optional[list] = None,
              viewpoint: Path = ()) -> None:
        kids: Optional[list] = [] if out is not None else None
        kind = type(e)
        if kind is Lam:
            if not isinstance(ty, Arrow):
                raise TypeCheckError(
                    "Lam", f"function checked against non-function type {type_str(ty)}",
                    e.span)
            self.check(ctx + (Binding(e.var, ty.dom, (), viewpoint),), e.body, ty.cod,
                       kids, viewpoint)
            rule = "Lam"
        elif kind is Inl or kind is Inr:
            rule = "Inl" if kind is Inl else "Inr"
            if not isinstance(ty, Sum):
                raise TypeCheckError(
                    rule, f"{rule.lower()} checked against non-sum type {type_str(ty)}",
                    e.span)
            self.check(ctx, e.inner, ty.left if kind is Inl else ty.right, kids, viewpoint)
        elif kind is Case:
            left, right = self._branches(
                ctx, e, self.infer(ctx, e.scrutinee, kids, viewpoint), viewpoint)
            self.check(left, e.left_body, ty, kids, viewpoint)
            self.check(right, e.right_body, ty, kids, viewpoint)
            rule = "Case"
        elif kind is Pair and self._canonical and isinstance(ty, Product):
            self.check(ctx, e.left, ty.left, kids, viewpoint)
            self.check(ctx, e.right, ty.right, kids, viewpoint)
            rule = "Pair"
        elif (kind is Located and self._canonical and isinstance(ty, Believes)
              and ty.agent == e.agent):
            self.check(ctx, e.body, ty.body, kids, path_concat(viewpoint, (e.agent,)))
            rule = "BelievesI"
        elif kind is Absurd:
            self.check(ctx, e.inner, VOID, kids, viewpoint)
            rule = "Absurd"
        else:
            inferred = self.infer(ctx, e, kids, viewpoint)
            if inferred != ty:
                raise TypeCheckError(
                    "Mismatch",
                    f"expected {type_str(ty)} but inferred {type_str(inferred)}",
                    e.span)
            rule = "Check"
        if out is not None:
            out.append(self.hook(rule, e, viewpoint, ty, kids, None))


# ---------------------------------------------------------------------------
# Programs

def resolve_topology(program: Program, override: Optional[str] = None,
                     base_dir: str = ".") -> Topology:
    """Preset name or rule-file path; the override wins, default is choreo."""
    ref = override if override is not None else program.topology_ref
    if ref is None:
        return load_preset("choreo")
    if ref in PRESETS:
        return load_preset(ref)
    path = ref if os.path.isabs(ref) else os.path.join(base_dir, ref)
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise TopologyError(f"{path}: {err.strerror}") from None
    except UnicodeDecodeError as err:
        raise TopologyError(f"{path}: {err}") from None
    return parse_topology(text, name=ref)


def check_program(program: Program, topology: Optional[Topology] = None,
                  deriv: Optional[list[Derivation]] = None) -> list[TypeCheckError]:
    """Check every definition and main; returns all rejections found.

    Given a `deriv` list, appends one derivation per definition and main.
    """
    if topology is None:
        topology = resolve_topology(program)
    chk = Checker(topology)
    errors: list[TypeCheckError] = []
    for ctx, e, ty in judgments(program):
        try:
            chk.check(ctx, e, ty, deriv)
        except TypeCheckError as err:
            errors.append(err)
    return errors


def judgments(program: Program) -> Iterator[tuple[Context, Expr, Type]]:
    """The judgments `program` stands for, in order: each definition's
    body in the context of the inputs and the definitions before it, then
    main in the context of all of them.  A definition is bound at position
    `len(ctx)` of the context its body is checked in."""
    ctx: Context = ()
    for name, ty in program.inputs:
        ctx += (Binding(name, ty, (), ()),)
    for name, ty, body in program.defs:
        yield ctx, body, ty
        ctx += (Binding(name, ty, (), ()),)
    yield ctx, program.main_expr, program.main_type


def inline_main(program: Program) -> tuple[Expr, Type]:
    """Main with all defs substituted in; declared inputs stay free.

    Each substituted body is annotated with its declared type so that it
    remains inferable in any position.
    """
    env: dict[str, Expr] = {}
    for name, ty, body in program.defs:
        for seen, value in env.items():
            body = substitute(body, seen, value)
        env[name] = Annot(body, ty)
    main = program.main_expr
    for name, value in env.items():
        main = substitute(main, name, value)
    return main, program.main_type
