"""Bidirectional typechecker; doubles as the proof checker for the logic.

A judgment ctx |- e : t is read as "e computes a t at the viewpoint
locks_of(ctx)".  Axiom lookup uses the rightmost binding of a variable
and requires the locks of the context segment to its right to equal the
binding's tag; there is no fallback to shadowed bindings.  The three
communication rules consult the topology on absolute addresses: with
L = locks_of(ctx), `up g`/`down g` query (L, L ++ g), and `send e to g2`
queries (L ++ g1, L ++ g2) where g1 is the full modality stack of the
payload's inferred type.

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
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from .parser import Program
from .printer import expr_str, path_str, type_str
from .syntax import (
    Absurd, Annot, App, Arrow, Believes, Binding, Case, Context, Down, Expr,
    Fst, Inl, Inr, Lam, Located, ModalLet, Pair, Path, Product, Send,
    Snd, Span, Sum, Type, Unit, UnitVal, Up, Var, Void, belief_stack,
    ctx_bind, ctx_lock, locks_of, path_concat, peel_stack, split_stack,
    substitute,
)
from .topology import PRESETS, Topology, load_preset, parse_topology, relation_holds


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


@dataclass
class Derivation:
    rule: str
    viewpoint: Path
    subject: str
    ty: Type
    children: list["Derivation"] = field(default_factory=list)

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

    Given a list `out`, the walk builds each node's result with the hook
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

    def _axiom(self, ctx: Context, e: Var) -> tuple[Type, int]:
        for i in range(len(ctx) - 1, -1, -1):
            entry = ctx[i]
            if isinstance(entry, Binding) and entry.name == e.name:
                after = locks_of(ctx[i + 1:])
                if after != entry.tag:
                    raise TypeCheckError(
                        "Axiom",
                        f"variable {e.name!r} is tagged {path_str(entry.tag)} but is "
                        f"used under locks {path_str(after)} past its binding "
                        f"(viewpoint {path_str(locks_of(ctx))})",
                        e.span)
                return entry.ty, i
        raise TypeCheckError("Axiom", f"unbound variable {e.name!r}", e.span)

    def _branches(self, ctx: Context, e: Case, scrut_ty: Type) -> tuple[Context, Context]:
        """The contexts of the two branches, given the scrutinee's type."""
        if not isinstance(scrut_ty, Sum):
            raise TypeCheckError(
                "Case", f"case scrutinee has non-sum type {type_str(scrut_ty)}", e.span)
        return (ctx_bind(ctx, e.left_var, scrut_ty.left, ()),
                ctx_bind(ctx, e.right_var, scrut_ty.right, ()))

    # -- inference ----------------------------------------------------------

    def infer(self, ctx: Context, e: Expr, out: Optional[list] = None) -> Type:
        kids: Optional[list] = [] if out is not None else None
        comm = None  # the hook's `comm` (see the module docstring)
        match e:
            case Var():
                rule, (ty, comm) = "Axiom", self._axiom(ctx, e)
            case UnitVal():
                rule, ty = "Unit", Unit()
            case Located(agent, body):
                rule, ty = "BelievesI", Believes(
                    agent, self.infer(ctx_lock(ctx, (agent,)), body, kids))
            case ModalLet(g1, g2, var, bound, body):
                bound_ty = self.infer(ctx_lock(ctx, g1), bound, kids)
                core = peel_stack(bound_ty, g2)
                if core is None:
                    raise TypeCheckError(
                        "BelievesE",
                        f"bound expression has type {type_str(bound_ty)}, which does not "
                        f"carry the modality stack {path_str(g2)}",
                        e.span)
                rule, ty = "BelievesE", self.infer(
                    ctx_bind(ctx, var, core, path_concat(g1, g2)), body, kids)
            case Send(payload, dest):
                g1, core = split_stack(self.infer(ctx, payload, kids))
                viewpoint = locks_of(ctx)
                comm = (path_concat(viewpoint, g1), path_concat(viewpoint, dest), core)
                self._require("Send", "cansend", comm[0], comm[1], viewpoint, e, g1)
                rule, ty = "Send", belief_stack(dest, core)
            case Up(g, body):
                core = self.infer(ctx, body, kids)
                viewpoint = locks_of(ctx)
                comm = (viewpoint, path_concat(viewpoint, g), core)
                self._require("Up", "canup", viewpoint, comm[1], viewpoint, e)
                rule, ty = "Up", belief_stack(g, core)
            case Down(g, body):
                ty = self.infer(ctx, body, kids)
                core = peel_stack(ty, g)
                if core is None:
                    raise TypeCheckError(
                        "Down",
                        f"expected a type stacked with {path_str(g)}, got {type_str(ty)}",
                        e.span)
                viewpoint = locks_of(ctx)
                comm = (path_concat(viewpoint, g), viewpoint, core)
                self._require("Down", "candown", viewpoint, comm[0], viewpoint, e)
                rule, ty = "Down", core
            case App(fn, arg):
                fn_ty = self.infer(ctx, fn, kids)
                if not isinstance(fn_ty, Arrow):
                    raise TypeCheckError(
                        "App", f"applied expression has non-function type {type_str(fn_ty)}",
                        e.span)
                self.check(ctx, arg, fn_ty.dom, kids)
                rule, ty = "App", fn_ty.cod
            case Pair(left, right):
                rule, ty = "Pair", Product(self.infer(ctx, left, kids),
                                           self.infer(ctx, right, kids))
            case Fst(inner) | Snd(inner):
                rule = "Fst" if isinstance(e, Fst) else "Snd"
                ty = self.infer(ctx, inner, kids)
                if not isinstance(ty, Product):
                    raise TypeCheckError(
                        rule, f"{rule.lower()} of non-product type {type_str(ty)}", e.span)
                ty = ty.left if rule == "Fst" else ty.right
            case Case():
                left, right = self._branches(ctx, e, self.infer(ctx, e.scrutinee, kids))
                ty = self.infer(left, e.left_body, kids)
                rt = self.infer(right, e.right_body, kids)
                if ty != rt:
                    raise TypeCheckError(
                        "Case", f"branch types differ: {type_str(ty)} vs {type_str(rt)}",
                        e.span)
                rule = "Case"
            case Annot(inner, ty):
                self.check(ctx, inner, ty, kids)
                rule = "Annot"
            case Lam() | Inl() | Inr() | Absurd():
                raise TypeCheckError(
                    "Infer", f"cannot infer the type of {_UNINFERABLE[type(e)]}", e.span)
            case _:
                raise TypeError(f"not an expression: {type(e).__name__}")
        if out is not None:
            out.append(self.hook(rule, e, locks_of(ctx), ty, kids, comm))
        return ty

    # -- checking -------------------------------------------------------------

    def check(self, ctx: Context, e: Expr, ty: Type, out: Optional[list] = None) -> None:
        kids: Optional[list] = [] if out is not None else None
        match e:
            case Lam(var, body):
                if not isinstance(ty, Arrow):
                    raise TypeCheckError(
                        "Lam", f"function checked against non-function type {type_str(ty)}",
                        e.span)
                self.check(ctx_bind(ctx, var, ty.dom, ()), body, ty.cod, kids)
                rule = "Lam"
            case Pair(left, right) if self._canonical and isinstance(ty, Product):
                self.check(ctx, left, ty.left, kids)
                self.check(ctx, right, ty.right, kids)
                rule = "Pair"
            case Located(agent, body) if (self._canonical and isinstance(ty, Believes)
                                          and ty.agent == agent):
                self.check(ctx_lock(ctx, (agent,)), body, ty.body, kids)
                rule = "BelievesI"
            case Inl(inner) | Inr(inner):
                rule = "Inl" if isinstance(e, Inl) else "Inr"
                if not isinstance(ty, Sum):
                    raise TypeCheckError(
                        rule, f"{rule.lower()} checked against non-sum type {type_str(ty)}",
                        e.span)
                self.check(ctx, inner, ty.left if rule == "Inl" else ty.right, kids)
            case Absurd(inner):
                self.check(ctx, inner, Void(), kids)
                rule = "Absurd"
            case Case():
                left, right = self._branches(ctx, e, self.infer(ctx, e.scrutinee, kids))
                self.check(left, e.left_body, ty, kids)
                self.check(right, e.right_body, ty, kids)
                rule = "Case"
            case _:
                inferred = self.infer(ctx, e, kids)
                if inferred != ty:
                    raise TypeCheckError(
                        "Mismatch",
                        f"expected {type_str(ty)} but inferred {type_str(inferred)}",
                        e.span)
                rule = "Check"
        if out is not None:
            out.append(self.hook(rule, e, locks_of(ctx), ty, kids, None))


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
    with open(path, encoding="utf-8") as handle:
        return parse_topology(handle.read(), name=ref)


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
        ctx = ctx_bind(ctx, name, ty, ())
    for name, ty, body in program.defs:
        yield ctx, body, ty
        ctx = ctx_bind(ctx, name, ty, ())
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
