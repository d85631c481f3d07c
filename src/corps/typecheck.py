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
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

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


def _query_str(query: tuple[str, Path, Path]) -> str:
    kind, a, b = query
    return f"{kind}({path_str(a)}, {path_str(b)})"


class Checker:
    def __init__(self, topology: Topology, record_queries: bool = False):
        self.topology = topology
        self.queries: Optional[list[tuple[str, Path, Path, Path]]] = (
            [] if record_queries else None)

    def _relation(self, kind: str, a: Path, b: Path, viewpoint: Path) -> bool:
        if self.queries is not None:
            self.queries.append((kind, a, b, viewpoint))
        return relation_holds(self.topology, kind, a, b)

    # -- inference ----------------------------------------------------------

    def infer(self, ctx: Context, e: Expr,
              deriv: Optional[list[Derivation]] = None) -> Type:
        kids: Optional[list[Derivation]] = [] if deriv is not None else None
        viewpoint = locks_of(ctx)

        def done(rule: str, ty: Type) -> Type:
            if deriv is not None:
                deriv.append(Derivation(rule, viewpoint, expr_str(e), ty, kids))
            return ty

        match e:
            case Var(name):
                for i in range(len(ctx) - 1, -1, -1):
                    entry = ctx[i]
                    if isinstance(entry, Binding) and entry.name == name:
                        after = locks_of(ctx[i + 1:])
                        if after != entry.tag:
                            raise TypeCheckError(
                                "Axiom",
                                f"variable {name!r} is tagged {path_str(entry.tag)} but is "
                                f"used under locks {path_str(after)} past its binding "
                                f"(viewpoint {path_str(viewpoint)})",
                                e.span)
                        return done("Axiom", entry.ty)
                raise TypeCheckError("Axiom", f"unbound variable {name!r}", e.span)
            case UnitVal():
                return done("Unit", Unit())
            case Located(agent, body):
                ty = self.infer(ctx_lock(ctx, (agent,)), body, kids)
                return done("BelievesI", Believes(agent, ty))
            case ModalLet(g1, g2, var, bound, body):
                bound_ty = self.infer(ctx_lock(ctx, g1), bound, kids)
                core = peel_stack(bound_ty, g2)
                if core is None:
                    raise TypeCheckError(
                        "BelievesE",
                        f"bound expression has type {type_str(bound_ty)}, which does not "
                        f"carry the modality stack {path_str(g2)}",
                        e.span)
                body_ty = self.infer(
                    ctx_bind(ctx, var, core, path_concat(g1, g2)), body, kids)
                return done("BelievesE", body_ty)
            case Send(payload, dest):
                payload_ty = self.infer(ctx, payload, kids)
                g1, core = split_stack(payload_ty)
                query = ("cansend", path_concat(viewpoint, g1),
                         path_concat(viewpoint, dest))
                if not self._relation(query[0], query[1], query[2], viewpoint):
                    raise TypeCheckError(
                        "Send", f"{_query_str(query)} does not hold "
                        f"(viewpoint {path_str(viewpoint)}, payload stack {path_str(g1)})",
                        e.span, query)
                return done("Send", belief_stack(dest, core))
            case Up(g, body):
                ty = self.infer(ctx, body, kids)
                query = ("canup", viewpoint, path_concat(viewpoint, g))
                if not self._relation(query[0], query[1], query[2], viewpoint):
                    raise TypeCheckError(
                        "Up", f"{_query_str(query)} does not hold "
                        f"(viewpoint {path_str(viewpoint)})",
                        e.span, query)
                return done("Up", belief_stack(g, ty))
            case Down(g, body):
                ty = self.infer(ctx, body, kids)
                core = peel_stack(ty, g)
                if core is None:
                    raise TypeCheckError(
                        "Down",
                        f"expected a type stacked with {path_str(g)}, got {type_str(ty)}",
                        e.span)
                query = ("candown", viewpoint, path_concat(viewpoint, g))
                if not self._relation(query[0], query[1], query[2], viewpoint):
                    raise TypeCheckError(
                        "Down", f"{_query_str(query)} does not hold "
                        f"(viewpoint {path_str(viewpoint)})",
                        e.span, query)
                return done("Down", core)
            case App(fn, arg):
                fn_ty = self.infer(ctx, fn, kids)
                if not isinstance(fn_ty, Arrow):
                    raise TypeCheckError(
                        "App", f"applied expression has non-function type {type_str(fn_ty)}",
                        e.span)
                self.check(ctx, arg, fn_ty.dom, kids)
                return done("App", fn_ty.cod)
            case Pair(left, right):
                lt = self.infer(ctx, left, kids)
                rt = self.infer(ctx, right, kids)
                return done("Pair", Product(lt, rt))
            case Fst(inner):
                ty = self.infer(ctx, inner, kids)
                if not isinstance(ty, Product):
                    raise TypeCheckError(
                        "Fst", f"fst of non-product type {type_str(ty)}", e.span)
                return done("Fst", ty.left)
            case Snd(inner):
                ty = self.infer(ctx, inner, kids)
                if not isinstance(ty, Product):
                    raise TypeCheckError(
                        "Snd", f"snd of non-product type {type_str(ty)}", e.span)
                return done("Snd", ty.right)
            case Case(scrutinee, lv, lb, rv, rb):
                scrut_ty = self.infer(ctx, scrutinee, kids)
                if not isinstance(scrut_ty, Sum):
                    raise TypeCheckError(
                        "Case", f"case scrutinee has non-sum type {type_str(scrut_ty)}",
                        e.span)
                lt = self.infer(ctx_bind(ctx, lv, scrut_ty.left, ()), lb, kids)
                rt = self.infer(ctx_bind(ctx, rv, scrut_ty.right, ()), rb, kids)
                if lt != rt:
                    raise TypeCheckError(
                        "Case", f"branch types differ: {type_str(lt)} vs {type_str(rt)}",
                        e.span)
                return done("Case", lt)
            case Annot(inner, ty):
                self.check(ctx, inner, ty, kids)
                return done("Annot", ty)
            case Lam():
                raise TypeCheckError(
                    "Infer", "cannot infer the type of an unannotated function", e.span)
            case Inl() | Inr():
                raise TypeCheckError(
                    "Infer", "cannot infer the type of an injection; annotate it", e.span)
            case Absurd():
                raise TypeCheckError(
                    "Infer", "cannot infer the type of absurd; annotate it", e.span)
        raise TypeError(f"not an expression: {e!r}")

    # -- checking -------------------------------------------------------------

    def check(self, ctx: Context, e: Expr, ty: Type,
              deriv: Optional[list[Derivation]] = None) -> None:
        kids: Optional[list[Derivation]] = [] if deriv is not None else None
        viewpoint = locks_of(ctx)

        def done(rule: str) -> None:
            if deriv is not None:
                deriv.append(Derivation(rule, viewpoint, expr_str(e), ty, kids))

        match e:
            case Lam(var, body):
                if not isinstance(ty, Arrow):
                    raise TypeCheckError(
                        "Lam", f"function checked against non-function type {type_str(ty)}",
                        e.span)
                self.check(ctx_bind(ctx, var, ty.dom, ()), body, ty.cod, kids)
                return done("Lam")
            case Inl(inner):
                if not isinstance(ty, Sum):
                    raise TypeCheckError(
                        "Inl", f"inl checked against non-sum type {type_str(ty)}", e.span)
                self.check(ctx, inner, ty.left, kids)
                return done("Inl")
            case Inr(inner):
                if not isinstance(ty, Sum):
                    raise TypeCheckError(
                        "Inr", f"inr checked against non-sum type {type_str(ty)}", e.span)
                self.check(ctx, inner, ty.right, kids)
                return done("Inr")
            case Absurd(inner):
                self.check(ctx, inner, Void(), kids)
                return done("Absurd")
            case Case(scrutinee, lv, lb, rv, rb):
                scrut_ty = self.infer(ctx, scrutinee, kids)
                if not isinstance(scrut_ty, Sum):
                    raise TypeCheckError(
                        "Case", f"case scrutinee has non-sum type {type_str(scrut_ty)}",
                        e.span)
                self.check(ctx_bind(ctx, lv, scrut_ty.left, ()), lb, ty, kids)
                self.check(ctx_bind(ctx, rv, scrut_ty.right, ()), rb, ty, kids)
                return done("Case")
            case _:
                inferred = self.infer(ctx, e, kids)
                if inferred != ty:
                    raise TypeCheckError(
                        "Mismatch",
                        f"expected {type_str(ty)} but inferred {type_str(inferred)}",
                        e.span)
                return done("Check")


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
                  base_dir: str = ".",
                  checker: Optional[Checker] = None,
                  deriv: Optional[list[Derivation]] = None) -> list[TypeCheckError]:
    """Check every definition and main; returns all rejections found.

    Given a `deriv` list, appends one derivation per definition and main.
    """
    if topology is None:
        topology = resolve_topology(program, base_dir=base_dir)
    chk = checker if checker is not None else Checker(topology)
    errors: list[TypeCheckError] = []
    ctx: Context = ()
    for name, ty in program.inputs:
        ctx = ctx_bind(ctx, name, ty, ())
    for name, ty, body in program.defs:
        try:
            chk.check(ctx, body, ty, deriv)
        except TypeCheckError as err:
            errors.append(err)
        ctx = ctx_bind(ctx, name, ty, ())
    try:
        chk.check(ctx, program.main_expr, program.main_type, deriv)
    except TypeCheckError as err:
        errors.append(err)
    return errors


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
