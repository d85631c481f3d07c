"""Type-directed endpoint projection to one local process per address.

Every address in the program's universe receives a homomorphic copy of
the choreography.  The copy at address g keeps g's view of each value:
ground data materializes only at the viewpoint that computes it, the
contents of a located value materialize at its owner, and everything an
address holds no part of collapses to `skip`.  Each communication
construct becomes one message between two addresses:

    send, payload stack g1, at viewpoint L:
        sender L++g1:   send_to [L++g2] <payload projection>
        receiver L++g2: <payload duties> ; recv_from [L++g1]
        third parties:  <payload duties>
    up [g] at L:   one message L -> L++g, same shape
    down [g] at L: one message L++g -> L

A process that both sends and receives the same message (a self
communication) sequences the send before the receive, which is safe
because channels are asynchronous.  The sender keeps the value it sent;
only the addresses a value's type says can use it ever consult it, so
the retained copy is inert.

The moved value must be entirely local to the sender: its type may not
mention a belief modality (such a payload would need messages between
several pairs of addresses and is rejected as not projectable).  A
payload type mentioning a function is projectable but flagged, since
such communications never fire choreographically; flagged networks are
excluded from agreement checking.

Case branches at every address other than the scrutinee's owner must
merge, i.e. be alpha-equal; a conflict means some third party would
need to know the outcome of a choice it cannot observe.

One walk of the typing derivation projects every address at once.  Each
rule returns a sparse projection: a generic process, which every address
gets, and a map from the few addresses that differ to their processes.
Only viewpoints of unit values, injections and cases, and the two ends
of each message, ever become keys, so a rule combines its children's
processes per key rather than per address of the universe.

Errors follow walk order, as if each address had its own walk that
stops at its first error.  A merge conflict at a key takes the place of
that address's process, and a rule whose children hold errors keeps the
first.  An error in the generic process (a merge conflict there, or a
nested-modality payload, which fails at every address) ends the walk.
So `project_network` raises the generic process's first error if there
is one, and otherwise the error at the smallest address of the universe
that has one; `project(g)` walks for g alone and raises g's first error.
The input must typecheck: the walk raises TypeCheckError where it meets
a rule that does not apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .parser import Program
from .printer import expr_str, path_str
from .syntax import (
    SKIP, Absurd, Annot, App, Arrow, Believes, Case, Down, Expr, Fst, Inl,
    Inr, Lam, LocalExpr, Located, ModalLet, Pair, Path, Product, RecvFrom,
    Send, SendTo, Seq, Skip, Snd, Sum, Type, Unit, UnitVal, Up, Var, Void,
    belief_stack, ctx_bind, ctx_lock, expr_equal, path_concat, peel_stack,
    split_stack, substitute,
)
from .topology import Topology
from .typecheck import Checker, TypeCheckError, resolve_topology


class ProjectionError(Exception):
    """The program is not projectable at some construct."""


class MergeConflict(ProjectionError):
    pass


# ---------------------------------------------------------------------------
# Rendering local processes (their forms live in syntax)

def local_str(e: LocalExpr, prec: int = 0) -> str:
    """Render a local process; seq binds loosest, below the keyword level."""
    def wrap(s: str, level: int) -> str:
        return f"({s})" if level < prec else s

    match e:
        case Skip():
            return "skip"
        case Seq(first, rest):
            return wrap(f"{local_str(first, 1)} ; {local_str(rest, 0)}", 0)
        case SendTo(dest, payload):
            return wrap(f"send_to {path_str(dest)} {local_str(payload, 2)}", 1)
        case RecvFrom(src):
            return f"recv_from {path_str(src)}"
        case Lam(var, body):
            return wrap(f"fun {var} -> {local_str(body, 1)}", 1)
        case Case(scrutinee, lv, lb, rv, rb):
            s = (f"case {local_str(scrutinee, 1)} of inl {lv} -> {local_str(lb, 1)}"
                 f" | inr {rv} -> {local_str(rb, 1)}")
            return wrap(s, 1)
        case App(fn, arg):
            return wrap(f"{local_str(fn, 2)} {local_str(arg, 3)}", 2)
        case Inl(inner):
            return wrap(f"inl {local_str(inner, 3)}", 3)
        case Inr(inner):
            return wrap(f"inr {local_str(inner, 3)}", 3)
        case Fst(inner):
            return wrap(f"fst {local_str(inner, 3)}", 3)
        case Snd(inner):
            return wrap(f"snd {local_str(inner, 3)}", 3)
        case Absurd(inner):
            return wrap(f"absurd {local_str(inner, 3)}", 3)
        case Var(name):
            return name
        case UnitVal():
            return "()"
        case Pair(left, right):
            return f"({local_str(left)}, {local_str(right)})"
    raise TypeError(f"not a local expression: {e!r}")


def merge(l1: LocalExpr, l2: LocalExpr) -> LocalExpr:
    """Equality merge of branch projections; conflicting behavior fails."""
    if expr_equal(l1, l2):
        return l1
    raise MergeConflict(
        f"branches project to different processes: "
        f"{local_str(l1)!r} vs {local_str(l2)!r}")


# ---------------------------------------------------------------------------
# Smart constructors: a node whose parts are all skip carries nothing.

def _mk_lam(var: str, body: LocalExpr) -> LocalExpr:
    return SKIP if body == SKIP else Lam(var, body)


def _mk_app(fn: LocalExpr, arg: LocalExpr) -> LocalExpr:
    return SKIP if fn == SKIP and arg == SKIP else App(fn, arg)


def _mk_pair(left: LocalExpr, right: LocalExpr) -> LocalExpr:
    return SKIP if left == SKIP and right == SKIP else Pair(left, right)


def _mk_unary(ctor, inner: LocalExpr) -> LocalExpr:
    return SKIP if inner == SKIP else ctor(inner)


def _mk_seq(first: LocalExpr, rest: LocalExpr) -> LocalExpr:
    return rest if first == SKIP else Seq(first, rest)


def _mk_case(scrutinee: LocalExpr, lv: str, lb: LocalExpr,
             rv: str, rb: LocalExpr) -> LocalExpr:
    if scrutinee == SKIP and lb == SKIP and rb == SKIP:
        return SKIP
    return Case(scrutinee, lv, lb, rv, rb)


# ---------------------------------------------------------------------------
# Type locality of wire payloads

def _contains_believes(ty: Type) -> bool:
    match ty:
        case Believes():
            return True
        case Product(left, right) | Sum(left, right):
            return _contains_believes(left) or _contains_believes(right)
        case Arrow(dom, cod):
            return _contains_believes(dom) or _contains_believes(cod)
        case _:
            return False


def _contains_arrow(ty: Type) -> bool:
    match ty:
        case Arrow():
            return True
        case Product(left, right) | Sum(left, right):
            return _contains_arrow(left) or _contains_arrow(right)
        case Believes(_, body):
            return _contains_arrow(body)
        case _:
            return False


@dataclass
class Network:
    processes: dict[Path, LocalExpr]
    result_address: Path
    lambda_wire: bool
    universe: frozenset[Path] = field(default_factory=frozenset)
    # The simulator's prepared start (`netsim._Start`): built by the first
    # run of the network, reused by the later ones.
    _start: Optional[object] = field(default=None, init=False, repr=False,
                                     compare=False)


# ---------------------------------------------------------------------------
# Sparse projections: (generic, at), where address g gets at[g], or
# `generic` if g is not a key.  An error may stand in for a process at a
# key (see the module docstring).

Local = Union[LocalExpr, ProjectionError]
Sparse = tuple[LocalExpr, dict[Path, Local]]

_NOWHERE: dict[Path, Local] = {}  # shared; no sparse map is ever mutated


def _apply(rule, parts: list[Local]) -> Local:
    # The first error in walk order stands for the whole node.
    for part in parts:
        if isinstance(part, ProjectionError):
            return part
    return rule(*parts)


def _process(local: Local) -> LocalExpr:
    if isinstance(local, ProjectionError):
        raise local
    return local


class _Projector:
    """One walk of the typing derivation, projecting for every address.

    Given a target address, it projects for that address alone: its
    process is the generic one, and the maps stay empty.
    """

    def __init__(self, topology: Topology, target: Optional[Path] = None):
        self.checker = Checker(topology)
        self.target = target
        self.participants: set[Path] = set()
        self.lambda_wire = False

    def _node(self, rule, *specs: Sparse, special=None) -> Sparse:
        """Apply `rule` to the children's processes, address by address;
        an address that `special` maps to a rule of its own applies that."""
        special = special or {}
        if self.target is not None:
            # The target's process is the generic one; no map gets a key.
            rule, special = special.get(self.target, rule), {}
        # An error in the generic process ends the walk (module docstring).
        generic = _process(rule(*[generic for generic, _ in specs]))
        keys = set(special).union(*[at for _, at in specs])
        if not keys:
            return generic, _NOWHERE
        return generic, {
            g: _apply(special.get(g, rule), [at.get(g, default) for default, at in specs])
            for g in keys}

    # -- bidirectional walk, mirroring the typechecker ------------------------

    def infer(self, ctx, e: Expr, L: Path) -> tuple[Sparse, Type]:
        match e:
            case Var(name):
                ty = self.checker.infer(ctx, e)
                return (Var(name), _NOWHERE), ty
            case UnitVal():
                return self._node(lambda: SKIP, special={L: UnitVal}), Unit()
            case Located(agent, body):
                inside = path_concat(L, (agent,))
                self.participants.add(inside)
                le, ty = self.infer(ctx_lock(ctx, (agent,)), body, inside)
                return le, Believes(agent, ty)
            case Annot(inner, ty):
                return self.check(ctx, inner, ty, L), ty
            case ModalLet(g1, g2, var, bound, body):
                inside = path_concat(L, g1)
                self.participants.add(inside)
                be, bty = self.infer(ctx_lock(ctx, g1), bound, inside)
                core = peel_stack(bty, g2)
                if core is None:
                    raise TypeCheckError("BelievesE", "stack mismatch", e.span)
                inner_ctx = ctx_bind(ctx, var, core, path_concat(g1, g2))
                le, ty = self.infer(inner_ctx, body, L)

                def bind(b: LocalExpr, l: LocalExpr) -> LocalExpr:
                    if b == SKIP:
                        # This address holds no part of the bound value and
                        # has no duties computing it, so the binding is the
                        # skip value; substituting keeps uninvolved
                        # processes at skip.
                        return substitute(l, var, SKIP)
                    return _mk_app(_mk_lam(var, l), b)
                return self._node(bind, be, le), ty
            case Send(payload, dest):
                pe, pty = self.infer(ctx, payload, L)
                g1, core = split_stack(pty)
                sender = path_concat(L, g1)
                receiver = path_concat(L, dest)
                le = self._comm(pe, core, sender, receiver, e)
                return le, belief_stack(dest, core)
            case Up(path, body):
                be, ty = self.infer(ctx, body, L)
                le = self._comm(be, ty, L, path_concat(L, path), e)
                return le, belief_stack(path, ty)
            case Down(path, body):
                be, ty = self.infer(ctx, body, L)
                core = peel_stack(ty, path)
                if core is None:
                    raise TypeCheckError("Down", "stack mismatch", e.span)
                le = self._comm(be, core, path_concat(L, path), L, e)
                return le, core
            case App(fn, arg):
                fe, fty = self.infer(ctx, fn, L)
                if not isinstance(fty, Arrow):
                    raise TypeCheckError("App", "non-function applied", e.span)
                ae = self.check(ctx, arg, fty.dom, L)
                return self._node(_mk_app, fe, ae), fty.cod
            case Pair(left, right):
                le, lt = self.infer(ctx, left, L)
                re_, rt = self.infer(ctx, right, L)
                return self._node(_mk_pair, le, re_), Product(lt, rt)
            case Fst(inner):
                ie, ty = self.infer(ctx, inner, L)
                if not isinstance(ty, Product):
                    raise TypeCheckError("Fst", "non-product", e.span)
                return self._node(_unary(Fst), ie), ty.left
            case Snd(inner):
                ie, ty = self.infer(ctx, inner, L)
                if not isinstance(ty, Product):
                    raise TypeCheckError("Snd", "non-product", e.span)
                return self._node(_unary(Snd), ie), ty.right
            case Case(scrutinee, lv, lb, rv, rb):
                se, sty = self.infer(ctx, scrutinee, L)
                if not isinstance(sty, Sum):
                    raise TypeCheckError("Case", "non-sum scrutinee", e.span)
                le, lt = self.infer(ctx_bind(ctx, lv, sty.left, ()), lb, L)
                re_, rt = self.infer(ctx_bind(ctx, rv, sty.right, ()), rb, L)
                if lt != rt:
                    raise TypeCheckError("Case", "branch types differ", e.span)
                return self._case(se, lv, le, rv, re_, L), lt
            case Lam() | Inl() | Inr() | Absurd():
                raise TypeCheckError("Infer", "not inferable", e.span)
        raise TypeError(f"not an expression: {e!r}")

    def check(self, ctx, e: Expr, ty: Type, L: Path) -> Sparse:
        match e:
            case Lam(var, body):
                if not isinstance(ty, Arrow):
                    raise TypeCheckError("Lam", "non-function type", e.span)
                be = self.check(ctx_bind(ctx, var, ty.dom, ()), body, ty.cod, L)
                return self._node(lambda b: _mk_lam(var, b), be)
            # The next two cases go beyond the typechecker's checking mode.
            # They let canonical values (whose injections carry no
            # annotations, e.g. normal forms) be projected; on programs the
            # typechecker accepted they agree with the infer-and-compare
            # route.
            case Pair(left, right) if isinstance(ty, Product):
                return self._node(_mk_pair, self.check(ctx, left, ty.left, L),
                                  self.check(ctx, right, ty.right, L))
            case Located(agent, body) if isinstance(ty, Believes) and ty.agent == agent:
                inside = path_concat(L, (agent,))
                self.participants.add(inside)
                return self.check(ctx_lock(ctx, (agent,)), body, ty.body, inside)
            case Inl(inner):
                if not isinstance(ty, Sum):
                    raise TypeCheckError("Inl", "non-sum type", e.span)
                return self._mk_inj(Inl, self.check(ctx, inner, ty.left, L), L)
            case Inr(inner):
                if not isinstance(ty, Sum):
                    raise TypeCheckError("Inr", "non-sum type", e.span)
                return self._mk_inj(Inr, self.check(ctx, inner, ty.right, L), L)
            case Absurd(inner):
                return self._node(_unary(Absurd), self.check(ctx, inner, Void(), L))
            case Case(scrutinee, lv, lb, rv, rb):
                se, sty = self.infer(ctx, scrutinee, L)
                if not isinstance(sty, Sum):
                    raise TypeCheckError("Case", "non-sum scrutinee", e.span)
                le = self.check(ctx_bind(ctx, lv, sty.left, ()), lb, ty, L)
                re_ = self.check(ctx_bind(ctx, rv, sty.right, ()), rb, ty, L)
                return self._case(se, lv, le, rv, re_, L)
            case _:
                le, inferred = self.infer(ctx, e, L)
                if inferred != ty:
                    raise TypeCheckError("Mismatch", "type mismatch", e.span)
                return le

    def _mk_inj(self, ctor, inner: Sparse, L: Path) -> Sparse:
        # A sum tag is data belonging to the viewpoint that forms it: the
        # owner keeps the injection even over a hole, otherwise its own
        # case analysis would lose the choice.  Everyone else drops
        # content-free injections like any other empty structure.
        return self._node(_unary(ctor), inner, special={L: ctor})

    # -- communication and choice -------------------------------------------

    def _comm(self, payload: Sparse, moved_ty: Type, sender: Path,
              receiver: Path, site: Expr) -> Sparse:
        if _contains_believes(moved_ty):
            # Every address fails here, so the generic process does too.
            raise ProjectionError(
                f"communicated value of type with a nested modality cannot be "
                f"projected to a single message ({expr_str(site)})")
        if _contains_arrow(moved_ty):
            self.lambda_wire = True
        self.participants.add(sender)
        self.participants.add(receiver)
        if sender == receiver:
            ends = {sender: lambda p: Seq(SendTo(receiver, p), RecvFrom(sender))}
        else:
            ends = {sender: lambda p: SendTo(receiver, p),
                    receiver: lambda p: _mk_seq(p, RecvFrom(sender))}
        # Third parties keep only the payload's duties.
        return self._node(lambda p: p, payload, special=ends)

    def _case(self, se: Sparse, lv: str, le: Sparse, rv: str, re_: Sparse,
              L: Path) -> Sparse:
        def owner(s, l, r) -> LocalExpr:
            return _mk_case(s, lv, l, rv, r)

        def third_party(s, l, r) -> Local:
            # Third parties must behave identically whichever branch runs.
            try:
                merge(l, substitute(r, rv, Var(lv)))
            except MergeConflict as err:
                return MergeConflict(
                    f"case at viewpoint {path_str(L)} is not projectable: {err}")
            return owner(s, l, r)

        return self._node(third_party, se, le, re_, special={L: owner})


def _unary(ctor):
    return lambda inner: _mk_unary(ctor, inner)


def _prefix_closure(paths: set[Path]) -> frozenset[Path]:
    out: set[Path] = set()
    for p in paths:
        for i in range(len(p) + 1):
            out.add(p[:i])
    return out


def _closed_main(program: Program) -> tuple[Expr, Type]:
    from .typecheck import inline_main
    if program.inputs:
        raise ProjectionError(
            "program has free inputs; substitute values for them first")
    return inline_main(program)


def project_expr(e: Expr, ty: Type, viewpoint: Path, target: Path,
                 topology: Topology) -> LocalExpr:
    """Project a closed, well-typed expression for one target address."""
    local, _ = _Projector(topology, target).check((), e, ty, viewpoint)
    return local


def project(program: Program, g: Path, topology: Optional[Topology] = None,
            base_dir: str = ".") -> LocalExpr:
    if topology is None:
        topology = resolve_topology(program, base_dir=base_dir)
    e, ty = _closed_main(program)
    return project_expr(e, ty, (), g, topology)


def project_network(program: Program, topology: Optional[Topology] = None,
                    base_dir: str = ".") -> Network:
    if topology is None:
        topology = resolve_topology(program, base_dir=base_dir)
    e, ty = _closed_main(program)
    result_address, _ = split_stack(ty)
    projector = _Projector(topology)
    generic, at = projector.check((), e, ty, ())
    universe = _prefix_closure(projector.participants | {result_address})
    # Sorted, so that the smallest address with an error raises it.
    processes = {address: _process(at.get(address, generic))
                 for address in sorted(universe)}
    return Network(processes, result_address, projector.lambda_wire,
                   frozenset(universe))
