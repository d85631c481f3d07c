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

Projection is a hook of the checker's walk (see `typecheck`): one walk
both checks the program and projects every address at once.  Each rule
returns a sparse projection: a generic process, which every address
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
A rule that does not apply ends the walk with the checker's own
TypeCheckError; without definitions, that is the first error
`check_program` reports, unless a projection error comes first.  The
walk checks main with definitions inlined, so a definition used under a
lock past its binding goes unreported: `def f : unit = (); main : [A]
unit = A.(f);` projects though `check_program` rejects it.  Callers
check first, as the CLI and `netsim` do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .parser import Program
from .printer import expr_str, path_str
from .syntax import (
    SKIP, App, Arrow, Believes, Case, Expr, Lam, LocalExpr, Pair, Path,
    Product, RecvFrom, SendTo, Seq, Sum, Type, UnitVal, Var, ctx_lock,
    expr_equal, path_concat, split_stack, substitute,
)
from .topology import Topology
from .typecheck import Checker, inline_main, resolve_topology


class ProjectionError(Exception):
    """The program is not projectable at some construct."""


class MergeConflict(ProjectionError):
    pass


# Local processes print as the terms they are (see `printer`).
local_str = expr_str


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


def _mk_seq(first: LocalExpr, rest: LocalExpr) -> LocalExpr:
    return rest if first == SKIP else Seq(first, rest)


def _mk_case(scrutinee: LocalExpr, lv: str, lb: LocalExpr,
             rv: str, rb: LocalExpr) -> LocalExpr:
    if scrutinee == SKIP and lb == SKIP and rb == SKIP:
        return SKIP
    return Case(scrutinee, lv, lb, rv, rb)


# ---------------------------------------------------------------------------
# Type locality of wire payloads

def _mentions(ty: Type, cls) -> bool:
    """Whether some part of `ty` is a `cls`."""
    match ty:
        case cls():
            return True
        case Product(left, right) | Sum(left, right) | Arrow(left, right):
            return _mentions(left, cls) or _mentions(right, cls)
        case Believes(_, body):
            return _mentions(body, cls)
    return False


@dataclass
class Network:
    processes: dict[Path, LocalExpr]
    result_address: Path
    lambda_wire: bool
    universe: frozenset[Path] = field(default_factory=frozenset)
    # The start of the simulator's graph of machine states (`netsim._Start`):
    # built by the first run of the network, walked by every run.
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


class _Projection:
    """The checker's hook that projects every address at once.

    Each rule of the walk hands it the sparse projections of the node's
    children, in walk order, and gets the node's own.  Given a target
    address, it projects for that address alone: its process is the
    generic one, and the maps stay empty.
    """

    def __init__(self, target: Optional[Path] = None):
        self.target = target
        self.participants: set[Path] = set()
        self.lambda_wire = False

    def _node(self, rule, *specs: Sparse, special=_NOWHERE) -> Sparse:
        """Apply `rule` to the children's processes, address by address;
        an address that `special` maps to a rule of its own applies that."""
        if self.target is not None:
            # The target's process is the generic one; no map gets a key.
            rule, special = special.get(self.target, rule), _NOWHERE
        # An error in the generic process ends the walk (module docstring).
        generic = _process(rule(*[generic for generic, _ in specs]))
        keys = set(special).union(*[at for _, at in specs])
        if not keys:
            return generic, _NOWHERE
        return generic, {
            g: _apply(special.get(g, rule), [at.get(g, default) for default, at in specs])
            for g in keys}

    def visit(self, rule: str, e: Expr, L: Path, ty: Type, kids: list[Sparse],
              comm: Optional[tuple[Path, Path, Type]]) -> Sparse:
        """The node's sparse projection; the cases run most frequent first."""
        match rule:
            case "Check" | "Annot":
                return kids[0]
            case "Unit":
                return self._node(lambda: SKIP, special={L: UnitVal})
            case "BelievesI":
                self.participants.add(path_concat(L, (e.agent,)))
                return kids[0]
            case "Pair":
                return self._node(_mk_pair, *kids)
            case "Lam":
                return self._node(lambda b: _mk_lam(e.var, b), *kids)
            case "BelievesE":
                self.participants.add(path_concat(L, e.open_path))
                var = e.var

                def bind(b: LocalExpr, l: LocalExpr) -> LocalExpr:
                    if b == SKIP:
                        # This address holds no part of the bound value and
                        # has no duties computing it, so the binding is the
                        # skip value; substituting keeps uninvolved
                        # processes at skip.
                        return substitute(l, var, SKIP)
                    return _mk_app(_mk_lam(var, l), b)
                return self._node(bind, *kids)
            case "Inl" | "Inr":
                # A sum tag is data belonging to the viewpoint that forms
                # it: the owner keeps the injection even over a hole,
                # otherwise its own case analysis would lose the choice.
                # Everyone else drops content-free injections like any
                # other empty structure.
                ctor = type(e)
                return self._node(_unary(ctor), *kids, special={L: ctor})
            case "Send" | "Up" | "Down":
                return self._comm(kids[0], *comm, e)
            case "App":
                return self._node(_mk_app, *kids)
            case "Case":
                return self._case(e, *kids, L)
            case "Fst" | "Snd" | "Absurd":
                return self._node(_unary(type(e)), *kids)
            case "Axiom":
                return Var(e.name), _NOWHERE
        raise TypeError(f"no projection for rule {rule!r}")

    # -- communication and choice -------------------------------------------

    def _comm(self, payload: Sparse, sender: Path, receiver: Path,
              moved_ty: Type, site: Expr) -> Sparse:
        if _mentions(moved_ty, Believes):
            # Every address fails here, so the generic process does too.
            raise ProjectionError(
                f"communicated value of type with a nested modality cannot be "
                f"projected to a single message ({expr_str(site)})")
        if _mentions(moved_ty, Arrow):
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

    def _case(self, e: Case, se: Sparse, le: Sparse, re_: Sparse, L: Path) -> Sparse:
        lv, rv = e.left_var, e.right_var

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
    return lambda inner: SKIP if inner == SKIP else ctor(inner)


def _prefix_closure(paths: set[Path]) -> frozenset[Path]:
    out: set[Path] = set()
    for p in paths:
        for i in range(len(p) + 1):
            out.add(p[:i])
    return out


def _closed_main(program: Program) -> tuple[Expr, Type]:
    if program.inputs:
        raise ProjectionError(
            "program has free inputs; substitute values for them first")
    return inline_main(program)


def _walk(e: Expr, ty: Type, viewpoint: Path, topology: Topology,
          projection: _Projection, canonical: bool = False) -> Sparse:
    checker = Checker(topology, hook=projection.visit)
    checker._canonical = canonical
    out: list[Sparse] = []
    checker.check(ctx_lock((), viewpoint), e, ty, out)
    return out[0]


def project_expr(e: Expr, ty: Type, viewpoint: Path, target: Path,
                 topology: Topology) -> LocalExpr:
    """Project a closed value in normal form, located at `viewpoint`, for
    one target address.  Its injections need no annotations: the walk
    checks pairs and located values against their types (see `typecheck`).
    """
    return _walk(e, ty, viewpoint, topology, _Projection(target), canonical=True)[0]


def project(program: Program, g: Path,
            topology: Optional[Topology] = None) -> LocalExpr:
    if topology is None:
        topology = resolve_topology(program)
    e, ty = _closed_main(program)
    return _walk(e, ty, (), topology, _Projection(g))[0]


def project_network(program: Program,
                    topology: Optional[Topology] = None) -> Network:
    if topology is None:
        topology = resolve_topology(program)
    e, ty = _closed_main(program)
    result_address, _ = split_stack(ty)
    projection = _Projection()
    generic, at = _walk(e, ty, (), topology, projection)
    universe = _prefix_closure(projection.participants | {result_address})
    # Sorted, so that the smallest address with an error raises it.
    processes = {address: _process(at.get(address, generic))
                 for address in sorted(universe)}
    return Network(processes, result_address, projection.lambda_wire,
                   frozenset(universe))
