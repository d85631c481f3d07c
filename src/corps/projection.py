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

The walk follows `check_program`: each definition is projected once,
where it is bound, then main with the definitions bound.  A reference
to a definition stands for its sparse projection: a definition is
tagged [], so it is referenced only at the root viewpoint, where it was
projected.  Its participants and functions on the wire count only where
it is referenced.

Errors are values, in walk order, as if each address had its own walk
that stops at its first error.  A merge conflict, or a payload of a
nested modality (which fails at every address), takes the place of the
process, and a rule whose children hold errors keeps the first.  A rule
that does not apply ends the walk with the checker's TypeCheckError, so
`project_network` and `project` raise the first error `check_program`
reports, if any.  Otherwise `project_network` raises the generic
process's error, then the error at the smallest address of the universe
that has one; `project(g)` raises g's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .parser import Program
from .printer import expr_str, path_str
from .syntax import (
    SKIP, App, Arrow, Believes, Case, Expr, Lam, LocalExpr, Pair, Path,
    Product, RecvFrom, SendTo, Seq, Skip, Sum, Type, UnitVal, Var, ctx_lock,
    expr_equal, path_concat, split_stack, substitute,
)
from .topology import Topology
from .typecheck import Checker, judgments, resolve_topology


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
# Smart constructors: a node whose parts are all skip carries nothing.  Skip
# has no fields, so `type(x) is Skip` is exactly `x == SKIP`.

def _mk_lam(var: str, body: LocalExpr) -> LocalExpr:
    return SKIP if type(body) is Skip else Lam(var, body)


def _mk_app(fn: LocalExpr, arg: LocalExpr) -> LocalExpr:
    return SKIP if type(fn) is Skip and type(arg) is Skip else App(fn, arg)


def _mk_pair(left: LocalExpr, right: LocalExpr) -> LocalExpr:
    return SKIP if type(left) is Skip and type(right) is Skip else Pair(left, right)


def _mk_seq(first: LocalExpr, rest: LocalExpr) -> LocalExpr:
    return rest if type(first) is Skip else Seq(first, rest)


def _mk_case(scrutinee: LocalExpr, lv: str, lb: LocalExpr,
             rv: str, rb: LocalExpr) -> LocalExpr:
    if type(scrutinee) is Skip and type(lb) is Skip and type(rb) is Skip:
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
    # The simulator's start with one step log per process (`netsim._Start`):
    # built by the first run of the network, replayed and extended by every run.
    _start: Optional[object] = field(default=None, init=False, repr=False,
                                     compare=False)


# ---------------------------------------------------------------------------
# Sparse projections: (generic, at), where address g gets at[g], or
# `generic` if g is not a key.  An error may stand in for any process
# (see the module docstring).

Local = Union[LocalExpr, ProjectionError]
Sparse = tuple[Local, dict[Path, Local]]

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
    children, in walk order, and gets the node's own.  `defs` maps the
    position each definition walked so far is bound at to its sparse
    projection, participants and `lambda_wire`.
    """

    def __init__(self):
        self.participants: set[Path] = set()
        self.lambda_wire = False
        self.defs: dict[int, tuple[Sparse, set[Path], bool]] = {}

    def _node(self, rule, *specs: Sparse, special=_NOWHERE) -> Sparse:
        """Apply `rule` to the children's processes, address by address;
        an address that `special` maps to a rule of its own applies that.

        One child, and two without `special`, the most frequent nodes,
        read each child's process at an address once and keep the first
        error in walk order themselves, as `_apply` does.
        """
        generic = _apply(rule, [default for default, _ in specs])
        if len(specs) == 1:
            (d0, at0), = specs
            if not at0 and not special:
                return generic, _NOWHERE
            at = {g: p if isinstance(p, ProjectionError) else rule(p)
                  for g, p in at0.items() if g not in special}
            for g, own in special.items():
                p = at0.get(g, d0)
                at[g] = p if isinstance(p, ProjectionError) else own(p)
            return generic, at
        if len(specs) == 2 and not special:
            (d0, at0), (d1, at1) = specs
            if not at0 and not at1:
                return generic, _NOWHERE
            at = {}
            for g in at0.keys() | at1.keys():
                p0, p1 = at0.get(g, d0), at1.get(g, d1)
                if isinstance(p0, ProjectionError):
                    at[g] = p0
                elif isinstance(p1, ProjectionError):
                    at[g] = p1
                else:
                    at[g] = rule(p0, p1)
            return generic, at
        keys = set(special).union(*[at for _, at in specs])
        if not keys:
            return generic, _NOWHERE
        return generic, {
            g: _apply(special.get(g, rule), [at.get(g, default) for default, at in specs])
            for g in keys}

    def visit(self, rule: str, e: Expr, L: Path, ty: Type, kids: list[Sparse],
              comm: Union[tuple[Path, Path, Type], int, None]) -> Sparse:
        """The node's sparse projection; the cases run most frequent first."""
        match rule:
            case "Check" | "Annot":
                return kids[0]
            case "Unit":
                return SKIP, {L: UnitVal()}
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
                    if type(b) is Skip:
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
                if comm not in self.defs:  # a local binder, not a definition
                    return Var(e.name), _NOWHERE
                sparse, participants, lambda_wire = self.defs[comm]
                self.participants |= participants
                self.lambda_wire |= lambda_wire
                return sparse
        raise TypeError(f"no projection for rule {rule!r}")

    # -- communication and choice -------------------------------------------

    def _comm(self, payload: Sparse, sender: Path, receiver: Path,
              moved_ty: Type, site: Expr) -> Sparse:
        if _mentions(moved_ty, Believes):
            # Every address fails here, once its payload's errors are past.
            error = ProjectionError(
                f"communicated value of type with a nested modality cannot be "
                f"projected to a single message ({expr_str(site)})")
            return self._node(lambda p: error, payload)
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
    return lambda inner: SKIP if type(inner) is Skip else ctor(inner)


def _prefix_closure(paths: set[Path]) -> frozenset[Path]:
    out: set[Path] = set()
    for p in paths:
        for i in range(len(p) + 1):
            out.add(p[:i])
    return out


def _project_program(program: Program, topology: Optional[Topology]
                     ) -> tuple[Sparse, set[Path], bool]:
    """Main's sparse projection, participants and `lambda_wire`, walking
    the judgments `check_program` checks; raises the first TypeCheckError."""
    projection = _Projection()
    checker = Checker(topology or resolve_topology(program), hook=projection.visit)
    for ctx, e, ty in judgments(program):
        projection.participants, projection.lambda_wire = set(), False
        out: list[Sparse] = []
        checker.check(ctx, e, ty, out)
        projection.defs[len(ctx)] = out[0], projection.participants, projection.lambda_wire
    if program.inputs:
        raise ProjectionError(
            "program has free inputs; substitute values for them first")
    return projection.defs[len(ctx)]


def project_expr(e: Expr, ty: Type, viewpoint: Path, target: Path,
                 topology: Topology) -> LocalExpr:
    """Project a closed value in normal form, located at `viewpoint`, for
    one target address.  Its injections need no annotations: the walk
    checks pairs and located values against their types (see `typecheck`).
    """
    checker = Checker(topology, hook=_Projection().visit)
    checker._canonical = True
    out: list[Sparse] = []
    checker.check(ctx_lock((), viewpoint), e, ty, out)
    generic, at = out[0]
    return _process(at.get(target, generic))


def project(program: Program, g: Path,
            topology: Optional[Topology] = None) -> LocalExpr:
    (generic, at), _, _ = _project_program(program, topology)
    return _process(at.get(g, generic))


def project_network(program: Program,
                    topology: Optional[Topology] = None) -> Network:
    (generic, at), participants, lambda_wire = _project_program(program, topology)
    result_address, _ = split_stack(program.main_type)
    universe = _prefix_closure(participants | {result_address})
    # The generic process's error first, then the smallest address's.
    _process(generic)
    processes = {address: _process(at.get(address, generic))
                 for address in sorted(universe)}
    return Network(processes, result_address, lambda_wire, frozenset(universe))
