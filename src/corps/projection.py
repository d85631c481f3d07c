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
because channels are asynchronous.  The sender keeps the value it sent,
as `send_to` reduces to its payload (see `netsim`).  That copy is not
inert: it stays in the sender's result where the choreography's value
projects to `skip`, so agreement fails (ROADMAP item 1).  At [],
`main : unit * [A] unit = ((), send () to [A]);` ends with `((), ())`.

The moved value must be entirely local to the sender: its type may not
mention a belief modality (such a payload would need messages between
several pairs of addresses and is rejected as not projectable).  A
payload type mentioning a function is projectable but flagged, since
such communications never fire choreographically; flagged networks are
excluded from agreement checking.

Case branches at every address other than the scrutinee's owner must
merge, i.e. be alpha-equal under the branch binders, as `fun x -> l`
and `fun y -> r` are; a conflict means some third party would need to
know the outcome of a choice it cannot observe.

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
process, and a rule whose children hold errors keeps the first.  No
sparse projection holds an error until the walk makes one, so until then
a rule combines its children's processes without testing them for
errors; from the first error on, `_node` wraps every rule so that the
first error among its parts stands for the result.  A rule that does not
apply ends the walk with the checker's TypeCheckError, so
`project_network` and `project` raise the first error `check_program`
reports, if any.  Otherwise `project_network` raises the generic
process's error, then the error at the smallest address of the universe
that has one; `project(g)` raises g's.
"""

from __future__ import annotations

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
    kind = type(ty)
    if kind is cls:
        return True
    if kind is Product or kind is Sum:
        return _mentions(ty.left, cls) or _mentions(ty.right, cls)
    if kind is Arrow:
        return _mentions(ty.dom, cls) or _mentions(ty.cod, cls)
    if kind is Believes:
        return _mentions(ty.body, cls)
    return False


class Network:
    """A projected program: one local process per address, and where and
    how its result is read."""

    def __init__(self, processes: dict[Path, LocalExpr], result_address: Path,
                 lambda_wire: bool):
        self.processes, self.result_address = processes, result_address
        self.lambda_wire = lambda_wire
        # The simulator's step logs, one per process by address (`netsim._Log`):
        # built by the first run of the network, replayed and extended by every run.
        self._logs: Optional[dict] = None

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.processes, self.result_address, self.lambda_wire)
                    == (other.processes, other.result_address, other.lambda_wire))
        return NotImplemented

    def __repr__(self) -> str:
        return (f"Network(processes={self.processes!r}, result_address="
                f"{self.result_address!r}, lambda_wire={self.lambda_wire!r})")


# ---------------------------------------------------------------------------
# Sparse projections: (generic, at), where address g gets at[g], or
# `generic` if g is not a key.  An error may stand in for any process
# (see the module docstring).

Local = Union[LocalExpr, ProjectionError]
Sparse = tuple[Local, dict[Path, Local]]

_NOWHERE: dict[Path, Local] = {}  # shared; no sparse map is ever mutated
_UNIT_VAL = UnitVal()  # shared, as every record is immutable


def _absorbing(rule):
    """`rule` once the walk has made an error: the first error among its
    parts, in walk order, stands for the whole node."""
    def absorbing(*parts: Local) -> Local:
        for part in parts:
            if isinstance(part, ProjectionError):
                return part
        return rule(*parts)
    return absorbing


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
        # Whether the walk has made an error yet (see `_node`).  A
        # definition's errors set it while the definition is walked, so
        # it is set wherever a reference can bring an error in.
        self.failed = False

    def _node(self, rule, *specs: Sparse, special=_NOWHERE) -> Sparse:
        """Apply `rule` to the children's processes, address by address;
        an address that `special` maps to a rule of its own applies that.

        Until the walk makes its first error no child holds one, so the
        rules apply as they are; from then on each rule is `_absorbing`.
        """
        if self.failed:
            rule = _absorbing(rule)
            special = {g: _absorbing(own) for g, own in special.items()}
        generic = rule(*[default for default, _ in specs])
        if len(specs) == 1:
            (d0, at0), = specs
            if not special:
                return generic, {g: rule(p) for g, p in at0.items()} if at0 else _NOWHERE
            at = {g: rule(p) for g, p in at0.items() if g not in special}
            for g, own in special.items():
                at[g] = own(at0.get(g, d0))
            return generic, at
        keys = set(special).union(*[at for _, at in specs])
        return generic, {
            g: special.get(g, rule)(*[at.get(g, default) for default, at in specs])
            for g in keys} if keys else _NOWHERE

    def visit(self, rule: str, e: Expr, L: Path, ty: Type, kids: list[Sparse],
              comm: Union[tuple[Path, Path, Type], int, None]) -> Sparse:
        """The node's sparse projection; the cases run most frequent first."""
        match rule:
            case "Check" | "Annot":
                return kids[0]
            case "Unit":
                return SKIP, {L: _UNIT_VAL}
            case "BelievesI":
                self.participants.add(path_concat(L, (e.agent,)))
                return kids[0]
            case "Pair":
                return self._node(_mk_pair, *kids) if self.failed else _pairs(*kids)
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
            self.failed = True
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
            # The message shows the right branch renamed to the left binder.
            if expr_equal(Lam(lv, l), Lam(rv, r)):
                return owner(s, l, r)
            self.failed = True
            return MergeConflict(
                f"case at viewpoint {path_str(L)} is not projectable: "
                f"branches project to different processes: "
                f"{local_str(l)!r} vs {local_str(substitute(r, rv, Var(lv)))!r}")

        return self._node(third_party, se, le, re_, special={L: owner})


def _pairs(left: Sparse, right: Sparse) -> Sparse:
    """`_Projection._node(_mk_pair, left, right)` before the walk has made
    an error, in one pass over the larger map with `_mk_pair` inlined.
    That pass pairs each key with the other child's generic process, and
    the smaller map's keys are then paired again with their own: a key in
    both maps costs one `Pair` more, less than testing every key."""
    (d0, at0), (d1, at1) = left, right
    if len(at0) >= len(at1):
        live = type(d1) is not Skip
        at = {g: Pair(p0, d1) if live or type(p0) is not Skip else SKIP
              for g, p0 in at0.items()}
        for g, p1 in at1.items():
            at[g] = _mk_pair(at0.get(g, d0), p1)
    else:
        live = type(d0) is not Skip
        at = {g: Pair(d0, p1) if live or type(p1) is not Skip else SKIP
              for g, p1 in at1.items()}
        for g, p0 in at0.items():
            at[g] = _mk_pair(p0, at1.get(g, d1))
    return _mk_pair(d0, d1), at or _NOWHERE


def _unary(ctor):
    return lambda inner: SKIP if type(inner) is Skip else ctor(inner)


def _prefix_closure(paths: set[Path]) -> set[Path]:
    """Every prefix of every path in `paths`.  The set stays closed under
    prefixes, so each path is walked up only until it meets one in it."""
    out: set[Path] = set()
    for p in paths:
        while p not in out:
            out.add(p)
            p = p[:-1]
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


def project_expr(e: Expr, ty: Type, viewpoint: Path, topology: Topology) -> LocalExpr:
    """Project a closed value in normal form, located at `viewpoint`, for
    that address.  Its injections need no annotations: the walk checks
    pairs and located values against their types (see `typecheck`).
    """
    checker = Checker(topology, hook=_Projection().visit)
    checker._canonical = True
    out: list[Sparse] = []
    checker.check(ctx_lock((), viewpoint), e, ty, out)
    generic, at = out[0]
    return _process(at.get(viewpoint, generic))


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
    return Network(processes, result_address, lambda_wire)
