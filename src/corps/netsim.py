"""Execute a projected network over FIFO channels.

Sends are asynchronous (enqueue and continue), receives block on an
empty queue.  The simulator is a sequential interleaving machine: each
tick one process performs one atomic action chosen by the scheduler, so
a run is reproducible bit-for-bit from (network, policy, fuel).

Each process evaluates call by value, left to right: its only action is
the one at its leftmost position that holds no value.
`_step_local` defines that: it searches the process from the root
through its evaluation positions (`_HOLES`, from `syntax.eval_holes`:
every position of a node that is not under a binder, except a
sequence's rest) and acts at the first node that is no value and whose
positions all hold values, by `_contract`.  `_contract` is the one copy
of the local redex rules, and `run` shares it.  A receive on an empty
queue at that position blocks the whole process on its one source, and
nothing right of it runs; concurrency comes only from interleaving
processes.  `_step_local` is the reference semantics, the role
`normalize.step` plays for the normalizer: `run` does not call it, and
the tests replay runs through it.

`run` is event-driven.  Each process is a state of the refocusing
machine that the normalizer shares (`syntax.Machine`, over `_HOLES` and
the local value forms), focused at its leftmost position that holds no
value.  A step resumes at the focus.  A process whose focus waits is
parked under the channel it waits on, and it rejoins the ready list,
kept in address order, when a message arrives on that channel.  Each
tick makes one pick from the ready list: round-robin takes the first
ready address at or after the one after the last to act, and the random
policy takes `ready[rng.randrange(len(ready))]`, uniform over the ready
processes.  A pick that turns out to wait is parked and the tick picks
again.  A `Blocked` trace event is written each time a process is
parked, not on every poll.

The runs of one network walk one graph of machine states, kept on the
network by its first run, so the graph lives as long as its `Network`
and a network that never runs builds none.  A state is one process's
machine at one point; its evaluation context, the machine's linked stack
of frames, is shared with the state it came from, so a step builds only
the frames it changes.  A process is deterministic: the step at its focus
depends on its state alone, and for a receive on the message taken.  So
the first time any run takes the step at a state's focus, the state it
reaches is stored, and later runs replay it: a send enqueues its payload
again, and a receive takes the head of its queue whenever the queue is
not empty.  That head equals the message the stored step took: with one
order per process and each receive naming one source, a network is a
Kahn process network (Kahn, 1974), so the n-th message on a channel is
the same in every run.  A pick whose focus waits stores nothing, since
testing the one channel it waits on is all a replay would do; a step
that raises reaches no state.  Both are computed every time.

A run records its trace as raw events that hold payload values.
`RunResult.trace` and `DeadlockError.trace` build the `TraceEvent`s,
payloads printed by `local_str` (the printer's `expr_str`), when first
read.  `_step_local` stays the reference for all of it.

A run terminates when every process is a local value (or skip) and all
queues are empty.  If the ready list empties while some process waits,
the run is reported as a deadlock together with the waiting graph.

Being a Kahn network, a network's values, steps, deadlock or error type
are the same under every schedule.  One thing is not: when two or more
processes get stuck, the run stops at the first `NetStuck` the schedule
meets, so the error text names that process.  A network projected from
a well-typed program never gets stuck (progress).
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import Optional, Union, get_args

from .normalize import EvalMode, NormalFormClass, is_positive_value, normalize
from .parser import Program
from .printer import path_str
from .projection import Network, local_str, project_expr, project_network
from .syntax import (
    SKIP, Absurd, App, Case, Fst, Inl, Inr, Lam, LocalExpr, Machine, Pair,
    Path, RecvFrom, SendTo, Seq, Skip, Snd, UnitVal, Var, eval_holes, expr_equal,
    match_located, split_stack, substitute,
)
from .topology import Topology
from .typecheck import TypeCheckError, check_program, inline_main, resolve_topology


@dataclass(frozen=True)
class RoundRobin:
    pass


@dataclass(frozen=True)
class RandomPolicy:
    seed: int


SchedulerPolicy = Union[RoundRobin, RandomPolicy]


def policy_str(policy: SchedulerPolicy) -> str:
    if isinstance(policy, RoundRobin):
        return "rr"
    return f"random:{policy.seed}"


@dataclass(frozen=True)
class TraceEvent:
    step: int
    address: Path
    action: str  # LocalStep | Send | Recv | Blocked | Done
    peer: Optional[Path] = None
    payload: Optional[str] = None

    def to_json_dict(self) -> dict:
        out = {"step": self.step, "address": ".".join(self.address),
               "action": self.action}
        if self.peer is not None:
            out["peer"] = ".".join(self.peer)
        if self.payload is not None:
            out["payload"] = self.payload
        return out


class _Events(list):
    """A trace as a run records it: the step, address, action, peer and
    payload value of each event in turn, flat, the payload not yet
    rendered."""

    def render(self) -> list[TraceEvent]:
        fields = iter(self)
        return [TraceEvent(step, addr, action, peer,
                           None if value is None else local_str(value))
                for step, addr, action, peer, value in zip(*[fields] * 5)]


class _Trace:
    """The `trace` attribute of RunResult and DeadlockError.  It holds
    what it is given, and turns recorded `_Events` into TraceEvents when
    it is first read."""

    def __get__(self, obj, owner=None) -> list[TraceEvent]:
        if obj is None:  # no class-level value, so no dataclass default
            raise AttributeError("trace")
        trace = obj.__dict__["trace"]
        if type(trace) is _Events:
            trace = obj.__dict__["trace"] = trace.render()
        return trace

    def __set__(self, obj, trace) -> None:
        obj.__dict__["trace"] = trace


class NetError(Exception):
    pass


class DeadlockError(NetError):
    trace = _Trace()

    def __init__(self, waiting: dict[Path, tuple[Path, ...]],
                 trace: list[TraceEvent], residuals: dict[Path, LocalExpr]):
        edges = ", ".join(
            f"{path_str(addr)} waits on {', '.join(path_str(s) for s in srcs)}"
            for addr, srcs in sorted(waiting.items()))
        super().__init__(f"deadlock: {edges}")
        self.waiting = waiting
        self.trace = trace
        self.residuals = residuals


class NetFuelExhausted(NetError):
    def __init__(self, steps: int):
        super().__init__(f"network made no progress to completion within {steps} steps")
        self.steps = steps


class NetStuck(NetError):
    pass


def is_local_value(e: LocalExpr) -> bool:
    match e:
        case UnitVal() | Lam() | Skip():
            return True
        case Pair(left, right):
            return is_local_value(left) and is_local_value(right)
        case Inl(inner) | Inr(inner):
            return is_local_value(inner)
        case _:
            return False


def _step_local(e: LocalExpr, addr: Path,
                chans: dict[tuple[Path, Path], deque]):
    """One action of a single process.

    Returns ("act", e', action, peer, payload) after performing any
    channel side effect, ("blocked", src) if the leftmost position that
    holds no value is a receive from `src` on an empty queue, or None on
    a local value.  This restarts at the root every time, and acts by
    `_contract`.
    """
    if is_local_value(e):
        return None
    for get, plug in _HOLES.get(type(e), ()):
        r = _step_local(get(e), addr, chans)
        if r:
            return r if r[0] == "blocked" else ("act", plug(e, r[1]), *r[2:])
    r = _contract(e, addr, chans)
    if r is None:
        return "blocked", e.src
    reduct, action, peer, payload = r
    return "act", reduct, action, peer, None if payload is None else local_str(payload)


@dataclass
class RunResult:
    values: dict[Path, LocalExpr]
    trace: list[TraceEvent] = _Trace()
    steps: int


# The evaluation positions, for `_step_local` and the focused engine.  A
# choreographic node has none and is no value form, so the engine stops
# at it and `_contract` rejects it.
_HOLES = eval_holes(get_args(LocalExpr))
_VALUE_FORMS = frozenset((UnitVal, Lam, Skip, Pair, Inl, Inr))
_MACHINE = Machine(_HOLES, _VALUE_FORMS)


def _contract(e: LocalExpr, addr: Path,
              chans: dict[tuple[Path, Path], deque]) -> Optional[tuple]:
    """Act on `e`, which is no value and whose positions all hold values.

    Returns (reduct, action, peer, payload) after performing any channel
    side effect, or None for a receive on an empty channel.  Raises
    NetStuck on a redex no rule takes.
    """
    kind = type(e)
    if kind is RecvFrom:
        queue = chans.get((e.src, addr))
        if not queue:
            return None
        value = queue.popleft()
        return value, "Recv", e.src, value
    if kind is SendTo:
        payload = e.payload
        if not is_positive_value(payload):
            raise NetStuck(f"non-positive value on the wire from {path_str(addr)}: "
                           f"{local_str(payload)}")
        chans.setdefault((addr, e.dest), deque()).append(payload)
        return payload, "Send", e.dest, payload
    if kind is Seq:
        reduct = e.rest
    elif kind is App:
        fn = e.fn
        if isinstance(fn, Lam):
            reduct = substitute(fn.body, fn.var, e.arg)
        elif fn == SKIP:
            reduct = SKIP
        else:
            raise NetStuck(f"applied non-function in {path_str(addr)}")
    elif kind is Fst or kind is Snd:
        inner = e.inner
        if isinstance(inner, Pair):
            reduct = inner.left if kind is Fst else inner.right
        elif inner == SKIP:
            reduct = SKIP
        else:
            raise NetStuck(f"{'fst' if kind is Fst else 'snd'} of non-pair "
                           f"in {path_str(addr)}")
    elif kind is Absurd:
        if e.inner != SKIP:
            raise NetStuck(f"absurd applied to a value in {path_str(addr)}")
        reduct = SKIP
    elif kind is Case:
        scrutinee = e.scrutinee
        if isinstance(scrutinee, Inl):
            reduct = substitute(e.left_body, e.left_var, scrutinee.inner)
        elif isinstance(scrutinee, Inr):
            reduct = substitute(e.right_body, e.right_var, scrutinee.inner)
        elif scrutinee == SKIP:
            # Branches were merged; run the left one with a hole.
            reduct = substitute(e.left_body, e.left_var, SKIP)
        else:
            raise NetStuck(f"case of non-sum value in {path_str(addr)}")
    elif kind is Var:
        raise NetStuck(f"free variable {e.name!r} in process {path_str(addr)}")
    else:
        # No local form gets here: `e` is no value, and all its positions
        # hold values.
        raise TypeError(f"not a local expression: {e!r}")
    return reduct, "LocalStep", None, None


def _fire(s: _State, addr: Path,
          chans: dict[tuple[Path, Path], deque]) -> Optional[_State]:
    """Act at the focus of `s`: the state `_contract` reaches, or None
    for a receive on an empty channel."""
    r = _contract(s.focus, addr, chans)
    return None if r is None else _refocus(s.frames, *r)


class _State:
    """One state of a process's machine, focused at its leftmost position
    that holds no value, with the step that reached it.  Once built, a
    state stays as it is but for the step `_pick` stores on it, so the
    runs of one network share every state that any of them reaches.

    `focus` and `frames` are a stop of `_MACHINE.refocus` and its
    evaluation context, whose frames the state shares with the one it came
    from: a leaf that is no value, or a node whose positions all hold
    values; with no frames left it may be the value the process ended
    with.  The focus is the process's only enabled position: a receive
    there on an empty queue blocks it.

    `action`, `peer` and `payload` (a value) are for the trace of the step
    that reached the state; an initial state has none.  `next` is the
    state the step at the focus reached from here, stored by `_pick` the
    first time.
    """
    __slots__ = ("focus", "frames", "action", "peer", "payload", "next")

    def done(self) -> bool:
        return self.frames is None and type(self.focus) in _VALUE_FORMS

    def term(self) -> LocalExpr:
        return _MACHINE.plug(self.frames, self.focus)


_new_state = object.__new__  # builds a _State faster than an __init__ would


def _refocus(frames: Optional[tuple], e: LocalExpr, action: Optional[str] = None,
             peer: Optional[Path] = None, payload: Optional[LocalExpr] = None) -> _State:
    """The state focused on the leftmost position that holds no value,
    searching from `e`, the new subterm in the hole of the innermost of
    `frames` (the whole term if there are none), reached by a step with
    the given `action`, `peer` and `payload`."""
    frames, e = _MACHINE.refocus(frames, e)
    s = _new_state(_State)
    s.focus, s.frames, s.action, s.peer, s.payload = e, frames, action, peer, payload
    s.next = None
    return s


def _pick(s: _State, addr: Path,
          chans: dict[tuple[Path, Path], deque]) -> Optional[_State]:
    """Take the action at the focus of the process in state `s`, as
    `_step_local` would, and return the state it reaches, or None if the
    focus is a receive on an empty queue.

    A step stored on `s` is replayed, a send enqueuing its payload again
    and a receive taking the head of its queue if there is one.  Otherwise
    the step is computed, and stored if it reaches a state.
    """
    t = s.next
    if t is None:
        s.next = t = _fire(s, addr, chans)
        return t
    action = t.action
    if action == "Send":
        chans.setdefault((addr, t.peer), deque()).append(t.payload)
    elif action == "Recv":
        queue = chans.get((t.peer, addr))
        if not queue:
            return None
        queue.popleft()
    return t


class _Start:
    """What every run of one network starts from, built by its first run
    and kept on the network.

    `processes` holds the (address, term) pairs it was built from.
    `states` holds each process's initial state in address order; from
    there the runs share every state they reach (see `_pick`).  `ready`
    indexes those that are no value, and `events` holds a Done event for
    each of the others.  `slots` pairs each address, in the network's
    order, with its index.
    """
    __slots__ = ("processes", "order", "index", "slots", "states", "ready", "events")

    def __init__(self, processes: dict[Path, LocalExpr]):
        self.processes = tuple(processes.items())
        self.order = sorted(processes)
        self.index = {addr: n for n, addr in enumerate(self.order)}
        self.slots = [(addr, self.index[addr]) for addr in processes]
        self.states = [_refocus(None, processes[addr]) for addr in self.order]
        self.ready = [n for n, s in enumerate(self.states) if not s.done()]
        self.events = _Events()
        for addr, s in zip(self.order, self.states):
            if s.done():
                self.events += (0, addr, "Done", None, None)

    def fits(self, processes: dict[Path, LocalExpr]) -> bool:
        """Whether the start was built from these processes."""
        return (len(processes) == len(self.processes)
                and all(processes.get(addr) is e for addr, e in self.processes))


def _start_of(network: Network) -> _Start:
    start = network._start
    if start is None or not start.fits(network.processes):
        start = network._start = _Start(network.processes)
    return start


def run(network: Network, policy: SchedulerPolicy, fuel: int = 100_000) -> RunResult:
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    start = _start_of(network)
    order, index = start.order, start.index
    states = start.states.copy()  # each process's state, in address order
    chans: dict[tuple[Path, Path], deque] = {}
    trace = _Events(start.events)
    ready = start.ready.copy()  # indexes into order, ascending
    waiting: dict[int, Path] = {}  # parked index -> the source it waits on
    # The random policy's draw is `randrange(len(ready))`, inlined: the same
    # bits from the same generator, so every seed keeps its interleaving.
    getrandbits = (random.Random(policy.seed).getrandbits
                   if isinstance(policy, RandomPolicy) else None)
    turn = 0  # round robin: the index to try first
    steps = 0
    while ready:
        if getrandbits is None:
            k = bisect_left(ready, turn)
            if k == len(ready):
                k = 0
        else:
            size = len(ready)
            width = size.bit_length()
            k = getrandbits(width)
            while k >= size:
                k = getrandbits(width)
        n = ready[k]
        addr, s = order[n], states[n]
        t = _pick(s, addr, chans)
        if t is None:
            del ready[k]
            src = waiting[n] = s.focus.src
            trace += (steps, addr, "Blocked", src, None)
            continue
        if steps >= fuel:
            raise NetFuelExhausted(steps)
        states[n] = t
        action = t.action
        trace += (steps, addr, action, t.peer, t.payload)
        steps += 1
        if t.frames is None and type(t.focus) in _VALUE_FORMS:  # t.done(), inlined
            del ready[k]
            trace += (steps, addr, "Done", None, None)
        if action == "Send":
            m = index.get(t.peer)
            if waiting.get(m) == addr:
                del waiting[m]
                insort(ready, m)
        turn = n + 1

    if waiting:
        raise DeadlockError({order[n]: (src,) for n, src in waiting.items()}, trace,
                            {addr: states[n].term() for addr, n in start.slots})
    leftovers = {pair: list(q) for pair, q in chans.items() if q}
    if leftovers:
        raise NetStuck(f"run completed with undelivered messages: "
                       + ", ".join(f"{path_str(s)}->{path_str(d)}"
                                   for s, d in sorted(leftovers)))
    return RunResult({addr: states[n].focus for addr, n in start.slots}, trace, steps)


# ---------------------------------------------------------------------------
# Agreement with the choreographic semantics

class PreconditionError(Exception):
    """The program falls outside what the harness can compare."""


@dataclass
class AgreementReport:
    agree: bool
    expected: str
    outcomes: list[tuple[str, str]]  # (schedule, "agree" | failure description)
    first: Union[RunResult, NetError, None] = None  # what the first schedule gave

    def __bool__(self) -> bool:
        return self.agree


def expected_result(program: Program, topology: Topology,
                    fuel: int = 100_000) -> LocalExpr:
    """The stripped positive-communication normal form, as a local value."""
    e, ty = inline_main(program)
    nf, cls, _ = normalize(EvalMode.POSITIVE_COMM, e, fuel)
    if cls is not NormalFormClass.VALUE:
        raise PreconditionError(
            f"choreographic normal form is {cls.value}, not a value "
            "(a communication payload mentions a function)")
    stack, core_ty = split_stack(ty)
    core = match_located(nf, stack)
    if core is None:
        raise PreconditionError("normal form does not carry the declared stack")
    return project_expr(core, core_ty, stack, stack, topology)


def epp_agreement(program: Program, schedules: list[SchedulerPolicy],
                  topology: Optional[Topology] = None, fuel: int = 100_000,
                  network: Optional[Network] = None) -> AgreementReport:
    """Run the projected network under each schedule and compare the value
    at the result address with the choreography's normal form.

    A caller that has already projected the program under `topology`
    passes that network, so it is not projected again.
    """
    if network is None:
        if topology is None:
            topology = resolve_topology(program)
        try:
            network = project_network(program, topology)
        except TypeCheckError:
            # Checked again, to list every error and not only the first.
            raise PreconditionError("program does not typecheck: " + "; ".join(
                str(e) for e in check_program(program, topology))) from None
    if network.lambda_wire:
        raise PreconditionError(
            "a communication payload mentions a function; excluded from agreement")
    expected = expected_result(program, topology, fuel)
    first: Union[RunResult, NetError, None] = None
    # A run is a function of (network, policy, fuel): a repeated policy
    # reuses the outcome of its first run.
    seen: dict[SchedulerPolicy, str] = {}
    for policy in schedules:
        if policy in seen:
            continue
        try:
            result = run(network, policy, fuel)
        except NetError as err:
            result = err
        if first is None:
            first = result
        if isinstance(result, NetError):
            seen[policy] = f"failed: {result}"
            continue
        got = result.values[network.result_address]
        seen[policy] = ("agree" if expr_equal(got, expected)
                        else f"disagree: got {local_str(got)}")
    outcomes = [(policy_str(policy), seen[policy]) for policy in schedules]
    agree = all(outcome == "agree" for _, outcome in outcomes)
    return AgreementReport(agree, local_str(expected), outcomes, first)
