"""Execute a projected network over FIFO channels.

Sends are asynchronous (enqueue and continue), receives block on an
empty queue.  The simulator is a sequential interleaving machine: each
tick one process performs one atomic action chosen by the scheduler.
Round-robin rotates through the addresses in sorted order; the random
policy shuffles the candidates with a seeded generator, so a run is
reproducible bit-for-bit from (network, policy, fuel).

A run terminates when every process is a local value (or skip) and all
queues are empty.  If no process can move and at least one is waiting
on a receive, the run is reported as a deadlock together with the
waiting graph.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Optional, Union

from .normalize import EvalMode, NormalFormClass, normalize
from .parser import Program
from .printer import path_str
from .projection import Network, local_str, project_expr, project_network
from .syntax import (
    SKIP, Absurd, App, Case, Fst, Inl, Inr, Lam, LocalExpr, Pair, Path,
    RecvFrom, SendTo, Seq, Skip, Snd, UnitVal, Var, expr_equal,
    match_located, split_stack, substitute,
)
from .topology import Topology
from .typecheck import check_program, inline_main, resolve_topology


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


class NetError(Exception):
    pass


class DeadlockError(NetError):
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


def _wire_ok(v: LocalExpr) -> bool:
    """Wire values are closed positive local values: no functions, no holes."""
    match v:
        case UnitVal():
            return True
        case Pair(left, right):
            return _wire_ok(left) and _wire_ok(right)
        case Inl(inner) | Inr(inner):
            return _wire_ok(inner)
        case _:
            return False


_BLOCKED = "blocked"


def _step_local(e: LocalExpr, addr: Path,
                chans: dict[tuple[Path, Path], deque]):
    """One action of a single process.

    Returns ("act", e', action, peer, payload) after performing any
    channel side effect, ("blocked", srcs) if every reducible position
    waits on an empty queue, or None on a local value.
    """

    def go(e: LocalExpr):
        blocked: set[Path] = set()

        def sub(inner: LocalExpr):
            r = go(inner)
            if r is None:
                return None
            if r[0] == _BLOCKED:
                blocked.update(r[1])
                return None
            return r

        match e:
            case Skip() | UnitVal() | Lam():
                return None
            case Var(name):
                raise NetStuck(f"free variable {name!r} in process {path_str(addr)}")
            case Seq(first, rest):
                if is_local_value(first):
                    return "act", rest, "LocalStep", None, None
                r = go(first)
                if r is None:
                    raise NetStuck(f"stuck sequence head in {path_str(addr)}")
                if r[0] == _BLOCKED:
                    return r
                return "act", Seq(r[1], rest), r[2], r[3], r[4]
            case SendTo(dest, payload):
                if is_local_value(payload):
                    if not _wire_ok(payload):
                        raise NetStuck(
                            f"non-positive value on the wire from {path_str(addr)}: "
                            f"{local_str(payload)}")
                    chans.setdefault((addr, dest), deque()).append(payload)
                    return "act", payload, "Send", dest, local_str(payload)
                r = sub(payload)
                if r:
                    return "act", SendTo(dest, r[1]), r[2], r[3], r[4]
            case RecvFrom(src):
                queue = chans.get((src, addr))
                if queue:
                    value = queue.popleft()
                    return "act", value, "Recv", src, local_str(value)
                return _BLOCKED, frozenset((src,))
            case App(fn, arg):
                r = sub(fn)
                if r:
                    return "act", App(r[1], arg), r[2], r[3], r[4]
                r = sub(arg)
                if r:
                    return "act", App(fn, r[1]), r[2], r[3], r[4]
                if is_local_value(fn) and is_local_value(arg):
                    if isinstance(fn, Lam):
                        return ("act", substitute(fn.body, fn.var, arg),
                                "LocalStep", None, None)
                    if fn == SKIP:
                        return "act", SKIP, "LocalStep", None, None
                    raise NetStuck(f"applied non-function in {path_str(addr)}")
            case Pair(left, right):
                r = sub(left)
                if r:
                    return "act", Pair(r[1], right), r[2], r[3], r[4]
                r = sub(right)
                if r:
                    return "act", Pair(left, r[1]), r[2], r[3], r[4]
            case Fst(inner):
                r = sub(inner)
                if r:
                    return "act", Fst(r[1]), r[2], r[3], r[4]
                if is_local_value(inner):
                    if isinstance(inner, Pair):
                        return "act", inner.left, "LocalStep", None, None
                    if inner == SKIP:
                        return "act", SKIP, "LocalStep", None, None
                    raise NetStuck(f"fst of non-pair in {path_str(addr)}")
            case Snd(inner):
                r = sub(inner)
                if r:
                    return "act", Snd(r[1]), r[2], r[3], r[4]
                if is_local_value(inner):
                    if isinstance(inner, Pair):
                        return "act", inner.right, "LocalStep", None, None
                    if inner == SKIP:
                        return "act", SKIP, "LocalStep", None, None
                    raise NetStuck(f"snd of non-pair in {path_str(addr)}")
            case Inl(inner):
                r = sub(inner)
                if r:
                    return "act", Inl(r[1]), r[2], r[3], r[4]
            case Inr(inner):
                r = sub(inner)
                if r:
                    return "act", Inr(r[1]), r[2], r[3], r[4]
            case Absurd(inner):
                r = sub(inner)
                if r:
                    return "act", Absurd(r[1]), r[2], r[3], r[4]
                if is_local_value(inner):
                    if inner == SKIP:
                        return "act", SKIP, "LocalStep", None, None
                    raise NetStuck(f"absurd applied to a value in {path_str(addr)}")
            case Case(scrutinee, lv, lb, rv, rb):
                r = sub(scrutinee)
                if r:
                    return "act", Case(r[1], lv, lb, rv, rb), r[2], r[3], r[4]
                if is_local_value(scrutinee):
                    if isinstance(scrutinee, Inl):
                        return ("act", substitute(lb, lv, scrutinee.inner),
                                "LocalStep", None, None)
                    if isinstance(scrutinee, Inr):
                        return ("act", substitute(rb, rv, scrutinee.inner),
                                "LocalStep", None, None)
                    if scrutinee == SKIP:
                        # Branches were merged; run the left one with a hole.
                        return ("act", substitute(lb, lv, SKIP),
                                "LocalStep", None, None)
                    raise NetStuck(f"case of non-sum value in {path_str(addr)}")
        if blocked:
            return _BLOCKED, frozenset(blocked)
        if is_local_value(e):
            return None
        raise NetStuck(f"process {path_str(addr)} is stuck at {local_str(e)}")

    return go(e)


@dataclass
class RunResult:
    values: dict[Path, LocalExpr]
    trace: list[TraceEvent]
    steps: int


def run(network: Network, policy: SchedulerPolicy, fuel: int = 100_000) -> RunResult:
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    procs: dict[Path, LocalExpr] = dict(network.processes)
    chans: dict[tuple[Path, Path], deque] = {}
    order = sorted(procs)
    trace: list[TraceEvent] = []
    done: set[Path] = set()
    steps = 0
    rng = random.Random(policy.seed) if isinstance(policy, RandomPolicy) else None
    rr_index = 0

    for addr in order:
        if is_local_value(procs[addr]):
            done.add(addr)
            trace.append(TraceEvent(steps, addr, "Done"))

    while len(done) < len(order):
        active = [a for a in order if a not in done]
        if rng is None:
            start = rr_index % len(order)
            rotation = order[start:] + order[:start]
            candidates = [a for a in rotation if a not in done]
        else:
            candidates = list(active)
            rng.shuffle(candidates)
        waiting: dict[Path, tuple[Path, ...]] = {}
        moved = False
        for addr in candidates:
            result = _step_local(procs[addr], addr, chans)
            if result is None:
                done.add(addr)  # became a value through an earlier action
                trace.append(TraceEvent(steps, addr, "Done"))
                moved = True
                break
            if result[0] == _BLOCKED:
                srcs = tuple(sorted(result[1]))
                waiting[addr] = srcs
                trace.append(TraceEvent(steps, addr, "Blocked", peer=srcs[0]))
                continue
            _, expr, action, peer, payload = result
            if steps >= fuel:
                raise NetFuelExhausted(steps)
            procs[addr] = expr
            trace.append(TraceEvent(steps, addr, action, peer=peer, payload=payload))
            steps += 1
            if is_local_value(expr):
                done.add(addr)
                trace.append(TraceEvent(steps, addr, "Done"))
            if rng is None:
                rr_index = (order.index(addr) + 1) % len(order)
            moved = True
            break
        if not moved:
            raise DeadlockError(waiting, trace, procs)

    leftovers = {pair: list(q) for pair, q in chans.items() if q}
    if leftovers:
        raise NetStuck(f"run completed with undelivered messages: "
                       + ", ".join(f"{path_str(s)}->{path_str(d)}"
                                   for s, d in sorted(leftovers)))
    return RunResult(procs, trace, steps)


# ---------------------------------------------------------------------------
# Agreement with the choreographic semantics

class PreconditionError(Exception):
    """The program falls outside what the harness can compare."""


@dataclass
class AgreementReport:
    agree: bool
    expected: str
    outcomes: list[tuple[str, str]]  # (schedule, "agree" | failure description)

    def __bool__(self) -> bool:
        return self.agree


def _prepare(program: Program, topology: Optional[Topology], base_dir: str):
    if topology is None:
        topology = resolve_topology(program, base_dir=base_dir)
    errors = check_program(program, topology)
    if errors:
        raise PreconditionError("program does not typecheck: "
                                + "; ".join(str(e) for e in errors))
    network = project_network(program, topology)
    return topology, network


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
                  base_dir: str = ".") -> AgreementReport:
    topology, network = _prepare(program, topology, base_dir)
    if network.lambda_wire:
        raise PreconditionError(
            "a communication payload mentions a function; excluded from agreement")
    expected = expected_result(program, topology, fuel)
    outcomes: list[tuple[str, str]] = []
    agree = True
    for policy in schedules:
        label = policy_str(policy)
        try:
            result = run(network, policy, fuel)
        except NetError as err:
            outcomes.append((label, f"failed: {err}"))
            agree = False
            continue
        got = result.values[network.result_address]
        if expr_equal(got, expected):
            outcomes.append((label, "agree"))
        else:
            outcomes.append((label, f"disagree: got {local_str(got)}"))
            agree = False
    return AgreementReport(agree, local_str(expected), outcomes)


@dataclass
class DeadlockReport:
    trials: int
    findings: list[dict]

    @property
    def clean(self) -> bool:
        return not self.findings


def check_deadlock_free(program: Program, trials: int, seed0: int = 0,
                        topology: Optional[Topology] = None,
                        fuel: int = 100_000, base_dir: str = ".") -> DeadlockReport:
    """Run `trials` random schedules; deadlocks are findings, not errors."""
    if trials <= 0:
        return DeadlockReport(0, [])
    topology, network = _prepare(program, topology, base_dir)
    findings: list[dict] = []
    for i in range(trials):
        policy = RandomPolicy(seed0 + i)
        try:
            run(network, policy, fuel)
        except DeadlockError as err:
            findings.append({
                "seed": seed0 + i,
                "waiting": {path_str(a): [path_str(s) for s in srcs]
                            for a, srcs in err.waiting.items()},
                "replay": f"--schedule random --seed {seed0 + i}",
            })
        except NetError as err:
            findings.append({"seed": seed0 + i, "error": str(err)})
    return DeadlockReport(trials, findings)
