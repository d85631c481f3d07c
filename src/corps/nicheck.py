"""Empirical noninterference harness.

If the topology admits no flow path from the address holding a declared
input to an observer address, varying the input's value must not change
anything the observer can see.  The observation is the observer's final
residual value together with the sends and receives it participates in,
in order, with payloads.  A projected network is a Kahn network (see
`netsim`): each process's sends and receives, with their payloads, and
its final value are the same under every schedule.  So one round-robin
run per input value decides whether the observations differ.

A reachable pair yields the verdict FlowPermitted and no claim is made.
An InterferenceFound verdict always carries a replayable witness: two
input values whose observations diverge.
"""

from __future__ import annotations

from typing import Optional

from .netsim import NetError, RoundRobin, RunResult, run
from .parser import Program
from .printer import expr_str, path_str, type_str
from .projection import SKIP, Network, local_str, project_network
from .syntax import (
    Annot, Believes, Expr, Inl, Inr, Located, Pair, Path, Product, Sum,
    Type, Unit, UnitVal, _frozen, split_stack, substitute,
)
from .topology import Topology, flow_reachable
from .typecheck import Checker, TypeCheckError, check_program, resolve_topology
from .normalize import is_positive_value


@_frozen
class NIConfig:
    """The input to vary, the observer's address and the values to try."""
    input_name: str
    observer: Path
    values: tuple[Expr, ...]


@_frozen
class Witness:
    """Two input values whose runs the observer sees differently."""
    value_a: Expr
    value_b: Expr
    observation_a: tuple
    observation_b: tuple

    def describe(self) -> str:
        return f"inputs {expr_str(self.value_a)} vs {expr_str(self.value_b)} diverge"


@_frozen
class Verdict:
    """The outcome of `ni_check`, printed by `str`."""
    kind: str  # Secure | InterferenceFound | FlowPermitted
    source: Path
    observer: Path
    runs: int = 0
    witness: Optional[Witness] = None

    def __str__(self) -> str:
        if self.kind == "FlowPermitted":
            return (f"FlowPermitted: {path_str(self.source)} can reach "
                    f"{path_str(self.observer)}; no claim made")
        if self.kind == "Secure":
            return (f"Secure: {self.runs} runs, observer {path_str(self.observer)} "
                    f"saw identical observations for every input value")
        return f"InterferenceFound: {self.witness.describe()}"


def observation(result: RunResult, observer: Path) -> tuple:
    """What the observer saw: its residual value and its own comm events."""
    events = tuple(
        (ev.action, ev.peer, ev.payload)
        for ev in result.trace
        if ev.address == observer and ev.action in ("Send", "Recv"))
    residual = result.values.get(observer, SKIP)
    return local_str(residual), events


def elaborate_value(value: Expr, ty: Type) -> Expr:
    """Annotate the injections of a canonical value of `ty`.

    `value` is a closed positive value (`_validate` rejects any other), so
    it holds no function.  An injection only checks against a known type;
    a value substituted into a program must infer on its own, so each gets
    an annotation recording the type it was declared at.  A value already
    annotated with `ty` is elaborated as its inner value.
    """
    kind, ty_kind = type(value), type(ty)
    if kind is UnitVal and ty_kind is Unit:
        return value
    if kind is Annot and value.ty == ty:
        return elaborate_value(value.inner, ty)
    if kind is Pair and ty_kind is Product:
        return Pair(elaborate_value(value.left, ty.left),
                    elaborate_value(value.right, ty.right))
    if kind is Inl and ty_kind is Sum:
        return Annot(Inl(elaborate_value(value.inner, ty.left)), ty)
    if kind is Inr and ty_kind is Sum:
        return Annot(Inr(elaborate_value(value.inner, ty.right)), ty)
    if kind is Located and ty_kind is Believes and value.agent == ty.agent:
        return Located(value.agent, elaborate_value(value.body, ty.body))
    raise ValueError(f"{expr_str(value)} is not a canonical value of type "
                     f"{type_str(ty)}")


def _substituted(program: Program, name: str, value: Expr) -> Program:
    inputs = tuple((n, t) for n, t in program.inputs if n != name)
    defs = tuple((n, t, substitute(b, name, value)) for n, t, b in program.defs)
    return Program(program.topology_ref, inputs, defs, program.main_type,
                   substitute(program.main_expr, name, value))


def _validate(program: Program, cfg: NIConfig, topology: Topology) -> Type:
    errors = check_program(program, topology)
    if errors:
        raise ValueError("program does not typecheck: "
                         + "; ".join(str(e) for e in errors))
    input_ty = None
    for name, ty in program.inputs:
        if name == cfg.input_name:
            input_ty = ty
    if input_ty is None:
        raise ValueError(f"no declared input named {cfg.input_name!r}")
    if len(cfg.values) < 2:
        raise ValueError("need at least two input values to vary")
    checker = Checker(topology)
    for value in cfg.values:
        if not is_positive_value(value):
            raise ValueError(f"input value {expr_str(value)} is not a "
                             "closed positive value")
        rich = elaborate_value(value, input_ty)
        try:
            checker.check((), rich, input_ty)
        except TypeCheckError as err:
            raise ValueError(f"input value {expr_str(value)} does not have "
                             f"the declared type: {err}") from None
    return input_ty


def _networks(program: Program, cfg: NIConfig,
              topology: Topology) -> list[tuple[Expr, Network]]:
    """Each input value with the network of the program it is substituted
    into."""
    input_ty = dict(program.inputs)[cfg.input_name]
    return [(value, project_network(_substituted(program, cfg.input_name,
                                                 elaborate_value(value, input_ty)),
                                    topology))
            for value in cfg.values]


def compare_observations(program: Program, cfg: NIConfig,
                         topology: Topology, fuel: int = 100_000,
                         ) -> tuple[Optional[Witness], int]:
    """Run every input value once; the first divergence wins.

    This is the detection core, independent of the reachability gate, so
    its positive behavior can be exercised directly.
    """
    return _compare(_networks(program, cfg, topology), cfg, fuel)


def _compare(networks: list[tuple[Expr, Network]], cfg: NIConfig,
             fuel: int) -> tuple[Optional[Witness], int]:
    baseline: Optional[tuple[Expr, tuple]] = None
    for runs, (value, network) in enumerate(networks, 1):
        try:
            result = run(network, RoundRobin(), fuel)
        except NetError as err:
            raise ValueError(f"run failed for input {expr_str(value)}: {err}") from None
        obs = observation(result, cfg.observer)
        if baseline is None:
            baseline = (value, obs)
        elif obs != baseline[1]:
            return Witness(baseline[0], value, baseline[1], obs), runs
    return None, len(networks)


def ni_check(program: Program, cfg: NIConfig,
             topology: Optional[Topology] = None, fuel: int = 100_000) -> Verdict:
    if topology is None:
        topology = resolve_topology(program)
    source, _ = split_stack(_validate(program, cfg, topology))
    # Each value's network is projected once, for the flow universe and
    # for the runs.
    networks = _networks(program, cfg, topology)
    universe = {cfg.observer}.union(*(network.processes for _, network in networks))
    if flow_reachable(topology, source, cfg.observer, universe):
        return Verdict("FlowPermitted", source, cfg.observer)
    witness, runs = _compare(networks, cfg, fuel)
    if witness is None:
        return Verdict("Secure", source, cfg.observer, runs=runs)
    return Verdict("InterferenceFound", source, cfg.observer, runs=runs,
                   witness=witness)
