import json
import random
import sys
import tracemalloc
from pathlib import Path

import pytest

from corps import netsim, nicheck
from corps import syntax as S
from corps.netsim import (
    DeadlockError, NetError, NetFuelExhausted, NetStuck, Network,
    PreconditionError, RandomPolicy, RoundRobin, RunResult, TraceEvent,
    _step_local, epp_agreement, expected_result, is_local_value, run,
)
from corps.parser import parse_program
from corps.printer import path_str
from corps.projection import (
    SKIP, ProjectionError, RecvFrom, SendTo, Seq, local_str, project_network,
)
from corps.topology import load_preset
from genprog import ProgramGen
from test_nicheck import FLOW_PROGRAM, SEALED_PROGRAM, cfg
from test_projection import fanout, node_count

P4 = "topology choreo; main : [B] unit = send A.() to [B];"
P3 = ("topology doxastic; "
      "main : [A] unit = let [] [A] x = A.(up [A] ()) in A.(down [A] x);")


def p4_network():
    return project_network(parse_program(P4))


class TestRun:
    def test_p4_round_robin(self):
        result = run(p4_network(), RoundRobin())
        assert result.values[("A",)] == S.UnitVal()
        assert result.values[("B",)] == S.UnitVal()
        sends = [e for e in result.trace if e.action == "Send"]
        recvs = [e for e in result.trace if e.action == "Recv"]
        assert len(sends) == 1 and len(recvs) == 1
        assert sends[0].address == ("A",) and sends[0].peer == ("B",)
        assert recvs[0].address == ("B",) and recvs[0].peer == ("A",)

    def test_all_skip_network_completes_immediately(self):
        net = Network({(): SKIP, ("A",): SKIP}, (), False)
        result = run(net, RoundRobin())
        assert result.steps == 0
        assert all(v == SKIP for v in result.values.values())

    def test_cyclic_wait_deadlocks(self):
        net = Network({("A",): RecvFrom(("B",)), ("B",): RecvFrom(("A",))},
                      ("A",), False)
        with pytest.raises(DeadlockError) as exc:
            run(net, RoundRobin())
        waiting = exc.value.waiting
        assert waiting[("A",)] == (("B",),)
        assert waiting[("B",)] == (("A",),)

    def test_self_send_does_not_deadlock(self):
        net = Network({("A",): Seq(SendTo(("A",), S.UnitVal()),
                                   RecvFrom(("A",)))}, ("A",), False)
        result = run(net, RoundRobin())
        assert result.values[("A",)] == S.UnitVal()

    def test_reproducible_traces(self):
        net = project_network(parse_program(P3))
        a = run(net, RandomPolicy(9))
        b = run(net, RandomPolicy(9))
        assert [e.to_json_dict() for e in a.trace] == \
            [e.to_json_dict() for e in b.trace]

    def test_fifo_per_channel(self):
        src = ("topology choreo; "
               "main : [B] (unit + unit) * [B] (unit + unit) = "
               "(send A.((inl () : unit + unit)) to [B],"
               " send A.((inr () : unit + unit)) to [B]);")
        net = project_network(parse_program(src))
        for policy in (RoundRobin(), RandomPolicy(0), RandomPolicy(5)):
            result = run(net, policy)
            recvs = [e for e in result.trace
                     if e.action == "Recv" and e.address == ("B",)]
            assert [e.payload for e in recvs] == ["inl ()", "inr ()"]

    def test_conservation(self):
        for seed in range(30):
            topo = load_preset("choreo")
            program = ProgramGen(seed, topo, projectable=True).gen_program()
            try:
                net = project_network(program, topo)
            except Exception:
                continue
            if net.lambda_wire:
                continue
            result = run(net, RandomPolicy(seed))
            sends = sum(1 for e in result.trace if e.action == "Send")
            recvs = sum(1 for e in result.trace if e.action == "Recv")
            assert sends == recvs

    def test_free_variable_is_stuck(self):
        net = Network({("A",): S.Var("ghost")}, ("A",), False)
        with pytest.raises(NetStuck):
            run(net, RoundRobin())

    def test_trace_json_fields(self):
        result = run(p4_network(), RoundRobin())
        send = next(e for e in result.trace if e.action == "Send")
        record = send.to_json_dict()
        assert record["address"] == "A"
        assert record["peer"] == "B"
        assert record["payload"] == "()"
        json.dumps(record)


class TestAgreement:
    def test_p4(self):
        program = parse_program(P4)
        schedules = [RoundRobin()] + [RandomPolicy(s) for s in range(1, 51)]
        report = epp_agreement(program, schedules)
        assert report.agree
        assert report.expected == "()"

    def test_p3_linear_chain(self):
        program = parse_program(P3)
        schedules = [RoundRobin()] + [RandomPolicy(s) for s in range(20)]
        assert epp_agreement(program, schedules).agree

    def test_expected_result_projects_normal_form(self):
        program = parse_program(P4)
        assert expected_result(program, load_preset("choreo")) == S.UnitVal()

    def test_lambda_wire_excluded(self):
        src = ("topology choreo; main : [B] (unit -> unit) = "
               "send A.((fun x -> x : unit -> unit)) to [B];")
        with pytest.raises(PreconditionError):
            epp_agreement(parse_program(src), [RoundRobin()])

    def test_a_definition_under_a_lock_is_a_precondition_error(self):
        program = parse_program("topology choreo; def f : unit = (); main : [A] unit = A.(f);")
        with pytest.raises(PreconditionError, match=r"does not typecheck: .*\[Axiom\]"):
            epp_agreement(program, [RoundRobin()])

    def test_a_well_typed_program_is_walked_once(self, monkeypatch):
        # Projection checks the program; the full check runs only to list
        # the errors of an ill-typed one.
        def refused(*args, **kwargs):
            raise AssertionError("check_program called on a well-typed program")
        monkeypatch.setattr(netsim, "check_program", refused)
        program = parse_program("topology choreo; def f : [B] unit = send A.() to [B]; "
                                "main : [B] unit * [B] unit = (f, f);")
        assert epp_agreement(program, [RoundRobin(), RandomPolicy(1)]).agree
        assert epp_agreement(parse_program(P3), [RoundRobin()]).agree

    def test_schedule_confluence(self):
        for seed in (2, 7, 11):
            topo = load_preset("choreo")
            program = ProgramGen(seed, topo, projectable=True).gen_program()
            try:
                net = project_network(program, topo)
            except Exception:
                continue
            if net.lambda_wire:
                continue
            results = [run(net, RandomPolicy(s)) for s in range(8)]
            baseline = results[0].values
            for other in results[1:]:
                for address, value in baseline.items():
                    assert S.expr_equal(other.values[address], value)


class TestDeadlockFree:
    def test_detector_positive_control(self):
        # the detector itself is exercised on a hand-built cyclic network
        net = Network({("A",): RecvFrom(("B",)), ("B",): RecvFrom(("A",))},
                      ("A",), False)
        with pytest.raises(DeadlockError) as exc:
            run(net, RandomPolicy(1))
        assert set(exc.value.waiting) == {("A",), ("B",)}


class TestLocalValues:
    def test_values(self):
        assert is_local_value(SKIP)
        assert is_local_value(S.Pair(S.UnitVal(), SKIP))
        assert not is_local_value(RecvFrom(("A",)))
        assert not is_local_value(Seq(SKIP, S.UnitVal()))


# ---------------------------------------------------------------------------
# The event-driven engine against the reference semantics

A, B, C = ("A",), ("B",), ("C",)
U = S.UnitVal()


def chain(n: int) -> Network:
    """The projection of an A<->B chain of n nested sends, built as local
    syntax: each of A and B nests SendTo(peer, Seq(SendTo(...), RecvFrom(peer)))
    about n deep, as `project_network` builds it from the choreography."""
    procs = {A: U, B: None}
    for i in range(n):
        src, dest = (A, B) if i % 2 == 0 else (B, A)
        procs[src] = SendTo(dest, procs[src])
        procs[dest] = RecvFrom(src) if procs[dest] is None else Seq(procs[dest], RecvFrom(src))
    return Network(procs, A if n % 2 == 0 else B, False)


def acts(trace: list[TraceEvent]) -> list[TraceEvent]:
    return [event for event in trace if event.action != "Blocked"]


def reference_replay(network: Network, polls: list, fuel: int, round_robin: bool):
    """Poll the given addresses in turn with `_step_local`, the reference
    semantics, and end the run as `run` does: the events other than
    Blocked and the final processes, or the error the run ends with.
    Under round robin, also check that each process that acts is the
    first in rotation that can.
    """
    procs = dict(network.processes)
    order = sorted(procs)
    chans: dict = {}
    events = [TraceEvent(0, addr, "Done") for addr in order if is_local_value(procs[addr])]
    steps, turn = 0, 0
    for addr in polls:
        if round_robin:
            for other in order[turn:] + order[:turn]:
                if other == addr:
                    break
                if not is_local_value(procs[other]):
                    assert _step_local(procs[other], other, chans)[0] == "blocked"
        r = _step_local(procs[addr], addr, chans)
        if r[0] == "blocked":
            continue
        if steps >= fuel:
            raise NetFuelExhausted(steps)
        _, procs[addr], action, peer, payload = r
        events.append(TraceEvent(steps, addr, action, peer=peer, payload=payload))
        steps += 1
        if is_local_value(procs[addr]):
            events.append(TraceEvent(steps, addr, "Done"))
        turn = order.index(addr) + 1
    waiting = {}
    for addr in order:
        if not is_local_value(procs[addr]):
            r = _step_local(procs[addr], addr, chans)
            assert r[0] == "blocked", f"{path_str(addr)} could still act"
            waiting[addr] = (r[1],)
    if waiting:
        raise DeadlockError(waiting, events, procs)
    leftovers = sorted(pair for pair, queue in chans.items() if queue)
    if leftovers:
        raise NetStuck("run completed with undelivered messages: "
                       + ", ".join(f"{path_str(s)}->{path_str(d)}" for s, d in leftovers))
    return events, procs, steps


def assert_replays(network: Network, policy, fuel: int = 100_000) -> None:
    """`run` must give what the reference gives on the addresses it polled."""
    polls: list = []
    step = netsim._step
    with pytest.MonkeyPatch.context() as m:
        m.setattr(netsim, "_step", lambda log, i, addr, *rest: polls.append(addr) or
                  step(log, i, addr, *rest))
        try:
            got = run(network, policy, fuel)
        except Exception as err:  # the reference must raise the same
            got = err
    try:
        want = reference_replay(network, polls, fuel, isinstance(policy, RoundRobin))
    except AssertionError:  # a check inside the replay failed
        raise
    except Exception as err:
        assert (type(got), str(got)) == (type(err), str(err))
        if isinstance(err, DeadlockError):
            assert got.waiting == err.waiting
            assert acts(got.trace) == err.trace
            assert got.residuals == err.residuals
        return
    assert not isinstance(got, Exception), f"reference completes, run raised {got!r}"
    events, values, steps = want
    assert acts(got.trace) == events
    assert got.values == values
    assert got.steps == steps


POLICIES = [RoundRobin()] + [RandomPolicy(seed) for seed in (0, 1, 7, 42, 1234)]


def generated_networks():
    for preset in ("choreo", "doxastic", "siblings"):
        topo = load_preset(preset)
        for seed in range(100):
            program = ProgramGen(seed, topo, projectable=True).gen_program()
            try:
                yield project_network(program, topo)
            except ProjectionError:
                continue


# Hand-built networks, each with how a round-robin run ends: None if it
# completes, else the error class and the start of its message.
HAND_BUILT = {
    "free variable": ({A: S.Var("ghost")}, (NetStuck, "free variable 'ghost'")),
    "free variable right of a wait": (
        {A: S.Pair(RecvFrom(B), S.Var("ghost")), B: SKIP},
        (DeadlockError, "deadlock: [A] waits on [B]")),
    "function on the wire": (
        {A: SendTo(B, S.Lam("x", S.Var("x"))), B: RecvFrom(A)},
        (NetStuck, "non-positive value on the wire")),
    "applied non-function": (
        {A: S.App(RecvFrom(B), U), B: SendTo(A, U)}, (NetStuck, "applied non-function")),
    "fst of non-pair": ({A: S.Fst(U)}, (NetStuck, "fst of non-pair")),
    "snd of non-pair": ({A: S.Snd(S.Inl(U))}, (NetStuck, "snd of non-pair")),
    "absurd applied to a value": ({A: S.Absurd(U)}, (NetStuck, "absurd applied to a value")),
    "case of non-sum value": (
        {A: S.Case(S.Pair(U, U), "x", S.Var("x"), "y", S.Var("y"))},
        (NetStuck, "case of non-sum value")),
    # The engine and _step_local reject a node that is no local form
    # where they meet it.
    "choreographic node": (
        {A: S.Pair(U, S.Located("A", U))}, (TypeError, "not a local expression")),
    "undelivered message": (
        {A: SendTo(B, U), B: SKIP}, (NetStuck, "run completed with undelivered messages")),
    "out of fuel": (chain(12).processes, (NetFuelExhausted, "network made no progress")),
    "cyclic wait": ({A: RecvFrom(B), B: RecvFrom(A)}, (DeadlockError, "deadlock")),
    "wait on the leftmost of two sources": (
        {A: S.Pair(RecvFrom(B), RecvFrom(C)), B: Seq(SendTo(C, U), RecvFrom(A)),
         C: RecvFrom(B)},
        (DeadlockError, "deadlock: [A] waits on [B], [B] waits on [A]")),
    "actions right of waits": ({
        A: S.Pair(RecvFrom(B), S.Pair(Seq(RecvFrom(C), SendTo(B, U)),
                                      S.Inr(SendTo(C, S.Pair(U, U))))),
        B: Seq(RecvFrom(A), SendTo(A, U)), C: Seq(RecvFrom(A), SendTo(A, U))},
        (DeadlockError,
         "deadlock: [A] waits on [B], [B] waits on [A], [C] waits on [A]")),
    # A sends nothing until C's message reaches it, and then sends in
    # program order, so B's first message is inl ().
    "messages in program order": ({
        A: S.Pair(Seq(RecvFrom(C), SendTo(B, S.Inl(U))), SendTo(B, S.Inr(U))),
        B: S.Pair(RecvFrom(A), RecvFrom(A)), C: SendTo(A, U)}, None),
    "merged branches": ({A: Seq(S.App(SKIP, U), Seq(S.Fst(SKIP), Seq(
        S.Snd(SKIP), Seq(S.Absurd(SKIP), S.Case(SKIP, "x", S.Var("x"), "y", U)))))}, None),
    "beta and case": ({
        A: S.Case(S.App(S.Lam("x", S.Inr(S.Var("x"))), RecvFrom(B)),
                  "l", S.Var("l"), "r", SendTo(B, S.Pair(S.Var("r"), U))),
        B: Seq(SendTo(A, U), RecvFrom(A))}, None),
    "vacuous beta and case": ({
        A: S.Case(S.Inl(S.App(S.Lam("x", RecvFrom(B)), U)),
                  "l", SendTo(B, U), "r", S.Var("r")),
        B: Seq(SendTo(A, U), RecvFrom(A))}, None),
}

# One network per local rule, with the values its run ends with.  `run` and
# `_step_local` share the rules, so the replay oracle cannot see a wrong one.
L, R = S.Inl(U), S.Inr(U)
RULES = {
    "send and receive": ({A: SendTo(B, L), B: RecvFrom(A)}, {A: L, B: L}),
    "sequence": ({A: Seq(U, L)}, {A: L}),
    "beta": ({A: S.App(S.Lam("x", S.Pair(S.Var("x"), R)), L)}, {A: S.Pair(L, R)}),
    "skip applied": ({A: S.App(SKIP, U)}, {A: SKIP}),
    "fst": ({A: S.Fst(S.Pair(L, R))}, {A: L}),
    "snd": ({A: S.Snd(S.Pair(L, R))}, {A: R}),
    "fst of skip": ({A: S.Fst(SKIP)}, {A: SKIP}),
    "snd of skip": ({A: S.Snd(SKIP)}, {A: SKIP}),
    "absurd of skip": ({A: S.Absurd(SKIP)}, {A: SKIP}),
    "case inl": ({A: S.Case(L, "x", S.Pair(S.Var("x"), L), "y", R)}, {A: S.Pair(U, L)}),
    "case inr": ({A: S.Case(R, "x", L, "y", S.Pair(S.Var("y"), R))}, {A: S.Pair(U, R)}),
    "case of skip": ({A: S.Case(SKIP, "x", S.Pair(S.Var("x"), L), "y", R)},
                     {A: S.Pair(SKIP, L)}),
}


def fresh(network: Network) -> Network:
    """The same processes in a network that has not run yet."""
    return Network(dict(network.processes), network.result_address,
                   network.lambda_wire, network.universe)


class TestEngine:
    def test_generated_networks_replay(self):
        # Every policy after the first runs from the start the first run
        # built.
        for network in generated_networks():
            assert_replays(network, POLICIES[0])
            start = network._start
            for policy in POLICIES[1:]:
                assert_replays(network, policy)
            assert_replays(network, RoundRobin(), fuel=3)
            assert_replays(network, RandomPolicy(3), fuel=3)
            assert network._start is start

    def test_changed_processes_get_a_new_start(self):
        network = p4_network()
        run(network, RoundRobin())
        network.processes[("B",)] = SKIP
        with pytest.raises(NetStuck, match="undelivered messages"):
            run(network, RoundRobin())

    @pytest.mark.parametrize("name", HAND_BUILT)
    def test_hand_built_networks_replay(self, name):
        processes, ends = HAND_BUILT[name]
        network = Network(processes, A, False)
        fuel = 5 if name == "out of fuel" else 100_000
        if ends is None:
            run(network, RoundRobin(), fuel)
        else:
            with pytest.raises(ends[0]) as exc:
                run(network, RoundRobin(), fuel)
            assert str(exc.value).startswith(ends[1])
        for policy in POLICIES:
            assert_replays(network, policy, fuel)

    @pytest.mark.parametrize("name", RULES)
    def test_each_rule_gives_its_reduct(self, name):
        processes, values = RULES[name]
        for policy in POLICIES:
            assert run(Network(processes, A, False), policy).values == values

    def test_deep_chain_runs_at_the_default_recursion_limit(self):
        n = 5_000
        assert sys.getrecursionlimit() < n
        network = chain(n)
        for policy in (RoundRobin(), RandomPolicy(1)):
            result = run(network, policy)
            assert sum(e.action == "Send" for e in result.trace) == n
            assert result.steps == 3 * n - 1  # a send, a receive, a sequence step
            assert result.values == {A: U, B: U}

    def test_messages_arrive_in_program_order(self):
        processes, _ = HAND_BUILT["messages in program order"]
        network = Network(processes, B, False)
        for policy in POLICIES:
            assert run(network, policy).values[B] == S.Pair(S.Inl(U), S.Inr(U))

    def test_deep_term_right_of_a_wait_stays_unvisited_at_the_default_recursion_limit(self):
        # Z's send sits right of a receive and of 3,000 nested pairs of
        # receives.  Z's leftmost receive blocks the whole process, so the
        # send never happens and Z is left as it was.
        n = 3_000
        assert sys.getrecursionlimit() < n
        Z = ("Z",)
        nested = RecvFrom(B)
        for _ in range(n):
            nested = S.Pair(RecvFrom(B), nested)
        network = Network({Z: S.Pair(RecvFrom(B), S.Pair(nested, SendTo(B, U))),
                           B: RecvFrom(Z)}, Z, False)
        for policy in (RoundRobin(), RandomPolicy(3)):
            with pytest.raises(DeadlockError) as exc:
                run(network, policy)
            assert exc.value.waiting == {Z: (B,), B: (Z,)}
            assert not any(e.action == "Send" for e in exc.value.trace)
            assert exc.value.residuals[Z] is network.processes[Z]

    def test_deep_choreographic_node_is_not_a_local_expression(self):
        # The error names the node's class: a dataclass repr of 3,000
        # nested nodes would overflow the stack.
        n = 3_000
        assert sys.getrecursionlimit() < n
        e = U
        for _ in range(n):
            e = S.Located("A", e)
        for policy in (RoundRobin(), RandomPolicy(3)):
            with pytest.raises(TypeError, match="^not a local expression: Located$"):
                run(Network({A: e}, A, False), policy)

    @pytest.mark.parametrize("network", [chain(2_000), project_network(
        parse_program(fanout(64, 21)))], ids=["chain", "fanout"])
    def test_machine_visits_each_node_a_bounded_number_of_times(self, monkeypatch, network):
        # A visit is a lookup of a node's evaluation positions.  The fanout's
        # network has Theta(k^2) nodes for Theta(k) steps, so the bound is
        # per node and per step: each node is entered once and left once.
        visits = 0

        class Counted(dict):
            def get(self, key, default=None):
                nonlocal visits
                visits += 1
                return dict.get(self, key, default)

            def __getitem__(self, key):
                nonlocal visits
                visits += 1
                return dict.__getitem__(self, key)

        monkeypatch.setattr(netsim._MACHINE, "holes", Counted(netsim._HOLES))
        nodes = sum(node_count(p) for p in network.processes.values())
        for policy in (RoundRobin(), RandomPolicy(3)):
            # A first run: later runs replay the steps it logged.
            network._start = None
            visits = 0
            result = run(network, policy)
            assert 0 < visits <= 2 * nodes + 2 * result.steps
            visits = 0
            run(network, policy)
            assert visits == 0


# ---------------------------------------------------------------------------
# Runs that replay what earlier runs of their network logged, against
# runs from a cold start

def outcome(network: Network, policy, fuel: int):
    """What a run gives: its values, steps and trace, or its error with
    the waiting graph, trace and residuals of a deadlock."""
    try:
        result = run(network, policy, fuel)
    except DeadlockError as err:
        return type(err), str(err), err.waiting, err.trace, err.residuals
    except (NetError, TypeError) as err:
        return type(err), str(err)
    return result.values, result.steps, result.trace


def cold_outcome(network: Network, policy, fuel: int):
    network._start = None
    return outcome(network, policy, fuel)


# rr, random seeds and runs cut short by fuel
SCHEDULES = ([(RoundRobin(), 100_000)] + [(policy, 100_000) for policy in POLICIES[1:]]
             + [(RoundRobin(), 3), (RandomPolicy(5), 2), (RandomPolicy(1), 7)])


class TestWarmRuns:
    def test_warm_runs_give_what_cold_starts_give(self, monkeypatch):
        # Each network runs every schedule, and some twice, in an order of
        # its own.  Count the actions computed, to see that warm runs
        # replay most of theirs.
        fired = {"warm": 0, "cold": 0}
        side = "warm"
        contract = netsim._contract

        def counted(*args):
            fired[side] += 1
            return contract(*args)

        monkeypatch.setattr(netsim, "_contract", counted)
        rng = random.Random(10)
        networks = list(generated_networks()) + [
            Network(processes, A, False) for processes, _ in HAND_BUILT.values()]
        for network in networks:
            cold = fresh(network)
            schedules = SCHEDULES + rng.sample(SCHEDULES, 4)
            rng.shuffle(schedules)
            for policy, fuel in schedules:
                side = "warm"
                warm = outcome(network, policy, fuel)
                side = "cold"
                assert warm == cold_outcome(cold, policy, fuel), (network, policy, fuel)
        assert len(networks) > 200
        assert fired["warm"] < fired["cold"] / 5

    @pytest.mark.parametrize("name", [name for name, (_, ends) in HAND_BUILT.items()
                                      if ends and ends[0] is DeadlockError])
    def test_deadlocks_end_each_process_at_its_logs_end(self, name):
        # A run that deadlocks leaves each process at the end of its log,
        # so its residuals are read from there.  After a run cut short by
        # fuel and after full runs, they, the waiting graph and the trace
        # are what a cold start gives.
        network = Network(HAND_BUILT[name][0], A, False)
        with pytest.raises(NetError):
            run(network, RoundRobin(), 2)
        start = network._start
        for policy in [RoundRobin(), RandomPolicy(3)] + POLICIES[1:]:
            ends = []
            for net in (network, fresh(network)):
                with pytest.raises(DeadlockError) as exc:
                    run(net, policy)
                ends.append((exc.value.waiting, exc.value.trace, exc.value.residuals))
            assert ends[0] == ends[1]
        assert network._start is start

    def test_ni_verdicts_match_cold_starts(self):
        def checks():
            return (nicheck.ni_check(parse_program(SEALED_PROGRAM), cfg()),
                    nicheck.compare_observations(parse_program(FLOW_PROGRAM), cfg(),
                                                 load_preset("choreo")))

        warm = checks()
        with pytest.MonkeyPatch.context() as m:
            def cold_run(network, *rest):
                network._start = None
                return run(network, *rest)

            m.setattr(netsim, "run", cold_run)
            m.setattr(nicheck, "run", cold_run)
            cold = checks()
        assert warm == cold
        verdict, (witness, _) = warm
        assert verdict.kind == "Secure" and witness is not None


def test_outcomes_are_schedule_independent():
    # With one call-by-value order per process and each receive naming one
    # source, a network is a Kahn process network (Kahn, 1974): every
    # schedule gives the same values and steps, or the same error, waiting
    # graph and residuals, and each address makes the same sends and
    # receives with the same payloads in the same order.  The one exception
    # is the error text when two or more processes get stuck: it names the
    # first one the schedule meets, so this holds only for networks with
    # at most one stuck process.  The step logs that runs replay rest on
    # this, so each run here starts cold and replays nothing; and so does
    # `nicheck`'s one run per input value, since an address's own sends and
    # receives are what it observes.
    def comms(trace) -> dict:
        events = {}
        for ev in trace:
            if ev.action in ("Send", "Recv"):
                events.setdefault(ev.address, []).append((ev.action, ev.peer, ev.payload))
        return events

    def ending(network: Network, policy):
        network._start = None
        try:
            result = run(network, policy)
        except DeadlockError as err:
            return type(err), str(err), err.waiting, err.residuals, comms(err.trace)
        except (NetError, TypeError) as err:
            return type(err), str(err)
        return result.values, result.steps, comms(result.trace)

    networks = list(generated_networks()) + [
        Network(processes, A, False) for processes, _ in HAND_BUILT.values()]
    kinds = set()
    talked = 0
    for network in networks:
        first = ending(network, POLICIES[0])
        kinds.add(first[0] if isinstance(first[0], type) else None)
        talked += isinstance(first[-1], dict) and bool(first[-1])
        for policy in POLICIES[1:]:
            assert ending(network, policy) == first, (network, policy)
    assert len(networks) > 200 and talked > 100
    assert {None, DeadlockError, NetStuck, TypeError} <= kinds


def test_a_first_run_holds_memory_linear_in_nodes_and_steps():
    # A first run keeps one log entry per step and each process's last
    # machine state, whose frames a step rebuilds only where it changes
    # them.  A copy of the frame stack per step would hold O(steps x depth)
    # on a chain, and a machine state kept per step about 150 bytes per node
    # and step.
    network = chain(2_000)
    nodes = sum(node_count(p) for p in network.processes.values())
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run(network, RoundRobin())
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert held <= 120 * (nodes + result.steps)


# What each seed names.  A change to the scheduler that changes these
# traces changes what every recorded seed replays.
PINNED = {
    ("P3", "rr"): [
        (0, "", "Done", None, None),
        (0, "A", "Send", "A.A", "()"),
        (1, "A.A", "Recv", "A", "()"),
        (2, "A", "LocalStep", None, None),
        (3, "A.A", "LocalStep", None, None),
        (4, "A", "LocalStep", None, None),
        (5, "A.A", "Send", "A", "()"),
        (6, "A.A", "Done", None, None),
        (6, "A", "Recv", "A.A", "()"),
        (7, "A", "Done", None, None)],
    ("P3", "random:1"): [
        (0, "", "Done", None, None),
        (0, "A", "Send", "A.A", "()"),
        (1, "A", "LocalStep", None, None),
        (2, "A.A", "Recv", "A", "()"),
        (3, "A", "LocalStep", None, None),
        (4, "A.A", "LocalStep", None, None),
        (5, "A.A", "Send", "A", "()"),
        (6, "A.A", "Done", None, None),
        (6, "A", "Recv", "A.A", "()"),
        (7, "A", "Done", None, None)],
    ("P3", "random:2"): [
        (0, "", "Done", None, None),
        (0, "A", "Send", "A.A", "()"),
        (1, "A", "LocalStep", None, None),
        (2, "A", "LocalStep", None, None),
        (3, "A.A", "Recv", "A", "()"),
        (4, "A", "Blocked", "A.A", None),
        (4, "A.A", "LocalStep", None, None),
        (5, "A.A", "Send", "A", "()"),
        (6, "A.A", "Done", None, None),
        (6, "A", "Recv", "A.A", "()"),
        (7, "A", "Done", None, None)],
    ("P4", "rr"): [
        (0, "", "Done", None, None),
        (0, "A", "Send", "B", "()"),
        (1, "A", "Done", None, None),
        (1, "B", "Recv", "A", "()"),
        (2, "B", "Done", None, None)],
    ("P4", "random:0"): [
        (0, "", "Done", None, None),
        (0, "B", "Blocked", "A", None),
        (0, "A", "Send", "B", "()"),
        (1, "A", "Done", None, None),
        (1, "B", "Recv", "A", "()"),
        (2, "B", "Done", None, None)],
    ("P4", "random:1"): [
        (0, "", "Done", None, None),
        (0, "A", "Send", "B", "()"),
        (1, "A", "Done", None, None),
        (1, "B", "Recv", "A", "()"),
        (2, "B", "Done", None, None)],
}


def pinned_trace(source: str, policy) -> list[tuple]:
    trace = run(project_network(parse_program(source)), policy).trace
    return [(e.step, ".".join(e.address), e.action,
             None if e.peer is None else ".".join(e.peer), e.payload) for e in trace]


def pinned_policy(label: str):
    return RoundRobin() if label == "rr" else RandomPolicy(int(label.split(":")[1]))


def json_records(rows: list[tuple]) -> list[dict]:
    keys = ("step", "address", "action", "peer", "payload")
    return [{k: v for k, v in zip(keys, row) if v is not None} for row in rows]


class TestPinnedTraces:
    @pytest.mark.parametrize("key", PINNED)
    def test_trace(self, key):
        source = {"P3": P3, "P4": P4}[key[0]]
        assert pinned_trace(source, pinned_policy(key[1])) == PINNED[key]

    @pytest.mark.parametrize("program", ["P3", "P4"])
    def test_json_records_from_a_shared_start(self, program):
        network = project_network(parse_program({"P3": P3, "P4": P4}[program]))
        for (name, label), rows in PINNED.items():
            if name == program:
                result = run(network, pinned_policy(label))
                assert [e.to_json_dict() for e in result.trace] == json_records(rows)


def busy(steps: int) -> S.Node:
    """A local process that takes exactly `steps` steps, none of them a wait."""
    e = S.UnitVal()
    for _ in range(steps):
        e = S.Fst(S.Pair(e, S.UnitVal()))
    return e


class TestRandomDraws:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
    def test_each_pick_is_a_randrange_draw(self, seed):
        # 37 processes that never wait, so each tick is one draw over the
        # ready list, whose length runs from 37 down to 1.
        steps = {(f"P{i:02}",): 1 + (i * 7) % 5 for i in range(37)}
        network = Network({addr: busy(n) for addr, n in steps.items()}, ("P00",), False)
        rng, ready, left, expected = random.Random(seed), sorted(steps), dict(steps), []
        while ready:
            addr = ready[rng.randrange(len(ready))]
            expected.append(addr)
            left[addr] -= 1
            if not left[addr]:
                ready.remove(addr)
        trace = run(network, RandomPolicy(seed)).trace
        assert [e.address for e in trace if e.action == "LocalStep"] == expected


class TestLazyTraces:
    def test_run_result_renders_its_trace_when_read(self):
        result = run(p4_network(), RoundRobin())
        assert type(vars(result)["trace"]) is not list
        trace = result.trace
        assert type(trace) is list and all(type(e) is TraceEvent for e in trace)
        assert result.trace is trace
        assert result == RunResult(result.values, list(trace), result.steps)

    def test_deadlock_trace_equals_a_fresh_runs(self):
        network = Network({A: Seq(SendTo(B, S.Inl(U)), RecvFrom(B)),
                           B: Seq(RecvFrom(A), RecvFrom(A))}, A, False)
        for policy in POLICIES:
            errors = []
            for net in (network, fresh(network)):
                with pytest.raises(DeadlockError) as exc:
                    run(net, policy)
                errors.append(exc.value)
            shared, unshared = errors
            assert type(vars(shared)["trace"]) is not list
            assert shared.trace == unshared.trace
            assert any(e.payload == "inl ()" for e in shared.trace)
            assert (shared.waiting, shared.residuals) == (unshared.waiting,
                                                          unshared.residuals)


def agreement_outcome(result, expected, network: Network) -> str:
    if isinstance(result, NetError):
        return f"failed: {result}"
    got = result.values[network.result_address]
    return "agree" if S.expr_equal(got, expected) else f"disagree: got {local_str(got)}"


def same_result(a, b) -> bool:
    if isinstance(a, NetError) or isinstance(b, NetError):
        return (type(a), str(a)) == (type(b), str(b))
    return (a.values, a.trace, a.steps) == (b.values, b.trace, b.steps)


def test_agreement_matches_fresh_unshared_runs():
    # epp_agreement runs each distinct schedule once, from one start per
    # network; each outcome must be what a run on a network that has
    # never run gives.  The round robin at the end is a repeat.
    schedules = [RoundRobin()] + [RandomPolicy(s) for s in (3, 17, 4242, 90001)] + [RoundRobin()]
    programs, seed = 0, 0
    while programs < 200:
        preset = ("choreo", "doxastic", "siblings")[seed % 3]
        topo = load_preset(preset)
        program = ProgramGen(seed, topo, projectable=True).gen_program()
        seed += 1
        try:
            network = project_network(program, topo)
            report = epp_agreement(program, schedules, topo, network=network)
        except (ProjectionError, PreconditionError):
            continue
        programs += 1
        expected = expected_result(program, topo)
        for policy, (label, outcome) in zip(schedules, report.outcomes):
            try:
                result = run(fresh(network), policy)
            except NetError as err:
                result = err
            assert (label, outcome) == (netsim.policy_str(policy),
                                        agreement_outcome(result, expected, network))
            if policy is schedules[0]:
                assert same_result(report.first, result)


# ---------------------------------------------------------------------------
# Each process runs in one call-by-value order

# Programs from bench/progen's generator (seed, preset, projectable) that
# failed agreement while a process could act right of a waiting receive:
# such an action put a message on a channel ahead of one the choreography
# sends there first.
CALL_BY_VALUE_REGRESSIONS = json.loads(
    (Path(__file__).parent / "call_by_value_regressions.json").read_text())


def assert_agrees_and_replays(program, schedules, topology=None) -> None:
    report = epp_agreement(program, schedules, topology)
    assert report.agree, report.outcomes
    network = project_network(program, topology)
    for policy in schedules:
        assert_replays(network, policy)


@pytest.mark.parametrize("entry", CALL_BY_VALUE_REGRESSIONS,
                         ids=lambda entry: f"{entry['seed']}/{entry['preset']}")
def test_sweep_programs_agree_once_a_wait_blocks_its_process(entry):
    schedules = [RoundRobin()] + [RandomPolicy(n) for n in range(5)]
    assert_agrees_and_replays(parse_program(entry["source"]), schedules)


@pytest.mark.parametrize("seed, preset", [(569, "choreo"), (376, "doxastic")])
def test_generated_programs_agree_once_a_wait_blocks_its_process(seed, preset):
    topology = load_preset(preset)
    program = ProgramGen(seed, topology, projectable=True).gen_program()
    schedules = [RoundRobin()] + [RandomPolicy(n) for n in range(20)]
    assert_agrees_and_replays(program, schedules, topology)
