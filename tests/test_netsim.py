import json

import pytest

from corps import syntax as S
from corps.netsim import (
    DeadlockError, NetStuck, Network, PreconditionError, RandomPolicy,
    RoundRobin, check_deadlock_free, epp_agreement, expected_result,
    is_local_value, run,
)
from corps.parser import parse_program
from corps.projection import SKIP, RecvFrom, SendTo, Seq, project_network
from corps.topology import load_preset
from genprog import ProgramGen

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
    def test_suite_program_clean(self):
        report = check_deadlock_free(parse_program(P4), trials=50)
        assert report.trials == 50 and report.clean

    def test_zero_trials_empty_report(self):
        report = check_deadlock_free(parse_program(P4), trials=0)
        assert report.trials == 0 and report.clean

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
