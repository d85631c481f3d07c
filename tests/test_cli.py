import contextlib
import io
import json
import os
import random
import re
import shlex
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from corps.cli import main
from corps.parser import parse_program
from corps.printer import pretty_print
from corps.topology import TopologyError
from corps.typecheck import resolve_topology
import genprog
from test_parse_golden import mutate

P4 = "topology choreo;\nmain : [B] unit = send A.() to [B];\n"
T_AXIOM = "topology doxastic;\nmain : unit = down [A] (A.());\n"
SEALED = ("topology doxastic;\n"
          "input b : [B] (unit + unit);\n"
          "main : [B] unit = let [] [B] y = b in "
          "B.(case y of inl u -> () | inr w -> ());\n")
FLOW = ("input b : [B] (unit + unit);\n"
        "main : [A] (unit + unit) = send b to [A];\n")


@pytest.fixture
def p4(tmp_path):
    path = tmp_path / "p4.corps"
    path.write_text(P4)
    return str(path)


# No well-typed program deadlocks, disagrees or interferes, so these stand
# a finding in for the check that would report it.

def fake_deadlock(monkeypatch):
    from corps import cli

    monkeypatch.setattr(cli.netsim, "epp_agreement",
                        lambda *a, **k: (_ for _ in ()).throw(
                            cli.netsim.DeadlockError({("A",): (("B",),)}, [], {})))


def fake_disagreement(monkeypatch):
    """Report each outcome of the real agreement check as a disagreement."""
    from corps import cli

    agreement = cli.netsim.epp_agreement

    def disagreeing(*args, **kwargs):
        report = agreement(*args, **kwargs)
        return cli.netsim.AgreementReport(False, report.expected, [
            (label, "disagree: got skip") for label, _ in report.outcomes], report.first)

    monkeypatch.setattr(cli.netsim, "epp_agreement", disagreeing)


def fake_interference(monkeypatch):
    from corps import cli
    from corps.syntax import UnitVal

    witness = cli.nicheck.Witness(UnitVal(), UnitVal(), (), ())
    monkeypatch.setattr(cli.nicheck, "ni_check", lambda *a, **k: cli.nicheck.Verdict(
        "InterferenceFound", ("B",), ("A",), 2, witness))


class TestCheck:
    def test_ok(self, p4, capsys):
        assert main(["check", p4]) == 0
        assert "OK : [B] unit" in capsys.readouterr().out

    def test_type_error_exit_1(self, tmp_path, capsys):
        path = tmp_path / "t.corps"
        path.write_text(T_AXIOM)
        assert main(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert "[Down]" in err and "candown([], [A])" in err

    def test_parse_error_exit_2(self, tmp_path):
        path = tmp_path / "bad.corps"
        path.write_text("main : unit = fst ;")
        assert main(["check", str(path)]) == 2

    def test_missing_file_exit_4(self):
        assert main(["check", "/nowhere/nothing.corps"]) == 4

    def test_topology_flag_overrides_header(self, tmp_path, capsys):
        path = tmp_path / "p.corps"
        path.write_text("topology doxastic;\nmain : [B] unit = send A.() to [B];\n")
        assert main(["check", str(path)]) == 1
        capsys.readouterr()
        assert main(["check", str(path), "--topology", "choreo"]) == 0

    def test_topology_file(self, tmp_path, capsys):
        topo = tmp_path / "ab.topo"
        topo.write_text("cansend: A => B\n")
        path = tmp_path / "p.corps"
        path.write_text("main : [B] unit = send A.() to [B];\n")
        assert main(["check", str(path), "--topology", str(topo)]) == 0

    def test_derivation_mentions_viewpoints(self, p4, capsys):
        assert main(["check", p4, "--derivation"]) == 0
        out = capsys.readouterr().out
        assert "point of view" in out
        assert "Send" in out

    def test_derivation_lists_every_error(self, tmp_path, capsys):
        path = tmp_path / "two.corps"
        path.write_text("topology doxastic;\n"
                        "def d : unit = down [A] (A.());\n" + T_AXIOM.split("\n")[1])
        assert main(["check", str(path)]) == 1
        plain = capsys.readouterr()
        assert main(["check", str(path), "--derivation"]) == 1
        derived = capsys.readouterr()
        assert derived.out == "" and derived.err == plain.err
        assert plain.err.count("[Down]") == 2

    def test_deep_nesting_exit_2(self, tmp_path, capsys):
        path = tmp_path / "deep.corps"
        path.write_text("main : unit = " + "(" * 300 + "()" + ")" * 300 + ";\n")
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        # The 257th parenthesis opens one level more than MAX_NESTING.
        assert err.strip() == f"{path}:270-271: input nests too deeply"
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["application", "arrows"])
    def test_long_operator_chain_exit_2(self, tmp_path, capsys, kind):
        path = tmp_path / "chain.corps"
        if kind == "application":
            head = "main : unit = (fun f -> () : unit -> unit)"
            path.write_text(head + " ()" * 3_000 + ";\n")
            at = len(head) + 256 * len(" ()") + 1  # the 257th argument
        else:
            path.write_text("main : unit" + " -> unit" * 3_000 + " = ();\n")
            at = len("main : unit") + 256 * len(" -> unit") + 1  # the 257th arrow
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.strip() == f"{path}:{at}-{at + 2}: input nests too deeply"


# Programs whose normal forms are canonical values: a pair holding an
# unannotated injection, directly, under a function or located at A, and
# a pair holding a located injection.
CANONICAL = (
    ("main : (unit + unit) * unit = ((fun x -> (x, ())) : "
     "unit + unit -> (unit + unit) * unit) (inl ());", "(inl (), ())", "[]"),
    ("main : unit -> (unit + unit) * unit = ((fun x -> fun y -> (x, y)) : "
     "unit + unit -> unit -> (unit + unit) * unit) (inl ());",
     "fun y -> (inl (), y)", "[]"),
    ("main : [A] (unit -> (unit + unit) * unit) = A.(((fun x -> fun y -> (x, y)) : "
     "unit + unit -> unit -> (unit + unit) * unit) (inl ()));",
     "fun y -> (inl (), y)", "[A]"),
    ("main : [A] (unit + unit) * unit = "
     "(A.(((fun x -> x) : unit + unit -> unit + unit) (inl ())), ());", "(skip, ())", "[]"),
)


class TestCanonicalValues:
    """The expected result of a run projects a normal form, whose
    injections carry no annotations; `corps check` still asks for them."""

    @pytest.mark.parametrize("source, value, address", CANONICAL)
    def test_simulate_projects_the_normal_form(self, tmp_path, capsys, source,
                                               value, address):
        path = tmp_path / "c.corps"
        path.write_text(source)
        assert main(["simulate", str(path)]) == 0
        assert f"AGREE (1 runs; expected {value} at {address})" in capsys.readouterr().out

    @pytest.mark.parametrize("source", ["main : (unit + unit) * unit = (inl (), ());",
                                        "main : [A] (unit + unit) = A.(inl ());"])
    def test_check_rejects_them_as_programs(self, tmp_path, capsys, source):
        path = tmp_path / "c.corps"
        path.write_text(source)
        assert main(["check", str(path)]) == 1
        assert ("[Infer] cannot infer the type of an injection; annotate it"
                in capsys.readouterr().err)


class TestNormalize:
    def test_positive(self, p4, capsys):
        assert main(["normalize", p4, "--mode", "positive"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "B.()"
        assert "Value" in out

    def test_comm_free(self, p4, capsys):
        assert main(["normalize", p4, "--mode", "comm-free"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "send A.() to [B]"
        assert "CommNeutral" in out

    def test_fuel_zero_usage_error(self, p4):
        assert main(["normalize", p4, "--fuel", "0"]) == 4

    def test_trace_file(self, p4, tmp_path, capsys):
        trace = tmp_path / "steps.jsonl"
        assert main(["normalize", p4, "--trace", str(trace)]) == 0
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert records and records[0]["rule"] == "send"
        assert set(records[0]) == {"index", "rule", "redex"}

    def test_trace_spans_survive_rebuilt_contexts(self, tmp_path, capsys):
        path = tmp_path / "chain.corps"
        path.write_text(
            "topology choreo;\nmain : [A] unit = send (send (send (send "
            "(A.()) to [B]) to [A]) to [B]) to [A];\n")
        trace = tmp_path / "steps.jsonl"
        assert main(["normalize", str(path), "--trace", str(trace)]) == 0
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert [r["rule"] for r in records] == ["send"] * 4
        spans = []
        for record in records:
            file, offsets = record["redex"].rsplit(":", 1)
            assert file == str(path)
            start, end = map(int, offsets.split("-"))
            spans.append((start, end))
        # innermost send first; each later redex strictly encloses the last
        for inner, outer in zip(spans, spans[1:]):
            assert outer[0] < inner[0] and inner[1] < outer[1]

    def test_trace_spans_survive_substitution(self, tmp_path, capsys):
        # Every step here rewrites a term built by substitution (the inlined
        # def, or a reduct); each redex still reports its source span.
        path = tmp_path / "subst.corps"
        path.write_text(
            "def f : unit -> unit = fun x -> x;\n"
            "main : unit = let [] [A] y = A.(()) in ((fun z -> z) : unit -> unit) "
            "(case (inl () : unit + unit) of inl a -> f a | inr b -> b);\n")
        trace = tmp_path / "steps.jsonl"
        assert main(["normalize", str(path), "--trace", str(trace)]) == 0
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert [r["rule"] for r in records] == ["modal-let", "case-inl", "beta", "beta"]
        assert all(r["redex"] and r["redex"].startswith(str(path)) for r in records)


class TestProject:
    def test_agent(self, p4, capsys):
        assert main(["project", p4, "--agent", "[A]"]) == 0
        assert capsys.readouterr().out.strip() == "send_to [B] ()"

    def test_uninvolved_agent(self, p4, capsys):
        assert main(["project", p4, "--agent", "[C]"]) == 0
        assert capsys.readouterr().out.strip() == "skip"

    def test_all(self, p4, capsys):
        assert main(["project", p4, "--all"]) == 0
        out = capsys.readouterr().out
        assert "process []: skip" in out
        assert "process [A]: send_to [B] ()" in out
        assert "process [B]: recv_from [A]" in out

    def test_emit_is_not_an_option(self, p4, capsys):
        assert main(["project", p4, "--emit"]) == 4

    def test_merge_conflict_exit_1(self, tmp_path, capsys):
        path = tmp_path / "conflict.corps"
        path.write_text(
            "topology doxastic;\n"
            "main : [A] unit = case (inl () : unit + unit) of "
            "inl x -> A.() | "
            "inr y -> let [] [A] z = A.(up [A] ()) in A.(down [A] z);\n")
        assert main(["project", str(path), "--all"]) == 1
        assert "not projectable" in capsys.readouterr().err


class TestSimulate:
    def test_p4_agrees(self, p4, capsys):
        assert main(["simulate", p4, "--schedule", "random", "--seed", "3",
                     "--runs", "10"]) == 0
        out = capsys.readouterr().out
        assert "AGREE" in out
        assert "[B]: ()" in out

    def test_trace_file(self, p4, tmp_path):
        trace = tmp_path / "run.jsonl"
        assert main(["simulate", p4, "--trace", str(trace)]) == 0
        header, *records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert header == {"policy": "rr", "seed": None, "fuel": 100_000}
        actions = [r["action"] for r in records]
        assert "Send" in actions and "Recv" in actions

    def test_trace_header_replays_the_run(self, p4, tmp_path):
        first, again = tmp_path / "first.jsonl", tmp_path / "again.jsonl"
        assert main(["simulate", p4, "--schedule", "random", "--seed", "5",
                     "--runs", "3", "--fuel", "50", "--trace", str(first)]) == 0
        header = json.loads(first.read_text().splitlines()[0])
        assert header == {"policy": "random", "seed": 5, "fuel": 50}
        assert main(["simulate", p4, "--schedule", header["policy"],
                     "--seed", str(header["seed"]), "--fuel", str(header["fuel"]),
                     "--trace", str(again)]) == 0
        assert again.read_text() == first.read_text()

    def test_repeated_round_robin_runs_once(self, p4, capsys, monkeypatch):
        # A run is a function of (network, policy, fuel), so fifty
        # round-robin runs are one run reported fifty times.
        from corps import netsim

        calls = []
        real_run = netsim.run
        monkeypatch.setattr(netsim, "run", lambda *a: calls.append(a) or real_run(*a))
        assert main(["simulate", p4, "--schedule", "rr", "--runs", "50"]) == 0
        assert len(calls) == 1
        assert "AGREE (50 runs; expected () at [B])" in capsys.readouterr().out

    def test_open_program_usage_error(self, tmp_path):
        path = tmp_path / "open.corps"
        path.write_text(SEALED)
        assert main(["simulate", str(path)]) == 4

    def test_a_network_it_cannot_compare_exit_1(self, tmp_path, capsys):
        # Well typed and projectable, but a function crosses the wire, so
        # the choreography's normal form is not a value to compare with:
        # neither the invocation nor the program is at fault.
        path = tmp_path / "fn.corps"
        path.write_text("main : [A] (unit -> unit) = send ((fun x -> () : unit -> unit)) "
                        "to [A];\n")
        assert main(["project", str(path), "--all"]) == 0
        capsys.readouterr()
        assert main(["simulate", str(path)]) == 1
        assert capsys.readouterr() == ("", "not comparable: a communication payload "
                                           "mentions a function; excluded from agreement\n")

    def test_the_program_is_projected_once(self, p4, capsys, monkeypatch):
        # The agreement check projects the program; the command does not
        # project it again.
        from corps import projection

        walks = []
        real = projection._project_program
        monkeypatch.setattr(projection, "_project_program",
                            lambda *a: walks.append(a) or real(*a))
        assert main(["simulate", p4, "--schedule", "random", "--runs", "3"]) == 0
        assert len(walks) == 1
        assert "AGREE (3 runs; expected () at [B])" in capsys.readouterr().out

    def test_deadlock_finding_exit_3(self, p4, capsys, monkeypatch):
        # No well-typed program deadlocks, so a cycle of two waits stands
        # in for the agreement check to drive the finding path end to end.
        from corps import cli

        monkeypatch.setattr(cli.netsim, "epp_agreement",
                            lambda *a, **k: (_ for _ in ()).throw(
                                cli.netsim.DeadlockError({("A",): (("B",),),
                                                          ("B",): (("A",),)},
                                                         [], {})))
        assert main(["simulate", p4]) == 3
        err = capsys.readouterr().err
        assert "deadlock" in err and "waits on" in err
        assert "replay:" in err

    @pytest.mark.parametrize("flags, tail", [([], ""), (["--topology", "choreo"],
                                                         " --topology choreo")])
    def test_deadlock_replay_keeps_the_topology(self, p4, capsys, monkeypatch,
                                                flags, tail):
        fake_deadlock(monkeypatch)
        assert main(["simulate", p4, "--schedule", "random", "--seed", "4"] + flags) == 3
        assert capsys.readouterr().err.splitlines() == [
            "deadlock: [A] waits on [B]",
            f"replay: corps simulate {p4} --schedule random --seed 4{tail}"]

    @pytest.mark.parametrize("flags, tail", [([], ""), (["--topology", "choreo"],
                                                         " --topology choreo")])
    def test_disagree_replay_keeps_the_topology(self, p4, capsys, monkeypatch,
                                                flags, tail):
        fake_disagreement(monkeypatch)
        assert main(["simulate", p4, "--schedule", "random", "--seed", "2",
                     "--runs", "2"] + flags) == 3
        assert capsys.readouterr().err.splitlines() == [
            "DISAGREE",
            "  random:2: disagree: got skip",
            f"  replay: corps simulate {p4} --schedule random --seed 2{tail}",
            "  random:3: disagree: got skip",
            f"  replay: corps simulate {p4} --schedule random --seed 3{tail}"]

    def test_trace_header_keeps_the_topology(self, p4, tmp_path):
        first, again = tmp_path / "first.jsonl", tmp_path / "again.jsonl"
        assert main(["simulate", p4, "--topology", "siblings",
                     "--trace", str(first)]) == 0
        header = json.loads(first.read_text().splitlines()[0])
        assert header == {"policy": "rr", "seed": None, "fuel": 100_000,
                          "topology": "siblings"}
        assert main(["simulate", p4, "--schedule", header["policy"],
                     "--fuel", str(header["fuel"]), "--topology", header["topology"],
                     "--trace", str(again)]) == 0
        assert again.read_text() == first.read_text()

    def test_normalize_fuel_exhausted_exit_3(self, tmp_path, capsys):
        # Normalizing the two sends takes more than one step, before any
        # network runs.
        path = tmp_path / "two.corps"
        path.write_text("topology choreo;\n"
                        "main : [A] unit = send (send A.() to [B]) to [A];\n")
        assert main(["simulate", str(path), "--fuel", "1"]) == 3
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "fuel exhausted after 1 steps of normalizing the choreography"]

    def test_network_fuel_exhausted_exit_3(self, p4, capsys):
        # One normalize step suffices, but the network needs a send and a
        # receive.
        assert main(["simulate", p4, "--fuel", "1"]) == 3
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "run failed: network made no progress to completion within 1 steps"]

    def test_stuck_run_exit_3(self, p4, capsys, monkeypatch):
        # A well-typed program whose network gets stuck is a projection
        # defect, so stand one in for the first run.
        from corps import netsim

        def stuck(*args, **kwargs):
            raise netsim.NetStuck("case of non-sum value in [B]")

        monkeypatch.setattr(netsim, "run", stuck)
        assert main(["simulate", p4]) == 3
        err = capsys.readouterr().err
        assert err.splitlines() == ["run failed: case of non-sum value in [B]"]


class TestNi:
    def test_secure(self, tmp_path, capsys):
        path = tmp_path / "sealed.corps"
        path.write_text(SEALED)
        assert main(["ni", str(path), "--input", "b", "--observe", "[A]",
                     "--values", "B.(inl ()),B.(inr ())"]) == 0
        assert "Secure" in capsys.readouterr().out

    def test_flow_permitted(self, tmp_path, capsys):
        topo = tmp_path / "ba.topo"
        topo.write_text("cansend: B => A\n")
        path = tmp_path / "flow.corps"
        path.write_text(FLOW)
        assert main(["ni", str(path), "--topology", str(topo),
                     "--input", "b", "--observe", "[A]",
                     "--values", "B.(inl ()),B.(inr ())"]) == 0
        assert "FlowPermitted" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, tail", [([], ""), (["--topology", "doxastic"],
                                                         " --topology doxastic")])
    def test_interference_replay_keeps_the_topology(self, tmp_path, capsys,
                                                    monkeypatch, flags, tail):
        path = tmp_path / "sealed.corps"
        path.write_text(SEALED)
        fake_interference(monkeypatch)
        assert main(["ni", str(path), "--input", "b", "--observe", "[A]",
                     "--values", "B.(inl ()),B.(inr ())"] + flags) == 3
        line = f"corps ni {path} --input b --observe '[A]' --values '(),()'{tail}"
        assert capsys.readouterr().err.splitlines() == [f"replay: {line}"]
        assert shlex.split(line) == ["corps", "ni", str(path), "--input", "b",
                                     "--observe", "[A]", "--values", "(),()", *flags]

    @pytest.mark.parametrize("program, topology", [(FLOW, "cansend: B => A\n"),
                                                   (SEALED, None)],
                             ids=["flow-permitted", "secure"])
    @pytest.mark.parametrize("fuel", ["0", "-3"])
    def test_non_positive_fuel_usage_error(self, tmp_path, capsys, program, topology, fuel):
        # Rejected before any check: a FlowPermitted verdict makes no run
        # that could reject it later.
        path = tmp_path / "p.corps"
        path.write_text(program)
        flags = []
        if topology is not None:
            (tmp_path / "ba.topo").write_text(topology)
            flags = ["--topology", str(tmp_path / "ba.topo")]
        assert main(["ni", str(path), "--input", "b", "--observe", "[A]",
                     "--values", "B.(inl ()),B.(inr ())", "--fuel", fuel] + flags) == 4
        out, err = capsys.readouterr()
        assert (out, err) == ("", "usage error: --fuel must be positive\n")

    def test_run_out_of_fuel_usage_error(self, tmp_path, capsys):
        path = tmp_path / "sealed.corps"
        path.write_text(SEALED)
        assert main(["ni", str(path), "--input", "b", "--observe", "[A]",
                     "--values", "B.(inl ()),B.(inr ())", "--fuel", "1"]) == 4
        out, err = capsys.readouterr()
        assert (out, err) == ("", "usage error: run failed for input B.(inl ()): "
                                  "network made no progress to completion within 1 steps\n")

    def test_value_annotated_with_the_input_type(self, tmp_path, capsys):
        path = tmp_path / "sealed.corps"
        path.write_text(SEALED)
        for annotated in ("(inl () : unit + unit)", "inl ()"):
            assert main(["ni", str(path), "--input", "b", "--observe", "[A]",
                         "--values", f"B.({annotated}),B.(inr ())"]) == 0
            assert capsys.readouterr().out == (
                "Secure: 2 runs, observer [A] saw identical observations for every "
                "input value\n")
        assert main(["ni", str(path), "--input", "b", "--observe", "[A]",
                     "--values", "B.((inl () : unit + void)),B.(inr ())"]) == 4
        assert capsys.readouterr().err == (
            "usage error: (inl () : unit + void) is not a canonical value of type "
            "unit + unit\n")

    def test_bad_values_usage_error(self, tmp_path, capsys):
        path = tmp_path / "sealed.corps"
        path.write_text(SEALED)
        assert main(["ni", str(path), "--input", "b", "--observe", "[A]",
                     "--values", "B.(inl ())"]) == 4


# A flag that fails to parse is named where a program file would be.
@pytest.mark.parametrize("flags, line", [
    (["project", "--agent", "[a]"], "--agent:1-2: found 'a' (expected agent name)"),
    (["ni", "--input", "b", "--observe", "[a]", "--values", "B.(inl ()),B.(inr ())"],
     "--observe:1-2: found 'a' (expected agent name)"),
    (["ni", "--input", "b", "--observe", "[A]", "--values", "B.(inl ()),inr ("],
     "--values:16-17: found 'end of input' where an expression was expected "
     "(expected (, (), agent, identifier)"),
    # the position counts the blanks before a value too
    (["ni", "--input", "b", "--observe", "[A]", "--values", "B.(inl ()),  inr ( "],
     "--values:19-20: found 'end of input' where an expression was expected "
     "(expected (, (), agent, identifier)"),
], ids=["agent", "observe", "values", "values-with-blanks"])
def test_a_flag_that_fails_to_parse_is_named(tmp_path, capsys, flags, line):
    path = tmp_path / "sealed.corps"
    path.write_text(SEALED)
    assert main([flags[0], str(path), *flags[1:]]) == 2
    assert capsys.readouterr() == ("", line + "\n")


# Two faults in one invocation: the exit code and the first line on stderr
# are those of the fault that comes first in the reporting order (flags,
# file, topology, check, the subcommand's own usage checks).
OPEN_TYPE_ERROR = ("topology doxastic;\ninput b : [B] (unit + unit);\n"
                   "main : unit = down [A] (A.());\n")


@pytest.mark.parametrize("source, flags, code, first", [
    ("main : unit = fst ;", ["simulate", "--runs", "0"], 4,
     "usage error: --runs must be positive"),
    ("main : unit = fst ;", ["simulate", "--runs", "0", "--fuel", "0"], 4,
     "usage error: --runs must be positive"),
    ("main : unit = fst ;", ["check", "--topology", "missing.topo"], 2,
     "{path}:18-19: found ';' where an expression was expected "
     "(expected (, (), agent, identifier)"),
    (T_AXIOM, ["project"], 1,
     "{path}:33-48: [Down] candown([], [A]) does not hold (viewpoint [])"),
    (OPEN_TYPE_ERROR, ["simulate"], 1,
     "{path}:62-77: [Down] candown([], [A]) does not hold (viewpoint [])"),
    (OPEN_TYPE_ERROR, ["ni", "--input", "b", "--observe", "[a]", "--values", "(,"], 1,
     "{path}:62-77: [Down] candown([], [A]) does not hold (viewpoint [])"),
    (SEALED, ["simulate", "--fuel", "0"], 4, "usage error: --fuel must be positive"),
], ids=["parse-runs", "parse-runs-fuel", "parse-topology", "type-project",
        "type-open", "type-values", "open-fuel"])
def test_the_first_fault_in_reporting_order_is_reported(tmp_path, capsys, source,
                                                        flags, code, first):
    path = tmp_path / "p.corps"
    path.write_text(source)
    assert main([flags[0], str(path), *flags[1:]]) == code
    assert capsys.readouterr().err.splitlines()[0] == first.format(path=path)


class TestNotUtf8:
    """A program or `.topo` file that is not UTF-8 is a parse error (exit
    2), reported in one line that names the file."""

    BYTES = b"main : unit = \xff();\n"
    REASON = "'utf-8' codec can't decode byte 0xff in position {}: invalid start byte"

    def test_program_file(self, tmp_path, capsys):
        path = tmp_path / "bad.corps"
        path.write_bytes(self.BYTES)
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr() == ("", f"{path}: {self.REASON.format(14)}\n")

    @pytest.mark.parametrize("source, flags", [
        ('topology "bad.topo";\nmain : unit = ();\n', []),
        ("main : unit = ();\n", ["--topology", "bad.topo"]),
    ], ids=["header", "flag"])
    def test_topology_file(self, tmp_path, capsys, source, flags):
        (tmp_path / "bad.topo").write_bytes(b"cansend: A => B\xff\n")
        path = tmp_path / "p.corps"
        path.write_text(source)
        assert main(["check", str(path), *flags]) == 2
        assert capsys.readouterr() == (
            "", f"topology error: {tmp_path / 'bad.topo'}: {self.REASON.format(15)}\n")


@pytest.mark.parametrize("source, flags, name, reason", [
    ("main : unit = ();\n", ["--topology", "missing.topo"], "missing.topo",
     "No such file or directory"),
    ('topology "missing.topo";\nmain : unit = ();\n', [], "missing.topo",
     "No such file or directory"),
    ("main : unit = ();\n", ["--topology", "rules"], "rules", "Is a directory"),
], ids=["flag", "header", "directory"])
def test_a_topology_file_that_cannot_be_read(tmp_path, capsys, source, flags, name, reason):
    """A `.topo` file that is missing or is not a file is a topology error
    (exit 2), reported in one line that names the path."""
    (tmp_path / "rules").mkdir()
    path = tmp_path / "p.corps"
    path.write_text(source)
    message = f"{tmp_path / name}: {reason}"
    with pytest.raises(TopologyError, match=f"^{re.escape(message)}$"):
        resolve_topology(parse_program(source), flags[1] if flags else None, str(tmp_path))
    assert main(["check", str(path), *flags]) == 2
    assert capsys.readouterr() == ("", f"topology error: {message}\n")


@pytest.mark.parametrize("command", ["normalize", "simulate"])
@pytest.mark.parametrize("target, reason", [
    ("out", "Is a directory"), ("missing/steps.jsonl", "No such file or directory"),
], ids=["directory", "missing-parent"])
def test_a_trace_path_that_cannot_be_written(p4, tmp_path, capsys, command, target, reason):
    """A `--trace` file that cannot be opened is a usage error (exit 4),
    reported in one line that names the path."""
    (tmp_path / "out").mkdir()
    trace = str(tmp_path / target)
    assert main([command, p4, "--trace", trace]) == 4
    assert capsys.readouterr() == ("", f"usage error: --trace {trace}: {reason}\n")


@pytest.mark.parametrize("command", ["check", "normalize"])
def test_a_program_path_that_cannot_be_read(tmp_path, capsys, command):
    """A FILE that exists but cannot be read, such as a directory, is a
    usage error (exit 4), reported in one line that names the path."""
    path = str(tmp_path)
    assert main([command, path]) == 4
    assert capsys.readouterr() == ("", f"usage error: {path}: Is a directory\n")


class TestReplayQuoting:
    """A replay line splits, as a shell splits it, into the arguments of the
    run it replays, also when the file or the topology file has a space in
    its name."""

    @pytest.fixture
    def spaced(self, tmp_path):
        program, topology = tmp_path / "my p4.corps", tmp_path / "my choreo.topo"
        program.write_text(P4)
        topology.write_text("cansend: A => B\n")
        return str(program), str(topology)

    @staticmethod
    def replays(err: str) -> list[list[str]]:
        return [shlex.split(line.split("replay: ", 1)[1])
                for line in err.splitlines() if "replay: " in line]

    def test_deadlock(self, spaced, capsys, monkeypatch):
        fake_deadlock(monkeypatch)
        path, topo = spaced
        args = ["simulate", path, "--schedule", "random", "--seed", "4", "--topology", topo]
        assert main(args) == 3
        assert self.replays(capsys.readouterr().err) == [["corps", *args]]

    @pytest.mark.parametrize("schedule", [["rr"], ["random", "--seed", "2"]])
    def test_disagree(self, spaced, capsys, monkeypatch, schedule):
        fake_disagreement(monkeypatch)
        path, topo = spaced
        args = ["simulate", path, "--schedule", *schedule, "--topology", topo]
        assert main(args) == 3
        assert self.replays(capsys.readouterr().err) == [["corps", *args]]

    def test_interference(self, tmp_path, capsys, monkeypatch):
        fake_interference(monkeypatch)
        path, topo = tmp_path / "my sealed.corps", tmp_path / "my doxastic.topo"
        path.write_text(SEALED)
        topo.write_text("cansend: B => A\n")
        flags = ["--input", "b", "--observe", "[A]"]
        assert main(["ni", str(path), *flags, "--values", "B.(inl ()),B.(inr ())",
                     "--topology", str(topo)]) == 3
        err = capsys.readouterr().err
        assert " --observe '[A]' " in err
        assert self.replays(err) == [[
            "corps", "ni", str(path), *flags, "--values", "(),()", "--topology", str(topo)]]


# `f` is used under a lock past its binding: `check_program` and
# projection both reject it, and the CLI prints the check's error.
ESCAPING_DEF = "topology choreo;\ndef f : unit = ();\nmain : [A] unit = A.(f);\n"


@pytest.mark.parametrize("flags", [["project", "--all"], ["project", "--agent", "[A]"],
                                   ["simulate"]], ids=["all", "agent", "simulate"])
def test_a_definition_that_fails_under_a_lock_is_not_projected(tmp_path, capsys, flags):
    path = tmp_path / "f.corps"
    path.write_text(ESCAPING_DEF)
    assert main([flags[0], str(path)] + flags[1:]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"{path}:57-58: [Axiom] variable 'f' is tagged [] but is used "
                   "under locks [A] past its binding (viewpoint [A])\n")


# Each subcommand under the flags that change its path through the
# pipeline; the fuel is small so that every run stays short, and some
# run out of it.
FLAG_SETS = (
    ["check"],
    ["check", "--derivation"],
    ["normalize", "--fuel", "5"],
    ["normalize", "--mode", "comm-free", "--fuel", "500"],
    ["project", "--all"],
    ["project", "--agent", "[A]"],
    ["simulate", "--schedule", "random", "--runs", "2", "--fuel", "50"],
    ["ni", "--input", "x", "--observe", "[A]", "--values", "inl (),inr ()",
     "--fuel", "500"],
)
# Flags that are a fault of their own, so that a mutated program has two:
# which of them is reported follows the CLI's reporting order.
SECOND_FAULTS = (
    ["check", "--topology", "missing.topo"],
    ["normalize", "--fuel", "0"],
    ["project"],
    ["project", "--agent", "[a]"],
    ["simulate", "--fuel", "0"],
    ["simulate", "--runs", "0", "--fuel", "0"],
    ["ni", "--input", "x", "--observe", "[A]", "--values", "inl (),inr ()",
     "--fuel", "0"],
    ["ni", "--input", "x", "--observe", "[a]", "--values", "(,"],
)
CLI_GOLDEN = os.path.join(os.path.dirname(__file__), "cli_golden.json")


def cli_outputs() -> dict:
    """Exit code, stdout and stderr of generated programs, three in four of
    them mutated once, under every flag set.  The temporary directory the
    program is written to reads `<tmp>`."""
    got = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.corps")
        for preset in ("choreo", "siblings", "doxastic"):
            for seed in range(30):
                rng = random.Random(f"cli/{preset}/{seed}")
                text = pretty_print(genprog.program(seed, preset, depth=5))
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(mutate(text, rng) if seed % 4 else text)
                for flags in FLAG_SETS + SECOND_FAULTS:
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = main([flags[0], path] + flags[1:])
                    got[f"{preset}/{seed} {shlex.join(flags)}"] = {
                        "exit": code, "stdout": out.getvalue().replace(tmp, "<tmp>"),
                        "stderr": err.getvalue().replace(tmp, "<tmp>")}
    return got


def test_exit_codes_on_mutated_programs():
    """Every run ends with a documented exit code, each code occurs, and
    the output matches `cli_golden.json` byte for byte.  Regenerate the
    golden (only when a change of CLI output is intended) with

        PYTHONPATH=src:bench python tests/test_cli.py
    """
    got = cli_outputs()
    codes = {record["exit"] for record in got.values()}
    assert codes == set(range(5))
    with open(CLI_GOLDEN, encoding="utf-8") as handle:
        expected = json.load(handle)
    assert got.keys() == expected.keys()
    diffs = [key for key in expected if got[key] != expected[key]]
    assert not diffs, (len(diffs), diffs[:3], [got[k] for k in diffs[:3]])


# Arbitrary text, or a program that gets past the parser, under arbitrary
# flags: zero and negative counts, malformed addresses, missing and
# malformed topology files, and now and then a flag the subcommand does not
# take.  Numbers stay small, so every run is short.
NUMBERS = st.one_of(st.integers(-3, 0), st.integers(1, 50)).map(str)
ADDRESSES = st.one_of(st.sampled_from(("[A]", "[B]", "[A.B]", "[]", "[", "A", "[A.",
                                       "[a]", "[A B]", "")),
                      st.text(max_size=6))
FLAG_VALUES = {
    "--fuel": NUMBERS, "--runs": NUMBERS, "--trials": NUMBERS, "--seed": NUMBERS,
    "--schedule": st.sampled_from(("rr", "random", "fifo")),
    "--mode": st.sampled_from(("comm-free", "positive", "eager")),
    "--agent": ADDRESSES, "--observe": ADDRESSES,
    "--input": st.sampled_from(("b", "x", "nothing")),
    "--values": st.sampled_from(("B.(inl ()),B.(inr ())", "inl (),inr ()", "()",
                                 "(,", "")),
    # File names are made paths in the test's directory.
    "--topology": st.sampled_from(("choreo", "siblings", "doxastic", "missing.topo",
                                   "bad.topo", "ab.topo")),
    "--trace": st.sampled_from(("trace.jsonl", ".")),
    "--all": st.none(), "--derivation": st.none(),
}
TAKES = {
    "check": ("--topology", "--derivation"),
    "normalize": ("--topology", "--mode", "--fuel", "--trace"),
    "project": ("--topology", "--agent", "--all"),
    "simulate": ("--topology", "--schedule", "--seed", "--runs", "--fuel", "--trace"),
    "ni": ("--topology", "--input", "--observe", "--values", "--fuel"),
}
REQUIRED = {"ni": ["--input", "--observe", "--values"]}
CLI_TEXTS = st.one_of(st.sampled_from((P4, T_AXIOM, SEALED, ESCAPING_DEF)),
                      st.text(st.characters(blacklist_categories=("Cs",)), max_size=80),
                      st.binary(max_size=80))


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(tuple(TAKES)))
    names = REQUIRED.get(command, []) + draw(
        st.lists(st.sampled_from(TAKES[command]), max_size=4))
    if draw(st.integers(0, 9)) == 0:
        names.append(draw(st.sampled_from(tuple(FLAG_VALUES))))
    flags = []
    for name in names:
        value = draw(FLAG_VALUES[name])
        flags += [name] if value is None else [name, value]
    return command, flags


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "ab.topo").write_text("cansend: A => B\n")
    (root / "bad.topo").write_text("cansend A B\n")
    return root


@settings(derandomize=True, max_examples=200, deadline=None)
@given(CLI_TEXTS, invocations())
@example(P4, ("simulate", ["--fuel", "0"]))  # once a ValueError traceback
def test_any_text_under_any_flags_ends_with_an_exit_code(cli_dir, text, invocation):
    command, flags = invocation
    path = cli_dir / "any.corps"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    flags = [str(cli_dir / flag) if flag.endswith((".topo", ".jsonl")) or flag == "."
             else flag for flag in flags]
    code = main([command, str(path)] + flags)
    assert type(code) is int and code in range(5), (command, text, flags)


if __name__ == "__main__":
    with open(CLI_GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(cli_outputs(), handle, indent=1, sort_keys=True)
        handle.write("\n")
