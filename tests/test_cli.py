import json
import random

import pytest

from corps.cli import main
from corps.printer import pretty_print
from corps.topology import load_preset
from genprog import ProgramGen
from test_parse_golden import mutate

P4 = "topology choreo;\nmain : [B] unit = send A.() to [B];\n"
T_AXIOM = "topology doxastic;\nmain : unit = down [A] (A.());\n"
SEALED = ("topology doxastic;\n"
          "input b : [B] (unit + unit);\n"
          "main : [B] unit = let [] [B] y = b in "
          "B.(case y of inl u -> () | inr w -> ());\n")


@pytest.fixture
def p4(tmp_path):
    path = tmp_path / "p4.corps"
    path.write_text(P4)
    return str(path)


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

    def test_deadlock_finding_exit_3(self, p4, capsys, monkeypatch):
        # No well-typed program deadlocks, so splice the cyclic fixture in
        # behind the projection to drive the finding path end to end.
        from corps import cli
        from corps.projection import Network, RecvFrom

        cyclic = Network({("A",): RecvFrom(("B",)), ("B",): RecvFrom(("A",))},
                         ("A",), False)
        monkeypatch.setattr(cli, "project_network", lambda *a, **k: cyclic)
        monkeypatch.setattr(cli.netsim, "epp_agreement",
                            lambda *a, **k: (_ for _ in ()).throw(
                                cli.netsim.DeadlockError({("A",): (("B",),),
                                                          ("B",): (("A",),)},
                                                         [], {})))
        assert main(["simulate", p4]) == 3
        err = capsys.readouterr().err
        assert "deadlock" in err and "waits on" in err
        assert "replay:" in err

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
                     "--values", "B.(inl ()),B.(inr ())", "--trials", "3"]) == 0
        assert "Secure" in capsys.readouterr().out

    def test_flow_permitted(self, tmp_path, capsys):
        topo = tmp_path / "ba.topo"
        topo.write_text("cansend: B => A\n")
        path = tmp_path / "flow.corps"
        path.write_text("input b : [B] (unit + unit);\n"
                        "main : [A] (unit + unit) = send b to [A];\n")
        assert main(["ni", str(path), "--topology", str(topo),
                     "--input", "b", "--observe", "[A]",
                     "--values", "B.(inl ()),B.(inr ())"]) == 0
        assert "FlowPermitted" in capsys.readouterr().out

    def test_bad_values_usage_error(self, tmp_path, capsys):
        path = tmp_path / "sealed.corps"
        path.write_text(SEALED)
        assert main(["ni", str(path), "--input", "b", "--observe", "[A]",
                     "--values", "B.(inl ())"]) == 4


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
     "--trials", "2", "--fuel", "500"],
)


def test_exit_codes_on_mutated_programs(tmp_path, capsys):
    # Derandomized: generated programs, three in four of them mutated once,
    # under every flag set; every run ends with a documented exit code.
    path = tmp_path / "m.corps"
    codes = set()
    for preset in ("choreo", "siblings", "doxastic"):
        topo = load_preset(preset)
        for seed in range(30):
            rng = random.Random(f"cli/{preset}/{seed}")
            text = pretty_print(ProgramGen(seed, topo, depth=5).gen_program())
            path.write_text(mutate(text, rng) if seed % 4 else text)
            for flags in FLAG_SETS:
                code = main([flags[0], str(path)] + flags[1:])
                assert code in range(5), (flags, path.read_text())
                codes.add(code)
            capsys.readouterr()
    assert codes == set(range(5))
