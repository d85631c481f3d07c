import json

import pytest

from corps.cli import main

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

    def test_deep_nesting_exit_2(self, tmp_path, capsys):
        path = tmp_path / "deep.corps"
        path.write_text("main : unit = " + "(" * 300 + "()" + ")" * 300 + ";\n")
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.strip() == "input nests too deeply"
        assert "Traceback" not in err


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
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        actions = [r["action"] for r in records]
        assert "Send" in actions and "Recv" in actions

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
