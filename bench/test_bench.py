"""Tests of the benchmark itself: inputs, output checks and tracing.

Run with `PYTHONPATH=src python -m pytest bench`.  They use small input
sets so they stay quick.
"""

import dataclasses
import json
from pathlib import Path

import pytest

import corps
import progen
import run
import workloads
from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
SMALL = {"check": 12, "chain": 6, "fanout": 6, "agree": 4}


@pytest.fixture(autouse=True)
def short_chains(monkeypatch):
    # pytest's own frames leave less stack than the benchmark has, so
    # keep chains well below the benchmark's cap.
    monkeypatch.setattr(workloads, "CHAIN_MAX", 120)


def small_setup(name, seed):
    return workloads.WORKLOADS[name].setup(seed, SMALL[name])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_inputs_are_deterministic_per_seed(name):
    first, excluded = small_setup(name, 3)
    assert len(first) == SMALL[name]
    assert small_setup(name, 3) == (first, excluded)
    other, _ = small_setup(name, 4)
    assert sorted(i.source for i in other) != sorted(i.source for i in first)


def test_generator_matches_its_rendered_type():
    for seed in range(30):
        for preset in progen.PRESETS:
            source, main_type = progen.ProgramGen(seed, preset).gen_program()
            program = corps.parse_program(source)
            assert corps.type_str(program.main_type) == main_type
            assert corps.check_program(program, corps.load_preset(preset)) == []


@pytest.mark.parametrize("lo, hi", [(40, 240), (8, 80)])
def test_stratified_sizes_cover_their_range(lo, hi):
    sizes = progen.stratified(progen.random.Random(0), lo, hi, 64)
    assert len(sizes) == 64 and lo <= min(sizes) < lo + 4 and hi - 4 < max(sizes) <= hi
    assert sorted(sizes) != sorted(progen.stratified(progen.random.Random(1), lo, hi, 64))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_correct_verdicts_pass(name):
    workload = workloads.WORKLOADS[name]
    items, _ = small_setup(name, 1)
    for item in items:
        assert workload.correct(item, workload.op(item))


def _wrong_verdicts(name, item, verdict):
    if name == "check":
        yield verdict.replace("OK : ", "OK : [A] ")
        yield ["rejected"]
    elif name == "chain":
        text, cls, steps = verdict
        yield text, cls, steps - 1
        yield text, "CommNeutral", steps
        yield "C.()", cls, steps
    elif name == "fanout":
        k, sender = item.expect
        sender_at, receiver_at = f"[P{sender}]", f"[P{(sender + 1) % k}]"
        yield {a: v for a, v in verdict.items() if a != receiver_at}
        yield {**verdict, f"[P{k}]": "skip"}
        yield {**verdict, sender_at: verdict[sender_at].replace("send_to", "skip", 1)}
        yield {**verdict, receiver_at: "skip"}
    else:
        yield verdict[:-1]
        yield verdict[:-1] + ("disagree: got ()",)
        yield ("failed: deadlock",) + verdict[1:]
    yield "raised RecursionError"


@pytest.mark.parametrize("name", sorted(SMALL))
def test_output_checks_reject_wrong_answers(name):
    workload = workloads.WORKLOADS[name]
    items, _ = small_setup(name, 1)
    item = items[0]
    verdict = workload.op(item)
    wrong = list(_wrong_verdicts(name, item, verdict))
    assert wrong
    for bad in wrong:
        assert not workload.correct(item, bad), bad


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_and_untraced_verdicts_match(name):
    workload = workloads.WORKLOADS[name]
    items, _ = small_setup(name, 2)
    plain = run.Loop(workload, items)
    plain.run_pass()
    traced = run.Loop(workload, items)
    tracer = Tracer()
    with tracer:
        traced.run_pass(tracer.op)
    assert traced.verdicts == plain.verdicts
    assert plain.failed == traced.failed == 0
    assert tracer.calls["parser"] == len(items)
    assert tracer.op_id == len(items) - 1
    # every layer span sits inside an op span of the same op
    ops = {index: span for index, span in enumerate(tracer.spans) if span[0] == "op"}
    assert len(ops) == len(items)
    for name_, start, end, parent, op_id, own in tracer.spans:
        assert start <= end and own <= end - start + 1e-9
        if name_ != "op":
            assert parent >= 0 and tracer.spans[parent][4] == op_id


def test_tracer_catches_calls_between_modules_and_restores_them():
    original = corps.project_network
    items, _ = small_setup("agree", 5)
    tracer = Tracer()
    with tracer:
        assert corps.netsim.project_network is not original
        tracer.op(workloads.op_agree, items[0])
    assert corps.project_network is original
    assert corps.netsim.project_network is original
    # epp_agreement projects the network from inside netsim
    assert tracer.calls["projection"] == 1
    assert tracer.calls["netsim.run"] == 1 + workloads.AGREE_RANDOM_SCHEDULES
    assert tracer.counts["netsim.ticks"] > 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_one_short_run_prints_the_result_last(trace, tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "chain", dataclasses.replace(
        workloads.WORKLOADS["chain"], size=4))
    monkeypatch.setattr(run, "BENCH_DIR", tmp_path)
    monkeypatch.setattr(run, "SETUP_MIN_SECONDS", 0)
    monkeypatch.setattr(run, "IMPORT_SAMPLES", 1)
    assert run.main(["--workload", "chain", "--seed", "7", "--seconds", "0.01",
                     "--trace", trace]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in spec[kind]}
    for metric in spec[kind]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_setup_must_build_the_same_inputs_every_time(monkeypatch):
    monkeypatch.setattr(run, "SETUP_MIN_SECONDS", 0)
    monkeypatch.setattr(run, "SETUP_BATCH_S", 0)
    a, b = workloads.Item("main : unit = ();", None), workloads.Item("", None)

    def workload(builds):
        builds = iter(builds)
        return workloads.Workload("fake", 1, lambda seed, count: next(builds),
                                  lambda item: None)

    assert run.run_setup(workload([([a], {})] * 3), 0)[2]
    assert not run.run_setup(workload([([a], {}), ([b], {}), ([a], {})]), 0)[2]
    counts = [([a], {"rejected": 0}), ([a], {"rejected": 1}), ([a], {"rejected": 0})]
    assert not run.run_setup(workload(counts), 0)[2]


# A program that epp_agreement gets wrong at the commit that added the
# benchmark, in the shape of the listed known disagreements.
DISAGREEING = ("topology choreo;\nmain : [B.C] unit * [B] (unit * unit) = "
               "(let [] [B.C] x1 = B.(send B.C.((), ()) to [C]) in fst (B.C.(), ()), "
               "B.((), send A.C.() to []));\n")


def test_agree_screen_keeps_unlisted_disagreements(monkeypatch):
    # Set-up drops only what the projector rejects and what the list
    # names; a disagreement it does not name reaches the timed check.
    item = workloads.Item(DISAGREEING, workloads.AGREE, (1,) * 11, 0)
    monkeypatch.setattr(workloads, "agree_pool", lambda count: [item] * count)
    monkeypatch.setattr(workloads, "known_disagreements", lambda: {})
    items, excluded = workloads.setup_agree(0, 1)
    assert items == [item] and excluded == {"rejected": 0, "known_disagreement": 0}
    workload = workloads.WORKLOADS["agree"]
    assert not workload.correct(item, workload.op(item))
    monkeypatch.setattr(workloads, "known_disagreements", lambda: {0: DISAGREEING})
    assert workloads.setup_agree(0, 1) == ([], {"rejected": 0, "known_disagreement": 1})


def test_known_disagreements_are_listed_with_their_sources():
    known = workloads.known_disagreements()
    pool = workloads.agree_pool(workloads.AGREE_PROGRAMS)
    assert known and all(pool[index].source == source for index, source in known.items())


def test_a_short_agree_input_set_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(run, "SETUP_MIN_SECONDS", 0)
    monkeypatch.setattr(run, "IMPORT_SAMPLES", 1)
    monkeypatch.setitem(workloads.WORKLOADS, "agree", dataclasses.replace(
        workloads.WORKLOADS["agree"], size=2,
        setup=lambda seed, count: workloads.setup_agree(seed, 1)))
    assert run.main(["--workload", "agree", "--seed", "1", "--seconds", "0.01",
                     "--trace", "0"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False
