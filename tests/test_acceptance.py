"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import itertools
import json
import random
import time
from pathlib import Path

import pytest

from corps import syntax as S
from corps.netsim import (
    DeadlockError, Network, PreconditionError, RandomPolicy, RoundRobin,
    epp_agreement, run,
)
from corps.nicheck import NIConfig, compare_observations, ni_check
from corps.normalize import EvalMode, NormalFormClass, normalize, step
from corps.parser import parse_expr, parse_program
from corps.printer import pretty_print
from corps.projection import ProjectionError, RecvFrom
from corps.syntax import (
    Binding, Lock, expr_equal, locks_of, normalize_context, path_concat,
)
from corps.topology import load_preset, parse_topology
from corps.typecheck import Checker, TypeCheckError, check_program, inline_main
from progen import AGENTS
import genprog

GOLDEN = Path(__file__).parent / "golden_logic_suite.json"
CF, POS = EvalMode.COMM_FREE, EvalMode.POSITIVE_COMM


def _suite(count, presets=("doxastic", "choreo"), projectable=False, depth=7):
    """Deterministic program suite: `count` programs spread over presets."""
    out = []
    seed = 0
    while len(out) < count:
        for preset in presets:
            program = genprog.program(seed, preset, depth=depth,
                                      projectable=projectable)
            out.append((preset, load_preset(preset), program))
        seed += 1
    return out[:count]


def test_criterion_1_logic_regression():
    started = time.time()
    cases = json.loads(GOLDEN.read_text())
    assert len(cases) >= 12
    deviations = []
    for case in cases:
        ref = case["topology"]
        topology = (load_preset(ref) if ref in ("doxastic", "choreo", "siblings")
                    else parse_topology(ref))
        errors = check_program(parse_program(case["program"]), topology)
        if case["expect"] == "ok":
            if errors:
                deviations.append((case["name"], [str(e) for e in errors]))
        elif len(errors) != 1 or errors[0].rule != case["expect"]:
            deviations.append((case["name"], [str(e) for e in errors]))
    elapsed = time.time() - started
    assert not deviations, deviations
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 logic-regression: PASS "
          f"({len(cases)} programs, 0 deviations, {elapsed:.2f}s)")


def test_criterion_2_subject_reduction():
    started = time.time()
    suite = _suite(1000)
    failures = 0
    steps_checked = 0
    for preset, topo, program in suite:
        checker = Checker(topo)
        main, ty = inline_main(program)
        for mode in (CF, POS):
            expr = main
            while True:
                r = step(mode, expr)
                if r is None:
                    break
                expr = r[0]
                steps_checked += 1
                try:
                    checker.check((), expr, ty)
                except TypeCheckError:
                    failures += 1
                    break
    elapsed = time.time() - started
    assert failures == 0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 2 subject-reduction: PASS ({len(suite)} programs, "
          f"{steps_checked} steps preserved the type, {elapsed:.1f}s)")


def test_criterion_3_termination_and_progress():
    suite = _suite(1000)
    failures = 0
    for preset, topo, program in suite:
        main, _ = inline_main(program)
        for mode in (CF, POS):
            nf, cls, _ = normalize(mode, main, 100_000)  # raises on stuck/fuel
            if cls not in (NormalFormClass.VALUE, NormalFormClass.COMM_NEUTRAL):
                failures += 1
    assert failures == 0
    print(f"\nACCEPTANCE 3 termination-progress: PASS ({len(suite)} programs, "
          f"both modes, all normal forms Value or CommNeutral)")


def test_criterion_4_mode_containment():
    suite = _suite(1000)
    failures = 0
    for preset, topo, program in suite:
        main, _ = inline_main(program)
        nf_cf, _, _ = normalize(CF, main, 100_000)
        nf_pos, _, _ = normalize(POS, main, 100_000)
        nf_chained, _, _ = normalize(POS, nf_cf, 100_000)
        if not expr_equal(nf_chained, nf_pos):
            failures += 1
    assert failures == 0
    print(f"\nACCEPTANCE 4 mode-containment: PASS ({len(suite)} programs)")


def test_criterion_5_epp_agreement():
    started = time.time()
    schedules = [RoundRobin()] + [RandomPolicy(s) for s in range(50)]
    collected = 0
    skipped = 0
    disagreements = []
    seed = 0
    while collected < 200:
        for preset in ("choreo", "siblings", "doxastic"):
            topo = load_preset(preset)
            program = genprog.program(seed, preset, projectable=True)
            try:
                report = epp_agreement(program, schedules, topo)
            except (ProjectionError, PreconditionError):
                skipped += 1
                continue
            collected += 1
            if not report.agree:
                disagreements.append((seed, preset, report.outcomes))
        seed += 1
        assert seed < 1000, "generator failed to reach 200 projectable programs"
    elapsed = time.time() - started
    assert not disagreements, disagreements[:2]
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 5 epp-agreement: PASS ({collected} projectable "
          f"programs x {len(schedules)} schedules, 0 disagreements, "
          f"0 deadlocks, {skipped} excluded, {elapsed:.1f}s)")


def test_criterion_6_deadlock_detector_positive_control():
    network = Network({("A",): RecvFrom(("B",)), ("B",): RecvFrom(("A",))},
                      ("A",), False)
    with pytest.raises(DeadlockError) as exc:
        run(network, RoundRobin())
    waiting = exc.value.waiting
    assert waiting == {("A",): (("B",),), ("B",): (("A",),)}
    print("\nACCEPTANCE 6 deadlock-positive-control: PASS "
          "(cyclic fixture reported with the 2-cycle waiting graph)")


def test_criterion_7_noninterference():
    started = time.time()
    values = (parse_expr("B.(inl ())"), parse_expr("B.(inr ())"))
    setups = [
        ("doxastic", load_preset("doxastic"), ("A",)),
        ("cansend: A => B", parse_topology("cansend: A => B"), ("A",)),
        ("siblings", load_preset("siblings"), ()),
    ]
    totals = []
    violations = []
    for label, topology, observer in setups:
        secure = 0
        seed = 0
        while secure < 100:
            program = genprog.NIProgramGen(seed, topology, projectable=True,
                                           depth=5).gen_program()
            seed += 1
            assert seed < 600, "generator failed to reach 100 NI programs"
            cfg = NIConfig("b", observer, values)
            try:
                verdict = ni_check(program, cfg, topology)
            except (ProjectionError, ValueError):
                continue
            assert verdict.kind != "FlowPermitted", label
            if verdict.kind == "Secure":
                secure += 1
            else:
                violations.append((label, seed - 1,
                                   verdict.witness.describe()))
        totals.append(secure)

    # positive control: a permitted flow is reported as such, the detection
    # core produces a witness on it, and the witness replays
    flow_topo = parse_topology("cansend: B => A")
    flow_program = parse_program(
        "input b : [B] (unit + unit); "
        "main : [A] (unit + unit) = send b to [A];")
    cfg = NIConfig("b", ("A",), values)
    assert ni_check(flow_program, cfg, flow_topo).kind == "FlowPermitted"
    witness, _ = compare_observations(flow_program, cfg, flow_topo)
    assert witness is not None
    replay_cfg = NIConfig("b", ("A",), (witness.value_a, witness.value_b))
    replayed, _ = compare_observations(flow_program, replay_cfg, flow_topo)
    assert replayed is not None
    assert replayed.observation_a == witness.observation_a
    assert replayed.observation_b == witness.observation_b

    elapsed = time.time() - started
    assert not violations, violations[:3]
    print(f"\nACCEPTANCE 7 noninterference: PASS ({totals} secure programs "
          f"per topology, FlowPermitted control and witness replay OK, "
          f"{elapsed:.1f}s)")


def test_criterion_8_parser_round_trip():
    checked = 0
    failures = 0
    for seed in range(334):
        for preset in ("doxastic", "choreo", "siblings"):
            program = genprog.program(seed, preset)
            reparsed = parse_program(pretty_print(program))
            same = (reparsed.main_type == program.main_type
                    and expr_equal(reparsed.main_expr, program.main_expr)
                    and len(reparsed.defs) == len(program.defs)
                    and all(n1 == n2 and t1 == t2 and expr_equal(b1, b2)
                            for (n1, t1, b1), (n2, t2, b2)
                            in zip(program.defs, reparsed.defs)))
            checked += 1
            if not same:
                failures += 1
    assert checked >= 1000
    assert failures == 0
    print(f"\nACCEPTANCE 8 parser-round-trip: PASS ({checked} programs)")


def test_criterion_9_monoid_and_context_algebra():
    paths = [()]
    for k in (1, 2, 3):
        paths.extend(itertools.product(AGENTS, repeat=k))
    # monoid laws, exhaustively
    for g in paths:
        assert path_concat((), g) == g == path_concat(g, ())
    for g1, g2, g3 in itertools.product(paths, repeat=3):
        assert path_concat(path_concat(g1, g2), g3) == \
            path_concat(g1, path_concat(g2, g3))
    # context algebra, exhaustively over small contexts
    lock_paths = [p for p in paths if len(p) <= 2]
    entries = [Lock(p) for p in lock_paths] + \
        [Binding("x", S.Unit(), p) for p in lock_paths if len(p) <= 1]
    contexts = [()]
    contexts += [(e,) for e in entries]
    contexts += [(e1, e2) for e1 in entries for e2 in entries]
    rng = random.Random(0)
    contexts += [tuple(rng.choice(entries) for _ in range(3))
                 for _ in range(3000)]
    for ctx in contexts:
        normalized = normalize_context(ctx)
        assert locks_of(normalized) == locks_of(ctx)
        assert normalize_context(normalized) == normalized
        for i, entry in enumerate(normalized):
            if isinstance(entry, Lock):
                assert entry.path
                assert i + 1 >= len(normalized) or \
                    not isinstance(normalized[i + 1], Lock)
        assert [e for e in normalized if isinstance(e, Binding)] == \
            [e for e in ctx if isinstance(e, Binding)]
    print(f"\nACCEPTANCE 9 monoid-context-algebra: PASS "
          f"({len(paths)} paths exhaustive, {len(contexts)} contexts)")
