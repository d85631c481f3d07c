import json
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from corps import projection, syntax as S
from corps.cli import main
from corps.parser import Program, parse_program
from corps.projection import (
    SKIP, MergeConflict, ProjectionError, RecvFrom, SendTo, Seq, _Projection,
    _mk_app, _mk_case, _mk_lam, _mk_pair, _mk_seq, _prefix_closure, _project_program,
    local_str, project, project_expr, project_network,
)
from corps.topology import load_preset
from corps.typecheck import Checker, TypeCheckError, check_program, inline_main
import genprog

P4 = "topology choreo; main : [B] unit = send A.() to [B];"
P3 = ("topology doxastic; "
      "main : [A] unit = let [] [A] x = A.(up [A] ()) in A.(down [A] x);")


# Programs that projection once got wrong at a case's merge.
MERGE_REGRESSIONS = json.loads(
    (Path(__file__).parent / "merge_regressions.json").read_text())


class TestProjectExamples:
    def test_p4_sender(self):
        p = parse_program(P4)
        assert project(p, ("A",)) == SendTo(("B",), S.UnitVal())

    def test_p4_receiver(self):
        p = parse_program(P4)
        assert project(p, ("B",)) == RecvFrom(("A",))

    def test_p4_root_and_third_party(self):
        p = parse_program(P4)
        assert project(p, ()) == SKIP
        assert project(p, ("C",)) == SKIP

    def test_pure_program(self):
        p = parse_program("main : [A] unit = A.();")
        assert project(p, ("A",)) == S.UnitVal()
        assert project(p, ("B",)) == SKIP
        assert project(p, ()) == SKIP

    def test_self_up(self):
        p = parse_program("topology doxastic; main : [A.A] unit = A.(up [A] ());")
        assert project(p, ("A",)) == SendTo(("A", "A"), S.UnitVal())
        assert project(p, ("A", "A")) == RecvFrom(("A",))


class TestNetworkExamples:
    def test_p4_network(self):
        net = project_network(parse_program(P4))
        assert set(net.processes) == {(), ("A",), ("B",)}
        assert net.result_address == ("B",)
        assert not net.lambda_wire

    def test_p3_two_messages(self):
        net = project_network(parse_program(P3))
        assert set(net.processes) == {(), ("A",), ("A", "A")}
        assert net.result_address == ("A",)
        up_leg = net.processes[("A",)]
        # the up message [A] -> [A.A], then the down message back
        assert "send_to [A.A]" in local_str(up_leg)
        assert "recv_from [A.A]" in local_str(up_leg)
        child = local_str(net.processes[("A", "A")])
        assert "recv_from [A]" in child and "send_to [A]" in child

    def test_uninvolved_address_via_project(self):
        p = parse_program(P3)
        assert project(p, ("C",)) == SKIP
        assert project(p, ("B", "B")) == SKIP


class TestSmartConstructors:
    def test_all_skip_parts_give_skip(self):
        # Any Skip is skip, whatever its span.
        skip = S.Skip(span=S.Span("f", 0, 4))
        assert _mk_pair(S.Skip(), S.Skip()) is SKIP
        assert _mk_pair(skip, SKIP) is SKIP
        assert _mk_app(skip, skip) is SKIP
        assert _mk_lam("x", skip) is SKIP
        assert _mk_case(skip, "x", skip, "y", skip) is SKIP
        assert _mk_seq(skip, S.Var("r")) == S.Var("r")

    def test_a_part_that_is_not_skip_is_kept(self):
        u = S.UnitVal()
        assert _mk_pair(SKIP, u) == S.Pair(SKIP, u)
        assert _mk_app(u, SKIP) == S.App(u, SKIP)
        assert _mk_lam("x", u) == S.Lam("x", u)
        assert _mk_case(SKIP, "x", SKIP, "y", u) == S.Case(SKIP, "x", SKIP, "y", u)
        assert _mk_seq(u, SKIP) == S.Seq(u, SKIP)


class TestCaseProjection:
    def test_identical_branches_project(self):
        src = ("topology doxastic; main : [A] unit = "
               "case (inl () : unit + unit) of inl x -> A.()"
               " | inr y -> A.();")
        net = project_network(parse_program(src))
        assert net.processes[("A",)] is not None

    def test_divergent_third_party_branches_conflict(self):
        src = ("topology doxastic; main : [A] unit = "
               "case (inl () : unit + unit) of "
               "inl x -> A.() | "
               "inr y -> let [] [A] z = A.(up [A] ()) in A.(down [A] z);")
        with pytest.raises(MergeConflict):
            project_network(parse_program(src))

    # A case at the root whose branches differ at the third parties [A]
    # and [A.A], but not at the addresses it leaves generic.
    DIVERGENT = ("case (inl () : unit + unit) of inl x -> A.{v} | "
                 "inr y -> let [] [A] z = A.(up [A] {v}) in A.(down [A] z)")

    def test_first_conflict_in_walk_order_is_reported(self):
        for first, second, ty in (("()", "((), ())", "unit * [A] (unit * unit)"),
                                  ("((), ())", "()", "(unit * unit) * [A] unit")):
            src = (f"topology doxastic; main : [A] {ty} = "
                   f"({self.DIVERGENT.format(v=first)}, "
                   f"{self.DIVERGENT.format(v=second)});")
            program = parse_program(src)
            for run in (lambda: project_network(program),
                        lambda: project(program, ("A",))):
                with pytest.raises(MergeConflict, match=f"'{re.escape(first)}' vs"):
                    run()

    def test_a_one_child_rule_keeps_its_childs_error(self):
        # fst and inl fail at [A] with their payload; so does send_to, the
        # sender's own rule at [A].
        conflict = self.DIVERGENT.format(v="()")
        for main in (f"[A] unit = fst (({conflict}), ())",
                     f"[A] unit + unit = (inl ({conflict}) : [A] unit + unit)",
                     f"[B] unit = send ({conflict}) to [B]"):
            program = parse_program(f"topology choreo; main : {main};")
            for run in (lambda: project_network(program),
                        lambda: project(program, ("A",))):
                with pytest.raises(MergeConflict, match=r"'\(\)' vs"):
                    run()

    def test_a_failing_scrutinee_outranks_a_failing_branch(self):
        # The scrutinee and the left branch both fail at [A].
        for first, second, first_ty, second_ty in (("()", "((), ())", "unit", "unit * unit"),
                                                   ("((), ())", "()", "unit * unit", "unit")):
            src = (f"topology doxastic; main : [A] ({second_ty}) = "
                   f"case (inl ({self.DIVERGENT.format(v=first)}) : [A] ({first_ty}) + unit) "
                   f"of inl x -> {self.DIVERGENT.format(v=second)} | inr y -> A.{second};")
            program = parse_program(src)
            for run in (lambda: project_network(program),
                        lambda: project(program, ("A",))):
                with pytest.raises(MergeConflict, match=f"'{re.escape(first)}' vs"):
                    run()

    def test_error_at_every_address_outranks_an_earlier_one_at_some(self):
        src = ("topology choreo; main : [A] unit * [B] (unit * [C] unit) = "
               f"({self.DIVERGENT.format(v='()')}, send A.(((), C.())) to [B]);")
        program = parse_program(src)
        with pytest.raises(ProjectionError, match="nested modality") as err:
            project_network(program)
        assert type(err.value) is ProjectionError
        with pytest.raises(MergeConflict):
            project(program, ("A",))

    @pytest.mark.parametrize("entry", MERGE_REGRESSIONS, ids=lambda entry: entry["name"])
    def test_alpha_variants_meet_the_same_merge_conflict(self, entry, tmp_path, capsys):
        # Branches merge when they are alpha-equal under their binders; a
        # right branch renamed to the left binder must not capture a free
        # name like that binder.
        programs = [parse_program(entry[key]) for key in ("source", "variant")]
        assert S.expr_equal(programs[0].main_expr, programs[1].main_expr)
        for source, program, message in zip((entry["source"], entry["variant"]), programs,
                                            entry["messages"]):
            with pytest.raises(MergeConflict, match=f"^{re.escape(message)}$") as err:
                project_network(program)
            assert type(err.value) is MergeConflict
            path = tmp_path / "p.corps"
            path.write_text(source)
            for command in ("project", "--all"), ("simulate",):
                assert main([command[0], str(path), *command[1:]]) == 1
                assert capsys.readouterr() == ("", f"not projectable: {message}\n")

    def test_owner_keeps_real_branches(self):
        src = ("main : unit = case (inl () : unit + unit) of inl x -> x"
               " | inr y -> y;")
        net = project_network(parse_program(src))
        root = net.processes[()]
        assert isinstance(root, S.Case)

    def test_owner_keeps_tag_over_remote_content(self):
        # the injection itself is the owner's data: it must survive even
        # when the injected content lives elsewhere, or the owner's own
        # case analysis would take the wrong branch
        src = ("topology choreo; main : unit + unit = "
               "case (inr A.() : [A] unit + [A] unit) of "
               "inl x -> (inl () : unit + unit) | inr y -> (inr () : unit + unit);")
        net = project_network(parse_program(src))
        scrut = net.processes[()].scrutinee
        assert isinstance(scrut, S.Inr)
        from corps.netsim import RoundRobin, run
        result = run(net, RoundRobin())
        assert S.expr_equal(result.values[()], S.Inr(S.UnitVal()))


class TestWireDiscipline:
    def test_lambda_wire_flagged(self):
        src = ("topology choreo; main : [B] (unit -> unit) = "
               "send A.((fun x -> x : unit -> unit)) to [B];")
        net = project_network(parse_program(src))
        assert net.lambda_wire

    def test_modal_payload_rejected(self):
        # moving a value whose type nests a modality takes several messages
        src = ("topology choreo; main : [B] (unit * [C] unit) = "
               "send A.(((), C.())) to [B];")
        with pytest.raises(ProjectionError):
            project_network(parse_program(src))

    def test_inputs_must_be_substituted(self):
        src = "input b : unit; main : unit = b;"
        with pytest.raises(ProjectionError):
            project_network(parse_program(src))


class TestLocalExprOps:
    def test_local_str_examples(self):
        e = Seq(SendTo(("B",), S.UnitVal()), RecvFrom(("A",)))
        assert local_str(e) == "send_to [B] () ; recv_from [A]"
        assert local_str(SKIP) == "skip"

    def test_local_substitute_capture(self):
        e = S.Lam("y", S.App(S.Var("x"), S.Var("y")))
        out = S.substitute(e, "x", S.Var("y"))
        assert isinstance(out, S.Lam) and out.var != "y"

    def test_local_equal_modulo_paths(self):
        assert not S.expr_equal(RecvFrom(("A",)), RecvFrom(("B",)))
        assert S.expr_equal(Seq(SKIP, S.UnitVal()), Seq(SKIP, S.UnitVal()))
        assert not S.expr_equal(SendTo(("A",), SKIP), SendTo(("B",), SKIP))
        assert S.expr_equal(SendTo(("A",), S.Lam("u", S.Var("u"))),
                            SendTo(("A",), S.Lam("w", S.Var("w"))))

    def test_substitute_capture_under_send_to_and_seq(self):
        # (send_to [B] (fun y -> x) ; fun y -> x y)[x := y]: both binders
        # are renamed, and the substituted y stays free.
        e = Seq(SendTo(("B",), S.Lam("y", S.Var("x"))),
                S.Lam("y", S.App(S.Var("x"), S.Var("y"))))
        out = S.substitute(e, "x", S.Var("y"))
        assert isinstance(out, Seq) and isinstance(out.first, SendTo)
        sent, rest = out.first.payload, out.rest
        assert sent.var != "y" and sent.body == S.Var("y")
        assert rest.var != "y" and rest.body == S.App(S.Var("y"), S.Var(rest.var))
        assert S.free_vars(out) == {"y"}
        assert S.expr_equal(out, Seq(SendTo(("B",), S.Lam("z", S.Var("y"))),
                                     S.Lam("z", S.App(S.Var("y"), S.Var("z")))))

    def test_substitute_capture_under_local_case(self):
        # case x of inl y -> send_to [A] (x, y) | inr x -> x, with x := y:
        # the left binder is renamed, the right one shadows x.
        e = S.Case(S.Var("x"), "y", SendTo(("A",), S.Pair(S.Var("x"), S.Var("y"))),
                   "x", S.Var("x"))
        out = S.substitute(e, "x", S.Var("y"))
        assert out.scrutinee == S.Var("y")
        assert out.left_var != "y"
        assert out.left_body == SendTo(("A",), S.Pair(S.Var("y"), S.Var(out.left_var)))
        assert (out.right_var, out.right_body) == ("x", S.Var("x"))
        assert S.free_vars(out) == {"y"}


class TestGeneratedProjectability:
    def test_projectable_suite_has_conflict_free_cases(self):
        projected = 0
        for seed in range(80):
            topo = load_preset("choreo")
            program = genprog.program(seed, "choreo", projectable=True)
            try:
                net = project_network(program, topo)
            except ProjectionError:
                continue
            projected += 1
            # the process map covers exactly the prefix-closed universe
            for address in net.processes:
                for i in range(len(address)):
                    assert address[:i] in net.processes
        assert projected >= 70

    def test_projection_deterministic(self):
        topo = load_preset("choreo")
        program = genprog.program(3, "choreo", projectable=True)
        n1 = project_network(program, topo)
        n2 = project_network(program, topo)
        assert n1.processes == n2.processes


def fanout(k: int, sender: int) -> str:
    """P<sender> sends a unit to each other of P0..P(k-1); the result is
    the nested tuple of what the receivers got."""
    receivers = [i for i in range(k) if i != sender]
    ty = f"[P{receivers[-1]}] unit"
    expr = f"send P{sender}.() to [P{receivers[-1]}]"
    for i in reversed(receivers[:-1]):
        ty = f"[P{i}] unit * ({ty})"
        expr = f"(send P{sender}.() to [P{i}], {expr})"
    return f"topology choreo; main : {ty} = {expr};"


def visits(monkeypatch, run) -> Counter:
    """How often `run()` visits each node through Checker.infer/check.  A
    check that falls through to infer on the same node is one visit."""
    seen: Counter = Counter()
    active: list = []

    def counted(method):
        def visit(self, ctx, e, *rest):
            if not active or active[-1] is not e:
                seen[id(e)] += 1
            active.append(e)
            try:
                return method(self, ctx, e, *rest)
            finally:
                active.pop()
        return visit

    with monkeypatch.context() as m:
        m.setattr(Checker, "infer", counted(Checker.infer))
        m.setattr(Checker, "check", counted(Checker.check))
        run()
    return seen


def node_count(e) -> int:
    count, stack = 0, [e]
    while stack:
        count += 1
        stack.extend(S.children(stack.pop()))
    return count


class TestSinglePass:
    @pytest.mark.parametrize("k", [16, 64])
    def test_project_network_visits_each_node_once(self, monkeypatch, k):
        topo = load_preset("choreo")
        program = parse_program(fanout(k, k // 3))
        e, ty = inline_main(program)
        checked = visits(monkeypatch, lambda: Checker(topo).check((), e, ty))
        projected = visits(monkeypatch, lambda: project_network(program, topo))
        assert sum(checked.values()) == len(checked) == node_count(e)
        assert sum(projected.values()) == len(projected) == node_count(e)

    def test_a_definition_is_visited_once_however_often_it_is_used(self, monkeypatch):
        topo = load_preset("choreo")
        program = parse_program(
            "topology choreo; def f : [B] unit = send A.() to [B]; "
            "main : [B] unit * ([B] unit * [B] unit) = (f, (f, f));")
        projected = visits(monkeypatch, lambda: project_network(program, topo))
        (_, _, body), = program.defs
        assert sum(projected.values()) == len(projected)
        assert len(projected) == node_count(body) + node_count(program.main_expr)
        inlined = Program(program.topology_ref, program.inputs, (), program.main_type,
                          inline_main(program)[0])
        assert project_network(program, topo) == project_network(inlined, topo)

    @pytest.mark.parametrize("definition", [
        # an agent main does not mention, with a function on the wire
        "def f : [C] (unit -> unit) = send A.((fun x -> x : unit -> unit)) to [C];",
        # a payload of a nested modality, which is not projectable
        "def f : [B] (unit * [C] unit) = send A.(((), C.())) to [B];",
    ])
    def test_an_unused_definition_changes_nothing(self, definition):
        program = parse_program(f"topology choreo; {definition} {P4.split('; ', 1)[1]}")
        assert not check_program(program)
        got = project_network(program)
        want = project_network(Program(program.topology_ref, program.inputs, (),
                                       program.main_type, program.main_expr))
        assert ((got.processes, got.lambda_wire)
                == (want.processes, want.lambda_wire))


def outcome(run):
    """What `run()` returns, or the type and text of the ProjectionError
    it raises."""
    try:
        return run()
    except ProjectionError as err:
        return type(err), str(err)


def guarded_from_the_start(monkeypatch):
    """Every projection starts as if the walk had made an error, so every
    node applies its rules `_absorbing`: each guarded by an error test."""
    init = _Projection.__init__

    def failed_init(self):
        init(self)
        self.failed = True
    monkeypatch.setattr(_Projection, "__init__", failed_init)


def visit_log(monkeypatch, run) -> list[tuple[str, bool, bool, int]]:
    """Each hook call of `run()` in walk order: its rule, whether the walk
    had made an error before it and after it, and how many rules it made
    `_absorbing`."""
    log, wrapped = [], [0]
    visit, absorbing = _Projection.visit, projection._absorbing

    def counted_absorbing(rule):
        wrapped[0] += 1
        return absorbing(rule)

    def logged_visit(self, rule, *rest):
        before, calls = self.failed, wrapped[0]
        sparse = visit(self, rule, *rest)
        log.append((rule, before, self.failed, wrapped[0] - calls))
        return sparse

    with monkeypatch.context() as m:
        m.setattr(projection, "_absorbing", counted_absorbing)
        m.setattr(_Projection, "visit", logged_visit)
        run()
    return log


# The hook calls that hand children's projections on unchanged, or have
# no children; every other rule combines them once.
PASSING_ON = {"Check", "Annot", "Unit", "BelievesI", "Axiom"}


class TestErrorFreePath:
    """Until the walk makes its first error, no sparse projection holds one,
    so `_node` applies the rules as they are, none of them `_absorbing`."""

    @pytest.mark.parametrize("k", [16, 64])
    def test_an_error_free_fanout_never_guards(self, monkeypatch, k):
        topo = load_preset("choreo")
        program = parse_program(fanout(k, k // 3))
        log = visit_log(monkeypatch, lambda: project_network(program, topo))
        assert Counter(rule for rule, *_ in log)["Pair"] == k - 2
        assert [entry for entry in log if entry[2] or entry[3]] == []

    def test_guards_only_from_the_first_merge_conflict_on(self, monkeypatch):
        divergent = TestCaseProjection.DIVERGENT.format(v="()")
        program = parse_program(
            "topology doxastic; main : [A] unit * ([A] unit * [A] (unit * unit)) = "
            f"(A.(), ({divergent}, A.(((), ()))));")
        got = []
        log = visit_log(monkeypatch, lambda: got.append(outcome(lambda: project_network(program))))
        born = [i for i, (_, before, after, _) in enumerate(log) if after and not before]
        assert len(born) == 1 and log[born[0]][0] == "Case"
        assert all(not calls for *_, calls in log[:born[0] + 1])
        after = log[born[0] + 1:]
        assert "Pair" in [rule for rule, *_ in after]
        # Each combining node after it applies one rule and no special
        # one, so it wraps exactly one rule.
        assert [calls for *_, calls in after] == [int(rule not in PASSING_ON) for rule, *_ in after]
        # The first error is the case's merge conflict, as absorbing rules
        # report it from the start.
        assert got == [(MergeConflict, "case at viewpoint [] is not projectable: branches "
                        "project to different processes: '()' vs "
                        "'(fun z -> (z ; recv_from [A.A])) (send_to [A.A] ())'")]
        with monkeypatch.context() as m:
            guarded_from_the_start(m)
            assert outcome(lambda: project_network(program)) == got[0]


class TestFastPathAgainstGuarded:
    """The error-free path gives what every rule `_absorbing` from the
    start gives, on generated programs that are not steered to be
    projectable: merge conflicts, payloads of nested modalities and
    functions on the wire all occur."""

    OUTSIDE = ("Z", "Z")  # an address outside every universe

    def outcomes(self, program, topo) -> list:
        """project_network's outcome, then project's at each address of the
        universe and outside it."""
        _, participants, _ = _project_program(program, topo)
        result_address, _ = S.split_stack(program.main_type)
        universe = sorted(_prefix_closure(participants | {result_address}))
        return [outcome(lambda: project_network(program, topo))] + [
            outcome(lambda: project(program, g, topo)) for g in universe + [self.OUTSIDE]]

    def test_generated_programs_project_alike(self, monkeypatch):
        seen: Counter = Counter()
        for preset in ("choreo", "doxastic", "siblings"):
            topo = load_preset(preset)
            for seed in range(30):
                program = genprog.program(seed, preset)
                fast = self.outcomes(program, topo)
                with monkeypatch.context() as m:
                    guarded_from_the_start(m)
                    assert self.outcomes(program, topo) == fast, (preset, seed)
                network, *_ = fast
                seen["function on the wire"] += getattr(network, "lambda_wire", False)
                seen.update(got[0].__name__ for got in fast if type(got) is tuple)
        assert min(seen.values()) > 0 and len(seen) == 3, seen


class TestCheckerGradeErrors:
    """Projection walks with the checker's rules over the judgments
    `check_program` checks, so on an ill-typed program it raises the error
    `check_program` reports first, definitions included."""

    ILL_TYPED = (
        "main : unit = nope;",
        "main : unit = let [] [A] x = A.() in x;",
        "main : unit = let [] [A] x = () in ();",
        "topology doxastic; main : [B] unit = send A.() to [B];",
        "main : [A] unit = up [A] ();",
        "main : unit = down [A] ();",
        "main : unit = down [A] (A.());",
        "main : unit = () ();",
        "main : unit = (fun x -> x) ();",
        "main : unit = fst ();",
        "main : unit = snd (A.(), ());",
        "main : unit = fst (case (inl () : unit + unit) of inl a -> ((), ()) "
        "| inr b -> ((), A.()));",
        "main : unit = case () of inl a -> () | inr b -> ();",
        "main : unit = fun x -> x;",
        "main : unit = inr ();",
        "main : unit = absurd ();",
        "main : [A] unit = ();",
    )

    def programs(self):
        for source in self.ILL_TYPED:
            program = parse_program(source)
            yield program, load_preset(program.topology_ref or "choreo")
        # Projectable programs checked under a preset they were not made
        # for, which refuses some of their communications.
        for seed in range(60):
            program = genprog.program(seed, "choreo", projectable=True)
            yield program, load_preset("siblings")

    def test_projection_raises_the_first_check_error(self):
        assert rejected_alike(self.programs()) > len(self.ILL_TYPED)

    def test_a_definition_under_a_lock_is_rejected(self):
        program = parse_program("topology choreo; def f : unit = (); main : [A] unit = A.(f);")
        first, = check_program(program)
        assert first.rule == "Axiom" and "past its binding" in first.message
        assert rejected_alike([(program, load_preset("choreo"))]) == 1

    def test_programs_with_mutated_definitions(self):
        # Each generated program with definitions, and its mutants, under
        # the preset it was made for and under a stricter one.
        strict = load_preset("siblings")
        programs = []
        for preset in ("choreo", "doxastic", "siblings"):
            topo = load_preset(preset)
            for seed in range(40):
                program = genprog.program(seed, preset, projectable=seed % 2 == 0)
                if program.defs:
                    for variant in [program, *def_mutants(program)]:
                        programs += [(variant, topo), (variant, strict)]
        assert rejected_alike(programs) > 200

    def test_canonical_rules_hold_only_for_normal_forms(self):
        # project_expr checks a pair or a located value against its type;
        # project_network infers it, as `corps check` does.
        program = parse_program("main : [A] ((unit + unit) * unit) = A.((inl (), ()));")
        core, ty = program.main_expr.body, program.main_type.body
        assert local_str(project_expr(core, ty, ("A",),
                                      load_preset("choreo"))) == "(inl (), ())"
        with pytest.raises(TypeCheckError, match="injection; annotate it"):
            project_network(program)


def rejected_alike(programs) -> int:
    """How many of the (program, topology) pairs `check_program` rejects;
    on each, projection must raise its first error."""
    rejected = 0
    for program, topo in programs:
        errors = check_program(program, topo)
        if not errors:
            continue
        rejected += 1
        first = errors[0]
        for run in (lambda: project_network(program, topo),
                    lambda: project(program, (), topo)):
            with pytest.raises(TypeCheckError) as got:
                run()
            assert ((got.value.rule, got.value.message, got.value.span)
                    == (first.rule, first.message, first.span))
    return rejected


def def_mutants(program):
    """Ill-typed variants of a program with definitions: an unbound name
    in a body, a body of the wrong type, and a definition referenced under
    a lock, in a later definition and in main."""
    defs = list(program.defs)
    for j, (name, ty, body) in enumerate(defs):
        bodies = [S.Fst(S.Pair(body, S.Var("nope"))), S.Located("A", body)]
        if j:
            bodies.append(S.Fst(S.Pair(body, S.Located("A", S.Var(defs[j - 1][0])))))
        for mutated in bodies:
            yield Program(program.topology_ref, program.inputs,
                          (*defs[:j], (name, ty, mutated), *defs[j + 1:]),
                          program.main_type, program.main_expr)
    under_lock = S.Located("A", S.Var(defs[-1][0]))
    yield Program(program.topology_ref, program.inputs, program.defs, program.main_type,
                  S.Fst(S.Pair(program.main_expr, under_lock)))


@settings(derandomize=True, deadline=None)
@given(st.sets(st.lists(st.sampled_from("ABC"), max_size=6).map(tuple), max_size=12))
def test_prefix_closure_is_every_prefix_of_every_path(paths):
    assert _prefix_closure(paths) == {p[:i] for p in paths for i in range(len(p) + 1)}
