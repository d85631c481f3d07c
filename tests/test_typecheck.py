import json
import random
from pathlib import Path

import pytest

from corps import syntax as S
from corps.parser import parse_expr, parse_program, parse_type
from corps.syntax import Binding, Lock, locks_of
from corps.topology import load_preset, parse_topology
from corps.typecheck import Checker, TypeCheckError, check_program, inline_main, judgments
import genprog

GOLDEN = Path(__file__).parent / "golden_logic_suite.json"


def _topology(ref: str):
    if ref in ("doxastic", "choreo", "siblings"):
        return load_preset(ref)
    return parse_topology(ref)


def run_case(case):
    program = parse_program(case["program"])
    return check_program(program, _topology(case["topology"]))


class TestLogicSuite:
    def test_golden_cases(self):
        cases = json.loads(GOLDEN.read_text())
        assert len(cases) >= 12
        for case in cases:
            errors = run_case(case)
            if case["expect"] == "ok":
                assert not errors, (case["name"], [str(e) for e in errors])
            else:
                assert len(errors) == 1, case["name"]
                assert errors[0].rule == case["expect"], \
                    (case["name"], str(errors[0]))

    def test_relation_failure_reports_query(self):
        program = parse_program("main : unit = down [A] (A.());")
        errors = check_program(program, load_preset("doxastic"))
        assert errors[0].query == ("candown", (), ("A",))

    def test_send_examples(self):
        topo = load_preset("choreo")
        checker = Checker(topo)
        ty = checker.infer((), parse_expr("send A.() to [B]"))
        assert ty == S.Believes("B", S.Unit())

    def test_selfup_judgment(self):
        topo = load_preset("doxastic")
        checker = Checker(topo)
        ty = checker.infer((), parse_expr("A.(up [A] ())"))
        assert ty == S.Believes("A", S.Believes("A", S.Unit()))


class TestCheckMode:
    def setup_method(self):
        self.checker = Checker(load_preset("choreo"))

    def test_lambda(self):
        self.checker.check((), parse_expr("fun x -> x"), parse_type("unit -> unit"))

    def test_inl(self):
        self.checker.check((), parse_expr("inl ()"), parse_type("unit + void"))

    def test_located_against_wrong_agent(self):
        with pytest.raises(TypeCheckError) as exc:
            self.checker.check((), parse_expr("A.()"), parse_type("[B] unit"))
        assert exc.value.rule == "Mismatch"

    def test_absurd_checks_against_anything(self):
        ctx = ((Binding("v", S.Void(), ())),)
        self.checker.check(ctx, parse_expr("absurd v"), parse_type("[A] unit"))

    def test_case_propagates_annotation(self):
        e = parse_expr("case (inl () : unit + unit) of inl x -> fun y -> y"
                       " | inr z -> fun w -> w")
        self.checker.check((), e, parse_type("unit -> unit"))

    def test_branch_types_must_match_in_infer(self):
        e = parse_expr("case (inl () : unit + unit) of inl x -> ()"
                       " | inr z -> (inl () : unit + unit)")
        with pytest.raises(TypeCheckError) as exc:
            self.checker.infer((), e)
        assert exc.value.rule == "Case"

    @pytest.mark.parametrize("canonical", [False, True])
    def test_local_only_node_is_not_an_expression(self, canonical):
        # Not a rejected judgment: a node of the other language is a
        # caller's error, named by its class, in either mode.
        self.checker._canonical = canonical
        e = S.Seq(S.SKIP, S.SKIP)
        with pytest.raises(TypeError, match="^not an expression: Seq$"):
            self.checker.infer((), e)
        for ty in (S.UNIT, S.Product(S.UNIT, S.UNIT)):
            with pytest.raises(TypeError, match="^not an expression: Seq$"):
                self.checker.check((), e, ty)


class TestAxiom:
    def test_rightmost_binding_only(self):
        # an older matching binding does not rescue a mismatched rightmost one
        topo = load_preset("doxastic")
        checker = Checker(topo)
        ctx = (Binding("x", S.Unit(), ()),
               Lock(("A",)),
               Binding("x", S.Unit(), ("B",)))
        with pytest.raises(TypeCheckError) as exc:
            checker.infer(ctx, S.Var("x"))
        assert exc.value.rule == "Axiom"

    def test_tag_consumed_by_following_locks(self):
        topo = load_preset("doxastic")
        checker = Checker(topo)
        ctx = (Binding("x", S.Unit(), ("A", "B")), Lock(("A",)), Lock(("B",)))
        assert checker.infer(ctx, S.Var("x")) == S.Unit()

    def test_unbound(self):
        checker = Checker(load_preset("choreo"))
        with pytest.raises(TypeCheckError) as exc:
            checker.infer((), S.Var("nope"))
        assert exc.value.rule == "Axiom"


class TestPrograms:
    def test_check_program_aggregates(self):
        program = parse_program(
            "def bad : unit = down [A] (A.());"
            "def good : unit = ();"
            "main : unit = down [B] (B.());")
        errors = check_program(program, load_preset("doxastic"))
        assert len(errors) == 2

    def test_defs_usable_only_at_root_viewpoint(self):
        program = parse_program(
            "def d : unit = (); main : [A] unit = A.d;")
        errors = check_program(program, load_preset("doxastic"))
        assert len(errors) == 1 and errors[0].rule == "Axiom"

    def test_inline_main_annotates_defs(self):
        program = parse_program(
            "def f : unit -> unit = (fun x -> x : unit -> unit);"
            "main : unit = f ();")
        main, ty = inline_main(program)
        checker = Checker(load_preset("choreo"))
        checker.check((), main, ty)


class TestWeakening:
    def test_unused_binding_anywhere_preserves_typing(self):
        rng = random.Random(5)
        topo = load_preset("choreo")
        checker = Checker(topo)
        base = (Binding("u", S.Unit(), ()),
                Lock(("A",)),
                Binding("v", S.Believes("B", S.Unit()), ("B",)),
                Lock(("B",)))
        judged = [
            (base, S.Var("v"), S.Believes("B", S.Unit())),
            (base, S.Located("C", S.UnitVal()), S.Believes("C", S.Unit())),
            (base, parse_expr("send C.() to [D]"),
             S.Believes("D", S.Unit())),
        ]
        for ctx, expr, ty in judged:
            checker.check(ctx, expr, ty)
            for position in range(len(ctx) + 1):
                extra = Binding("unused_w", S.Unit(), tuple(
                    rng.choice("AB") for _ in range(rng.randint(0, 2))))
                widened = ctx[:position] + (extra,) + ctx[position:]
                checker.check(widened, expr, ty)

    def test_weakening_on_generated_programs(self):
        rng = random.Random(6)
        topo = load_preset("choreo")
        checker = Checker(topo)
        for seed in range(60):
            program = genprog.program(seed, "choreo")
            main, ty = inline_main(program)
            checker.check((), main, ty)
            extra = Binding("unused_w", S.Unit(), tuple(
                rng.choice("AB") for _ in range(rng.randint(0, 2))))
            checker.check((extra,), main, ty)


class TestViewpointSoundness:
    def test_queries_are_anchored_at_the_viewpoint(self, monkeypatch):
        # Every relation query's first argument is locks_of at the query
        # site: exactly for up/down, extended by the payload stack for send.
        # The queries are the ones `_require` makes; the viewpoint is read
        # off the context of the inference running when it makes them.
        topo = load_preset("choreo")
        queries, sites = [], []
        infer, require = Checker.infer, Checker._require

        def recording_infer(self, ctx, e, *rest):
            sites.append(locks_of(ctx))
            try:
                return infer(self, ctx, e, *rest)
            finally:
                sites.pop()

        def recording_require(self, rule, kind, a, b, *rest):
            queries.append((kind, a, b, sites[-1]))
            return require(self, rule, kind, a, b, *rest)

        monkeypatch.setattr(Checker, "infer", recording_infer)
        monkeypatch.setattr(Checker, "_require", recording_require)
        for seed in range(80):
            program = genprog.program(seed, "choreo")
            assert not check_program(program, topo)
        assert {kind for kind, *_ in queries} == {"cansend", "canup", "candown"}
        for kind, a, b, viewpoint in queries:
            if kind in ("canup", "candown"):
                assert a == viewpoint
            else:
                assert a[:len(viewpoint)] == viewpoint
            assert b[:len(viewpoint)] == viewpoint


class TestHook:
    def test_a_given_list_collects_the_hooks_results(self):
        topo = load_preset("choreo")
        program = genprog.program(3, "choreo")
        derived = []
        assert not check_program(program, topo, deriv=derived)
        # A checker without a hook of its own builds derivations too.
        deriv = []
        checker = Checker(topo)
        for ctx, e, ty in judgments(program):
            checker.check(ctx, e, ty, deriv)
        assert [d.render() for d in deriv] == [d.render() for d in derived]
        # Another hook sees every node of the walk, children first, and
        # nothing is built when no list is given.
        rules = []
        hooked = Checker(topo, hook=lambda rule, *_: rules.append(rule))
        for ctx, e, ty in judgments(program):
            hooked.check(ctx, e, ty)
        assert rules == []
        for ctx, e, ty in judgments(program):
            hooked.check(ctx, e, ty, [])

        def walk(d):
            for kid in d.children:
                yield from walk(kid)
            yield d.rule
        assert rules == [rule for d in derived for rule in walk(d)]


# ---------------------------------------------------------------------------
# The T axiom is not derivable under the doxastic preset.
#
# [A] unit -> unit is constant-inhabited (fun x -> ()), so the telling
# instance is phi = void: [A] void -> void has a proof exactly when the
# hypothesis can actually be brought down to the root.  The search below
# enumerates every body in a bounded fragment; a permissive topology serves
# as the positive control showing the search would find a proof if one
# existed.

def enumerate_bodies(checker_topo, ty, env, viewpoint, depth, fresh=(0,)):
    """All terms of `ty` built from vars, unit, located, up, down, let."""
    from corps.topology import relation_holds
    if depth < 0:
        return
    for name, var_ty, abs_tag in env:
        if abs_tag == viewpoint and var_ty == ty:
            yield S.Var(name)
    if isinstance(ty, S.Unit):
        yield S.UnitVal()
    if isinstance(ty, S.Believes):
        for inner in enumerate_bodies(checker_topo, ty.body, env,
                                      viewpoint + (ty.agent,), depth - 1, fresh):
            yield S.Located(ty.agent, inner)
    stack, core = S.split_stack(ty)
    for k in range(1, len(stack) + 1):
        if relation_holds(checker_topo, "canup", viewpoint, viewpoint + stack[:k]):
            rest = S.belief_stack(stack[k:], core)
            for inner in enumerate_bodies(checker_topo, rest, env, viewpoint,
                                          depth - 1, fresh):
                yield S.Up(stack[:k], inner)
    for g in (("A",), ("A", "A")):
        if relation_holds(checker_topo, "candown", viewpoint, viewpoint + g):
            for inner in enumerate_bodies(checker_topo, S.belief_stack(g, ty),
                                          env, viewpoint, depth - 1, fresh):
                yield S.Down(g, inner)
    if depth >= 1:
        var = f"e{fresh[0]}"
        for g2 in ((), ("A",)):
            for sigma in (S.Unit(), S.Void(), S.Believes("A", S.Void())):
                bound_ty = S.belief_stack(g2, sigma)
                for bound in enumerate_bodies(checker_topo, bound_ty, env,
                                              viewpoint, depth - 1,
                                              (fresh[0] + 1,)):
                    inner_env = env + [(var, sigma, viewpoint + g2)]
                    for body in enumerate_bodies(checker_topo, ty, inner_env,
                                                 viewpoint, depth - 1,
                                                 (fresh[0] + 1,)):
                        yield S.ModalLet((), g2, var, bound, body)


class TestNoTAxiom:
    def _search(self, preset_or_rules: str, depth: int):
        topo = _topology(preset_or_rules)
        checker = Checker(topo)
        env = [("x", S.Believes("A", S.Void()), ())]
        hits = []
        count = 0
        for body in enumerate_bodies(topo, S.Void(), env, (), depth):
            count += 1
            expr = S.Lam("x", body)
            try:
                checker.check((), expr, parse_type("[A] void -> void"))
                hits.append(expr)
            except TypeCheckError:
                pass
        return hits, count

    def test_specific_t_candidates_rejected(self):
        topo = load_preset("doxastic")
        checker = Checker(topo)
        for src, target in [
            ("fun x -> down [A] x", "[A] void -> void"),
            ("fun x -> down [A] x", "[A] unit -> unit"),
            ("fun x -> let [] [A] y = x in y", "[A] unit -> unit"),
            ("fun x -> down [] (up [] x)", "[A] unit -> [A] unit"),
        ]:
            with pytest.raises(TypeCheckError):
                checker.check((), parse_expr(src), parse_type(target))

    def test_no_inhabitant_within_budget(self):
        hits, _ = self._search("doxastic", 3)
        assert not hits

    def test_search_space_is_nontrivial(self):
        # The same enumerator explores a real space when the type allows it.
        topo = load_preset("doxastic")
        count = sum(1 for _ in enumerate_bodies(
            topo, S.Believes("A", S.Unit()),
            [("x", S.Believes("A", S.Void()), ())], (), 3))
        assert count > 100

    def test_search_is_effective_positive_control(self):
        # With unrestricted downward communication the same search finds
        # the proof immediately, so the empty result above is meaningful.
        hits, _ = self._search("candown: * => *.$a", 2)
        assert hits


class TestDeterminism:
    def test_same_input_same_output(self):
        topo = load_preset("choreo")
        checker = Checker(topo)
        e = parse_expr("send A.(fst ((), ())) to [B]")
        assert checker.infer((), e) == checker.infer((), e)
