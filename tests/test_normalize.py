import sys

import pytest

from corps import syntax as S
from corps.normalize import (
    _HOLES, _MACHINE, _VALUE_REDUCTS, EvalMode, FuelExhausted, NormalFormClass,
    StuckUnexpected, classify, is_positive_value, is_value, normalize, step,
)
from corps.parser import parse_expr
from corps.printer import expr_str
from corps.syntax import Machine, expr_equal
from corps.topology import load_preset
from corps.typecheck import Checker, inline_main
import genprog

CF, POS = EvalMode.COMM_FREE, EvalMode.POSITIVE_COMM


def nf(mode, src, fuel=1000):
    e, cls, steps = normalize(mode, parse_expr(src), fuel)
    return expr_str(e), cls, steps


class TestValues:
    def test_located_pair_is_positive(self):
        e = parse_expr("A.((), ())")
        assert is_value(e) and is_positive_value(e)

    def test_lambda_is_value_not_positive(self):
        e = parse_expr("fun x -> x")
        assert is_value(e) and not is_positive_value(e)

    def test_redex_is_not_a_value(self):
        assert not is_value(parse_expr("fst ((), ())"))

    def test_lambda_under_located_blocks_positivity(self):
        assert not is_positive_value(parse_expr("A.(fun x -> x)"))

    def test_annotated_value_is_a_value(self):
        assert is_value(parse_expr("(() : unit)"))

    def test_annotated_injection_is_a_value(self):
        assert is_value(parse_expr("(inl () : unit + unit)"))

    def test_annotated_lambda_is_not_positive(self):
        e = parse_expr("(fun x -> x : unit -> unit)")
        assert is_value(e) and not is_positive_value(e)

    def test_value_tests_agree_with_the_machine_on_generated_reducts(self):
        positive = Machine(_HOLES, _MACHINE.values - {S.Lam})
        seen = set()
        for preset in ("choreo", "doxastic", "siblings"):
            for seed in range(20):
                main, _ = inline_main(genprog.program(seed, preset, projectable=True))
                for e in _iterate_step(POS, main)[0]:
                    seen |= assert_value_tests_agree_with_machines(
                        e, (is_value, _MACHINE), (is_positive_value, positive))
        assert seen == {True, False}


def subterms(e):
    """`e` and every node below it, binders or not."""
    pending = [e]
    while pending:
        e = pending.pop()
        yield e
        pending += S.children(e)


def assert_value_tests_agree_with_machines(e, *tests) -> set[bool]:
    """Each (value test, machine) pair agrees on `e` and its subterms: a term
    is a value exactly when the machine finds no stop in it.  The set of
    verdicts given."""
    verdicts = set()
    for sub in subterms(e):
        for is_value, machine in tests:
            frames, focus = machine.refocus(None, sub)
            verdict = frames is None and type(focus) in machine.values
            assert is_value(sub) is verdict, expr_str(sub)
            verdicts.add(verdict)
    return verdicts


class TestStep:
    def test_modal_let_strips_stack(self):
        e = parse_expr("let [] [A] x = A.() in A.x")
        r = step(CF, e)
        assert r is not None and r[1] == "modal-let"
        assert expr_equal(r[0], parse_expr("A.()"))

    def test_send_relocates_positive_payload(self):
        r = step(POS, parse_expr("send A.() to [B]"))
        assert r is not None and r[1] == "send"
        assert expr_equal(r[0], parse_expr("B.()"))

    def test_send_frozen_in_comm_free(self):
        assert step(CF, parse_expr("send A.() to [B]")) is None

    def test_up_wraps(self):
        r = step(POS, parse_expr("up [A.B] ()"))
        assert expr_equal(r[0], parse_expr("A.B.()"))

    def test_down_strips_exact_stack(self):
        r = step(POS, parse_expr("down [A] (A.B.())"))
        assert expr_equal(r[0], parse_expr("B.()"))

    def test_lambda_payload_never_moves(self):
        assert step(POS, parse_expr("send A.(fun x -> x) to [B]")) is None

    def test_beta(self):
        r = step(POS, parse_expr("(fun x -> (x, x) : unit -> unit * unit) ()"))
        assert r is not None and r[1] == "beta"
        assert expr_equal(r[0], parse_expr("((), ())"))

    def test_case_picks_branch(self):
        r = step(POS, parse_expr("case (inl () : unit + unit) of inl x -> x"
                                 " | inr y -> ()"))
        assert r[1] == "case-inl"
        assert expr_equal(r[0], S.UnitVal())

    def test_no_reduction_under_lambda(self):
        assert step(POS, parse_expr("fun x -> fst ((), ())")) is None

    def test_subterm_of_frozen_comm_still_evaluates(self):
        r = step(CF, parse_expr("send A.(fst ((), ())) to [B]"))
        assert r is not None and r[1] == "fst"

    def test_right_sibling_of_frozen_comm_evaluates(self):
        e = parse_expr("(send A.() to [B], fst ((), ()))")
        r = step(CF, e)
        assert r is not None and r[1] == "fst"


class TestNormalize:
    def test_positive_mode_example(self):
        text, cls, _ = nf(POS, "send A.(fst ((), ())) to [B]", 100)
        assert text == "B.()"
        assert cls is NormalFormClass.VALUE

    def test_comm_free_same_term(self):
        text, cls, _ = nf(CF, "send A.(fst ((), ())) to [B]", 100)
        assert text == "send A.() to [B]"
        assert cls is NormalFormClass.COMM_NEUTRAL

    def test_trivial_value(self):
        e, cls, steps = normalize(POS, S.UnitVal(), 1)
        assert (e, cls, steps) == (S.UnitVal(), NormalFormClass.VALUE, 0)

    def test_open_term_classifies_open(self):
        _, cls, _ = normalize(POS, parse_expr("fst x"), 10)
        assert cls is NormalFormClass.OPEN

    def test_fuel_exhausted_carries_last_term(self):
        e = parse_expr("(fun x -> fst (x, x) : unit -> unit) "
                       "(fst ((), snd ((), ())))")
        with pytest.raises(FuelExhausted) as exc:
            normalize(POS, e, 1)
        assert exc.value.steps == 1

    def test_zero_fuel_rejected(self):
        with pytest.raises(ValueError):
            normalize(POS, S.UnitVal(), 0)

    def test_stuck_on_ill_typed_garbage(self):
        with pytest.raises(StuckUnexpected):
            normalize(POS, S.App(S.UnitVal(), S.UnitVal()), 10)

    def test_down_of_a_value_not_located_at_its_path_is_stuck(self):
        # Its body is a value, but not one `down [A]` can open: stuck, not
        # a communication waiting to fire.
        with pytest.raises(StuckUnexpected):
            classify(parse_expr("down [A] ()"))

    @pytest.mark.parametrize("node", [
        S.SKIP, S.Seq(S.UnitVal(), S.UnitVal()), S.SendTo(("B",), S.UnitVal()),
        S.RecvFrom(("B",))], ids=["skip", "sequence", "send to", "receive from"])
    def test_local_only_node_is_not_an_expression(self, node):
        # The simulator rejects a choreographic node the same way.
        redex = S.App(S.Lam("x", S.Var("x")), S.UnitVal())
        for e in (node, S.Pair(S.UnitVal(), node), S.Pair(redex, node)):
            for mode in (CF, POS):
                with pytest.raises(TypeError, match="^not an expression"):
                    normalize(mode, e, 10)
                with pytest.raises(TypeError, match="^not an expression"):
                    _iterate_step(mode, e)

    def test_deep_local_only_node_is_not_an_expression(self):
        # The error names the node's class: a record repr of 3,000
        # nested nodes would overflow the stack.  The checker rejects it
        # the same way.
        n = 3_000
        assert sys.getrecursionlimit() < n
        e = S.UnitVal()
        for _ in range(n):
            e = S.Seq(e, S.UnitVal())
        for mode in (CF, POS):
            with pytest.raises(TypeError, match="^not an expression: Seq$"):
                normalize(mode, e, 10)
        with pytest.raises(TypeError, match="^not an expression: Seq$"):
            Checker(load_preset("choreo")).infer((), e)

    def test_determinism(self):
        e = parse_expr("let [] [A] x = A.(up [A] ()) in A.(down [A] x)")
        first = normalize(POS, e, 100)
        second = normalize(POS, e, 100)
        assert expr_equal(first[0], second[0]) and first[2] == second[2]

    def test_step_trace(self):
        records = []
        normalize(POS, parse_expr("send A.(fst ((), ())) to [B]"), 100,
                  on_step=lambda i, rule, span: records.append((i, rule)))
        assert records == [(0, "fst"), (1, "send")]


def _positive_comm_residuals(e):
    """Communications in evaluable positions whose payload is positive."""
    out = []

    def walk(e):
        match e:
            case S.Lam():
                return
            case S.Case(scrutinee, _, _, _, _):
                walk(scrutinee)
            case S.Send(payload, _) | S.Up(_, payload) | S.Down(_, payload):
                if is_positive_value(payload):
                    out.append(e)
                walk(payload)
            case S.ModalLet(_, _, _, bound, _):
                walk(bound)
            case _:
                for child in S.children(e):
                    walk(child)

    walk(e)
    return out


class TestSuiteProperties:
    def test_generated_suite(self):
        # termination, classification, subject reduction, mode containment
        for seed in range(120):
            for preset in ("doxastic", "choreo"):
                topo = load_preset(preset)
                program = genprog.program(seed, preset)
                main, ty = inline_main(program)
                checker = Checker(topo)
                for mode in (CF, POS):
                    e = main
                    while True:
                        r = step(mode, e)
                        if r is None:
                            break
                        e = r[0]
                        checker.check((), e, ty)
                    cls = classify(e)
                    assert cls in (NormalFormClass.VALUE,
                                   NormalFormClass.COMM_NEUTRAL)
                nf_cf, _, _ = normalize(CF, main, 100_000)
                nf_pos, cls_pos, _ = normalize(POS, main, 100_000)
                nf_both, _, _ = normalize(POS, nf_cf, 100_000)
                assert expr_equal(nf_both, nf_pos)
                # no residual fireable communication in a positive normal form
                assert not _positive_comm_residuals(nf_pos)

    def test_down_residual_requires_matching_stack(self):
        # a frozen communication below a non-positive payload stays put
        text, cls, _ = nf(POS, "down [A] (A.(fun x -> x))", 50)
        assert cls is NormalFormClass.COMM_NEUTRAL
        assert text == "down [A] A.(fun x -> x)"


def _iterate_step(mode, e):
    """The reference engine: every term and (rule, span) of `step` iterated."""
    terms, trail = [e], []
    while (r := step(mode, e)) is not None:
        e = r[0]
        terms.append(e)
        trail.append((r[1], r[2]))
    return terms, trail


def _generated_mains():
    """The mains of the generated suites, 40 programs per preset, projectable
    or not, printed and parsed again so that every node has a span."""
    for preset in ("doxastic", "choreo", "siblings"):
        for projectable in (False, True):
            for seed in range(40):
                main, _ = inline_main(genprog.program(seed, preset, projectable=projectable))
                yield parse_expr(expr_str(main))


def _send_chain(n):
    """A.() sent n times, alternately to [B] and [A], built without the parser."""
    e = S.Located("A", S.UnitVal())
    for i in range(n):
        e = S.Send(e, ("A",) if i % 2 else ("B",))
    return e


class TestRefocusedMachine:
    def test_agrees_with_step_on_generated_suites(self):
        for main in _generated_mains():
            for mode in (CF, POS):
                terms, trail = _iterate_step(mode, main)
                seen = []
                e, cls, steps = normalize(
                    mode, main, 100_000,
                    lambda i, rule, span: seen.append((i, rule, span)))
                assert e == terms[-1] and expr_equal(e, terms[-1])
                assert cls is classify(terms[-1])
                assert steps == len(trail)
                assert seen == [(i, *t) for i, t in enumerate(trail)]
                for fuel in range(1, steps):
                    with pytest.raises(FuelExhausted) as exc:
                        normalize(mode, main, fuel)
                    assert exc.value.steps == fuel
                    assert exc.value.last == terms[fuel]

    def test_the_reducts_it_climbs_past_are_values(self, monkeypatch):
        # `normalize` climbs past the reduct of a rule in `_VALUE_REDUCTS`
        # without entering it, which is sound only if that reduct is a value.
        module = sys.modules["corps.normalize"]
        contract, fired = module._contract, []

        def recorded(positive, e):
            r = contract(positive, e)
            if r is not None:
                fired.append(r)
            return r

        monkeypatch.setattr(module, "_contract", recorded)
        for main in _generated_mains():
            for mode in (CF, POS):
                _iterate_step(mode, main)
        climbed = [(reduct, rule) for reduct, rule in fired if rule in _VALUE_REDUCTS]
        assert {rule for _, rule in climbed} == _VALUE_REDUCTS
        assert [(rule, expr_str(reduct)) for reduct, rule in climbed
                if not is_value(reduct)] == []

    def test_deep_context_needs_no_python_stack(self):
        # Far past the default recursion limit; never compare or print the
        # input itself, since record == and repr recurse.
        assert sys.getrecursionlimit() < 5_000
        e, cls, steps = normalize(POS, _send_chain(5_000), 100_000)
        assert (e, cls, steps) == (S.Located("A", S.UnitVal()),
                                   NormalFormClass.VALUE, 5_000)

    @pytest.mark.parametrize("n", [500, 2_000])
    def test_machine_visits_each_node_a_bounded_number_of_times(self, monkeypatch, n):
        # A visit is a lookup of a node's evaluation positions.  A chain of
        # n sends has n + 2 nodes and takes n steps: each node is entered
        # once on the way down, and the n + 1 frames above the leaf are each
        # left once on the way up.  A reduct, a value, is climbed past and
        # never entered.
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

        monkeypatch.setattr(_MACHINE, "holes", Counted(_HOLES))
        _, _, steps = normalize(POS, _send_chain(n), 100_000)
        assert steps == n
        assert 0 < visits <= (n + 2) + steps + 1

    def test_a_send_step_walks_its_payload_once(self, monkeypatch):
        # A walk is a call of a value test.  Each send of a chain decides
        # with one walk of its payload, and classifying the normal form
        # takes one more.
        module = sys.modules["corps.normalize"]
        walks = 0

        def counted(test):
            def walk(e):
                nonlocal walks
                walks += 1
                return test(e)
            return walk

        for name in ("is_value", "is_positive_value"):
            monkeypatch.setattr(module, name, counted(getattr(module, name)))
        _, cls, steps = normalize(POS, _send_chain(2_000), 100_000)
        assert (cls, steps) == (NormalFormClass.VALUE, 2_000)
        assert 0 < walks <= steps + 1

    def test_deep_value_needs_no_python_stack(self):
        # A.A.(...A.(())...) is a value already, so the classifier walks all
        # of it; again check only by identity, never by == or repr.
        assert sys.getrecursionlimit() < 5_000
        value, open_term = S.UnitVal(), S.Var("x")
        for _ in range(5_000):
            value, open_term = S.Located("A", value), S.Located("A", open_term)
        out, cls, steps = normalize(POS, value, 10)
        assert out is value and (cls, steps) == (NormalFormClass.VALUE, 0)
        assert is_positive_value(value)
        assert classify(open_term) is NormalFormClass.OPEN
