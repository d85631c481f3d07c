import pytest

from corps import syntax as S
from corps.parser import ParseError, parse_expr, parse_path, parse_program, parse_type
from corps.printer import expr_str, pretty_print, type_str
from corps.syntax import expr_equal
import genprog


class TestPaths:
    def test_empty(self):
        assert parse_path("[]") == ()

    def test_two_agents(self):
        assert parse_path("[A.B]") == ("A", "B")

    def test_reject_lowercase(self):
        with pytest.raises(ParseError):
            parse_path("[a]")


class TestTypes:
    def test_arrow_modal(self):
        assert parse_type("unit -> [A] unit") == \
            S.Arrow(S.Unit(), S.Believes("A", S.Unit()))

    def test_stack_sugar(self):
        assert parse_type("[A.B] unit") == \
            S.Believes("A", S.Believes("B", S.Unit()))

    def test_empty_stack_is_identity(self):
        assert parse_type("[] unit") == S.Unit()

    def test_precedence(self):
        # -> lowest and right-assoc; + over *; modality tightest
        assert parse_type("unit -> unit -> unit") == \
            S.Arrow(S.Unit(), S.Arrow(S.Unit(), S.Unit()))
        assert parse_type("unit + unit * unit") == \
            S.Sum(S.Unit(), S.Product(S.Unit(), S.Unit()))
        assert parse_type("[A] unit * unit") == \
            S.Product(S.Believes("A", S.Unit()), S.Unit())
        assert parse_type("[A] (unit * unit)") == \
            S.Believes("A", S.Product(S.Unit(), S.Unit()))


class TestExprs:
    def test_located_unit(self):
        assert parse_expr("A.()") == S.Located("A", S.UnitVal())

    def test_application_left_assoc(self):
        e = parse_expr("f x y")
        assert e == S.App(S.App(S.Var("f"), S.Var("x")), S.Var("y"))

    def test_send_payload_is_application(self):
        e = parse_expr("send f x to [B]")
        assert e == S.Send(S.App(S.Var("f"), S.Var("x")), ("B",))

    def test_annotation(self):
        e = parse_expr("(x : unit)")
        assert e == S.Annot(S.Var("x"), S.Unit())

    def test_nested_located_atom(self):
        assert parse_expr("A.B.x") == \
            S.Located("A", S.Located("B", S.Var("x")))

    def test_case(self):
        e = parse_expr("case s of inl x -> () | inr y -> y")
        assert e == S.Case(S.Var("s"), "x", S.UnitVal(), "y", S.Var("y"))

    def test_nested_case_branches_attach_inward(self):
        e = parse_expr("case a of inl x -> case b of inl u -> () | inr v -> ()"
                       " | inr y -> ()")
        assert isinstance(e, S.Case)
        assert isinstance(e.left_body, S.Case)
        assert e.right_body == S.UnitVal()


class TestPrograms:
    def test_smallest_program(self):
        p = parse_program("topology doxastic; main : [A] unit = A.();")
        assert p.topology_ref == "doxastic"
        assert p.main_type == S.Believes("A", S.Unit())
        assert p.main_expr == S.Located("A", S.UnitVal())

    def test_stack_sugar_in_main(self):
        p = parse_program("main : [A.A] unit = A.(up [A] ());")
        assert p.main_type == S.Believes("A", S.Believes("A", S.Unit()))

    def test_parser_does_not_typecheck(self):
        # x is misused (wrong viewpoint) but this is fine syntactically.
        p = parse_program("main : unit = let [] [A] x = A.() in x;")
        assert p.main_expr == S.ModalLet(
            (), ("A",), "x", S.Located("A", S.UnitVal()), S.Var("x"))

    def test_inputs_and_defs(self):
        p = parse_program("""
            // a comment
            topology "my.topo";
            input b : [B] (unit + unit);
            def f : unit -> unit = (fun x -> x : unit -> unit);
            main : unit = f ();
        """)
        assert p.topology_ref == "my.topo"
        assert p.inputs[0][0] == "b"
        assert p.defs[0][0] == "f"

    def test_duplicate_def_rejected(self):
        with pytest.raises(ParseError):
            parse_program("def f : unit = (); def f : unit = (); main : unit = ();")
        text = "input b : unit; input b : [A] unit; main : unit = ();"
        with pytest.raises(ParseError, match="duplicate definition of 'b'") as exc:
            parse_program(text)
        # Reported at the repeated name, not at the `;` that ends it.
        span = exc.value.span
        assert (span.start, span.end) == (22, 23) and text[22] == "b"

    def test_error_has_span_inside_input(self):
        text = "main : unit = fst ;"
        with pytest.raises(ParseError) as exc:
            parse_program(text)
        span = exc.value.span
        assert 0 <= span.start <= span.end <= len(text)

    def test_error_expected_tokens(self):
        with pytest.raises(ParseError) as exc:
            parse_program("main unit = ();")
        assert exc.value.expected


class TestRoundTrip:
    def test_simple_program(self):
        src = "main : [A] unit = A.();"
        p = parse_program(src)
        assert parse_program(pretty_print(p)) == p

    def test_stack_sugar_printing(self):
        assert type_str(S.Believes("A", S.Believes("B", S.Unit()))) == "[A.B] unit"

    def test_lambda_application_parens(self):
        e = S.Lam("x", S.App(S.Var("x"), S.Var("x")))
        assert expr_str(e) == "fun x -> x x"
        assert expr_equal(parse_expr(expr_str(e)), e)

    def test_generated_programs(self):
        # parse . pretty_print is the identity up to alpha on generated trees
        for seed in range(300):
            for preset in ("doxastic", "choreo", "siblings"):
                p = genprog.program(seed, preset)
                text = pretty_print(p)
                again = parse_program(text)
                assert again.main_type == p.main_type, text
                assert expr_equal(again.main_expr, p.main_expr), text
                for (n1, t1, b1), (n2, t2, b2) in zip(p.defs, again.defs):
                    assert (n1, t1) == (n2, t2)
                    assert expr_equal(b1, b2)

    def test_handwritten_corner_cases(self):
        cases = [
            "main : unit = (fun x -> x : unit -> unit) ();",
            "main : unit = fst ((), ());",
            "main : unit = snd ((inl () : unit + unit), ());",
            "main : (unit + void) * unit = ((inl () : unit + void), ());",
            "main : unit = let [A] [B.C] x = A.B.C.() in ();",
            "main : [B] unit = send A.() to [B];",
            "main : unit = down [] (up [] ());",
            "main : unit = (fun f -> f f () : (unit -> unit) -> unit)"
            " (fun g -> g : unit -> unit);",
            "main : unit = case (inl () : unit + unit) of inl x -> x | inr y -> y;",
        ]
        for src in cases:
            p = parse_program(src)
            text = pretty_print(p)
            again = parse_program(text)
            assert expr_equal(again.main_expr, p.main_expr), (src, text)
            assert again.main_type == p.main_type
