import pytest

from corps import syntax as S
from corps.nicheck import (
    NIConfig, compare_observations, elaborate_value, ni_check, observation,
)
from corps.parser import parse_expr, parse_path, parse_program, parse_type
from corps.topology import load_preset, parse_topology

BOOLISH = (parse_expr("B.(inl ())"), parse_expr("B.(inr ())"))

FLOW_PROGRAM = ("input b : [B] (unit + unit); "
                "main : [A] (unit + unit) = send b to [A];")

SEALED_PROGRAM = ("topology doxastic; "
                  "input b : [B] (unit + unit); "
                  "main : [B] unit = let [] [B] y = b in "
                  "B.(case y of inl u -> () | inr w -> ());")

CONSTANT_PROGRAM = ("topology doxastic; "
                    "input b : [B] (unit + unit); "
                    "main : [A] unit = A.();")


def cfg(observer="[A]"):
    return NIConfig("b", parse_path(observer), BOOLISH)


class TestElaborate:
    def test_injection_gets_annotation(self):
        out = elaborate_value(parse_expr("B.(inl ())"),
                              parse_type("[B] (unit + unit)"))
        assert out == S.Located(
            "B", S.Annot(S.Inl(S.UnitVal()), S.Sum(S.Unit(), S.Unit())))

    def test_pair_elaborates_each_component(self):
        out = elaborate_value(parse_expr("B.((inl (), ()))"),
                              parse_type("[B] ((unit + unit) * unit)"))
        assert out == S.Located("B", S.Pair(
            S.Annot(S.Inl(S.UnitVal()), S.Sum(S.Unit(), S.Unit())), S.UnitVal()))

    def test_value_annotated_with_its_type_elaborates_as_its_inner_value(self):
        ty = parse_type("[B] (unit + unit)")
        assert (elaborate_value(parse_expr("B.((inl () : unit + unit))"), ty)
                == elaborate_value(parse_expr("B.(inl ())"), ty))

    def test_value_annotated_with_another_type_rejected(self):
        with pytest.raises(ValueError, match="is not a canonical value of type unit"):
            elaborate_value(parse_expr("B.((inl () : unit + void))"),
                            parse_type("[B] (unit + unit)"))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            elaborate_value(parse_expr("A.()"), parse_type("[B] unit"))


class TestVerdicts:
    def test_flow_permitted(self):
        topo = parse_topology("cansend: B => A")
        verdict = ni_check(parse_program(FLOW_PROGRAM), cfg(), topo)
        assert verdict.kind == "FlowPermitted"

    def test_sealed_program_secure(self):
        verdict = ni_check(parse_program(SEALED_PROGRAM), cfg())
        assert verdict.kind == "Secure"
        assert verdict.runs == 2  # one run per value

    def test_constant_program_secure(self):
        verdict = ni_check(parse_program(CONSTANT_PROGRAM), cfg())
        assert verdict.kind == "Secure"

    def test_missing_input_rejected(self):
        with pytest.raises(ValueError):
            ni_check(parse_program(CONSTANT_PROGRAM),
                     NIConfig("nope", ("A",), BOOLISH))

    def test_single_value_rejected(self):
        with pytest.raises(ValueError):
            ni_check(parse_program(CONSTANT_PROGRAM),
                     NIConfig("b", ("A",), (BOOLISH[0],)))

    def test_ill_typed_program_rejected(self):
        program = parse_program(CONSTANT_PROGRAM.replace("A.()", "A.(b)"))
        with pytest.raises(ValueError, match="program does not typecheck"):
            ni_check(program, cfg())

    def test_function_value_rejected(self):
        values = (parse_expr("fun x -> x"), BOOLISH[1])
        with pytest.raises(ValueError, match="is not a closed positive value"):
            ni_check(parse_program(CONSTANT_PROGRAM), NIConfig("b", ("A",), values))

    def test_ill_typed_value_rejected(self):
        with pytest.raises(ValueError):
            ni_check(parse_program(SEALED_PROGRAM),
                     NIConfig("b", ("A",), (parse_expr("A.(inl ())"),
                                            parse_expr("B.(inr ())"))))


class TestDetector:
    def test_core_finds_divergence_on_permitted_flow(self):
        # Bypass the reachability gate: the detection core must see the
        # two input values produce different observations at [A].
        topo = parse_topology("cansend: B => A")
        witness, runs = compare_observations(
            parse_program(FLOW_PROGRAM), cfg(), topo)
        assert witness is not None
        assert runs >= 2
        assert witness.observation_a != witness.observation_b

    def test_witness_replays(self):
        topo = parse_topology("cansend: B => A")
        config = cfg()
        first, _ = compare_observations(parse_program(FLOW_PROGRAM), config, topo)
        again, _ = compare_observations(parse_program(FLOW_PROGRAM), config, topo)
        assert (first.observation_a, first.observation_b) == \
            (again.observation_a, again.observation_b)
        # replaying with just the witness pair reproduces the divergence
        narrowed = NIConfig("b", config.observer, (first.value_a, first.value_b))
        rerun, _ = compare_observations(parse_program(FLOW_PROGRAM), narrowed, topo)
        assert rerun is not None

    def test_secure_case_has_no_witness(self):
        witness, _ = compare_observations(
            parse_program(SEALED_PROGRAM), cfg(), load_preset("doxastic"))
        assert witness is None


class TestObservation:
    def test_observer_events_only(self):
        topo = parse_topology("cansend: B => A")
        program = parse_program(FLOW_PROGRAM)
        from corps.nicheck import _substituted
        from corps.projection import project_network
        from corps.netsim import run, RoundRobin
        rich = elaborate_value(BOOLISH[0], parse_type("[B] (unit + unit)"))
        network = project_network(_substituted(program, "b", rich), topo)
        result = run(network, RoundRobin())
        value, events = observation(result, ("A",))
        assert value == "inl ()"
        assert events == (("Recv", ("B",), "inl ()"),)
