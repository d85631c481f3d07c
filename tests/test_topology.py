import itertools

import pytest
from hypothesis import given, settings, strategies as st

import progen
from corps.topology import (
    KINDS, PRESETS, Topology, TopologyError, flow_reachable, load_preset,
    parse_topology, relation_holds,
)


def paths_up_to(n, agents=progen.AGENTS):
    out = [()]
    for k in range(1, n + 1):
        out.extend(itertools.product(agents, repeat=k))
    return out


def doxastic_down_oracle(a, b):
    # candown(g1, g2) iff g1 = g.A and g2 = g.A.A, by direct definition
    return len(a) >= 1 and b == a + (a[-1],)


class TestPresets:
    def test_doxastic_candown_example(self):
        t = load_preset("doxastic")
        assert relation_holds(t, "candown", ("A",), ("A", "A"))

    def test_unknown_relation_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown relation kind 'cansee'"):
            relation_holds(load_preset("choreo"), "cansee", ("A",), ("B",))

    def test_doxastic_root_has_no_down(self):
        t = load_preset("doxastic")
        assert not relation_holds(t, "candown", (), ("A",))

    def test_cansend_constant_true(self):
        t = parse_topology("cansend: true")
        for a, b in itertools.product(paths_up_to(2), repeat=2):
            assert relation_holds(t, "cansend", a, b)

    def test_doxastic_canup_deep(self):
        t = load_preset("doxastic")
        assert relation_holds(t, "canup", ("B", "A"), ("B", "A", "A"))

    def test_choreo_cansend(self):
        t = load_preset("choreo")
        assert relation_holds(t, "cansend", ("A",), ("B",))

    def test_doxastic_cansend_absent(self):
        t = load_preset("doxastic")
        assert not relation_holds(t, "cansend", ("A",), ("B",))

    def test_siblings_cansend(self):
        t = load_preset("siblings")
        assert relation_holds(t, "cansend", ("C", "A"), ("C", "B"))
        assert not relation_holds(t, "cansend", ("C", "A"), ("D", "B"))
        assert not relation_holds(t, "cansend", ("A",), ("C", "B"))

    def test_unknown_preset(self):
        with pytest.raises(TopologyError, match="^unknown preset 'nosuch'; expected one "
                           "of choreo, doxastic, siblings$"):
            load_preset("nosuch")

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_each_preset_is_parsed_once(self, name):
        t = load_preset(name)
        assert load_preset(name) is t
        assert t == parse_topology(PRESETS[name], name)

    def test_doxastic_characterization_exhaustive(self):
        # Enumerate all path pairs up to length 3 over three agents and
        # compare the pattern matcher against the direct definition.
        t = load_preset("doxastic")
        for a in paths_up_to(3):
            for b in paths_up_to(3):
                expected = doxastic_down_oracle(a, b)
                assert relation_holds(t, "candown", a, b) == expected, (a, b)
                assert relation_holds(t, "canup", a, b) == expected, (a, b)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_the_generators_restated_presets_agree(self, name):
        # The test suites generate programs through bench/progen's own
        # statement of each preset, so it must decide what the library does.
        t = load_preset(name)
        assert set(progen.PRESETS) == set(PRESETS)
        for kind in KINDS:
            for a, b in itertools.product(paths_up_to(3), repeat=2):
                assert progen.relation_holds(name, kind, a, b) == \
                    relation_holds(t, kind, a, b), (kind, a, b)


class TestParsing:
    def test_literal_rule(self):
        t = parse_topology("cansend: A => B")
        assert relation_holds(t, "cansend", ("A",), ("B",))
        assert not relation_holds(t, "cansend", ("B",), ("A",))

    def test_doxastic_rule_text(self):
        t = parse_topology("candown: *.$a => *.$a.$a")
        assert relation_holds(t, "candown", ("A",), ("A", "A"))
        assert not relation_holds(t, "candown", ("A",), ("A", "B"))

    def test_constant_rule(self):
        t = parse_topology("cansend: true")
        assert relation_holds(t, "cansend", (), ("A", "B"))

    def test_comments_and_blank_lines(self):
        t = parse_topology("# policy\n\ncansend: A => B  # trailing\n")
        assert relation_holds(t, "cansend", ("A",), ("B",))

    def test_star_not_at_head_rejected(self):
        with pytest.raises(TopologyError) as exc:
            parse_topology("cansend: A.* => B")
        assert exc.value.line == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(TopologyError) as exc:
            parse_topology("candown: A => B\ncanfly: A => B")
        assert exc.value.line == 2

    def test_star_binds_same_prefix_both_sides(self):
        t = parse_topology("cansend: *.$a => *.$b")
        assert relation_holds(t, "cansend", ("X", "A"), ("X", "B"))
        assert not relation_holds(t, "cansend", ("X", "A"), ("Y", "B"))

    def test_agent_var_consistency(self):
        t = parse_topology("cansend: $a.$a => $a")
        assert relation_holds(t, "cansend", ("A", "A"), ("A",))
        assert not relation_holds(t, "cansend", ("A", "B"), ("A",))

    def test_false_rule_matches_nothing(self):
        t = parse_topology("cansend: false")
        assert not relation_holds(t, "cansend", ("A",), ("B",))

    def test_determinism(self):
        t = load_preset("siblings")
        pairs = list(itertools.product(paths_up_to(2), repeat=2))
        first = [relation_holds(t, "cansend", a, b) for a, b in pairs]
        second = [relation_holds(t, "cansend", a, b) for a, b in pairs]
        assert first == second


def closure_oracle(topology, universe):
    """Floyd-Warshall closure over explicitly materialized edges."""
    nodes = sorted(universe)
    index = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    reach = [[i == j for j in range(n)] for i in range(n)]
    for a in nodes:
        for b in nodes:
            if relation_holds(topology, "cansend", a, b):
                reach[index[a]][index[b]] = True
            if b[:len(a)] == a:
                if relation_holds(topology, "canup", a, b):
                    reach[index[a]][index[b]] = True
                if relation_holds(topology, "candown", a, b):
                    reach[index[b]][index[a]] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if reach[i][k] and reach[k][j]:
                    reach[i][j] = True
    return {(a, b) for a in nodes for b in nodes if reach[index[a]][index[b]]}


class TestFlowReachable:
    def test_choreo_direct_send(self):
        t = load_preset("choreo")
        assert flow_reachable(t, ("A",), ("B",), {(), ("A",), ("B",)})

    def test_doxastic_sealed(self):
        t = load_preset("doxastic")
        assert not flow_reachable(t, ("A",), ("B",), {(), ("A",), ("B",)})

    def test_reflexive(self):
        t = parse_topology("cansend: false")
        assert flow_reachable(t, ("A",), ("A",), {("A",)})

    def test_doxastic_vertical_chain(self):
        t = load_preset("doxastic")
        universe = {(), ("A",), ("A", "A"), ("A", "A", "A")}
        assert flow_reachable(t, ("A",), ("A", "A", "A"), universe)
        assert flow_reachable(t, ("A", "A", "A"), ("A",), universe)
        assert not flow_reachable(t, ("A",), (), universe)

    def test_matches_closure_oracle(self):
        universe = set(paths_up_to(2, ("A", "B")))
        for preset in ("doxastic", "choreo", "siblings"):
            t = load_preset(preset)
            expected = closure_oracle(t, universe)
            for a in universe:
                for b in universe:
                    assert flow_reachable(t, a, b, universe) == ((a, b) in expected), \
                        (preset, a, b)

    def test_monotone_in_rules(self):
        base = parse_topology("candown: *.$a => *.$a.$a\ncanup: *.$a => *.$a.$a")
        extended = parse_topology(
            "candown: *.$a => *.$a.$a\ncanup: *.$a => *.$a.$a\ncansend: A => B")
        universe = set(paths_up_to(2, ("A", "B")))
        for a in universe:
            for b in universe:
                if flow_reachable(base, a, b, universe):
                    assert flow_reachable(extended, a, b, universe)


# Lines that are rules with pieces missing or swapped, or runs over an
# alphabet of rule pieces, stray characters and characters on the edge of
# the identifier and whitespace classes.
RULE_PIECES = (
    "candown:", "canup:", "cansend:", "canfly:", "=>", "=", ">", "*", "$a",
    "$b", "$", "$1", ".", "..", "A", "B", "a", "true", "false", ":", "#",
    " ", "\t", "\n", "\r", "\x0b", "\x1c", "\xa0", "\u2028", "²", "Ⅻ", "_", "é",
)
ATOMS = st.sampled_from(("*", "$a", "$b", "A", "B", "A1", "", "$", "a", " * "))
PATTERNS = st.lists(ATOMS, min_size=1, max_size=4).map(".".join)
RULES = st.tuples(st.sampled_from(("candown", "canup", "cansend", "can send", "")),
                  st.sampled_from((":", ": ", "")), PATTERNS,
                  st.sampled_from((" => ", "=>", " = ", "")), PATTERNS
                  ).map("".join)
LINES = st.one_of(RULES, st.lists(st.sampled_from(RULE_PIECES), max_size=12).map("".join))
RULE_TEXTS = st.lists(LINES, max_size=6).map("\n".join)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(RULE_TEXTS)
def test_any_topo_text_gives_a_topology_or_a_topology_error(text):
    try:
        assert isinstance(parse_topology(text), Topology)
    except TopologyError:
        pass
