"""The parser's nesting limit, and the stages behind it at that limit.

Every test here runs at the interpreter's default recursion limit, so a
change that puts Python frames back into the parser, or into a stage
that recurses over the syntax tree, shows up as a RecursionError.
"""

import pytest
from hypothesis import given, settings, strategies as st

from corps import netsim
from corps.normalize import EvalMode, normalize
from corps.parser import MAX_NESTING, ParseError, Program, parse_program
from corps.printer import expr_str
from corps.projection import local_str, project_network
from corps.typecheck import check_program, inline_main, resolve_topology


def parens(depth: int) -> str:
    return "main : unit = " + "(" * depth + "()" + ")" * depth + ";\n"


def send_chain(n: int, innermost_parens: bool = False) -> tuple[str, str]:
    """n nested A<->B sends and the final holder.

    Each send's payload is the previous send in parentheses.  The
    innermost payload `A.()` is parenthesized only when asked, as the
    benchmark's chain family writes it; without those parentheses the
    chain nests exactly n deep: n - 1 parentheses and one located body.
    """
    expr, holder = "A.()", "A"
    for i in range(n):
        holder = "B" if holder == "A" else "A"
        payload = f"({expr})" if i or innermost_parens else expr
        expr = f"send {payload} to [{holder}]"
    return f"topology choreo;\nmain : [{holder}] unit = {expr};\n", holder


def type_chain(op: str, n: int) -> str:
    return f" {op} ".join(["unit"] * (n + 1))


def every_form(n: int) -> list[str]:
    """One program per counted form, each nesting that form n deep."""
    exprs = ("fst " * n + "x",
             "A." * n + "()",
             "fun x -> " * n + "x",
             "let [] [] x = () in " * n + "x",
             "case x of inl y -> () | inr z -> " * n + "()",
             "(x, " * n + "x" + ")" * n,
             "f" + " x" * n)
    types = ("[A] " * n + "unit",
             "[" + ".".join("A" * n) + "] unit",
             "(" * n + "unit" + ")" * n,
             *(type_chain(op, n) for op in ("->", "+", "*")))
    return ([f"main : unit = {e};" for e in exprs]
            + [f"main : {t} = ();" for t in types])


def chains(n: int) -> dict[str, str]:
    """Well-typed programs whose longest operator chain has n operators."""
    pairs = "()"
    for _ in range(n):
        pairs = f"({pairs}, ())"
    return {
        # f's type is an n-arrow chain; main applies it to n arguments
        "application": (f"def f : {type_chain('->', n)} = {'fun x -> ' * n}();\n"
                        f"main : unit = f{' ()' * n};\n"),
        "sum": f"main : {type_chain('+', n)} = inr ();\n",
        "product": f"main : {type_chain('*', n)} = {pairs};\n",
    }


def run_every_stage(source: str) -> None:
    program = parse_program(source)
    topology = resolve_topology(program)
    assert check_program(program, topology) == []
    expr, _ = inline_main(program)
    normalize(EvalMode.POSITIVE_COMM, expr, 100_000)
    network = project_network(program, topology)
    for process in network.processes.values():
        local_str(process)
    assert netsim.epp_agreement(program, [netsim.RoundRobin()], topology).agree
    expr_str(program.main_expr)


def nesting_error(source: str) -> ParseError:
    with pytest.raises(ParseError) as exc:
        parse_program(source)
    assert exc.value.message == "input nests too deeply"
    return exc.value


class TestAtTheLimit:
    def test_limit_is_256(self):
        assert MAX_NESTING == 256

    def test_parens(self):
        run_every_stage(parens(MAX_NESTING))

    def test_send_chain(self):
        source, holder = send_chain(MAX_NESTING)
        run_every_stage(source)
        e = parse_program(source).main_expr
        assert e.dest == (holder,)

    @pytest.mark.parametrize("name", sorted(chains(1)))
    def test_operator_chains(self, name):
        run_every_stage(chains(MAX_NESTING)[name])

    def test_every_form_parses(self):
        for source in every_form(MAX_NESTING):
            assert isinstance(parse_program(source), Program)

    def test_siblings_do_not_add_up(self):
        # Each form closes the levels it opens: more siblings than the
        # limit, each in its own definition, stay one level deep, and the
        # operands of a chain add only its operators' levels.
        many = 2 * MAX_NESTING
        ops = MAX_NESTING // 2
        for arg in ("(x)", "(x, x)", "(x : unit)", "fst x", "A.x", "(fun y -> y)",
                    "(let [] [] y = x in y)", "(case x of inl y -> y | inr z -> z)",
                    "(f x)"):
            defs = "".join(f"def d{i} : unit = {arg};\n" for i in range(many))
            assert isinstance(parse_program(defs + "main : unit = ();"), Program)
            assert isinstance(parse_program(f"main : unit = f {' '.join([arg] * ops)};"),
                              Program)
        for ty in ("(unit)", "[A] unit", "[A.B] (unit -> unit)"):
            inputs = "".join(f"input i{i} : {ty};\n" for i in range(many))
            assert isinstance(parse_program(inputs + "main : unit = ();"), Program)
            assert isinstance(parse_program(f"main : {' * '.join([ty] * ops)} = ();"),
                              Program)


class TestBeyondTheLimit:
    def test_parens(self):
        err = nesting_error(parens(MAX_NESTING + 1))
        # The span is the parenthesis that opens the 257th level.
        opening = len("main : unit = ") + MAX_NESTING
        assert (err.span.start, err.span.end) == (opening, opening + 1)

    def test_send_chain(self):
        nesting_error(send_chain(MAX_NESTING + 1)[0])
        nesting_error(send_chain(MAX_NESTING, innermost_parens=True)[0])

    def test_every_form(self):
        for source in every_form(MAX_NESTING + 1):
            nesting_error(source)

    @pytest.mark.parametrize("op", ["->", "+", "*"])
    def test_type_operator_chains(self, op):
        err = nesting_error(f"main : {type_chain(op, MAX_NESTING + 1)} = ();")
        # The span is the operator that opens the 257th level.
        at = len("main : unit") + MAX_NESTING * len(f" {op} unit") + 1
        assert (err.span.start, err.span.end) == (at, at + len(op))

    def test_application_chain(self):
        err = nesting_error("main : unit = f" + " x" * (MAX_NESTING + 1) + ";")
        # An application's level opens at its argument.
        at = len("main : unit = f") + MAX_NESTING * len(" x") + 1
        assert (err.span.start, err.span.end) == (at, at + 1)

    def test_far_beyond(self):
        nesting_error(parens(20 * MAX_NESTING))
        nesting_error("main : unit = " + "inl " * 10_000 + "();")
        nesting_error("main : unit = (fun f -> () : unit -> unit)" + " ()" * 3_000 + ";")
        nesting_error(f"main : {type_chain('->', 3_000)} = ();")


def test_benchmark_largest_chain_checks():
    # The benchmark's chain family goes up to n = 240 and parenthesizes the
    # innermost payload too; it must parse and check with room to spare.
    source, _ = send_chain(240, innermost_parens=True)
    program = parse_program(source)
    assert check_program(program, resolve_topology(program)) == []


# Text over an alphabet biased toward the grammar's tokens, with runs of
# `(`, prefix keywords and chain operators long enough to cross the limit,
# and characters on the edge of the identifier and whitespace classes.
TOKENS = (
    "(", ")", "()", "->", "[", "]", ".", ",", ";", ":", "|", "=", "+", "*",
    "fun", "let", "in", "case", "of", "inl", "inr", "send", "to", "up",
    "down", "fst", "snd", "absurd", "unit", "void", "main", "def", "input",
    "topology", "A", "B", "x", "y1", " ", "\n", '"', "//", "-",
    "²", "Ⅻ", "_x", "1x", "\xa0", "\x1c",
)
PIECES = st.one_of(st.sampled_from(TOKENS),
                   st.integers(1, 3 * MAX_NESTING).map(lambda k: "(" * k),
                   st.integers(1, 2 * MAX_NESTING).map(lambda k: "fst " * k),
                   st.tuples(st.sampled_from(("x ", "-> unit ", "* unit ")),
                             st.integers(1, 2 * MAX_NESTING)).map(lambda t: t[0] * t[1]))
TEXTS = st.tuples(st.sampled_from(("", "main : ", "main : unit = ")),
                  st.lists(PIECES, max_size=30)).map(lambda t: t[0] + " ".join(t[1]))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(TEXTS)
def test_any_text_parses_or_raises_parse_error(text):
    try:
        assert isinstance(parse_program(text), Program)
    except ParseError:
        pass
