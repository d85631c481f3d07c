"""No `match` statement under `src/corps` uses a class pattern.

The walks branch on `type(e) is C` and read fields as attributes.  On
CPython 3.11.7 (2 vCPU), a class pattern costs about 0.08 us per case
that fails and about 0.35 us per positional field it extracts: `match e:
case Skip(): ... case Pair(left, right):` took 0.53 us on a `Pair`
against 0.09 us for the same tests written with `type(e) is` (timeit,
call included).  The printer and the checker, which is also projection's
walk, run once per node: with class patterns a fanout op took 1.42 times
as long (ops/s 141 against 200, `bench/run.py --workload fanout --seed 11
--seconds 20`, medians of 10 pairs).  Patterns on strings and other
values are fine.
"""

import ast

from test_stdlib_only import SOURCES


def test_no_match_statement_uses_a_class_pattern():
    assert SOURCES
    found = [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.MatchClass)]
    assert found == []
