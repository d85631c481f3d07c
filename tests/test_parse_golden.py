"""Parser golden snapshot.

`parse_golden.json` records, for every source below, what the parser
makes of it: the printed program and every expression node's class and
span in preorder, or the error (class, `str`, span and expected set).

The sources are generated programs as printed, seeded mutations of them
(deleted, inserted, replaced and duplicated text, truncation), and
hand-picked inputs: characters on the edge of the identifier and
whitespace classes, unterminated strings, comments at the end of input,
and the entry points for expressions, types and paths.

Any change to the lexer or parser must leave this output byte for byte
the same; the spans are what `corps normalize --trace` reports.
Regenerate the snapshot (only when a change of parser output is
intended) with

    PYTHONPATH=src:bench python tests/test_parse_golden.py
"""

import json
import os
import random

from corps import syntax as S
from corps.parser import parse_expr, parse_path, parse_program, parse_type
from corps.printer import expr_str, path_str, pretty_print, type_str
import genprog

HERE = os.path.dirname(__file__)
SNAPSHOT = os.path.join(HERE, "parse_golden.json")
PRESETS = ("choreo", "siblings", "doxastic")
SEEDS = range(60)
MUTANTS = 6
FILE = "g.corps"

# Insertions are biased toward the grammar's own tokens, plus characters
# where the identifier and whitespace classes are easy to get wrong.
ALPHABET = (
    "(", ")", "()", "->", "[", "]", ".", ",", ";", ":", "|", "=", "+", "*",
    "fun", "let", "in", "case", "of", "inl", "inr", "send", "to", "up",
    "down", "fst", "snd", "absurd", "unit", "void", "main", "def", "input",
    "topology", "A", "B.", "x", "x1", " ", "\n", '"', "//", "-", "/",
    "²", "Ⅻ", "_x", "1x", "\xa0", "\x1c", "ǅ", "é",
)

PROGRAMS = (
    "main : unit = ();",
    "main : unit = ( );",
    "topology doxastic; main : [A] unit = A.();",
    'topology "my.topo"; main : unit = ();',
    "input b : [B] (unit + unit); def f : unit -> unit = (fun x -> x : unit -> unit);"
    " main : unit = f ();",
    "def f : unit = (); def f : unit = (); main : unit = ();",
    "input f : unit; def f : unit = (); main : unit = ();",
    "main : unit = x²;",
    "main : unit = ²;",
    "main : unit = Ⅻ;",
    "main : unit = _x;",
    "main : unit = 1x;",
    "main : unit =\xa0();",
    "main : unit =\x1c();",
    "main : unit = ǅ.();",
    "main : unit = été;",
    "main : unit = É.();",
    'topology "unterminated; main : unit = ();',
    'main : unit = ();"',
    "main : unit = (); // a comment at the end",
    "main : unit = (); //",
    "// only a comment",
    "",
    "   ",
    "main : unit = ();;",
    "main unit = ();",
    "main : unit = fst ;",
    "main : unit = a - b;",
    "main : unit = a / b;",
    "main : unit = f x y z;",
    "main : unit = fst snd inl inr absurd x;",
    "main : unit = A.B.C.x;",
    "main : unit = A.(B.(x y));",
    "main : unit = (fun x -> x : unit -> unit) ();",
    "main : unit = let [A] [B.C] x = A.B.C.() in ();",
    "main : unit = let [] [] x = () in let [A] [] y = x in y;",
    "main : unit = case s of inl x -> case t of inl u -> u | inr v -> v | inr y -> y;",
    "main : [B] unit = send f x to [B];",
    "main : [B] unit = send (send A.() to [B]) to [A];",
    "main : unit = down [] (up [A.B] ());",
    "main : unit = up [A] up [A] ();",
    "main : unit = send fun x -> x to [B];",
    "main : unit = (a, b, c);",
    "main : unit = (a : unit : unit);",
    "main : unit = ((a, b) : unit * unit);",
    "main : unit = let [a] [] x = () in x;",
    "main : unit = let [A.] [] x = () in x;",
    "main : unit = case s of inr x -> x | inl y -> y;",
    "main : unit = A.;",
    "main : unit = A x;",
    "main : unit = fun X -> x;",
    "topology 3; main : unit = ();",
    "main : unit = () main : unit = ();",
)

EXPRS = (
    "()", "A.()", "f x y", "(x : unit)", "A.B.x", "fst (x, y)", "inl",
    "case s of inl x -> () | inr y -> y", "send f x to [B]", "x )", "",
    "(", "(x", "(x,", "(x :", "(x : unit", "fun -> x", "let [] x", "x y ->",
)

TYPES = (
    "unit", "void", "unit -> unit -> unit", "unit + unit * unit",
    "unit * unit + unit", "unit + unit + unit", "unit * unit * unit",
    "[A] unit * unit", "[A] (unit * unit)", "[A.B] [] [C] unit -> void",
    "(unit -> unit) -> unit", "[] unit", "", "unit ->", "unit +", "*",
    "[A]", "[A] ->", "(unit", "unit)", "(unit + [B] void) * [A.B] (unit -> unit)",
    "unit unit", "[a] unit", "x", "->", "unit -> + unit",
)

PATHS = ("[]", "[A]", "[A.B.C]", "[a]", "[A.]", "[A B]", "[", "A", "[A]]", "[.A]")


def mutate(text: str, rng: random.Random) -> str:
    i = rng.randrange(len(text) + 1)
    match rng.randrange(5):
        case 0:
            return text[:i] + text[i + rng.randint(1, 3):]
        case 1:
            return text[:i] + rng.choice(ALPHABET) + text[i:]
        case 2:
            return text[:i] + rng.choice(ALPHABET) + text[i + 1:]
        case 3:
            return text[:i]
        case _:
            j = min(len(text), i + rng.randint(1, 20))
            return text[:j] + text[i:j] + text[j:]


def sources() -> dict[str, str]:
    out = {}
    for preset in PRESETS:
        for seed in SEEDS:
            text = pretty_print(genprog.program(seed, preset))
            out[f"{preset}/{seed}"] = text
            rng = random.Random(f"{preset}/{seed}")
            for k in range(MUTANTS):
                out[f"{preset}/{seed}/m{k}"] = mutate(text, rng)
    for k, text in enumerate(PROGRAMS):
        out[f"program/{k}"] = text
    return out


def _nodes(e: S.Expr) -> str:
    out, todo = [], [e]
    while todo:
        e = todo.pop()
        out.append(f"{type(e).__name__} {e.span.start}-{e.span.end}")
        todo.extend(reversed(S.children(e)))
    return " ".join(out)


def _error(err: Exception) -> dict:
    record = {"error": type(err).__name__, "str": str(err)}
    span = getattr(err, "span", None)
    if span is not None:
        record["span"] = [span.file, span.start, span.end]
        record["expected"] = sorted(err.expected)
    return record


def _program(text: str) -> dict:
    try:
        p = parse_program(text, FILE)
    except Exception as err:  # noqa: BLE001 - any class is part of the record
        return _error(err)
    return {"program": pretty_print(p),
            "nodes": [_nodes(body) for _, _, body in p.defs] + [_nodes(p.main_expr)]}


def _entry(parse, show, text: str) -> dict:
    try:
        result = parse(text, FILE)
    except Exception as err:  # noqa: BLE001
        return _error(err)
    return {"value": show(result)}


def snapshot() -> dict:
    out = {key: _program(text) for key, text in sources().items()}
    for prefix, parse, show, texts in (
            ("expr", parse_expr, lambda e: [expr_str(e), _nodes(e)], EXPRS),
            ("type", parse_type, type_str, TYPES),
            ("path", parse_path, path_str, PATHS)):
        for k, text in enumerate(texts):
            out[f"{prefix}/{k}"] = _entry(parse, show, text)
    return out


def test_parser_matches_golden_snapshot():
    with open(SNAPSHOT, encoding="utf-8") as f:
        expected = json.load(f)
    got = snapshot()
    assert got.keys() == expected.keys()
    diffs = [key for key in expected if got[key] != expected[key]]
    assert not diffs, (len(diffs), diffs[:3], [got[k] for k in diffs[:3]])


if __name__ == "__main__":
    with open(SNAPSHOT, "w", encoding="utf-8") as f:
        json.dump(snapshot(), f, indent=1, sort_keys=True, ensure_ascii=True)
        f.write("\n")
