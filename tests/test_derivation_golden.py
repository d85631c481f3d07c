"""Derivation golden snapshot.

`derivation_golden.json` records, for every program below, what
`corps check --derivation` prints and returns: stdout and stderr as
lists of lines, and the exit code.  The programs are generated ones over
the three presets, each checked under its own preset and under another
one (which rejects some of them), and hand-picked programs that reach
every rule of the checker and every one of its error messages.

Any change to the typechecker, its derivations or their rendering must
leave this output byte for byte the same.  Regenerate the snapshot (only
when a change of checker output is intended) with

    PYTHONPATH=src:bench python tests/test_derivation_golden.py
"""

import contextlib
import io
import json
import os
import tempfile

from corps.cli import main
from corps.printer import pretty_print
import genprog

HERE = os.path.dirname(__file__)
SNAPSHOT = os.path.join(HERE, "derivation_golden.json")
PRESETS = ("choreo", "siblings", "doxastic")
OTHER = {"choreo": "siblings", "siblings": "doxastic", "doxastic": "choreo"}
SEEDS = range(67)
FILE = "g.corps"

# Canonical values: a pair whose injection carries no annotation, as a
# program's normal form has them.  The checker infers pairs and located
# values, so these come out as the expected result of a run but do not
# check as programs.
CANONICAL = (
    "main : (unit + unit) * unit = (inl (), ());",
    "main : [A] (unit + unit) = A.(inl ());",
    "main : unit -> (unit + unit) * unit = fun y -> (inl (), y);",
)

PROGRAMS = CANONICAL + (
    # The applications whose normal forms are the canonical values above.
    "main : (unit + unit) * unit = "
    "((fun x -> (x, ())) : unit + unit -> (unit + unit) * unit) (inl ());",
    "main : unit -> (unit + unit) * unit = ((fun x -> fun y -> (x, y)) : "
    "unit + unit -> unit -> (unit + unit) * unit) (inl ());",
    "main : [A] (unit -> (unit + unit) * unit) = A.(((fun x -> fun y -> (x, y)) : "
    "unit + unit -> unit -> (unit + unit) * unit) (inl ()));",
    # Communication, accepted and refused.
    "topology choreo; main : [B] unit = send A.() to [B];",
    "topology doxastic; main : [B] unit = send A.() to [B];",
    "topology choreo; main : [A] unit = up [A] ();",
    "topology doxastic; main : [A] unit = up [A] ();",
    "topology doxastic; main : [A] [A] unit = A.(up [A] ());",
    "topology doxastic; main : [A] unit = A.(down [A] (A.()));",
    "topology choreo; main : unit = down [A] (A.());",
    "topology doxastic; main : unit = down [A] (A.());",
    "main : unit = down [A] ();",
    "topology siblings; main : [A] [B] unit = A.(send B.() to [B]);",
    # Modal let and the axiom.
    "main : [A] unit = let [] [A] x = A.() in A.(x);",
    "main : unit = let [] [A] x = A.() in x;",
    "main : unit = let [] [A] x = () in ();",
    "main : [A] unit = A.(let [] [B] x = B.() in ());",
    "main : unit = nope;",
    "topology doxastic; input b : [B] (unit + unit); main : [B] unit = "
    "let [] [B] y = b in B.(case y of inl u -> () | inr w -> ());",
    # Functions, pairs, sums and void.
    "def f : unit -> unit = fun x -> x; def g : unit = f (); main : unit = g;",
    "def d : unit = down [A] (A.()); main : unit = down [A] (A.());",
    "main : unit = () ();",
    "main : unit = (fun x -> x) ();",
    "main : unit = fun x -> x;",
    "main : unit * unit = ((), ());",
    "main : unit = fst ((), ());",
    "main : unit = snd ((), ());",
    "main : unit = fst ();",
    "main : unit = snd ();",
    "main : unit = fst (inl (), ());",
    "main : unit + void = inl ();",
    "main : void + unit = inr ();",
    "main : unit = inl ();",
    "main : unit = inr ();",
    "main : unit + unit = (inl () : unit + unit);",
    "input v : void; main : [A] unit = absurd v;",
    "input v : void; main : unit = (absurd v) ();",
    "main : unit = absurd ();",
    "input s : unit + unit; main : unit + unit = "
    "case s of inl a -> inr a | inr b -> inl b;",
    "input s : unit + unit; main : unit = fst (case s of inl a -> ((), ()) "
    "| inr b -> ((), ()));",
    "input s : unit + unit; main : unit = fst (case s of inl a -> ((), ()) "
    "| inr b -> ((), A.()));",
    "input s : unit + unit; main : unit = case s of inl a -> () | inr b -> A.();",
    "main : unit = case () of inl a -> () | inr b -> ();",
    "main : [A] unit = ();",
)


def _run(source: str, path: str, topology=None) -> dict:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(source)
    argv = ["check", path, "--derivation"]
    if topology is not None:
        argv += ["--topology", topology]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code,
            "stdout": out.getvalue().replace(path, FILE).splitlines(),
            "stderr": err.getvalue().replace(path, FILE).splitlines()}


def snapshot() -> dict:
    got = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, FILE)
        for preset in PRESETS:
            for seed in SEEDS:
                program = genprog.program(seed, preset, depth=4)
                source = pretty_print(program)
                got[f"{preset}/{seed}"] = _run(source, path, preset)
                got[f"{preset}/{seed} under {OTHER[preset]}"] = _run(
                    source, path, OTHER[preset])
        for source in PROGRAMS:
            got[source] = _run(source, path)
    return got


def test_derivations_match_golden_snapshot():
    with open(SNAPSHOT) as f:
        expected = json.load(f)
    got = snapshot()
    assert got.keys() == expected.keys()
    diffs = [key for key in expected if got[key] != expected[key]]
    assert not diffs, (len(diffs), diffs[:3], [got[k] for k in diffs[:3]])


if __name__ == "__main__":
    with open(SNAPSHOT, "w") as f:
        json.dump(snapshot(), f, indent=1, sort_keys=True)
        f.write("\n")
