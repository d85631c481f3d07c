"""Printer golden snapshot.

`printer_golden.json` records how `expr_str` prints choreographies and
how `local_str` prints local processes, on hand-built terms: every form
of each language in every kind of position its printer knows (top level,
sequence head and rest, function body, case scrutinee and branches, let
bound and body, payloads, application function and argument, unary
operand, pair component, located body, annotation).  Generated programs
reach only some of these shapes, so the parse and projection goldens do
not pin them all.

Any change to either printer must leave this output byte for byte the
same.  Regenerate the snapshot (only when a change of printed output is
intended) with

    PYTHONPATH=src python tests/test_printer_golden.py
"""

import json
import os
import sys

import pytest

from corps import syntax as S
from corps.printer import expr_str, type_str
from corps.projection import local_str

HERE = os.path.dirname(__file__)
SNAPSHOT = os.path.join(HERE, "printer_golden.json")

A, B = ("A",), ("B", "C")
X, Y, U = S.Var("x"), S.Var("y"), S.UnitVal()
UNARY = {"inl": S.Inl, "inr": S.Inr, "fst": S.Fst, "snd": S.Snd, "absurd": S.Absurd}

# One term of each form that both languages share.
SHARED = {
    "var": X,
    "unit": U,
    "pair": S.Pair(X, U),
    "lam": S.Lam("x", X),
    "app": S.App(X, Y),
    "case": S.Case(X, "l", Y, "r", U),
    **{name: ctor(X) for name, ctor in UNARY.items()},
}

CHOREO_FORMS = {
    **SHARED,
    "annot": S.Annot(X, S.Sum(S.Unit(), S.Unit())),
    "located": S.Located("A", X),
    "let": S.ModalLet(A, B, "v", X, Y),
    "send": S.Send(X, B),
    "up": S.Up(B, X),
    "down": S.Down(B, X),
}

LOCAL_FORMS = {
    **SHARED,
    "skip": S.SKIP,
    "seq": S.Seq(S.RecvFrom(A), X),
    "send_to": S.SendTo(B, X),
    "recv_from": S.RecvFrom(A),
}

# Positions: each builds a term with the given subterm in that position.
SHARED_POSITIONS = {
    "top": lambda e: e,
    "lam_body": lambda e: S.Lam("z", e),
    "case_scrutinee": lambda e: S.Case(e, "l", X, "r", Y),
    "case_left": lambda e: S.Case(X, "l", e, "r", Y),
    "case_right": lambda e: S.Case(X, "l", Y, "r", e),
    "app_fn": lambda e: S.App(e, Y),
    "app_arg": lambda e: S.App(X, e),
    "pair_left": lambda e: S.Pair(e, Y),
    "pair_right": lambda e: S.Pair(X, e),
    **{f"{name}_operand": (lambda ctor: lambda e: ctor(e))(ctor)
       for name, ctor in UNARY.items()},
}

CHOREO_POSITIONS = {
    **SHARED_POSITIONS,
    "let_bound": lambda e: S.ModalLet(A, B, "v", e, Y),
    "let_body": lambda e: S.ModalLet(A, B, "v", X, e),
    "send_payload": lambda e: S.Send(e, B),
    "up_body": lambda e: S.Up(A, e),
    "down_body": lambda e: S.Down(A, e),
    "located_body": lambda e: S.Located("A", e),
    "annot_inner": lambda e: S.Annot(e, S.Unit()),
}

LOCAL_POSITIONS = {
    **SHARED_POSITIONS,
    "seq_first": lambda e: S.Seq(e, Y),
    "seq_rest": lambda e: S.Seq(X, e),
    "send_to_payload": lambda e: S.SendTo(A, e),
}


def snapshot() -> dict:
    out = {}
    for lang, show, forms, positions in (
            ("choreo", expr_str, CHOREO_FORMS, CHOREO_POSITIONS),
            ("local", local_str, LOCAL_FORMS, LOCAL_POSITIONS)):
        for where, build in positions.items():
            for form, e in forms.items():
                out[f"{lang}/{where}/{form}"] = show(build(e))
    # Chains, which the single-position table does not reach.
    out["local/seq_chain_right"] = local_str(
        S.Seq(S.RecvFrom(A), S.Seq(S.SendTo(B, U), S.Seq(S.SKIP, X))))
    out["local/seq_chain_left"] = local_str(
        S.Seq(S.Seq(S.Seq(S.RecvFrom(A), S.SKIP), S.SendTo(B, U)), X))
    out["local/send_to_nested"] = local_str(
        S.SendTo(A, S.SendTo(B, S.Seq(S.App(S.Lam("x", X), S.RecvFrom(A)), U))))
    out["choreo/send_nested"] = expr_str(
        S.Send(S.Send(S.App(S.Lam("x", X), S.Up(A, U)), A), B))
    out["choreo/app_chain"] = expr_str(S.App(S.App(S.App(X, Y), S.Inl(U)), S.App(X, Y)))
    out["local/app_chain"] = local_str(S.App(S.App(S.App(X, Y), S.Inl(U)), S.App(X, Y)))
    return out


def test_printers_match_golden_snapshot():
    with open(SNAPSHOT, encoding="utf-8") as f:
        expected = json.load(f)
    got = snapshot()
    assert got.keys() == expected.keys()
    diffs = [key for key in expected if got[key] != expected[key]]
    assert not diffs, (len(diffs), diffs[:3], [got[k] for k in diffs[:3]])



def test_a_deep_node_of_the_wrong_kind_is_named_by_its_class():
    # A type where an expression belongs, and an expression where a type
    # belongs: the error names the node's class, since a record repr of
    # 3,000 nested nodes would overflow the stack.
    n = 3_000
    assert sys.getrecursionlimit() < n
    ty, e = S.Unit(), U
    for _ in range(n):
        ty, e = S.Arrow(ty, S.Unit()), S.Pair(e, U)
    with pytest.raises(TypeError, match="^not an expression: Arrow$"):
        expr_str(ty)
    with pytest.raises(TypeError, match="^not a type: Pair$"):
        type_str(e)


if __name__ == "__main__":
    with open(SNAPSHOT, "w", encoding="utf-8") as f:
        json.dump(snapshot(), f, indent=1, sort_keys=True, ensure_ascii=True)
        f.write("\n")
