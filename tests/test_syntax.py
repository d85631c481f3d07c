import dataclasses
import random
import sys
from typing import get_args

from hypothesis import given, strategies as st

from corps import syntax as S
from corps.syntax import (
    Binding, Lock, UnitVal, Var, expr_equal, locks_of, normalize_context,
    path_concat, substitute,
)
from genprog import AGENTS, ProgramGen, random_context, random_path
from corps.topology import load_preset


def locks_oracle(ctx):
    # Independent right-recursive definition, transcribed case by case.
    if not ctx:
        return ()
    rest, last = ctx[:-1], ctx[-1]
    if isinstance(last, Binding):
        return locks_oracle(rest)
    return path_concat(locks_oracle(rest), last.path)


paths = st.lists(st.sampled_from(AGENTS), max_size=6).map(tuple)


class TestPathMonoid:
    @given(paths, paths, paths)
    def test_associativity(self, g1, g2, g3):
        assert path_concat(path_concat(g1, g2), g3) == path_concat(g1, path_concat(g2, g3))

    @given(paths)
    def test_identity(self, g):
        assert path_concat((), g) == g
        assert path_concat(g, ()) == g

    def test_bulk_random(self):
        # Monoid laws over >= 10^4 random triples of paths up to length 6.
        rng = random.Random(42)
        for _ in range(10_000):
            g1, g2, g3 = (random_path(rng) for _ in range(3))
            assert path_concat(path_concat(g1, g2), g3) == path_concat(g1, path_concat(g2, g3))
            assert path_concat((), g1) == g1
            assert path_concat(g1, ()) == g1

    def test_examples(self):
        assert path_concat((), ()) == ()
        assert path_concat(("A",), ("B", "C")) == ("A", "B", "C")
        assert path_concat(("A", "B"), ()) == ("A", "B")


class TestContexts:
    def test_locks_of_empty(self):
        assert locks_of(()) == ()

    def test_locks_of_mixed(self):
        ctx = (Binding("x", S.Unit(), ()), Lock(("A",)),
               Binding("y", S.Unit(), ()), Lock(("B",)))
        assert locks_of(ctx) == ("A", "B")
        assert locks_oracle(ctx) == ("A", "B")

    def test_empty_lock_contributes_identity(self):
        assert locks_of((Lock(()),)) == ()

    def test_normalize_fuses_adjacent_locks(self):
        ctx = (Binding("x", S.Unit(), ()), Lock(("A",)), Lock(("B",)))
        assert normalize_context(ctx) == (Binding("x", S.Unit(), ()), Lock(("A", "B")))

    def test_normalize_drops_empty_lock(self):
        ctx = (Binding("x", S.Unit(), ()), Lock(()))
        assert normalize_context(ctx) == (Binding("x", S.Unit(), ()),)

    def test_random_contexts(self):
        rng = random.Random(7)
        for _ in range(2000):
            ctx = random_context(rng)
            normalized = normalize_context(ctx)
            # locks value is preserved and matches the oracle
            assert locks_of(normalized) == locks_of(ctx) == locks_oracle(ctx)
            # canonical form: no empty locks, no adjacent locks
            for i, entry in enumerate(normalized):
                if isinstance(entry, Lock):
                    assert entry.path
                    if i + 1 < len(normalized):
                        assert not isinstance(normalized[i + 1], Lock)
            # idempotent
            assert normalize_context(normalized) == normalized
            # binding order and tags unchanged
            assert [e for e in normalized if isinstance(e, Binding)] == \
                [e for e in ctx if isinstance(e, Binding)]


class TestSubstitution:
    def test_var_hit(self):
        assert substitute(Var("x"), "x", UnitVal()) == UnitVal()

    def test_under_other_binder(self):
        e = S.Lam("y", Var("x"))
        assert substitute(e, "x", UnitVal()) == S.Lam("y", UnitVal())

    def test_shadowing(self):
        e = S.Lam("x", Var("x"))
        assert substitute(e, "x", UnitVal()) == e

    def test_capture_avoided(self):
        # (fun y -> x y)[x := y] must not capture the free y.
        e = S.Lam("y", S.App(Var("x"), Var("y")))
        out = substitute(e, "x", Var("y"))
        assert isinstance(out, S.Lam)
        assert out.var != "y"
        assert out.body == S.App(Var("y"), Var(out.var))

    def test_modal_let_shadowing(self):
        e = S.ModalLet((), ("A",), "x", Var("x"), Var("x"))
        out = substitute(e, "x", UnitVal())
        assert out == S.ModalLet((), ("A",), "x", UnitVal(), Var("x"))


def _rename_bound(e, rng):
    """Alpha-rename one binder to produce an equivalent term."""
    match e:
        case S.Lam(var, body):
            fresh = f"{var}_r{rng.randint(0, 99)}"
            return S.Lam(fresh, substitute(body, var, Var(fresh)))
        case S.ModalLet(g1, g2, var, bound, body):
            fresh = f"{var}_r{rng.randint(0, 99)}"
            return S.ModalLet(g1, g2, fresh, bound, substitute(body, var, Var(fresh)))
        case S.Case(s, lv, lb, rv, rb):
            fresh = f"{lv}_r{rng.randint(0, 99)}"
            return S.Case(s, fresh, substitute(lb, lv, Var(fresh)), rv, rb)
    return e


class TestAlphaEquivalence:
    def test_lambda_binder_names_irrelevant(self):
        assert expr_equal(S.Lam("x", Var("x")), S.Lam("y", Var("y")))

    def test_located_agents_matter(self):
        assert not expr_equal(S.Located("A", UnitVal()), S.Located("B", UnitVal()))

    def test_send_equal(self):
        a = S.Send(UnitVal(), ("B",))
        b = S.Send(UnitVal(), ("B",))
        assert expr_equal(a, b)

    def test_free_vars_differ(self):
        assert not expr_equal(Var("x"), Var("y"))

    def test_substitute_respects_alpha(self):
        rng = random.Random(3)
        topo = load_preset("choreo")
        for seed in range(80):
            gen = ProgramGen(seed, topo)
            e1 = gen.gen_program().main_expr
            e2 = _rename_bound(e1, rng)
            assert expr_equal(e1, e2)
            s1 = substitute(e1, "zfree", UnitVal())
            s2 = substitute(e2, "zfree", UnitVal())
            assert expr_equal(s1, s2)


class TestDeepTerms:
    """free_vars and expr_equal walk without the Python stack.  The terms
    nest far past the default recursion limit, so they are never compared
    with == or printed: dataclass == and repr recurse."""
    DEPTH = 5_000

    def tower(self, leaf):
        for _ in range(self.DEPTH):
            leaf = S.Located("A", leaf)
        return leaf

    def binders(self, prefix: str, used: int):
        # fun p0 -> fun p1 -> ... -> p<used>
        body = Var(f"{prefix}{used}")
        for i in reversed(range(self.DEPTH)):
            body = S.Lam(f"{prefix}{i}", body)
        return body

    def test_free_vars(self):
        assert sys.getrecursionlimit() < self.DEPTH
        assert S.free_vars(self.tower(UnitVal())) == frozenset()
        assert S.free_vars(self.tower(Var("x"))) == {"x"}
        assert S.free_vars(self.binders("x", 0)) == frozenset()
        assert S.free_vars(self.binders("x", self.DEPTH)) == {f"x{self.DEPTH}"}

    def test_expr_equal(self):
        assert expr_equal(self.tower(UnitVal()), self.tower(UnitVal()))
        assert not expr_equal(self.tower(UnitVal()), self.tower(Var("x")))
        assert expr_equal(self.binders("x", 0), self.binders("y", 0))
        assert not expr_equal(self.binders("x", 0), self.binders("y", 1))


class TestStacks:
    def test_belief_stack_roundtrip(self):
        ty = S.belief_stack(("A", "B"), S.Unit())
        assert ty == S.Believes("A", S.Believes("B", S.Unit()))
        assert S.split_stack(ty) == (("A", "B"), S.Unit())
        assert S.peel_stack(ty, ("A",)) == S.Believes("B", S.Unit())
        assert S.peel_stack(ty, ("B",)) is None

    def test_located_spine(self):
        e = S.wrap_located(("A", "B"), UnitVal())
        assert S.peel_located(e) == (("A", "B"), UnitVal())
        assert S.match_located(e, ("A",)) == S.Located("B", UnitVal())
        assert S.match_located(e, ("B",)) is None

    def test_spine_is_annotation_transparent(self):
        inner = S.Annot(UnitVal(), S.Unit())
        e = S.Annot(S.Located("A", inner), S.Believes("A", S.Unit()))
        spine, core = S.peel_located(e)
        assert spine == ("A",)
        assert core == inner  # the core keeps its own annotation


class TestSchema:
    def test_every_node_class_has_an_entry(self):
        classes = set(get_args(S.Expr)) | set(get_args(S.LocalExpr))
        assert len(classes) == 21 and set(S.SCHEMA) == classes
        for cls in classes:
            shape = S.SCHEMA[cls]
            declared = [f for f in dataclasses.fields(cls) if f.name != "span"]
            assert shape.fields == tuple(f.name for f in declared)
            # subterms are exactly the fields typed as terms, binders are
            # names, and everything else is data
            subterms = {shape.fields[i] for i, _ in shape.subterms}
            assert subterms == {f.name for f in declared if "Expr" in f.type}
            binders = {shape.fields[b] for _, b in shape.subterms if b is not None}
            assert all(f.type == "str" for f in declared if f.name in binders)
            assert set(shape.data) == set(shape.fields) - subterms - binders

    def test_binder_scopes(self):
        scopes = {(cls, shape.fields[i]): shape.fields[b]
                  for cls, shape in S.SCHEMA.items()
                  for i, b in shape.subterms if b is not None}
        assert scopes == {
            (S.Lam, "body"): "var", (S.ModalLet, "body"): "var",
            (S.Case, "left_body"): "left_var",
            (S.Case, "right_body"): "right_var",
        }

    def test_substitution_keeps_spans(self):
        span = S.Span("f", 0, 3)
        e = S.App(S.Lam("y", Var("x"), span=span), Var("x"), span=span)
        out = substitute(e, "x", UnitVal())
        assert out == S.App(S.Lam("y", UnitVal()), UnitVal())
        assert out.span == span and out.fn.span == span
