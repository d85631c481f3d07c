import builtins
import contextlib
import copy
import dataclasses
import inspect
import pickle
import random
import sys
from typing import get_args

import pytest
from hypothesis import given, settings, strategies as st

import corps
from corps import syntax as S
from corps.netsim import AgreementReport, RandomPolicy, RoundRobin, RunResult, TraceEvent
from corps.nicheck import NIConfig, Verdict, Witness
from corps.parser import Program
from corps.projection import ProjectionError, project_network
from corps.syntax import (
    Binding, Lock, UnitVal, Var, expr_equal, locks_of, normalize_context,
    path_concat, substitute,
)
from corps.normalize import EvalMode, NormalFormClass, normalize
from corps.topology import PathPattern, TopoRule, Topology
from corps.typecheck import Derivation
from progen import AGENTS
import genprog


def random_path(rng: random.Random, max_len: int = 6) -> S.Path:
    return tuple(rng.choice(AGENTS) for _ in range(rng.randint(0, max_len)))


def random_context(rng: random.Random) -> S.Context:
    entries = []
    for _ in range(rng.randint(0, 6)):
        if rng.random() < 0.5:
            entries.append(S.Lock(random_path(rng, 3)))
        else:
            entries.append(S.Binding(f"v{rng.randint(0, 9)}", S.Unit(),
                                     random_path(rng, 2)))
    return tuple(entries)


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
    @settings(derandomize=True, deadline=None)
    @given(paths, paths, paths)
    def test_associativity(self, g1, g2, g3):
        assert path_concat(path_concat(g1, g2), g3) == path_concat(g1, path_concat(g2, g3))

    @settings(derandomize=True, deadline=None)
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

    def test_renaming_cascades_with_fresh_names(self):
        # (fun y -> fun y1 -> x y y1)[x := y]: renaming y to y1 would be
        # captured by the inner y1, which is renamed to y2 first.
        e = S.Lam("y", S.Lam("y1", S.App(S.App(Var("x"), Var("y")), Var("y1"))))
        assert substitute(e, "x", Var("y")) == \
            S.Lam("y1", S.Lam("y2", S.App(S.App(Var("y"), Var("y1")), Var("y2"))))

    def test_unchanged_subterms_are_shared(self):
        left = S.Pair(UnitVal(), S.Lam("x", Var("x")))
        out = substitute(S.Pair(left, Var("x")), "x", UnitVal())
        assert out.left is left and out.right == UnitVal()

    def test_a_term_comes_back_itself_exactly_without_a_free_occurrence(self, monkeypatch):
        # Every subterm of generated main expressions and of their projected
        # processes, under every name they mention and one they do not.
        terms, names = [], {"zfree"}
        for seed in range(12):
            for preset in ("choreo", "doxastic", "siblings"):
                program = genprog.program(seed, preset, projectable=True)
                roots = [program.main_expr]
                with contextlib.suppress(ProjectionError):
                    roots += project_network(program).processes.values()
                todo = roots
                while todo:
                    e = todo.pop()
                    terms.append(e)
                    todo += S.children(e)
                    names.update(getattr(e, field) for field in (
                        "name", "var", "left_var", "right_var") if hasattr(e, field))
        v = S.Pair(Var("y"), UnitVal())
        absent = []
        for e in terms:
            free = S.free_vars(e)
            for x in names:
                assert (substitute(e, x, v) is e) == (x not in free), (e, x)
                if x not in free:
                    absent.append((e, x))
        assert len(absent) > len(terms)
        # A substitution that changes nothing builds no record, nor takes
        # the free variables of what it would substitute.
        hit = S.Lam("z", Var("x"))
        built = []
        for cls in S.SCHEMA:
            monkeypatch.setattr(cls, "__init__", lambda self, *args, _init=cls.__init__: (
                built.append(type(self)), _init(self, *args))[1])
        monkeypatch.setattr(S, "free_vars", lambda e, _free_vars=S.free_vars: (
            built.append("free_vars"), _free_vars(e))[1])
        for e, x in absent:
            substitute(e, x, v)
        assert built == []
        substitute(hit, "x", v)
        assert built == ["free_vars", S.Lam]


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
        for seed in range(80):
            e1 = genprog.program(seed, "choreo").main_expr
            e2 = _rename_bound(e1, rng)
            assert expr_equal(e1, e2)
            s1 = substitute(e1, "zfree", UnitVal())
            s2 = substitute(e2, "zfree", UnitVal())
            assert expr_equal(s1, s2)


class TestDeepTerms:
    """free_vars, substitute and expr_equal walk without the Python stack.
    The terms nest far past the default recursion limit, so they are never
    compared with == or printed: record == and repr recurse."""
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

    def test_beta_into_a_deep_body(self):
        # (fun y -> A.(...A.(y)...) : unit -> unit) (), substituted in one step.
        redex = S.App(S.Annot(S.Lam("y", self.tower(Var("y"))), S.Arrow(S.UNIT, S.UNIT)),
                      UnitVal())
        nf, cls, steps = normalize(EvalMode.POSITIVE_COMM, redex, 10)
        assert (cls, steps) == (NormalFormClass.VALUE, 1)
        assert expr_equal(nf, self.tower(UnitVal()))

    def test_substitute_without_an_occurrence(self):
        assert sys.getrecursionlimit() < self.DEPTH
        tower = self.tower(UnitVal())
        assert substitute(tower, "x", UnitVal()) is tower
        shadowed = self.binders("x", 0)
        assert substitute(shadowed, "x0", UnitVal()) is shadowed

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
        assert S.located_core(e) == UnitVal()
        assert S.located_core(UnitVal()) == UnitVal()
        assert S.match_located(e, ("A",)) == S.Located("B", UnitVal())
        assert S.match_located(e, ("B",)) is None

    def test_spine_is_annotation_transparent(self):
        inner = S.Annot(UnitVal(), S.Unit())
        e = S.Annot(S.Located("A", inner), S.Believes("A", S.Unit()))
        assert S.located_core(e) is inner  # the core keeps its own annotation


def declared(cls) -> dict:
    """The annotations of `cls` and its bases, base classes first."""
    out = {}
    for klass in reversed(cls.__mro__):
        out.update(vars(klass).get("__annotations__", {}))
    return out


def compared(record) -> tuple:
    """The fields of `record` that `==` and `hash` read: all but `span`."""
    return tuple(getattr(record, name) for name in declared(type(record)) if name != "span")


SPAN = S.Span("f.corps", 2, 9)
SPAN_REPR = "Span(file='f.corps', start=2, end=9)"

# One record of each class in `syntax`, and its repr as
# `dataclass(frozen=True)` printed it.
RECORDS = [
    (S.Span("f.corps", 2, 9), SPAN_REPR),
    (S.Unit(), "Unit()"),
    (S.Void(), "Void()"),
    (S.Believes("A", S.UNIT), "Believes(agent='A', body=Unit())"),
    (S.Product(S.UNIT, S.VOID), "Product(left=Unit(), right=Void())"),
    (S.Sum(S.UNIT, S.VOID), "Sum(left=Unit(), right=Void())"),
    (S.Arrow(S.Believes("A", S.UNIT), S.UNIT),
     "Arrow(dom=Believes(agent='A', body=Unit()), cod=Unit())"),
    (S.Node(span=SPAN), f"Node(span={SPAN_REPR})"),
    (Var("x", span=SPAN), f"Var(span={SPAN_REPR}, name='x')"),
    (S.Located("A", UnitVal(), span=SPAN),
     f"Located(span={SPAN_REPR}, agent='A', body=UnitVal(span=None))"),
    (S.ModalLet(("A",), ("B",), "x", Var("y"), Var("x"), span=SPAN),
     f"ModalLet(span={SPAN_REPR}, open_path=('A',), stack_path=('B',), var='x', "
     "bound=Var(span=None, name='y'), body=Var(span=None, name='x'))"),
    (S.Send(UnitVal(), ("B",), span=SPAN),
     f"Send(span={SPAN_REPR}, payload=UnitVal(span=None), dest=('B',))"),
    (S.Up(("A",), UnitVal(), span=SPAN),
     f"Up(span={SPAN_REPR}, path=('A',), body=UnitVal(span=None))"),
    (S.Down(("A", "B"), UnitVal(), span=SPAN),
     f"Down(span={SPAN_REPR}, path=('A', 'B'), body=UnitVal(span=None))"),
    (S.Lam("x", Var("x"), span=SPAN),
     f"Lam(span={SPAN_REPR}, var='x', body=Var(span=None, name='x'))"),
    (S.App(Var("f"), UnitVal(), span=SPAN),
     f"App(span={SPAN_REPR}, fn=Var(span=None, name='f'), arg=UnitVal(span=None))"),
    (S.Pair(UnitVal(), Var("y", span=SPAN), span=SPAN),
     f"Pair(span={SPAN_REPR}, left=UnitVal(span=None), "
     f"right=Var(span={SPAN_REPR}, name='y'))"),
    (S.Fst(Var("p"), span=SPAN), f"Fst(span={SPAN_REPR}, inner=Var(span=None, name='p'))"),
    (S.Snd(Var("p"), span=SPAN), f"Snd(span={SPAN_REPR}, inner=Var(span=None, name='p'))"),
    (S.Inl(UnitVal(), span=SPAN), f"Inl(span={SPAN_REPR}, inner=UnitVal(span=None))"),
    (S.Inr(UnitVal(), span=SPAN), f"Inr(span={SPAN_REPR}, inner=UnitVal(span=None))"),
    (S.Case(Var("s"), "l", Var("l"), "r", UnitVal(), span=SPAN),
     f"Case(span={SPAN_REPR}, scrutinee=Var(span=None, name='s'), left_var='l', "
     "left_body=Var(span=None, name='l'), right_var='r', right_body=UnitVal(span=None))"),
    (UnitVal(span=SPAN), f"UnitVal(span={SPAN_REPR})"),
    (S.Absurd(Var("v"), span=SPAN), f"Absurd(span={SPAN_REPR}, inner=Var(span=None, name='v'))"),
    (S.Annot(UnitVal(), S.Sum(S.UNIT, S.UNIT), span=SPAN),
     f"Annot(span={SPAN_REPR}, inner=UnitVal(span=None), ty=Sum(left=Unit(), right=Unit()))"),
    (S.Skip(span=SPAN), f"Skip(span={SPAN_REPR})"),
    (S.SendTo(("B",), UnitVal(), span=SPAN),
     f"SendTo(span={SPAN_REPR}, dest=('B',), payload=UnitVal(span=None))"),
    (S.RecvFrom(("A",), span=SPAN), f"RecvFrom(span={SPAN_REPR}, src=('A',))"),
    (S.Seq(S.Skip(), S.RecvFrom(("A",)), span=SPAN),
     f"Seq(span={SPAN_REPR}, first=Skip(span=None), rest=RecvFrom(span=None, src=('A',)))"),
    (Binding("x", S.UNIT, ("A",)), "Binding(name='x', ty=Unit(), tag=('A',))"),
    (Lock(("A", "B")), "Lock(path=('A', 'B'))"),
]
SYNTAX_RECORDS = len(RECORDS)

# One record of each class outside `syntax`, and its repr as its
# dataclass printed it.
WITNESS = Witness(UnitVal(), S.Inl(UnitVal()), ("()", ()),
                  ("skip", (("Recv", ("B",), "()"),)))
WITNESS_REPR = ("Witness(value_a=UnitVal(span=None), value_b=Inl(span=None, "
                "inner=UnitVal(span=None)), observation_a=('()', ()), "
                "observation_b=('skip', (('Recv', ('B',), '()'),)))")
RECORDS += [
    (Program("choreo", (("b", S.Believes("B", S.UNIT)),), (("f", S.UNIT, UnitVal()),),
             S.UNIT, Var("f")),
     "Program(topology_ref='choreo', inputs=(('b', Believes(agent='B', body=Unit())),), "
     "defs=(('f', Unit(), UnitVal(span=None)),), main_type=Unit(), "
     "main_expr=Var(span=None, name='f'))"),
    (Topology((TopoRule("cansend", True),), "choreo"),
     "Topology(rules=(TopoRule(kind='cansend', const=True, lhs=None, rhs=None),), "
     "name='choreo')"),
    (TopoRule("cansend", None, PathPattern(True, (("var", "a"),)),
              PathPattern(True, (("lit", "B"),))),
     "TopoRule(kind='cansend', const=None, lhs=PathPattern(prefix_wildcard=True, "
     "atoms=(('var', 'a'),)), rhs=PathPattern(prefix_wildcard=True, "
     "atoms=(('lit', 'B'),)))"),
    (PathPattern(False, (("lit", "A"), ("var", "b"))),
     "PathPattern(prefix_wildcard=False, atoms=(('lit', 'A'), ('var', 'b')))"),
    (TraceEvent(3, ("A",), "Send", ("B",), "inl ()"),
     "TraceEvent(step=3, address=('A',), action='Send', peer=('B',), payload='inl ()')"),
    (RoundRobin(), "RoundRobin()"),
    (RandomPolicy(7), "RandomPolicy(seed=7)"),
    (NIConfig("b", ("A",), (S.Inl(UnitVal()), S.Inr(UnitVal()))),
     "NIConfig(input_name='b', observer=('A',), values=(Inl(span=None, "
     "inner=UnitVal(span=None)), Inr(span=None, inner=UnitVal(span=None))))"),
    (WITNESS, WITNESS_REPR),
    (Verdict("InterferenceFound", ("B",), ("A",), 2, WITNESS),
     "Verdict(kind='InterferenceFound', source=('B',), observer=('A',), runs=2, "
     f"witness={WITNESS_REPR})"),
    (AgreementReport(True, "()", [("rr", "agree")],
                     RunResult({("A",): UnitVal()}, [TraceEvent(0, ("A",), "Done")], 1)),
     "AgreementReport(agree=True, expected='()', outcomes=[('rr', 'agree')], "
     "first=RunResult(values={('A',): UnitVal(span=None)}, trace=[TraceEvent(step=0, "
     "address=('A',), action='Done', peer=None, payload=None)], steps=1))"),
    (Derivation("Unit", ("A",), "()", S.UNIT, [Derivation("Var", (), "x", S.UNIT, [])]),
     "Derivation(rule='Unit', viewpoint=('A',), subject='()', ty=Unit(), "
     "children=[Derivation(rule='Var', viewpoint=(), subject='x', ty=Unit(), "
     "children=[])])"),
]
EXAMPLES = [record for record, _ in RECORDS]

# The class-body defaults of the record classes; the other fields have none.
DEFAULTS = {
    Topology: {"name": None},
    TopoRule: {"const": None, "lhs": None, "rhs": None},
    TraceEvent: {"peer": None, "payload": None},
    Verdict: {"runs": 0, "witness": None},
    AgreementReport: {"first": None},
}


def _class_name(record) -> str:
    return type(record).__name__


def _hash(value):
    """`hash(value)`, or None if a list in it is unhashable."""
    try:
        return hash(value)
    except TypeError:
        return None


class TestRecords:
    """Each record class pinned by one example: the `repr`, `hash` and
    `==` that `dataclass(frozen=True)` gave it, and copies.  A record with
    a list field is unhashable, as its dataclass was."""

    @pytest.mark.parametrize("record, text", RECORDS, ids=[_class_name(r) for r in EXAMPLES])
    def test_repr(self, record, text):
        assert repr(record) == text

    @pytest.mark.parametrize("record", EXAMPLES, ids=_class_name)
    def test_hash_is_the_hash_of_the_compared_fields(self, record):
        want = _hash(compared(record))
        if want is None:
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == want

    @pytest.mark.parametrize("record", EXAMPLES, ids=_class_name)
    def test_equality_ignores_the_span(self, record):
        cls = type(record)
        plain = cls(*compared(record), **({"span": None} if "span" in declared(cls) else {}))
        assert plain == record and not plain != record and _hash(plain) == _hash(record)
        assert record != compared(record)

    @pytest.mark.parametrize("record", EXAMPLES, ids=_class_name)
    def test_deepcopy_and_pickle_give_an_equal_record(self, record):
        for twin in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(twin) is type(record) and twin == record
            assert repr(twin) == repr(record)  # the span too

    def test_every_record_class_has_an_example(self):
        classes = {cls for module in vars(corps).values() if isinstance(module, type(S))
                   for cls in vars(module).values()
                   if isinstance(cls, type) and cls.__module__ == module.__name__
                   and cls.__repr__ is S._record_repr}
        assert classes == {type(record) for record in EXAMPLES}

    @pytest.mark.parametrize("record", EXAMPLES, ids=_class_name)
    def test_records_are_slotted(self, record):
        for cls in type(record).__mro__[:-1]:
            assert "__slots__" in vars(cls), cls
        assert not hasattr(record, "__dict__")

    @pytest.mark.parametrize("record", EXAMPLES, ids=_class_name)
    def test_signature_keywords_and_missing_argument_message(self, record):
        # The declared fields in order, each with its class-body default,
        # then `span=None`; a field left out is named in the error.
        cls = type(record)
        fields = declared(cls)
        empty = inspect.Parameter.empty
        want = [(name, DEFAULTS.get(cls, {}).get(name, empty))
                for name in fields if name != "span"] + [("span", None)] * ("span" in fields)
        assert [(p.name, p.default) for p in inspect.signature(cls).parameters.values()] == want
        assert cls(**{name: getattr(record, name) for name in fields}) == record
        required = [name for name, default in want if default is empty]
        if required:
            with pytest.raises(TypeError) as err:
                cls(*compared(record)[:len(required) - 1])
            assert str(err.value) == (f"{cls.__qualname__}.__init__() missing 1 required "
                                      f"positional argument: '{required[-1]}'")

    def test_records_of_equal_arity_share_their_code(self):
        codes = {}
        for cls in {type(record) for record in EXAMPLES}:
            fields = declared(cls)
            n = len(fields) - ("span" in fields)
            for method, shape in (("__init__", (len(fields), hasattr(cls, "__post_init__"))),
                                  ("__eq__", n), ("__hash__", n)):
                codes.setdefault((method, shape), set()).add(getattr(cls, method).__code__.co_code)
        assert all(len(code) == 1 for code in codes.values())

    def test_a_class_of_an_arity_in_use_compiles_nothing(self, monkeypatch):
        calls = []
        for name in ("exec", "compile"):
            real = getattr(builtins, name)
            monkeypatch.setattr(builtins, name,
                                lambda *a, real=real, **k: calls.append(a) or real(*a, **k))

        @S._frozen
        class Twin(S.Node):
            left: S.Expr
            right: S.Expr

        monkeypatch.undo()
        assert calls == []
        for method in ("__init__", "__eq__", "__hash__"):
            assert (getattr(Twin, method).__code__.co_code
                    == getattr(S.Pair, method).__code__.co_code)
        twin = Twin(UnitVal(), Var("x"), span=SPAN)
        assert (twin.left, twin.right, twin.span) == (UnitVal(), Var("x"), SPAN)
        assert twin == Twin(UnitVal(), Var("x")) and twin != S.Pair(UnitVal(), Var("x"))
        assert hash(twin) == hash((UnitVal(), Var("x")))
        assert inspect.signature(Twin) == inspect.signature(S.Pair)

    def test_a_field_without_a_default_may_not_follow_one_with(self):
        # As in a `def`: the defaults close the parameter list, so none is
        # bound to the wrong parameter.
        with pytest.raises(TypeError, match="Late: a field without a default follows"):
            @S._frozen
            class Late:
                early: int = 0
                late: int


class TestSchema:
    def test_every_node_class_has_an_entry(self):
        classes = set(get_args(S.Expr)) | set(get_args(S.LocalExpr))
        assert len(classes) == 21 and set(S.SCHEMA) == classes
        for cls in classes:
            shape = S.SCHEMA[cls]
            fields = {name: ty for name, ty in declared(cls).items() if name != "span"}
            assert shape.fields == tuple(fields)
            # subterms are exactly the fields typed as terms, binders are
            # names, and everything else is data
            subterms = {shape.fields[i] for i, _ in shape.subterms}
            assert subterms == {name for name, ty in fields.items() if "Expr" in ty}
            binders = {shape.fields[b] for _, b in shape.subterms if b is not None}
            assert all(fields[name] == "str" for name in binders)
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

    @pytest.mark.parametrize("module", ["corps.normalize", "corps.netsim"])
    def test_a_plug_is_the_field_by_field_rebuild(self, module):
        # Every evaluation position of the language against a rebuild that
        # reads one field at a time: the same class and fields with the
        # subterm in place, the span object itself, and the node it was
        # given left as it was.  Each field holds its own marker, so a
        # field read or stored in the wrong place shows.
        span, k = S.Span("f.corps", 2, 9), UnitVal()
        for cls, positions in sys.modules[module]._HOLES.items():
            names = S.SCHEMA[cls].fields
            parts = [object() for _ in names]
            e = cls(*parts, span)
            for get, plug in positions:
                old = [k if part is get(e) else part for part in parts]
                out = plug(e, k)
                assert type(out) is cls and out == cls(*old, e.span)
                assert all(getattr(out, name) is part for name, part in zip(names, old))
                assert out.span is span
                assert all(getattr(e, name) is part for name, part in zip(names, parts))
                assert e.span is span

    def test_nodes_are_frozen_records(self):
        # Every class of the module but the schema's two is a record.
        classes = {cls for cls in vars(S).values()
                   if isinstance(cls, type) and cls.__module__ == S.__name__}
        assert {type(record) for record in EXAMPLES[:SYNTAX_RECORDS]} == classes - {
            S.Shape, S.Machine}
        assert SYNTAX_RECORDS == 31
        for record in EXAMPLES:
            cls = type(record)
            fields = tuple(declared(cls))
            assert cls._fields == fields
            assert cls.__match_args__ == tuple(name for name in fields if name != "span")
            for name in (*fields, "span", "other"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, name, None)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(record, name)
            # == and hash ignore the span; repr shows every field
            if "span" in fields:
                moved = cls(*compared(record), span=S.Span("g", 0, 0))
                assert moved == record and hash(moved) == hash(record)
                assert repr(moved) != repr(record)
            assert repr(record).startswith(f"{cls.__name__}(")
            assert all(f"{name}=" in repr(record) for name in fields)

    def test_a_rebuilt_node_keeps_frozen_equality_hash_and_repr(self):
        span = S.Span("f", 0, 3)
        e = S.Pair(Var("x"), S.Lam("y", Var("x")), span=span)
        out = substitute(e, "x", UnitVal())
        plain = S.Pair(UnitVal(), S.Lam("y", UnitVal()))
        assert out == plain and hash(out) == hash(plain)
        assert repr(out) == ("Pair(span=Span(file='f', start=0, end=3), "
                             "left=UnitVal(span=None), "
                             "right=Lam(span=None, var='y', body=UnitVal(span=None)))")
        for obj, name in ((out, "left"), (out, "span"), (out.right, "var"),
                          (span, "start"), (Binding("x", S.UNIT, ()), "tag"),
                          (S.Arrow(S.UNIT, S.VOID), "dom")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, None)
        with pytest.raises(ValueError, match="span start after end"):
            S.Span("f", 3, 1)

    def test_substitution_keeps_spans(self):
        span = S.Span("f", 0, 3)
        e = S.App(S.Lam("y", Var("x"), span=span), Var("x"), span=span)
        out = substitute(e, "x", UnitVal())
        assert out == S.App(S.Lam("y", UnitVal()), UnitVal())
        assert out.span == span and out.fn.span == span
