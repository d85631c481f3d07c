"""Deterministic small-step semantics with two communication disciplines.

Reduction is leftmost-outermost call-by-value under evaluation contexts
covering every subterm position except function bodies, case branches
and modal-let bodies.  In COMM_FREE mode send/up/down never fire at the
head (their subterms still evaluate); in POSITIVE_COMM mode they fire
when the moved value is positive, i.e. contains no function anywhere:

    send A1.(...An.(v)) to [B1..Bm]  ->  B1.(...Bm.(v))
    up [A1..An] v                    ->  A1.(...An.(v))
    down [A1..An] (A1.(...An.(v)))   ->  v

`Located` and `Annot` are value forms whose only position is their body,
so one positive walk decides `send` and `down`; the reducts of the three,
and of `fst` and `snd` on a pair value, are values (`_VALUE_REDUCTS`).

Modality elimination (modal-let) is not a communication and reduces in
both modes.

Type annotations are transparent: a value may carry them, every redex
matches through them, and they are never erased.  Erasing them eagerly
would leave reducts the bidirectional checker cannot re-type (a bare
injection in an inference position), which would defeat type
preservation testing.

A value is a node of one of the value forms (`_VALUE_FORMS`) whose
evaluation positions (`_HOLES`) all hold values; `is_value` is
`syntax.value_test` over those two tables, and `is_positive_value` the
same test over the forms without `Lam`.  Two engines share `_HOLES` and
one copy of the redex rules (`_contract`):

* `step` finds the next redex by searching from the root, so iterating
  it costs time quadratic in the number of steps along a deep context.
  It is the reference semantics: the type preservation suite re-types
  every term it produces, and the tests check `normalize` against it.
* `normalize` runs the refocusing machine of `syntax.Machine`, which the
  simulator shares (Danvy and Nielsen, "Refocusing in reduction
  semantics", 2004).  The machine stops at each node that is no value
  form and whose positions are normal; `normalize` contracts it and
  refocuses on the reduct in the same context rather than at the root,
  since every position left of the hole is already normal.  It climbs
  on past a node that is normal too, and past a value reduct without
  entering it.  Context depth costs no Python stack.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional, get_args

from .syntax import (
    Absurd, Annot, App, Case, Down, Expr, Fst, Inl, Inr, Lam, Located, Machine,
    ModalLet, Pair, Send, Snd, Span, UnitVal, Up, Var, eval_holes, located_core,
    match_located, substitute, unannot, value_test, wrap_located,
)


class EvalMode(enum.Enum):
    COMM_FREE = "comm-free"
    POSITIVE_COMM = "positive"


class NormalFormClass(enum.Enum):
    VALUE = "Value"
    COMM_NEUTRAL = "CommNeutral"
    OPEN = "Open"


class FuelExhausted(Exception):
    def __init__(self, last: Expr, steps: int):
        super().__init__(f"no normal form within {steps} steps")
        self.last = last
        self.steps = steps


class StuckUnexpected(Exception):
    def __init__(self, term: Expr):
        super().__init__("term is neither a normal form nor reducible")
        self.term = term


Step = tuple[Expr, str, Optional[Span]]

_HOLES = eval_holes(get_args(Expr))
_VALUE_FORMS = frozenset((UnitVal, Lam, Located, Pair, Inl, Inr, Annot))
_MACHINE = Machine(_HOLES, _VALUE_FORMS)
is_value = value_test(_HOLES, _VALUE_FORMS)
# A positive value holds no function anywhere inside it.
is_positive_value = value_test(_HOLES, _VALUE_FORMS - {Lam})
_VALUE_REDUCTS = frozenset(("send", "up", "down", "fst", "snd"))


def _contract(positive: bool, e: Expr) -> Optional[tuple[Expr, str]]:
    """Fire the rule at the head of `e`, whose evaluation positions hold
    normal forms: the reduct and the rule tag, or None if `e` is no redex.
    One positive walk decides `send` and `down` (see the module docstring).
    """
    kind = type(e)
    if kind is App:
        fn = unannot(e.fn)
        if isinstance(fn, Lam) and is_value(e.arg):
            return substitute(fn.body, fn.var, e.arg), "beta"
    elif kind is Fst or kind is Snd:
        pair = unannot(e.inner)
        if isinstance(pair, Pair) and is_value(pair):
            return (pair.left, "fst") if kind is Fst else (pair.right, "snd")
    elif kind is Case:
        scrutinee = unannot(e.scrutinee)
        if isinstance(scrutinee, Inl) and is_value(scrutinee):
            return substitute(e.left_body, e.left_var, scrutinee.inner), "case-inl"
        if isinstance(scrutinee, Inr) and is_value(scrutinee):
            return substitute(e.right_body, e.right_var, scrutinee.inner), "case-inr"
    elif kind is ModalLet:
        if is_value(e.bound):
            core = match_located(e.bound, e.stack_path)
            if core is not None:
                return substitute(e.body, e.var, core), "modal-let"
    elif kind is Send and positive:
        if is_positive_value(e.payload):
            return wrap_located(e.dest, located_core(e.payload)), "send"
    elif kind is Up and positive:
        if is_positive_value(e.body):
            return wrap_located(e.path, e.body), "up"
    elif kind is Down and positive:
        core = match_located(e.body, e.path)
        if core is not None and is_positive_value(core):
            return core, "down"
    elif kind not in _HOLES:
        raise TypeError(f"not an expression: {type(e).__name__}")
    return None


def step(mode: EvalMode, e: Expr) -> Optional[Step]:
    """One reduction step, or None on a normal form.

    Returns the reduct, the rule tag, and the span of the redex when the
    source position is known.  This restarts at the root every time; it
    is the reference semantics that `normalize` must agree with.
    """
    positive = mode is EvalMode.POSITIVE_COMM

    def go(e: Expr) -> Optional[Step]:
        for get, plug in _HOLES.get(type(e), ()):
            r = go(get(e))
            if r:
                return plug(e, r[0]), r[1], r[2]
        r = _contract(positive, e)
        return (r[0], r[1], e.span) if r else None

    return go(e)


_COMM, _VAR, _STUCK = "comm", "var", "stuck"


# Why a node that is no redex, though its evaluation positions all hold
# values, blocks: a stuck term or a frozen communication.  A `down`
# whose body does not carry its path is stuck instead.
_BLOCKED_ON = {
    Fst: _STUCK, Snd: _STUCK, Absurd: _STUCK, App: _STUCK, Case: _STUCK,
    ModalLet: _STUCK, Send: _COMM, Up: _COMM, Down: _COMM,
}


def _blockers(e: Expr) -> set[str]:
    """Why a normal form fails to be a value, per blocked position."""
    out: set[str] = set()
    pending = [e]
    while pending:
        e = pending.pop()
        kind = type(e)
        if kind is Var:
            out.add(_VAR)
        parts = [get(e) for get, _ in _HOLES[kind]]
        pending += parts
        reason = _BLOCKED_ON.get(kind)
        if reason is not None and all(map(is_value, parts)):
            if kind is Down and match_located(e.body, e.path) is None:
                reason = _STUCK
            out.add(reason)
    return out


def classify(e: Expr) -> NormalFormClass:
    """Classify a normal form; raises StuckUnexpected on internal errors."""
    if is_value(e):
        return NormalFormClass.VALUE
    blockers = _blockers(e)
    if _COMM in blockers:
        return NormalFormClass.COMM_NEUTRAL
    if _VAR in blockers:
        return NormalFormClass.OPEN
    raise StuckUnexpected(e)


def normalize(mode: EvalMode, e: Expr, fuel: int,
              on_step: Optional[Callable[[int, str, Optional[Span]], None]] = None,
              ) -> tuple[Expr, NormalFormClass, int]:
    """Reduce to a normal form; deterministic.

    Takes the same steps as iterating `step`, in the same order, with the
    same rule tags and spans, and raises `FuelExhausted` on the same term.
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    positive = mode is EvalMode.POSITIVE_COMM
    refocus, values = _MACHINE.refocus, _MACHINE.values
    steps = 0
    frames, focus = refocus(None, e)
    while frames is not None or type(focus) not in values:
        r = _contract(positive, focus)
        if r is None:  # a normal form that is no value
            if frames is None:
                break
            frames, focus = refocus(frames, focus, climb=True)
            continue
        if steps >= fuel:
            raise FuelExhausted(_MACHINE.plug(frames, focus), steps)
        if on_step is not None:
            on_step(steps, r[1], focus.span)
        steps += 1
        frames, focus = refocus(frames, r[0], r[1] in _VALUE_REDUCTS)
    return focus, classify(focus), steps
