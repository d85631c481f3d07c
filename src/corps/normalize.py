"""Deterministic small-step semantics with two communication disciplines.

Reduction is leftmost-outermost call-by-value under evaluation contexts
covering every subterm position except function bodies, case branches
and modal-let bodies.  In COMM_FREE mode send/up/down never fire at the
head (their subterms still evaluate); in POSITIVE_COMM mode they fire
when the moved value is positive, i.e. contains no function anywhere:

    send A1.(...An.(v)) to [B1..Bm]  ->  B1.(...Bm.(v))
    up [A1..An] v                    ->  A1.(...An.(v))
    down [A1..An] (A1.(...An.(v)))   ->  v

Modality elimination (modal-let) is not a communication and reduces in
both modes.

Type annotations are transparent: a value may carry them, every redex
matches through them, and they are never erased.  Erasing them eagerly
would leave reducts the bidirectional checker cannot re-type (a bare
injection in an inference position), which would defeat type
preservation testing.

Two engines share one table of evaluation positions (`_HOLES`) and one
copy of the redex rules (`_contract`):

* `step` finds the next redex by searching from the root, so iterating
  it costs time quadratic in the number of steps along a deep context.
  It is the reference semantics: the type preservation suite re-types
  every term it produces, and the tests check `normalize` against it.
* `normalize` is a refocused abstract machine (Danvy and Nielsen,
  "Refocusing in reduction semantics", 2004).  It keeps the evaluation
  context as an explicit stack of frames, one per node on the path to
  the hole, and walks down to the leftmost redex.  After a contraction
  it resumes the search at the reduct, in the same stack, rather than at
  the root: every position left of the hole is already normal.  When a
  subterm turns out normal it pops one frame and rebuilds only that
  node.  The loop is iterative, so context depth costs no Python stack.
"""

from __future__ import annotations

import enum
from operator import attrgetter
from typing import Callable, Optional

from .syntax import (
    Absurd, Annot, App, Case, Down, Expr, Fst, Inl, Inr, Lam, Located,
    ModalLet, Pair, Send, Snd, Span, UnitVal, Up, Var, children,
    match_located, peel_located, substitute, unannot, wrap_located,
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


def is_value(e: Expr) -> bool:
    match unannot(e):
        case UnitVal() | Lam():
            return True
        case Pair(left, right):
            return is_value(left) and is_value(right)
        case Inl(inner) | Inr(inner) | Located(_, inner):
            return is_value(inner)
        case _:
            return False


def _has_lam(e: Expr) -> bool:
    if isinstance(e, Lam):
        return True
    return any(_has_lam(child) for child in children(e))


def is_positive_value(e: Expr) -> bool:
    """A value with no function anywhere inside it."""
    return is_value(e) and not _has_lam(e)


Step = tuple[Expr, str, Optional[Span]]

Hole = tuple[Callable[[Expr], Expr], Callable[[Expr, Expr], Expr]]

# The evaluation positions of each node form, left to right, as a pair
# (read the subterm in the hole, plug a new subterm into the hole).  A
# plugged node keeps its span, so redexes under it still report theirs.
_HOLES: dict[type, tuple[Hole, ...]] = {
    Var: (), UnitVal: (), Lam: (),
    Annot: ((attrgetter("inner"), lambda e, k: Annot(k, e.ty, span=e.span)),),
    Located: ((attrgetter("body"),
               lambda e, k: Located(e.agent, k, span=e.span)),),
    Pair: ((attrgetter("left"), lambda e, k: Pair(k, e.right, span=e.span)),
           (attrgetter("right"), lambda e, k: Pair(e.left, k, span=e.span))),
    Inl: ((attrgetter("inner"), lambda e, k: Inl(k, span=e.span)),),
    Inr: ((attrgetter("inner"), lambda e, k: Inr(k, span=e.span)),),
    Fst: ((attrgetter("inner"), lambda e, k: Fst(k, span=e.span)),),
    Snd: ((attrgetter("inner"), lambda e, k: Snd(k, span=e.span)),),
    Absurd: ((attrgetter("inner"), lambda e, k: Absurd(k, span=e.span)),),
    App: ((attrgetter("fn"), lambda e, k: App(k, e.arg, span=e.span)),
          (attrgetter("arg"), lambda e, k: App(e.fn, k, span=e.span))),
    Case: ((attrgetter("scrutinee"),
            lambda e, k: Case(k, e.left_var, e.left_body, e.right_var,
                              e.right_body, span=e.span)),),
    ModalLet: ((attrgetter("bound"),
                lambda e, k: ModalLet(e.open_path, e.stack_path, e.var, k,
                                      e.body, span=e.span)),),
    Send: ((attrgetter("payload"),
            lambda e, k: Send(k, e.dest, span=e.span)),),
    Up: ((attrgetter("body"), lambda e, k: Up(e.path, k, span=e.span)),),
    Down: ((attrgetter("body"), lambda e, k: Down(e.path, k, span=e.span)),),
}


def _holes(e: Expr) -> tuple[Hole, ...]:
    try:
        return _HOLES[type(e)]
    except KeyError:
        raise TypeError(f"not an expression: {e!r}") from None


def _contract(positive: bool, e: Expr) -> Optional[tuple[Expr, str]]:
    """Fire the rule at the head of `e`, whose evaluation positions hold
    normal forms: the reduct and the rule tag, or None if `e` is no redex.
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
            return (substitute(e.left_body, e.left_var, scrutinee.inner),
                    "case-inl")
        if isinstance(scrutinee, Inr) and is_value(scrutinee):
            return (substitute(e.right_body, e.right_var, scrutinee.inner),
                    "case-inr")
    elif kind is ModalLet:
        if is_value(e.bound):
            core = match_located(e.bound, e.stack_path)
            if core is not None:
                return substitute(e.body, e.var, core), "modal-let"
    elif kind is Send and positive:
        if is_value(e.payload):
            _, core = peel_located(e.payload)
            if is_positive_value(core):
                return wrap_located(e.dest, core), "send"
    elif kind is Up and positive:
        if is_positive_value(e.body):
            return wrap_located(e.path, e.body), "up"
    elif kind is Down and positive:
        if is_value(e.body):
            core = match_located(e.body, e.path)
            if core is not None and is_positive_value(core):
                return core, "down"
    return None


def step(mode: EvalMode, e: Expr) -> Optional[Step]:
    """One reduction step, or None on a normal form.

    Returns the reduct, the rule tag, and the span of the redex when the
    source position is known.  This restarts at the root every time; it
    is the reference semantics that `normalize` must agree with.
    """
    positive = mode is EvalMode.POSITIVE_COMM

    def go(e: Expr) -> Optional[Step]:
        for get, plug in _holes(e):
            r = go(get(e))
            if r:
                return plug(e, r[0]), r[1], r[2]
        r = _contract(positive, e)
        return (r[0], r[1], e.span) if r else None

    return go(e)


_COMM, _VAR, _STUCK = "comm", "var", "stuck"


def _blockers(mode: EvalMode, e: Expr) -> set[str]:
    """Why a normal form fails to be a value, per blocked position."""
    out: set[str] = set()

    def walk(e: Expr) -> None:
        match e:
            case UnitVal() | Lam():
                return
            case Var():
                out.add(_VAR)
            case Located(_, body) | Inl(body) | Inr(body):
                walk(body)
            case Pair(left, right):
                walk(left)
                walk(right)
            case Fst(inner) | Snd(inner):
                walk(inner)
                if is_value(inner):
                    out.add(_STUCK)
            case Absurd(inner):
                walk(inner)
                if is_value(inner):
                    out.add(_STUCK)
            case App(fn, arg):
                walk(fn)
                walk(arg)
                if is_value(fn) and is_value(arg):
                    out.add(_STUCK)
            case Case(scrutinee, _, _, _, _):
                walk(scrutinee)
                if is_value(scrutinee):
                    out.add(_STUCK)
            case ModalLet(_, _, _, bound, _):
                walk(bound)
                if is_value(bound):
                    out.add(_STUCK)
            case Send(payload, _):
                walk(payload)
                if is_value(payload):
                    out.add(_COMM)
            case Up(_, body):
                walk(body)
                if is_value(body):
                    out.add(_COMM)
            case Down(path, body):
                walk(body)
                if is_value(body):
                    core = match_located(body, path)
                    if core is None:
                        out.add(_STUCK)
                    else:
                        out.add(_COMM)
            case Annot(inner, _):
                walk(inner)

    walk(e)
    return out


def classify(mode: EvalMode, e: Expr) -> NormalFormClass:
    """Classify a normal form; raises StuckUnexpected on internal errors."""
    if is_value(e):
        return NormalFormClass.VALUE
    blockers = _blockers(mode, e)
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
    steps = 0
    # The evaluation context of `focus`, outermost frame first: a node and
    # the index of the evaluation position that holds the hole.  Every
    # position left of a hole already holds a normal form.
    frames: list[tuple[Expr, int]] = []
    focus = e
    while True:
        # Descend through first positions to a leaf, which is normal.
        holes = _holes(focus)
        while holes:
            frames.append((focus, 0))
            focus = holes[0][0](focus)
            holes = _holes(focus)
        # Climb with the normal form `focus`: plug it into its frame, then
        # move right to the next position, contract the node and refocus
        # on the reduct, or, if the node is normal too, climb on.
        while frames:
            node, i = frames.pop()
            holes = _HOLES[type(node)]
            get, plug = holes[i]
            if get(node) is not focus:
                node = plug(node, focus)
            i += 1
            if i < len(holes):
                frames.append((node, i))
                focus = holes[i][0](node)
                break
            r = _contract(positive, node)
            if r is None:
                focus = node
                continue
            if steps >= fuel:
                raise FuelExhausted(_plug_frames(frames, node), steps)
            focus = r[0]
            if on_step is not None:
                on_step(steps, r[1], node.span)
            steps += 1
            break
        else:
            return focus, classify(mode, focus), steps


def _plug_frames(frames: list[tuple[Expr, int]], e: Expr) -> Expr:
    for node, i in reversed(frames):
        e = _HOLES[type(node)][i][1](node, e)
    return e
