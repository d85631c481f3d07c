"""Seeded source-text generators for the benchmark workloads.

Everything here is self-contained: types and expressions are plain
tuples, the three preset policies are re-stated as functions, and
programs are rendered to Corps source text by this module.  The library
only ever sees the text, through the same `parse_program` entry point the
command line uses, so a change inside the library cannot change what a
workload feeds it.

`ProgramGen` follows the type-directed generator of the test suite:
every communication is generated under a relation query against the
target preset, so each program typechecks by construction, and
`projectable=True` keeps moved values first-order and case branches
equal so the program survives endpoint projection.

Tuple forms:
    types        ("unit",) ("void",) ("bel", A, t) ("prod", l, r)
                 ("sum", l, r) ("arrow", dom, cod)
    expressions  ("var", x) ("unitval",) ("pair", l, r) ("annot", e, t)
                 ("loc", A, e) ("lam", x, e) ("let", g1, g2, x, e1, e2)
                 ("case", e, x, l, y, r) ("send", e, g) ("up", g, e)
                 ("down", g, e) ("app", f, a) ("inl", e) ("inr", e)
                 ("fst", e) ("snd", e)
"""

from __future__ import annotations

import random

AGENTS = ("A", "B", "C")
PRESETS = ("doxastic", "choreo", "siblings")

UNIT = ("unit",)
VOID = ("void",)
UNITVAL = ("unitval",)


# -- preset policies ----------------------------------------------------------
# All three presets share `*.$a => *.$a.$a` for candown and canup; they
# differ in cansend: never, always, or between nodes with one parent.

def _self_belief(a, b) -> bool:
    return len(a) >= 1 and b == a + (a[-1],)


def relation_holds(preset: str, kind: str, a, b) -> bool:
    if kind in ("candown", "canup"):
        return _self_belief(a, b)
    if preset == "choreo":
        return True
    if preset == "siblings":
        return len(a) >= 1 and len(b) >= 1 and a[:-1] == b[:-1]
    return False


# -- type helpers ---------------------------------------------------------------

def belief_stack(g, core):
    for name in reversed(g):
        core = ("bel", name, core)
    return core


def split_stack(ty):
    g = []
    while ty[0] == "bel":
        g.append(ty[1])
        ty = ty[2]
    return tuple(g), ty


def _contains(ty, tag) -> bool:
    if ty[0] == tag:
        return True
    if ty[0] == "bel":
        return _contains(ty[2], tag)
    if ty[0] in ("prod", "sum", "arrow"):
        return _contains(ty[1], tag) or _contains(ty[2], tag)
    return False


def is_first_order(ty) -> bool:
    return not _contains(ty, "bel") and not _contains(ty, "arrow")


_EXPR_TAGS = frozenset({
    "var", "unitval", "pair", "annot", "loc", "lam", "let", "case", "send",
    "up", "down", "app", "inl", "inr", "fst", "snd",
})


def rename(e, old: str, new: str):
    """Rename occurrences of variable `old`; binders are fresh, so no capture."""
    if e == ("var", old):
        return ("var", new)
    return tuple(rename(part, old, new)
                 if isinstance(part, tuple) and part and part[0] in _EXPR_TAGS
                 else part for part in e)


# -- rendering -------------------------------------------------------------------
# Precedence follows the concrete grammar: expressions 0 keyword forms,
# 1 application, 2 unary operators, 3 atoms; types 0 arrow, 1 sum,
# 2 product, 3 modality.

_KEYWORD, _APP, _UNARY, _ATOM = 0, 1, 2, 3


def path_text(g) -> str:
    return "[" + ".".join(g) + "]"


def type_text(ty, prec: int = 0) -> str:
    tag = ty[0]
    if tag == "unit":
        return "unit"
    if tag == "void":
        return "void"
    if tag == "arrow":
        s = f"{type_text(ty[1], 1)} -> {type_text(ty[2], 0)}"
        return f"({s})" if prec > 0 else s
    if tag == "sum":
        s = f"{type_text(ty[1], 1)} + {type_text(ty[2], 2)}"
        return f"({s})" if prec > 1 else s
    if tag == "prod":
        s = f"{type_text(ty[1], 2)} * {type_text(ty[2], 3)}"
        return f"({s})" if prec > 2 else s
    stack, core = split_stack(ty)
    s = f"{path_text(stack)} {type_text(core, 3)}"
    return f"({s})" if prec > 3 else s


def expr_text(e, prec: int = _KEYWORD) -> str:
    def wrap(s: str, level: int) -> str:
        return f"({s})" if level < prec else s

    tag = e[0]
    if tag == "var":
        return e[1]
    if tag == "unitval":
        return "()"
    if tag == "pair":
        return f"({expr_text(e[1])}, {expr_text(e[2])})"
    if tag == "annot":
        return f"({expr_text(e[1])} : {type_text(e[2])})"
    if tag == "loc":
        return f"{e[1]}.{expr_text(e[2], _ATOM)}"
    if tag == "lam":
        return wrap(f"fun {e[1]} -> {expr_text(e[2])}", _KEYWORD)
    if tag == "let":
        _, g1, g2, var, bound, body = e
        return wrap(f"let {path_text(g1)} {path_text(g2)} {var} = "
                    f"{expr_text(bound)} in {expr_text(body)}", _KEYWORD)
    if tag == "case":
        _, scrut, lv, lb, rv, rb = e
        return wrap(f"case {expr_text(scrut)} of inl {lv} -> {expr_text(lb)}"
                    f" | inr {rv} -> {expr_text(rb)}", _KEYWORD)
    if tag == "send":
        return wrap(f"send {expr_text(e[1], _APP)} to {path_text(e[2])}", _KEYWORD)
    if tag in ("up", "down"):
        return wrap(f"{tag} {path_text(e[1])} {expr_text(e[2], _APP)}", _KEYWORD)
    if tag == "app":
        return wrap(f"{expr_text(e[1], _APP)} {expr_text(e[2], _UNARY)}", _APP)
    if tag in ("inl", "inr", "fst", "snd"):
        return wrap(f"{tag} {expr_text(e[1], _UNARY)}", _UNARY)
    raise ValueError(f"not an expression: {e!r}")


def program_text(preset: str, defs, main_ty, main) -> str:
    lines = [f"topology {preset};"]
    for name, ty, body in defs:
        lines.append(f"def {name} : {type_text(ty)} = {expr_text(body)};")
    lines.append(f"main : {type_text(main_ty)} = {expr_text(main)};")
    return "\n".join(lines) + "\n"


# -- well-typed random programs -------------------------------------------------------

class ProgramGen:
    def __init__(self, seed: int, preset: str, depth: int = 7,
                 budget: int = 60, projectable: bool = False):
        self.rng = random.Random(seed)
        self.preset = preset
        self.max_depth = depth
        self.budget = budget
        self.projectable = projectable
        self.counter = 0

    def fresh(self) -> str:
        self.counter += 1
        return f"x{self.counter}"

    def agent(self) -> str:
        return self.rng.choice(AGENTS)

    def _holds(self, kind, a, b) -> bool:
        return relation_holds(self.preset, kind, a, b)

    def _spend(self) -> bool:
        if self.budget <= 0:
            return False
        self.budget -= 1
        return True

    def _paths(self, max_len: int = 2, include_empty: bool = False):
        out = [()] if include_empty else []
        out += [(a,) for a in AGENTS]
        if max_len >= 2:
            out += [(a, b) for a in AGENTS for b in AGENTS]
        return out

    def gen_type(self, depth: int, first_order: bool = False):
        if depth <= 0 or not self._spend():
            return UNIT
        r = self.rng.random()
        if r < 0.34:
            return UNIT
        if r < 0.52 and not first_order:
            return ("bel", self.agent(), self.gen_type(depth - 1, first_order))
        if r < 0.68:
            return ("prod", self.gen_type(depth - 1, first_order),
                    self.gen_type(depth - 1, first_order))
        if r < 0.86:
            left = self.gen_type(depth - 1, first_order)
            if self.rng.random() < 0.12:
                return ("sum", left, VOID)
            return ("sum", left, self.gen_type(depth - 1, first_order))
        if not first_order:
            return ("arrow", self.gen_type(depth - 2, first_order),
                    self.gen_type(depth - 1, first_order))
        return UNIT

    def base_value(self, ty):
        """A canonical value of `ty`, annotated wherever it must infer."""
        tag = ty[0]
        if tag == "unit":
            return UNITVAL
        if tag == "bel":
            return ("loc", ty[1], self.base_value(ty[2]))
        if tag == "prod":
            return ("pair", self.base_value(ty[1]), self.base_value(ty[2]))
        if tag == "sum":
            left, right = ty[1], ty[2]
            if left == VOID:
                return ("annot", ("inr", self.base_value(right)), ty)
            if right == VOID or self.rng.random() < 0.5:
                return ("annot", ("inl", self.base_value(left)), ty)
            return ("annot", ("inr", self.base_value(right)), ty)
        if tag == "arrow":
            return ("annot", ("lam", self.fresh(), self.base_value(ty[2])), ty)
        raise ValueError(f"no canonical value of type {ty!r}")

    # env: list of (name, type, absolute viewpoint where usable); rightmost wins.

    def _usable(self, env, viewpoint, ty):
        rightmost = {}
        for name, var_ty, abs_tag in env:
            rightmost[name] = (var_ty, abs_tag)
        return [name for name, (var_ty, abs_tag) in rightmost.items()
                if abs_tag == viewpoint and var_ty == ty]

    def _moved_ok(self, ty) -> bool:
        return not self.projectable or is_first_order(ty)

    def _gen_case(self, ty, viewpoint, env, depth: int):
        if self.projectable:
            # Equal branch copies survive merging only when the binders
            # also agree in type, so use a same-sided sum.
            side = self.gen_type(1)
            scrut_ty = ("sum", side, side)
        else:
            scrut_ty = ("sum", self.gen_type(1), self.gen_type(1))
        scrutinee = self.gen_infer(scrut_ty, viewpoint, env, depth - 1)
        lv, rv = self.fresh(), self.fresh()
        lb = self.gen_infer(ty, viewpoint, env + [(lv, scrut_ty[1], viewpoint)],
                            depth - 1)
        if self.projectable:
            rb = rename(lb, lv, rv)
        else:
            rb = self.gen_infer(ty, viewpoint,
                                env + [(rv, scrut_ty[2], viewpoint)], depth - 1)
        return ("case", scrutinee, lv, lb, rv, rb)

    def gen_infer(self, ty, viewpoint, env, depth: int):
        if depth <= 0 or not self._spend():
            return self.base_value(ty)
        choices = []
        usable = self._usable(env, viewpoint, ty)
        if usable:
            choices += ["var"] * 3
        tag = ty[0]
        if tag == "unit":
            choices += ["unit"]
        if tag == "bel":
            choices += ["located"] * 4
        if tag == "arrow":
            choices += ["lam"] * 4
        if tag == "sum":
            choices += ["inj"] * 3
        if tag == "prod":
            choices += ["pair"] * 3
        stack, core = split_stack(ty)
        up_splits = [k for k in range(1, len(stack) + 1)
                     if self._holds("canup", viewpoint, viewpoint + stack[:k])
                     and self._moved_ok(belief_stack(stack[k:], core))]
        if up_splits:
            choices += ["up"] * 3
        send_sources = [g1 for g1 in self._paths(2, include_empty=True)
                        if self._holds("cansend", viewpoint + g1,
                                       viewpoint + stack)]
        if send_sources and self._moved_ok(core):
            choices += ["send"] * 3
        down_paths = [g for g in self._paths(2)
                      if self._holds("candown", viewpoint, viewpoint + g)]
        if down_paths and self._moved_ok(ty):
            choices += ["down"] * 3
        if depth >= 2:
            choices += ["let"] * 4
            choices += ["pairproj"] * 2 + ["app"] * 2 + ["case"] * 2
        if not choices:
            choices = ["base"]
        kind = self.rng.choice(choices)
        if kind == "base":
            return self.base_value(ty)
        if kind == "var":
            return ("var", self.rng.choice(usable))
        if kind == "unit":
            return UNITVAL
        if kind == "lam":
            var = self.fresh()
            body = self.gen_infer(ty[2], viewpoint,
                                  env + [(var, ty[1], viewpoint)], depth - 1)
            return ("annot", ("lam", var, body), ty)
        if kind == "inj":
            if ty[1] == VOID:
                side = "r"
            elif ty[2] == VOID:
                side = "l"
            else:
                side = "l" if self.rng.random() < 0.5 else "r"
            if side == "l":
                return ("annot", ("inl", self.gen_infer(ty[1], viewpoint, env,
                                                        depth - 1)), ty)
            return ("annot", ("inr", self.gen_infer(ty[2], viewpoint, env,
                                                    depth - 1)), ty)
        if kind == "located":
            inner = self.gen_infer(ty[2], viewpoint + (ty[1],), env, depth - 1)
            return ("loc", ty[1], inner)
        if kind == "pair":
            return ("pair", self.gen_infer(ty[1], viewpoint, env, depth - 1),
                    self.gen_infer(ty[2], viewpoint, env, depth - 1))
        if kind == "up":
            k = self.rng.choice(up_splits)
            payload_ty = belief_stack(stack[k:], core)
            return ("up", stack[:k],
                    self.gen_infer(payload_ty, viewpoint, env, depth - 1))
        if kind == "send":
            g1 = self.rng.choice(send_sources)
            payload = self.gen_infer(belief_stack(g1, core), viewpoint, env,
                                     depth - 1)
            return ("send", payload, stack)
        if kind == "down":
            g = self.rng.choice(down_paths)
            return ("down", g, self.gen_infer(belief_stack(g, ty), viewpoint,
                                              env, depth - 1))
        if kind == "let":
            return self._gen_let(ty, viewpoint, env, depth)
        if kind == "pairproj":
            other = self.gen_type(1)
            if self.rng.random() < 0.5:
                return ("fst", self.gen_infer(("prod", ty, other), viewpoint,
                                              env, depth - 1))
            return ("snd", self.gen_infer(("prod", other, ty), viewpoint, env,
                                          depth - 1))
        if kind == "app":
            dom = self.gen_type(1)
            fn = self.gen_infer(("arrow", dom, ty), viewpoint, env, depth - 1)
            arg = self.gen_infer(dom, viewpoint, env, depth - 1)
            return ("app", fn, arg)
        return self._gen_case(ty, viewpoint, env, depth)

    def _gen_let(self, ty, viewpoint, env, depth: int):
        g1 = self.rng.choice(self._paths(1, include_empty=True) + [()])
        g2 = self.rng.choice(self._paths(2, include_empty=True) + [()])
        core = self.gen_type(1)
        bound = self.gen_infer(belief_stack(g2, core), viewpoint + g1, env,
                               depth - 1)
        var = self.fresh()
        body = self.gen_infer(ty, viewpoint, env + [(var, core, viewpoint + g1 + g2)],
                              depth - 1)
        return ("let", g1, g2, var, bound, body)

    def gen_program(self) -> tuple[str, str]:
        """Returns (source text, rendered main type)."""
        depth = self.rng.randint(3, self.max_depth)
        env = []
        defs = []
        if self.rng.random() < 0.25:
            for _ in range(self.rng.randint(1, 2)):
                def_name = f"d{self.counter}"
                self.counter += 1
                def_ty = self.gen_type(2)
                body = self.gen_infer(def_ty, (), env, min(depth, 3))
                defs.append((def_name, def_ty, body))
                env.append((def_name, def_ty, ()))
        main_ty = self.gen_type(3)
        main = self.gen_infer(main_ty, (), env, depth)
        return program_text(self.preset, defs, main_ty, main), type_text(main_ty)


# -- structured families ------------------------------------------------------------------

def chain_program(n: int) -> tuple[str, str]:
    """An A<->B chain of `n` nested sends; returns (source, final agent)."""
    expr, holder = "A.()", "A"
    for _ in range(n):
        holder = "B" if holder == "A" else "A"
        expr = f"send ({expr}) to [{holder}]"
    return f"topology choreo;\nmain : [{holder}] unit = {expr};\n", holder


def fanout_program(k: int, sender: int) -> str:
    """Agent P<sender> sends one unit to each other of P0..P(k-1).

    The result is the tuple of what the receivers got, so the process of
    every agent and of the root is non-trivial.
    """
    receivers = [i for i in range(k) if i != sender]
    ty = f"[P{receivers[-1]}] unit"
    expr = f"send P{sender}.() to [P{receivers[-1]}]"
    for i in reversed(receivers[:-1]):
        ty = f"[P{i}] unit * ({ty})"
        expr = f"(send P{sender}.() to [P{i}], {expr})"
    return f"topology choreo;\nmain : {ty} = {expr};\n"


def stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """`count` sizes, one drawn from each of `count` equal bands of [lo, hi].

    Different seeds give different sizes, but every seed covers the range
    the same way, so a run's cost does not hinge on a lucky draw.
    """
    width = (hi - lo + 1) / count
    sizes = [lo + int((i + rng.random()) * width) for i in range(count)]
    rng.shuffle(sizes)
    return sizes


def bands(rng: random.Random, ordered: list, count: int):
    """Split `ordered` into `count` equal consecutive bands, each shuffled."""
    size = len(ordered) // count
    for i in range(count):
        band = ordered[i * size:(i + 1) * size]
        rng.shuffle(band)
        yield band
