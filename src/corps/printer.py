"""Pretty-printer; a printed program reparses to an alpha-equivalent tree.

`expr_str` prints choreographies and local processes alike.  Expression
precedence levels: 0 sequence (local processes only), 1 keyword forms,
2 application, 3 unary operators, 4 atoms.  A subexpression is
parenthesized whenever its own level is below the level its position
requires.

`expr_str` must stay one Python frame per nesting level: `test_nesting`
prints operator chains about twice `MAX_NESTING` deep at the default
recursion limit.

Both walks branch on `type(e) is C`, most frequent form first, and read
fields as attributes: on CPython 3.11 a `match` class pattern costs about
0.08 us per case that fails and 0.35 us per positional field, several
times an identity test.
"""

from __future__ import annotations

from .syntax import (
    Absurd, Annot, App, Arrow, Believes, Case, Down, Expr, Fst, Inl, Inr,
    Lam, LocalExpr, Located, ModalLet, Pair, Path, Product, RecvFrom, Send,
    SendTo, Seq, Skip, Snd, Sum, Type, Unit, UnitVal, Up, Var, Void,
    split_stack,
)

_SEQ, _KEYWORD, _APP, _UNARY, _ATOM = 0, 1, 2, 3, 4


def path_str(g: Path) -> str:
    return "[" + ".".join(g) + "]"


def type_str(ty: Type, prec: int = 0) -> str:
    # Type precedence: arrow 0 (right-assoc), sum 1, product 2, modality 3.
    kind = type(ty)
    if kind is Unit:
        return "unit"
    if kind is Sum:
        s = f"{type_str(ty.left, 1)} + {type_str(ty.right, 2)}"
        return f"({s})" if prec > 1 else s
    if kind is Believes:
        stack, core = split_stack(ty)
        s = f"{path_str(stack)} {type_str(core, 3)}"
        return f"({s})" if prec > 3 else s
    if kind is Product:
        s = f"{type_str(ty.left, 2)} * {type_str(ty.right, 3)}"
        return f"({s})" if prec > 2 else s
    if kind is Arrow:
        s = f"{type_str(ty.dom, 1)} -> {type_str(ty.cod, 0)}"
        return f"({s})" if prec > 0 else s
    if kind is Void:
        return "void"
    raise TypeError(f"not a type: {kind.__name__}")


def expr_str(e: Expr | LocalExpr, prec: int = _SEQ) -> str:
    # The forms most frequent in networks first: they are most of what is
    # printed.  A form that can need parentheses sets its text and level.
    kind = type(e)
    if kind is Skip:
        return "skip"
    elif kind is Pair:
        return f"({expr_str(e.left)}, {expr_str(e.right)})"
    elif kind is UnitVal:
        return "()"
    elif kind is RecvFrom:
        return f"recv_from {path_str(e.src)}"
    elif kind is SendTo:
        s, level = f"send_to {path_str(e.dest)} {expr_str(e.payload, _APP)}", _KEYWORD
    elif kind is Seq:
        s, level = f"{expr_str(e.first, _KEYWORD)} ; {expr_str(e.rest)}", _SEQ
    elif kind is Var:
        return e.name
    elif kind is Located:
        return f"{e.agent}.{expr_str(e.body, _ATOM)}"
    elif kind is Annot:
        return f"({expr_str(e.inner)} : {type_str(e.ty)})"
    elif kind is Lam:
        s, level = f"fun {e.var} -> {expr_str(e.body, _KEYWORD)}", _KEYWORD
    elif kind is Inl:
        s, level = f"inl {expr_str(e.inner, _UNARY)}", _UNARY
    elif kind is Inr:
        s, level = f"inr {expr_str(e.inner, _UNARY)}", _UNARY
    elif kind is App:
        s, level = f"{expr_str(e.fn, _APP)} {expr_str(e.arg, _UNARY)}", _APP
    elif kind is Case:
        s = (f"case {expr_str(e.scrutinee, _KEYWORD)} of inl {e.left_var} -> "
             f"{expr_str(e.left_body, _KEYWORD)} | inr {e.right_var} -> "
             f"{expr_str(e.right_body, _KEYWORD)}")
        level = _KEYWORD
    elif kind is Fst:
        s, level = f"fst {expr_str(e.inner, _UNARY)}", _UNARY
    elif kind is Snd:
        s, level = f"snd {expr_str(e.inner, _UNARY)}", _UNARY
    elif kind is Send:
        s, level = f"send {expr_str(e.payload, _APP)} to {path_str(e.dest)}", _KEYWORD
    elif kind is ModalLet:
        s = (f"let {path_str(e.open_path)} {path_str(e.stack_path)} {e.var} = "
             f"{expr_str(e.bound, _KEYWORD)} in {expr_str(e.body, _KEYWORD)}")
        level = _KEYWORD
    elif kind is Up:
        s, level = f"up {path_str(e.path)} {expr_str(e.body, _APP)}", _KEYWORD
    elif kind is Down:
        s, level = f"down {path_str(e.path)} {expr_str(e.body, _APP)}", _KEYWORD
    elif kind is Absurd:
        s, level = f"absurd {expr_str(e.inner, _UNARY)}", _UNARY
    else:
        raise TypeError(f"not an expression: {kind.__name__}")
    return f"({s})" if level < prec else s


def pretty_print(program) -> str:
    lines: list[str] = []
    if program.topology_ref is not None:
        ref = program.topology_ref
        if ref.isidentifier() and ref[0].islower():
            lines.append(f"topology {ref};")
        else:
            lines.append(f'topology "{ref}";')
    for name, ty in program.inputs:
        lines.append(f"input {name} : {type_str(ty)};")
    for name, ty, body in program.defs:
        lines.append(f"def {name} : {type_str(ty)} = {expr_str(body)};")
    lines.append(f"main : {type_str(program.main_type)} = {expr_str(program.main_expr)};")
    return "\n".join(lines) + "\n"
