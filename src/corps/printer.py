"""Pretty-printer; a printed program reparses to an alpha-equivalent tree.

`expr_str` prints choreographies and local processes alike.  Expression
precedence levels: 0 sequence (local processes only), 1 keyword forms,
2 application, 3 unary operators, 4 atoms.  A subexpression is
parenthesized whenever its own level is below the level its position
requires.

`expr_str` must stay one Python frame per nesting level: `test_nesting`
prints operator chains about twice `MAX_NESTING` deep at the default
recursion limit.
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
    match ty:
        case Unit():
            return "unit"
        case Void():
            return "void"
        case Arrow(dom, cod):
            s = f"{type_str(dom, 1)} -> {type_str(cod, 0)}"
            return f"({s})" if prec > 0 else s
        case Sum(left, right):
            s = f"{type_str(left, 1)} + {type_str(right, 2)}"
            return f"({s})" if prec > 1 else s
        case Product(left, right):
            s = f"{type_str(left, 2)} * {type_str(right, 3)}"
            return f"({s})" if prec > 2 else s
        case Believes():
            stack, core = split_stack(ty)
            s = f"{path_str(stack)} {type_str(core, 3)}"
            return f"({s})" if prec > 3 else s
    raise TypeError(f"not a type: {type(ty).__name__}")


def expr_str(e: Expr | LocalExpr, prec: int = _SEQ) -> str:
    # The forms most frequent in networks first: they are most of what is
    # printed.  A form that can need parentheses sets its text and level.
    match e:
        case Skip():
            return "skip"
        case Pair(left, right):
            return f"({expr_str(left)}, {expr_str(right)})"
        case Seq(first, rest):
            s, level = f"{expr_str(first, _KEYWORD)} ; {expr_str(rest)}", _SEQ
        case SendTo(dest, payload):
            s, level = f"send_to {path_str(dest)} {expr_str(payload, _APP)}", _KEYWORD
        case RecvFrom(src):
            return f"recv_from {path_str(src)}"
        case Var(name):
            return name
        case UnitVal():
            return "()"
        case Annot(inner, ty):
            return f"({expr_str(inner)} : {type_str(ty)})"
        case Located(agent, body):
            return f"{agent}.{expr_str(body, _ATOM)}"
        case Lam(var, body):
            s, level = f"fun {var} -> {expr_str(body, _KEYWORD)}", _KEYWORD
        case ModalLet(g1, g2, var, bound, body):
            s = (f"let {path_str(g1)} {path_str(g2)} {var} = "
                 f"{expr_str(bound, _KEYWORD)} in {expr_str(body, _KEYWORD)}")
            level = _KEYWORD
        case Case(scrutinee, lv, lb, rv, rb):
            s = (f"case {expr_str(scrutinee, _KEYWORD)} of inl {lv} -> "
                 f"{expr_str(lb, _KEYWORD)} | inr {rv} -> {expr_str(rb, _KEYWORD)}")
            level = _KEYWORD
        case Send(payload, dest):
            s, level = f"send {expr_str(payload, _APP)} to {path_str(dest)}", _KEYWORD
        case Up(path, body):
            s, level = f"up {path_str(path)} {expr_str(body, _APP)}", _KEYWORD
        case Down(path, body):
            s, level = f"down {path_str(path)} {expr_str(body, _APP)}", _KEYWORD
        case App(fn, arg):
            s, level = f"{expr_str(fn, _APP)} {expr_str(arg, _UNARY)}", _APP
        case Inl(inner):
            s, level = f"inl {expr_str(inner, _UNARY)}", _UNARY
        case Inr(inner):
            s, level = f"inr {expr_str(inner, _UNARY)}", _UNARY
        case Fst(inner):
            s, level = f"fst {expr_str(inner, _UNARY)}", _UNARY
        case Snd(inner):
            s, level = f"snd {expr_str(inner, _UNARY)}", _UNARY
        case Absurd(inner):
            s, level = f"absurd {expr_str(inner, _UNARY)}", _UNARY
        case _:
            raise TypeError(f"not an expression: {type(e).__name__}")
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
