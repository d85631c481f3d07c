"""Command-line front end.

    corps check FILE [--topology NAME|FILE] [--derivation]
    corps normalize FILE [--mode comm-free|positive] [--fuel N] [--trace FILE]
    corps project FILE (--agent PATH | --all) [--emit]
    corps simulate FILE [--schedule rr|random] [--seed S] [--runs N] [--trace FILE]
    corps ni FILE --input NAME --observe PATH --values V1,V2,... [--trials N] [--seed S]

Exit codes: 0 success, 1 type or projection error, 2 parse error or
input nested too deeply, 3 runtime finding (deadlock, disagreement,
interference), 4 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import netsim, nicheck
from .normalize import EvalMode, FuelExhausted, StuckUnexpected, normalize
from .parser import ParseError, parse_expr, parse_path, parse_program
from .printer import expr_str, path_str, type_str
from .projection import MergeConflict, ProjectionError, local_str, project, project_network
from .syntax import ctx_bind
from .topology import TopologyError
from .typecheck import (
    Checker, Derivation, TypeCheckError, check_program, inline_main,
    resolve_topology,
)

OK, TYPE_ERROR, PARSE_ERROR, FINDING, USAGE = 0, 1, 2, 3, 4


class _Usage(Exception):
    pass


def _load(path: str):
    if not os.path.exists(path):
        raise _Usage(f"no such file: {path}")
    with open(path, encoding="utf-8") as handle:
        return parse_program(handle.read(), file=path)


def _topology(program, args):
    return resolve_topology(program, override=args.topology,
                            base_dir=os.path.dirname(os.path.abspath(args.file)))


def _checked(program, topology):
    errors = check_program(program, topology)
    if errors:
        for err in errors:
            print(err, file=sys.stderr)
    return errors


def _split_values(text: str) -> list[str]:
    # Split on commas at parenthesis depth zero.
    parts, depth, current = [], 0, []
    for char in text:
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        if char == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    parts.append("".join(current))
    return [p.strip() for p in parts if p.strip()]


def cmd_check(args) -> int:
    program = _load(args.file)
    topology = _topology(program, args)
    if args.derivation:
        checker = Checker(topology)
        deriv: list[Derivation] = []
        try:
            ctx = ()
            for name, ty in program.inputs:
                ctx = ctx_bind(ctx, name, ty, ())
            for name, ty, body in program.defs:
                checker.check(ctx, body, ty, deriv)
                ctx = ctx_bind(ctx, name, ty, ())
            checker.check(ctx, program.main_expr, program.main_type, deriv)
        except TypeCheckError as err:
            print(err, file=sys.stderr)
            return TYPE_ERROR
        for node in deriv:
            print(node.render())
        print(f"OK : {type_str(program.main_type)}")
        return OK
    if _checked(program, topology):
        return TYPE_ERROR
    print(f"OK : {type_str(program.main_type)}")
    return OK


def cmd_normalize(args) -> int:
    if args.fuel <= 0:
        raise _Usage("--fuel must be positive")
    program = _load(args.file)
    topology = _topology(program, args)
    if _checked(program, topology):
        return TYPE_ERROR
    if program.inputs:
        raise _Usage("program has free inputs; normalize needs a closed program")
    mode = EvalMode.COMM_FREE if args.mode == "comm-free" else EvalMode.POSITIVE_COMM
    expr, _ = inline_main(program)
    records = []

    def on_step(index, rule, span):
        records.append({"index": index, "rule": rule,
                        "redex": str(span) if span else None})

    try:
        nf, cls, steps = normalize(mode, expr, args.fuel, on_step)
    except FuelExhausted as err:
        print(f"fuel exhausted after {err.steps} steps", file=sys.stderr)
        return FINDING
    except StuckUnexpected as err:
        print(f"internal soundness violation: stuck at {expr_str(err.term)}",
              file=sys.stderr)
        return FINDING
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
    print(expr_str(nf))
    print(f"class: {cls.value} ({steps} steps)")
    return OK


def cmd_project(args) -> int:
    program = _load(args.file)
    topology = _topology(program, args)
    if _checked(program, topology):
        return TYPE_ERROR
    if args.agent is None and not args.all and not args.emit:
        raise _Usage("give --agent PATH, --all, or --emit")
    try:
        if args.agent is not None:
            address = parse_path(args.agent)
            print(local_str(project(program, address, topology)))
        else:
            network = project_network(program, topology)
            for address in sorted(network.processes):
                print(f"process {path_str(address)}: "
                      f"{local_str(network.processes[address])}")
            if network.lambda_wire:
                print("note: a communication payload mentions a function; "
                      "this network is excluded from agreement checking",
                      file=sys.stderr)
    except (MergeConflict, ProjectionError) as err:
        print(f"not projectable: {err}", file=sys.stderr)
        return TYPE_ERROR
    return OK


def cmd_simulate(args) -> int:
    if args.runs <= 0:
        raise _Usage("--runs must be positive")
    program = _load(args.file)
    topology = _topology(program, args)
    if _checked(program, topology):
        return TYPE_ERROR
    if program.inputs:
        raise _Usage("program has free inputs; give them values or use `corps ni`")
    if args.schedule == "rr":
        schedules = [netsim.RoundRobin()] * args.runs
    else:
        schedules = [netsim.RandomPolicy(args.seed + i) for i in range(args.runs)]
    try:
        report = netsim.epp_agreement(program, schedules, topology, fuel=args.fuel)
        network = project_network(program, topology)
        first = netsim.run(network, schedules[0], args.fuel)
    except (MergeConflict, ProjectionError) as err:
        print(f"not projectable: {err}", file=sys.stderr)
        return TYPE_ERROR
    except netsim.PreconditionError as err:
        raise _Usage(str(err))
    except netsim.DeadlockError as err:
        print(err, file=sys.stderr)
        print(f"replay: corps simulate {args.file} --schedule {args.schedule} "
              f"--seed {args.seed}", file=sys.stderr)
        return FINDING
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as handle:
            for event in first.trace:
                handle.write(json.dumps(event.to_json_dict()) + "\n")
    for address in sorted(first.values):
        print(f"{path_str(address)}: {local_str(first.values[address])}")
    if report.agree:
        print(f"AGREE ({len(schedules)} runs; expected {report.expected} at "
              f"{path_str(network.result_address)})")
        return OK
    print("DISAGREE", file=sys.stderr)
    for label, outcome in report.outcomes:
        if outcome == "agree":
            continue
        print(f"  {label}: {outcome}", file=sys.stderr)
        if label.startswith("random"):
            replay = (f"corps simulate {args.file} --schedule random "
                      f"--seed {label.split(':')[-1]}")
        else:
            replay = f"corps simulate {args.file} --schedule rr"
        print(f"  replay: {replay}", file=sys.stderr)
    return FINDING


def cmd_ni(args) -> int:
    program = _load(args.file)
    topology = _topology(program, args)
    if _checked(program, topology):
        return TYPE_ERROR
    values = tuple(parse_expr(text) for text in _split_values(args.values))
    cfg = nicheck.NIConfig(args.input, parse_path(args.observe), values,
                           trials=args.trials, seed=args.seed)
    try:
        verdict = nicheck.ni_check(program, cfg, topology, fuel=args.fuel)
    except (MergeConflict, ProjectionError) as err:
        print(f"not projectable: {err}", file=sys.stderr)
        return TYPE_ERROR
    except ValueError as err:
        raise _Usage(str(err))
    print(verdict)
    if verdict.kind == "InterferenceFound":
        witness = verdict.witness
        print(f"replay: corps ni {args.file} --input {args.input} "
              f"--observe {args.observe} "
              f"--values '{expr_str(witness.value_a)},{expr_str(witness.value_b)}' "
              f"--trials {args.trials} --seed {args.seed}", file=sys.stderr)
        return FINDING
    return OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="corps", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file")
        p.add_argument("--topology", default=None,
                       help="preset name or rule file; overrides the program header")

    p = sub.add_parser("check", help="typecheck (= proof-check) a program")
    common(p)
    p.add_argument("--derivation", action="store_true",
                   help="print the typing derivation")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("normalize", help="normalize the main expression")
    common(p)
    p.add_argument("--mode", choices=("comm-free", "positive"), default="positive")
    p.add_argument("--fuel", type=int, default=100_000)
    p.add_argument("--trace", default=None, help="write one JSON record per step")
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("project", help="print projected local processes")
    common(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--agent", default=None, help="address to project, e.g. [A.B]")
    group.add_argument("--all", action="store_true")
    p.add_argument("--emit", action="store_true",
                   help="same as --all; render every process")
    p.set_defaults(fn=cmd_project)

    p = sub.add_parser("simulate", help="run the projected network")
    common(p)
    p.add_argument("--schedule", choices=("rr", "random"), default="rr")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--fuel", type=int, default=100_000)
    p.add_argument("--trace", default=None, help="write trace events as JSON lines")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("ni", help="noninterference check for a declared input")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--observe", required=True, help="observer address, e.g. [A]")
    p.add_argument("--values", required=True,
                   help="comma-separated closed values for the input")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fuel", type=int, default=100_000)
    p.set_defaults(fn=cmd_ni)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return USAGE if err.code not in (0, None) else OK
    try:
        return args.fn(args)
    except _Usage as err:
        print(f"usage error: {err}", file=sys.stderr)
        return USAGE
    except ParseError as err:
        print(err, file=sys.stderr)
        return PARSE_ERROR
    except TopologyError as err:
        print(f"topology error: {err}", file=sys.stderr)
        return PARSE_ERROR
    except TypeCheckError as err:
        print(err, file=sys.stderr)
        return TYPE_ERROR
    except OSError as err:
        print(err, file=sys.stderr)
        return USAGE
    except RecursionError:
        # Last resort: every stage recurses over the syntax tree.
        print("input nests too deeply", file=sys.stderr)
        return PARSE_ERROR


if __name__ == "__main__":
    sys.exit(main())
