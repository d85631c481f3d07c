"""Command-line front end.

    corps check FILE [--topology NAME|FILE] [--derivation]
    corps normalize FILE [--topology NAME|FILE] [--mode comm-free|positive]
                         [--fuel N] [--trace FILE]
    corps project FILE [--topology NAME|FILE] (--agent PATH | --all)
    corps simulate FILE [--topology NAME|FILE] [--schedule rr|random] [--seed S]
                        [--runs N] [--fuel N] [--trace FILE]
    corps ni FILE [--topology NAME|FILE] --input NAME --observe PATH
                  --values V1,V2,... [--fuel N]

Exit codes: 0 success, 1 type or projection error, or a network
`simulate` cannot compare, 2 parse error
(including input that nests deeper than `parser.MAX_NESTING`, a
program or `.topo` file that is not UTF-8, and a `.topo` file that
cannot be read), 3 runtime finding (deadlock, disagreement,
interference; in `simulate` also normalize fuel running out, the
network's fuel running out, or the first run getting stuck), 4 usage
error (including a FILE or `--trace` file that cannot be opened).

Every subcommand runs one prelude and reports the first fault it meets,
in this order: a non-positive `--runs`, then `--fuel`; the file; the
topology; the check, with every error it finds (a program is run only
once it is a proof); then the subcommand's own usage checks; then its run.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys

from . import netsim, nicheck
from .normalize import EvalMode, FuelExhausted, StuckUnexpected, normalize
from .parser import ParseError, parse_expr, parse_path, parse_program
from .printer import expr_str, path_str, type_str
from .projection import ProjectionError, local_str, project, project_network
from .syntax import split_stack
from .topology import TopologyError
from .typecheck import TypeCheckError, check_program, inline_main, resolve_topology

OK, TYPE_ERROR, PARSE_ERROR, FINDING, USAGE = 0, 1, 2, 3, 4


class _Usage(Exception):
    pass


class _NotText(Exception):
    """The program file is not UTF-8 text."""


def _load(path: str):
    if not os.path.exists(path):
        raise _Usage(f"no such file: {path}")
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as err:
        raise _NotText(f"{path}: {err}") from None
    except OSError as err:
        raise _Usage(f"{path}: {err.strerror}") from None
    return parse_program(text, file=path)


def _replay(args, *flags: str) -> str:
    """The `replay:` line that repeats this run: the subcommand on the same
    file with `flags`, and `--topology` when it was given, each argument
    quoted for the shell."""
    if args.topology is not None:
        flags += ("--topology", args.topology)
    return "replay: corps " + shlex.join((args.command, args.file) + flags)


def _split_values(text: str) -> list[str]:
    """The values of `text`, split on commas at parenthesis depth zero.
    Each is padded on the left with blanks to where it starts in `text`,
    so the positions the parser reports count from the start of `text`."""
    parts, depth, start = [], 0, 0
    for i, char in enumerate(text):
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        elif char == "," and depth == 0:
            parts.append(" " * start + text[start:i])
            start = i + 1
    parts.append(" " * start + text[start:])
    return [p for p in parts if p.strip()]


def _open_trace(path: str):
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as err:
        raise _Usage(f"--trace {path}: {err.strerror}") from None


# Each `cmd_*` takes the flags, the checked program, its topology and,
# under `check --derivation`, the derivations (else None).

def cmd_check(args, program, topology, deriv) -> int:
    for node in deriv or ():
        print(node.render())
    print(f"OK : {type_str(program.main_type)}")
    return OK


def cmd_normalize(args, program, topology, deriv) -> int:
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
        with _open_trace(args.trace) as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
    print(expr_str(nf))
    print(f"class: {cls.value} ({steps} steps)")
    return OK


def cmd_project(args, program, topology, deriv) -> int:
    if args.agent is None and not args.all:
        raise _Usage("give --agent PATH or --all")
    if args.agent is not None:
        address = parse_path(args.agent, file="--agent")
        print(local_str(project(program, address, topology)))
        return OK
    network = project_network(program, topology)
    for address in sorted(network.processes):
        print(f"process {path_str(address)}: "
              f"{local_str(network.processes[address])}")
    if network.lambda_wire:
        print("note: a communication payload mentions a function; "
              "this network is excluded from agreement checking",
              file=sys.stderr)
    return OK


def cmd_simulate(args, program, topology, deriv) -> int:
    if program.inputs:
        raise _Usage("program has free inputs; give them values or use `corps ni`")
    if args.schedule == "rr":
        schedules = [netsim.RoundRobin()] * args.runs
    else:
        schedules = [netsim.RandomPolicy(args.seed + i) for i in range(args.runs)]
    try:
        report = netsim.epp_agreement(program, schedules, topology, fuel=args.fuel)
        first = report.first
        if isinstance(first, netsim.NetError):
            raise first
    except netsim.PreconditionError as err:
        print(f"not comparable: {err}", file=sys.stderr)
        return TYPE_ERROR
    except netsim.DeadlockError as err:
        print(err, file=sys.stderr)
        print(_replay(args, "--schedule", args.schedule, "--seed", str(args.seed)),
              file=sys.stderr)
        return FINDING
    except FuelExhausted as err:
        print(f"fuel exhausted after {err.steps} steps of normalizing the choreography",
              file=sys.stderr)
        return FINDING
    except (netsim.NetFuelExhausted, netsim.NetStuck) as err:
        print(f"run failed: {err}", file=sys.stderr)
        return FINDING
    if args.trace:
        with _open_trace(args.trace) as handle:
            # The first line says what produced the run, so the file alone
            # replays it.
            seed = args.seed if args.schedule == "random" else None
            header = {"policy": args.schedule, "seed": seed, "fuel": args.fuel}
            if args.topology is not None:
                header["topology"] = args.topology
            handle.write(json.dumps(header) + "\n")
            for event in first.trace:
                handle.write(json.dumps(event.to_json_dict()) + "\n")
    for address in sorted(first.values):
        print(f"{path_str(address)}: {local_str(first.values[address])}")
    if report.agree:
        print(f"AGREE ({len(schedules)} runs; expected {report.expected} at "
              f"{path_str(split_stack(program.main_type)[0])})")
        return OK
    print("DISAGREE", file=sys.stderr)
    for policy, (label, outcome) in zip(schedules, report.outcomes):
        if outcome == "agree":
            continue
        print(f"  {label}: {outcome}", file=sys.stderr)
        flags = (("--schedule", "random", "--seed", str(policy.seed))
                 if isinstance(policy, netsim.RandomPolicy) else ("--schedule", "rr"))
        print(f"  {_replay(args, *flags)}", file=sys.stderr)
    return FINDING


def cmd_ni(args, program, topology, deriv) -> int:
    values = tuple(parse_expr(text, file="--values") for text in _split_values(args.values))
    cfg = nicheck.NIConfig(args.input, parse_path(args.observe, file="--observe"), values)
    try:
        verdict = nicheck.ni_check(program, cfg, topology, fuel=args.fuel)
    except ValueError as err:
        raise _Usage(str(err))
    print(verdict)
    if verdict.kind == "InterferenceFound":
        witness = verdict.witness
        pair = f"{expr_str(witness.value_a)},{expr_str(witness.value_b)}"
        print(_replay(args, "--input", args.input, "--observe", args.observe,
                      "--values", pair), file=sys.stderr)
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
        for name in ("runs", "fuel"):
            if getattr(args, name, 1) <= 0:
                raise _Usage(f"--{name} must be positive")
        program = _load(args.file)
        topology = resolve_topology(program, override=args.topology,
                                    base_dir=os.path.dirname(os.path.abspath(args.file)))
        deriv = [] if getattr(args, "derivation", False) else None
        errors = check_program(program, topology, deriv=deriv)
        for err in errors:
            print(err, file=sys.stderr)
        if errors:
            return TYPE_ERROR
        return args.fn(args, program, topology, deriv)
    except _Usage as err:
        print(f"usage error: {err}", file=sys.stderr)
        return USAGE
    except (ParseError, _NotText) as err:
        print(err, file=sys.stderr)
        return PARSE_ERROR
    except TopologyError as err:
        print(f"topology error: {err}", file=sys.stderr)
        return PARSE_ERROR
    except TypeCheckError as err:
        print(err, file=sys.stderr)
        return TYPE_ERROR
    except ProjectionError as err:
        print(f"not projectable: {err}", file=sys.stderr)
        return TYPE_ERROR
    except OSError as err:
        print(err, file=sys.stderr)
        return USAGE
    except RecursionError:
        # Last resort: the parser bounds nesting, operator chains
        # included; this catches any stage that still runs out of stack.
        print("input nests too deeply", file=sys.stderr)
        return PARSE_ERROR


if __name__ == "__main__":
    sys.exit(main())
