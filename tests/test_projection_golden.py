"""Projection golden snapshots.

`projection_golden.json`: every address's local process, or the
projection error, for a fixed set of generated projectable programs.

`projection_errors_golden.json`: the error path.  For generated programs
that need not be projectable, the `project_network` result or its error
(class and message), and `project` at the root, at the viewpoint of every
case (the owner of its scrutinee), at one address outside every universe
and at every address of the universe.

Any change to projection or to the term machinery under it must leave
this output byte for byte the same.  Regenerate both snapshots (only when
a change of projection output is intended) with

    PYTHONPATH=src:bench python tests/test_projection_golden.py
"""

import json
import os

from corps import syntax as S
from corps.printer import path_str
from corps.projection import (
    MergeConflict, ProjectionError, _prefix_closure, _project_program, local_str,
    project, project_network,
)
from corps.topology import load_preset
from corps.typecheck import inline_main
import genprog

HERE = os.path.dirname(__file__)
SNAPSHOT = os.path.join(HERE, "projection_golden.json")
ERROR_SNAPSHOT = os.path.join(HERE, "projection_errors_golden.json")
PRESETS = ("choreo", "siblings", "doxastic")
SEEDS = range(200)
OUTSIDE = ("Z",)  # no preset has an agent Z


def _project(seed: int, preset: str):
    topo = load_preset(preset)
    program = genprog.program(seed, preset, projectable=True)
    try:
        network = project_network(program, topo)
    except (MergeConflict, ProjectionError) as err:
        return type(err).__name__
    return {path_str(address): local_str(process)
            for address, process in sorted(network.processes.items())}


def snapshot() -> dict:
    return {f"{preset}/{seed}": _project(seed, preset)
            for preset in PRESETS for seed in SEEDS}


def case_viewpoints(e: S.Expr) -> set[S.Path]:
    """The viewpoint of every case in `e`, which owns its scrutinee."""
    out: set[S.Path] = set()
    stack = [(e, ())]
    while stack:
        e, at = stack.pop()
        if isinstance(e, S.Case):
            out.add(at)
        if isinstance(e, S.Located):
            stack.append((e.body, at + (e.agent,)))
        elif isinstance(e, S.ModalLet):
            stack.append((e.bound, at + e.open_path))
            stack.append((e.body, at))
        else:
            stack.extend((child, at) for child in S.children(e))
    return out


def _error(err: Exception) -> list[str]:
    return [type(err).__name__, str(err)]


def _project_errors(seed: int, preset: str) -> dict:
    topo = load_preset(preset)
    program = genprog.program(seed, preset)
    assert not program.inputs
    try:
        network = project_network(program, topo)
        whole = {path_str(address): local_str(process)
                 for address, process in sorted(network.processes.items())}
    except (MergeConflict, ProjectionError) as err:
        whole = _error(err)
    e, _ = inline_main(program)
    at = {}
    for address in sorted({(), OUTSIDE} | case_viewpoints(e)):
        try:
            at[path_str(address)] = local_str(project(program, address, topo))
        except (MergeConflict, ProjectionError) as err:
            at[path_str(address)] = _error(err)
    # The rest of the universe, read from one walk as `project` reads it.
    (generic, sparse), participants, _ = _project_program(program, topo)
    result_address, _ = S.split_stack(program.main_type)
    for address in _prefix_closure(participants | {result_address}):
        local = sparse.get(address, generic)
        at.setdefault(path_str(address), _error(local)
                      if isinstance(local, ProjectionError) else local_str(local))
    return {"network": whole, "project": at}


def error_snapshot() -> dict:
    return {f"{preset}/{seed}": _project_errors(seed, preset)
            for preset in PRESETS for seed in SEEDS}


def _compare(got: dict, path: str) -> None:
    with open(path) as f:
        expected = json.load(f)
    assert got.keys() == expected.keys()
    diffs = [key for key in expected if got[key] != expected[key]]
    assert not diffs, (len(diffs), diffs[:3], [got[k] for k in diffs[:3]])


def test_projection_matches_golden_snapshot():
    _compare(snapshot(), SNAPSHOT)


def test_projection_errors_match_golden_snapshot():
    _compare(error_snapshot(), ERROR_SNAPSHOT)


def _write(path: str, data: dict) -> None:
    with open(path, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    _write(SNAPSHOT, snapshot())
    _write(ERROR_SNAPSHOT, error_snapshot())
