"""Projection golden snapshot: every address's local process, or the
projection error, for a fixed set of generated projectable programs.

Any change to projection or to the term machinery under it must leave
this output byte for byte the same.  Regenerate the snapshot (only when
a change of projection output is intended) with

    PYTHONPATH=src python tests/test_projection_golden.py
"""

import json
import os

from corps.printer import path_str
from corps.projection import MergeConflict, ProjectionError, local_str, project_network
from corps.topology import load_preset
from genprog import ProgramGen

SNAPSHOT = os.path.join(os.path.dirname(__file__), "projection_golden.json")
PRESETS = ("choreo", "siblings", "doxastic")
SEEDS = range(200)


def _project(seed: int, preset: str):
    topo = load_preset(preset)
    program = ProgramGen(seed, topo, projectable=True).gen_program()
    try:
        network = project_network(program, topo)
    except (MergeConflict, ProjectionError) as err:
        return type(err).__name__
    return {path_str(address): local_str(process)
            for address, process in sorted(network.processes.items())}


def snapshot() -> dict:
    return {f"{preset}/{seed}": _project(seed, preset)
            for preset in PRESETS for seed in SEEDS}


def test_projection_matches_golden_snapshot():
    with open(SNAPSHOT) as f:
        expected = json.load(f)
    got = snapshot()
    assert got.keys() == expected.keys()
    diffs = [key for key in expected if got[key] != expected[key]]
    assert not diffs, (len(diffs), diffs[:3], [got[k] for k in diffs[:3]])


if __name__ == "__main__":
    with open(SNAPSHOT, "w") as f:
        json.dump(snapshot(), f, indent=1, sort_keys=True)
        f.write("\n")
