"""Lists the agree pool's programs on which epp_agreement does not agree.

    python3 bench/known_disagreements.py

Run from the repository root.  It runs every program of the full agree
pool through epp_agreement on the program's own schedules and writes the
ones that do not agree, with the failing outcomes, to
bench/agree_known_disagreements.json.  The agree workload leaves exactly
these programs out at set-up; any other disagreement fails its timed run.

Each listed program shows a library defect: the generator builds it well
typed and projectable, so by the paper's EPP theorem every schedule
should agree.  Rerun this after a change that fixes some of them, so the
workload takes them back in.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import corps  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    pool = workloads.agree_pool(workloads.AGREE_PROGRAMS)
    listed = []
    for item in pool:
        try:
            verdict = workloads.op_agree(item)
        except (corps.ProjectionError, corps.netsim.PreconditionError):
            continue
        if verdict != item.expect:
            preset = workloads.AGREE_PRESETS[item.index % len(workloads.AGREE_PRESETS)]
            failing = sorted({outcome for outcome in verdict if outcome != "agree"})
            listed.append({"index": item.index, "preset": preset,
                           "source": item.source, "outcomes": failing})
    text = json.dumps(listed, indent=1) + "\n"
    workloads.KNOWN_DISAGREEMENTS_FILE.write_text(text, encoding="utf-8")
    print(f"{len(listed)} of {len(pool)} pool programs disagree; "
          f"wrote {workloads.KNOWN_DISAGREEMENTS_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
