"""What `import corps` does, seen from a fresh interpreter.

`dataclass()` calls `inspect.signature` to invent a docstring for a class
that has none; the records of `corps.syntax` are not dataclasses, and every
dataclass under `src/corps` has a docstring, so the import makes no such
call.  The import still loads every module of the package, so no import
work is deferred to a first call.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import inspect, json, sys

calls = []
signature = inspect.signature


def counting(*args, **kwargs):
    calls.append(args)
    return signature(*args, **kwargs)


inspect.signature = counting
import corps
print(json.dumps({
    "signature_calls": [repr(args) for args in calls],
    "modules": sorted(name for name in sys.modules
                      if name == "corps" or name.startswith("corps.")),
}))
"""


def test_import_calls_no_signature_and_loads_every_module():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=SRC.parent, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    seen = json.loads(proc.stdout)
    assert seen["signature_calls"] == []
    assert seen["modules"] == [
        "corps", "corps.netsim", "corps.nicheck", "corps.normalize", "corps.parser",
        "corps.printer", "corps.projection", "corps.syntax", "corps.topology",
        "corps.typecheck",
    ]
