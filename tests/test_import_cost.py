"""What `import corps` does, seen from a fresh interpreter.

The package builds its records itself (`syntax._frozen`) and has no
dataclasses, so the import loads neither `dataclasses` nor `inspect`
(with `ast`, `dis` and `tokenize` behind it), and makes no
`inspect.signature` call.  The import still loads every module of the
package, so no import work is deferred to a first call.
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

# The modules `import corps` loads, in an interpreter that has loaded
# nothing else yet.
NEW_MODULES = """
import sys

before = set(sys.modules)
import corps
new = sorted(set(sys.modules) - before)
import json
print(json.dumps(new))
"""


def fresh(script: str):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", script], cwd=SRC.parent, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout)


def test_import_calls_no_signature_and_loads_every_module():
    seen = fresh(SCRIPT)
    assert seen["signature_calls"] == []
    assert seen["modules"] == [
        "corps", "corps.netsim", "corps.nicheck", "corps.normalize", "corps.parser",
        "corps.printer", "corps.projection", "corps.syntax", "corps.topology",
        "corps.typecheck",
    ]


def test_import_loads_neither_dataclasses_nor_inspect():
    new = fresh(NEW_MODULES)
    assert "corps.syntax" in new
    assert "dataclasses" not in new and "inspect" not in new
