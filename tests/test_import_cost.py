"""What `import corps` does, seen from a fresh interpreter.

The package builds its records itself (`syntax._frozen`) and has no
dataclasses, so the import loads neither `dataclasses` nor `inspect`
(with `ast`, `dis` and `tokenize` behind it), and makes no
`inspect.signature` call.  The import still loads every module of the
package, so no import work is deferred to a first call.

Compiling is most of what a record class costs at import, so a record
class compiles nothing: the import compiles one source per method shape
that its records use, and a count of those sources pinned here shows a
compile per class coming back (there were 43, one per class).
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

# The source strings the package's code passes to `exec` or `compile`
# while `import corps` runs (the import system compiles the modules
# themselves from bytes, and `typing` its string annotations).
SOURCES = """
import builtins, json, sys

sources = []
for name in ("exec", "compile"):
    def counting(source, *args, real=getattr(builtins, name), **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if isinstance(source, str) and caller.split(".")[0] == "corps":
            sources.append(source)
        return real(source, *args, **kwargs)
    setattr(builtins, name, counting)
import corps
print(json.dumps(sources))
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


def test_import_compiles_one_source_per_record_method_shape():
    sources = fresh(SOURCES)
    assert len(sources) == len(set(sources)) == 20
    assert all(source.startswith(("def __init__(", "def __eq__(", "def __hash__("))
               for source in sources)
