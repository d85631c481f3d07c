"""Layer tracing from outside the library.

`Tracer.install()` replaces each layer's public function with a wrapper
in every loaded `corps.*` module that holds it, so calls between library
modules are caught as well as the benchmark's own.  Each call records a
span (name, start, end, parent, op id) in memory, plus the work counts
readable at that boundary.  `uninstall()` restores the originals.

A span's self time is its duration minus the time of the spans nested in
it, so a layer's busy time never double-counts the layers it calls.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# span name -> (home module, function name)
LAYER_FUNCTIONS = {
    "parser": ("corps.parser", "parse_program"),
    "typecheck.check": ("corps.typecheck", "check_program"),
    "typecheck.inline": ("corps.typecheck", "inline_main"),
    "normalize": ("corps.normalize", "normalize"),
    "projection": ("corps.projection", "project_network"),
    "netsim.run": ("corps.netsim", "run"),
    "netsim.agreement": ("corps.netsim", "epp_agreement"),
}

LAYERS = ("parser", "typecheck", "normalize", "projection", "netsim")


def _count_parse(counts, args, result):
    counts["parser.bytes"] += len(args[0])


def _count_normalize(counts, args, result):
    counts["normalize.steps"] += result[2]


def _count_projection(counts, args, result):
    counts["projection.processes"] += len(result.processes)


def _count_run(counts, args, result):
    trace = getattr(result, "trace", ())
    counts["netsim.ticks"] += getattr(result, "steps", 0)
    counts["netsim.trace_events"] += len(trace)
    counts["netsim.blocked_polls"] += sum(
        1 for event in trace if getattr(event, "action", None) == "Blocked")


COUNTERS = {
    "parser": _count_parse,
    "normalize": _count_normalize,
    "projection": _count_projection,
    "netsim.run": _count_run,
}


class Tracer:
    def __init__(self):
        # (name, start, end, parent index or -1, op id, self seconds)
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = {name: 0 for name in LAYER_FUNCTIONS}
        self.self_s: dict[str, float] = {name: 0.0 for name in LAYER_FUNCTIONS}
        self.counts: dict[str, int] = {
            "parser.bytes": 0, "normalize.steps": 0, "projection.processes": 0,
            "netsim.ticks": 0, "netsim.trace_events": 0, "netsim.blocked_polls": 0,
        }
        self.op_s = 0.0
        self.op_id = -1
        self._stack: list[list] = []  # [span index, start, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def _enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([len(self.spans), time.perf_counter(), 0.0])
        self.spans.append((name, 0.0, 0.0, parent, self.op_id, 0.0))

    def _exit(self) -> tuple[float, float]:
        """Close the innermost span; returns (duration, self time)."""
        end = time.perf_counter()
        index, start, child = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        name, _, _, parent, op_id, _ = self.spans[index]
        self.spans[index] = (name, start, end, parent, op_id, duration - child)
        return duration, duration - child

    def op(self, fn, *args):
        """Run one benchmark op inside a root span with a fresh op id."""
        self.op_id += 1
        self._enter("op")
        try:
            return fn(*args)
        finally:
            self.op_s += self._exit()[0]

    def _wrap(self, name: str, original):
        counter = COUNTERS.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.self_s[name] += self._exit()[1]
                self.calls[name] += 1
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return wrapper

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        modules = [module for mod_name, module in list(sys.modules.items())
                   if mod_name == "corps" or mod_name.startswith("corps.")]
        for name, (home, attr) in LAYER_FUNCTIONS.items():
            original = getattr(sys.modules[home], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------------

    def layer_busy(self, layer: str) -> float:
        """Self time of every span whose name starts with `layer`."""
        return sum(seconds for name, seconds in self.self_s.items()
                   if name.split(".", 1)[0] == layer)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op_id, own in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "op": op_id, "self": own}) + "\n")
