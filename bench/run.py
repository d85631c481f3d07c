"""Closed-loop pipeline benchmark for Corps.

    python3 bench/run.py --workload check|chain|fanout|agree --seed N \
        --seconds S --trace 0|1

Run from the repository root.  One process runs one workload.  Set-up
imports the library in fresh interpreters and builds the inputs from the
seed, repeatedly, to time it; `setup_s` is the median import time plus
the median build time.  Then the run feeds one input at a time through
the library and waits for each verdict before sending the next, with no
threads.  Every verdict is checked against the answer known from how its
input was built.

With `--trace 0` it prints the end-to-end metrics.  With `--trace 1` it
runs the same ops once untraced and once with every layer wrapped
(see spans.py), prints the per-layer metrics, and writes the spans to
bench/out/.  Per-layer figures are per traced pass over the inputs.  The
last line of standard output is the result object; the line before it
records the run's details (interpreter, nproc, sample counts, error
rate, inputs excluded at set-up, unscaled throughput).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import progen
from spans import LAYERS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_MIN_SAMPLES = 3
SETUP_MIN_SECONDS = 0.5
SETUP_BATCH_S = 0.05
IMPORT_SAMPLES = 5

# On a shared host the speed of this process drifts by a third or more
# over tens of seconds as other tenants come and go, which swamps any
# change worth measuring.  A fixed probe (`_probe`), run between chunks
# of ops, tracks that drift: op and set-up times are scaled by
# PROBE_REF_S / probe time, i.e. to the host's speed when the probe
# takes PROBE_REF_S, its usual time on the 2-vCPU Python 3.11.7 machine
# the bounds were set on.  Unscaled throughput goes to the details line.
PROBE_EVERY_S = 0.08
PROBE_REF_S = 0.0032


def _probe() -> float:
    """Seconds that generating six fixed programs takes right now.

    Generation is the benchmark's own code, so no change to the library
    moves it, and like the library it is allocation-heavy recursive
    Python, so it slows down with the host much as the ops do.  The
    garbage collector is off while it runs, so the size of the library's
    heap does not change its cost either.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for seed in range(6):
            progen.ProgramGen(seed, "choreo").gen_program()
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


def _import_s() -> float:
    """Seconds to import the library in a fresh interpreter (median).

    Each sample runs `python -X importtime -c "import corps"` and reads the
    cumulative time of `corps`, which leaves out interpreter start-up.
    Scaled by the speed probe like every other time.
    """
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    samples = []
    for _ in range(IMPORT_SAMPLES):
        before = _probe()
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import corps"],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        micros = next(int(line.split("|")[1]) for line in proc.stderr.splitlines()
                      if line.startswith("import time:") and line.split("|")[2].strip() == "corps")
        samples.append(micros * 1e-6 * 2 * PROBE_REF_S / (before + _probe()))
    return statistics.median(samples)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; `values` must be sorted."""
    return values[max(1, math.ceil(q * len(values))) - 1]


def run_setup(workload, seed: int):
    """Time set-up in at least SETUP_MIN_SAMPLES batches and SETUP_MIN_SECONDS.

    A batch repeats set-up until it has run SETUP_BATCH_S, so a set-up of
    a millisecond is timed as precisely as one of seconds.  Returns what
    set-up built (inputs and exclusion counts), the median set-up time
    (scaled by the speed probe), and whether every batch built the same.
    """
    samples, spent, first, same = [], 0.0, None, True
    while len(samples) < SETUP_MIN_SAMPLES or spent < SETUP_MIN_SECONDS:
        before = _probe()
        started = time.perf_counter()
        count = 0
        while not count or time.perf_counter() - started < SETUP_BATCH_S:
            built = workload.setup(seed, workload.size)
            count += 1
        elapsed = time.perf_counter() - started
        samples.append(elapsed / count * 2 * PROBE_REF_S / (before + _probe()))
        spent += elapsed
        first = first or built
        same = same and built == first
    return first, statistics.median(samples), same


class Loop:
    """Whole passes over the inputs, closed loop, until the time is spent.

    `passes` holds each op's time scaled by the speed probe, `raw_passes`
    the same times unscaled; `wall` is the unscaled time of all passes.
    """

    def __init__(self, workload, items):
        self.workload = workload
        self.items = items
        self.passes: list[list[float]] = []  # per pass, seconds per op
        self.raw_passes: list[list[float]] = []
        self.verdicts: list = []  # of the latest pass
        self.failed = 0
        self.first_error = None
        self.wall = 0.0
        self.probes: list[float] = []

    def _one(self, item, call):
        try:
            return call(self.workload.op, item)
        except Exception as err:  # a raising op is a missing verdict
            if self.first_error is None:
                self.first_error = f"{type(err).__name__}: {err}"[:300]
            return f"raised {type(err).__name__}"

    def run_pass(self, call=lambda op, item: op(item)) -> float:
        clock = time.perf_counter
        times, raw, chunk, self.verdicts = [], [], [], []
        before = _probe()
        for index, item in enumerate(self.items):
            started = clock()
            verdict = self._one(item, call)
            chunk.append(clock() - started)
            self.verdicts.append(verdict)
            if not self.workload.correct(item, verdict):
                self.failed += 1
            if sum(chunk) >= PROBE_EVERY_S or index == len(self.items) - 1:
                after = _probe()
                self.probes.append(after)
                scale = 2 * PROBE_REF_S / (before + after)
                times.extend(t * scale for t in chunk)
                raw.extend(chunk)
                chunk, before = [], after
        self.passes.append(times)
        self.raw_passes.append(raw)
        self.wall += sum(raw)
        return sum(raw)

    def run_for(self, seconds: float, min_passes: int = 3) -> None:
        deadline = time.perf_counter() + seconds
        while True:
            elapsed = self.run_pass()
            if len(self.passes) >= min_passes and time.perf_counter() + elapsed > deadline:
                return

    @property
    def samples(self) -> list[float]:
        return [t for times in self.passes for t in times]


def _typical(passes: list[list[float]]) -> list[float]:
    """Each input's median time over the passes, sorted."""
    return sorted(statistics.median(times) for times in zip(*passes))


def end_to_end(loop: Loop, setup_s: float) -> dict:
    """Throughput of a typical pass and per-op latency percentiles.

    Each input's time is its median over the passes, so one disturbed
    pass does not move it.  Throughput is inputs per second of those
    times summed; the percentiles are over them, one sample per input.
    All times are scaled by the speed probe.
    """
    typical = _typical(loop.passes)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(typical) / sum(typical), "1/s"),
        "op_ms.p50": (_percentile(typical, 0.50) * 1e3, "ms"),
        "op_ms.p90": (_percentile(typical, 0.90) * 1e3, "ms"),
        "peak_rss_mb": (peak_kib / 1024, "MiB"),
    }


def per_layer(tracer: Tracer, passes: int, traced_s: float, untraced_s: float) -> dict:
    """Layer figures per traced pass over the inputs.

    Every pass runs the same inputs, so counts per pass depend only on
    the inputs, and times per pass do not grow with the run's length.
    """
    busy = {layer: tracer.layer_busy(layer) / passes for layer in LAYERS}
    self_s = {name: seconds / passes for name, seconds in tracer.self_s.items()}
    calls = {name: count / passes for name, count in tracer.calls.items()}
    counts = {name: count / passes for name, count in tracer.counts.items()}
    ticks, blocked = counts["netsim.ticks"], counts["netsim.blocked_polls"]

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    metrics = {
        "parser.busy_s": (busy["parser"], "s"),
        "parser.calls": (calls["parser"], "count"),
        "parser.kb_per_s": (ratio(counts["parser.bytes"] / 1024, busy["parser"]), "KiB/s"),
        "typecheck.busy_s": (busy["typecheck"], "s"),
        "typecheck.calls": (calls["typecheck.check"] + calls["typecheck.inline"], "count"),
        "normalize.busy_s": (busy["normalize"], "s"),
        "normalize.steps": (counts["normalize.steps"], "count"),
        "normalize.us_per_step": (ratio(busy["normalize"], counts["normalize.steps"], 1e6), "us"),
        "projection.busy_s": (busy["projection"], "s"),
        "projection.processes": (counts["projection.processes"], "count"),
        "projection.ms_per_process": (
            ratio(busy["projection"], counts["projection.processes"], 1e3), "ms"),
        "netsim.run.busy_s": (self_s["netsim.run"], "s"),
        "netsim.runs": (calls["netsim.run"], "count"),
        "netsim.ticks": (ticks, "count"),
        "netsim.us_per_tick": (ratio(self_s["netsim.run"], ticks, 1e6), "us"),
        "netsim.blocked_polls": (blocked, "count"),
        "netsim.useful_ratio": (ratio(ticks, ticks + blocked), "ratio"),
        "netsim.trace_events": (counts["netsim.trace_events"], "count"),
        "netsim.agreement.self_s": (self_s["netsim.agreement"], "s"),
        "trace.overhead": (ratio(traced_s, untraced_s), "ratio"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.share"] = (ratio(tracer.layer_busy(layer), tracer.op_s), "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    import_s = _import_s()
    (items, excluded), inputs_s, setup_ok = run_setup(workload, args.seed)
    setup_ok = setup_ok and len(items) == workload.size
    gc.collect()

    loop = Loop(workload, items)
    matches = True
    if not args.trace:
        loop.run_for(args.seconds)
        metrics = end_to_end(loop, import_s + inputs_s)
        failed, attempted = loop.failed, len(loop.samples)
        first_error = loop.first_error
    else:
        traced = Loop(workload, items)
        tracer = Tracer()
        # Alternate untraced and traced passes over the same inputs, so
        # both see the same machine conditions; their verdicts must match.
        deadline = time.perf_counter() + args.seconds
        while True:
            elapsed = loop.run_pass()
            with tracer:
                elapsed += traced.run_pass(tracer.op)
            matches = matches and traced.verdicts == loop.verdicts
            if time.perf_counter() + elapsed > deadline:
                break
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = per_layer(tracer, len(traced.passes),
                            sum(traced.samples), sum(loop.samples))
        failed = loop.failed + traced.failed
        attempted = len(loop.samples) + len(traced.samples)
        first_error = loop.first_error or traced.first_error

    typical_raw = _typical(loop.raw_passes)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "inputs": len(items), "excluded": excluded, "setup_ok": setup_ok,
        "import_s": import_s, "inputs_s": inputs_s,
        "traced_matches_untraced": matches, "op_samples": len(loop.samples),
        "latency_samples": len(items),
        "pass_s": [round(sum(times), 3) for times in loop.raw_passes],
        "unscaled_ops_per_s": len(typical_raw) / sum(typical_raw),
        "host_slowdown": statistics.median(loop.probes) / PROBE_REF_S,
        "error_rate": failed / attempted, "first_error": first_error,
    }))
    result = {
        "correct": failed == 0 and setup_ok and matches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
