"""Benchmark for fotensor: one workload per run, one client thread, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from ./src.
Workloads (see README.md for why each one exists): enumerate, long-words,
check, compile.

With --trace 0 the run sets up, sends requests back to back for S seconds of
request time (stopping at a pass boundary), checks every verdict against the
references in inputs.py, and prints the end-to-end metrics. With --trace 1 it
measures untraced for S/2 seconds, then runs a fixed set of requests with a
span around every call into each layer, writes the spans to .bench_traces/
and prints the per-layer metrics. Request and set-up times are reported at a
reference host speed (see host_scale) and also as measured. The last line of
output is one JSON object.
The exit code is 1 if any verdict was wrong or any request failed, 2 if the
package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_traces"

# Numeric libraries size their thread pools at import; the benchmark is one
# client thread, so every pool gets one thread.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
IMPORT_SAMPLES = 9
SETUP_SAMPLES = 3

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import fotensor, fotensor.cli; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time to import the package and its CLI in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout)


# A shared host's speed can drift by 10-30% in phases of tens of seconds,
# whatever runs on it; a fixed pure-Python loop slows down and speeds up with
# it (measured on a shared 2-vCPU Xeon at 2.1 GHz). Every request time is
# therefore also reported scaled to the speed at which that loop takes
# REFERENCE_LOOP_S, measured (best of three) at least every CALIBRATE_EVERY_S
# of request time. The loop allocates no containers, so it neither triggers
# nor pays for the package's garbage collection.
CALIBRATION_ITERATIONS = 50_000
REFERENCE_LOOP_S = 0.0033  # median on a 2-vCPU Xeon at 2.1 GHz, Python 3.11
CALIBRATE_EVERY_S = 0.25


def host_scale() -> float:
    """Reference loop time over the loop's current time: below 1 while the
    host runs slow."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_ITERATIONS):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return REFERENCE_LOOP_S / best


class Outcome:
    """Times, counts and verdicts of the requests sent. Outputs are judged as
    they arrive, or kept until `judge` when the package is being traced, so
    that the reference checks run outside every span."""

    def __init__(self, workload, fotensor, defer: bool = False):
        self.workload, self.fotensor, self.defer = workload, fotensor, defer
        self.seconds: list[float] = []  # as measured
        self.scaled: list[float] = []  # at the reference host speed
        self.busy = 0.0
        self.calibrating = 0.0  # seconds spent in host_scale
        self.items = self.wrong = self.failed = 0
        self.first_failures: list[Exception] = []
        self._pending: list[tuple] = []

    def add(self, request, output, seconds: float, scale: float) -> None:
        self.seconds.append(seconds)
        self.scaled.append(seconds * scale)
        self.busy += seconds
        if isinstance(output, Exception):
            self.failed += 1
            if len(self.first_failures) < 3:
                self.first_failures.append(output)
            return
        self.items += self.workload.items(request)
        if self.defer:
            self._pending.append((request, output))
        else:
            self.wrong += self.workload.wrong(self.fotensor, request, output)

    def calibrate(self) -> float:
        start = time.perf_counter()
        scale = host_scale()
        self.calibrating += time.perf_counter() - start
        return scale

    def judge(self) -> None:
        for request, output in self._pending:
            self.wrong += self.workload.wrong(self.fotensor, request, output)
        self._pending.clear()


def send(call, requests, outcome: Outcome, pass_length: int, busy_limit=None) -> None:
    """Send requests back to back. With busy_limit, stop at the first pass
    boundary after that many seconds of request time; else send them all."""
    scale, calibrated = outcome.calibrate(), outcome.busy
    for i, request in enumerate(requests):
        if busy_limit is not None and outcome.busy >= busy_limit and i % pass_length == 0:
            break
        if outcome.busy - calibrated >= CALIBRATE_EVERY_S:
            scale, calibrated = outcome.calibrate(), outcome.busy
        start = time.perf_counter()
        try:
            output = call(i, request)
        except Exception as exc:  # a failed request is counted, not fatal
            output = exc
        outcome.add(request, output, time.perf_counter() - start, scale)


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "fotensor").rglob("*.py")))


def report(name, value, unit, note=""):
    print(f"{name} {value:.6g} {unit}{'  (' + note + ')' if note else ''}")


def main(argv=None, tiny=False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fotensor" / "__init__.py").is_file():
        print(f"error: fotensor sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    import numpy

    import fotensor
    import fotensor.cli  # noqa: F401  (the CLI workloads call fotensor.cli.main)

    cls = workloads.WORKLOADS[args.workload]
    sizes = workloads.TINY[args.workload] if tiny else {}
    print(
        f"machine nproc={os.cpu_count()} python={sys.version.split()[0]} "
        f"numpy={numpy.__version__} fotensor={fotensor.__version__}"
    )
    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")

    # Set-up: import (in fresh interpreters), building the seeded workload and
    # one untimed warm-up request; each repeated, scaled to the reference host
    # speed like the request times, medians reported.
    imports = [host_scale() * import_seconds() for _ in range(1 if tiny else IMPORT_SAMPLES)]
    preps, warm_ups = [], []
    for _ in range(SETUP_SAMPLES):
        scale = host_scale()
        start = time.perf_counter()
        workload = cls(args.seed, **sizes)
        warm_ups.append(Outcome(workload, fotensor))
        send(lambda i, r: workload.execute(fotensor, r), [workload.warm_up()], warm_ups[-1], 1)
        preps.append(scale * (time.perf_counter() - start - warm_ups[-1].calibrating))
    imported = statistics.median(imports)
    setup_s = imported + statistics.median(preps)

    untraced = Outcome(workload, fotensor)
    busy_limit = args.seconds / 2 if args.trace else args.seconds
    send(lambda i, r: workload.execute(fotensor, r), workload.requests(), untraced, workload.pass_length, busy_limit)

    traced = Outcome(workload, fotensor, defer=True)
    if args.trace:
        requests = [r for r, _ in zip(workload.requests(), range(workload.trace_requests))]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            loop_start = time.perf_counter_ns()
            send(lambda i, r: tracer.request(i, workload.execute, fotensor, r), requests, traced, 1)
            wall_ns = time.perf_counter_ns() - loop_start - round(traced.calibrating * 1e9)
        finally:
            tracer.uninstall()
        traced.judge()

    outcomes = (*warm_ups, untraced, traced)
    wrong = sum(o.wrong for o in outcomes)
    attempted = sum(len(o.seconds) for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    verdicts = sum(o.items for o in outcomes)
    for o in outcomes:
        for exc in o.first_failures:
            traceback.print_exception(exc, file=sys.stderr)

    busy, scaled_busy = untraced.busy, sum(untraced.scaled)
    items_per_s = untraced.items / scaled_busy
    e2e = {
        "setup_s": (setup_s, "s", f"import {imported:.4f} s, median of {len(imports)}; "
                    f"build and warm-up median of {SETUP_SAMPLES}; at reference speed"),
        "items_per_s": (items_per_s, "1/s", f"{untraced.items} items in {scaled_busy:.3f} s at reference "
                        f"speed; as measured {untraced.items / busy:.6g} 1/s over {busy:.3f} s"),
        "latency_p50_ms": (statistics.median(untraced.scaled) * 1e3, "ms", f"n={len(untraced.seconds)}; "
                           f"as measured {statistics.median(untraced.seconds) * 1e3:.6g} ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", ""),
        "wrong_verdicts": (wrong, "count", f"of {verdicts} verdicts, warm-ups included"),
        "error_rate": (failed / attempted, "ratio", f"{failed} of {attempted} requests raised"),
    }
    for name, (value, unit, note) in e2e.items():
        report(name, value, unit, note)

    if args.trace:
        metrics = tracing.summarize(tracer.spans, fotensor.Variable)
        traced_per_s = traced.items / sum(traced.scaled)
        metrics["trace.wall_ms"] = (wall_ns / 1e6, "ms")
        metrics["trace.overhead_ratio"] = (items_per_s / traced_per_s, "ratio")
        metrics["package.src_lines"] = (src_lines(), "lines")
        self_sum = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_ms"))
        for name, (value, unit) in metrics.items():
            report(name, value, unit)
        print(
            f"trace: {len(tracer.spans)} spans over {len(traced.seconds)} requests; "
            f"self times sum to {self_sum:.3f} ms of {wall_ns / 1e6:.3f} ms wall; "
            f"overhead_ratio = untraced {items_per_s:.6g} / traced {traced_per_s:.6g} items/s"
        )
        write_spans(tracer.spans, f"{args.workload}-seed{args.seed}.jsonl")
        result = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    else:
        result = {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in e2e.items()
            if name not in ("wrong_verdicts", "error_rate")
        }
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0 if wrong == 0 and failed == 0 else 1


def write_spans(spans, filename: str) -> None:
    TRACE_DIR.mkdir(exist_ok=True)
    origin = spans[0][tracing.START] if spans else 0
    with open(TRACE_DIR / filename, "w", encoding="utf-8") as fh:
        for name, start, end, parent, request, failed, _ in spans:
            fh.write(json.dumps([name, (start - origin) / 1e3, (end - origin) / 1e3, parent, request, failed]))
            fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
