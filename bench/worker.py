"""One workload in a fresh interpreter; started by run.py, never by hand.

    python3 bench/worker.py WORKLOAD SEED MODE SECONDS OUTDIR

MODE is ``setup`` (set up, then stop), ``measure`` (untraced passes for
about SECONDS) or ``trace`` (untraced and traced passes, two of each).
The worker prints one JSON object on its last stdout line.  ``ready`` is the
``time.monotonic()`` reading when set-up ended, which run.py subtracts from
its own reading taken before starting the interpreter.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(1, str(BENCH))

import speed  # noqa: E402
import workloads  # noqa: E402  (imports hgbern)
from spans import EXPECTED_CALLS, Tracer  # noqa: E402

MAX_REPORTED_FAILURES = 5
MIN_PASSES = 2  # so that each operation's median time has two samples


def run_pass(workload, machine: speed.Speed, failures: list[str]) -> dict:
    """One timed pass: its raw wall time, each operation's latency in
    reference seconds (see speed.py), the outputs and the failure count."""
    workload.before_pass()
    ops = workload.make_ops()
    latencies, outputs, failed = [], [], 0
    first_sample = len(machine.samples)
    clock = time.perf_counter
    start = clock()
    for op in ops:
        before = machine.now()
        t0 = clock()
        try:
            out, error = op.run(), None
        except Exception:  # an op that raises is a failed op, not a dead run
            out, error = None, traceback.format_exc()
        elapsed = clock() - t0
        latencies.append(speed.scaled(elapsed, before, machine.now()))
        outputs.append(out)
        if error is not None:
            failed += 1
            failures.append(f"{op.label}: raised\n{error}")
        elif not op.check(out):
            failed += 1
            failures.append(f"{op.label}: wrong output")
    wall = clock() - start
    references = machine.samples[first_sample:] or machine.samples[-1:]
    return {
        "wall": wall,
        "latencies": latencies,
        "reference": statistics.median(references),
        "outputs": outputs,
        "attempted": len(ops),
        "failed": failed,
    }


def finish_pass(workload, result: dict, failures: list[str]) -> None:
    """The untimed checks of a pass, counted as ops of their own."""
    for label, ok in workload.after_pass(result["outputs"]):
        result["attempted"] += 1
        if not ok:
            result["failed"] += 1
            failures.append(f"{label}: wrong output")
    result["outputs"] = None


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_op_median(passes: list[dict]) -> list[float]:
    """Each operation's median time over the passes (every pass runs the same ops)."""
    return [statistics.median(times) for times in zip(*(p["latencies"] for p in passes))]


def measure(workload, machine: speed.Speed, seconds: float, failures: list[str]) -> dict:
    """At least MIN_PASSES passes, each with its untimed checks, and more
    while the next would end within `seconds`."""
    passes, cycle = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        result = run_pass(workload, machine, failures)
        finish_pass(workload, result, failures)
        passes.append(result)
        cycle.append(time.perf_counter() - t0)
        next_end = time.perf_counter() - start + statistics.median(cycle)
        if len(passes) >= MIN_PASSES and next_end > seconds:
            break
    typical = per_op_median(passes)
    return {
        "wall": sum(typical),
        "call_p50": percentile(typical, 50),
        "call_p90": percentile(typical, 90),
        "ops_per_pass": len(typical),
        "pass_walls": [p["wall"] for p in passes],
        "references": [p["reference"] for p in passes],
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def trace(
    workload, machine: speed.Speed, outdir: Path | None, tag: str, failures: list[str]
) -> dict:
    """Untraced and traced passes, alternating, two of each."""
    tracer = Tracer()
    untraced, traced, layers, covered = [], [], [], []
    for i in range(2):
        result = run_pass(workload, machine, failures)
        finish_pass(workload, result, failures)
        untraced.append(result)
        tracer.install()
        try:
            result = run_pass(workload, machine, failures)
            layers.append(tracer.layer_metrics(speed.REFERENCE_S / result["reference"]))
            covered.append(tracer.self_time_total())
            if i == 0 and outdir is not None:
                tracer.write_spans(outdir / f"spans-{tag}.csv.gz")
        finally:
            tracer.uninstall()
        tracer.reset()
        finish_pass(workload, result, failures)
        traced.append(result)

    problems = []
    counts = [{k: v for k, v in layer.items() if not k.endswith(".self_s")} for layer in layers]
    if counts[0] != counts[1]:
        keys = counts[0].keys() | counts[1].keys()
        changed = sorted(k for k in keys if counts[0].get(k) != counts[1].get(k))
        problems.append(f"exact counts differ between two traced passes: {changed}")
    for name in EXPECTED_CALLS[workload.name]:
        key = name + (".items" if name.startswith("exactnum.enumerate") else ".calls")
        if not layers[0].get(key):
            problems.append(f"span {name} recorded no call")
    for result, total in zip(traced, covered):
        if total > result["wall"]:
            problems.append(
                f"span self times sum to {total:.6f} s, more than the pass's {result['wall']:.6f} s"
            )

    metrics = {}
    for key in layers[0].keys() | layers[1].keys():
        values = [layer.get(key, 0) for layer in layers]
        metrics[key] = statistics.median(values) if key.endswith(".self_s") else values[0]
    traced_s, untraced_s = sum(per_op_median(traced)), sum(per_op_median(untraced))
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1
    everything = untraced + traced
    return {
        "layers": metrics,
        "untraced_walls": [r["wall"] for r in untraced],
        "traced_walls": [r["wall"] for r in traced],
        "problems": problems,
        "attempted": sum(p["attempted"] for p in everything),
        "failed": sum(p["failed"] for p in everything),
    }


def main() -> int:
    os.environ.pop("HGBERN_CACHE", None)  # cli would load and save that file
    name, seed, mode, seconds, outdir = sys.argv[1:6]
    seed_value, outdir_path = int(seed), Path(outdir)
    workload = workloads.WORKLOADS[name]()
    workload.setup(seed_value, outdir_path)
    ready = time.monotonic()
    failures: list[str] = []
    if mode == "setup":
        result: dict = {}
    elif mode == "measure":
        result = measure(workload, speed.Speed(), float(seconds), failures)
    else:
        result = trace(workload, speed.Speed(), outdir_path, f"{name}-seed{seed}", failures)
    result["ready"] = ready
    result["record"] = workload.record()
    for failure in failures[:MAX_REPORTED_FAILURES]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
