"""hgbern benchmark: exact-arithmetic workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload {sweep,deep,warm,cf-kummer} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  Each workload runs in fresh interpreters
(bench/worker.py), one at a time: a single caller in a closed loop.

``--trace 0`` prints the end-to-end metrics: the median pass time
``wall_s``, the median set-up time ``setup_s`` over several fresh
interpreters, ``peak_rss_mb`` of the measuring interpreter, and the median
and 90th percentile latency of one operation.  ``--trace 1`` prints the
per-layer metrics of a traced run, which wraps the package's public
functions from outside ``src`` (see spans.py).

Every output is checked exactly.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it give the run's environment and a readable table.  Records and span files
go to ``.bench_out/``.  Why each workload exists: README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sweep", "deep", "warm", "cf-kummer")
SETUP_REPEATS = 5  # on each side of the measuring interpreter
RUN_LIMIT_S = 170  # a run, with all its interpreters, ends within this


def git_revision() -> str:
    """HEAD's commit id read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(
    workload: str, seed: int, mode: str, seconds: int, outdir: Path, deadline: float
) -> tuple[float, dict]:
    """Start one worker interpreter; returns its set-up time and its result.

    A worker still running at the deadline is killed, and this raises.
    """
    env = {k: v for k, v in os.environ.items() if k != "HGBERN_CACHE"}
    argv = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), mode]
    argv += [str(seconds), str(outdir)]
    started = time.monotonic()
    timeout = max(deadline - started, 0.001)
    proc = subprocess.run(
        argv, stdout=subprocess.PIPE, env=env, cwd=ROOT, timeout=timeout, text=True
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} for {workload} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["ready"] - started, result


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "hgbern" / "__init__.py").is_file():
        print(f"error: no hgbern source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    outdir = ROOT / ".bench_out"
    outdir.mkdir(exist_ok=True)
    # metric names and units; a traced run reports every per-layer metric,
    # zero where the workload does not use that layer
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    def start(mode: str) -> tuple[float, dict]:
        return run_worker(args.workload, args.seed, mode, args.seconds, outdir, deadline)

    def timed_setup() -> tuple[float, float]:
        """One set-up in reference seconds (see speed.py), and in seconds."""
        before = speed.reference_seconds()
        raw, _ = start("setup")
        return speed.scaled(raw, before, speed.reference_seconds()), raw

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }
    if args.trace:
        _, result = start("trace")
        problems = result["problems"]
        layers = result["layers"]
        metrics = {name: metric(layers.get(name, 0), unit) for name, unit in layer_units.items()}
        record["samples"] = {
            "untraced_passes": len(result["untraced_walls"]),
            "traced_passes": len(result["traced_walls"]),
        }
        record["untraced_walls_s"] = result["untraced_walls"]
        record["traced_walls_s"] = result["traced_walls"]
    else:
        problems = []
        # set-up samples before and after the measuring interpreter, so that
        # they span the run rather than one moment of the machine's load
        setups = [timed_setup() for _ in range(SETUP_REPEATS)]
        _, result = start("measure")
        setups += [timed_setup() for _ in range(SETUP_REPEATS)]
        metrics = {
            "wall_s": metric(result["wall"], "s"),
            "setup_s": metric(statistics.median(scaled for scaled, _ in setups), "s"),
            "peak_rss_mb": metric(result["peak_rss_kb"] / 1024, "MB"),
            "call_p50_ms": metric(result["call_p50"] * 1000, "ms"),
            "call_p90_ms": metric(result["call_p90"] * 1000, "ms"),
        }
        record["samples"] = {
            "passes": len(result["pass_walls"]),
            "ops_per_pass": result["ops_per_pass"],
            "setups": len(setups),
        }
        record["pass_walls_s"] = result["pass_walls"]
        record["pass_reference_s"] = result["references"]
        record["setups_raw_s"] = [raw for _, raw in setups]
    record["attempted"], record["failed_ops"] = result["attempted"], result["failed"]
    record["workload_record"] = result["record"]
    record["problems"] = problems
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record_text = json.dumps(record, indent=1) + "\n"
    (outdir / f"record-{tag}.json").write_text(record_text, encoding="utf-8")

    for problem in problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    details = ("workload_record", "pass_walls_s", "pass_reference_s", "setups_raw_s")
    print(json.dumps({k: v for k, v in record.items() if k not in details}))
    print(f"failed_ops {result['failed']} of {result['attempted']} attempted")
    for name, m in sorted(metrics.items()):
        print(f"{name} {m['value']:.6g} {m['unit']}")
    correct = result["failed"] == 0 and not problems
    final = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(final))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
