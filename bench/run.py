"""ehrhartlab benchmark: entry point.

    python3 bench/run.py --workload family_reports --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  This script writes the seeded inputs for
the workload (polygon JSON files and a plan of requests with their expected
answers) under ``bench/out/``, then starts one fresh worker process that
imports ``ehrhartlab.cli`` and drives ``main(argv)`` in a closed loop with
one client (see ``worker.py``).  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics, from a second run in which every request also runs
under the span recorder (``tracer.py``); its spans go to ``spans.json`` in
the run directory.  ``failed`` counts requests whose answer or exit status
was wrong; ``failed / attempted`` is the failed ratio.

End-to-end times are scaled to a reference core speed.  Other tenants of
the machine slow its cores by up to 2x for tens of seconds, which moved
raw medians by 20-40% from run to run.  On both sides of the import and
of each request the worker times ``worker.calibrate``, fixed work that
does not involve the package, and this script reports every time t as
t * CALIBRATION_REFERENCE_S / c: the time on a core where the calibration
takes CALIBRATION_REFERENCE_S, about an unloaded core of the machine the
benchmark was defined on.  For set-up, c is the mean of the calibrations
before and after the import; for a request, the median of the
CALIBRATION_WINDOW calibrations before it and as many after it, which
follows the core's speed yet lets no single disturbed calibration move a
latency.  A change to the package moves the scaled times exactly as it
moves the raw ones.
Per-layer times are raw; their shares of the traced wall time need no
scaling.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
# Set-up time is the median over this many probe workers before the run, as
# many after it, and the run's own worker: the machine's speed drifts, so the
# probes sample both ends of the run.
PROBES = 6
PROBE_TIMEOUT_S = 60
CALIBRATION_REFERENCE_S = 0.0015
CALIBRATION_WINDOW = 3
# One client and no threads: numpy's BLAS would otherwise start a helper
# thread at import that competes with the client on a 2-CPU machine.
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _spawn(args: list[str], timeout: float) -> tuple[float, dict]:
    """Run a worker to completion; (spawn time, its JSON summary)."""
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=WORKER_ENV,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def _scaled(seconds: float, calibration: float) -> float:
    return seconds * CALIBRATION_REFERENCE_S / calibration


def setup_time(spawned: float, summary: dict) -> float:
    """Spawn to the end of the import, less the calibrations before it, scaled."""
    seconds = summary["ready"] - spawned - sum(summary["before_import"])
    return _scaled(seconds, summary["calibration"])


def setup_seconds() -> list[float]:
    return [setup_time(*_spawn(["--probe"], PROBE_TIMEOUT_S)) for _ in range(PROBES)]


def end_to_end(summary: dict, setups: list[float]) -> dict:
    # cal[i] and cal[i + 1] bracket request i.
    cal, w = summary["calibrations"], CALIBRATION_WINDOW
    latencies = [_scaled(t, statistics.median(cal[max(0, i + 1 - w): i + 1 + w]))
                 for i, t in enumerate(summary["latencies"])]
    return {
        "setup_s": (statistics.median(setups), "s"),
        # The rate the CLI sustains: answer checking between requests is not counted.
        "requests_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_ms_p50": (statistics.median(latencies) * 1000, "ms"),
        "latency_ms_p90": (statistics.quantiles(latencies, n=10)[-1] * 1000, "ms"),
        "peak_rss_mb": (summary["maxrss_kb"] * 1024 / 1e6, "MB"),
        "output_kb_per_request": (summary["out_bytes"] / summary["attempted"] / 1000, "kB"),
    }


def per_layer(summary: dict) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"]: (summary["metrics"][m["name"]], m["unit"]) for m in spec}


def main() -> int:
    parser = argparse.ArgumentParser(description="ehrhartlab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ehrhartlab" / "cli.py").is_file():
        print(f"no ehrhartlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_dir = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    plan = workloads.make_plan(args.workload, args.seed, run_dir,
                               run_dir.relative_to(ROOT).as_posix())
    plan_file = run_dir / "plan.json"
    plan_file.write_text(json.dumps(plan))

    try:
        setups = [] if args.trace else setup_seconds()
        worker_args = ["--plan", str(plan_file), "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--spans", str(run_dir / "spans.json")]
        spawned, summary = _spawn(worker_args, timeout=2 * args.seconds + 90)
        if not args.trace:
            setups += setup_seconds() + [setup_time(spawned, summary)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    for error in summary.get("errors", []):
        print(f"wrong answer: {error}", file=sys.stderr)
    metrics = per_layer(summary) if args.trace else end_to_end(summary, setups)
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
