"""Run every workload untraced and traced and print every metric with its unit.

    python3 bench/report.py [--seed 1] [--seconds 30]

Besides the metrics of BENCHMARK.json it prints the failed ratio (failed
requests / attempted), each per-layer time as a share of the traced wall
time (per-layer sums are per plan cycle), and checks what each workload
was chosen to show:

* family_reports: polytopes.build_s + cli.to_json_s + cli.render_s is the
  majority of the traced wall time;
* counting_sweep: counting.count_s is the majority;
* root_analysis: the exact, roots, ehrhart, reflexivity and verification
  self times together exceed polytopes.build_s;
* every workload: per request, the layers' self times add up to the traced
  wall time within the tolerance in ``tracer.py``.

Exits 1 when a run fails, an answer is wrong, or a check does not hold.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from tracer import COVERAGE_FLOOR_S, COVERAGE_TOLERANCE, coverage, covered

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("family_reports", "counting_sweep", "root_analysis")
ANALYSIS_LAYERS = ("exact.", "roots.", "ehrhart.", "reflexivity.", "verification.")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def share_checks(workload: str, metrics: dict) -> list[tuple[bool, str]]:
    value = {name: m["value"] for name, m in metrics.items()}
    wall = value["trace.wall_s"]
    if workload == "family_reports":
        part = value["polytopes.build_s"] + value["cli.to_json_s"] + value["cli.render_s"]
        return [(part > wall / 2, f"build + to_json + render = {part / wall:.1%} of traced wall (> 50%)")]
    if workload == "counting_sweep":
        part = value["counting.count_s"]
        return [(part > wall / 2, f"counting.count_s = {part / wall:.1%} of traced wall (> 50%)")]
    analysis = sum(v for name, v in value.items()
                   if name.startswith(ANALYSIS_LAYERS) and name.endswith("_s"))
    build = value["polytopes.build_s"]
    return [(analysis > build, f"exact+roots+ehrhart+reflexivity+verification = {analysis:.3f} s "
                               f"> polytopes.build_s = {build:.3f} s")]


def coverage_check(workload: str, seed: int) -> tuple[bool, str]:
    document = json.loads((BENCH / "out" / f"{workload}-seed{seed}-trace1" / "spans.json").read_text())
    rows = coverage(document["spans"])
    argv = {r["id"]: " ".join(r["argv"]) for r in document["requests"]}
    bad = [row for row in rows if not covered(row[1], row[2])]
    worst = max(rows, key=lambda row: row[2] / row[1])
    text = (f"self times cover every request's wall time within {COVERAGE_TOLERANCE:.0%} "
            f"or {COVERAGE_FLOOR_S * 1e3:.1f} ms: {len(rows) - len(bad)}/{len(rows)}, worst "
            f"{worst[2] / worst[1]:.2%} ({worst[2] * 1e3:.3f} ms) on '{argv[worst[0]]}'")
    return not bad, text


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()
    all_ok = True
    for workload in WORKLOADS:
        plain = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        print(f"== {workload} (seed {args.seed}; {plain['attempted']} requests untraced, "
              f"{traced['attempted']} traced)")
        for name, m in plain["metrics"].items():
            print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
        for label, result in (("failed_ratio", plain), ("failed_ratio.traced", traced)):
            print(f"  {label:28s} {result['failed'] / result['attempted']:14.6g} ratio "
                  f"({result['failed']} of {result['attempted']})")
        wall = traced["metrics"]["trace.wall_s"]["value"]
        for name, m in traced["metrics"].items():
            note = f"  {m['value'] / wall:7.2%} of traced wall" if m["unit"] == "s/cycle" else ""
            if name == "counting.box_points":
                note = "  computed as (2r+1)^d per scan"
            print(f"  {name:28s} {m['value']:14.6g} {m['unit']}{note}")
        checks = share_checks(workload, traced["metrics"])
        checks.append(coverage_check(workload, args.seed))
        checks.append((plain["correct"] and traced["correct"], "every answer correct"))
        for ok, text in checks:
            print(f"  [{'ok' if ok else 'FAIL'}] {text}")
            all_ok &= ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
