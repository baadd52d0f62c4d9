"""Self-test of the benchmark at its smallest size.

    python3 bench/selftest.py

* the reference code reproduces the published pn:7 coefficients;
* every workload, untraced and traced with ``--seconds 0``, prints every
  metric of BENCHMARK.json by name with its unit and answers correctly,
  and every per-layer metric is above 0 on at least one workload;
* a reference value corrupted here raises the failed ratio above 0;
* traced and untraced requests print identical reports, and an untraced
  request runs with nothing patched;
* per request, the layers' self times cover the traced wall time within
  the tolerance in ``tracer.py``.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import copy
import gc
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import reference as ref
import workloads
import worker
from check import same_report
from tracer import Recorder, coverage, covered

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 7


def check(ok: bool, text: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {text}")
    if not ok:
        raise SystemExit(1)


def metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    positive = set()
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[kind]}
        for workload in workloads.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            check(proc.returncode == 0, f"{workload} trace {trace} exits 0 {proc.stderr[-300:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload} trace {trace}: result keys")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == expected, f"{workload} trace {trace}: every {kind} metric with its unit")
            check(all(isinstance(m["value"], float) for m in result["metrics"].values()),
                  f"{workload} trace {trace}: values are measured numbers")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace {trace}: failed ratio 0 of {result['attempted']}")
            positive.update(name for name, m in result["metrics"].items() if m["value"] > 0)
    zero = sorted({m["name"] for m in spec["per_layer"]} - positive)
    check(not zero, f"every per-layer metric is above 0 on some workload {zero}")


def plan_for(workload: str) -> dict:
    run_dir = BENCH / "out" / f"selftest-{workload}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    plan = workloads.make_plan(workload, SEED, run_dir, run_dir.relative_to(ROOT).as_posix())
    plan["cycles"] = plan["cycles"][:1]
    return plan


def corrupted_reference() -> None:
    plan = plan_for("root_analysis")
    bad = copy.deepcopy(plan)
    index = next(i for i, r in enumerate(bad["requests"])
                 if r["argv"][:3] == ["ehrhart", "--family", "pn:7"])
    bad["requests"][index]["expect"]["coefficients[1]"] = "1535/105"
    result = worker.run_untraced(bad, 0)
    ratio = result["failed"] / result["attempted"]
    check(ratio > 0, f"a corrupted pn:7 coefficient gives failed ratio {ratio:.3f} > 0")
    bad = copy.deepcopy(plan)
    index = next(i for i, r in enumerate(bad["requests"]) if r["argv"][0] == "bounds" and r["status"] == 1)
    bad["requests"][index]["status"] = 0
    result = worker.run_untraced(bad, 0)
    check(result["failed"] > 0, "a corrupted exit status is counted as failed")


def module_functions() -> dict:
    """Every module and class attribute of the package, to spot a patch left behind."""
    found = {}
    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("ehrhartlab"):
            for name, value in vars(mod).items():
                found[mod.__name__, name] = value
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    found.update({(mod.__name__, name, k): dict(v) if isinstance(v, dict) else v
                                  for k, v in vars(value).items()})
    return found


def traced_equals_untraced() -> None:
    recorder = Recorder()
    shipped = module_functions()
    for workload in workloads.WORKLOADS:
        plan = plan_for(workload)
        patched, differ = [], []
        for index in plan["cycles"][0]:
            argv = plan["requests"][index]["argv"]
            status, text, _ = worker.call(worker.ehrhartlab.cli.main, argv)
            if module_functions() != shipped or gc.callbacks:
                patched.append(argv)
            recorder.install()
            try:
                traced = worker.call(lambda a: recorder.request(index, worker.ehrhartlab.cli.main, a), argv)
            finally:
                recorder.uninstall()
            identical = text == traced[1] if argv[0] != "verify-all" else same_report(text, traced[1])
            if not identical or traced[0][0] != status:
                differ.append(argv)
        cycle = len(plan["cycles"][0])
        check(not patched, f"{workload}: {cycle} untraced requests run with nothing patched {patched[:1]}")
        check(not differ, f"{workload}: traced requests print the untraced reports {differ[:1]}")
    rows = coverage(recorder.spans)
    bad = [f"request {rid}: {rest * 1e3:.3f} of {wall * 1e3:.3f} ms"
           for rid, wall, rest in rows if not covered(wall, rest)]
    check(not bad, f"self times cover the traced wall time of all {len(rows)} requests {bad}")


def main() -> int:
    check(ref.family_coefficients(("pn", 7)) == list(ref.PN7_COEFFICIENTS),
          "forward differences of the pn:7 slice counts give the published coefficients")
    check(ref.count(("cube", 3), 2) == 125 and ref.count(("cross", 2), 1) == 5
          and ref.count(("qn", 2), 1) == 5, "closed-form counts on small cases")
    check(ref.pick_coefficients(ref.EXCEPTIONAL_TRIANGLE) == [1, Fraction(9, 2), Fraction(9, 2)],
          "Pick's theorem on the exceptional triangle")
    corrupted_reference()
    traced_equals_untraced()
    metric_names()
    return 0


if __name__ == "__main__":
    sys.exit(main())
