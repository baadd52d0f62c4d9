"""Benchmark worker: one fresh process per run.

It imports ``ehrhartlab.cli`` from the checkout's ``src`` first, so that
the moment the import finishes marks the end of set-up, then drives
``ehrhartlab.cli.main(argv)`` in a closed loop with one client: the next
request goes out only after the previous one returned, with stdout and
stderr captured.  The loop runs whole cycles of the plan until
``--seconds`` have passed and at least ``MIN_REQUESTS`` were sent.  The
last line of stdout is a JSON summary.

``--probe`` stops right after the import and prints only the time it
finished and the calibrations; run.py uses probes to take the median
set-up time.

Just before and just after the import, and around every timed request,
the worker times :func:`calibrate`, a fixed piece of interpreter work
owned by the benchmark, so that run.py can scale each timing to a
reference core speed (see ``run.py``).  The calibrations before the
import use only modules that ``ehrhartlab.cli`` imports anyway, and their
time is reported so that run.py can take it out of the set-up time.

With ``--trace 1`` every request runs twice, untraced and traced, in
alternating order; the two reports must be byte-identical, and the pair
gives the tracing overhead.  Summed per-layer times and counts are
reported per plan cycle, so that they do not depend on how many cycles
fitted into ``--seconds``.
"""

import json
import sys
import time
from fractions import Fraction
from pathlib import Path
from time import perf_counter

_CALIBRATION_DOC = {"rows": [{"v": [i, -i, 3 * i], "s": f"{i}/7"} for i in range(120)]}


def calibrate() -> float:
    """Seconds taken by fixed work of the kinds the CLI does: the pure-Python
    JSON encoder, Fraction sums, a lattice-point predicate loop and big-int
    powers.  It never touches ehrhartlab, so a change to the package cannot
    move it; only the speed of the core can."""
    start = perf_counter()
    json.dumps(_CALIBRATION_DOC, indent=2)
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i, 2 * i + 1)
    inside = sum(1 for x in range(-25, 26) for y in range(-25, 26) if abs(x) + abs(y) <= 25)
    powers = sum((2 * j + 1) ** 5 for j in range(300))
    elapsed = perf_counter() - start
    if not (total and inside and powers):
        raise AssertionError("calibration work was skipped")
    return elapsed


# The core speed can change within a second, so set-up is scaled by the
# mean of calibrations on both sides of the import.
SETUP_CALIBRATIONS = 3
BEFORE_IMPORT = [calibrate() for _ in range(SETUP_CALIBRATIONS)]

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ehrhartlab.cli  # noqa: E402  (set-up ends when this import returns)

READY = time.monotonic()
AFTER_IMPORT = [calibrate() for _ in range(SETUP_CALIBRATIONS)]

import argparse  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import resource  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

from check import Checker, same_report  # noqa: E402
from tracer import MAXIMA, Recorder, layer_totals  # noqa: E402

# Enough requests that at least ten lie beyond the 90th percentile.
MIN_REQUESTS = 110


def call(main, argv: list[str]) -> tuple[int | None, str, float]:
    """One request: (exit status or None on a crash, stdout, seconds).

    Garbage left by earlier requests and answer checks is collected first,
    untimed: a CLI process never carries it, and otherwise a full
    collection of it lands inside whichever request happens to trigger it.
    """
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    status = None
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            status = main(argv)
        except Exception:  # a crash is a wrong answer, not a benchmark failure
            pass
        elapsed = perf_counter() - start
    return status, out.getvalue(), elapsed


def _cycles(plan: dict):
    """Plan cycles, restarting at the first when they run out."""
    while True:
        yield from plan["cycles"]


def run_untraced(plan: dict, seconds: float) -> dict:
    main = ehrhartlab.cli.main
    requests = plan["requests"]
    checker = Checker(requests)
    for index in plan["warmup"]:
        call(main, requests[index]["argv"])
    # calibrations[i] and calibrations[i + 1] bracket request i.
    latencies, calibrations, out_bytes, failed = [], [calibrate()], 0, 0
    start = perf_counter()
    for cycle in _cycles(plan):
        for index in cycle:
            status, text, elapsed = call(main, requests[index]["argv"])
            latencies.append(elapsed)
            calibrations.append(calibrate())
            out_bytes += len(text.encode())
            failed += not checker.ok(index, status, text)
        if perf_counter() - start >= seconds and len(latencies) >= MIN_REQUESTS:
            break
    return {
        "latencies": latencies,
        "calibrations": calibrations,
        "out_bytes": out_bytes,
        "attempted": len(latencies),
        "failed": failed,
        "errors": checker.errors[:5],
    }


def run_traced(plan: dict, seconds: float, recorder: Recorder) -> dict:
    main = ehrhartlab.cli.main
    requests = plan["requests"]
    checker = Checker(requests)
    for index in plan["warmup"]:
        call(main, requests[index]["argv"])
    untraced_total = traced_total = 0.0
    attempted = failed = cycles = 0
    log = []
    start = perf_counter()
    for cycle in _cycles(plan):
        for index in cycle:
            argv = requests[index]["argv"]
            rid = attempted
            # Alternate which copy goes first, so neither always finds warm caches.
            if rid % 2:
                plain = call(main, argv)
            recorder.install()
            try:
                traced = call(lambda a: recorder.request(rid, main, a), argv)
            finally:
                recorder.uninstall()
            if not rid % 2:
                plain = call(main, argv)
            status, wall = traced[0] if traced[0] is not None else (None, traced[2])
            untraced_total += plain[2]
            traced_total += wall
            attempted += 1
            same = status == plain[0] and same_report(traced[1], plain[1])
            if not same:
                checker.errors.append(f"{' '.join(argv)}: traced and untraced reports differ")
            failed += not (same and checker.ok(index, plain[0], plain[1]))
            log.append({"id": rid, "argv": argv, "wall": wall})
        cycles += 1
        if perf_counter() - start >= seconds:
            break
    metrics = layer_totals(recorder.spans)
    metrics.update(recorder.counts)
    metrics["trace.wall_s"] = traced_total
    metrics = {key: float(value) if key in MAXIMA else value / cycles
               for key, value in metrics.items()}
    metrics["trace.overhead_ratio"] = traced_total / untraced_total
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "requests": log, "errors": checker.errors[:5]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--plan", type=Path)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = parser.parse_args()
    source = Path(ehrhartlab.cli.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        print(f"ehrhartlab was imported from {source}, not from this checkout", file=sys.stderr)
        return 2
    summary: dict = {"ready": READY, "before_import": BEFORE_IMPORT,
                     "calibration": sum(BEFORE_IMPORT + AFTER_IMPORT) / (2 * SETUP_CALIBRATIONS)}
    if not args.probe:
        plan = json.loads(args.plan.read_text())
        if args.trace:
            recorder = Recorder()
            summary.update(run_traced(plan, args.seconds, recorder))
            args.spans.write_text(json.dumps(
                {"requests": summary.pop("requests"), "spans": recorder.spans}))
        else:
            summary.update(run_untraced(plan, args.seconds))
        summary["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
