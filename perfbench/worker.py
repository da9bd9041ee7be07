"""One benchmark process: set up a workload, then time or trace it.

Started by ``run.py`` in a fresh interpreter; prints one JSON object on its
last stdout line.  ``--spawned-at`` is the launcher's ``time.monotonic()``
just before it started this process, so set-up time covers interpreter
start, ``import gospa`` and input generation.

Modes:
  setup    set up and report the moment the inputs were ready
  measure  warm up, then run the jobs in a closed loop for --seconds
  trace    warm up, then alternate untraced and traced passes for --seconds

Call times are reported in units of a reference loop, a fixed pure-Python
loop that runs no code of the program.  On a 2-vCPU VM shared with other
tenants, the speed of both drifted by up to 1.7x, in phases from under a
second to minutes long.  The measure mode runs the reference loop between
calls, for a fifth as long as the calls took, so that its samples cover the
run evenly, and divides call times by the loop's mean time over the run:
that cancels the slow drift, while a change in the program still shows in
full.  A workload whose program runs ``workers`` threads times the loop on
as many threads at once, so the reference pays the same interpreter-lock
hand-offs as the program.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True

import workloads  # noqa: E402  (after the bytecode switch)


def run_job(job):
    """Time one job, then check its output outside the timed region.

    Returns the call's duration, whether it passed, and its result.
    """
    start = time.perf_counter()
    try:
        result = job.call()
    except Exception as exc:  # a failing call is counted, not fatal
        print(f"call failed: {exc!r}", file=sys.stderr)
        return time.perf_counter() - start, False, None
    elapsed = time.perf_counter() - start
    try:
        ok = bool(job.check(result))
    except Exception as exc:
        print(f"check raised: {exc!r}", file=sys.stderr)
        ok = False
    return elapsed, ok, result


REFERENCE_ITERATIONS = 30_000   # about 2-3 ms on a 2-vCPU x86-64 VM
REFERENCE_SHARE = 0.2      # reference time per second of call time


def _reference_loop(iterations: int) -> int:
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return total


def reference_s(threads: int) -> float:
    """Wall time of the reference loop run on ``threads`` threads at once.

    On more than one thread each runs the loop eight times over, so that
    the threads hand the interpreter lock to each other several times.
    """
    if threads == 1:
        start = time.perf_counter()
        _reference_loop(REFERENCE_ITERATIONS)
        return time.perf_counter() - start
    pool = [threading.Thread(target=_reference_loop, args=(8 * REFERENCE_ITERATIONS,))
            for _ in range(threads)]
    start = time.perf_counter()
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    return time.perf_counter() - start


def warm_up(plan) -> None:
    for job in next(plan.rounds()):
        if not run_job(job)[1]:
            print("warm-up call failed its check", file=sys.stderr)


def measure(plan, seconds: float) -> dict:
    """Closed loop over whole rounds until ``seconds`` have passed.

    Records each call's duration by size class, each round's rate (its
    operations over its summed call time) and the reference loop's times.
    """
    warm_up(plan)
    latencies = {size: [] for size in workloads.SIZE_CLASSES}
    references, rates = [], []
    attempted = failed = 0
    owed = 0.0   # reference time still to run
    deadline = time.perf_counter() + seconds
    rounds = itertools.cycle(list(plan.rounds()))
    while time.perf_counter() < deadline:
        busy = 0.0
        ops = 0
        for job in next(rounds):
            elapsed, ok, _ = run_job(job)
            latencies[job.size].append(elapsed)
            busy += elapsed
            ops += job.ops
            failed += 0 if ok else job.ops
            owed += REFERENCE_SHARE * elapsed
            while owed > 0.0:
                references.append(reference_s(plan.workers))
                owed -= references[-1]
        rates.append(ops / busy)
        attempted += ops
    return {"latencies": latencies, "round_rates": rates, "references": references,
            "attempted": attempted, "failed": failed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def traced_pass(plan) -> tuple[float, int, int, int]:
    """Run the plan's first ``traced_rounds`` rounds once.  Returns the
    summed call time, operations attempted and failed, and the bytes the
    CLI printed."""
    wall = 0.0
    attempted = failed = stdout_bytes = 0
    for job in plan.jobs[:plan.traced_rounds * plan.round_jobs]:
        elapsed, ok, result = run_job(job)
        wall += elapsed
        attempted += job.ops
        failed += 0 if ok else job.ops
        if isinstance(result, str):
            stdout_bytes += len(result.encode())
    return wall, attempted, failed, stdout_bytes


def trace(plan, seconds: float, spans_path: Path) -> dict:
    import spans as spanlib

    warm_up(plan)
    tracer = spanlib.Tracer()
    targets = spanlib.gospa_targets(plan.cut_ps)
    plain_walls, traced_walls, passes, layers = [], [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while not traced_walls or time.perf_counter() < deadline:
        wall, ops, bad, _ = traced_pass(plan)
        plain_walls.append(wall)
        attempted, failed = attempted + ops, failed + bad
        tracer.install(targets)
        try:
            wall, ops, bad, stdout_bytes = traced_pass(plan)
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        attempted, failed = attempted + ops, failed + bad
        passes.append(tracer.collect())
        layer = spanlib.layer_metrics(passes[-1], plan.workers)
        layer["cli.stdout_bytes"] = stdout_bytes
        layers.append(layer)
    spanlib.write_spans(spans_path, passes)

    counts = ("assignment.calls", "assignment.cells", "rfs.sample.calls",
              "rfs.sample.points", "metrics.calls", "cli.stdout_bytes")
    if any(layer[key] != layers[0][key] for layer in layers for key in counts):
        print("counts differ between traced passes of one seed", file=sys.stderr)
        failed = max(failed, 1)
    metrics = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
    for key in counts:
        metrics[key] = layers[0][key]
    # paired passes ran back to back, so their difference cancels slow drift
    metrics["trace.overhead_s"] = statistics.median(
        traced - plain for traced, plain in zip(traced_walls, plain_walls))
    return {"layers": metrics, "passes": len(layers), "attempted": attempted,
            "failed": failed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True,
                        help="directory for model files and spans")
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)

    import gospa  # noqa: F401  (import time is part of set-up)

    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=args.out))
    try:
        plan = workloads.build(args.workload, args.seed, args.tiny, workdir)
        result = {"setup_s": time.monotonic() - args.spawned_at}
        if args.mode == "measure":
            result.update(measure(plan, args.seconds))
        elif args.mode == "trace":
            spans_path = args.out / f"spans-{args.workload}.jsonl"
            result.update(trace(plan, args.seconds, spans_path))
            result["spans"] = str(spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
