"""Benchmark of the gospa package: one workload, one seed, one result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload grid-serial --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it sets the workload up several times in fresh processes
(for set-up time), then times it in one more fresh process and prints every
end-to-end metric.  With ``--trace 1`` it runs the workload once more with
the program's layer entry points wrapped in spans and prints the per-layer
metrics.  The last stdout line is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

import workloads  # noqa: E402  (after the bytecode switch)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_RUNS = 5          # set-up samples per run, the timed process included
DEADLINE_S = 170.0      # a run must end within 180 s

UNITS = {
    "setup_s": "s", "ops_per_ref": "1/ref", "call_p50_ref.small": "ref",
    "call_p50_ref.mid": "ref", "call_p50_ref.large": "ref", "peak_rss_mb": "MB",
    "assignment.calls": "count", "assignment.cells": "count",
    "assignment.small_share": "ratio", "assignment.saturated_share": "ratio",
    "assignment.busy_s": "s", "assignment.wait_s": "s",
    "rfs.sample.calls": "count", "rfs.sample.points": "count",
    "rfs.sample.busy_s": "s", "rfs.sample.wait_s": "s",
    "rfs.self_s": "s", "rfs.utilization": "ratio",
    "metrics.calls": "count", "metrics.busy_s": "s", "metrics.self_s": "s",
    "documents.busy_s": "s", "cli.self_s": "s", "cli.stdout_bytes": "bytes",
    "trace.overhead_s": "s",
}


class BenchmarkError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    # only the program's own --workers may use cores
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[name] = "1"
    return env


def spawn(args, mode: str, deadline: float, tiny: bool) -> dict:
    """Run one worker process to completion and return its result object."""
    spawned_at = time.monotonic()
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--mode", mode, "--spawned-at", repr(spawned_at), "--out", str(OUT)]
    if tiny:
        command.append("--tiny")
    try:
        done = subprocess.run(command, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{mode} process exceeded the time limit") from None
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise BenchmarkError(f"{mode} process exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def end_to_end(setups: list[float], run: dict) -> tuple[dict, dict]:
    """End-to-end metrics, and for each latency class its sample count and
    its median and 90th percentile in milliseconds.

    Call times and rates are in reference units: seconds divided by the
    mean time of the reference loop over the run (see ``worker.py``).  The
    milliseconds are printed beside them but not gated, because on a shared
    host they follow the host's speed.  A workload whose calls all have one
    size (the CLI workloads) reports that one class as small, mid and large
    alike.  The 90th percentile is informational: the CLI workloads make too
    few calls in a run for it to have ten samples beyond it, and every
    end-to-end metric must be reported, and steady, on every workload.
    """
    latencies = {size: values for size, values in run["latencies"].items() if values}
    if set(latencies) != set(workloads.SIZE_CLASSES):
        latencies = {size: sum(latencies.values(), []) for size in workloads.SIZE_CLASSES}
    reference = statistics.mean(run["references"])
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_ref": statistics.median(run["round_rates"]) * reference,
        "call_p50_ref.small": statistics.median(latencies["small"]) / reference,
        "call_p50_ref.mid": statistics.median(latencies["mid"]) / reference,
        "call_p50_ref.large": statistics.median(latencies["large"]) / reference,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    return metrics, {size: (len(values), 1e3 * statistics.median(values),
                            1e3 * percentile(values, 90))
                     for size, values in latencies.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and one set-up sample, for the smoke tests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "gospa" / "__init__.py").is_file():
        print(f"error: no gospa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            run = spawn(args, "trace", deadline, args.tiny)
            metrics = run["layers"]
            print(f"traced passes: {run['passes']}   spans: {run['spans']}")
        else:
            setups = [spawn(args, "setup", deadline, args.tiny)["setup_s"]
                      for _ in range(0 if args.tiny else SETUP_RUNS - 1)]
            run = spawn(args, "measure", deadline, args.tiny)
            metrics, classes = end_to_end(setups + [run["setup_s"]], run)
            references = run["references"]
            print(f"reference loop: {len(references)} times, mean "
                  f"{1e3 * statistics.mean(references):.6g} ms")
            for size, (count, p50, p90) in classes.items():
                print(f"{size} calls: {count}   p50 {p50:.6g} ms   p90 {p90:.6g} ms")
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = run["attempted"], run["failed"]
    for name, value in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{name:28s} {shown} {UNITS[name]}")
    print(f"{'error_rate':28s} {failed / attempted:.6g} (failed {failed} of {attempted} ops)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
