"""Run-to-run spread of the end-to-end metrics over seeds.

Runs ``run.py`` once per seed on each workload, then prints, per metric,
the median and the distance between the first and third quartiles as a
share of the median, next to the bound in BENCHMARK.json.  With
``--baseline FILE`` it also writes the medians, the machine's CPU count and
the Python, NumPy and SciPy versions to FILE.

    python3 perfbench/spread.py --seeds 1-10 --baseline perfbench/baseline.json
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

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--baseline", type=Path, default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    worst = 0.0
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        walls = []
        for seed in args.seeds:
            start = time.monotonic()
            done = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            walls.append(time.monotonic() - start)
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {len(walls)} runs, wall per run max {max(walls):.1f} s")
        summary[workload] = {}
        for name, series in values.items():
            share = spread(series)
            bound = bounds[name]
            if name != "setup_s":
                worst = max(worst, share / bound)
            print(f"  {name:22s} median {statistics.median(series):12.6g}  "
                  f"spread {share:7.4f}  bound {bound:.3f}  "
                  f"{'ok' if share < bound / 3 else 'WIDE'}")
            summary[workload][name] = {"median": statistics.median(series), "spread": share,
                                       "values": series}
    print(f"largest spread/bound outside setup_s: {worst:.3f}")

    if args.baseline:
        import numpy
        import scipy

        args.baseline.write_text(json.dumps({
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "seeds": [args.seeds[0], args.seeds[-1]],
            "run_seconds": args.seconds,
            "workloads": summary,
        }, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
