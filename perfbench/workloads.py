"""Seeded inputs and call lists for the three benchmark workloads.

Each workload is built from a seed alone and turns into a list of jobs.  A
job is one timed call into the program plus an untimed check of its output.
The program receives only the generated inputs; nothing here changes it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks

# One-line reason for each workload, mirrored in BENCHMARK.json.
WHY = {
    "grid-serial": "Paper's Table 1 via the CLI: 12,000 pair draws and 22,000 tiny solves, "
                   "so sampling and per-call overhead in rfs/assignment dominate",
    "mean-parallel": "CLI mean on 50-component models with 2 threads: the only path through "
                     "estimate_metric, threaded blocks and documents; ~42x43 mostly saturated solves",
    "sets-spread": "gospa/ospa on planar sets far apart (n 100/400/1000): large tie-heavy "
                   "matrices mostly at c^p, where gating would act",
}
NAMES = tuple(WHY)
SIZE_CLASSES = ("small", "mid", "large")


@dataclass
class Job:
    """One timed call.  ``call`` returns what ``check`` inspects; ``ops`` is
    how many operations the call completes; ``size`` is its size class."""

    size: str
    ops: int
    call: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class Plan:
    """What a run of one workload executes.

    ``jobs`` is a whole number of rounds of ``round_jobs`` jobs each; the
    timed loop cycles through it round by round.  The first round is the
    warm-up, and a traced pass is the first ``traced_rounds`` rounds, so it
    does the same work, with the same counts, on every run of one seed.
    ``cut_ps`` are the saturated costs ``c**p`` its solves can hold.
    """

    jobs: list[Job]
    round_jobs: int
    traced_rounds: int
    workers: int
    cut_ps: frozenset

    def rounds(self):
        for start in range(0, len(self.jobs), self.round_jobs):
            yield self.jobs[start:start + self.round_jobs]


def worker_count() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def _run_cli(argv: list[str]) -> str:
    from gospa import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"gospa {argv[0]} exited with code {code}")
    return buffer.getvalue()


# --- grid-serial ------------------------------------------------------------

def grid_plan(seed: int, tiny: bool) -> Plan:
    samples = 20 if tiny else 1000
    argv = ["table1", "--samples", str(samples), "--seed", str(seed), "--format", "json"]
    first: list[str] = []

    def check(stdout: str) -> bool:
        # the first output is the reference for every later pass of this seed
        if not first:
            first.append(stdout)
        return stdout == first[0] and checks.grid_closed_form_ok(stdout)

    job = Job("small", 12 * samples, lambda: _run_cli(argv), check)
    return Plan([job], round_jobs=1, traced_rounds=1, workers=1,
                cut_ps=frozenset({8.0, 64.0}))


# --- mean-parallel ----------------------------------------------------------

MEAN_COMPONENTS = 50
MEAN_C = 10.0
MEAN_P = 2.0


def mean_models(seed: int, components: int) -> tuple[dict, dict]:
    """Truth and estimate multi-Bernoulli documents: targets scattered over a
    1000 x 1000 field, far apart relative to c = 10, each estimate
    component a perturbed copy of one truth component."""
    rng = np.random.default_rng([seed, 1])
    means = rng.uniform(0.0, 1000.0, (components, 2))
    offsets = rng.normal(0.0, 2.0, (components, 2))

    def document(centres, low, high):
        existence = rng.uniform(low, high, components)
        return {"components": [
            {"existence": float(e), "mean": [float(v) for v in m],
             "covariance": [[1.0, 0.0], [0.0, 1.0]]}
            for e, m in zip(existence, centres)
        ]}

    return document(means, 0.78, 0.92), document(means + offsets, 0.80, 0.94)


def mean_plan(seed: int, tiny: bool, workdir: Path) -> Plan:
    samples = 20 if tiny else 1000
    components = 6 if tiny else MEAN_COMPONENTS
    truth_doc, estimate_doc = mean_models(seed, components)
    truth, estimate = workdir / "truth.json", workdir / "estimate.json"
    truth.write_text(json.dumps(truth_doc), encoding="utf-8")
    estimate.write_text(json.dumps(estimate_doc), encoding="utf-8")
    workers = worker_count()

    def argv(n_workers: int) -> list[str]:
        return ["mean", str(truth), str(estimate), "--c", str(MEAN_C), "--p", str(MEAN_P),
                "--samples", str(samples), "--seed", str(seed),
                "--workers", str(n_workers)]

    reference: list[str] = []

    def check(stdout: str) -> bool:
        # the serial run is the reference; it runs once, outside any timing
        if not reference:
            reference.append(_run_cli(argv(1)))
        return stdout == reference[0] and checks.mean_output_ok(stdout)

    job = Job("small", samples, lambda: _run_cli(argv(workers)), check)
    return Plan([job], round_jobs=1, traced_rounds=1, workers=workers,
                cut_ps=frozenset({MEAN_C ** MEAN_P}))


# --- sets-spread -----------------------------------------------------------

SETS_P = 2.0
SPREAD_C = 10.0
# pairs of each size class per round; each pair runs gospa then ospa
ROUND_PAIRS = {"small": 10, "mid": 3, "large": 1}
POOL_ROUNDS = 16
TRACED_ROUNDS = 2


def _detected(truth: np.ndarray, share: float, rng: np.random.Generator) -> np.ndarray:
    # a fixed count, so every pair of a size class has one matrix shape and
    # memory use does not depend on how many rounds a run gets through
    return truth[np.sort(rng.permutation(len(truth))[:round(share * len(truth))])]


def spread_pair(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Truth on a jittered grid of pitch 10c; 90% of it detected with noise
    sd c/4, plus n/10 false targets anywhere in the field."""
    side = math.ceil(math.sqrt(n))
    cells = rng.permutation(side * side)[:n]
    pitch = 10.0 * SPREAD_C
    grid = np.column_stack([cells // side, cells % side]).astype(float) * pitch
    truth = grid + rng.uniform(-SPREAD_C, SPREAD_C, grid.shape)
    detected = _detected(truth, 0.9, rng)
    detected = detected + rng.normal(0.0, SPREAD_C / 4.0, detected.shape)
    false = rng.uniform(0.0, side * pitch, (n // 10, 2))
    return truth, rng.permutation(np.vstack([detected, false]))


SETS = {
    "sets-spread": (spread_pair, SPREAD_C, {"small": 100, "mid": 400, "large": 1000}),
}
TINY_SIZES = {"small": 5, "mid": 10, "large": 20}


def sets_plan(name: str, seed: int, tiny: bool) -> Plan:
    import gospa

    make_pair, c, sizes = SETS[name]
    if tiny:
        sizes = TINY_SIZES
    rng = np.random.default_rng([seed, 2])
    params = gospa.GospaParams(c=c, alpha=2.0, p=SETS_P)
    rounds = 2 if tiny else POOL_ROUNDS
    jobs = []
    for _ in range(rounds):
        for size in SIZE_CLASSES:
            for _ in range(ROUND_PAIRS[size]):
                x, y = make_pair(sizes[size], rng)
                jobs.append(Job(
                    size, 1,
                    lambda x=x, y=y: gospa.gospa(x, y, params),
                    lambda result, x=x, y=y: checks.gospa_ok(result, x, y, c, SETS_P)))
                jobs.append(Job(
                    size, 1,
                    lambda x=x, y=y: gospa.ospa(x, y, c=c, p=SETS_P),
                    lambda result, x=x, y=y: checks.ospa_ok(result, x, y, c, SETS_P)))
    return Plan(jobs, round_jobs=2 * sum(ROUND_PAIRS.values()),
                traced_rounds=1 if tiny else TRACED_ROUNDS, workers=1,
                cut_ps=frozenset({c ** SETS_P}))


def build(name: str, seed: int, tiny: bool, workdir: Path) -> Plan:
    """Generate the inputs of workload ``name`` from ``seed``."""
    if name == "grid-serial":
        return grid_plan(seed, tiny)
    if name == "mean-parallel":
        return mean_plan(seed, tiny, workdir)
    if name in SETS:
        return sets_plan(name, seed, tiny)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
