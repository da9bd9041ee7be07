"""Tests of the benchmark itself: tiny smoke runs of every workload, and
checks that the output checkers flag wrong results.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}


def test_times_are_divided_by_the_mean_reference_time():
    import run

    measured = {"latencies": {"small": [0.3, 0.1, 0.2], "mid": [], "large": []},
                "round_rates": [10.0, 30.0, 20.0], "references": [0.01, 0.03],
                "peak_rss_mb": 50.0}
    metrics, classes = run.end_to_end([1.0, 3.0, 2.0], measured)
    assert metrics["setup_s"] == 2.0
    assert metrics["call_p50_ref.small"] == pytest.approx(0.2 / 0.02)
    assert metrics["call_p50_ref.large"] == metrics["call_p50_ref.small"]
    assert metrics["ops_per_ref"] == pytest.approx(20.0 * 0.02)
    assert classes["mid"][0] == 3


def test_reference_loop_runs_on_every_thread():
    import worker

    assert 0.0 < worker.reference_s(1) < worker.reference_s(2)


def test_workload_reasons_match_benchmark_json():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY


def test_fails_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-serial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


def test_grid_checker_flags_a_perturbed_cell(tmp_path):
    job = workloads.build("grid-serial", 3, True, tmp_path).jobs[0]
    stdout = job.call()
    assert job.check(stdout) and checks.grid_closed_form_ok(stdout)
    document = json.loads(stdout)
    cell = next(c for c in document["cells"] if c["n_missed"] == 2 and c["n_false"] == 1)
    cell["value"] *= 1.0 + 1e-5
    perturbed = json.dumps(document, indent=2) + "\n"
    assert not checks.grid_closed_form_ok(perturbed)
    assert not job.check(perturbed)


def test_mean_checker_flags_a_changed_byte(tmp_path):
    job = workloads.build("mean-parallel", 3, True, tmp_path).jobs[0]
    stdout = job.call()
    assert job.check(stdout)
    assert not job.check(stdout.replace("value: ", "value: 1"))


def test_sets_checkers_flag_perturbed_totals(tmp_path):
    plan = workloads.build("sets-spread", 3, True, tmp_path)
    gospa_job, ospa_job = plan.jobs[0], plan.jobs[1]
    breakdown = gospa_job.call()
    assert gospa_job.check(breakdown)
    assert not gospa_job.check(dataclasses.replace(breakdown, total=breakdown.total * 1.001))
    assert not gospa_job.check(dataclasses.replace(
        breakdown, localization_cost_p=breakdown.localization_cost_p + 1.0))
    value = ospa_job.call()
    assert ospa_job.check(value)
    assert not ospa_job.check(value * 1.001)


def test_permutation_form_matches_closed_forms():
    x = np.array([[0.0, 0.0], [100.0, 0.0]])
    y = np.array([[1.0, 0.0], [50.0, 50.0]])
    # one detected pair at distance 1, one miss and one false target at c = 8
    assert checks.permutation_form_p(x, y, 8.0, 2.0, 1.0) == pytest.approx(9.0)
    assert checks.permutation_form_p(x, y[:0], 8.0, 2.0, 2.0) == pytest.approx(64.0)
    assert checks.grid_two_missed("gospa", 1.0, 10) == 48.0
    assert checks.grid_two_missed("uospa", 2.0, 3) == pytest.approx(8.0 * 3 ** 0.5)


def test_tracer_counts_repeat_and_originals_come_back(tmp_path):
    import gospa

    original = gospa.gospa
    plan = workloads.build("sets-spread", 5, True, tmp_path)
    tracer = spans.Tracer()
    counts = []
    for _ in range(2):
        tracer.install(spans.gospa_targets(plan.cut_ps))
        try:
            for job in plan.jobs[:plan.round_jobs]:
                assert job.check(job.call())
        finally:
            tracer.uninstall()
        layer = spans.layer_metrics(tracer.collect(), plan.workers)
        counts.append((layer["assignment.calls"], layer["assignment.cells"],
                       layer["metrics.calls"]))
    assert gospa.gospa is original
    assert counts[0] == counts[1] and counts[0][2] == plan.round_jobs
    assert layer["assignment.saturated_share"] > 0.5


def test_self_time_subtracts_the_union_of_children():
    span = spans.Span
    trace = [
        span(1, None, "rfs", 0, 0.0, 10.0, 10.0, 1.0),
        span(2, 1, "rfs.sample", 0, 1.0, 4.0, 3.0, 2),
        span(3, 1, "assignment", 1, 3.0, 6.0, 1.0, (4, True, 0)),
    ]
    layer = spans.layer_metrics(trace, workers=2)
    assert layer["rfs.self_s"] == pytest.approx(5.0)
    assert layer["assignment.wait_s"] == pytest.approx(2.0)
    assert layer["rfs.utilization"] == pytest.approx(1.0 / 20.0)
    assert layer["assignment.small_share"] == 1.0
