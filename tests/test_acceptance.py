"""Acceptance suite.

One test per release criterion.  Each test prints a ``criterion NN PASS``
line once its assertions hold (run ``pytest -s`` to see them); a pytest
failure marks the criterion as failed.  The Monte Carlo criteria share a
single 1000-sample benchmark-grid run with a frozen seed.
"""

import math
import time

import numpy as np
import pytest

from gospa import cli
from gospa.assignment import solve_full_assignment
from gospa.metrics import GospaParams, gospa, ospa
from gospa.rfs import TABLE1_N_FALSE, TABLE1_N_MISSED, run_table1

from oracles import (
    brute_force_assignment,
    gospa_alpha2_assignment_oracle,
    gospa_permutation_form,
    random_target_set,
    unnormalized_ospa_closed_form,
)

ACCEPTANCE_SEED = 0
SAMPLES = 1000
GRID_TIME_BUDGET_S = 5.0


def _pass(number: int, description: str) -> None:
    print(f"criterion {number:02d} PASS  {description}")


@pytest.fixture(scope="session")
def table():
    start = time.perf_counter()
    result = run_table1(samples=SAMPLES, master_seed=ACCEPTANCE_SEED)
    elapsed = time.perf_counter() - start
    return result, elapsed


def test_criterion_01_gospa_two_missed_column_mean(table):
    result, elapsed = table
    expected = {0: 8.0, 1: 12.0, 3: 20.0, 10: 48.0}
    for n_false, value in expected.items():
        cell = result.estimate("gospa", 1.0, 2, n_false)
        assert cell.value == pytest.approx(value, abs=1e-9)
    assert elapsed < GRID_TIME_BUDGET_S, f"grid run took {elapsed:.2f}s"
    _pass(1, "mean GOSPA, 2 missed: 8 / 12 / 20 / 48 exactly")


def test_criterion_02_gospa_two_missed_column_rms(table):
    result, _ = table
    exact = {0: 8.0, 1: math.sqrt(96.0), 3: math.sqrt(160.0), 10: math.sqrt(384.0)}
    printed = {0: 8.0, 1: 9.79, 3: 12.64, 10: 19.59}
    for n_false in TABLE1_N_FALSE:
        cell = result.estimate("gospa", 2.0, 2, n_false)
        assert cell.value == pytest.approx(exact[n_false], abs=1e-9)
        assert abs(cell.value - printed[n_false]) <= 0.01
    _pass(2, "rms GOSPA, 2 missed: 8 / sqrt96 / sqrt160 / sqrt384 within 0.01")


def test_criterion_03_ospa_two_missed_column_constant(table):
    result, _ = table
    for p in (1.0, 2.0):
        for n_false in TABLE1_N_FALSE:
            cell = result.estimate("ospa", p, 2, n_false)
            assert cell.value == pytest.approx(8.0, abs=1e-9)
    _pass(3, "OSPA, 2 missed: constant 8 for every false-target count")


def test_criterion_04_uospa_two_missed_column(table):
    result, _ = table
    mean_expected = {0: 16.0, 1: 16.0, 3: 24.0, 10: 80.0}
    rms_exact = {0: math.sqrt(128.0), 1: math.sqrt(128.0),
                 3: math.sqrt(192.0), 10: math.sqrt(640.0)}
    rms_printed = {0: 11.31, 1: 11.31, 3: 13.85, 10: 25.29}
    for n_false in TABLE1_N_FALSE:
        mean_cell = result.estimate("uospa", 1.0, 2, n_false)
        assert mean_cell.value == pytest.approx(mean_expected[n_false], abs=1e-9)
        rms_cell = result.estimate("uospa", 2.0, 2, n_false)
        assert rms_cell.value == pytest.approx(rms_exact[n_false], abs=1e-9)
        assert abs(rms_cell.value - rms_printed[n_false]) <= 0.01
    _pass(4, "unnormalized OSPA, 2 missed: 16/16/24/80 and 11.31/11.31/13.85/25.29")


def test_criterion_05_gospa_mean_stochastic_cells(table):
    result, elapsed = table
    expected = {(0, 0): 4.55, (1, 0): 6.05, (0, 1): 8.62, (0, 3): 16.52,
                (0, 10): 44.49, (1, 1): 10.04, (1, 3): 18.07, (1, 10): 46.05}
    for (n_missed, n_false), value in expected.items():
        cell = result.estimate("gospa", 1.0, n_missed, n_false)
        assert abs(cell.value - value) <= 0.25, \
            f"({n_missed},{n_false}): {cell.value:.3f} vs {value}"
        assert cell.standard_error < 0.1
    assert elapsed < 10.0
    _pass(5, "mean GOSPA stochastic cells within 0.25 of the reference values")


def test_criterion_06_gospa_rms_stochastic_cells(table):
    result, _ = table
    expected = {(0, 0): 3.60, (1, 0): 6.10, (0, 10): 18.23}
    for (n_missed, n_false), value in expected.items():
        cell = result.estimate("gospa", 2.0, n_missed, n_false)
        assert abs(cell.value - value) <= 0.25
    _pass(6, "rms GOSPA spot-check cells within 0.25 of the reference values")


def test_criterion_07_trends_with_common_random_numbers(table):
    result, _ = table
    for p in (1.0, 2.0):
        # GOSPA grows strictly with extra missed targets and with extra false targets
        for n_false in TABLE1_N_FALSE:
            values = [result.estimate("gospa", p, m, n_false).value
                      for m in TABLE1_N_MISSED]
            assert values[0] < values[1] < values[2]
        for n_missed in TABLE1_N_MISSED:
            values = [result.estimate("gospa", p, n_missed, n).value
                      for n in TABLE1_N_FALSE]
            assert all(a < b for a, b in zip(values, values[1:]))
        # unnormalized OSPA wrongly shrinks when more targets are missed
        for n_false in (3, 10):
            values = [result.estimate("uospa", p, m, n_false).value
                      for m in TABLE1_N_MISSED]
            assert values[0] > values[1] > values[2]
        # OSPA is flat where the estimate quality clearly differs
        two_missed = [result.estimate("ospa", p, 2, n).value for n in TABLE1_N_FALSE]
        assert max(two_missed) - min(two_missed) <= 1e-12
        assert abs(result.estimate("ospa", p, 1, 0).value
                   - result.estimate("ospa", p, 1, 1).value) <= 1e-9
        assert abs(result.estimate("uospa", p, 1, 0).value
                   - result.estimate("uospa", p, 1, 1).value) <= 1e-9
    _pass(7, "trend directions: GOSPA up both axes, uOSPA down missed axis, OSPA flat")


def test_criterion_08_empty_truth_examples():
    for j in range(1, 11):
        points = [[60.0 * k, 0.0] for k in range(j)]
        for p in (1.0, 2.0):
            assert ospa([], points, c=8.0, p=p) == pytest.approx(8.0, abs=1e-12)
        unnormalized = gospa([], points, GospaParams(c=8.0, alpha=1.0, p=1.0)).total
        assert unnormalized == pytest.approx(8.0 * j, abs=1e-9)
    _pass(8, "empty truth: OSPA stays at c, GOSPA(alpha=1) grows as j*c")


def test_criterion_09_two_target_example():
    truth = [[0.0, 0.0], [100.0, 0.0]]
    with_false = [[1.0, 0.0], [50.0, 50.0]]
    missing = [[1.0, 0.0]]
    params = GospaParams(c=8.0, alpha=2.0, p=1.0)
    assert gospa(truth, with_false, params).total == pytest.approx(9.0, abs=1e-12)
    assert gospa(truth, missing, params).total == pytest.approx(5.0, abs=1e-12)
    ospa_false = ospa(truth, with_false, c=8.0, p=1.0)
    ospa_missing = ospa(truth, missing, c=8.0, p=1.0)
    assert ospa_false == pytest.approx(4.5, abs=1e-12)
    assert ospa_false == pytest.approx(ospa_missing, abs=1e-12)
    _pass(9, "two-target example: GOSPA separates the estimates, OSPA cannot")


def _random_params(rng) -> GospaParams:
    return GospaParams(
        c=float(rng.uniform(0.5, 10.0)),
        alpha=float(rng.uniform(0.05, 2.0)),
        p=float(rng.choice([1.0, 1.5, 2.0, 3.0])),
    )


def test_criterion_10_triangle_inequality():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        dim = int(rng.integers(1, 5))
        params = _random_params(rng)
        x = random_target_set(rng, 6, dim)
        y = random_target_set(rng, 6, dim)
        z = random_target_set(rng, 6, dim)
        d_xy = gospa(x, y, params).total
        d_xz = gospa(x, z, params).total
        d_zy = gospa(z, y, params).total
        assert d_xy <= d_xz + d_zy + 1e-9
    _pass(10, "triangle inequality over 1000 random triples and parameter draws")


def test_criterion_11_three_way_equivalence():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        dim = int(rng.integers(1, 4))
        c = float(rng.uniform(0.5, 10.0))
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        params = GospaParams(c=c, alpha=2.0, p=p)
        x = random_target_set(rng, 5, dim)
        y = random_target_set(rng, 5, dim)
        via_assignment = gospa(x, y, params).total
        via_permutation = gospa_permutation_form(x, y, params)
        via_oracle = gospa_alpha2_assignment_oracle(x, y, c, p)
        assert via_assignment == pytest.approx(via_permutation, rel=1e-9, abs=1e-12)
        assert via_assignment == pytest.approx(via_oracle, rel=1e-9, abs=1e-12)
    _pass(11, "definition, assignment form and exhaustive oracle agree on 1000 cases")


def test_criterion_12_solver_matches_brute_force():
    rng = np.random.default_rng(12)
    for trial in range(1000):
        n_rows = int(rng.integers(1, 8))
        n_cols = int(rng.integers(n_rows, 9))
        if trial % 2:
            matrix = rng.uniform(0.0, 100.0, size=(n_rows, n_cols))
        else:
            matrix = rng.integers(0, 5, size=(n_rows, n_cols)).astype(float)
        fast = solve_full_assignment(matrix)
        slow = brute_force_assignment(matrix)
        assert fast.total_cost == pytest.approx(slow.total_cost, rel=1e-9, abs=1e-12)
        if trial % 2 == 0:
            assert fast.pairs == slow.pairs  # exact arithmetic: tie-breaks must agree
    _pass(12, "assignment solver matches the exhaustive oracle on 1000 matrices")


def test_criterion_13_decomposition_identity_and_far_point_additivity():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        dim = int(rng.integers(1, 5))
        c = float(rng.uniform(0.5, 10.0))
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        params = GospaParams(c=c, alpha=2.0, p=p)
        x = random_target_set(rng, 5, dim)
        y = random_target_set(rng, 5, dim)
        result = gospa(x, y, params)
        reconstructed = (result.localization_cost_p + result.missed_cost_p
                         + result.false_cost_p)
        assert result.total ** p == pytest.approx(reconstructed, rel=1e-12, abs=1e-12)
        for i, j in result.assignment.pairs:
            assert np.linalg.norm(x[i] - y[j]) < c

        far = np.full((1, dim), 25.0 + 3.0 * c)  # beyond c from every coordinate box
        grown = gospa(x, np.vstack([y, far]) if len(y) else far, params)
        assert grown.total ** p - result.total ** p == pytest.approx(
            c ** p / 2.0, rel=1e-12, abs=1e-9)
        assert grown.false_count == result.false_count + 1
    _pass(13, "decomposition identity and +c^p/2 far-point additivity on 1000 cases")


def test_criterion_14_closed_form_matches_alpha1_gospa():
    rng = np.random.default_rng(14)
    cases = 0
    while cases < 1000:
        for n_false in (0, 1, 2, 3, 10):
            for n_missed in (0, 1, 2):
                dim = int(rng.integers(1, 5))
                c = float(rng.uniform(0.5, 10.0))
                p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
                direction = rng.normal(size=dim)
                direction /= np.linalg.norm(direction)
                first = rng.uniform(-5.0 * c, 5.0 * c, size=dim)
                truths = np.vstack([first, first + direction * 12.0 * c])
                estimates = []
                drawn = []
                for t in range(2 - n_missed):
                    offset = rng.normal(size=dim)
                    offset /= np.linalg.norm(offset)
                    estimates.append(truths[t] + offset * rng.uniform(0.0, 0.95 * c))
                    drawn.append(float(np.linalg.norm(estimates[-1] - truths[t])))
                for k in range(n_false):
                    estimates.append(first + direction * (40.0 * c + 5.0 * c * k))
                d1 = drawn[0] if len(drawn) > 0 else 0.0
                d2 = drawn[1] if len(drawn) > 1 else 0.0
                expected = unnormalized_ospa_closed_form(n_false, n_missed, d1, d2, c, p)
                actual = gospa(truths, np.array(estimates).reshape(len(estimates), dim),
                               GospaParams(c=c, alpha=1.0, p=p)).total
                assert actual == pytest.approx(expected, rel=1e-9, abs=1e-12)
                cases += 1
    _pass(14, "closed-form unnormalized OSPA matches GOSPA(alpha=1) on 1000 geometries")


def test_criterion_15_reproducible_cli_and_parallel_agreement(capsys):
    argv = ["table1", "--samples", "60", "--seed", "7"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert cli.main(argv + ["--workers", "4"]) == 0
    parallel = capsys.readouterr().out
    assert first == second == parallel
    _pass(15, "byte-identical CLI reruns, whatever the --workers value")
