"""Tests for the command-line interface."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gospa import cli, documents, metrics, rfs


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_points(path, points):
    path.write_text(json.dumps(documents.point_set_to_document(points)))
    return str(path)


def write_model(path, model):
    path.write_text(json.dumps(documents.multi_bernoulli_to_document(model)))
    return str(path)


@pytest.fixture
def example_files(tmp_path):
    truth = write_points(tmp_path / "truth.json", [[0.0, 0.0], [100.0, 0.0]])
    with_false = write_points(tmp_path / "with_false.json", [[1.0, 0.0], [50.0, 50.0]])
    missing = write_points(tmp_path / "missing.json", [[1.0, 0.0]])
    return truth, with_false, missing


class TestCompute:
    def test_identical_files_zero(self, capsys, tmp_path):
        path = write_points(tmp_path / "a.json", [[1.0, 2.0], [3.0, 4.0]])
        code, out, err = run_cli(capsys, "compute", path, path, "--c", "8")
        assert code == 0
        assert "total: 0" in out

    def test_example_totals(self, capsys, example_files):
        truth, with_false, missing = example_files
        code, out, _ = run_cli(capsys, "compute", truth, with_false, "--c", "8",
                               "--alpha", "2", "--p", "1")
        assert code == 0
        assert "total: 9" in out
        assert "missed targets: 1" in out
        assert "false targets: 1" in out
        assert "assignment (truth->estimate): 0->0" in out

        code, out, _ = run_cli(capsys, "compute", truth, missing, "--c", "8")
        assert code == 0
        assert "total: 5" in out

    def test_json_format(self, capsys, example_files):
        truth, with_false, _ = example_files
        code, out, _ = run_cli(capsys, "compute", truth, with_false, "--c", "8",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["total"] == pytest.approx(9.0)
        assert payload["decomposition"]["missed_count"] == 1
        assert payload["decomposition"]["false_count"] == 1
        assert payload["assignment"] == [[0, 0]]
        assert payload["config"]["alpha"] == 2.0

    def test_csv_format(self, capsys, example_files):
        truth, with_false, _ = example_files
        code, out, _ = run_cli(capsys, "compute", truth, with_false, "--c", "8",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert float(rows[0]["total"]) == pytest.approx(9.0)
        assert rows[0]["assignment"] == "0:0"

    def test_ospa_on_empty_truth(self, capsys, tmp_path):
        empty = write_points(tmp_path / "empty.json", np.zeros((0, 2)))
        three = write_points(tmp_path / "three.json",
                             [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        code, out, _ = run_cli(capsys, "compute", empty, three, "--c", "8",
                               "--metric", "ospa")
        assert code == 0
        assert "total: 8" in out

    def test_uospa_metric(self, capsys, tmp_path):
        empty = write_points(tmp_path / "empty.json", np.zeros((0, 2)))
        three = write_points(tmp_path / "three.json",
                             [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        code, out, _ = run_cli(capsys, "compute", empty, three, "--c", "8",
                               "--metric", "uospa")
        assert code == 0
        assert "total: 24" in out

    def test_alpha_not_two_reports_no_decomposition(self, capsys, example_files):
        truth, with_false, _ = example_files
        code, out, _ = run_cli(capsys, "compute", truth, with_false, "--c", "8",
                               "--alpha", "1.5")
        assert code == 0
        assert "decomposition: not applicable" in out

    def test_csv_point_file(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("0.0, 0.0\n3.0, 4.0\n")
        b = write_points(tmp_path / "b.json", [[0.0, 0.0], [3.0, 4.0]])
        code, out, _ = run_cli(capsys, "compute", str(a), b, "--c", "8")
        assert code == 0
        assert "total: 0" in out

    def test_precision_flag(self, capsys, tmp_path):
        a = write_points(tmp_path / "a.json", [[0.0, 0.0]])
        b = write_points(tmp_path / "b.json", [[1.0, 1.0]])
        code, out, _ = run_cli(capsys, "compute", a, b, "--c", "8", "--precision", "12")
        assert code == 0
        assert "total: 1.41421356237" in out

    def test_dimension_mismatch_exit_2(self, capsys, tmp_path):
        a = write_points(tmp_path / "a.json", [[0.0, 0.0]])
        b = write_points(tmp_path / "b.json", [[0.0, 0.0, 0.0]])
        code, _, err = run_cli(capsys, "compute", a, b, "--c", "8")
        assert code == 2
        assert "dimension" in err

    def test_states_without_coordinates_exit_2(self, capsys, tmp_path):
        paths = []
        for name, points in (("a", [[], []]), ("b", [[]]), ("empty", [])):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps({"dimension": 0, "points": points}))
        a, b, empty = map(str, paths)
        for pair in ((a, b), (a, empty), (empty, b)):
            code, out, err = run_cli(capsys, "compute", *pair, "--c", "8")
            assert (code, out) == (2, "")
            assert "at least one coordinate" in err
        code, out, _ = run_cli(capsys, "compute", empty, empty, "--c", "8")
        assert code == 0 and "total: 0" in out

    def test_parse_failure_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        good = write_points(tmp_path / "good.json", [[0.0]])
        code, _, err = run_cli(capsys, "compute", str(bad), good, "--c", "8")
        assert code == 2
        assert "error:" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        good = write_points(tmp_path / "good.json", [[0.0]])
        code, _, err = run_cli(capsys, "compute", str(tmp_path / "nope.json"), good,
                               "--c", "8")
        assert code == 2

    def test_invalid_params_exit_2(self, capsys, tmp_path):
        a = write_points(tmp_path / "a.json", [[0.0]])
        code, _, err = run_cli(capsys, "compute", a, a, "--c", "-1")
        assert code == 2
        assert "c must be positive" in err

    @pytest.mark.parametrize("metric", ["gospa", "ospa", "uospa"])
    def test_overflowing_cutoff_power_with_an_empty_set_exit_2(self, capsys, tmp_path, metric):
        empty = write_points(tmp_path / "empty.json", np.zeros((0, 2)))
        one = write_points(tmp_path / "one.json", [[0.0, 0.0]])
        code, out, err = run_cli(capsys, "compute", empty, one, "--c", "8", "--p", "400",
                                 "--metric", metric)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_integer_beyond_the_float_range_exit_2(self, capsys, tmp_path):
        huge = tmp_path / "huge.json"
        huge.write_text('{"dimension": 1, "points": [[1%s]]}' % ("0" * 400))
        one = write_points(tmp_path / "one.json", [[0.0]])
        code, out, err = run_cli(capsys, "compute", str(huge), one, "--c", "8")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "non-finite coordinate" in err

    def test_usage_error_exit_2(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "compute")
        assert code == 2
        code, _, _ = run_cli(capsys, "nonsense")
        assert code == 2

    def test_internal_error_exit_1(self, capsys, tmp_path, monkeypatch):
        a = write_points(tmp_path / "a.json", [[0.0]])
        monkeypatch.setattr(cli.metrics, "gospa",
                            lambda *args, **kwargs: 1 / 0)
        code, _, err = run_cli(capsys, "compute", a, a, "--c", "8")
        assert code == 1
        assert "internal error" in err


def _lines(*lines, end="\n"):
    return "".join(line + end for line in lines)


_CSV_HEADER = ("metric,c,alpha,p,truth_size,estimate_size,total,localization_cost_p,"
               "missed_count,false_count,missed_cost_p,false_cost_p,assignment")
_COMPUTE_CONFIG = {"c": 8.0, "p": 1.0, "base_distance": "euclidean"}

# Exact stdout of `compute` on the example files (truth, with_false), by
# metric and format.
COMPUTE_GOLDEN = {
    ("gospa", "text"): _lines(
        "metric: gospa",
        "c: 8   alpha: 2   p: 1   base: euclidean",
        "truth size: 2   estimate size: 2",
        "total: 9",
        "localization cost^p: 1",
        "missed targets: 1 (cost^p: 4)",
        "false targets: 1 (cost^p: 4)",
        "assignment (truth->estimate): 0->0"),
    ("gospa", "json"): json.dumps({
        "command": "compute", "metric": "gospa",
        "config": {**_COMPUTE_CONFIG, "alpha": 2.0},
        "truth_size": 2, "estimate_size": 2, "total": 9.0,
        "decomposition": {"localization_cost_p": 1.0, "missed_count": 1, "false_count": 1,
                          "missed_cost_p": 4.0, "false_cost_p": 4.0},
        "assignment": [[0, 0]],
    }, indent=2) + "\n",
    ("gospa", "csv"): _lines(_CSV_HEADER, "gospa,8,2,1,2,2,9,1,1,1,4,4,0:0", end="\r\n"),
    ("ospa", "text"): _lines(
        "metric: ospa",
        "c: 8   p: 1   base: euclidean",
        "truth size: 2   estimate size: 2",
        "total: 4.5"),
    ("ospa", "json"): json.dumps({
        "command": "compute", "metric": "ospa", "config": _COMPUTE_CONFIG,
        "truth_size": 2, "estimate_size": 2, "total": 4.5,
    }, indent=2) + "\n",
    ("ospa", "csv"): _lines(_CSV_HEADER, "ospa,8,,1,2,2,4.5,,,,,,", end="\r\n"),
}

# Options of further `compute` runs, on the example files or, for
# "empty_truth", on an empty truth set against with_false; and their exact
# stdout.
COMPUTE_CASE_OPTIONS = {
    "uospa": ("--c", "8", "--metric", "uospa"),
    "alpha_1.5": ("--c", "8.123456789", "--p", "2", "--alpha", "1.5"),
    "empty_truth": ("--c", "8"),
}
COMPUTE_CASE_GOLDEN = {
    ("uospa", "text"): _lines(
        "metric: uospa",
        "c: 8   p: 1   base: euclidean",
        "truth size: 2   estimate size: 2",
        "total: 9"),
    ("uospa", "json"): json.dumps({
        "command": "compute", "metric": "uospa", "config": _COMPUTE_CONFIG,
        "truth_size": 2, "estimate_size": 2, "total": 9.0,
    }, indent=2) + "\n",
    ("uospa", "csv"): _lines(_CSV_HEADER, "uospa,8,,1,2,2,9,,,,,,", end="\r\n"),
    # JSON echoes the configuration unrounded; CSV rounds every float
    ("alpha_1.5", "json"): json.dumps({
        "command": "compute", "metric": "gospa",
        "config": {"c": 8.123456789, "p": 2.0, "base_distance": "euclidean", "alpha": 1.5},
        "truth_size": 2, "estimate_size": 2, "total": 8.18478,
    }, indent=2) + "\n",
    ("alpha_1.5", "csv"): _lines(_CSV_HEADER, "gospa,8.12346,1.5,2,2,2,8.18478,,,,,,",
                                 end="\r\n"),
    ("empty_truth", "text"): _lines(
        "metric: gospa",
        "c: 8   alpha: 2   p: 1   base: euclidean",
        "truth size: 0   estimate size: 2",
        "total: 8",
        "localization cost^p: 0",
        "missed targets: 0 (cost^p: 0)",
        "false targets: 2 (cost^p: 8)",
        "assignment (truth->estimate): none"),
    ("empty_truth", "json"): json.dumps({
        "command": "compute", "metric": "gospa",
        "config": {**_COMPUTE_CONFIG, "alpha": 2.0},
        "truth_size": 0, "estimate_size": 2, "total": 8.0,
        "decomposition": {"localization_cost_p": 0.0, "missed_count": 0, "false_count": 2,
                          "missed_cost_p": 0.0, "false_cost_p": 8.0},
        "assignment": [],
    }, indent=2) + "\n",
    ("empty_truth", "csv"): _lines(_CSV_HEADER, "gospa,8,2,1,0,2,8,0,0,2,0,8,", end="\r\n"),
}

# SHA-256 of the stdout of `table1 --samples 100 --seed 1`, by format and
# --precision.
TABLE1_GOLDEN_SHA256 = {
    ("text", "6"): "b218ccdf9ebf49a9c620458df3d2bbd1624f9682189401414651c328206a4e65",
    ("csv", "6"): "45eab5e28811dcd409d03f663bb1c5b45f6b4d0259a14286185038d9fa21f01f",
    ("text", "17"): "d729df886555b0bf7d741bf86d3e09b97e56c3f70bce5aae3351ca4e2145bab6",
    ("csv", "17"): "859c496120de371a84bb0b882c3fb8ecb2e6ccfca935519eddc39f956ee79ceb",
}


class TestGoldenOutput:
    @pytest.mark.parametrize("metric,fmt", sorted(COMPUTE_GOLDEN))
    def test_compute_exact_stdout(self, capsys, example_files, metric, fmt):
        truth, with_false, _ = example_files
        code, out, _ = run_cli(capsys, "compute", truth, with_false, "--c", "8",
                               "--metric", metric, "--format", fmt)
        assert code == 0
        assert out == COMPUTE_GOLDEN[metric, fmt]

    def test_compute_precision_exact_stdout(self, capsys, example_files):
        truth, with_false, _ = example_files
        code, out, _ = run_cli(capsys, "compute", truth, with_false, "--c", "8",
                               "--p", "2", "--precision", "12")
        assert code == 0
        assert out == _lines(
            "metric: gospa",
            "c: 8   alpha: 2   p: 2   base: euclidean",
            "truth size: 2   estimate size: 2",
            "total: 8.0622577483",
            "localization cost^p: 1",
            "missed targets: 1 (cost^p: 32)",
            "false targets: 1 (cost^p: 32)",
            "assignment (truth->estimate): 0->0")

    @pytest.mark.parametrize("case, fmt", sorted(COMPUTE_CASE_GOLDEN))
    def test_compute_case_exact_stdout(self, capsys, tmp_path, example_files, case, fmt):
        truth, with_false, _ = example_files
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"dimension": 2, "points": []}))
        inputs = (str(empty), with_false) if case == "empty_truth" else (truth, with_false)
        code, out, _ = run_cli(capsys, "compute", *inputs, *COMPUTE_CASE_OPTIONS[case],
                               "--format", fmt)
        assert code == 0
        assert out == COMPUTE_CASE_GOLDEN[case, fmt]

    @pytest.mark.parametrize("fmt, precision", sorted(TABLE1_GOLDEN_SHA256))
    def test_table1_exact_stdout(self, capsys, fmt, precision):
        code, out, _ = run_cli(capsys, "table1", "--samples", "100", "--seed", "1",
                               "--format", fmt, "--precision", precision)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            TABLE1_GOLDEN_SHA256[fmt, precision]


def clustered_point_files(tmp_path):
    """Point files whose pairs closer than c = 2 form complete clusters far
    apart: lone pairs and clusters of 2 x 2, 3 x 3, 2 x 3, 5 x 4 and 6 x 6
    targets, the last two beyond the enumeration limits, with every
    target's index shuffled."""
    rng = np.random.default_rng(17)
    shapes = [(1, 1)] * 6 + [(2, 2)] * 4 + [(3, 3)] * 3 + [(2, 3), (5, 4), (6, 6), (1, 0)]
    truths, estimates = [], []
    for site, (n_x, n_y) in enumerate(shapes):
        centre = np.array([100.0 * site, 0.0])
        truths.extend(centre + rng.uniform(0.0, 0.5, (n_x, 2)))
        estimates.extend(centre + rng.uniform(0.0, 0.5, (n_y, 2)))
    return (write_points(tmp_path / "truth.json", rng.permutation(truths)),
            write_points(tmp_path / "estimate.json", rng.permutation(estimates)))


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


# SHA-256 of the whole stdout of two full-precision runs, and the first 8
# hex digits of each cell's digest, to name the first cell that moved.
FULL_PRECISION_GOLDEN = {
    "table1": ("c5384017e2241c3c5028378668ae64e134f7557223c0ad41bc42a3adf1c9930a",
               "d3c40a30 a1b7bbba 05b8f55d ae8c0ece bd248813 4236805f 45297cb6 2660251c "
               "366dbcba 469e89d7 cdab410c 2eb38b5c 1f58cbf6 99dc4f05 c335b0d8 b3d4d73d "
               "e04a8db4 4c00e92e 23ce9f08 82503240 e602bd0d bd206c7c ef4e8e90 84dd23a9 "
               "7dbc238a 755e5e5c 13e09d58 385e6273 682e8900 b57b3bb5 c0139f13 fb82220b "
               "3994bbea 1fe73076 bcd7e5a5 08bab9e2 2e6d81b7 9854947f a2b52c07 af621ae2 "
               "d0be608e 38510773 37de4f6e ce0168c6 40c3b7c8 2d92dab7 79f2c945 93515819 "
               "f51d75e3 a9933d01 406a2154 f3c9527e 8aabb38c 40f695a4 3e24af23 b0d75173 "
               "20ecd152 813e2b7d 5856c2be b583ab75 2a8ed353 eddb41f1 07b7fc1e 3d1c9417 "
               "424d528f 4bf485a1 159da41d 33055940 91e826a6 f63ac586 44a5f255 338a3e6f"),
    "compute": ("190409279a775d8df9b3e7ef404e9b1dffcb1dc3c8217d5e7bd66e94fd883dcd",
                "9b08b924 689a654e a49863a2 7a61b537 76a50887 97bb341d 00452610 2d10dffd"),
}


@pytest.mark.parametrize("command", sorted(FULL_PRECISION_GOLDEN))
def test_full_precision_stdout_is_pinned(capsys, tmp_path, command):
    if command == "table1":
        argv = ["table1", "--samples", "1000", "--seed", "1"]
    else:
        argv = ["compute", *clustered_point_files(tmp_path), "--c", "2", "--p", "2"]
    code, out, _ = run_cli(capsys, *argv, "--format", "json", "--precision", "17")
    assert code == 0
    whole, cells = FULL_PRECISION_GOLDEN[command]
    if hashlib.sha256(out.encode()).hexdigest() == whole:
        return
    document = json.loads(out)
    named = ([(f"{cell['metric']} p={cell['p']} missed={cell['n_missed']} "
               f"false={cell['n_false']}", cell) for cell in document["cells"]]
             if command == "table1" else list(document.items()))
    expected = cells.split()
    moved = [name for k, (name, value) in enumerate(named)
             if k >= len(expected) or _digest(value)[:8] != expected[k]]
    pytest.fail(f"{command} stdout changed; first differing cell: "
                f"{moved[0] if moved else 'none (the layout changed)'}")


def _cpu_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # NumPy 1
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


# NumPy's dispatch lowered from AVX-512 to AVX2, in the child process alone
LOWERED_DISPATCH = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


@pytest.mark.skipif(not all(_cpu_features().get(name) for name in
                            LOWERED_DISPATCH["NPY_DISABLE_CPU_FEATURES"].split()),
                    reason="NumPy dispatches no AVX-512 code on this host")
def test_outputs_do_not_depend_on_numpys_simd_dispatch(tmp_path):
    # At p = 1 and 2 every power and root is a correctly rounded IEEE
    # operation, whatever code NumPy dispatches.  Any other p is left out:
    # there each edge's d**p is NumPy's float64 power, chosen per CPU, and
    # a total may move in the last bit.
    probe = subprocess.run(
        [sys.executable, "-c", "from numpy._core._multiarray_umath import __cpu_features__; "
         "print(__cpu_features__['X86_V4'])"],
        env={**os.environ, **LOWERED_DISPATCH}, capture_output=True, text=True, timeout=120)
    assert probe.stdout == "False\n", probe.stderr
    commands = [["table1", "--samples", "1000", "--seed", "1"],
                ["compute", *clustered_point_files(tmp_path), "--c", "2", "--p", "2"]]
    for argv in commands:
        outputs = [subprocess.run(
            [sys.executable, "-m", "gospa", *argv, "--format", "json", "--precision", "17"],
            env={**os.environ, **lowered}, capture_output=True, text=True, timeout=120)
            for lowered in ({}, LOWERED_DISPATCH)]
        assert [done.returncode for done in outputs] == [0, 0], outputs[1].stderr
        assert outputs[0].stdout == outputs[1].stdout


def test_a_zero_total_at_p_2_prints_0(capsys, example_files):
    # the square root of a zero total is +0.0, as libm's pow gives it
    truth, _, _ = example_files
    code, out, _ = run_cli(capsys, "compute", truth, truth, "--c", "8", "--p", "2")
    assert code == 0
    assert "total: 0\n" in out
    code, out, _ = run_cli(capsys, "compute", truth, truth, "--c", "8", "--p", "2",
                           "--metric", "ospa", "--format", "json", "--precision", "17")
    assert code == 0
    assert '"total": 0.0\n' in out


class TestMean:
    @pytest.fixture
    def degenerate_models(self, tmp_path):
        zero = np.zeros((2, 2))
        truth = rfs.MultiBernoulli((
            rfs.BernoulliComponent(1.0, [-6.0, -6.0], zero),
            rfs.BernoulliComponent(1.0, [0.0, 3.0], zero),
        ))
        estimate = rfs.MultiBernoulli((
            rfs.BernoulliComponent(1.0, [-6.7, -5.1], zero),
            rfs.BernoulliComponent(1.0, [-1.8, 2.9], zero),
        ))
        return (write_model(tmp_path / "truth.json", truth),
                write_model(tmp_path / "estimate.json", estimate))

    def test_degenerate_matches_compute(self, capsys, degenerate_models):
        truth, estimate = degenerate_models
        code, out, _ = run_cli(capsys, "mean", truth, estimate, "--c", "8",
                               "--samples", "32", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        expected = metrics.gospa([[-6.0, -6.0], [0.0, 3.0]],
                                 [[-6.7, -5.1], [-1.8, 2.9]],
                                 metrics.GospaParams(c=8.0)).total
        assert payload["value"] == pytest.approx(expected, rel=1e-6)
        assert payload["standard_error"] == pytest.approx(0.0, abs=1e-9)

    def test_csv_exact_stdout(self, capsys, degenerate_models):
        truth, estimate = degenerate_models
        code, out, _ = run_cli(capsys, "mean", truth, estimate, "--c", "8",
                               "--samples", "32", "--format", "csv")
        assert code == 0
        assert out == _lines("metric,c,alpha,p,p_prime,samples,seed,value,standard_error",
                             "gospa,8,2,1,1,32,0,2.94295,0", end="\r\n")

    def test_table_scenario_models_via_files(self, capsys, tmp_path):
        sampler = rfs.table1_scenario(2, 0)
        truth = write_model(tmp_path / "t.json", sampler.truth)
        estimate = write_model(tmp_path / "e.json", sampler.estimate)
        code, out, _ = run_cli(capsys, "mean", truth, estimate, "--c", "8",
                               "--samples", "100", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(8.0, abs=1e-9)

    def test_deterministic_per_seed(self, capsys, degenerate_models):
        truth, estimate = degenerate_models
        argv = ("mean", truth, estimate, "--c", "8", "--samples", "16",
                "--seed", "9", "--metric", "ospa")
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_p_prime_defaults_to_p(self, capsys, degenerate_models):
        truth, estimate = degenerate_models
        code, out, _ = run_cli(capsys, "mean", truth, estimate, "--c", "8",
                               "--p", "2", "--samples", "8", "--format", "json")
        assert code == 0
        assert json.loads(out)["config"]["p_prime"] == 2.0

    def test_integer_beyond_the_float_range_exit_2(self, capsys, tmp_path, degenerate_models):
        huge = tmp_path / "huge.json"
        huge.write_text('{"components": [{"existence": 1.0, "mean": [1%s, 0.0], '
                        '"covariance": [[1.0, 0.0], [0.0, 1.0]]}]}' % ("0" * 400))
        code, out, err = run_cli(capsys, "mean", str(huge), degenerate_models[1],
                                 "--c", "8", "--samples", "4")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "mean must be" in err

    def test_model_parse_failure_exit_2(self, capsys, tmp_path, degenerate_models):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"components": []}))
        code, _, err = run_cli(capsys, "mean", str(bad), degenerate_models[1],
                               "--c", "8")
        assert code == 2
        assert "components" in err


def clustered_model_documents(seed, components):
    """Truth and estimate models with every estimate component a perturbed
    copy of one truth component, so close pairs and small clusters abound."""
    rng = np.random.default_rng([seed, 1])
    means = rng.uniform(0.0, 1000.0, (components, 2))
    offsets = rng.normal(0.0, 2.0, (components, 2))

    def document(centres, low, high):
        existence = rng.uniform(low, high, components)
        return {"components": [
            {"existence": float(e), "mean": [float(v) for v in m],
             "covariance": [[1.0, 0.0], [0.0, 1.0]]}
            for e, m in zip(existence, centres)]}

    return document(means, 0.78, 0.92), document(means + offsets, 0.80, 0.94)


def _mean_json(metric, alpha, p_prime, value, standard_error):
    return json.dumps({
        "command": "mean", "metric": metric,
        "config": {"c": 10.0, "alpha": alpha, "p": 2.0, "p_prime": p_prime,
                   "samples": 1000, "seed": 3},
        "value": value, "standard_error": standard_error, "samples": 1000}, indent=2) + "\n"


CLUSTERED_MEAN_GOLDEN = {
    ("--format", "text"): _lines(
        "metric: gospa",
        "c: 10   alpha: 2   p: 2   p': 2",
        "samples: 1000   seed: 3",
        "value: 33.014625174878574",
        "standard error: 0.060120609511973629"),
    ("--format", "json", "--alpha", "1", "--base-distance", "manhattan"):
        _mean_json("gospa", 1.0, 2.0, 39.67604598959685, 0.0762192139214106),
    ("--format", "json", "--metric", "ospa", "--p-prime", "1"):
        _mean_json("ospa", 2.0, 1.0, 5.269533413079461, 0.013123884823314768),
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("options", sorted(CLUSTERED_MEAN_GOLDEN))
def test_mean_exact_stdout_on_clustered_models(capsys, tmp_path, options, workers):
    truth_doc, estimate_doc = clustered_model_documents(3, 50)
    truth, estimate = tmp_path / "truth.json", tmp_path / "estimate.json"
    truth.write_text(json.dumps(truth_doc))
    estimate.write_text(json.dumps(estimate_doc))
    code, out, _ = run_cli(capsys, "mean", str(truth), str(estimate), "--c", "10", "--p", "2",
                           "--samples", "1000", "--seed", "3", "--precision", "17",
                           "--workers", workers, *options)
    assert code == 0
    assert out == CLUSTERED_MEAN_GOLDEN[options]


# Roots and outer powers at p = 3.7, and an outer power at p = 1, are each
# libm's pow; NumPy's array power differs from it in the last bit for some
# values, which these digits would show.
CLUSTERED_MEAN_POWER_GOLDEN = {
    ("--p", "3.7", "--p-prime", "1.5", "--alpha", "0.5"): _lines(
        "metric: gospa",
        "c: 10   alpha: 0.5   p: 3.7000000000000002   p': 1.5",
        "samples: 1000   seed: 3",
        "value: 19.44915335925154",
        "standard error: 0.054981641480847658"),
    ("--p", "3.7", "--p-prime", "1.5", "--metric", "ospa"): _lines(
        "metric: ospa",
        "c: 10   alpha: 2   p: 3.7000000000000002   p': 1.5",
        "samples: 1000   seed: 3",
        "value: 6.4788698562317819",
        "standard error: 0.012874766797670873"),
    ("--p", "3.7", "--p-prime", "1.5", "--metric", "uospa"): _lines(
        "metric: uospa",
        "c: 10   alpha: 2   p: 3.7000000000000002   p': 1.5",
        "samples: 1000   seed: 3",
        "value: 18.068478976745354",
        "standard error: 0.034365033955527799"),
    ("--p", "1", "--p-prime", "2.5"): _lines(
        "metric: gospa",
        "c: 10   alpha: 2   p: 1   p': 2.5",
        "samples: 1000   seed: 3",
        "value: 179.89596419818488",
        "standard error: 0.32660243559479485"),
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("options", sorted(CLUSTERED_MEAN_POWER_GOLDEN))
def test_mean_powers_are_pinned_on_clustered_models(capsys, tmp_path, options, workers):
    truth_doc, estimate_doc = clustered_model_documents(3, 50)
    truth, estimate = tmp_path / "truth.json", tmp_path / "estimate.json"
    truth.write_text(json.dumps(truth_doc))
    estimate.write_text(json.dumps(estimate_doc))
    code, out, _ = run_cli(capsys, "mean", str(truth), str(estimate), "--c", "10",
                           "--samples", "1000", "--seed", "3", "--precision", "17",
                           "--workers", workers, *options)
    assert code == 0
    assert out == CLUSTERED_MEAN_POWER_GOLDEN[options]


@pytest.fixture
def remote_models(tmp_path):
    """A sure truth at the origin and a likely-absent estimate 1e200 away."""
    truth = rfs.MultiBernoulli((rfs.BernoulliComponent(1.0, [0.0, 0.0], np.eye(2)),))
    estimate = rfs.MultiBernoulli((rfs.BernoulliComponent(0.5, [1e200, 0.0], np.eye(2)),))
    return (write_model(tmp_path / "t.json", truth), write_model(tmp_path / "e.json", estimate))


@pytest.mark.parametrize("options", [
    ["--c", "1e200", "--p", "1", "--p-prime", "2"],
    ["--metric", "ospa", "--c", "1e300", "--p", "1", "--p-prime", "1.5"],
])
def test_overflowing_outer_power_exit_2(capsys, remote_models, options):
    code, out, err = run_cli(capsys, "mean", *remote_models, *options, "--samples", "50")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "overflows" in err


@pytest.mark.parametrize("options, error", [
    (["--p", "1", "--p-prime", "2"], "a metric value to the power p' = 2 overflows a float"),
    (["--p", "2"], "cost matrix entries must be finite"),
])
def test_an_overflowing_square_prints_only_the_error(remote_models, options, error):
    # at p' = 2 and p = 2 a square is v * v, which overflows to inf rather
    # than raising as pow does; it is still an input error, with no warning
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "gospa", "mean", *remote_models,
         "--c", "1e200", *options, "--samples", "50"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == f"error: {error}\n"


def test_standard_error_of_huge_values_is_finite(remote_models):
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "gospa", "mean", *remote_models,
         "--c", "1e150", "--p", "2", "--samples", "50"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    lines = dict(line.split(": ", 1) for line in done.stdout.splitlines()[2:])
    assert 1e149 < float(lines["value"]) < 1e150
    assert 0.0 < float(lines["standard error"]) < 1e150


def test_mean_of_powers_whose_sum_overflows_is_finite(remote_models):
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "gospa", "mean", *remote_models,
         "--c", "1.2e154", "--p", "2", "--samples", "50"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    lines = dict(line.split(": ", 1) for line in done.stdout.splitlines()[2:])
    assert 1.2e154 / np.sqrt(2.0) < float(lines["value"]) < 1.2e154
    assert 0.0 < float(lines["standard error"]) < float(lines["value"])


@pytest.mark.parametrize("command, c, p", [("compute", "8", "400"), ("compute", "3", "700"),
                                           ("mean", "8", "400")])
def test_an_overflowing_cut_off_power_prints_only_the_error(tmp_path, remote_models,
                                                             command, c, p):
    if command == "compute":
        inputs = (write_points(tmp_path / "x.json", [[0.0, 0.0], [1.0, 1.0]]),
                  write_points(tmp_path / "y.json", [[0.5, 0.0]]))
    else:
        inputs = (*remote_models, "--samples", "50")
    done = subprocess.run(
        [sys.executable, "-m", "gospa", command, *inputs, "--c", c, "--p", p],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: cost matrix entries must be finite\n"


def test_an_overflowing_total_prints_only_the_error(tmp_path):
    # c**p is finite, but the GOSPA sum (c**p / 2) * 4 is not
    truth = write_points(tmp_path / "x.json", [[1e3 * k, 0.0] for k in range(4)])
    estimate = tmp_path / "y.json"
    estimate.write_text(json.dumps({"dimension": 2, "points": []}))
    done = subprocess.run(
        [sys.executable, "-m", "gospa", "compute", truth, str(estimate), "--c", "1e308",
         "--p", "1"], capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: cost matrix entries must be finite\n"


def test_coordinates_whose_difference_overflows_print_only_the_result(tmp_path):
    truth = write_points(tmp_path / "x.json", [[1e308]])
    estimate = write_points(tmp_path / "y.json", [[-1e308]])
    done = subprocess.run(
        [sys.executable, "-m", "gospa", "compute", truth, estimate, "--c", "1", "--p", "2"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0
    assert done.stderr == ""
    assert "total: 1\n" in done.stdout


def test_the_parser_is_built_once(capsys, tmp_path):
    path = write_points(tmp_path / "a.json", [[0.0, 0.0]])
    assert cli.build_parser() is cli.build_parser()
    # parsing leaves the shared parser as it was
    for argv in (["compute", path, path, "--c", "8", "--format", "json"],
                 ["compute", path, path, "--c", "8"]):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
    assert out.startswith("metric: gospa\n")


@pytest.mark.parametrize("command", ["table1", "mean"])
def test_samples_beyond_memory_exit_2(capsys, monkeypatch, remote_models, command):
    real_empty = np.empty
    huge = 10 ** 11

    def empty(shape, *args, **kwargs):
        if huge in np.atleast_1d(shape):
            raise MemoryError("cannot allocate")
        return real_empty(shape, *args, **kwargs)

    monkeypatch.setattr(rfs.np, "empty", empty)
    argv = ["table1"] if command == "table1" else ["mean", *remote_models, "--c", "8"]
    code, out, err = run_cli(capsys, *argv, "--samples", str(huge))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(huge) in err


class TestTable1:
    def test_byte_identical_reruns_and_workers(self, capsys):
        code1, out1, _ = run_cli(capsys, "table1", "--samples", "40", "--seed", "7")
        code2, out2, _ = run_cli(capsys, "table1", "--samples", "40", "--seed", "7")
        code3, out3, _ = run_cli(capsys, "table1", "--samples", "40", "--seed", "7",
                                 "--workers", "4")
        assert code1 == code2 == code3 == 0
        assert out1 == out2 == out3

    def test_seed_changes_output(self, capsys):
        _, out1, _ = run_cli(capsys, "table1", "--samples", "40", "--seed", "1")
        _, out2, _ = run_cli(capsys, "table1", "--samples", "40", "--seed", "2")
        assert out1 != out2

    def test_csv_has_72_cells(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--samples", "10", "--format", "csv")
        assert code == 0
        lines = [line for line in out.splitlines() if not line.startswith("#")]
        rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
        assert len(rows) == 72
        assert {row["metric"] for row in rows} == {"gospa", "ospa", "uospa"}

    def test_json_structure(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--samples", "10", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["config"] == {"c": 8.0, "samples": 10, "seed": 0}
        assert len(payload["cells"]) == 72

    def test_text_grid_mentions_all_metrics(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--samples", "5")
        assert code == 0
        for token in ("gospa", "ospa", "uospa", "miss=0", "p'=p=2"):
            assert token in out

    def test_invalid_samples_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "table1", "--samples", "0")
        assert code == 2


@pytest.mark.parametrize("command", [["compute", "{a}", "{a}", "--c", "8"],
                                     ["table1", "--samples", "2"]])
def test_negative_precision_exit_2_before_any_output(capsys, tmp_path, command):
    a = write_points(tmp_path / "a.json", [[0.0, 0.0]])
    argv = [arg.format(a=a) for arg in command]
    code, out, err = run_cli(capsys, *argv, "--precision", "-1")
    assert code == 2
    assert out == ""
    assert "--precision" in err
    code, out, _ = run_cli(capsys, *argv, "--precision", "0")
    assert code == 0 and out


@pytest.mark.parametrize("name, text, error", [
    ("bad.csv", "1,abc\n", "line 1: expected comma-separated numbers"),
    ("nan.csv", "1,nan\n", "line 1: coordinates must be finite"),
    ("notobj.json", '{"components": [1]}', "component 0 must be an object"),
])
def test_a_malformed_input_file_exit_2_naming_it(capsys, tmp_path, name, text, error):
    bad = tmp_path / name
    bad.write_text(text)
    if name.endswith(".csv"):
        good = write_points(tmp_path / "good.json", [[0.0]])
        argv = ["compute", str(bad), good]
    else:
        good = write_model(tmp_path / "good.json", rfs.MultiBernoulli((
            rfs.BernoulliComponent(1.0, [0.0], np.zeros((1, 1))),)))
        argv = ["mean", good, str(bad)]
    code, out, err = run_cli(capsys, *argv, "--c", "8")
    assert (code, out, err) == (2, "", f"error: {bad}: {error}\n")


def test_a_precision_that_is_no_integer_exit_2(capsys, tmp_path):
    a = write_points(tmp_path / "a.json", [[0.0, 0.0]])
    code, out, err = run_cli(capsys, "compute", a, a, "--c", "8", "--precision", "abc")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        "gospa compute: error: argument --precision: invalid int value: 'abc'")


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("command", ["compute", "mean", "table1"])
def test_an_error_after_the_computation_leaves_stdout_empty(capsys, tmp_path, command, fmt):
    if command == "compute":
        path = write_points(tmp_path / "a.json", [[0.0, 0.0]])
        argv = ["compute", path, path, "--c", "8"]
    elif command == "mean":
        model = rfs.MultiBernoulli((rfs.BernoulliComponent(0.5, [0.0, 0.0], np.eye(2)),))
        path = write_model(tmp_path / "m.json", model)
        argv = ["mean", path, path, "--c", "8", "--samples", "4"]
    else:
        argv = ["table1", "--samples", "2"]
    # a precision that Python's float formatting rejects
    code, out, err = run_cli(capsys, *argv, "--format", fmt, "--precision", "4000000000")
    assert code == 2
    assert out == ""
    assert err == "error: precision too big\n"


@pytest.mark.parametrize("metric", ["ospa", "uospa"])
def test_mean_ignores_alpha_outside_the_gospa_range_for_ospa(capsys, tmp_path, metric):
    truth_doc, estimate_doc = clustered_model_documents(5, 6)
    truth, estimate = tmp_path / "truth.json", tmp_path / "estimate.json"
    truth.write_text(json.dumps(truth_doc))
    estimate.write_text(json.dumps(estimate_doc))
    argv = ["mean", str(truth), str(estimate), "--c", "10", "--p", "2", "--samples", "50",
            "--metric", metric, "--format", "json", "--precision", "17"]
    outputs = {}
    for alpha in ("2", "1.5", "0", "3", "-1"):
        code, out, err = run_cli(capsys, *argv, "--alpha", alpha)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["config"]["alpha"] == float(alpha)
        outputs[alpha] = (payload["value"], payload["standard_error"])
    assert len(set(outputs.values())) == 1
    for alpha in ("nan", "inf"):
        code, out, err = run_cli(capsys, *argv, "--alpha", alpha)
        assert (code, out, err) == (2, "", "error: alpha must lie in (0, 2]\n")


def test_workers_help_says_it_has_no_effect(capsys):
    for command in ("mean", "table1"):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0
        assert "no effect" in " ".join(out.split())


@pytest.mark.parametrize("workers", ["0", "-1"])
@pytest.mark.parametrize("command", ["mean", "table1"])
def test_workers_below_one_exit_2(capsys, remote_models, command, workers):
    argv = ["table1"] if command == "table1" else ["mean", *remote_models, "--c", "8"]
    code, out, err = run_cli(capsys, *argv, "--samples", "20", "--workers", workers)
    assert (code, out, err) == (2, "", "error: workers must be a positive integer\n")
    # the sample count is checked first
    code, out, err = run_cli(capsys, *argv, "--samples", "0", "--workers", workers)
    assert (code, out, err) == (2, "", "error: samples must be a positive integer\n")


@pytest.mark.parametrize("depth", [1_000, 100_000])
@pytest.mark.parametrize("field", ["points", "components"])
@pytest.mark.parametrize("command", ["compute", "mean"])
def test_a_deeply_nested_file_exit_2_naming_it(capsys, tmp_path, command, field, depth):
    deep = tmp_path / "deep.json"
    deep.write_text('{"dimension": 1, "%s": %s0%s}' % (field, "[" * depth, "]" * depth))
    if command == "compute":
        good = write_points(tmp_path / "good.json", [[0.0]])
    else:
        good = write_model(tmp_path / "good.json", rfs.MultiBernoulli((
            rfs.BernoulliComponent(1.0, [0.0], np.zeros((1, 1))),)))
    code, out, err = run_cli(capsys, command, good, str(deep), "--c", "8")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {deep}: ") and err.count("\n") == 1


def test_importing_the_package_loads_no_cli_module():
    # `import gospa` is what every library user pays for; the CLI, its file
    # formats and their standard-library modules load only when asked for
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import gospa; "
            "print(sorted({'gospa.cli', 'gospa.documents', 'argparse', 'csv', 'json', "
            "'scipy', 'hypothesis', 'fractions', 'decimal'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "gospa", "compute", "--help"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "cut-off" in result.stdout

    result = subprocess.run(
        [sys.executable, "-m", "gospa", "compute", "missing.json", "also-missing.json",
         "--c", "8"],
        capture_output=True, text=True)
    assert result.returncode == 2
