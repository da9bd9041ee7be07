"""Tests for the GOSPA / OSPA metric family."""

import collections
import functools
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gospa import metrics, rfs
from gospa.assignment import solve_full_assignment
from gospa.metrics import (
    GospaParams,
    as_state_array,
    cutoff_distance,
    gospa,
    ospa,
)

from oracles import (
    euclidean,
    gospa_alpha2_assignment_oracle,
    gospa_alpha2_gamma_oracle,
    gospa_permutation_form,
    gospa_permutation_oracle,
    iter_assignment_sets,
    manhattan,
    unnormalized_ospa_closed_form,
)

# Two well-separated truths, one close estimate pair, one far clutter point.
EXAMPLE_TRUTH = [[0.0, 0.0], [100.0, 0.0]]
EXAMPLE_EST_WITH_FALSE = [[1.0, 0.0], [50.0, 50.0]]
EXAMPLE_EST_MISSING = [[1.0, 0.0]]
EXAMPLE_PARAMS = GospaParams(c=8.0, alpha=2.0, p=1.0)


class TestCutoffDistance:
    def test_identical_points(self):
        assert cutoff_distance([1.0, 2.0], [1.0, 2.0], c=5.0) == 0.0

    def test_below_cutoff(self):
        assert cutoff_distance([0.0], [3.0], c=8.0) == pytest.approx(3.0)

    def test_saturates(self):
        assert cutoff_distance([0.0], [100.0], c=8.0) == pytest.approx(8.0)

    def test_manhattan(self):
        assert cutoff_distance([0.0, 0.0], [1.0, 2.0], c=8.0,
                               base_distance="manhattan") == pytest.approx(3.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            cutoff_distance([0.0], [0.0, 1.0], c=8.0)

    def test_invalid_cutoff(self):
        with pytest.raises(ValueError):
            cutoff_distance([0.0], [1.0], c=0.0)

    def test_unknown_base_distance(self):
        with pytest.raises(ValueError, match="base distance"):
            cutoff_distance([0.0], [1.0], c=8.0, base_distance="chebyshev")


class TestParams:
    @pytest.mark.parametrize("kwargs", [
        {"c": 0.0}, {"c": -1.0}, {"c": math.inf},
        {"c": 8.0, "alpha": 0.0}, {"c": 8.0, "alpha": 2.5}, {"c": 8.0, "alpha": -1.0},
        {"c": 8.0, "p": 0.5}, {"c": 8.0, "p": math.inf},
        {"c": 8.0, "base_distance": "chebyshev"},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            GospaParams(**kwargs)

    def test_rejects_a_base_distance_neither_named_nor_callable(self):
        with pytest.raises(ValueError, match="base_distance must be a name or a callable"):
            GospaParams(c=1.0, base_distance=3)

    def test_defaults(self):
        params = GospaParams(c=8.0)
        assert params.alpha == 2.0 and params.p == 1.0
        assert params.base_distance == "euclidean"


class TestGospaGolden:
    def test_both_empty(self):
        result = gospa([], [], EXAMPLE_PARAMS)
        assert result.total == 0.0
        assert result.has_decomposition
        assert result.missed_count == 0 and result.false_count == 0

    def test_one_empty_alpha2(self):
        result = gospa([[1.0, 2.0]], [], EXAMPLE_PARAMS)
        assert result.total == pytest.approx(4.0)
        assert result.missed_count == 1 and result.false_count == 0
        assert result.assignment.pairs == ()

    def test_two_targets_one_false_one_missed(self):
        result = gospa(EXAMPLE_TRUTH, EXAMPLE_EST_WITH_FALSE, EXAMPLE_PARAMS)
        assert result.total == pytest.approx(9.0)
        assert result.localization_cost_p == pytest.approx(1.0)
        assert result.missed_count == 1 and result.false_count == 1
        assert result.missed_cost_p == pytest.approx(4.0)
        assert result.false_cost_p == pytest.approx(4.0)
        assert result.assignment.pairs == ((0, 0),)

    def test_two_targets_one_missed(self):
        result = gospa(EXAMPLE_TRUTH, EXAMPLE_EST_MISSING, EXAMPLE_PARAMS)
        assert result.total == pytest.approx(5.0)
        assert result.missed_count == 1 and result.false_count == 0

    def test_empty_truth_alpha1_counts_false_targets(self):
        params = GospaParams(c=8.0, alpha=1.0, p=1.0)
        result = gospa([], [[0.0, 0.0], [100.0, 0.0], [50.0, 50.0]], params)
        assert result.total == pytest.approx(24.0)
        assert not result.has_decomposition

    def test_pair_at_exact_cutoff_counts_missed_and_false(self):
        # strict d < c rule: a pair at exactly c is reclassified, cost-neutral
        result = gospa([[0.0]], [[8.0]], GospaParams(c=8.0, alpha=2.0, p=1.0))
        assert result.total == pytest.approx(8.0)
        assert result.assignment.pairs == ()
        assert result.missed_count == 1 and result.false_count == 1

    def test_duplicates_multiset_semantics(self):
        a = [[1.0, 1.0], [1.0, 1.0]]
        assert gospa(a, a, EXAMPLE_PARAMS).total == 0.0
        result = gospa(a, [[1.0, 1.0]], EXAMPLE_PARAMS)
        assert result.total == pytest.approx(4.0)
        assert result.missed_count == 1

    def test_alpha_not_two_has_no_decomposition(self):
        result = gospa(EXAMPLE_TRUTH, EXAMPLE_EST_WITH_FALSE,
                       GospaParams(c=8.0, alpha=1.5, p=1.0))
        assert not result.has_decomposition
        assert result.localization_cost_p is None
        assert result.missed_count is None and result.false_count is None
        assert result.assignment is None

    def test_manhattan_base(self):
        params = GospaParams(c=8.0, alpha=2.0, p=1.0, base_distance="manhattan")
        result = gospa([[0.0, 0.0]], [[1.0, 2.0]], params)
        assert result.total == pytest.approx(3.0)

    def test_callable_base(self):
        half_euclid = lambda a, b: 0.5 * float(np.linalg.norm(a - b))
        params = GospaParams(c=8.0, alpha=2.0, p=1.0, base_distance=half_euclid)
        result = gospa([[0.0, 0.0]], [[2.0, 0.0]], params)
        assert result.total == pytest.approx(1.0)

    @pytest.mark.parametrize("value", [-1.0, math.nan])
    def test_callable_base_must_return_a_finite_non_negative_value(self, value):
        params = GospaParams(c=8.0, base_distance=lambda a, b: value)
        with pytest.raises(ValueError, match="finite non-negative"):
            gospa([[0.0, 0.0]], [[2.0, 0.0]], params)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            gospa([[0.0, 1.0]], [[0.0, 1.0, 2.0]], EXAMPLE_PARAMS)

    def test_non_finite_coordinates(self):
        with pytest.raises(ValueError, match="finite"):
            gospa([[np.nan, 0.0]], [[0.0, 0.0]], EXAMPLE_PARAMS)

    def test_ragged_input(self):
        with pytest.raises(ValueError):
            gospa([[0.0, 1.0], [0.0]], [[0.0, 1.0]], EXAMPLE_PARAMS)


class TestPermutationForm:
    def test_self_distance_zero(self):
        points = [[0.0, 1.0], [5.0, -2.0]]
        assert gospa_permutation_form(points, points, EXAMPLE_PARAMS) == 0.0

    def test_example_geometry(self):
        assert gospa_permutation_form(
            EXAMPLE_TRUTH, EXAMPLE_EST_WITH_FALSE, EXAMPLE_PARAMS) == pytest.approx(9.0)
        assert gospa_permutation_form(
            EXAMPLE_TRUTH, EXAMPLE_EST_MISSING, EXAMPLE_PARAMS) == pytest.approx(5.0)

    def test_single_saturated_pair_alpha1(self):
        params = GospaParams(c=8.0, alpha=1.0, p=1.0)
        assert gospa_permutation_form([[0.0]], [[20.0]], params) == pytest.approx(8.0)

    def test_empty_cases(self):
        params = GospaParams(c=8.0, alpha=1.0, p=2.0)
        assert gospa_permutation_form([], [], params) == 0.0
        assert gospa_permutation_form([], [[0.0]], params) == pytest.approx(8.0)


class TestOspa:
    def test_empty_versus_any_estimate_is_cutoff(self):
        for j in range(1, 11):
            points = [[float(50 * k), 0.0] for k in range(j)]
            assert ospa([], points, c=8.0, p=1.0) == pytest.approx(8.0)
            assert ospa([], points, c=8.0, p=2.0) == pytest.approx(8.0)

    def test_example_geometry_cannot_distinguish(self):
        assert ospa(EXAMPLE_TRUTH, EXAMPLE_EST_WITH_FALSE, c=8.0, p=1.0) == pytest.approx(4.5)
        assert ospa(EXAMPLE_TRUTH, EXAMPLE_EST_MISSING, c=8.0, p=1.0) == pytest.approx(4.5)

    def test_identical_sets(self):
        points = [[0.0, 1.0], [2.0, 3.0]]
        assert ospa(points, points, c=8.0, p=2.0) == 0.0

    def test_both_empty(self):
        assert ospa([], [], c=8.0, p=1.0) == 0.0


class TestClosedForm:
    def test_reference_values(self):
        assert unnormalized_ospa_closed_form(3, 2, 0.0, 0.0, c=8.0, p=1.0) == pytest.approx(24.0)
        assert unnormalized_ospa_closed_form(10, 2, 0.0, 0.0, c=8.0, p=2.0) == pytest.approx(
            math.sqrt(640.0))
        assert unnormalized_ospa_closed_form(1, 2, 0.0, 0.0, c=8.0, p=2.0) == pytest.approx(
            math.sqrt(128.0))

    def test_detected_distances_enter(self):
        value = unnormalized_ospa_closed_form(2, 0, 1.0, 3.0, c=8.0, p=1.0)
        assert value == pytest.approx(1.0 + 3.0 + 16.0)
        value = unnormalized_ospa_closed_form(0, 1, 2.0, 0.0, c=8.0, p=2.0)
        assert value == pytest.approx(math.sqrt(4.0 + 64.0))

    @pytest.mark.parametrize("kwargs", [
        {"n_false": -1, "n_missed": 0}, {"n_false": 0, "n_missed": 3},
        {"n_false": 0, "n_missed": 0, "d1": 9.0}, {"n_false": 0, "n_missed": 0, "d2": -1.0},
        {"n_false": 0, "n_missed": 0, "c": 0.0}, {"n_false": 0, "n_missed": 0, "p": 0.5},
    ])
    def test_rejects_out_of_range(self, kwargs):
        full = {"n_false": 0, "n_missed": 0, "d1": 0.0, "d2": 0.0, "c": 8.0, "p": 1.0}
        full.update(kwargs)
        with pytest.raises(ValueError):
            unnormalized_ospa_closed_form(**full)


def small_sets(max_size=4, dim=2):
    return st.integers(0, max_size).flatmap(
        lambda n: arrays(np.float64, (n, dim),
                         elements=st.floats(-20.0, 20.0, allow_nan=False)))


def param_sets():
    return st.builds(
        GospaParams,
        c=st.floats(0.5, 10.0, allow_nan=False),
        alpha=st.floats(0.05, 2.0, allow_nan=False),
        p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    )


@settings(max_examples=200, deadline=None)
@given(small_sets(), small_sets(), param_sets())
def test_matches_permutation_oracle_any_alpha(x, y, params):
    expected = gospa_permutation_oracle(x, y, params.c, params.alpha, params.p)
    assert gospa(x, y, params).total == pytest.approx(expected, rel=1e-9, abs=1e-12)
    assert gospa_permutation_form(x, y, params) == pytest.approx(expected, rel=1e-9, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(small_sets(), small_sets(), st.floats(0.5, 10.0, allow_nan=False),
       st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_alpha2_matches_assignment_set_oracle(x, y, c, p):
    params = GospaParams(c=c, alpha=2.0, p=p)
    expected = gospa_alpha2_assignment_oracle(x, y, c, p)
    assert gospa(x, y, params).total == pytest.approx(expected, rel=1e-9, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(small_sets(), small_sets(), param_sets())
def test_symmetry_and_nonnegativity(x, y, params):
    forward = gospa(x, y, params).total
    backward = gospa(y, x, params).total
    assert forward >= 0.0
    assert forward == pytest.approx(backward, rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(small_sets(), param_sets(), st.randoms(use_true_random=False))
def test_definiteness(x, params, rnd):
    order = list(range(len(x)))
    rnd.shuffle(order)
    assert gospa(x, x[order] if len(x) else x, params).total == 0.0
    shifted = x + 0.5 if len(x) else np.array([[0.0, 0.0]])
    assert gospa(x, shifted, params).total > 0.0


@settings(max_examples=150, deadline=None)
@given(small_sets(), small_sets(), small_sets(), param_sets())
def test_triangle_inequality(x, y, z, params):
    d_xy = gospa(x, y, params).total
    d_xz = gospa(x, z, params).total
    d_zy = gospa(z, y, params).total
    assert d_xy <= d_xz + d_zy + 1e-9


@settings(max_examples=150, deadline=None)
@given(small_sets(), small_sets(), st.floats(0.5, 10.0, allow_nan=False),
       st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_decomposition_identity_and_upper_bound(x, y, c, p):
    params = GospaParams(c=c, alpha=2.0, p=p)
    result = gospa(x, y, params)
    reconstructed = (result.localization_cost_p + result.missed_cost_p
                     + result.false_cost_p)
    assert result.total ** p == pytest.approx(reconstructed, rel=1e-9, abs=1e-12)
    assert result.missed_count == len(x) - len(result.assignment)
    assert result.false_count == len(y) - len(result.assignment)
    empty_assignment_bound = (c ** p / 2.0) * (len(x) + len(y))
    assert result.total ** p <= empty_assignment_bound * (1 + 1e-12) + 1e-12


@settings(max_examples=150, deadline=None)
@given(small_sets(), small_sets(), st.floats(0.5, 10.0, allow_nan=False),
       st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_ospa_relation(x, y, c, p):
    if len(x) == 0 and len(y) == 0:
        assert ospa(x, y, c=c, p=p) == 0.0
        return
    unnormalized = gospa(x, y, GospaParams(c=c, alpha=1.0, p=p)).total
    expected = unnormalized / max(len(x), len(y)) ** (1.0 / p)
    assert ospa(x, y, c=c, p=p) == pytest.approx(expected, rel=1e-9, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(small_sets(), small_sets(), st.floats(0.5, 10.0, allow_nan=False),
       st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_far_point_costs_half_cutoff_power(x, y, c, p):
    params = GospaParams(c=c, alpha=2.0, p=p)
    base = gospa(x, y, params).total ** p
    far = np.array([[1e6, 1e6]])
    augmented = np.vstack([y, far]) if len(y) else far
    grown = gospa(x, augmented, params).total ** p
    assert grown - base == pytest.approx(c ** p / 2.0, rel=1e-9, abs=1e-9)


def test_as_state_array_shapes():
    assert as_state_array([]).shape == (0, 0)
    assert as_state_array(np.zeros((0, 3))).shape == (0, 3)
    assert as_state_array([[1, 2], [3, 4]]).shape == (2, 2)
    with pytest.raises(ValueError):
        as_state_array([1.0, 2.0])
    with pytest.raises(ValueError):
        as_state_array([[[1.0]]])


@pytest.mark.parametrize("x, y", [([[], []], [[]]), ([[]], []), ([], [[], [], []]),
                                  ([[]], [[0.0]])])
def test_states_without_coordinates_are_rejected(x, y):
    for metric in (lambda: gospa(x, y, GospaParams(c=1.0)), lambda: ospa(x, y, c=1.0)):
        with pytest.raises(ValueError, match="at least one coordinate"):
            metric()
    assert gospa([], np.zeros((0, 3)), GospaParams(c=1.0)).total == 0.0


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_scalar_results_are_python_floats():
    x, y = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0.3, 0.2], [0.8, 0.4]]
    for p in (1.0, 2.0, 3.7):
        breakdown = gospa(x, y, GospaParams(c=2.0, p=p))
        assert type(breakdown.total) is float
        assert type(breakdown.localization_cost_p) is float
        assert type(gospa(x, y, GospaParams(c=2.0, alpha=1.0, p=p)).total) is float
        assert type(ospa(x, y, c=2.0, p=p)) is float
        assert type(ospa([], [], c=2.0, p=p)) is float


@pytest.mark.parametrize("p", [1.0, 2.0, 3.7, 400.0])
def test_roots_are_pythons_powers(monkeypatch, power_bases, p):
    # 0 to 3 truths and 0 or 1 estimate per sample, the first truth and the
    # estimate paired wherever both are present: OSPA divides by the larger
    # count where a pair is made and is at most c there, is c in any other
    # sample of a target and 0 in a sample of none, whose total is 0
    c, k = 1.0, np.arange(len(power_bases))
    x_present, y_present = np.arange(3) < (k % 4)[:, None], ((k // 4) % 3 > 0)[:, None]
    paired = x_present[:, 0] & y_present[:, 0]
    sample, slot = paired.nonzero()[0], np.zeros(paired.sum(), dtype=np.intp)
    n_x, n_y = x_present.sum(axis=1), y_present.sum(axis=1)
    totals = np.where(n_x + n_y > 0, power_bases, 0.0)
    monkeypatch.setattr(metrics, "_padded_totals",
                        lambda *args: ({2.0: totals, 1.0: totals}, None))
    values, _ = metrics._solve((sample, slot, slot, np.full(len(sample), 0.5)), x_present,
                               y_present, c, 2.0, {p: ALL_NAMES})
    # the square root at p = 2, libm's pow at any other p but 1
    root = math.sqrt if p == 2.0 else lambda t: t ** (1.0 / p)
    roots = np.array([root(t) for t in totals.tolist()])
    assert values["gospa", p].tobytes() == values["uospa", p].tobytes() == roots.tobytes()
    ospa_roots = np.array([min(root(t / max(a, b)), c) if pair else c * (a + b > 0)
                           for t, a, b, pair in zip(totals.tolist(), n_x.tolist(),
                                                    n_y.tolist(), paired.tolist())])
    assert values["ospa", p].tobytes() == ospa_roots.tobytes()


def test_overflowing_cutoff_power_is_a_value_error():
    with pytest.raises(ValueError, match="finite"):
        gospa([[0.0, 0.0]], [[100.0, 0.0]], GospaParams(c=8.0, p=400.0))
    with pytest.raises(ValueError, match="finite"):
        ospa([[0.0, 0.0]], [[1.0, 0.0]], c=8.0, p=400.0)


@pytest.mark.parametrize("x,y", [([], [[0.0, 0.0]]), ([[0.0, 0.0]], [])])
def test_overflowing_cutoff_power_with_an_empty_set_is_a_value_error(x, y):
    with pytest.raises(ValueError, match="finite"):
        gospa(x, y, GospaParams(c=8.0, p=400.0))
    with pytest.raises(ValueError, match="finite"):
        gospa(x, y, GospaParams(c=8.0, alpha=1.0, p=400.0))  # uOSPA
    with pytest.raises(ValueError, match="finite"):
        ospa(x, y, c=8.0, p=400.0)


def test_two_empty_sets_are_zero_apart_even_when_the_cutoff_power_overflows():
    result = gospa([], [], GospaParams(c=8.0, p=400.0))
    assert result.total == 0.0 and result.missed_cost_p == 0.0
    assert gospa([], [], GospaParams(c=8.0, alpha=1.0, p=400.0)).total == 0.0
    assert ospa([], [], c=8.0, p=400.0) == 0.0


def test_integer_cutoff_and_exponent_match_their_float_values():
    # 8**30 overflows a 64-bit integer, so c**p must be a float power
    x = [[0.0, 0.0], [1.0, 0.0], [50.0, 0.0]]
    y = [[0.5, 0.0], [0.6, 0.0], [90.0, 0.0]]
    for alpha in (1.0, 2.0):
        assert gospa(x, y, GospaParams(c=8, alpha=alpha, p=30)).total == \
            gospa(x, y, GospaParams(c=8.0, alpha=alpha, p=30.0)).total
    assert ospa(x, y, c=8, p=30) == ospa(x, y, c=8.0, p=30.0)


def test_non_numeric_parameters_are_value_errors():
    for kwargs in ({"c": "8"}, {"c": None}, {"c": 8.0, "alpha": "2"}, {"c": 8.0, "p": None}):
        with pytest.raises(ValueError):
            GospaParams(**kwargs)


HUGE = 10 ** 400  # an integer too large for any float


@pytest.mark.parametrize("call, message", [
    (lambda: gospa([[HUGE]], [[0]], GospaParams(c=8.0)), "coordinates must be finite"),
    (lambda: gospa([[0]], [[0], [-HUGE]], GospaParams(c=8.0)), "coordinates must be finite"),
    (lambda: ospa([[0]], [[1]], c=HUGE), "c must be positive and finite"),
    (lambda: GospaParams(c=HUGE), "c must be positive and finite"),
    (lambda: GospaParams(c=8.0, p=HUGE), r"p must lie in \[1, inf\)"),
    (lambda: cutoff_distance([0.0], [HUGE], c=8.0), "coordinates must be finite"),
], ids=["gospa-truth", "gospa-estimate", "ospa-c", "params-c", "params-p", "cutoff-distance"])
def test_an_integer_beyond_the_float_range_is_a_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_import_does_not_load_scipy():
    import gospa

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gospa.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, gospa; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


# --- the detected-pair set on ties -------------------------------------------

def lattice_sets(max_size=5):
    return st.integers(0, max_size).flatmap(
        lambda n: arrays(np.float64, (n, 2), elements=st.integers(0, 4).map(float)))


def manhattan_pairs(x, y, c, p=1.0):
    params = GospaParams(c=c, alpha=2.0, p=p, base_distance="manhattan")
    return gospa(x, y, params).assignment.pairs


@settings(max_examples=200, deadline=None)
@given(lattice_sets(), lattice_sets(), st.integers(1, 5), st.sampled_from([1.0, 2.0]))
def test_gamma_matches_tie_oracle_on_lattice(x, y, c, p):
    # integer coordinates, Manhattan distances and an integer cut-off keep
    # every cost exact, so ties are real ties
    assert manhattan_pairs(x, y, float(c), p) == gospa_alpha2_gamma_oracle(
        x.tolist(), y.tolist(), float(c), p, distance=manhattan)


class TestComponentGamma:
    """Inputs whose d < c graph has a vertex of degree two or more."""

    def test_star_takes_smallest_estimate(self):
        truth = [[0.0, 0.0], [50.0, 0.0]]
        estimate = [[0.0, 1.0], [1.0, 0.0], [-1.0, 0.0], [50.0, 1.0]]
        assert manhattan_pairs(truth, estimate, 3.0) == ((0, 0), (1, 3))

    def test_star_of_truths_pairs_first_truth(self):
        truth = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]
        assert manhattan_pairs(truth, [[0.0, 0.0]], 3.0) == ((0, 0),)

    def test_chain_pairs_truths_in_order(self):
        truth = [[0.0], [2.0], [4.0]]
        estimate = [[1.0], [3.0]]
        assert manhattan_pairs(truth, estimate, 2.0) == ((0, 0), (1, 1))
        assert manhattan_pairs(truth, estimate, 2.0) == gospa_alpha2_gamma_oracle(
            truth, estimate, 2.0, 1.0, distance=manhattan)

    def test_false_target_within_cutoff_of_two_truths(self):
        truth = [[0.0, 0.0], [4.0, 0.0]]
        estimate = [[2.0, 0.0], [0.0, 0.5], [4.0, 0.5]]
        params = GospaParams(c=3.0, alpha=2.0, p=2.0)
        result = gospa(truth, estimate, params)
        assert result.assignment.pairs == ((0, 1), (1, 2))
        assert result.false_count == 1 and result.missed_count == 0
        assert result.total == pytest.approx(math.sqrt(0.25 + 0.25 + 4.5))
        assert result.assignment.pairs == gospa_alpha2_gamma_oracle(truth, estimate, 3.0, 2.0)

    def test_pairing_ranks_before_a_tied_unpairing(self):
        # both truths paired (1 + 3) ties with only the second one paired at
        # distance 0 plus a miss and a false target (0 + 2 + 2)
        assert manhattan_pairs([[0.0], [1.0]], [[4.0], [1.0]], 4.0) == ((0, 1), (1, 0))

    def test_unpaired_truth_ranks_after_every_estimate(self):
        # either truth can take the middle estimate at equal cost; the first
        # truth does, even though the far estimate has the smaller index
        truth = [[0.0, 0.0], [2.0, 0.0]]
        estimate = [[100.0, 0.0], [1.0, 0.0]]
        assert manhattan_pairs(truth, estimate, 3.0) == ((0, 1),)

    def test_a_matching_skips_the_component_search(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("every edge is forced; no component is left")

        monkeypatch.setattr(metrics, "_components", no_search)
        truth = [[0.0, 0.0], [50.0, 0.0], [100.0, 0.0]]
        estimate = [[1.0, 0.0], [50.0, 2.0], [200.0, 0.0]]
        result = gospa(truth, estimate, GospaParams(c=8.0, alpha=2.0, p=1.0))
        assert result.assignment.pairs == ((0, 0), (1, 1))
        assert result.total == pytest.approx(3.0 + 8.0)


# --- cross-check against one exact solve of the whole cut-off matrix --------

def whole_matrix_reference(x, y, c, p):
    """GOSPA**p (alpha 2), unnormalized OSPA**p and gamma from an exact
    assignment of the smaller set over the whole cut-off matrix."""
    distances = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=2)
    costs = np.minimum(distances, c) ** p
    if len(x) <= len(y):
        solution = solve_full_assignment(costs)
        pairs = solution.pairs
    else:
        solution = solve_full_assignment(costs.T)
        pairs = tuple(sorted((i, j) for j, i in solution.pairs))
    gamma = tuple((i, j) for i, j in pairs if distances[i, j] < c)
    localization = sum(costs[i, j] for i, j in gamma)
    gospa_p = localization + c ** p / 2.0 * (len(x) + len(y) - 2 * len(gamma))
    uospa_p = solution.total_cost + c ** p * abs(len(x) - len(y))
    return gospa_p, uospa_p, gamma


def geometry(kind, n, rng, c):
    if kind == "spread":
        return rng.uniform(0.0, 15.0 * c, (n, 2))
    if kind == "clustered":  # diameter below c: every pair is an edge
        return rng.uniform(0.0, 0.7 * c, (n, 2))
    centres = rng.uniform(0.0, 12.0 * c, (max(1, n // 4), 2))
    return centres[rng.integers(0, len(centres), n)] + rng.normal(0.0, 0.6 * c, (n, 2))


@pytest.mark.parametrize("kind", ["spread", "clustered", "mixed"])
@pytest.mark.parametrize("n_x, n_y", [(60, 45), (45, 60), (30, 30), (7, 12), (12, 7),
                                      (90, 80), (80, 90)])
@pytest.mark.parametrize("seed, p", [(0, 1.0), (1, 1.5), (2, 2.0)])
def test_matches_whole_matrix_solve(kind, n_x, n_y, seed, p):
    rng = np.random.default_rng([seed, n_x, n_y])
    c = 5.0
    if kind == "mixed":  # truths and estimates share the clusters
        points = geometry(kind, n_x + n_y, rng, c)
        x, y = points[:n_x], points[n_x:]
    else:
        x, y = geometry(kind, n_x, rng, c), geometry(kind, n_y, rng, c)
    gospa_p, uospa_p, gamma = whole_matrix_reference(x, y, c, p)
    result = gospa(x, y, GospaParams(c=c, alpha=2.0, p=p))
    assert result.assignment.pairs == gamma
    assert result.total ** p == pytest.approx(gospa_p, rel=1e-12)
    uospa = gospa(x, y, GospaParams(c=c, alpha=1.0, p=p)).total
    assert uospa ** p == pytest.approx(uospa_p, rel=1e-12)
    assert ospa(x, y, c=c, p=p) ** p == pytest.approx(uospa_p / max(n_x, n_y), rel=1e-12)


# --- the sweep that finds the close pairs of large inputs -------------------

@st.composite
def sweep_cases(draw):
    """Two sets and a cut-off at one scale in [1e-100, 1e100], in 1 to 4
    dimensions, moved together by an offset up to 1e12 times that scale;
    some on an integer lattice (exact ties), some with every point on one
    value of the first coordinate (tied sweep keys)."""
    dim = draw(st.integers(1, 4))
    scale = 10.0 ** draw(st.integers(-100, 100))
    lattice = draw(st.booleans())
    elements = (st.integers(-5, 5).map(float) if lattice
                else st.floats(-10.0, 10.0, allow_nan=False))
    x, y = (draw(arrays(np.float64, (draw(st.integers(0, 12)), dim), elements=elements))
            for _ in range(2))
    if draw(st.booleans()):
        x[:, 0] = y[:, 0] = draw(elements)
    c = float(draw(st.integers(1, 4))) if lattice else draw(st.floats(0.5, 8.0))
    base = draw(st.sampled_from(["euclidean", "manhattan"]))
    offset = draw(st.sampled_from([0.0, -1e3, 1e6, 1e12]))
    return ((x + offset) * scale, (y + offset) * scale, c * scale, base,
            draw(st.sampled_from([1.0, 2.0, 3.5])))


def every_result(x, y, c, base, p):
    try:
        detected = gospa(x, y, GospaParams(c=c, alpha=2.0, p=p, base_distance=base))
        uospa = gospa(x, y, GospaParams(c=c, alpha=1.0, p=p, base_distance=base)).total
        return (detected.total, detected.localization_cost_p, detected.assignment.pairs,
                uospa, ospa(x, y, c=c, p=p, base_distance=base))
    except ValueError as exc:  # c**p beyond the float range, on either path
        return str(exc)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(sweep_cases())
def test_sweep_and_whole_matrix_give_identical_results(case):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "_SWEEP_MIN_PAIRS", math.inf)
        dense = every_result(*case)
        patch.setattr(metrics, "_SWEEP_MIN_PAIRS", 0)
        swept = every_result(*case)
    assert swept == dense


def test_sweep_and_whole_matrix_agree_where_squares_underflow():
    # coordinate differences near 1e-169 square to 0 or a subnormal, so a
    # distance reads below c for pairs farther apart than c on a coordinate;
    # the sweep's window reaches 1e-150 at least, so it sees them too
    rng = np.random.default_rng(3)
    x, y = rng.uniform(0.0, 1e-168, (70, 2)), rng.uniform(0.0, 1e-168, (70, 2))
    results = []
    with pytest.MonkeyPatch.context() as patch:
        for threshold in (math.inf, 0):  # the whole matrix, then the sweep
            patch.setattr(metrics, "_SWEEP_MIN_PAIRS", threshold)
            results.append(every_result(x, y, 1e-170, "euclidean", 2.0))
    dense, swept = results
    assert len(dense[2]) == 70
    assert swept == dense


def test_a_callable_base_distance_never_takes_the_sweep(monkeypatch):
    def no_sweep(*args):
        raise AssertionError("a callable gives no bound on one coordinate")

    rng = np.random.default_rng(7)
    x, y = rng.uniform(0.0, 20.0, (9, 2)), rng.uniform(0.0, 20.0, (8, 2))
    expected = gospa(x, y, GospaParams(c=4.0, p=2.0)).total
    monkeypatch.setattr(metrics, "_SWEEP_MIN_PAIRS", 0)
    monkeypatch.setattr(metrics, "_sweep_candidates", no_sweep)
    params = GospaParams(c=4.0, p=2.0, base_distance=lambda a, b: float(np.hypot(*(a - b))))
    assert gospa(x, y, params).total == pytest.approx(expected, rel=1e-12)


# --- stacks of same-shape samples ----------------------------------------------

ALL_NAMES = ("gospa", "uospa", "ospa")


def assert_padded_matches_evaluate(xs, x_present, ys, y_present, base, c, alpha, requests):
    """``_evaluate_padded`` gives, bit for bit, what ``_evaluate`` gives on
    each sample's present points."""
    expected = [metrics._evaluate(x[xp], y[yp], base, c, alpha, requests)
                for x, xp, y, yp in zip(xs, x_present, ys, y_present)]
    got = metrics._evaluate_padded(xs, x_present, ys, y_present, base, c, alpha, requests)
    assert set(got) == {(name, p) for p, names in requests.items() for name in names}
    for key, values in got.items():
        assert np.array(values).tobytes() == np.array([e[key] for e in expected]).tobytes(), key


def evaluate_stack(xs, ys, base, c, alpha, requests):
    """``_evaluate_padded`` on a stack of same-shape samples, every slot present."""
    return metrics._evaluate_padded(xs, np.ones(xs.shape[:2], dtype=bool),
                                    ys, np.ones(ys.shape[:2], dtype=bool),
                                    base, c, alpha, requests)


def assert_matches_evaluate(xs, ys, base, c, alpha, requests):
    """``_evaluate_padded`` gives, bit for bit, what ``_evaluate`` gives per
    sample of a stack of same-shape samples."""
    expected = [metrics._evaluate(x, y, base, c, alpha, requests) for x, y in zip(xs, ys)]
    got = evaluate_stack(xs, ys, base, c, alpha, requests)
    assert set(got) == {(name, p) for p, names in requests.items() for name in names}
    for key, values in got.items():
        assert np.array(values).tobytes() == np.array([e[key] for e in expected]).tobytes(), key


@st.composite
def sample_stacks(draw):
    n_s, n_x = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    n_y, dim = draw(st.integers(0, 12)), draw(st.integers(1, 3))
    elements = st.floats(-12.0, 12.0, allow_nan=False)
    return (draw(arrays(np.float64, (n_s, n_x, dim), elements=elements)),
            draw(arrays(np.float64, (n_s, n_y, dim), elements=elements)))


@settings(max_examples=300, deadline=None)
@given(sample_stacks(), st.sampled_from(["euclidean", "manhattan"]),
       st.floats(0.5, 10.0, allow_nan=False), st.sampled_from([2.0, 1.5, 1.0]),
       st.lists(st.sampled_from([1.0, 2.0, 3.5]), min_size=1, max_size=2, unique=True),
       st.lists(st.sampled_from(ALL_NAMES), min_size=1, max_size=3, unique=True))
def test_many_samples_match_evaluate_bitwise(stack, base, c, alpha, exponents, names):
    assert_matches_evaluate(*stack, base, c, alpha, {p: tuple(names) for p in exponents})


@pytest.mark.parametrize("n_x, n_y, dim", [(1, 6, 1), (2, 12, 2), (3, 9, 3), (3, 2, 2),
                                           (4, 4, 2), (2, 0, 2), (0, 5, 1), (0, 0, 2)])
@pytest.mark.parametrize("base", ["euclidean", "manhattan"])
def test_general_position_needs_no_scalar_solve(monkeypatch, n_x, n_y, dim, base):
    rng = np.random.default_rng(10 * n_x + n_y)
    xs = rng.normal(scale=3.0, size=(300, n_x, dim))
    ys = rng.normal(scale=3.0, size=(300, n_y, dim))
    # not p = 1: Manhattan costs then tie on whole regions of inputs.
    # At this c, NumPy's array power and Python's round c ** 3.5 apart in
    # the last bit; every sum takes Python's, on both paths.
    requests = {2.0: ALL_NAMES, 3.5: ALL_NAMES}
    c = 5.664437418921517
    for alpha in (2.0, 0.5):
        expected = [metrics._evaluate(x, y, base, c, alpha, requests) for x, y in zip(xs, ys)]
        with monkeypatch.context() as patch:
            patch.setattr(metrics, "solve_full_assignment", None)  # any LAP solve would fail
            got = evaluate_stack(xs, ys, base, c, alpha, requests)
        for key, values in got.items():
            assert values.tolist() == [e[key] for e in expected]


def test_the_enumeration_limit_is_exact_and_cannot_wrap():
    # (n_y + 1) ** n_x up to 1,024 is enumerated, one step more is not
    within = [(1, 1023), (2, 31), (3, 9), (4, 4), (5, 3), (6, 2), (10, 1), (0, 5000)]
    beyond = [(1, 1024), (2, 32), (3, 10), (4, 5), (5, 4), (7, 2), (11, 1)]
    for n_x, n_y in within:
        assert metrics._enumerable(n_x, n_y), (n_x, n_y)
    for n_x, n_y in beyond:
        assert not metrics._enumerable(n_x, n_y), (n_x, n_y)
    (n_x, n_y), (m_x, m_y) = (np.array(shapes).T for shapes in (within, beyond))
    assert metrics._enumerable(n_x, n_y).all() and not metrics._enumerable(m_x, m_y).any()
    largest = np.iinfo(np.int64).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not metrics._enumerable(np.array([largest, 64, 1, 2 ** 40]),
                                       np.array([1, 1, largest, 2 ** 40])).any()


@pytest.mark.parametrize("n_x, n_y, base", [(5, 4, "euclidean"), (3, 10, "euclidean"),
                                            (2, 3, manhattan)])
def test_other_stacks_take_the_scalar_kernel(monkeypatch, n_x, n_y, base):
    # every truth within c of every estimate, so no pair is forced and each
    # sample is one component: beyond the enumeration limits for the named
    # base, so solved by one LAP per sample, and with its edges found sample
    # by sample by _cut_off_graph for a callable one
    rng = np.random.default_rng(3)
    xs, ys = rng.normal(scale=0.1, size=(5, n_x, 2)), rng.normal(scale=0.1, size=(5, n_y, 2))
    calls = []
    if callable(base):
        cut_off_graph = metrics._cut_off_graph
        monkeypatch.setattr(metrics, "_cut_off_graph",
                            lambda *args: calls.append(1) or cut_off_graph(*args))
    else:
        solve = metrics.solve_full_assignment
        monkeypatch.setattr(metrics, "solve_full_assignment",
                            lambda *args: calls.append(1) or solve(*args))
        monkeypatch.setattr(metrics, "_enumerated_gamma", None)
    assert_matches_evaluate(xs, ys, base, 1.0, 2.0, {2.0: ALL_NAMES})
    assert len(calls) == 2 * len(xs)  # the reference in the helper, then the stack
    present = (np.ones(xs.shape[:2], dtype=bool), np.ones(ys.shape[:2], dtype=bool))
    assert_padded_matches_evaluate(xs, present[0], ys, present[1], base, 1.0, 2.0,
                                   {2.0: ALL_NAMES})
    assert len(calls) == 4 * len(xs)


def lattice_stacks():
    return st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 5)).flatmap(
        lambda shape: st.tuples(
            arrays(np.float64, (shape[0], shape[1], 2), elements=st.integers(0, 4).map(float)),
            arrays(np.float64, (shape[0], shape[2], 2), elements=st.integers(0, 4).map(float))))


@settings(max_examples=200, deadline=None)
@given(lattice_stacks(), st.integers(1, 5), st.sampled_from([1.0, 2.0]))
def test_enumeration_takes_the_tie_rule_and_hands_ties_on(stack, c, p):
    # integer coordinates, Manhattan distances and an integer cut-off keep
    # every cost exact, so ties are real ties
    xs, ys = stack
    c = float(c)
    distances = metrics._distances(xs[:, :, None, :] - ys[:, None, :, :], "manhattan")
    costs = np.where(distances < c, distances, np.inf) ** p  # +inf where no edge
    chosen, unclear = metrics._enumerated_gamma(costs, c ** p)
    for k, (x, y) in enumerate(zip(xs.tolist(), ys.tolist())):
        gamma = tuple((i, j) for i, j in enumerate(chosen[k].tolist()) if j < len(y))
        assert gamma == gospa_alpha2_gamma_oracle(x, y, c, p, distance=manhattan)
        costs = sorted(
            sum(manhattan(x[i], y[j]) ** p - c ** p for i, j in pairs)
            for pairs in iter_assignment_sets(len(x), len(y))
            if all(manhattan(x[i], y[j]) < c for i, j in pairs))
        if len(costs) > 1 and costs[0] == costs[1]:
            assert unclear[k]
    assert_matches_evaluate(xs, ys, "manhattan", c, 2.0, {p: ALL_NAMES})
    assert_matches_evaluate(xs, ys, "manhattan", c, 1.0, {p: ALL_NAMES})


def test_enumeration_sums_that_overflow_go_to_the_assignment_solver():
    # every gain d - c**p is near -1e308, so each full injection's sum
    # overflows to -inf; the optimum pairs each truth with its neighbour
    x = np.array([[0.0, 0.0], [1e307, 0.0], [2e307, 0.0], [3e307, 0.0]])
    y = x[[1, 0, 3, 2]] + 1e300
    assert_matches_evaluate(x[None], y[None], "manhattan", 1e308, 2.0, {1.0: ALL_NAMES})
    detected = gospa(x, y, GospaParams(c=1e308, p=1.0, base_distance="manhattan"))
    assert detected.assignment.pairs == ((0, 1), (1, 0), (2, 3), (3, 2))


def test_an_exact_tie_that_float_sums_break_takes_the_tie_rule():
    # both optima cost exactly 0.8 + 1.6 + 4.8, but summed in row order the
    # second, ((0, 2), (1, 0), (2, 1)), rounds to 7.199999999999999 and the
    # first, which the tie rule picks, to 7.2
    costs = [[5.6, 0.8, 0.8], [4.8, 4.8, 1.6], [4.8, 1.6, 5.6]]
    points = [[0.0], [1.0], [2.0]]
    params = GospaParams(c=8.0, p=1.0, base_distance=lambda a, b: costs[int(a[0])][int(b[0])])
    result = gospa(points, points, params)
    assert result.assignment.pairs == ((0, 1), (1, 2), (2, 0))
    assert result.total == 7.2
    assert solve_full_assignment(costs).pairs == ((0, 1), (1, 2), (2, 0))


def test_a_tie_of_the_same_floats_in_other_rows_takes_the_tie_rule():
    # ((0, 1), (1, 0)) and ((0, 0), (2, 1)) both cost 0.4**2 + 0.2**2 plus
    # one miss, but in other rows, so their float row-ordered sums differ
    table = [[0.4, 0.2], [0.4, 1.0], [1.0, 0.2]]
    distance = lambda a, b: table[int(a[0])][int(b[0])]  # noqa: E731
    truth, estimate = [[0.0], [1.0], [2.0]], [[0.0], [1.0]]
    result = gospa(truth, estimate, GospaParams(c=1.0, p=2.0, base_distance=distance))
    assert result.assignment.pairs == ((0, 0), (2, 1))
    assert result.assignment.pairs == gospa_alpha2_gamma_oracle(
        truth, estimate, 1.0, 2.0, distance=distance)


def test_a_cost_entry_beyond_the_float_range_is_a_value_error():
    xs, ys = np.zeros((2, 1, 2)), np.ones((2, 2, 2))
    for stack in ((xs, ys), (xs, ys[:, :0]), (xs[:, :0], ys)):
        with pytest.raises(ValueError, match="finite"):
            evaluate_stack(*stack, "euclidean", 1e200, 2.0, {2.0: ALL_NAMES})
    assert evaluate_stack(xs[:, :0], ys[:, :0], "euclidean", 1e200, 2.0,
                          {2.0: ALL_NAMES})["ospa", 2.0].tolist() == [0.0, 0.0]


# --- padded stacks -------------------------------------------------------------

def clustered_stack(rng, n_s, k_x, k_y, dim, clusters, spread, share_present):
    """A padded stack whose targets gather around ``clusters`` centres per
    sample, so that forced pairs, 2 x 2 clusters and several separate
    clusters in one sample all occur; ``share_present`` of the slots are
    present, and a share of 0 gives empty sets."""
    centres = rng.uniform(-30.0, 30.0, (n_s, clusters, dim))
    rows = np.arange(n_s)[:, None]
    xs = centres[rows, rng.integers(0, clusters, (n_s, k_x))] \
        + rng.normal(scale=spread, size=(n_s, k_x, dim))
    ys = centres[rows, rng.integers(0, clusters, (n_s, k_y))] \
        + rng.normal(scale=spread, size=(n_s, k_y, dim))
    return (xs, rng.random((n_s, k_x)) < share_present,
            ys, rng.random((n_s, k_y)) < share_present)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 60), st.integers(1, 9), st.integers(1, 9),
       st.integers(1, 3), st.integers(1, 12), st.sampled_from([0.05, 0.5, 2.0]),
       st.sampled_from([0.0, 0.5, 0.85, 1.0]), st.sampled_from(["euclidean", "manhattan"]),
       st.floats(0.5, 6.0), st.sampled_from([2.0, 1.5, 1.0]),
       st.lists(st.sampled_from([1.0, 2.0, 3.5]), min_size=1, max_size=2, unique=True),
       st.lists(st.sampled_from(ALL_NAMES), min_size=1, max_size=3, unique=True))
def test_padded_samples_match_evaluate_bitwise(seed, n_s, k_x, k_y, dim, clusters, spread,
                                               share_present, base, c, alpha, exponents, names):
    stack = clustered_stack(np.random.default_rng(seed), n_s, k_x, k_y, dim, clusters, spread,
                            share_present)
    assert_padded_matches_evaluate(*stack, base, c, alpha, {p: tuple(names) for p in exponents})


@pytest.mark.parametrize("base", ["euclidean", "manhattan"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_padded_general_position_needs_no_scalar_solve(monkeypatch, base, dim):
    # ten sites 20 apart along one axis, far beyond c; truth slots 0-7 have
    # a site each and slots 8-11 share the last two in twos, and every
    # estimate slot is a perturbed copy of its truth slot: lone pairs and up
    # to two 2 x 2 clusters, far from ties and within the enumeration limits
    rng = np.random.default_rng(dim)
    sites = 20.0 * np.outer(np.arange(10), np.eye(dim)[0])
    xs = sites[[0, 1, 2, 3, 4, 5, 6, 7, 8, 8, 9, 9]] + rng.normal(scale=0.7, size=(60, 12, dim))
    ys = xs + rng.normal(scale=0.3, size=xs.shape)
    x_present, y_present = rng.random((60, 12)) < 0.85, rng.random((60, 12)) < 0.85
    requests = {2.0: ALL_NAMES, 3.5: ALL_NAMES}
    c = 2.5
    for alpha in (2.0, 0.5):
        expected = [metrics._evaluate(x[xp], y[yp], base, c, alpha, requests)
                    for x, xp, y, yp in zip(xs, x_present, ys, y_present)]
        with monkeypatch.context() as patch:
            patch.setattr(metrics, "solve_full_assignment", None)  # any LAP solve would fail
            got = metrics._evaluate_padded(xs, x_present, ys, y_present, base, c, alpha,
                                           requests)
        for key, values in got.items():
            assert values.tolist() == [e[key] for e in expected]


def test_padded_stack_beyond_the_block_size_is_solved_per_sample(monkeypatch):
    rng = np.random.default_rng(5)
    stack = clustered_stack(rng, 4, 6, 7, 2, 3, 0.5, 0.8)
    calls = []
    cut_off_graph = metrics._cut_off_graph
    monkeypatch.setattr(metrics, "_PADDED_BLOCK_CELLS", 41)
    monkeypatch.setattr(metrics, "_cut_off_graph",
                        lambda *args: calls.append(1) or cut_off_graph(*args))
    assert_padded_matches_evaluate(*stack, "euclidean", 2.0, 1.0, {1.0: ALL_NAMES})
    assert len(calls) == 2 * 4  # the reference in the helper, then the stack's edges


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 30), st.integers(1, 6), st.integers(1, 6),
       st.integers(1, 5), st.sampled_from([1.0, 2.0]))
def test_padded_lattice_ties_reach_the_scalar_kernel(seed, n_s, k_x, k_y, c, p):
    # integer coordinates, Manhattan distances and an integer cut-off keep
    # every cost exact, so ties are real ties, and each must be solved by
    # _component_pairs; the tie rule then makes every value bit-identical
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, 5, (n_s, k_x, 2)).astype(float)
    ys = rng.integers(0, 5, (n_s, k_y, 2)).astype(float)
    x_present, y_present = rng.random((n_s, k_x)) < 0.7, rng.random((n_s, k_y)) < 0.7
    c = float(c)
    for alpha in (2.0, 1.0):
        assert_padded_matches_evaluate(xs, x_present, ys, y_present, "manhattan", c, alpha,
                                       {p: ALL_NAMES})
    solved = set()  # the samples of the components that reach the LAP
    component_pairs = metrics._component_pairs

    def recording(block, rows, cols, *args):
        solved.update((rows // k_x).tolist())  # a truth's key is sample * K_x + slot
        return component_pairs(block, rows, cols, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "_component_pairs", recording)
        metrics._evaluate_padded(xs, x_present, ys, y_present, "manhattan", c, 2.0,
                                 {p: ALL_NAMES})
    for k, (x, xp, y, yp) in enumerate(zip(xs, x_present, ys, y_present)):
        x, y = x[xp], y[yp]
        costs = sorted(
            sum(manhattan(x[i], y[j]) ** p - c ** p for i, j in pairs)
            for pairs in iter_assignment_sets(len(x), len(y))
            if all(manhattan(x[i], y[j]) < c for i, j in pairs))
        if len(costs) > 1 and costs[0] == costs[1]:
            assert k in solved


# --- mask copies over one point stack -----------------------------------------

def assert_copies_match_tiled_points(xs, x_present, ys, y_present, base, c, alpha, requests):
    """``_evaluate_padded`` on one copy of the points with several copies of
    the masks gives, bit for bit, what it gives on the points tiled once per
    copy, or raises the same error."""
    copies = len(x_present) // len(xs)
    results = []
    for stack in ((np.tile(xs, (copies, 1, 1)), x_present, np.tile(ys, (copies, 1, 1)), y_present),
                  (xs, x_present, ys, y_present)):
        try:
            results.append(metrics._evaluate_padded(*stack, base, c, alpha, requests))
        except ValueError as exc:
            results.append(str(exc))
    tiled, shared = results
    if isinstance(tiled, str):
        assert shared == tiled
        return
    assert set(shared) == set(tiled)
    for key, values in tiled.items():
        assert shared[key].tobytes() == values.tobytes(), key


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.sampled_from([1, 2, 3, 12]),
       st.integers(0, 5), st.integers(0, 6), st.booleans(), st.sampled_from([1.0, 2.0, 3.5]))
def test_mask_copies_over_one_point_stack_match_tiled_points(seed, n, copies, k_x, k_y, lattice,
                                                             p):
    rng = np.random.default_rng(seed)
    if lattice:  # integer coordinates and Manhattan distances: real ties
        xs = rng.integers(0, 5, (n, k_x, 2)).astype(float)
        ys = rng.integers(0, 5, (n, k_y, 2)).astype(float)
        base, c = "manhattan", float(rng.integers(1, 4))
    else:
        xs, _, ys, _ = clustered_stack(rng, n, k_x, k_y, 2, 2, 1.0, 1.0)
        base, c = "euclidean", 2.0
    x_present = rng.random((copies * n, k_x)) < 0.7
    y_present = rng.random((copies * n, k_y)) < 0.7
    empty = slice(n * int(rng.integers(copies)), None)  # a copy with no present target
    x_present[empty][:n] = y_present[empty][:n] = False
    for alpha in (2.0, 0.5):
        assert_copies_match_tiled_points(xs, x_present, ys, y_present, base, c, alpha,
                                         {p: ALL_NAMES, 1.0: ALL_NAMES})


@pytest.mark.parametrize("k_x, k_y", [(0, 3), (3, 0), (0, 0)])
def test_mask_copies_without_slots_match_tiled_points(k_x, k_y):
    rng = np.random.default_rng(4)
    xs, _, ys, _ = clustered_stack(rng, 5, k_x, k_y, 2, 2, 1.0, 1.0)
    x_present, y_present = rng.random((15, k_x)) < 0.7, rng.random((15, k_y)) < 0.7
    assert_copies_match_tiled_points(xs, x_present, ys, y_present, "euclidean", 2.0, 2.0,
                                     {2.0: ALL_NAMES})


@pytest.mark.parametrize("fallback", ["callable", "block", "overflow"])
def test_mask_copies_take_the_fallbacks_on_tiled_points(monkeypatch, fallback):
    rng = np.random.default_rng(8)
    xs, _, ys, _ = clustered_stack(rng, 4, 3, 4, 2, 2, 1.0, 1.0)
    masks = rng.random((12, 3)) < 0.7, rng.random((12, 4)) < 0.7
    base, c = "euclidean", 2.0
    if fallback == "callable":
        base = lambda a, b: float(np.hypot(*(a - b)))  # noqa: E731
    elif fallback == "block":
        monkeypatch.setattr(metrics, "_PADDED_BLOCK_CELLS", 11)
    else:  # c**p overflows: a sample raises unless both its sets are empty
        c = 1e200
    calls = []
    cut_off_graph = metrics._cut_off_graph
    monkeypatch.setattr(metrics, "_cut_off_graph",
                        lambda *args: calls.append(1) or cut_off_graph(*args))
    for x_present, y_present in (masks, (masks[0] & False, masks[1] & False)):
        calls.clear()
        assert_copies_match_tiled_points(xs, x_present, ys, y_present, base, c, 2.0,
                                         {2.0: ALL_NAMES})
        # each stack found its edges one sample at a time; an overflowing
        # c**p raises, or gives 0 for empty sets, before any edge is sought
        assert len(calls) == (0 if fallback == "overflow" else 2 * 12)
        if fallback != "overflow" or not x_present.any():
            assert_padded_matches_evaluate(np.tile(xs, (3, 1, 1)), x_present,
                                           np.tile(ys, (3, 1, 1)), y_present, base, c, 2.0,
                                           {2.0: ALL_NAMES})


# --- lists of pairs solved in one call ----------------------------------------

@st.composite
def pair_lists(draw):
    """One to six (truths, estimates) pairs of up to five targets each, each
    pair in its own dimension from 1 to 3, some sets empty and of shape (0,
    0); on an integer lattice (exact ties) or in general position."""
    lattice = draw(st.booleans())
    elements = (st.integers(0, 4).map(float) if lattice
                else st.floats(-6.0, 6.0, allow_nan=False))
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        dim = draw(st.integers(1, 3))
        sets = [draw(arrays(np.float64, (draw(st.integers(0, 5)), dim), elements=elements))
                for _ in range(2)]
        pairs.append(tuple(np.zeros((0, 0)) if len(points) == 0 and draw(st.booleans())
                           else points for points in sets))
    return pairs


@settings(max_examples=300, deadline=None)
@given(pair_lists(), st.sampled_from(["euclidean", "manhattan", manhattan]),
       st.sampled_from([1.0, 2.0, 3.0, 1e200]), st.sampled_from([2.0, 1.0, 0.5]),
       st.lists(st.sampled_from([1.0, 2.0, 3.5]), min_size=1, max_size=2, unique=True),
       st.booleans())
def test_pairs_solved_together_match_each_pair_alone_bitwise(pairs, base, c, alpha, exponents,
                                                             empty):
    # integer cut-offs keep lattice ties exact; c = 1e200 makes c**p
    # overflow for p > 1, which raises unless every set is empty
    if empty:
        pairs = [(x[:0], y[:0]) for x, y in pairs]
    requests = {p: ALL_NAMES for p in exponents}
    alone = []
    for x, y in pairs:
        try:
            alone.append(metrics._evaluate(x, y, base, c, alpha, requests))
        except ValueError as exc:
            alone.append(str(exc))
    errors = [result for result in alone if isinstance(result, str)]
    if errors:
        with pytest.raises(ValueError) as raised:
            metrics._evaluate_each(pairs, base, c, alpha, requests)
        assert str(raised.value) == errors[0]
        return
    got = metrics._evaluate_each(pairs, base, c, alpha, requests)
    assert set(got) == {(name, p) for p in exponents for name in ALL_NAMES}
    for key, values in got.items():
        assert values.tobytes() == np.array([result[key] for result in alone]).tobytes(), key


def some_dimension(seed):
    """A custom sampler's draw whose sets have 1 to 3 coordinates by seed."""
    rng = np.random.default_rng(seed)
    dim = 1 + seed % 3
    return rng.normal(size=(int(rng.integers(0, 4)), dim)), rng.normal(size=(3, dim))


@pytest.mark.parametrize("route", ["callable", "wide", "mixed dimensions"])
def test_a_fallback_chunk_is_solved_in_one_call(monkeypatch, route):
    requests = {1.0: ALL_NAMES, 2.0: ALL_NAMES}
    base = manhattan if route == "callable" else "euclidean"
    if route == "mixed dimensions":
        sampler = rfs.CustomJointSampler(some_dimension)
        keys = rfs._sample_keys(3, 0, 30)
        pairs = [sampler.sample_pair(key) for key in keys.tolist()]
        chunk = functools.partial(rfs._chunk_values, sampler, None, keys, base, 2.0, 2.0, requests)
    else:
        k = 130 if route == "wide" else 6  # 16,900 slot pairs, beyond the block size
        stack = clustered_stack(np.random.default_rng(2), 12, k, k, 2, 3, 0.5, 0.7)
        pairs = [(x[xp], y[yp]) for x, xp, y, yp in zip(*stack)]
        chunk = functools.partial(metrics._evaluate_padded, *stack, base, 2.0, 2.0, requests)
    expected = [metrics._evaluate(x, y, base, 2.0, 2.0, requests) for x, y in pairs]
    calls = []
    solve = metrics._solve
    monkeypatch.setattr(metrics, "_solve", lambda *args: calls.append(1) or solve(*args))
    got = chunk()
    assert len(calls) == 1
    for key, values in got.items():
        assert values.tobytes() == np.array([e[key] for e in expected]).tobytes(), key


# --- totals beyond the float range ------------------------------------------

FAR_TRUTHS = [[0.0, 0.0], [1e3, 0.0], [2e3, 0.0], [3e3, 0.0]]


@pytest.mark.parametrize("metric", [
    lambda: gospa(FAR_TRUTHS, [], GospaParams(c=1e308, p=1.0)),
    # a stop-gap: this OSPA is finite (about 7.5e307), only its sum
    # 3 * c**p is not; costs scaled by a power of two would return it
    lambda: ospa(FAR_TRUTHS, [[5e3, 0.0]], c=1e308, p=1.0),
], ids=["gospa", "ospa"])
def test_a_total_beyond_the_float_range_is_a_value_error(metric):
    with pytest.raises(ValueError, match="cost matrix entries must be finite"):
        metric()


# Right answers that costs scaled by a power of two would give, and that the
# unscaled costs lose today: c**p or d**p underflows to 0, a squared
# difference overflows, or c**p or a total overflows and raises.  A fix
# removes the marks.
UNSCALED = pytest.mark.xfail(strict=True, raises=AssertionError, reason="lost to rounding")
UNSCALED_RAISES = pytest.mark.xfail(strict=True, raises=ValueError, reason="raises on overflow")


@pytest.mark.parametrize("metric, expected", [
    pytest.param(lambda: gospa([[0.0]], [[3.0]], GospaParams(c=1e-200, p=2.0)).total, 1e-200,
                 marks=UNSCALED, id="tiny-cutoff-gospa"),
    pytest.param(lambda: ospa([[0.0]], [[3.0]], c=1e-200, p=2.0), 1e-200, id="tiny-cutoff-ospa"),
    pytest.param(lambda: gospa([[0.0]], [], GospaParams(c=1e-200, p=2.0)).total,
                 1e-200 / math.sqrt(2.0), marks=UNSCALED, id="tiny-cutoff-missed"),
    pytest.param(lambda: gospa([[0.0, 0.0]], [[1e200, 0.0]], GospaParams(c=1e300)).total, 1e200,
                 marks=UNSCALED, id="huge-pair"),
    pytest.param(lambda: gospa([[0.0, 0.0]], [[1e-170, 1e-170]], GospaParams(c=1.0)).total,
                 math.sqrt(2.0) * 1e-170, marks=UNSCALED, id="tiny-pair"),
    pytest.param(lambda: gospa([[0.0]], [[1e-10]], GospaParams(c=1.0, p=400.0)).total, 1e-10,
                 marks=UNSCALED, id="tiny-pair-power"),
    pytest.param(lambda: gospa([[0.0]], [[5.0]], GospaParams(c=8.0, p=400.0)).total, 5.0,
                 marks=UNSCALED_RAISES, id="huge-cutoff-power-paired"),
    pytest.param(lambda: gospa([[0.0]], [[5.0]], GospaParams(c=3.0, p=700.0)).total, 3.0,
                 marks=UNSCALED_RAISES, id="huge-cutoff-power-unpaired"),
    pytest.param(lambda: ospa(FAR_TRUTHS, [], c=1e308, p=1.0), 1e308,
                 marks=UNSCALED_RAISES, id="huge-ospa-sum"),
])
def test_answers_at_every_scale(metric, expected):
    assert math.isclose(metric(), expected, rel_tol=1e-12)


# 100 close pairs and three remote targets: 10,302 pairs, so they take the
# sweep.  Both coordinates spread beyond the float range, and the first truth
# and estimate are candidates on the first coordinate but 2e308 apart on the
# second.
FAR_APART = ([[1e308, 1e308]] + [[float(i), 0.0] for i in range(100)],
             [[1e308, -1e308], [-1e308, 0.0]] + [[i + 0.1, 0.0] for i in range(100)])


@pytest.mark.parametrize("base", ["euclidean", "manhattan"])
def test_differences_beyond_the_float_range_warn_of_nothing(base):
    x, y = FAR_APART
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the whole matrix
        assert cutoff_distance([1e308], [-1e308], 1.0, base) == 1.0
        params = GospaParams(c=1.0, p=2.0, base_distance=base)
        assert gospa([[1e308]], [[-1e308]], params).total == 1.0
        assert ospa([[1e308]], [[-1e308]], c=1.0, p=2.0, base_distance=base) == 1.0
        # the sweep, and a sweep whose windows reach beyond the float range
        assert gospa(x, y, GospaParams(c=1.0, base_distance=base)).total == 11.49999999999986
        assert ospa(x, y, c=1.0, base_distance=base) == 0.11764705882352804
        assert gospa(x, y, GospaParams(c=1e308, base_distance=base)).total == 1.5e308


# --- per-sample sums and powers ------------------------------------------------

def left_to_right_sums(slots):
    """Each row's sum, one slot after another in Python floats."""
    sums = []
    for row in slots.tolist():
        total = row[0] if row else 0.0
        for value in row[1:]:
            total += value
        sums.append(total)
    return np.array(sums, dtype=float)


def spread_slots(shape):
    """Slot values over 16 decades, so that the order of the additions shows."""
    return 10.0 ** np.random.default_rng(shape).uniform(-8.0, 8.0, shape)


@pytest.mark.parametrize("shape", [(1, 9), (1, 12), (40, 1), (3072, 2), (3072, 12), (109, 50),
                                   (256, 50), (3, 40), (1, 1000), (5, 0), (0, 4)])
def test_slot_sums_add_left_to_right(shape):
    slots = spread_slots(shape)
    assert metrics._slot_sums(slots).tobytes() == left_to_right_sums(slots).tobytes()


@pytest.mark.parametrize("shape", [(1, 9), (3072, 12), (109, 50), (256, 50), (3, 40), (1, 1000)])
def test_left_to_right_sums_are_not_numpys(shape):
    # NumPy sums rows of 9 or more pairwise, so the test above would see a
    # summer that used it
    slots = spread_slots(shape)
    assert not np.array_equal(left_to_right_sums(slots), slots.sum(axis=1))


# the exponents that take a correctly rounded IEEE operation instead of pow
IEEE_POWERS = {0.5: math.sqrt, 2.0: lambda value: value * value}


@pytest.mark.parametrize("exponent", [1.0 / 3.7, 1.0 / 400.0, 0.5, 2.0, 1.0 / 3.0, 3.7])
def test_powers_are_libm_pow(power_bases, exponent):
    # libm's pow, except at 1/2 and 2: the square root and the product
    values, powers = [], []
    for value in power_bases.tolist():
        try:
            power = math.pow(value, exponent)
        except OverflowError:
            continue
        values.append(value)
        powers.append(IEEE_POWERS[exponent](value) if exponent in IEEE_POWERS else power)
    got = metrics._powers(np.array(values), exponent)
    assert got.dtype == np.float64
    assert got.tobytes() == np.array(powers).tobytes()


def test_powers_of_nothing_and_the_identity_and_overflow():
    assert metrics._powers(np.zeros(0), 0.5).tobytes() == np.zeros(0).tobytes()
    values = np.array([0.0, 5e-324, 1.7, 1e300])
    assert metrics._powers(values, 1.0).tobytes() == values.tobytes()
    with pytest.raises(OverflowError):
        metrics._powers(values, 2.0)


# the largest float whose square is finite
LARGEST_SQUARE_ROOT = math.sqrt(sys.float_info.max)


@pytest.mark.parametrize("value", [0.0, 5e-324, LARGEST_SQUARE_ROOT,
                                   math.nextafter(LARGEST_SQUARE_ROOT, math.inf)])
@pytest.mark.parametrize("exponent", [0.5, 2.0])
def test_ieee_powers_at_the_ends_of_the_range(value, exponent):
    # the array rule, its scalar twin and c**p give one value, the IEEE
    # operation's, and a square beyond the float range raises OverflowError
    # (ValueError for c**p) without a NumPy warning
    expected = IEEE_POWERS[exponent](value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if math.isinf(expected):
            with pytest.raises(OverflowError):
                metrics._powers(np.array([1.0, value]), exponent)
            with pytest.raises(OverflowError):
                metrics._power(value, exponent)
            with pytest.raises(ValueError, match="finite"):
                metrics._cut_powers(value, exponent)
            return
        got = metrics._powers(np.array([value]), exponent)
        assert got.tobytes() == np.array([expected]).tobytes()
        assert np.array([metrics._power(value, exponent)]).tobytes() == got.tobytes()
        assert np.array([metrics._cut_powers(value, exponent)]).tobytes() == got.tobytes()


def test_ieee_powers_build_no_object_array(monkeypatch):
    # the object-dtype route is libm's pow, for the other exponents only
    values = np.array([0.0, 5e-324, 1.7, 1e150])
    monkeypatch.setattr(np, "power", None)
    assert metrics._powers(values, 0.5).tobytes() == np.sqrt(values).tobytes()
    assert metrics._powers(values, 2.0).tobytes() == (values * values).tobytes()
    assert metrics._powers(values, 1.0) is values


def test_a_square_of_infinity_is_not_an_overflow():
    # as pow(inf, 2) is inf, only a finite value's square overflows
    values = np.array([1.0, math.inf])
    assert metrics._powers(values, 2.0).tobytes() == values.tobytes()
    assert metrics._power(math.inf, 2.0) == math.inf


@given(st.floats(1e-150, 1e150), st.floats(0.0, 1.0, exclude_max=True))
@example(1.0, 0.0)
# glibc's pow(c, 2) is one ulp below c * c here, and the float below c is
# the closest edge
@example(10.867964462777106, 1.0 - 2.0 ** -53)
def test_the_cut_prices_every_edge_at_or_below_itself(c, fraction):
    # at p = 2 an edge costs NumPy's distance ** 2, the correctly rounded
    # product, which is monotone: no edge closer than c costs more than
    # c**p, and an edge at c costs c**p exactly; libm's pow(c, 2) may lie
    # one ulp below c * c
    cut = metrics._cut_powers(c, 2)
    distance = np.array([min(c * fraction, math.nextafter(c, 0.0)), c])
    closer, at_c = (distance ** 2.0).tolist()
    assert closer <= cut
    assert at_c == cut == c * c


# --- one cut-off power ---------------------------------------------------------

@given(st.floats(0.5, 50.0), st.sampled_from([1.1, 1.5, 2.5, 3.5, 7.0]))
# NumPy's array power and libm's pow round these c**p differently
@example(8.595399101725773, 3.5)
@example(31.3477636619591, 2.5)
@example(5.090901038407347, 1.5)
def test_a_far_estimate_costs_what_no_estimate_costs(c, p):
    # a truth and an estimate too far apart to pair cost c**p in the
    # complete assignment, as the truth alone does as a missed target
    truth, far, params = [[0.0, 0.0]], [[1e6, 0.0]], GospaParams(c=c, alpha=1.0, p=p)
    assert ospa(truth, far, c=c, p=p) == ospa(truth, [], c=c, p=p)
    assert gospa(truth, far, params).total == gospa(truth, [], params).total


@given(st.floats(0.5, 50.0), st.sampled_from([1.1, 1.5, 2.5, 3.5, 7.0]))
# n * c**p / n, rooted, is one ulp above c here
@example(30.78890569830018, 2.5)
def test_ospa_saturates_at_exactly_c(c, p):
    # with no truth-estimate pair within c, OSPA**p is c**p exactly
    truth, far = [[0.0, 0.0]], [[1e6, 0.0]]
    assert ospa(truth, [], c=c, p=p) == c
    assert ospa([], truth, c=c, p=p) == c
    assert ospa(truth, far, c=c, p=p) == c
    assert ospa([], [], c=c, p=p) == 0.0


def test_ospa_with_a_pair_is_at_most_c():
    # d**2.5 lies just below c**2.5, and the root of the sum rounds one ulp
    # above c
    c = 30.78890569830018
    d = math.nextafter(c, 0.0)
    assert ospa([[0.0]], [[d]], c=c, p=2.5) == c
    assert ospa([[0.0], [100.0]], [[d]], c=c, p=2.5) == c


def test_a_numpy_exponent_takes_pythons_cutoff_power():
    # a NumPy float p would make c**p NumPy's power, which warns on
    # overflow instead of raising
    with pytest.raises(ValueError, match="finite"):
        gospa([[0.0]], [[100.0]], GospaParams(c=8.0, p=np.float64(400.0)))
    assert type(metrics._cut_powers(8.0, np.float64(3.5))) is float


# --- the one solver: components by label propagation --------------------------

def count_lap_calls(monkeypatch):
    calls = []
    solve = metrics.solve_full_assignment
    monkeypatch.setattr(metrics, "solve_full_assignment",
                        lambda matrix: calls.append(np.shape(matrix)) or solve(matrix))
    return calls


def test_separate_small_clusters_need_no_lap(monkeypatch):
    # three 2 x 2 clusters far apart in each sample: three enumerable
    # components, although their union has six truths
    rng = np.random.default_rng(4)
    sites = np.repeat([[0.0, 0.0], [50.0, 0.0], [100.0, 0.0]], 2, axis=0)
    xs = sites + rng.uniform(0.0, 1.0, (5, 6, 2))
    ys = sites + rng.uniform(0.0, 1.0, (5, 6, 2))
    c, p = 2.0, 2.0
    calls = count_lap_calls(monkeypatch)
    got = evaluate_stack(xs, ys, "euclidean", c, 2.0, {p: ALL_NAMES})
    for k, (x, y) in enumerate(zip(xs, ys)):
        detected = gospa(x, y, GospaParams(c=c, alpha=2.0, p=p))
        assert got["gospa", p][k] == detected.total
        assert got["uospa", p][k] == gospa(x, y, GospaParams(c=c, alpha=1.0, p=p)).total
        assert got["ospa", p][k] == ospa(x, y, c=c, p=p)
        assert len(detected.assignment.pairs) == 6
        assert detected.assignment.pairs == gospa_alpha2_gamma_oracle(x, y, c, p)
        assert detected.total == pytest.approx(gospa_alpha2_assignment_oracle(x, y, c, p),
                                               rel=1e-12)
    assert calls == []


@pytest.mark.parametrize("n_x, n_y", [(6, 2), (10, 1)])
def test_many_truths_on_few_estimates_need_no_lap(monkeypatch, n_x, n_y):
    # every truth within c of every estimate, so each sample is one
    # component, whose (n_y + 1) ** n_x injections (729 and 1,024) are
    # within the enumeration limit
    rng = np.random.default_rng(n_x)
    xs, ys = rng.uniform(0.0, 1.0, (5, n_x, 2)), rng.uniform(0.0, 1.0, (5, n_y, 2))
    c, p = 2.0, 2.0
    calls = count_lap_calls(monkeypatch)
    got = evaluate_stack(xs, ys, "euclidean", c, 2.0, {p: ALL_NAMES})
    for k, (x, y) in enumerate(zip(xs.tolist(), ys.tolist())):
        detected = gospa(x, y, GospaParams(c=c, alpha=2.0, p=p))
        assert got["gospa", p][k] == detected.total
        assert len(detected.assignment.pairs) == n_y
        assert detected.assignment.pairs == gospa_alpha2_gamma_oracle(x, y, c, p)
    assert calls == []


def test_only_large_or_unclear_components_take_the_lap(monkeypatch):
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    rng = np.random.default_rng(11)
    x, y = rng.uniform(0.0, 8.0, (1000, 2)), rng.uniform(0.0, 8.0, (1000, 2))
    c, p = 0.16, 2.0
    distances = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=2)
    rows, cols = np.nonzero(distances < c)
    graph = coo_matrix((np.ones(len(rows)), (rows, 1000 + cols)), shape=(2000, 2000))
    _, label = connected_components(graph, directed=False)
    expected = 0
    for component in np.unique(label[rows]):
        truths = np.flatnonzero(label[:1000] == component)
        estimates = np.flatnonzero(label[1000:] == component)
        if len(truths) == len(estimates) == 1:  # a forced pair
            continue
        if not metrics._enumerable(len(truths), len(estimates)):
            expected += 1
            continue
        # within the limits: the LAP takes it only when its optimum is unclear
        block = distances[np.ix_(truths, estimates)]
        costs = sorted(sum(block[i, j] ** p - c ** p for i, j in pairs)
                       for pairs in iter_assignment_sets(*block.shape)
                       if all(block[i, j] < c for i, j in pairs))
        expected += costs[1] - costs[0] <= metrics._ENUMERATION_TIE_GAP * c ** p
    calls = count_lap_calls(monkeypatch)
    detected = gospa(x, y, GospaParams(c=c, alpha=2.0, p=p))
    distance = ospa(x, y, c=c, p=p)
    assert 0 < len(calls) == 2 * expected
    # the values that one LAP per component gave this input
    assert detected.total.hex() == "0x1.0a58a7fef1519p+2"
    assert distance.hex() == "0x1.0d860556cf8edp-3"


@st.composite
def mixed_component_stacks(draw):
    """A padded stack whose targets sit around three sites far apart, so a
    sample's components mix forced pairs, small clusters and clusters
    beyond the enumeration limits; on the integer lattice, with the
    Manhattan distance and an integer c, costs tie exactly."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_s, k_x, k_y = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    lattice = draw(st.booleans())
    stack = []
    for k in (k_x, k_y):
        offsets = (rng.integers(0, 3, (n_s, k, 2)).astype(float) if lattice
                   else rng.uniform(0.0, 2.5, (n_s, k, 2)))
        stack += [20.0 * rng.integers(0, 3, (n_s, k, 1)) + offsets,
                  rng.random((n_s, k)) < draw(st.sampled_from([0.6, 1.0]))]
    c = float(draw(st.integers(1, 3))) if lattice else draw(st.floats(0.5, 3.0))
    return stack, "manhattan" if lattice else "euclidean", c


@settings(max_examples=100, deadline=None)
@given(mixed_component_stacks(), st.sampled_from([1.0, 2.0, 3.5]))
def test_each_samples_gamma_is_the_oracles(case, p):
    (xs, x_present, ys, y_present), base, c = case
    edges = metrics._padded_edges(xs, x_present, ys, y_present, base, c)
    k_x, k_y = x_present.shape[1], y_present.shape[1]
    row, col, _ = metrics._gamma(edges, k_x, k_y, {p: metrics._cut_powers(c, p)})[p]
    for k, (x, xp, y, yp) in enumerate(zip(xs, x_present, ys, y_present)):
        # the oracle numbers each sample's present targets from 0
        x_index, y_index = np.cumsum(xp) - 1, np.cumsum(yp) - 1
        mine = row // k_x == k
        gamma = sorted(zip(x_index[row[mine] % k_x].tolist(), y_index[col[mine] % k_y].tolist()))
        distance = manhattan if base == "manhattan" else euclidean
        assert tuple(gamma) == gospa_alpha2_gamma_oracle(x[xp].tolist(), y[yp].tolist(), c, p,
                                                         distance=distance)


def test_label_propagation_finds_the_connected_components():
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    rng = np.random.default_rng(2)
    # random graphs, and a path of 300 edges that single-step propagation
    # would take 150 passes to cover
    cases = [(np.sort(rng.integers(0, n, e)), rng.integers(0, m, e))
             for n, m, e in rng.integers(1, 40, (100, 3))]
    cases.append((np.arange(300) // 2, (np.arange(300) + 1) // 2))
    for rows, cols in cases:
        row_keys, row_of = np.unique(rows, return_inverse=True)
        col_keys, col_of = np.unique(cols, return_inverse=True)
        n_rows, n_cols = len(row_keys), len(col_keys)
        keys, (row_comp, col_comp, n_comp) = metrics._components(rows, cols)
        assert all(map(np.array_equal, keys, (row_keys, row_of, col_keys, col_of)))
        graph = coo_matrix((np.ones(len(rows)), (row_of, n_rows + col_of)),
                           shape=(n_rows + n_cols,) * 2)
        count, label = connected_components(graph, directed=False)
        assert n_comp == count
        # the same partition, numbered in order of each component's first row
        assert len(set(zip(np.concatenate([row_comp, col_comp]).tolist(),
                           label.tolist()))) == count
        assert np.array_equal(np.unique(row_comp, return_index=True)[1],
                              np.sort(np.unique(row_comp, return_index=True)[1]))


def all_slot_pair_edges(xs, x_present, ys, y_present, base, c):
    """:func:`metrics._padded_edges` on every truth-estimate slot pair: the
    gap on the widest coordinate of each pair in each sample, then the
    distance of each pair within reach."""
    (n_s, k_x), (k_y, dim) = x_present.shape, ys.shape[1:]
    if not (k_x and k_y):
        return metrics._no_edges()
    axis = metrics._widest_axis(xs, ys)
    x_line = np.where(x_present, xs[:, :, axis], np.nan)
    y_line = np.where(y_present, ys[:, :, axis], np.nan)
    reach = max(c * (1.0 + 1e-9), 1e-150)
    sample, truth, estimate = np.nonzero(np.abs(x_line[:, :, None] - y_line[:, None, :]) <= reach)
    distance = metrics._distances(xs[sample, truth] - ys[sample, estimate], base)
    edge = distance < c
    return sample[edge], truth[edge], estimate[edge], distance[edge]


@st.composite
def edge_stacks(draw):
    """A padded stack of slots each scattered around its own site, with one
    sample or several, no truth or estimate slots, a slot empty in every
    sample, and at one of five scales: spread in space; spread in space with
    every absent target parked at 1e6 on the coordinate along which the
    present ones spread least, so that the widest spread of all points and
    that of the present targets lie along different coordinates; on the
    integer lattice with ties at exactly c; near the reach floor of 1e-150;
    and near the float limit, where differences of ranges overflow to
    ±inf."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_s = draw(st.sampled_from([1, 1, 2, 5, 40]))
    k_x, k_y, dim = draw(st.integers(0, 7)), draw(st.integers(0, 7)), draw(st.integers(1, 3))
    scale = draw(st.sampled_from(["spread", "parked", "lattice", "tiny", "huge"]))
    base = "manhattan" if scale == "lattice" else draw(st.sampled_from(["euclidean", "manhattan"]))
    stack = []
    for k in (k_x, k_y):
        if scale == "spread":
            points = rng.uniform(0.0, 30.0, (1, k, dim)) + rng.normal(0.0, 2.0, (n_s, k, dim))
            c = draw(st.floats(0.5, 8.0))
        elif scale == "lattice":
            points = (rng.integers(0, 6, (1, k, dim)) + rng.integers(0, 3, (n_s, k, dim))) * 1.0
            c = float(draw(st.integers(1, 3)))
        elif scale == "parked":
            points = (rng.uniform(0.0, 30.0, (1, k, dim)) * np.linspace(0.1, 1.0, dim)
                      + rng.normal(0.0, 2.0, (n_s, k, dim)))
            c = draw(st.floats(0.5, 8.0))
        elif scale == "tiny":
            c = draw(st.sampled_from([1e-152, 1e-150, 2e-150, 1e-148]))
            points = (rng.uniform(0.0, 4.0, (1, k, dim)) + rng.uniform(0.0, 2.0, (n_s, k, dim))) * c
        else:  # a slot keeps its signs in every sample, or not
            signs = rng.choice([-1.0, 1.0], (n_s if draw(st.booleans()) else 1, k, dim))
            points = signs * rng.uniform(0.8e308, 1.7e308, (n_s, k, dim))
            c = draw(st.sampled_from([1.0, 1e300, 1.7e308]))
        present = rng.random((n_s, k)) < draw(st.sampled_from([0.5, 1.0]))
        if k and draw(st.booleans()):
            present[:, rng.integers(k)] = False
        if scale == "parked":
            points[~present, 0] = 1e6
        stack += [points, present]
    return stack, base, c


def edges_and_warnings(find_edges, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        edges = find_edges(*args)
    return edges, collections.Counter(str(warning.message) for warning in caught)


@settings(max_examples=300, deadline=None)
@given(edge_stacks())
def test_padded_edges_are_those_of_every_slot_pair(case):
    stack, base, c = case
    got, warned = edges_and_warnings(metrics._padded_edges, *stack, base, c)
    expected, expected_warnings = edges_and_warnings(all_slot_pair_edges, *stack, base, c)
    for column, reference in zip(got, expected):
        assert column.dtype == reference.dtype and np.array_equal(column, reference)
    # a difference of ranges that overflows warns of nothing
    assert not warned - expected_warnings


def test_slot_pairs_within_reach_exactly_are_kept():
    reach = 2.0 * (1.0 + 1e-9)
    beyond = np.nextafter(reach, np.inf)
    line = np.array([[reach, -reach, beyond, -beyond, np.nan]])
    for coordinate in (0, 1):  # the other coordinate is 0 in every slot
        lines = np.zeros((1, 5, 2))
        lines[:, :, coordinate] = line
        lines[:, 4] = np.nan  # an empty slot is empty on every coordinate
        origin = np.zeros((1, 1, 2))
        truth, estimate, _ = metrics._slot_pairs(np.concatenate((lines, origin), axis=1), 5, reach)
        assert truth.tolist() == [0, 1] and estimate.tolist() == [0, 0]
        truth, estimate, _ = metrics._slot_pairs(np.concatenate((origin, lines), axis=1), 1, reach)
        assert truth.tolist() == [0, 0] and estimate.tolist() == [0, 1]


def test_spread_stack_takes_the_gap_on_few_slot_pairs():
    rng = np.random.default_rng(14)
    sites = rng.uniform(0.0, 1000.0, (50, 2))
    stack = [sites + rng.normal(0.0, 1.0, (100, 50, 2)), rng.random((100, 50)) < 0.85,
             sites + rng.normal(0.0, 2.0, (50, 2)) + rng.normal(0.0, 1.0, (100, 50, 2)),
             rng.random((100, 50)) < 0.85]
    xs, x_present, ys, y_present = stack
    slots = np.concatenate((xs, ys), axis=1)
    slots[~np.concatenate((x_present, y_present), axis=1)] = np.nan
    truth, estimate, _ = metrics._slot_pairs(slots, 50, 10.0)
    # 52 slot pairs hold an edge; a range on one coordinate alone keeps 131
    assert 50 <= len(truth) <= 60
    assert np.array_equal(np.lexsort((estimate, truth)), np.arange(len(truth)))
    expected = all_slot_pair_edges(*stack, "euclidean", 10.0)
    held = set(zip(expected[1].tolist(), expected[2].tolist()))
    assert held <= set(zip(truth.tolist(), estimate.tolist()))
    for column, reference in zip(metrics._padded_edges(*stack, "euclidean", 10.0), expected):
        assert np.array_equal(column, reference)


def brute_force_slot_pairs(slots, k_x, reach):
    """The rule of :func:`metrics._slot_pairs` one slot pair and one
    coordinate at a time, in Python floats: each slot's box is its smallest
    and largest value over the samples, NaN ignored, and a pair is kept
    where ``x_lo - y_hi <= reach`` and ``x_hi - y_lo >= -reach`` on every
    coordinate; the axis is the first of widest spread over all slots."""
    _, k, dim = slots.shape
    columns = [[[v for v in slots[:, j, d].tolist() if not math.isnan(v)] for d in range(dim)]
               for j in range(k)]
    lo = [[min(values, default=math.nan) for values in slot] for slot in columns]
    hi = [[max(values, default=math.nan) for values in slot] for slot in columns]
    pairs = [(i, j) for i in range(k_x) for j in range(k_x, k)
             if all(lo[i][d] - hi[j][d] <= reach and hi[i][d] - lo[j][d] >= -reach
                    for d in range(dim))]
    spread = [max((h[d] for h in hi if not math.isnan(h[d])), default=math.nan)
              - min((low[d] for low in lo if not math.isnan(low[d])), default=math.nan)
              for d in range(dim)]
    return ([i for i, _ in pairs], [j - k_x for _, j in pairs]), int(np.argmax(spread))


def brute_force_edges(xs, x_present, ys, y_present, base, c):
    """Every pair of present targets closer than c, sample by sample, with
    the distances of each sample's whole distance matrix, as ``gospa``
    takes them."""
    edges = []
    for s, (x, xp, y, yp) in enumerate(zip(xs, x_present, ys, y_present)):
        distances = metrics._distances(x[:, None, :] - y[None, :, :], base)
        edges += [(s, i, j, distances[i, j]) for i in np.flatnonzero(xp).tolist()
                  for j in np.flatnonzero(yp).tolist() if distances[i, j] < c]
    sample, truth, estimate, distance = zip(*edges) if edges else ((),) * 4
    return (np.array(sample, dtype=np.intp), np.array(truth, dtype=np.intp),
            np.array(estimate, dtype=np.intp), np.array(distance, dtype=float))


@st.composite
def padded_stacks(draw):
    """Padded stacks of up to 6 samples of truths and estimates scattered
    around their slots' sites in 1 to 4 dimensions, with 1 or 12 copies of
    the masks, some slots absent in every copy, and the absent slots holding
    NaN, as custom samplers' stacks do, or drawn points, as models' do."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_s, copies = draw(st.integers(1, 6)), draw(st.sampled_from([1, 12]))
    dim = draw(st.integers(1, 4))
    side, nan_absent = draw(st.sampled_from([3.0, 20.0])), draw(st.booleans())
    stack = []
    for k in (draw(st.integers(0, 6)), draw(st.integers(0, 6))):
        points = rng.uniform(0.0, side, (1, k, dim)) + rng.normal(0.0, 1.0, (n_s, k, dim))
        present = rng.random((copies * n_s, k)) < draw(st.sampled_from([0.5, 0.9]))
        if k and draw(st.booleans()):
            present[:, rng.integers(k)] = False
        if nan_absent:
            points[~present.reshape(copies, n_s, k).any(axis=0)] = np.nan
        stack += [points, present]
    return stack, draw(st.sampled_from(["euclidean", "manhattan"])), draw(st.floats(0.5, 6.0))


@settings(max_examples=200, deadline=None)
@given(padded_stacks(), st.sampled_from([1.0, 2.0]), st.sampled_from([1.0, 2.0, 3.5]))
def test_padded_stacks_match_the_brute_force_rule(case, alpha, p):
    (xs, x_present, ys, y_present), base, c = case
    n_s, k_x = xs.shape[:2]
    copies = len(x_present) // n_s
    x_any = x_present.reshape(copies, n_s, -1).any(axis=0)
    y_any = y_present.reshape(copies, n_s, -1).any(axis=0)
    # the slot pairs and the axis, on the stack as given and with every
    # absent slot at NaN
    reach = c * (1.0 + 1e-9)
    for slots in (np.concatenate((xs, ys), axis=1),
                  np.where(np.concatenate((x_any, y_any), axis=1)[:, :, None],
                           np.concatenate((xs, ys), axis=1), np.nan)):
        if not (k_x and ys.shape[1]):
            continue
        truth, estimate, axis = metrics._slot_pairs(slots, k_x, reach)
        (expected_truth, expected_estimate), expected_axis = brute_force_slot_pairs(
            slots, k_x, reach)
        assert truth.tolist() == expected_truth and estimate.tolist() == expected_estimate
        assert axis == expected_axis
    got = metrics._padded_edges(xs, x_any, ys, y_any, base, c)
    for column, reference in zip(got, brute_force_edges(xs, x_any, ys, y_any, base, c)):
        assert column.dtype == reference.dtype and column.tobytes() == reference.tobytes()
    requests = {p: ALL_NAMES}
    values = metrics._evaluate_padded(xs, x_present, ys, y_present, base, c, alpha, requests)
    for row, (xp, yp) in enumerate(zip(x_present, y_present)):
        s = row % n_s
        expected = metrics._evaluate(xs[s][xp], ys[s][yp], base, c, alpha, requests)
        for key, column in values.items():
            assert column[row:row + 1].tobytes() == np.array([expected[key]]).tobytes(), key
