"""Tests for the GOSPA / OSPA metric family."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gospa import metrics
from gospa.assignment import solve_full_assignment
from gospa.metrics import (
    GospaParams,
    as_state_array,
    cutoff_distance,
    gospa,
    ospa,
)

from oracles import (
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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
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

        monkeypatch.setattr(metrics, "_connected_components", no_search)
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
        patch.setattr(metrics, "_SWEEP_MAX_SHARE", 1.0)  # never falls back
        swept = every_result(*case)
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
    # c ** 3.5 differs in the last bit between NumPy's array power and
    # Python's, so each sum must take the one that _totals takes.
    requests = {2.0: ALL_NAMES, 3.5: ALL_NAMES}
    c = 5.664437418921517
    for alpha in (2.0, 0.5):
        expected = [metrics._evaluate(x, y, base, c, alpha, requests) for x, y in zip(xs, ys)]
        with monkeypatch.context() as patch:
            patch.setattr(metrics, "_evaluate", None)  # any scalar solve would fail
            got = evaluate_stack(xs, ys, base, c, alpha, requests)
        for key, values in got.items():
            assert values == [e[key] for e in expected]


@pytest.mark.parametrize("n_x, n_y, base", [(5, 2, "euclidean"), (3, 10, "euclidean"),
                                            (2, 3, manhattan)])
def test_other_stacks_take_the_scalar_kernel(monkeypatch, n_x, n_y, base):
    # every truth within c of every estimate, so no pair is forced and each
    # sample's remainder is the whole sample: beyond the enumeration limits
    # for the named base, and never enumerated for a callable one
    rng = np.random.default_rng(3)
    xs, ys = rng.normal(scale=0.1, size=(5, n_x, 2)), rng.normal(scale=0.1, size=(5, n_y, 2))
    calls = []
    evaluate = metrics._evaluate
    monkeypatch.setattr(metrics, "_evaluate", lambda *args: calls.append(1) or evaluate(*args))
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
    chosen, _, unclear = metrics._enumerated_gamma(distances, c, p, c ** p)
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


def test_a_cost_entry_beyond_the_float_range_is_a_value_error():
    xs, ys = np.zeros((2, 1, 2)), np.ones((2, 2, 2))
    for stack in ((xs, ys), (xs, ys[:, :0]), (xs[:, :0], ys)):
        with pytest.raises(ValueError, match="finite"):
            evaluate_stack(*stack, "euclidean", 1e200, 2.0, {2.0: ALL_NAMES})
    assert evaluate_stack(xs[:, :0], ys[:, :0], "euclidean", 1e200, 2.0,
                          {2.0: ALL_NAMES})["ospa", 2.0] == [0.0, 0.0]


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
            patch.setattr(metrics, "_evaluate", None)  # any scalar solve would fail
            got = metrics._evaluate_padded(xs, x_present, ys, y_present, base, c, alpha,
                                           requests)
        for key, values in got.items():
            assert values == [e[key] for e in expected]


def test_padded_stack_beyond_the_block_size_is_solved_per_sample(monkeypatch):
    rng = np.random.default_rng(5)
    stack = clustered_stack(rng, 4, 6, 7, 2, 3, 0.5, 0.8)
    calls = []
    evaluate = metrics._evaluate
    monkeypatch.setattr(metrics, "_PADDED_BLOCK_CELLS", 41)
    monkeypatch.setattr(metrics, "_evaluate", lambda *args: calls.append(1) or evaluate(*args))
    assert_padded_matches_evaluate(*stack, "euclidean", 2.0, 1.0, {1.0: ALL_NAMES})
    assert len(calls) == 2 * 4


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 30), st.integers(1, 6), st.integers(1, 6),
       st.integers(1, 5), st.sampled_from([1.0, 2.0]))
def test_padded_lattice_ties_reach_the_scalar_kernel(seed, n_s, k_x, k_y, c, p):
    # integer coordinates, Manhattan distances and an integer cut-off keep
    # every cost exact, so ties are real ties, and each must be solved by
    # _evaluate; the tie rule then makes every value bit-identical
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, 5, (n_s, k_x, 2)).astype(float)
    ys = rng.integers(0, 5, (n_s, k_y, 2)).astype(float)
    x_present, y_present = rng.random((n_s, k_x)) < 0.7, rng.random((n_s, k_y)) < 0.7
    c = float(c)
    solved = []
    evaluate = metrics._evaluate

    def recording(x, y, *args):
        solved.append((x.tobytes(), y.tobytes()))
        return evaluate(x, y, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "_evaluate", recording)
        for alpha in (2.0, 1.0):
            assert_padded_matches_evaluate(xs, x_present, ys, y_present, "manhattan", c, alpha,
                                           {p: ALL_NAMES})
    for x, xp, y, yp in zip(xs, x_present, ys, y_present):
        x, y = x[xp], y[yp]
        costs = sorted(
            sum(manhattan(x[i], y[j]) ** p - c ** p for i, j in pairs)
            for pairs in iter_assignment_sets(len(x), len(y))
            if all(manhattan(x[i], y[j]) < c for i, j in pairs))
        if len(costs) > 1 and costs[0] == costs[1]:
            # once for the reference and at least once inside the kernel
            assert solved.count((x.tobytes(), y.tobytes())) >= 4

