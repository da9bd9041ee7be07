"""Tests for the rectangular minimum-cost assignment solver."""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from gospa.assignment import AssignmentSet, solve_full_assignment

from oracles import brute_force_assignment


class TestGoldenCases:
    def test_zero_diagonal(self):
        result = solve_full_assignment([[0, 1], [1, 0]])
        assert result.pairs == ((0, 0), (1, 1))
        assert result.total_cost == 0.0

    def test_single_entry(self):
        result = solve_full_assignment([[4]])
        assert result.pairs == ((0, 0),)
        assert result.total_cost == 4.0

    def test_three_by_three(self):
        # optimum checked by enumerating all 6 permutations by hand
        result = solve_full_assignment([[7, 5, 1], [2, 8, 6], [3, 4, 9]])
        assert result.pairs == ((0, 2), (1, 0), (2, 1))
        assert result.total_cost == pytest.approx(7.0)

    def test_single_row_picks_minimum(self):
        result = solve_full_assignment([[5, 2, 9]])
        assert result.pairs == ((0, 1),)
        assert result.total_cost == 2.0

    def test_brute_force_agrees_on_goldens(self):
        for matrix in ([[0, 1], [1, 0]], [[7, 5, 1], [2, 8, 6], [3, 4, 9]], [[5, 2, 9]]):
            fast = solve_full_assignment(matrix)
            slow = brute_force_assignment(matrix)
            assert fast.pairs == slow.pairs
            assert fast.total_cost == pytest.approx(slow.total_cost)


class TestTieBreaking:
    def test_all_equal_square_prefers_diagonal(self):
        result = solve_full_assignment(np.full((4, 4), 3.5))
        assert result.pairs == ((0, 0), (1, 1), (2, 2), (3, 3))

    def test_all_equal_rectangular_prefers_leading_columns(self):
        result = solve_full_assignment(np.full((2, 5), 1.0))
        assert result.pairs == ((0, 0), (1, 1))

    def test_two_optima_lexicographic(self):
        # both complete assignments cost 1; {(0,0),(1,1)} is lexicographically first
        result = solve_full_assignment([[1, 1], [0, 0]])
        assert result.pairs == ((0, 0), (1, 1))
        assert result.total_cost == pytest.approx(1.0)

    def test_tie_requires_nontrivial_rerouting(self):
        # row 0 can take column 0 only if row 1 moves to column 2 at equal cost
        matrix = [[2.0, 2.0, 5.0], [2.0, 9.0, 2.0]]
        result = solve_full_assignment(matrix)
        assert result.pairs == ((0, 0), (1, 2))
        assert result.total_cost == pytest.approx(4.0)

    def test_repeated_calls_are_deterministic(self):
        rng = np.random.default_rng(7)
        matrix = rng.integers(0, 4, size=(5, 6)).astype(float)
        first = solve_full_assignment(matrix)
        for _ in range(5):
            assert solve_full_assignment(matrix) == first


class TestValidation:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="non-negative"):
            solve_full_assignment([[1.0, -0.5]])

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError, match="finite"):
            solve_full_assignment([[1.0, np.nan]])
        with pytest.raises(ValueError, match="finite"):
            solve_full_assignment([[np.inf, 1.0]])

    def test_rejects_more_rows_than_columns(self):
        with pytest.raises(ValueError, match="transpose"):
            solve_full_assignment([[1.0], [2.0]])

    def test_rejects_empty_and_ragged(self):
        with pytest.raises(ValueError):
            solve_full_assignment(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            solve_full_assignment([[1.0, 2.0], [3.0]])

    def test_brute_force_size_limit(self):
        with pytest.raises(ValueError, match="oracle limit"):
            brute_force_assignment(np.ones((8, 8)))
        with pytest.raises(ValueError, match="oracle limit"):
            brute_force_assignment(np.ones((2, 9)))

    def test_assignment_set_rejects_duplicates(self):
        with pytest.raises(ValueError):
            AssignmentSet(pairs=((0, 1), (1, 1)), total_cost=0.0)
        with pytest.raises(ValueError):
            AssignmentSet(pairs=((0, 0), (0, 1)), total_cost=0.0)


def _assert_valid_for(result: AssignmentSet, matrix: np.ndarray):
    n_rows, n_cols = matrix.shape
    assert len(result.pairs) == n_rows
    assert result.pairs == tuple(sorted(result.pairs))
    for i, j in result.pairs:
        assert 0 <= i < n_rows and 0 <= j < n_cols
    recomputed = sum(matrix[i, j] for i, j in result.pairs)
    assert result.total_cost == pytest.approx(recomputed, rel=1e-9)


@st.composite
def cost_matrices(draw, integral=False):
    n_rows = draw(st.integers(1, 7))
    n_cols = draw(st.integers(n_rows, 8))
    if integral:
        elements = st.integers(0, 5).map(float)
    else:
        elements = st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)
    rows = draw(st.lists(
        st.lists(elements, min_size=n_cols, max_size=n_cols),
        min_size=n_rows, max_size=n_rows))
    return np.array(rows)


@settings(max_examples=200, deadline=None)
@given(cost_matrices())
def test_matches_brute_force_total(matrix):
    fast = solve_full_assignment(matrix)
    slow = brute_force_assignment(matrix)
    assert fast.total_cost == pytest.approx(slow.total_cost, rel=1e-9, abs=1e-12)
    _assert_valid_for(fast, matrix)
    _assert_valid_for(slow, matrix)


@settings(max_examples=200, deadline=None)
@given(cost_matrices(integral=True))
def test_matches_brute_force_pairs_exactly_on_ties(matrix):
    # integer-valued costs make float arithmetic exact, so the two solvers
    # must agree on the lexicographic tie-break pair for pair
    fast = solve_full_assignment(matrix)
    slow = brute_force_assignment(matrix)
    assert fast.pairs == slow.pairs
    assert fast.total_cost == slow.total_cost


@settings(max_examples=150, deadline=None)
@given(cost_matrices(), st.randoms(use_true_random=False))
def test_row_permutation_invariance(matrix, rnd):
    order = list(range(matrix.shape[0]))
    rnd.shuffle(order)
    base = solve_full_assignment(matrix)
    permuted = solve_full_assignment(matrix[order])
    assert permuted.total_cost == pytest.approx(base.total_cost, rel=1e-9, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(cost_matrices(), st.floats(0.0, 50.0, allow_nan=False))
def test_constant_shift_moves_cost_by_rows_times_shift(matrix, shift):
    base = solve_full_assignment(matrix)
    shifted = solve_full_assignment(matrix + shift)
    expected = base.total_cost + matrix.shape[0] * shift
    assert shifted.total_cost == pytest.approx(expected, rel=1e-9, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(cost_matrices())
def test_matches_scipy_total(matrix):
    rows, cols = scipy.optimize.linear_sum_assignment(matrix)
    assert solve_full_assignment(matrix).total_cost == pytest.approx(
        float(matrix[rows, cols].sum()), rel=1e-9, abs=1e-12)
