"""Independent reference implementations used only by the tests.

Everything here is written in plain Python (math and fractions modules,
explicit loops, exhaustive enumeration) so it shares no code path with the
package, except that :func:`brute_force_assignment` checks its matrix as
the package's solver does, and :func:`gospa_permutation_form` reads its
inputs through the package but solves the assignment with SciPy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

from gospa.assignment import AssignmentSet, _validated_matrix
from gospa.metrics import (
    GospaParams,
    _base_distance_matrix,
    _require_same_dimension,
    as_state_array,
)

_BRUTE_FORCE_MAX_ROWS = 7
_BRUTE_FORCE_MAX_COLS = 8


def euclidean(x, y) -> float:
    return math.dist(tuple(x), tuple(y))


def manhattan(x, y) -> float:
    return sum(abs(a - b) for a, b in zip(x, y))


def iter_assignment_sets(n_x: int, n_y: int):
    """Every partial one-to-one pairing between range(n_x) and range(n_y),
    including the empty pairing."""
    yield ()
    for size in range(1, min(n_x, n_y) + 1):
        for rows in combinations(range(n_x), size):
            for cols in permutations(range(n_y), size):
                yield tuple(zip(rows, cols))


def brute_force_assignment(costs) -> AssignmentSet:
    """Exhaustive reference solver with the same contract as
    :func:`gospa.assignment.solve_full_assignment`.

    Enumerates every injection of rows into columns and ranks them by
    their exact sums, as ``Fraction``s, keeping the first minimum; reports
    the chosen pairs' float total summed in row order.  Inputs are capped
    at 7 rows / 8 columns; larger matrices raise ``ValueError``.
    """
    matrix = _validated_matrix(costs)
    n_rows, n_cols = matrix.shape
    if n_rows > n_cols:
        raise ValueError("cost matrix must have no more rows than columns; transpose the input")
    if n_rows > _BRUTE_FORCE_MAX_ROWS or n_cols > _BRUTE_FORCE_MAX_COLS:
        raise ValueError(
            "oracle limit exceeded: brute force accepts at most "
            f"{_BRUTE_FORCE_MAX_ROWS}x{_BRUTE_FORCE_MAX_COLS} matrices"
        )

    cost_rows = matrix.tolist()
    # every float is a Fraction whose denominator is a power of two, so
    # over the largest denominator each cost is an exact integer numerator
    exact_rows = [[Fraction(cost) for cost in row] for row in cost_rows]
    scale = max(cost.denominator for row in exact_rows for cost in row)
    numerators = [[int(cost * scale) for cost in row] for row in exact_rows]
    best_cols = None
    best_cost = None
    # itertools.permutations yields column tuples in lexicographic order, so
    # keeping the first strict improvement of the exact sum realizes the
    # tie-breaking rule whatever the costs' rounding.
    for cols in permutations(range(n_cols), n_rows):
        total = sum(numerators[i][j] for i, j in enumerate(cols))
        if best_cost is None or total < best_cost:
            best_cost = total
            best_cols = cols
    pairs = tuple((i, j) for i, j in enumerate(best_cols))
    total = 0.0
    for i, j in pairs:
        total += cost_rows[i][j]
    return AssignmentSet(pairs=pairs, total_cost=total)


def gospa_alpha2_assignment_oracle(x, y, c: float, p: float) -> float:
    """GOSPA with alpha = 2 by exhaustive minimization over assignment sets:
    summed uncut pair distances**p plus (c**p / 2) per unassigned target."""
    n_x, n_y = len(x), len(y)
    half_cut_p = c ** p / 2.0
    best = math.inf
    for gamma in iter_assignment_sets(n_x, n_y):
        cost = sum(euclidean(x[i], y[j]) ** p for i, j in gamma)
        cost += half_cut_p * (n_x + n_y - 2 * len(gamma))
        if cost < best:
            best = cost
    return best ** (1.0 / p)


def gospa_alpha2_gamma_oracle(x, y, c: float, p: float, distance=euclidean):
    """The detected-pair set GOSPA with alpha = 2 reports, by exhaustive search.

    Among the minimum-cost assignment sets made of pairs at distance below
    c, returns the one with the smallest key: per truth index, its
    estimate's index, or ``len(y)`` when the truth is unpaired.  Ties are
    real only when the costs are exact, as with integer coordinates and
    the Manhattan base.
    """
    n_x, n_y = len(x), len(y)
    d = [[distance(a, b) for b in y] for a in x]
    half_cut_p = c ** p / 2.0
    best_cost, best_key, best = math.inf, (), ()
    for gamma in iter_assignment_sets(n_x, n_y):
        if any(d[i][j] >= c for i, j in gamma):
            continue
        cost = sum(d[i][j] ** p for i, j in gamma) + half_cut_p * (n_x + n_y - 2 * len(gamma))
        partner = dict(gamma)
        key = tuple(partner.get(i, n_y) for i in range(n_x))
        if cost < best_cost or (cost == best_cost and key < best_key):
            best_cost, best_key, best = cost, key, gamma
    return best


def gospa_permutation_oracle(x, y, c: float, alpha: float, p: float) -> float:
    """GOSPA for any alpha by exhaustive minimization over complete
    assignments of the smaller set, using cut-off distances."""
    if len(x) > len(y):
        x, y = y, x
    n_small, n_large = len(x), len(y)
    cut_p = c ** p
    if n_large == 0:
        return 0.0
    if n_small == 0:
        return ((cut_p / alpha) * n_large) ** (1.0 / p)
    best = math.inf
    for cols in permutations(range(n_large), n_small):
        cost = sum(min(euclidean(x[i], y[j]), c) ** p for i, j in enumerate(cols))
        if cost < best:
            best = cost
    return (best + (cut_p / alpha) * (n_large - n_small)) ** (1.0 / p)


def random_target_set(rng, max_size: int, dim: int, span: float = 20.0):
    size = int(rng.integers(0, max_size + 1))
    return rng.uniform(-span, span, size=(size, dim))


def gospa_permutation_form(x, y, params: GospaParams) -> float:
    """GOSPA evaluated directly from its permutation definition.

    Minimizes the summed cut-off costs of the smaller set over complete
    assignments into the larger set (solved independently with SciPy) and
    adds the cardinality term.  Agrees with :func:`gospa` for every alpha;
    kept as a separately coded path for cross-checking.
    """
    from scipy.optimize import linear_sum_assignment  # SciPy is slow to import

    xs = as_state_array(x)
    ys = as_state_array(y)
    _require_same_dimension(xs, ys)
    if len(xs) > len(ys):
        xs, ys = ys, xs
    n_small, n_large = len(xs), len(ys)
    if n_large == 0:
        return 0.0
    cut_p = params.c ** params.p
    if n_small == 0:
        return ((cut_p / params.alpha) * n_large) ** (1.0 / params.p)
    distances = _base_distance_matrix(xs, ys, params.base_distance)
    costs = np.minimum(distances, params.c) ** params.p
    rows, cols = linear_sum_assignment(costs)
    inner = float(costs[rows, cols].sum())
    total_p = inner + (cut_p / params.alpha) * (n_large - n_small)
    return total_p ** (1.0 / params.p)


def unnormalized_ospa_closed_form(n_false: int, n_missed: int, d1: float, d2: float,
                                  c: float, p: float) -> float:
    """Closed-form unnormalized OSPA for a two-target scenario.

    Scenario shape: two true targets of which ``n_missed`` are missed, the
    detected ones estimated at cut-off distances ``d1`` (and ``d2`` when
    both are detected), plus ``n_false`` false targets farther than c from
    everything.  Evaluates to ``(sum of detected d_i**p +
    max(n_false, n_missed) * c**p) ** (1/p)``.  Used as a cross-check
    oracle for GOSPA with alpha = 1 on such geometries.
    """
    if not (isinstance(n_false, int) and not isinstance(n_false, bool) and n_false >= 0):
        raise ValueError("n_false must be a non-negative integer")
    if n_missed not in (0, 1, 2) or isinstance(n_missed, bool):
        raise ValueError("n_missed must be 0, 1 or 2")
    if not (math.isfinite(c) and c > 0.0):
        raise ValueError("cut-off c must be positive and finite")
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError("p must lie in [1, inf)")
    for name, d in (("d1", d1), ("d2", d2)):
        if not (math.isfinite(d) and 0.0 <= d <= c):
            raise ValueError(f"{name} must lie in [0, c]")
    detected = (d1, d2)[: 2 - n_missed]
    total_p = sum(d ** p for d in detected) + max(n_false, n_missed) * c ** p
    return total_p ** (1.0 / p)
