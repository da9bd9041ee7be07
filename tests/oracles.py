"""Independent reference implementations used only by the tests.

Everything here is written in plain Python (math module, explicit loops,
exhaustive enumeration) so it shares no code path with the package.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations


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
