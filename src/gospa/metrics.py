"""GOSPA, OSPA and unnormalized OSPA distances between finite sets of states.

A target set is a finite collection of real state vectors; duplicates are
allowed and treated with multiset semantics.  GOSPA with ``alpha == 2``
decomposes into a localization cost over properly detected targets plus a
penalty of ``c**p / 2`` for every missed or false target, which is the form
reported by :class:`GospaBreakdown`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .assignment import AssignmentSet, solve_full_assignment

BaseDistance = Union[str, Callable[[np.ndarray, np.ndarray], float]]

_NAMED_BASE_DISTANCES = ("euclidean", "manhattan")


@dataclass(frozen=True)
class GospaParams:
    """Parameters of the GOSPA family.

    c: cut-off distance, caps the per-target localization error and sets the
       cost of cardinality mismatches.  Must be positive.
    alpha: cardinality-penalty divisor in (0, 2].  ``alpha = 2`` yields the
       missed/false decomposition; ``alpha = 1`` is unnormalized OSPA.
    p: exponent in [1, inf); larger values penalize outliers more.
    base_distance: "euclidean" (default), "manhattan", or a callable
       ``f(x, y) -> float`` that must itself be a metric.
    """

    c: float
    alpha: float = 2.0
    p: float = 1.0
    base_distance: BaseDistance = "euclidean"

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise ValueError("cut-off c must be positive and finite")
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError("alpha must lie in (0, 2]")
        if not (math.isfinite(self.p) and self.p >= 1.0):
            raise ValueError("p must lie in [1, inf)")
        if isinstance(self.base_distance, str) and self.base_distance not in _NAMED_BASE_DISTANCES:
            raise ValueError(f"unknown base distance {self.base_distance!r}; "
                             f"choose from {_NAMED_BASE_DISTANCES} or pass a callable")
        if not isinstance(self.base_distance, str) and not callable(self.base_distance):
            raise ValueError("base_distance must be a name or a callable")


@dataclass(frozen=True)
class GospaBreakdown:
    """GOSPA value plus, for ``alpha == 2``, its decomposition.

    ``total ** p`` equals ``localization_cost_p + missed_cost_p +
    false_cost_p``.  ``assignment`` holds the properly detected pairs
    (truth index, estimate index), all at base distance strictly below the
    cut-off; its ``total_cost`` is the localization cost to the power p.
    For ``alpha != 2`` only ``total`` is meaningful and the decomposition
    fields are ``None``.

    Ties: ``assignment`` is an optimal detected-pair set chosen as follows.
    Taking truth indices in ascending order, each truth target is paired
    with the smallest-index estimate it can take while the set stays
    optimal, and is left unpaired only when no such estimate exists; an
    unpaired truth ranks after every estimate.  When the optimal set is
    unique, as it is for inputs in general position, the rule does not act.
    """

    total: float
    localization_cost_p: Optional[float] = None
    missed_count: Optional[int] = None
    false_count: Optional[int] = None
    missed_cost_p: Optional[float] = None
    false_cost_p: Optional[float] = None
    assignment: Optional[AssignmentSet] = None

    @property
    def has_decomposition(self) -> bool:
        return self.assignment is not None


def as_state_array(points) -> np.ndarray:
    """Coerce a target set to a float array of shape (cardinality, dimension).

    Accepts any sequence of equal-length coordinate sequences; an empty
    sequence becomes a (0, 0) array with unknown dimension.
    """
    try:
        arr = np.asarray(points, dtype=float)
    except (TypeError, ValueError):
        raise ValueError("a target set must be a sequence of equal-length state vectors") from None
    if arr.size == 0 and arr.ndim <= 2:
        return arr.reshape(0, arr.shape[1] if arr.ndim == 2 else 0)
    if arr.ndim != 2:
        raise ValueError("a target set must be a sequence of equal-length state vectors")
    if not np.all(np.isfinite(arr)):
        raise ValueError("state coordinates must be finite")
    return arr


def _require_same_dimension(x: np.ndarray, y: np.ndarray) -> None:
    dim_x, dim_y = x.shape[1], y.shape[1]
    if dim_x > 0 and dim_y > 0 and dim_x != dim_y:
        raise ValueError(f"dimension mismatch: {dim_x} vs {dim_y}")


def _base_distance_matrix(x: np.ndarray, y: np.ndarray, base: BaseDistance) -> np.ndarray:
    if callable(base):
        out = np.empty((len(x), len(y)))
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                d = float(base(xi, yj))
                if not (math.isfinite(d) and d >= 0.0):
                    raise ValueError("base distance must return finite non-negative values")
                out[i, j] = d
        return out
    diff = x[:, None, :] - y[None, :, :]
    if base == "euclidean":
        return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    return np.abs(diff).sum(axis=2)


class _CutOffGraph(NamedTuple):
    """The bipartite graph of truth/estimate pairs at base distance below c.

    Any other pair costs ``c**p``, as much as leaving both of its targets
    unassigned, so an optimal assignment splits into the connected
    components of this graph.  ``forced_*`` are the edges whose two ends
    have no other edge: every optimum takes them.  ``components`` are the
    other components that have an edge, each as its sorted truth indices
    and sorted estimate indices.  None of it depends on p.
    """

    distances: np.ndarray
    forced_rows: list[int]
    forced_cols: list[int]
    forced_distances: np.ndarray
    components: list[tuple[list[int], list[int]]]


def _connected_components(edge: np.ndarray, starts: np.ndarray):
    """The connected components of the bipartite graph with adjacency
    matrix ``edge`` that hold a row of ``starts``, as sorted rows and
    sorted columns.

    Grows each component breadth-first, a whole layer per step, so the
    work per component is a few array operations whatever its size.
    """
    unvisited = np.zeros(edge.shape[0], dtype=bool)
    unvisited[starts] = True
    components = []
    for start in starts.tolist():
        if not unvisited[start]:
            continue
        rows = np.array([start])
        while True:
            cols = np.flatnonzero(edge[rows].any(axis=0))
            grown = np.flatnonzero(edge[:, cols].any(axis=1))
            if len(grown) == len(rows):  # rows only ever grow
                break
            rows = grown
        unvisited[rows] = False
        components.append((rows.tolist(), cols.tolist()))
    return components


def _cut_off_graph(xs: np.ndarray, ys: np.ndarray, base: BaseDistance,
                   c: float) -> Optional[_CutOffGraph]:
    """The graph of pairs with base distance < c; ``None`` if a set is empty."""
    if len(xs) == 0 or len(ys) == 0:
        return None
    distances = _base_distance_matrix(xs, ys, base)
    edge = distances < c
    rows, cols = np.nonzero(edge)
    row_degree = np.bincount(rows, minlength=len(xs))
    col_degree = np.bincount(cols, minlength=len(ys))
    forced = (row_degree[rows] == 1) & (col_degree[cols] == 1)
    forced_rows, forced_cols = rows[forced], cols[forced]
    return _CutOffGraph(
        distances=distances,
        forced_rows=forced_rows.tolist(),
        forced_cols=forced_cols.tolist(),
        forced_distances=distances[forced_rows, forced_cols],
        components=_connected_components(edge, np.unique(rows[~forced])),
    )


def _component_pairs(distances: np.ndarray, rows: list[int], cols: list[int],
                     c: float, p: float, cut_entry: float):
    """The detected pairs of one component, with their costs.

    Truths are rows and estimates columns, followed by dummy columns at
    ``c**p`` that stand for leaving a truth unpaired.  Pairs that are not
    edges cost more than ``c**p``, so no optimum uses them.  Among optimal
    assignments the solver returns the lexicographically smallest, and as
    the dummy columns come after the real ones, that realizes the tie rule
    of :func:`gospa` on this component.
    """
    block = distances[np.ix_(rows, cols)]
    edge = block < c
    costs = np.minimum(block, c) ** p
    costs[~edge] = min(2.0 * cut_entry, sys.float_info.max)
    # an optimal gamma leaves a truth unpaired only when all of that truth's
    # estimates are paired, so it pairs at least the smallest row degree
    n_rows, n_cols = costs.shape
    dummies = max(0, n_rows - int(edge.sum(axis=1).min()))
    matrix = np.hstack([costs, np.full((n_rows, dummies), cut_entry)]) if dummies else costs
    solution = solve_full_assignment(matrix)
    return [(rows[r], cols[k], float(costs[r, k]))
            for r, k in solution.pairs if k < n_cols and edge[r, k]]


def _detected_pairs(graph: Optional[_CutOffGraph], c: float, p: float):
    """The optimal detected-pair set γ for exponent p, solved component by
    component; ``None`` when a set is empty.

    Returns ``(pairs, cut_entry)``: the pairs as (truth, estimate, cost)
    sorted by truth, and ``c**p`` as a cost entry holds it.
    """
    if graph is None:
        return None
    # an array power, like every cost entry: for some p NumPy's array power
    # and Python's float power differ in the last bit
    cut_entry = float((np.full(1, c) ** p)[0])
    if not math.isfinite(cut_entry):
        raise ValueError("cost matrix entries must be finite")
    costs = (graph.forced_distances ** p).tolist()
    pairs = list(zip(graph.forced_rows, graph.forced_cols, costs))  # sorted by truth
    for rows, cols in graph.components:
        pairs.extend(_component_pairs(graph.distances, rows, cols, c, p, cut_entry))
    if graph.components:
        pairs.sort()
    return pairs, cut_entry


def _totals(detected, n_x: int, n_y: int, c: float, alpha: float, p: float):
    """Evaluate GOSPA**p from the result of :func:`_detected_pairs`.

    Returns ``(total_p, gamma, missed, false, localization_p)`` where the
    last four are ``None`` unless ``alpha == 2``.
    """
    cut_p = c ** p
    if detected is None:
        total_p = (cut_p / alpha) * (n_x + n_y)
        if alpha == 2.0:
            return total_p, (), n_x, n_y, 0.0
        return total_p, None, None, None, None
    pairs, cut_entry = detected
    if alpha == 2.0:
        gamma = tuple((i, j) for i, j, _ in pairs)
        localization_p = 0.0
        for _, _, cost in pairs:
            localization_p += cost
        missed = n_x - len(gamma)
        false = n_y - len(gamma)
        total_p = localization_p + (cut_p / 2.0) * (missed + false)
        return total_p, gamma, missed, false, localization_p
    # the complete assignment of the smaller set, summed in its index order;
    # a target outside gamma is paired at the cut-off
    if n_x <= n_y:
        n_small, partner_cost = n_x, {i: cost for i, _, cost in pairs}
    else:
        n_small, partner_cost = n_y, {j: cost for _, j, cost in pairs}
    lap_total = 0.0
    for k in range(n_small):
        lap_total += partner_cost.get(k, cut_entry)
    total_p = lap_total + (cut_p / alpha) * abs(n_y - n_x)
    return total_p, None, None, None, None


def _evaluate(xs: np.ndarray, ys: np.ndarray, base: BaseDistance,
              c: float, alpha: float, p: float):
    detected = _detected_pairs(_cut_off_graph(xs, ys, base, c), c, p)
    return _totals(detected, len(xs), len(ys), c, alpha, p)


def cutoff_distance(x, y, c: float, base_distance: BaseDistance = "euclidean") -> float:
    """Base distance between two state vectors, saturated at the cut-off c."""
    if not (isinstance(c, (int, float)) and math.isfinite(c) and c > 0.0):
        raise ValueError("cut-off c must be positive and finite")
    xv = as_state_array([x])
    yv = as_state_array([y])
    if xv.shape[0] != 1 or yv.shape[0] != 1 or xv.shape[1] < 1 or yv.shape[1] < 1:
        raise ValueError("inputs must be single state vectors with at least one coordinate")
    if xv.shape[1] != yv.shape[1]:
        raise ValueError(f"dimension mismatch: {xv.shape[1]} vs {yv.shape[1]}")
    d = float(_base_distance_matrix(xv, yv, base_distance)[0, 0])
    return min(d, float(c))


def gospa(x, y, params: GospaParams) -> GospaBreakdown:
    """GOSPA distance between two target sets.

    The returned breakdown carries the localization / missed / false
    decomposition and the detected-pair assignment when
    ``params.alpha == 2``; for other alpha values only ``total`` is set.
    Both sets empty gives 0; if one set is empty the distance is
    ``((c**p / alpha) * cardinality) ** (1/p)``.

    On cost ties the detected pairs follow the rule stated on
    :class:`GospaBreakdown`: truths in ascending index order each take the
    smallest-index estimate that keeps the pair set optimal, and stay
    unpaired only when none does.  The rule holds per connected component
    of the pairs closer than c and does not depend on which set is larger.
    """
    xs = as_state_array(x)
    ys = as_state_array(y)
    _require_same_dimension(xs, ys)
    total_p, gamma, missed, false, localization_p = _evaluate(
        xs, ys, params.base_distance, params.c, params.alpha, params.p)
    total = total_p ** (1.0 / params.p)
    if gamma is None:
        return GospaBreakdown(total=total)
    half_cut_p = params.c ** params.p / 2.0
    return GospaBreakdown(
        total=total,
        localization_cost_p=localization_p,
        missed_count=missed,
        false_count=false,
        missed_cost_p=half_cut_p * missed,
        false_cost_p=half_cut_p * false,
        assignment=AssignmentSet(pairs=gamma, total_cost=localization_p),
    )


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


def ospa(x, y, c: float, p: float = 1.0, base_distance: BaseDistance = "euclidean") -> float:
    """OSPA distance: unnormalized OSPA scaled by the larger cardinality.

    Equals ``(gospa(alpha=1) ** p / max(|X|, |Y|)) ** (1/p)``; both sets
    empty gives 0 and exactly one empty set gives c.
    """
    params = GospaParams(c=c, alpha=1.0, p=p, base_distance=base_distance)
    xs = as_state_array(x)
    ys = as_state_array(y)
    _require_same_dimension(xs, ys)
    n_max = max(len(xs), len(ys))
    if n_max == 0:
        return 0.0
    total_p = _evaluate(xs, ys, params.base_distance, params.c, 1.0, params.p)[0]
    return (total_p / n_max) ** (1.0 / params.p)


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
