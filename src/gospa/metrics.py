"""GOSPA, OSPA and unnormalized OSPA distances between finite sets of states.

A target set is a finite collection of real state vectors; duplicates are
allowed and treated with multiset semantics.  GOSPA with ``alpha == 2``
decomposes into a localization cost over properly detected targets plus a
penalty of ``c**p / 2`` for every missed or false target, which is the form
reported by :class:`GospaBreakdown`.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .assignment import AssignmentSet, solve_full_assignment

BaseDistance = Union[str, Callable[[np.ndarray, np.ndarray], float]]

_NAMED_BASE_DISTANCES = ("euclidean", "manhattan")

# Inputs with at most this many pairs build the whole distance matrix;
# larger ones with a named base distance find their close pairs by a sweep.
# On sets spread in the plane the two cost the same near 2,000 pairs.
_SWEEP_MIN_PAIRS = 4096
# A sweep whose windows hold more than this share of all pairs builds the
# whole matrix instead.  Gathering a candidate costs about three matrix
# entries, and a large component's distances are computed once more.
_SWEEP_MAX_SHARE = 0.25
# The part of a padded sample that its forced pairs leave is solved by
# enumerating every injection of its truths into its estimates when it has
# at most this many truths, a named base distance and at most
# _ENUMERATION_MAX_INJECTIONS values of (n_y + 1) ** n_x.
_ENUMERATION_MAX_TRUTHS = 4
_ENUMERATION_MAX_INJECTIONS = 1024
# A padded stack finds its edges over blocks of samples holding at most this
# many truth-estimate slot pairs; a stack with more slot pairs per sample
# than this is evaluated one sample at a time.
_PADDED_BLOCK_CELLS = 16384
# A sample whose best and second-best detected-pair sets differ in cost by
# at most this share of c**p is solved by `_evaluate` instead, so rounding
# in the enumeration can never pick a different set.
_ENUMERATION_TIE_GAP = 1e-9


def _is_finite(value) -> bool:
    """``math.isfinite`` that also reads an integer too large for a float
    as not finite."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


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
        if not all(isinstance(value, numbers.Real) for value in (self.c, self.alpha, self.p)):
            raise ValueError("c, alpha and p must be real numbers")
        if not (_is_finite(self.c) and self.c > 0.0):
            raise ValueError("cut-off c must be positive and finite")
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError("alpha must lie in (0, 2]")
        if not (_is_finite(self.p) and self.p >= 1.0):
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
    except OverflowError:  # an integer too large for a float
        raise ValueError("state coordinates must be finite") from None
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


def _distances(diff: np.ndarray, base: str) -> np.ndarray:
    """Named base distances from coordinate differences, reduced over the
    last axis.  Every distance the kernel compares with c comes from here,
    so the whole matrix and a gathered set of pairs agree bit for bit."""
    if base == "euclidean":
        return np.sqrt(np.einsum("...k,...k->...", diff, diff))
    return np.abs(diff).sum(axis=-1)


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
    return _distances(x[:, None, :] - y[None, :, :], base)


def _sweep_candidates(xs: np.ndarray, ys: np.ndarray, c: float):
    """Every pair within c of each other on one coordinate, as row and column
    index arrays in row order; ``None`` when they exceed
    ``_SWEEP_MAX_SHARE`` of all pairs.

    Both named base distances are at least the difference on any single
    coordinate, so these pairs hold every pair at distance below c.  The
    coordinate is the one the two sets spread widest along; the estimates
    are sorted on it and each truth takes the window of estimates within c,
    widened by a relative slack so that rounding cannot drop a pair.
    """
    axis = int(np.argmax(np.ptp(np.concatenate([xs, ys]), axis=0)))
    order = np.argsort(ys[:, axis], kind="stable")
    keys = ys[order, axis]
    centres = xs[:, axis]
    reach = c + 1e-9 * (c + np.abs(centres))
    lo = np.searchsorted(keys, centres - reach, side="left")
    counts = np.searchsorted(keys, centres + reach, side="right") - lo
    total = int(counts.sum())
    if total > _SWEEP_MAX_SHARE * len(xs) * len(ys):
        return None
    ends = np.cumsum(counts)
    # position of each candidate in the sorted estimates: its window's start
    # plus its offset within the window
    offsets = np.arange(total) - np.repeat(ends - counts, counts)
    return np.repeat(np.arange(len(xs)), counts), order[np.repeat(lo, counts) + offsets]


class _CutOffGraph(NamedTuple):
    """The bipartite graph of truth/estimate pairs at base distance below c.

    Any other pair costs ``c**p``, as much as leaving both of its targets
    unassigned, so an optimal assignment splits into the connected
    components of this graph.  ``forced_*`` are the edges whose two ends
    have no other edge: every optimum takes them.  ``components`` are the
    other components that have an edge, each as its sorted truth indices,
    its sorted estimate indices and the block of base distances between
    them.  None of it depends on p.
    """

    forced_rows: list[int]
    forced_cols: list[int]
    forced_distances: np.ndarray
    components: list[tuple[list[int], list[int], np.ndarray]]


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
    """The graph of pairs with base distance < c; ``None`` if a set is empty.

    Large inputs with a named base distance take their candidate pairs from
    :func:`_sweep_candidates`; the others, and a sweep that finds too many
    candidates, from the whole distance matrix.
    """
    if len(xs) == 0 or len(ys) == 0:
        return None
    candidates = None
    if not callable(base) and len(xs) * len(ys) > _SWEEP_MIN_PAIRS:
        candidates = _sweep_candidates(xs, ys, c)
    if candidates is None:
        distances = _base_distance_matrix(xs, ys, base)
        edge = distances < c
        rows, cols = np.nonzero(edge)
    else:
        rows, cols = candidates
        pair_distances = _distances(xs[rows] - ys[cols], base)
        close = pair_distances < c
        rows, cols, pair_distances = rows[close], cols[close], pair_distances[close]
    row_degree = np.bincount(rows, minlength=len(xs))
    col_degree = np.bincount(cols, minlength=len(ys))
    forced = (row_degree[rows] == 1) & (col_degree[cols] == 1)
    forced_rows, forced_cols = rows[forced], cols[forced]
    free = ~forced
    starts = np.flatnonzero(np.bincount(rows[free], minlength=len(xs)))
    components = []
    if candidates is None:
        forced_distances = distances[forced_rows, forced_cols]
        if len(starts):
            for comp_rows, comp_cols in _connected_components(edge, starts):
                components.append((comp_rows, comp_cols,
                                   distances[np.ix_(comp_rows, comp_cols)]))
    else:
        forced_distances = pair_distances[forced]
        if len(starts):
            # the graph of the unforced edges alone: its rows are the starts
            # and its columns the estimates those edges reach
            free_cols = cols[free]
            col_ids = np.unique(free_cols)
            free_edge = np.zeros((len(starts), len(col_ids)), dtype=bool)
            free_edge[np.searchsorted(starts, rows[free]),
                      np.searchsorted(col_ids, free_cols)] = True
            local = _connected_components(free_edge, np.arange(len(starts)))
            for local_rows, local_cols in local:
                comp_rows, comp_cols = starts[local_rows], col_ids[local_cols]
                block = _distances(xs[comp_rows][:, None, :] - ys[comp_cols][None, :, :], base)
                components.append((comp_rows.tolist(), comp_cols.tolist(), block))
    return _CutOffGraph(
        forced_rows=forced_rows.tolist(),
        forced_cols=forced_cols.tolist(),
        forced_distances=forced_distances,
        components=components,
    )


def _component_pairs(block: np.ndarray, rows: list[int], cols: list[int],
                     c: float, p: float, cut_entry: float):
    """The detected pairs of one component, with their costs.

    ``block`` holds the base distances from the component's truths to its
    estimates.  Truths are rows and estimates columns, followed by dummy
    columns at ``c**p`` that stand for leaving a truth unpaired.  Pairs that
    are not edges cost more than ``c**p``, so no optimum uses them.  Among
    optimal assignments the solver returns the lexicographically smallest,
    and as the dummy columns come after the real ones, that realizes the
    tie rule of :func:`gospa` on this component.
    """
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


def _cut_powers(c: float, p: float) -> tuple[float, float]:
    """``(cut_p, cut_entry)``: ``c**p`` as a Python float power, which the
    totals take, and as a NumPy array power, which every cost entry takes;
    for some p the two differ in the last bit.  Raises ValueError, and lets
    no NumPy warning out, when either is beyond the float range."""
    try:
        cut_p = c ** p
    except OverflowError:
        cut_p = math.inf
    with np.errstate(over="ignore"):
        cut_entry = float((np.full(1, c) ** p)[0])
    if not (math.isfinite(cut_p) and math.isfinite(cut_entry)):
        raise ValueError("cost matrix entries must be finite")
    return cut_p, cut_entry


def _detected_pairs(graph: Optional[_CutOffGraph], c: float, p: float, cut_entry: float):
    """The optimal detected-pair set γ for exponent p, solved component by
    component, as (truth, estimate, cost) triples sorted by truth.
    ``cut_entry`` is ``c**p`` as a cost entry holds it."""
    if graph is None:
        return []
    costs = (graph.forced_distances ** p).tolist()
    pairs = list(zip(graph.forced_rows, graph.forced_cols, costs))  # sorted by truth
    for rows, cols, block in graph.components:
        pairs.extend(_component_pairs(block, rows, cols, c, p, cut_entry))
    if graph.components:
        pairs.sort()
    return pairs


def _totals(pairs, n_x: int, n_y: int, cut_p: float, cut_entry: float, alpha: float):
    """Evaluate GOSPA**p from the pairs of :func:`_detected_pairs` and the
    two forms of ``c**p`` that :func:`_cut_powers` gives.

    Returns ``(total_p, terms)``.  For ``alpha == 2`` ``terms`` is the
    decomposition ``(gamma, missed, false, localization_p, half_cut_p)``;
    otherwise it is ``None``.
    """
    if alpha == 2.0:
        gamma = tuple((i, j) for i, j, _ in pairs)
        localization_p = 0.0
        for _, _, cost in pairs:
            localization_p += cost
        half_cut_p = cut_p / 2.0
        missed = n_x - len(gamma)
        false = n_y - len(gamma)
        total_p = localization_p + half_cut_p * (missed + false)
        return total_p, (gamma, missed, false, localization_p, half_cut_p)
    # the complete assignment of the smaller set, summed in its index order;
    # a target outside gamma is paired at the cut-off
    if n_x <= n_y:
        n_small, partner_cost = n_x, {i: cost for i, _, cost in pairs}
    else:
        n_small, partner_cost = n_y, {j: cost for _, j, cost in pairs}
    lap_total = 0.0
    for k in range(n_small):
        lap_total += partner_cost.get(k, cut_entry)
    return lap_total + (cut_p / alpha) * abs(n_y - n_x), None


def _evaluate(xs: np.ndarray, ys: np.ndarray, base: BaseDistance, c: float,
              alpha: float, requests: dict[float, Sequence[str]]) -> dict:
    """GOSPA (at ``alpha``), uOSPA and OSPA of one pair of sets.

    ``requests`` maps each exponent p to the metric names wanted at it,
    from "gospa", "uospa" and "ospa".  The cut-off graph is built once and
    the detected-pair set solved once per p.  Returns ``{(name, p): value}``;
    with ``alpha == 2`` a "gospa" entry comes with a ("decomposition", p)
    entry holding the ``terms`` of :func:`_totals`.
    """
    c = float(c)  # an integer c would make the cost entry c**p a wrapping int64 power
    n_x, n_y = len(xs), len(ys)
    graph = _cut_off_graph(xs, ys, base, c)
    values = {}
    for p, names in requests.items():
        # both sets empty cost 0 whatever c**p is
        cut_p, cut_entry = _cut_powers(c, p) if n_x or n_y else (0.0, 0.0)
        pairs = _detected_pairs(graph, c, p, cut_entry)
        if "gospa" in names:
            total_p, terms = _totals(pairs, n_x, n_y, cut_p, cut_entry, alpha)
            values["gospa", p] = total_p ** (1.0 / p)
            if terms is not None:
                values["decomposition", p] = terms
        if "uospa" in names or "ospa" in names:
            total_p = _totals(pairs, n_x, n_y, cut_p, cut_entry, 1.0)[0]
            values["uospa", p] = total_p ** (1.0 / p)
            n_max = max(n_x, n_y)
            values["ospa", p] = (total_p / n_max) ** (1.0 / p) if n_max else 0.0
    return values


def _evaluate_each(pairs, base: BaseDistance, c: float, alpha: float,
                   requests: dict[float, Sequence[str]]) -> dict:
    """:func:`_evaluate` for each (truths, estimates) pair, as
    ``{(name, p): values}`` for the requested names, one value per pair."""
    evaluated = [_evaluate(x, y, base, c, alpha, requests) for x, y in pairs]
    return {(name, p): [values[name, p] for values in evaluated]
            for p, names in requests.items() for name in names}


def _enumerable(n_x, n_y):
    """Whether n_x truths and n_y estimates, integers or integer arrays, are
    within the enumeration limits."""
    # both bases capped so that the integer power cannot wrap
    bases = np.minimum(n_y, _ENUMERATION_MAX_INJECTIONS) + 1
    return (np.asarray(n_x) <= _ENUMERATION_MAX_TRUTHS) & (
        bases ** np.minimum(n_x, _ENUMERATION_MAX_TRUTHS) <= _ENUMERATION_MAX_INJECTIONS)


@functools.lru_cache(maxsize=None)
def _injections(n_x: int, n_y: int) -> np.ndarray:
    """Every injection of ``n_x`` truths into ``n_y`` estimates, one row
    each, in lexicographic order.  Entry i is truth i's estimate, or ``n_y``
    when the truth is unpaired, so an unpaired truth ranks after every
    estimate.  The table is read-only, as every caller shares it; the
    enumeration limits leave about a thousand shapes to cache."""
    rows = [row for row in itertools.product(range(n_y + 1), repeat=n_x)
            if len({j for j in row if j < n_y}) == sum(j < n_y for j in row)]
    table = np.array(rows, dtype=np.intp).reshape(len(rows), n_x)
    table.flags.writeable = False
    return table


def _enumerated_gamma(distances: np.ndarray, c: float, p: float, cut_entry: float):
    """The detected-pair set of every sample of a stack, by enumeration.

    ``distances`` has shape (samples, n_x, n_y), with n_x and n_y at least
    one.  Pairing truth i with estimate j changes the cost by
    ``d**p - c**p`` on an edge (d < c); a pair that is no edge is out of
    reach, and an unpaired truth changes nothing.  Of the injections in
    lexicographic order, ``argmin`` takes the first cheapest, which is the
    tie rule of :class:`GospaBreakdown`.

    Returns ``(chosen, pair_costs, unclear)``, each row one sample: each
    truth's estimate (``n_y`` when unpaired), the cost of that pair (read
    only where there is one), and whether the runner-up lies within
    ``_ENUMERATION_TIE_GAP * c**p`` of the optimum.
    """
    n_s, n_x, n_y = distances.shape
    costs = np.minimum(distances, c) ** p  # array powers, as in _detected_pairs
    gains = np.zeros((n_s, n_x, n_y + 1))
    gains[:, :, :n_y] = np.where(distances < c, costs - cut_entry, np.inf)
    injections = _injections(n_x, n_y)
    objective = gains[:, 0, injections[:, 0]]
    for i in range(1, n_x):
        objective += gains[:, i, injections[:, i]]
    best_index = objective.argmin(axis=1)
    chosen = injections[best_index]
    pair_costs = np.take_along_axis(costs, np.minimum(chosen, n_y - 1)[:, :, None], axis=2)
    # the runner-up is the cheapest injection once the best is set aside;
    # there are at least two, as every truth may stay unpaired
    samples = np.arange(n_s)
    best = objective[samples, best_index]
    objective[samples, best_index] = np.inf
    unclear = objective.min(axis=1) - best <= _ENUMERATION_TIE_GAP * cut_entry
    return chosen, pair_costs[:, :, 0], unclear


def _slot_sums(slots: np.ndarray) -> np.ndarray:
    """Each row's sum, accumulated left to right like the sums of
    :func:`_totals`; 0.0 for rows of no slots."""
    return np.cumsum(slots, axis=1)[:, -1] if slots.shape[1] else np.zeros(len(slots))


def _padded_totals(pairs, x_present: np.ndarray, y_present: np.ndarray, n_x: np.ndarray,
                   n_y: np.ndarray, cut_entry: float, cut_p: float, alphas) -> dict:
    """GOSPA**p at each of ``alphas`` for every sample of a padded stack,
    summed in the order of :func:`_totals`, so that each sum is
    bit-identical to its result.

    ``pairs`` holds the detected pairs of all samples as (sample, truth,
    estimate, cost) arrays; truths and estimates index the slots of
    ``x_present`` and ``y_present``, and ``n_x`` and ``n_y`` count each
    sample's present slots.  Each sum is a cumulative sum along the slots,
    which accumulates left to right: a slot holds its pair's cost, the cost
    entry when its target is present and unpaired, or 0.0 when it is
    absent, and adding 0.0 is exact.
    """
    sample, truth, estimate, cost = pairs
    totals = {}
    if 2.0 in alphas:
        localization = np.zeros(x_present.shape)
        localization[sample, truth] = cost
        detected = np.bincount(sample, minlength=len(x_present))
        totals[2.0] = _slot_sums(localization) + (cut_p / 2.0) * (
            (n_x - detected) + (n_y - detected))
    if alphas - {2.0}:
        # the complete assignment of the smaller set, as in _totals
        x_smaller = n_x <= n_y
        lap_total = np.zeros(len(x_present))
        for present, index, smaller in ((x_present, truth, x_smaller),
                                        (y_present, estimate, ~x_smaller)):
            if smaller.any():
                slots = np.where(present, cut_entry, 0.0)
                slots[sample, index] = cost
                lap_total[smaller] = _slot_sums(slots[smaller])
        for alpha in alphas - {2.0}:
            totals[alpha] = lap_total + (cut_p / alpha) * np.abs(n_y - n_x)
    return totals


def _padded_edges(xs: np.ndarray, x_present: np.ndarray, ys: np.ndarray,
                  y_present: np.ndarray, base: str, c: float):
    """The pairs of present targets closer than c in every sample of a
    padded stack, as (sample, truth slot, estimate slot, distance) arrays.

    Candidates are the pairs within reach of each other on the coordinate
    along which the targets spread widest, compared over blocks of at most
    ``_PADDED_BLOCK_CELLS`` slot pairs; an absent target sits at NaN there,
    within reach of nothing.  Both named base distances are at least the
    difference on one coordinate, up to rounding that the relative slack of
    the reach covers, unless that difference is so small that its square
    underflows, and every such pair is a candidate.  The candidates'
    distances come from :func:`_distances`, as in :func:`_evaluate`.
    """
    n_s, k_x = x_present.shape
    if not (k_x and y_present.shape[1]):  # no slot pairs, so no edges
        none = np.zeros(0, dtype=np.intp)
        return none, none, none, np.zeros(0)
    axis = int(np.argmax(np.ptp(np.concatenate([xs, ys], axis=1), axis=(0, 1))))
    x_line = np.where(x_present, xs[:, :, axis], np.nan)
    y_line = np.where(y_present, ys[:, :, axis], np.nan)
    reach = max(c * (1.0 + 1e-9), 1e-150)
    step = max(1, _PADDED_BLOCK_CELLS // (k_x * y_present.shape[1]))
    parts = []
    for lo in range(0, n_s, step):
        gap = np.abs(x_line[lo:lo + step, :, None] - y_line[lo:lo + step, None, :])
        sample, truth, estimate = np.nonzero(gap <= reach)
        parts.append((sample + lo, truth, estimate))
    sample, truth, estimate = (np.concatenate(column) for column in zip(*parts))
    distance = _distances(xs[sample, truth] - ys[sample, estimate], base)
    edge = distance < c
    return sample[edge], truth[edge], estimate[edge], distance[edge]


def _evaluate_padded(xs: np.ndarray, x_present: np.ndarray, ys: np.ndarray,
                     y_present: np.ndarray, base: BaseDistance, c: float, alpha: float,
                     requests: dict[float, Sequence[str]]) -> dict:
    """:func:`_evaluate` for each sample of a padded stack: the one batched
    kernel of the Monte Carlo estimators.

    Sample k's truths are ``xs[k][x_present[k]]`` and its estimates
    ``ys[k][y_present[k]]``; ``xs`` has shape (samples, K_x, D) and
    ``x_present`` (samples, K_x), and likewise for the estimates, where K_x
    or K_y may be 0.  Returns ``{(name, p): values}`` for the requested
    names, one value per sample, each bit-identical to what
    :func:`_evaluate` gives.

    The edges of every sample are found at once, and its forced pairs
    taken as they are.  What remains of a sample is the union of its other
    components, solved by :func:`_enumerated_gamma` together with the
    samples whose remainder has the same shape.  The components are
    disjoint and the tie rule acts on each alone, so the first cheapest
    injection of the union is the set that :func:`_evaluate` takes
    component by component.  A sample whose remainder is beyond the
    enumeration limits or whose optimum is unclear goes through
    :func:`_evaluate`, and so does every sample of a stack with a callable
    base distance, more than ``_PADDED_BLOCK_CELLS`` slot pairs or a cost
    entry beyond the float range.
    """
    n_s, k_x = x_present.shape
    k_y = y_present.shape[1]
    c = float(c)
    try:
        cuts = {p: _cut_powers(c, p) for p in requests}
    except ValueError:  # each sample then raises it, unless both its sets are empty
        cuts = None
    if callable(base) or k_x * k_y > _PADDED_BLOCK_CELLS or cuts is None:
        samples = zip(xs, x_present, ys, y_present)
        return _evaluate_each(((x[xp], y[yp]) for x, xp, y, yp in samples),
                              base, c, alpha, requests)
    sample, truth, estimate, distance = _padded_edges(xs, x_present, ys, y_present, base, c)
    row_key, col_key = sample * k_x + truth, sample * k_y + estimate
    forced = ((np.bincount(row_key, minlength=n_s * k_x)[row_key] == 1)
              & (np.bincount(col_key, minlength=n_s * k_y)[col_key] == 1))
    free = ~forced
    # each sample's remainder: the truths and estimates of its unforced
    # edges, numbered from 0 within the sample in index order
    rest_rows, local_row = np.unique(row_key[free], return_inverse=True)
    rest_cols, local_col = np.unique(col_key[free], return_inverse=True)
    n_rows = np.bincount(rest_rows // k_x, minlength=n_s)
    n_cols = np.bincount(rest_cols // k_y, minlength=n_s)
    row_start, col_start = np.cumsum(n_rows) - n_rows, np.cumsum(n_cols) - n_cols
    free_sample, free_distance = sample[free], distance[free]
    local_row = local_row - row_start[free_sample]
    local_col = local_col - col_start[free_sample]
    fits = (n_rows > 0) & _enumerable(n_rows, n_cols)
    unsure = (n_rows > 0) & ~fits
    shapes = n_rows * (k_y + 1) + n_cols
    groups = []
    for shape in np.unique(shapes[fits]).tolist():
        members = np.flatnonzero(fits & (shapes == shape))
        n_r, n_c = divmod(shape, k_y + 1)
        position = np.full(n_s, -1)
        position[members] = np.arange(len(members))
        mine = position[free_sample] >= 0
        # pairs that are no edge stay at +inf, out of reach
        block = np.full((len(members), n_r, n_c), np.inf)
        block[position[free_sample[mine]], local_row[mine], local_col[mine]] = free_distance[mine]
        truths = rest_rows[row_start[members, None] + np.arange(n_r)] - k_x * members[:, None]
        estimates = rest_cols[col_start[members, None] + np.arange(n_c)] - k_y * members[:, None]
        groups.append((members, block, truths, estimates))
    n_x, n_y = x_present.sum(axis=1), y_present.sum(axis=1)
    n_max = np.maximum(n_x, n_y).tolist()
    values = {}
    for p, names in requests.items():
        cut_p, cut_entry = cuts[p]
        pairs = [(sample[forced], truth[forced], estimate[forced], distance[forced] ** p)]
        for members, block, truths, estimates in groups:
            chosen, pair_costs, unclear = _enumerated_gamma(block, c, p, cut_entry)
            unsure[members[unclear]] = True
            g, r = np.nonzero(chosen < block.shape[2])
            pairs.append((members[g], truths[g, r], estimates[g, chosen[g, r]], pair_costs[g, r]))
        totals = _padded_totals([np.concatenate(column) for column in zip(*pairs)],
                                x_present, y_present, n_x, n_y, cut_entry, cut_p,
                                {alpha if name == "gospa" else 1.0 for name in names})
        for name in names:
            total_p = totals[alpha if name == "gospa" else 1.0].tolist()
            if name == "ospa":
                values[name, p] = [(t / n) ** (1.0 / p) if n else 0.0
                                   for t, n in zip(total_p, n_max)]
            else:
                values[name, p] = [t ** (1.0 / p) for t in total_p]
    for k in np.flatnonzero(unsure).tolist():
        exact = _evaluate(xs[k][x_present[k]], ys[k][y_present[k]], base, c, alpha, requests)
        for key in values:
            values[key][k] = exact[key]
    return values


def cutoff_distance(x, y, c: float, base_distance: BaseDistance = "euclidean") -> float:
    """Base distance between two state vectors, saturated at the cut-off c."""
    GospaParams(c=c, base_distance=base_distance)  # validates
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
    ``((c**p / alpha) * cardinality) ** (1/p)``.  A ``c**p`` that overflows
    a float raises ValueError, unless both sets are empty.

    On cost ties the detected pairs follow the rule stated on
    :class:`GospaBreakdown`: truths in ascending index order each take the
    smallest-index estimate that keeps the pair set optimal, and stay
    unpaired only when none does.  The rule holds per connected component
    of the pairs closer than c and does not depend on which set is larger.
    """
    xs = as_state_array(x)
    ys = as_state_array(y)
    _require_same_dimension(xs, ys)
    p = params.p
    values = _evaluate(xs, ys, params.base_distance, params.c, params.alpha, {p: ("gospa",)})
    total = values["gospa", p]
    if ("decomposition", p) not in values:
        return GospaBreakdown(total=total)
    gamma, missed, false, localization_p, half_cut_p = values["decomposition", p]
    return GospaBreakdown(
        total=total,
        localization_cost_p=localization_p,
        missed_count=missed,
        false_count=false,
        missed_cost_p=half_cut_p * missed,
        false_cost_p=half_cut_p * false,
        assignment=AssignmentSet(pairs=gamma, total_cost=localization_p),
    )


def ospa(x, y, c: float, p: float = 1.0, base_distance: BaseDistance = "euclidean") -> float:
    """OSPA distance: unnormalized OSPA scaled by the larger cardinality.

    Equals ``(gospa(alpha=1) ** p / max(|X|, |Y|)) ** (1/p)``; both sets
    empty gives 0 and exactly one empty set gives c.
    """
    GospaParams(c=c, alpha=1.0, p=p, base_distance=base_distance)  # validates
    xs = as_state_array(x)
    ys = as_state_array(y)
    _require_same_dimension(xs, ys)
    return _evaluate(xs, ys, base_distance, c, 1.0, {p: ("ospa",)})["ospa", p]
