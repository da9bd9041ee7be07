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
from typing import Callable, Optional, Sequence, Union

import numpy as np

# the solve without the public check of its total, which the dummy columns
# at c**p of _component_pairs can overflow where the metric does not; bound
# to the public name, which the tests and perfbench's tracer patch here
from .assignment import AssignmentSet, _optimal_assignment as solve_full_assignment

BaseDistance = Union[str, Callable[[np.ndarray, np.ndarray], float]]

_NAMED_BASE_DISTANCES = ("euclidean", "manhattan")

# Inputs with at most this many pairs build the whole distance matrix;
# larger ones with a named base distance find their close pairs by a sweep.
# On points uniform in a square or cube of side 10c, the two cost the same
# near 1,850 pairs with the Euclidean base and near 1,300 with Manhattan.
_SWEEP_MIN_PAIRS = 1800
# A component of the d < c graph is solved by enumerating every injection of
# its n_x truths into its n_y estimates when (n_y + 1) ** n_x is at most this.
_ENUMERATION_MAX_INJECTIONS = 1024
# A padded stack compares only the truth-estimate slot pairs whose boxes
# over the stack meet on every coordinate, over blocks of samples holding at
# most this many of them (128 KB a float array); a stack with more slot
# pairs per sample than this, met or not, finds its edges one sample at a
# time.
_PADDED_BLOCK_CELLS = 16384
# A component whose best and second-best detected-pair sets differ in cost by
# at most this share of c**p goes to the assignment solver, whose tie pass
# compares exact sums of costs, not the enumeration's rounded float sums.
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

    Accepts any sequence of equal-length coordinate sequences, each of at
    least one coordinate; an empty sequence becomes a (0, 0) array.
    """
    try:
        arr = np.asarray(points, dtype=float)
    except (TypeError, ValueError):
        raise ValueError("a target set must be a sequence of equal-length state vectors") from None
    except OverflowError:  # an integer too large for a float
        raise ValueError("state coordinates must be finite") from None
    if arr.ndim == 2 and len(arr) and not arr.shape[1]:
        raise ValueError("a state vector must have at least one coordinate")
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
    so the whole matrix and a gathered set of pairs agree bit for bit.
    Callers ignore overflow here: a difference or distance beyond the float
    range is +inf, which is beyond c."""
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


def _widest_axis(xs: np.ndarray, ys: np.ndarray) -> int:
    """The coordinate along which the points of ``xs`` and ``ys``, arrays of
    any shape whose last axis holds the coordinates, spread widest."""
    dim = xs.shape[-1]
    # one contiguous row per coordinate: reductions along it are fast
    points = np.concatenate([xs.reshape(-1, dim), ys.reshape(-1, dim)]).T.copy()
    return int(np.argmax(points.max(axis=1) - points.min(axis=1)))


def _sweep_candidates(xs: np.ndarray, ys: np.ndarray, c: float):
    """Every pair within c of each other on one coordinate, as row and column
    index arrays in row order.

    Both named base distances are at least the difference on any single
    coordinate, so these pairs hold every pair at distance below c.  The
    coordinate is the one the two sets spread widest along; the estimates
    are sorted on it and each truth takes the window of estimates within c,
    widened by a relative slack so that rounding cannot drop a pair.  As in
    :func:`_padded_edges`, the window reaches at least 1e-150, so a pair
    whose squared differences underflow is a candidate, and the sweep finds
    the edges that the whole distance matrix finds.
    """
    axis = _widest_axis(xs, ys)
    order = np.argsort(ys[:, axis], kind="stable")
    keys = ys[order, axis]
    centres = xs[:, axis]
    reach = max(c, 1e-150) + 1e-9 * (c + np.abs(centres))
    lo = np.searchsorted(keys, centres - reach, side="left")
    counts = np.searchsorted(keys, centres + reach, side="right") - lo
    ends = np.cumsum(counts)
    # position of each candidate in the sorted estimates: its window's start
    # plus its offset within the window
    offsets = np.arange(ends[-1]) - np.repeat(ends - counts, counts)
    return np.repeat(np.arange(len(xs)), counts), order[np.repeat(lo, counts) + offsets]


def _no_edges():
    return (np.zeros(0, dtype=np.intp),) * 3 + (np.zeros(0),)


def _cut_off_graph(xs: np.ndarray, ys: np.ndarray, base: BaseDistance, c: float):
    """The pairs of one pair of sets at base distance below c, as (sample,
    truth, estimate, distance) arrays in ascending truth order, every sample
    0.  Inputs of more than ``_SWEEP_MIN_PAIRS`` pairs with a named base
    distance take their candidate pairs from :func:`_sweep_candidates`,
    however many; the others, from the whole distance matrix.
    """
    if len(xs) == 0 or len(ys) == 0:
        return _no_edges()
    # a coordinate difference beyond the float range is +inf, beyond c
    with np.errstate(over="ignore"):
        if callable(base) or len(xs) * len(ys) <= _SWEEP_MIN_PAIRS:
            distances = _base_distance_matrix(xs, ys, base)
            truth, estimate = np.nonzero(distances < c)
            distance = distances[truth, estimate]
        else:
            truth, estimate = _sweep_candidates(xs, ys, c)
            distance = _distances(xs.take(truth, axis=0) - ys.take(estimate, axis=0), base)
            close = distance < c
            truth, estimate, distance = truth[close], estimate[close], distance[close]
    return np.zeros(len(truth), dtype=np.intp), truth, estimate, distance


def _slot_pairs(slots: np.ndarray, k_x: int, reach: float):
    """The (truth slot, estimate slot) pairs whose boxes over a stack come
    within ``reach`` of each other on every coordinate, as index arrays in
    ascending (truth, estimate) order, and the coordinate along which the
    slots' values spread widest.  ``slots`` has shape (n, K_x + K_y, D):
    each sample's truth slots, then its estimate slots, NaN where a slot
    holds no value.

    A slot's box is its NaN-aware smallest and largest value on each
    coordinate over the samples.  Rounded subtraction is monotone, so
    ``x_lo - y_hi`` is at most the difference of the slots on that
    coordinate in any one sample and ``x_hi - y_lo`` at least it, overflow
    to ±inf included: a pair within reach on every coordinate in some
    sample is kept.  A slot that is NaN in every sample has a NaN box and
    meets nothing.  The boxes are compared one coordinate at a time, as
    (K_x, K_y) tests: NumPy loops over a trailing axis of length D far more
    slowly than over K_x * K_y values.  Callers ignore overflow.
    """
    lo, hi = np.fmin.reduce(slots).T, np.fmax.reduce(slots).T
    near = functools.reduce(np.logical_and, (
        (x_lo - y_hi <= reach) & (x_hi - y_lo >= -reach)
        for x_lo, x_hi, y_lo, y_hi in zip(lo[:, :k_x, None], hi[:, :k_x, None],
                                          lo[:, k_x:], hi[:, k_x:])))
    axis = int(np.argmax(np.fmax.reduce(hi, axis=1) - np.fmin.reduce(lo, axis=1)))
    return *near.nonzero(), axis


def _padded_edges(xs: np.ndarray, x_present: np.ndarray, ys: np.ndarray,
                  y_present: np.ndarray, base: str, c: float):
    """The pairs of present targets closer than c in every sample of a
    padded stack, as (sample, truth slot, estimate slot, distance) arrays in
    ascending (sample, truth, estimate) order.

    Only the slot pairs of :func:`_slot_pairs`, whose boxes over every
    point of the stack, present or not, come within reach on every
    coordinate, are compared sample by sample, over blocks of at most
    ``_PADDED_BLOCK_CELLS`` of them, so a stack spread in space costs far
    less than all K_x * K_y pairs in every sample.  The boxes of the
    present targets alone would lie within these; leaving the absent ones
    in costs a few more slot pairs where they are drawn as the present
    ones are, and saves masking the whole stack.  The slot pairs are
    compared on the coordinate along which the points spread widest, where
    an absent target is put at NaN, within reach of nothing.  Both named
    base distances are at least the difference on any one coordinate, up
    to rounding that the relative slack of the reach covers, unless that
    difference is so small that its square underflows, and every such pair
    is a candidate.  The candidates' distances come from
    :func:`_distances`, as in :func:`_cut_off_graph`.
    """
    (n_s, k_x), (k_y, dim) = x_present.shape, ys.shape[1:]
    if not (k_x and k_y):  # no slot pairs, so no edges
        return _no_edges()
    # a coordinate difference beyond the float range is +inf, beyond c
    with np.errstate(over="ignore"):
        reach = max(float(c) * (1.0 + 1e-9), 1e-150)  # a float32 c would drop the slack
        truth, estimate, axis = _slot_pairs(np.concatenate((xs, ys), axis=1), k_x, reach)
        x_line = np.where(x_present, xs[:, :, axis], np.nan)
        y_line = np.where(y_present, ys[:, :, axis], np.nan)
        repeats = np.bincount(truth, minlength=k_x)  # truth slot i's column, once per pair
        step = max(1, _PADDED_BLOCK_CELLS // max(1, len(truth)))
        parts = []
        for lo in range(0, n_s, step):
            gap = np.abs(np.repeat(x_line[lo:lo + step], repeats, axis=1)
                         - y_line[lo:lo + step].take(estimate, axis=1))
            sample, pair = np.divmod(np.flatnonzero(gap <= reach), len(truth))
            parts.append((sample + lo, pair))
        sample, pair = (np.concatenate(column) for column in zip(*parts))
        truth, estimate = truth[pair], estimate[pair]
        distance = _distances(xs.reshape(-1, dim).take(sample * k_x + truth, axis=0)
                              - ys.reshape(-1, dim).take(sample * k_y + estimate, axis=0), base)
    edge = distance < c
    if edge.all():  # every candidate an edge, as where targets are far apart: no copies
        return sample, truth, estimate, distance
    return sample[edge], truth[edge], estimate[edge], distance[edge]


def _cut_powers(c: float, p: float) -> float:
    """``c**p`` by :func:`_power`, the rule of every root and outer power,
    whatever real types c and p come as: the cost of a pair at distance c
    or more, and alpha times that of a missed or false target.  At p = 2 it
    is ``c * c``, as NumPy's ``distance ** 2`` prices every edge, so no
    edge closer than c costs more.  :func:`_solve` takes it once per p for
    every sum and penalty.  Raises ValueError when it is beyond the float
    range."""
    try:
        return _power(float(c), float(p))
    except OverflowError:
        raise ValueError("cost matrix entries must be finite") from None


def _enumerable(n_x, n_y):
    """Whether n_x truths and n_y estimates, integers or integer arrays, have
    at most ``_ENUMERATION_MAX_INJECTIONS`` values of ``(n_y + 1) ** n_x``.

    The test compares ``n_x * log2(n_y + 1)`` with the limit's log, in
    floats, so it cannot wrap.  The power equals the limit, a power of two,
    only where ``n_y + 1`` is a power of two, whose log is exact; elsewhere
    the two sides differ by far more than rounding."""
    return (np.multiply(n_x, np.log2(np.add(n_y, 1.0)))
            <= math.log2(_ENUMERATION_MAX_INJECTIONS))


@functools.lru_cache(maxsize=None)
def _injections(n_x: int, n_y: int) -> np.ndarray:
    """Every injection of ``n_x`` truths into ``n_y`` estimates, one row
    each, in lexicographic order.  Entry i is truth i's estimate, or ``n_y``
    when the truth is unpaired, so an unpaired truth ranks after every
    estimate.  The table is read-only, as every caller shares it; the
    enumeration limit leaves 1,076 shapes of at least one truth and one
    estimate to cache."""
    rows = [row for row in itertools.product(range(n_y + 1), repeat=n_x)
            if len({j for j in row if j < n_y}) == sum(j < n_y for j in row)]
    table = np.array(rows, dtype=np.intp).reshape(len(rows), n_x)
    table.flags.writeable = False
    return table


def _enumerated_gamma(costs: np.ndarray, cut: float):
    """The detected-pair set of every component of a stack, by enumeration.

    ``costs`` has shape (components, n_x, n_y), with n_x and n_y at least
    one: ``d**p`` where a pair is an edge (d < c) and +inf where it is not.
    ``cut`` is ``c**p`` from :func:`_cut_powers`.  Pairing truth i with
    estimate j changes the cost by ``d**p - cut`` on an edge; a pair that is
    no edge is out of reach, and an unpaired truth changes nothing.  Of the
    injections in lexicographic order, ``argmin`` takes the first cheapest,
    which is the tie rule of :class:`GospaBreakdown`.

    Returns ``(chosen, unclear)``, each row one component: each truth's
    estimate (``n_y`` when unpaired), and whether the runner-up lies within
    ``_ENUMERATION_TIE_GAP * c**p`` of the optimum or the sums overflowed.
    """
    n_s, n_x, n_y = costs.shape
    gains = np.zeros((n_s, n_x, n_y + 1))
    gains[:, :, :n_y] = costs - cut  # +inf where no edge
    injections = _injections(n_x, n_y)
    with np.errstate(over="ignore", invalid="ignore"):
        objective = gains[:, 0, injections[:, 0]]
        for i in range(1, n_x):
            objective += gains[:, i, injections[:, i]]
        best_index = objective.argmin(axis=1)
        chosen = injections[best_index]
        # the runner-up is the cheapest injection once the best is set aside;
        # there are at least two, as every truth may stay unpaired
        samples = np.arange(n_s)
        best = objective[samples, best_index]
        objective[samples, best_index] = np.inf
        clear = objective.min(axis=1) - best > _ENUMERATION_TIE_GAP * cut
    return chosen, ~(clear & np.isfinite(best))


def _component_pairs(costs: np.ndarray, rows: np.ndarray, cols: np.ndarray, cut: float):
    """The detected pairs of one component by the assignment solver, as
    (row, column, cost) arrays.

    ``costs`` holds ``d**p`` from the truths ``rows`` to the estimates
    ``cols``, +inf where a pair is no edge.  Dummy columns at ``cut``, the
    ``c**p`` of :func:`_cut_powers`, after the estimates stand for leaving a
    truth unpaired, and non-edges cost more than ``cut``, so no optimum uses
    them.  The solver returns the lexicographically smallest optimum, which
    is the tie rule of :func:`gospa` on this component.
    """
    edge = np.isfinite(costs)
    matrix = np.where(edge, costs, min(2.0 * cut, sys.float_info.max))
    # an optimal gamma leaves a truth unpaired only when all of that truth's
    # estimates are paired, so it pairs at least the smallest row degree
    n_rows, n_cols = costs.shape
    dummies = max(0, n_rows - int(edge.sum(axis=1).min()))
    if dummies:
        matrix = np.hstack([matrix, np.full((n_rows, dummies), cut)])
    pairs = [(r, k) for r, k in solve_full_assignment(matrix).pairs if k < n_cols and edge[r, k]]
    r, k = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    return rows[r], cols[k], costs[r, k]


def _first_of_runs(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal entries of ``keys``, not empty, starts."""
    return np.concatenate(([True], keys[1:] != keys[:-1]))


def _components(rows: np.ndarray, cols: np.ndarray):
    """The connected components of a bipartite graph whose edge e joins row
    ``rows[e]`` and column ``cols[e]``, with ``rows`` non-decreasing.

    Returns the distinct rows and columns in ascending order with each
    edge's index among them, ``(row_keys, row_of, col_keys, col_of)``, and
    each distinct row's and column's component and the component count;
    components are numbered by first row.  Each row starts labelled with its
    own index.  Minima over each column's edges, then over each row's,
    spread the smallest label through a component, and each row then takes
    its label's label, so a few passes cover a long path.
    """
    new_row = _first_of_runs(rows)
    by_col = cols.argsort(kind="stable")
    new_col = _first_of_runs(cols[by_col])
    row_of, col_of = new_row.cumsum() - 1, np.empty(len(cols), dtype=np.intp)
    col_of[by_col] = new_col.cumsum() - 1
    row_starts, col_starts = new_row.nonzero()[0], new_col.nonzero()[0]
    rows_by_col = row_of[by_col]
    label = np.arange(len(row_starts))
    while True:
        col_label = np.minimum.reduceat(label[rows_by_col], col_starts)
        new = np.minimum.reduceat(col_label[col_of], row_starts)
        new = new[new]  # labels only fall, so a label's label is no larger
        if (new == label).all():
            break
        label = new
    roots = label == np.arange(len(label))
    component = roots.cumsum() - 1
    return ((rows[new_row], row_of, cols[by_col][new_col], col_of),
            (component[label], component[col_label], int(component[-1]) + 1))


def _gamma(edges, k_x: int, k_y: int, cuts: dict):
    """The optimal detected-pair set γ of every sample for each p of
    ``cuts`` (p to ``c**p``, as :func:`_solve` prices it), as ``{p: (row,
    column, cost)}`` arrays: truth slot i of sample k is row ``k * K_x + i``
    and estimate slot j column ``k * K_y + j``.

    ``edges`` are (sample, truth slot, estimate slot, distance) arrays in
    ascending (sample, truth) order, the pairs closer than c.  Any other pair
    costs ``c**p``, as much as leaving both its targets unpaired, so γ splits
    into the connected components of the edges.  An edge whose two ends
    have no other edge is forced: every optimum takes it.  One sort puts the
    components of the others (:func:`_components`) that have one shape
    within the enumeration limit side by side, each with its truths and
    then its estimates in slot order.  At each p the edges' costs ``d**p``
    are taken once: the forced pairs keep theirs, and the others fill their
    components' blocks of costs, +inf where a pair is no edge, as a stack
    for :func:`_enumerated_gamma`.  Any other component, and one whose
    optimum that finds unclear, goes alone to :func:`_component_pairs`.
    Both realize the tie rule of :class:`GospaBreakdown` on each component.
    """
    sample, truth, estimate, distance = edges
    rows, cols = sample * k_x + truth, sample * k_y + estimate
    forced = (np.bincount(rows)[rows] == 1) & (np.bincount(cols)[cols] == 1)
    stacks = []  # the unforced components' blocks, as (fits, cells, shape, truths, estimates)
    if forced.all():  # every edge forced, as where targets are far apart: no copies
        forced = slice(None)
    else:
        free = ~forced
        (row_keys, row_of, col_keys, col_of), (row_comp, col_comp, n_comp) = _components(
            rows[free], cols[free])
        n_rows = len(row_keys)
        n_r, n_c = np.bincount(row_comp, minlength=n_comp), np.bincount(col_comp, minlength=n_comp)
        shape = np.where(_enumerable(n_r, n_c), n_r * (_ENUMERATION_MAX_INJECTIONS + 1) + n_c, -1)
        # the components by shape code (-1 beyond the enumeration limit),
        # each with its rows and then its columns in slot order
        item_comp = np.concatenate([row_comp, col_comp])
        order = np.lexsort((np.arange(len(item_comp)) >= n_rows, item_comp, shape[item_comp]))
        sorted_comp, cells = item_comp[order], n_r * n_c
        n_cells = int(cells.sum())
        first = _first_of_runs(sorted_comp)
        comps = sorted_comp[first]
        start, cell_start = np.empty((2, n_comp), dtype=np.intp)
        start[comps], cell_start[comps] = first.nonzero()[0], cells[comps].cumsum() - cells[comps]
        rank = np.empty(len(order), dtype=np.intp)  # within the component's rows or columns
        rank[order] = np.arange(len(order)) - start[sorted_comp]
        rank[n_rows:] -= n_r[col_comp]
        # each free edge's cell in the components' blocks, in that order in one buffer
        edge_comp = row_comp[row_of]
        edge_cell = (cell_start[edge_comp] + rank[row_of] * n_c[edge_comp]
                     + rank[n_rows + col_of])
        shapes = shape[comps]
        heads = (_first_of_runs(shapes) | (shapes < 0)).nonzero()[0]
        for head, end in zip(heads.tolist(), heads[1:].tolist() + [len(comps)]):
            comp, count = comps[head], end - head
            n, m = int(n_r[comp]), int(n_c[comp])
            items = order[start[comp]:start[comp] + count * (n + m)].reshape(count, -1)
            lo = int(cell_start[comp])
            stacks.append((shapes[head] >= 0, slice(lo, lo + count * n * m), (count, n, m),
                           row_keys[items[:, :n]], col_keys[items[:, n:] - n_rows]))
    forced_rows, forced_cols = rows[forced], cols[forced]
    gammas = {}
    for p, cut in cuts.items():
        costs = distance ** p
        pairs = [(forced_rows, forced_cols, costs[forced])]
        if stacks:
            buffer = np.full(n_cells, np.inf)  # no edge: out of reach
            buffer[edge_cell] = costs[free]
        for fits, block_cells, block_shape, truths, estimates in stacks:
            block = buffer[block_cells].reshape(block_shape)
            unclear = slice(None)  # a stack beyond the limit holds one component
            if fits:
                chosen, unclear = _enumerated_gamma(block, cut)
                g, r = np.nonzero((chosen < block.shape[2]) & ~unclear[:, None])
                pairs.append((truths[g, r], estimates[g, chosen[g, r]], block[g, r, chosen[g, r]]))
            pairs.extend(_component_pairs(*component, cut)
                         for component in zip(block[unclear], truths[unclear], estimates[unclear]))
        gammas[p] = pairs[0] if len(pairs) == 1 else tuple(map(np.concatenate, zip(*pairs)))
    return gammas


def _powers(values: np.ndarray, exponent: float) -> np.ndarray:
    """Each value to the power ``exponent``, and OverflowError where a power
    of a finite value exceeds the float range, with no NumPy warning.

    The exponents 1, 1/2 and 2 take correctly rounded IEEE operations,
    ``v``, ``np.sqrt(v)`` and ``v * v``, which give the same bits on every
    IEEE-754 host and whatever SIMD code NumPy dispatches.  Any other
    exponent goes through one object-dtype ``np.power`` call, so each
    element is a Python float powered by a Python float, libm's ``pow``,
    which is not correctly rounded and may differ between C libraries.
    :func:`_power` is the scalar twin."""
    if exponent == 1.0:
        return values
    if exponent == 0.5:
        return np.sqrt(values)
    if exponent == 2.0:
        with np.errstate(over="ignore"):
            squares = values * values
        if not np.isfinite(squares).all() and (np.isinf(squares) & np.isfinite(values)).any():
            raise OverflowError("a square exceeds the float range")
        return squares
    return np.power(values.astype(object), float(exponent)).astype(float)


def _power(value: float, exponent: float) -> float:
    """``value`` to the power ``exponent`` for one Python float, bit for bit
    as :func:`_powers` takes it in an array."""
    if exponent == 1.0:
        return value
    if exponent == 0.5:
        return math.sqrt(value)
    if exponent == 2.0:
        square = value * value
        if math.isinf(square) and math.isfinite(value):
            raise OverflowError("a square exceeds the float range")
        return square
    return value ** exponent


def _slot_sums(slots: np.ndarray) -> np.ndarray:
    """Each row's sum, accumulated left to right as a scalar sum would be;
    0.0 for rows of no slots.

    A stack of at least four rows per slot, such as a Table 1 chunk, adds
    its slot columns one vectorised add at a time.  Any other stack, such as
    the single row of :func:`gospa`, takes prefix sums along each row and
    keeps the last, in the same order: an add costs about a microsecond
    per slot and a prefix sum a few nanoseconds per entry.  ``np.sum`` and
    ``np.add.reduce`` are not used: NumPy sums pairwise or not depending on
    the layout, and a total would then change in the last bit with the
    stack's shape.
    """
    n_rows, n_slots = slots.shape
    if not n_slots:
        return np.zeros(n_rows)
    if n_rows < 4 * n_slots:
        return slots.cumsum(axis=1)[:, -1]
    total = slots[:, 0].copy()
    for column in range(1, n_slots):
        total += slots[:, column]
    return total


def _padded_totals(pairs, x_present: np.ndarray, y_present: np.ndarray, n_x: np.ndarray,
                   n_y: np.ndarray, cut: float, alphas):
    """GOSPA**p at each of ``alphas`` for every sample, the one summer of
    the package, and with ``alpha == 2`` each sample's localization cost.

    ``pairs`` are γ as :func:`_gamma` gives it, ``n_x`` and ``n_y`` count
    each sample's present slots.  Each sum accumulates left to right along
    the slots, by :func:`_slot_sums`, so a sample's total does not depend on
    the stack it is summed in: a slot holds its pair's cost, ``cut`` (the
    ``c**p`` of :func:`_cut_powers`) when its target is present and
    unpaired, or 0.0 (exact to add) when it is absent.  Each missed or
    false target adds ``cut / alpha``.  A total beyond the float range
    raises ValueError, with no NumPy warning.
    """
    row, col, cost = pairs
    totals, localization = {}, None
    with np.errstate(over="ignore", invalid="ignore"):
        if 2.0 in alphas:
            slots = np.zeros(x_present.shape)
            slots.reshape(-1)[row] = cost
            localization = _slot_sums(slots)
            detected = np.bincount(row // x_present.shape[1], minlength=len(x_present))
            totals[2.0] = localization + (cut / 2.0) * ((n_x - detected) + (n_y - detected))
        if alphas - {2.0}:
            # the complete assignment of the smaller set, in its index order;
            # a target outside gamma is paired at the cut-off
            sums = []
            for present, index in ((x_present, row), (y_present, col)):
                slots = np.where(present, cut, 0.0)
                slots.reshape(-1)[index] = cost
                sums.append(_slot_sums(slots))
            lap_total = np.where(n_x <= n_y, *sums)
            for alpha in alphas - {2.0}:
                totals[alpha] = lap_total + (cut / alpha) * np.abs(n_y - n_x)
    if not all(np.isfinite(total).all() for total in totals.values()):
        raise ValueError("cost matrix entries must be finite")
    return totals, localization


def _solve(edges, x_present: np.ndarray, y_present: np.ndarray, c: float, alpha: float,
           requests: dict[float, Sequence[str]]):
    """The requested metrics of every sample from its edges, the pairs
    closer than c as :func:`_gamma` takes them: the one solver behind
    :func:`gospa`, :func:`ospa` and the Monte Carlo estimators.
    ``x_present`` and ``y_present`` mark each sample's present slots.  Each
    p's ``c**p`` comes from :func:`_cut_powers`, or is 0.0 where that
    overflows and no sample holds a target: empty sets cost 0.  OSPA is
    exactly c in a sample that holds a target and no pair, and at most c in
    any other.  Returns ``{(name, p): values}``, one value per sample, and
    ``{p: (γ, localization, c**p)}``.
    """
    n_x, n_y = x_present.sum(axis=1), y_present.sum(axis=1)
    try:
        cuts = {p: _cut_powers(c, p) for p in requests}
    except ValueError:
        if n_x.any() or n_y.any():
            raise
        cuts = dict.fromkeys(requests, 0.0)
    gammas = _gamma(edges, x_present.shape[1], y_present.shape[1], cuts)
    values, details = {}, {}
    for p, names in requests.items():
        totals, localization = _padded_totals(
            gammas[p], x_present, y_present, n_x, n_y, cuts[p],
            {alpha if name == "gospa" else 1.0 for name in names})
        details[p] = (gammas[p], localization, cuts[p])
        for name in names:
            total = totals[alpha if name == "gospa" else 1.0]
            if name == "ospa":  # where both sets are empty, the total is 0.0
                total = total / np.maximum(np.maximum(n_x, n_y), 1)
            values[name, p] = _powers(total, 1.0 / p)
        if "ospa" in names:  # c**p * n / n, rooted, need not be c, nor any root near it
            pairs = np.bincount(gammas[p][0] // x_present.shape[1], minlength=len(n_x))
            values["ospa", p] = np.where(pairs, np.minimum(values["ospa", p], float(c)),
                                         np.where(n_x + n_y, float(c), 0.0))
    return values, details


def _evaluate(xs: np.ndarray, ys: np.ndarray, base: BaseDistance, c: float,
              alpha: float, requests: dict[float, Sequence[str]]) -> dict:
    """GOSPA (at ``alpha``), uOSPA and OSPA of one pair of sets: the
    one-sample case of :func:`_solve`, on the edges of :func:`_cut_off_graph`.

    ``requests`` maps each exponent p to the metric names wanted at it,
    from "gospa", "uospa" and "ospa".  Returns ``{(name, p): value}``; with
    ``alpha == 2`` a "gospa" entry comes with a ("decomposition", p) entry,
    ``(gamma, missed, false, localization_p, half_cut_p)``.
    """
    n_x, n_y = len(xs), len(ys)
    present = np.ones((1, n_x), dtype=bool), np.ones((1, n_y), dtype=bool)
    values, details = _solve(_cut_off_graph(xs, ys, base, c), *present, c, alpha, requests)
    values = {key: float(value[0]) for key, value in values.items()}
    for p, ((truth, estimate, _), localization, cut) in details.items():
        if localization is not None:  # a truth's row is its index, an estimate's column too
            order = np.argsort(truth)
            gamma = tuple(zip(truth[order].tolist(), estimate[order].tolist()))
            values["decomposition", p] = (gamma, n_x - len(gamma), n_y - len(gamma),
                                          float(localization[0]), cut / 2.0)
    return values


def _evaluate_each(pairs, base: BaseDistance, c: float, alpha: float,
                   requests: dict[float, Sequence[str]]) -> dict:
    """:func:`_evaluate` for each (truths, estimates) pair of a list, which
    may differ in dimension, as ``{(name, p): values}``, one value per pair.
    Pair k is sample k, its targets in its first slots and its edges from
    :func:`_cut_off_graph`, and one :func:`_solve` call takes every sample.
    Each value is bit-identical to the pair's alone: the tie rule reads only
    index order, and an absent slot adds an exact 0.0."""
    sizes = np.array([(len(x), len(y)) for x, y in pairs]).reshape(-1, 2)
    graphs = [_cut_off_graph(x, y, base, c)[1:] for x, y in pairs]
    truth, estimate, distance = (np.concatenate(column) for column in zip(*graphs))
    sample = np.repeat(np.arange(len(graphs)), [len(graph[0]) for graph in graphs])
    x_present, y_present = (np.arange(size.max()) < size[:, None] for size in sizes.T)
    return _solve((sample, truth, estimate, distance), x_present, y_present, c, alpha, requests)[0]


def _evaluate_padded(xs: np.ndarray, x_present: np.ndarray, ys: np.ndarray,
                     y_present: np.ndarray, base: BaseDistance, c: float, alpha: float,
                     requests: dict[float, Sequence[str]]) -> dict:
    """:func:`_evaluate` for each sample of a padded stack: the kernel of
    the Monte Carlo estimators, one :func:`_solve` call on the edges of
    :func:`_padded_edges`.

    ``xs`` has shape (n, K_x, D) and ``x_present`` (copies * n, K_x), and
    likewise for the estimates, where K_x or K_y may be 0: sample ``k * n +
    s`` has the truths ``xs[s][x_present[k * n + s]]``.  The edges are found
    once, among the targets present in any copy; each copy keeps those whose
    two targets it holds, just as the points stacked once per copy would
    give them.  Returns ``{(name, p): values}``, a float array of one value
    per sample, each bit-identical to what :func:`_evaluate` gives.  A
    stack with a callable base distance or more than ``_PADDED_BLOCK_CELLS``
    slot pairs per sample goes to :func:`_evaluate_each` instead.
    """
    (n, k_x), k_y = xs.shape[:2], ys.shape[1]
    if callable(base) or k_x * k_y > _PADDED_BLOCK_CELLS:
        samples = zip(itertools.cycle(xs), x_present, itertools.cycle(ys), y_present)
        return _evaluate_each([(x[xp], y[yp]) for x, xp, y, yp in samples],
                              base, c, alpha, requests)
    copies = len(x_present) // n
    edges = _padded_edges(xs, x_present.reshape(copies, n, k_x).any(axis=0),
                          ys, y_present.reshape(copies, n, k_y).any(axis=0), base, c)
    if copies > 1:  # with one copy, every edge found joins two targets it holds
        sample, truth, estimate, distance = edges
        held = sample + n * np.arange(copies)[:, None]  # each edge's sample in each copy
        copy, edge = (x_present[held, truth] & y_present[held, estimate]).nonzero()
        edges = held[copy, edge], truth[edge], estimate[edge], distance[edge]
    return _solve(edges, x_present, y_present, c, alpha, requests)[0]


def cutoff_distance(x, y, c: float, base_distance: BaseDistance = "euclidean") -> float:
    """Base distance between two state vectors, saturated at the cut-off c."""
    GospaParams(c=c, base_distance=base_distance)  # validates
    xv, yv = as_state_array([x]), as_state_array([y])  # one state of one coordinate or more
    _require_same_dimension(xv, yv)
    # a coordinate difference beyond the float range is +inf, beyond c
    with np.errstate(over="ignore"):
        d = float(_base_distance_matrix(xv, yv, base_distance)[0, 0])
    return min(d, float(c))


def gospa(x, y, params: GospaParams) -> GospaBreakdown:
    """GOSPA distance between two target sets.

    The returned breakdown carries the localization / missed / false
    decomposition and the detected-pair assignment when
    ``params.alpha == 2``; for other alpha values only ``total`` is set.
    Both sets empty gives 0; if one set is empty the distance is
    ``((c**p / alpha) * cardinality) ** (1/p)``.  A ``c**p`` (unless both
    sets are empty) or a total to the power p that overflows raises ValueError.

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

    Equals ``(gospa(alpha=1) ** p / max(|X|, |Y|)) ** (1/p)``.  Two empty
    sets give 0, and sets with no truth-estimate pair within c give exactly c.
    """
    GospaParams(c=c, alpha=1.0, p=p, base_distance=base_distance)  # validates
    xs = as_state_array(x)
    ys = as_state_array(y)
    _require_same_dimension(xs, ys)
    return _evaluate(xs, ys, base_distance, c, 1.0, {p: ("ospa",)})["ospa", p]
