"""Minimum-cost assignment of rows to columns of a rectangular cost matrix.

The solver assigns every row of an m x n matrix (m <= n) to a distinct
column so that the summed cost is minimal.  Among cost-optimal solutions it
returns the lexicographically smallest pair set (sorted by row, then
column), which keeps outputs reproducible when costs tie.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AssignmentSet:
    """A partial one-to-one pairing of rows to columns and its total cost.

    ``pairs`` is sorted by row index; no row or column appears twice.
    """

    pairs: tuple[tuple[int, int], ...]
    total_cost: float

    def __post_init__(self):
        rows = [i for i, _ in self.pairs]
        cols = [j for _, j in self.pairs]
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ValueError("assignment pairs must not repeat a row or a column")

    def __len__(self) -> int:
        return len(self.pairs)


def _validated_matrix(costs) -> np.ndarray:
    try:
        matrix = np.asarray(costs, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"cost matrix must be a rectangular grid of reals: {exc}") from None
    if matrix.ndim != 2 or matrix.shape[0] < 1 or matrix.shape[1] < 1:
        raise ValueError("cost matrix must be two-dimensional with at least one row and column")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("cost matrix entries must be finite")
    if np.any(matrix < 0.0):
        raise ValueError("cost matrix entries must be non-negative")
    return matrix


def _shortest_augmenting_paths(cost_rows: list[list[float]]):
    """Solve the rectangular assignment problem (rows <= columns).

    Augments one row at a time along shortest paths in the reduced-cost
    graph, Jonker-Volgenant style.  Returns the row->column assignment,
    column->row assignment and the dual variables.
    """
    n_rows = len(cost_rows)
    n_cols = len(cost_rows[0])
    u = [0.0] * n_rows
    v = [0.0] * n_cols
    col4row = [-1] * n_rows
    row4col = [-1] * n_cols
    inf = math.inf

    for cur_row in range(n_rows):
        shortest = [inf] * n_cols
        path = [-1] * n_cols
        seen_row = [False] * n_rows
        seen_col = [False] * n_cols
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            seen_row[i] = True
            row = cost_rows[i]
            u_i = u[i]
            lowest = inf
            index = -1
            for j in range(n_cols):
                if seen_col[j]:
                    continue
                reduced = min_val + row[j] - u_i - v[j]
                if reduced < shortest[j]:
                    shortest[j] = reduced
                    path[j] = i
                sj = shortest[j]
                # prefer a free column among equal path costs: terminates sooner
                if sj < lowest or (sj == lowest and row4col[j] == -1):
                    lowest = sj
                    index = j
            min_val = lowest
            j = index
            seen_col[j] = True
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]

        u[cur_row] += min_val
        for ip in range(n_rows):
            if seen_row[ip] and ip != cur_row:
                u[ip] += min_val - shortest[col4row[ip]]
        for jp in range(n_cols):
            if seen_col[jp]:
                v[jp] -= min_val - shortest[jp]

        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break

    return col4row, row4col, u, v


def _augment(adjacency, row_to_col, col_to_row, fixed, start_row) -> bool:
    """Re-home ``start_row`` along an alternating path that may displace any
    non-fixed row.  Applies the flips on success."""
    came_from: dict[int, int] = {}
    visited_rows = {start_row}
    visited_cols: set[int] = set()
    queue = deque([start_row])
    goal = -1
    while queue and goal < 0:
        r = queue.popleft()
        for j in adjacency[r]:
            if j in visited_cols:
                continue
            visited_cols.add(j)
            came_from[j] = r
            occupant = col_to_row[j]
            if occupant == -1:
                goal = j
                break
            if fixed[occupant] or occupant in visited_rows:
                continue
            visited_rows.add(occupant)
            queue.append(occupant)
    if goal < 0:
        return False
    j = goal
    while True:
        r = came_from[j]
        vacated = row_to_col[r]
        row_to_col[r] = j
        col_to_row[j] = r
        if r == start_row:
            return True
        j = vacated


def _lexicographically_smallest(cost_rows, col4row, row4col, u, v, tol):
    """Among cost-optimal assignments, pick the lexicographically smallest.

    Optimal assignments are exactly the row-complete matchings that use
    tight edges (zero reduced cost) and leave only zero-dual columns
    unassigned.  Modelling unassigned columns as interchangeable dummy rows
    turns that into perfect matchings of a square bipartite graph, through
    which rows are greedily fixed to their smallest feasible column.  The
    dual tolerance only nominates candidate moves; a move is kept solely
    when the exact row-ordered total does not increase, so float noise can
    never trade optimality for a smaller column index.
    """
    n_rows = len(cost_rows)
    n_cols = len(cost_rows[0])

    adjacency = [
        [j for j in range(n_cols) if cost_rows[i][j] - u[i] - v[j] <= tol]
        for i in range(n_rows)
    ]
    dummy_cols = [j for j in range(n_cols) if v[j] >= -tol]
    adjacency.extend([dummy_cols] * (n_cols - n_rows))

    row_to_col = list(col4row)
    col_to_row = list(row4col)
    next_dummy = n_rows
    for j in range(n_cols):
        if col_to_row[j] == -1:
            col_to_row[j] = next_dummy
            row_to_col.append(j)
            next_dummy += 1

    def real_total() -> float:
        total = 0.0
        for i in range(n_rows):
            total += cost_rows[i][row_to_col[i]]
        return total

    incumbent = real_total()
    fixed = [False] * n_cols
    for i in range(n_rows):
        fixed[i] = True
        current = row_to_col[i]
        for j in adjacency[i]:
            if j >= current:
                break
            occupant = col_to_row[j]
            if fixed[occupant]:
                continue
            saved_rows = row_to_col.copy()
            saved_cols = col_to_row.copy()
            row_to_col[i] = j
            col_to_row[current] = -1
            col_to_row[j] = i
            row_to_col[occupant] = -1
            if _augment(adjacency, row_to_col, col_to_row, fixed, occupant):
                candidate = real_total()
                if candidate <= incumbent:
                    incumbent = candidate
                    break
            row_to_col[:] = saved_rows
            col_to_row[:] = saved_cols

    return row_to_col[:n_rows]


def solve_full_assignment(costs) -> AssignmentSet:
    """Assign every row of an m x n cost matrix (m <= n) at minimum total cost.

    Returns an :class:`AssignmentSet` with exactly m pairs.  Deterministic:
    among cost ties the lexicographically smallest pair set wins.  Raises
    ``ValueError`` for non-finite or negative entries, or when m > n
    (transpose such inputs before calling).
    """
    matrix = _validated_matrix(costs)
    n_rows, n_cols = matrix.shape
    if n_rows > n_cols:
        raise ValueError("cost matrix must have no more rows than columns; transpose the input")

    cost_rows = matrix.tolist()
    col4row, row4col, u, v = _shortest_augmenting_paths(cost_rows)
    tol = 1e-12 * max(1.0, float(matrix.max()))
    col4row = _lexicographically_smallest(cost_rows, col4row, row4col, u, v, tol)

    pairs = tuple((i, col4row[i]) for i in range(n_rows))
    total = 0.0
    for i, j in pairs:
        total += cost_rows[i][j]
    return AssignmentSet(pairs=pairs, total_cost=total)

