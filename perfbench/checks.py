"""Output checks.  Each runs after its timed call and returns True when the
output is right; a False or an exception counts the call as failed."""

from __future__ import annotations

import json
import math

import numpy as np

REL_TOL = 1e-9
GRID_C = 8.0


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def grid_two_missed(metric: str, p: float, n_false: int) -> float:
    """Closed form of a Table-1 cell with both truth targets missed.

    The two truth targets are always present and every estimate is a false
    target beyond the cut-off, so each sample has the same value: GOSPA
    ``(c^p (2 + f) / 2)^(1/p)`` (8/12/20/48 at p = 1), OSPA ``c`` and
    unnormalized OSPA ``(c^p max(2, f))^(1/p)``.
    """
    cut_p = GRID_C ** p
    if metric == "gospa":
        return (cut_p * (2 + n_false) / 2.0) ** (1.0 / p)
    if metric == "ospa":
        return GRID_C
    return (cut_p * max(2, n_false)) ** (1.0 / p)


def _rounded(value: float, precision: int) -> float:
    return float(f"{value:.{precision}g}")


def grid_closed_form_ok(stdout: str, precision: int = 6) -> bool:
    """Every two-missed cell of a ``table1 --format json`` output matches its
    closed form, after the same rounding to ``precision`` significant digits
    that the CLI applies, and has zero standard error."""
    cells = [cell for cell in json.loads(stdout)["cells"] if cell["n_missed"] == 2]
    if len(cells) != 3 * 2 * 4:
        return False
    for cell in cells:
        expected = _rounded(grid_two_missed(cell["metric"], cell["p"], cell["n_false"]),
                            precision)
        if not close(cell["value"], expected) or cell["standard_error"] != 0.0:
            return False
    return True


def mean_output_ok(stdout: str) -> bool:
    """A ``mean`` text output reports a positive finite value and a finite,
    non-negative standard error."""
    fields = dict(line.split(": ", 1) for line in stdout.splitlines()
                  if line.startswith(("value:", "standard error:")))
    value = float(fields["value"])
    error = float(fields["standard error"])
    return math.isfinite(value) and value > 0.0 and math.isfinite(error) and error >= 0.0


def permutation_form_p(x: np.ndarray, y: np.ndarray, c: float, alpha: float,
                       p: float) -> float:
    """GOSPA to the power p from its permutation definition, solved by
    SciPy: the reference the program's totals are compared against."""
    from scipy.optimize import linear_sum_assignment  # imported on first check

    small, large = (x, y) if len(x) <= len(y) else (y, x)
    cut_p = c ** p
    if len(small) == 0:
        return cut_p / alpha * len(large)
    diff = small[:, None, :] - large[None, :, :]
    costs = np.minimum(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)), c) ** p
    rows, cols = linear_sum_assignment(costs)
    return float(costs[rows, cols].sum()) + cut_p / alpha * (len(large) - len(small))


def gospa_ok(result, x: np.ndarray, y: np.ndarray, c: float, p: float) -> bool:
    """An alpha = 2 GOSPA breakdown: its decomposition adds up to total^p,
    the counts match the assignment, and the total matches SciPy."""
    total_p = result.total ** p
    parts = result.localization_cost_p + result.missed_cost_p + result.false_cost_p
    pairs = len(result.assignment.pairs)
    return (close(total_p, parts)
            and result.missed_count == len(x) - pairs
            and result.false_count == len(y) - pairs
            and close(total_p, permutation_form_p(x, y, c, 2.0, p)))


def ospa_ok(value: float, x: np.ndarray, y: np.ndarray, c: float, p: float) -> bool:
    """OSPA equals (uOSPA^p / max(|X|, |Y|))^(1/p), with uOSPA from SciPy."""
    n_max = max(len(x), len(y))
    expected = (permutation_form_p(x, y, c, 1.0, p) / n_max) ** (1.0 / p) if n_max else 0.0
    return close(value, expected)
