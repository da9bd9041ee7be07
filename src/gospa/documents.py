"""File formats consumed by the CLI.

Point sets are JSON objects ``{"dimension": N, "points": [[...], ...]}``;
a CSV file with one comma-separated point per line is accepted as a
convenience.  Multi-Bernoulli models are JSON objects with a
``components`` list of ``{"existence": e, "mean": [...],
"covariance": [[...], ...]}`` entries.

Both readers go through ``_read``: a file that cannot be decoded as UTF-8,
parsed or checked, however deeply it nests, raises a ValueError whose
message starts with the file's path.

A model is read as stacks: every entry's fields go into one array each,
the checks of ``BernoulliComponent`` run once over the arrays, and the
covariances are factored by one Cholesky call.  A model whose entries do
not stack, such as one mixing nested and flat means, or that fails a check
is read again one entry at a time, which builds it or names the first
failing component in index order with that component's first failing check:
``component 1: covariance must be symmetric``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .metrics import _is_finite, as_state_array
from .rfs import BernoulliComponent, MultiBernoulli

_FIELDS = frozenset(("existence", "mean", "covariance"))


def point_set_to_document(points) -> dict:
    arr = as_state_array(points)
    return {
        "dimension": int(arr.shape[1]),
        "points": [[float(value) for value in row] for row in arr],
    }


def point_set_from_document(document) -> np.ndarray:
    if not isinstance(document, dict):
        raise ValueError("point set document must be a JSON object")
    missing = {"dimension", "points"} - document.keys()
    if missing:
        raise ValueError(f"point set document lacks required field(s): {sorted(missing)}")
    dimension = document["dimension"]
    if isinstance(dimension, bool) or not isinstance(dimension, int) or dimension < 0:
        raise ValueError("dimension must be a non-negative integer")
    points = document["points"]
    if not isinstance(points, list):
        raise ValueError("points must be a list of coordinate lists")
    for index, point in enumerate(points):
        if not isinstance(point, list) or len(point) != dimension:
            raise ValueError(f"point {index} must be a list of {dimension} coordinates")
        for value in point:
            if isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or not _is_finite(value):
                raise ValueError(f"point {index} has a non-finite coordinate")
    return np.array(points, dtype=float).reshape(len(points), dimension)


def _point_set_from_csv(text: str) -> np.ndarray:
    rows = []
    width = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            row = [float(token) for token in line.split(",")]
        except ValueError:
            raise ValueError(f"line {line_no}: expected comma-separated numbers") from None
        if any(not math.isfinite(value) for value in row):
            raise ValueError(f"line {line_no}: coordinates must be finite")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError(f"line {line_no}: expected {width} coordinates, got {len(row)}")
        rows.append(row)
    if not rows:
        return np.zeros((0, 0))
    return np.array(rows)


def _read(path, parse):
    """``parse`` of the file's UTF-8 text.  An OSError already names the
    file and passes on unchanged."""
    path = Path(path)
    try:
        return parse(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_point_set(path) -> np.ndarray:
    if Path(path).suffix.lower() == ".csv":
        return _read(path, _point_set_from_csv)
    return _read(path, lambda text: point_set_from_document(json.loads(text)))


def multi_bernoulli_to_document(model: MultiBernoulli) -> dict:
    return {
        "components": [
            {
                "existence": float(comp.existence),
                "mean": [float(value) for value in comp.mean],
                "covariance": [[float(value) for value in row] for row in comp.covariance],
            }
            for comp in model.components
        ]
    }


def _stacked_model(entries: list) -> MultiBernoulli | None:
    """The model of the entries read as stacks, or None where any entry is
    no object with the three fields, the fields do not stack into K
    existence probabilities, K means of one shape and K covariances of one
    shape, or ``MultiBernoulli._from_stacks`` finds a fault.  Each value
    becomes a float as ``BernoulliComponent`` makes it, and a nested mean
    is flattened as there."""
    if not all(isinstance(entry, dict) and _FIELDS <= entry.keys() for entry in entries):
        return None
    try:
        existence = np.array([float(entry["existence"]) for entry in entries])
        means = np.array([entry["mean"] for entry in entries], dtype=float)
        covariances = np.array([entry["covariance"] for entry in entries], dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    return MultiBernoulli._from_stacks(existence, means.reshape(len(entries), -1), covariances)


def multi_bernoulli_from_document(document) -> MultiBernoulli:
    if not isinstance(document, dict) or "components" not in document:
        raise ValueError("model document must be a JSON object with a 'components' list")
    entries = document["components"]
    if not isinstance(entries, list) or not entries:
        raise ValueError("'components' must be a non-empty list")
    model = _stacked_model(entries)
    if model is not None:
        return model
    # entry by entry, which names the first fault, or builds a model whose
    # entries do not stack, such as one of nested and flat means
    components = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"component {index} must be an object")
        missing = _FIELDS - entry.keys()
        if missing:
            raise ValueError(f"component {index} lacks required field(s): {sorted(missing)}")
        try:
            components.append(BernoulliComponent(
                existence=entry["existence"],
                mean=entry["mean"],
                covariance=entry["covariance"],
            ))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"component {index}: {exc}") from None
    return MultiBernoulli(tuple(components))


def read_multi_bernoulli(path) -> MultiBernoulli:
    return _read(path, lambda text: multi_bernoulli_from_document(json.loads(text)))
