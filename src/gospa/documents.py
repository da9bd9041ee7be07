"""File formats consumed by the CLI.

Point sets are JSON objects ``{"dimension": N, "points": [[...], ...]}``;
a CSV file with one comma-separated point per line is accepted as a
convenience.  Multi-Bernoulli models are JSON objects with a
``components`` list of ``{"existence": e, "mean": [...],
"covariance": [[...], ...]}`` entries.

Both readers go through ``_read``: a file that cannot be decoded as UTF-8,
parsed or checked, however deeply it nests, raises a ValueError whose
message starts with the file's path.

A model is read by one reader.  Each entry is converted once, as
``BernoulliComponent`` converts its fields, a nested mean flattened, so
nested, flat and mixed means all stack.  One call then checks the whole
model, each check over every component at once, and factors its
covariances.  An entry that is not an object or lacks a field is named
after any fault of the entries before it; otherwise a rejected model names
its first failing component in index order and that component's first
failing check: ``component 1: covariance must be symmetric``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .metrics import _is_finite, as_state_array
from .rfs import MultiBernoulli, _checked, _component_fields

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


def multi_bernoulli_from_document(document) -> MultiBernoulli:
    if not isinstance(document, dict) or "components" not in document:
        raise ValueError("model document must be a JSON object with a 'components' list")
    entries = document["components"]
    if not isinstance(entries, list) or not entries:
        raise ValueError("'components' must be a non-empty list")
    fields = []
    for index, entry in enumerate(entries):
        if isinstance(entry, dict) and _FIELDS <= entry.keys():
            fields.append(_component_fields(entry["existence"], entry["mean"],
                                            entry["covariance"]))
            continue
        _checked(fields, first=0)  # a fault of an earlier entry comes first
        if not isinstance(entry, dict):
            raise ValueError(f"component {index} must be an object")
        missing = sorted(_FIELDS - entry.keys())
        raise ValueError(f"component {index} lacks required field(s): {missing}")
    return MultiBernoulli._from_fields(fields)


def read_multi_bernoulli(path) -> MultiBernoulli:
    return _read(path, lambda text: multi_bernoulli_from_document(json.loads(text)))
