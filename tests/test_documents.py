"""Tests for the point-set and model file formats."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gospa.documents import (
    multi_bernoulli_from_document,
    multi_bernoulli_to_document,
    point_set_from_document,
    point_set_to_document,
    read_multi_bernoulli,
    read_point_set,
)
from gospa import rfs
from gospa.rfs import BernoulliComponent, MultiBernoulli


class TestPointSetDocuments:
    def test_round_trip(self):
        points = np.array([[1.5, -2.0], [0.0, 4.25]])
        doc = point_set_to_document(points)
        assert doc == {"dimension": 2, "points": [[1.5, -2.0], [0.0, 4.25]]}
        assert np.array_equal(point_set_from_document(doc), points)

    def test_round_trip_empty(self):
        doc = point_set_to_document(np.zeros((0, 3)))
        restored = point_set_from_document(doc)
        assert restored.shape == (0, 3)

    def test_round_trip_through_json_text(self):
        points = np.array([[0.1, 0.2, 0.3]])
        text = json.dumps(point_set_to_document(points))
        assert np.array_equal(point_set_from_document(json.loads(text)), points)

    @pytest.mark.parametrize("doc", [
        [],
        {"points": [[0.0]]},
        {"dimension": 1},
        {"dimension": -1, "points": []},
        {"dimension": 1.5, "points": []},
        {"dimension": True, "points": []},
        {"dimension": 2, "points": [[1.0]]},
        {"dimension": 1, "points": [[float("nan")]]},
        {"dimension": 1, "points": [["a"]]},
        {"dimension": 1, "points": "nope"},
        {"dimension": 1, "points": [[10 ** 400]]},
        {"dimension": 1, "points": [[None]]},
    ])
    def test_rejects_malformed(self, doc):
        with pytest.raises(ValueError):
            point_set_from_document(doc)

    @pytest.mark.parametrize("points, dimension", [
        ([[2 ** 53 + 1, -(2 ** 63) - 1], [2 ** 64 + 12345, 123456789012345678901234567890]], 2),
        ([[10 ** 308, 17 * 10 ** 307, -(2 ** 1023)], [1.7976931348623157e308, -0.0, 5e-324]], 3),
        ([[np.float64(0.1), 3], [np.float64(-2.5), 1e-300]], 2),
        ([[]], 0),
        ([], 0),
        ([], 3),
    ])
    def test_arrays_are_each_value_as_a_python_float(self, points, dimension):
        array = point_set_from_document({"dimension": dimension, "points": points})
        expected = np.array([float(value) for row in points for value in row],
                            dtype=np.float64).reshape(len(points), dimension)
        assert array.dtype == np.float64 and array.shape == expected.shape
        assert array.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("value", [
        True, False, "1.0", None, 10 ** 400, -(10 ** 400), float("nan"), float("inf"),
        np.int64(1), [1.0],
    ])
    def test_each_rejected_coordinate_names_its_point(self, value):
        doc = {"dimension": 2, "points": [[0.0, 1.0], [2.0, value]]}
        with pytest.raises(ValueError, match=r"^point 1 has a non-finite coordinate$"):
            point_set_from_document(doc)

    @pytest.mark.parametrize("reader, suffix", [
        (read_point_set, ".json"), (read_point_set, ".csv"), (read_multi_bernoulli, ".json"),
    ])
    def test_undecodable_file_is_named(self, tmp_path, reader, suffix):
        path = tmp_path / f"bad{suffix}"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(ValueError) as raised:
            reader(path)
        assert str(raised.value).startswith(f"{path}: 'utf-8' codec can't decode")

    def test_read_json_file(self, tmp_path):
        path = tmp_path / "points.json"
        path.write_text(json.dumps({"dimension": 2, "points": [[1.0, 2.0]]}))
        assert np.array_equal(read_point_set(path), [[1.0, 2.0]])

    def test_read_csv_file(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("# comment\n1.0, 2.0\n3.0, 4.0\n\n")
        assert np.array_equal(read_point_set(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_read_empty_csv(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("")
        assert read_point_set(path).shape == (0, 0)

    def test_read_ragged_csv(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("1.0, 2.0\n3.0\n")
        with pytest.raises(ValueError, match="expected 2 coordinates"):
            read_point_set(path)

    def test_read_invalid_json(self, tmp_path):
        path = tmp_path / "points.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            read_point_set(path)


class TestModelDocuments:
    def _model(self):
        return MultiBernoulli((
            BernoulliComponent(1.0, [0.0, 1.0], np.eye(2)),
            BernoulliComponent(0.25, [5.0, -3.0], 2.0 * np.eye(2)),
        ))

    def test_round_trip(self):
        model = self._model()
        doc = multi_bernoulli_to_document(model)
        restored = multi_bernoulli_from_document(doc)
        assert len(restored.components) == 2
        for original, copy in zip(model.components, restored.components):
            assert copy.existence == original.existence
            assert np.array_equal(copy.mean, original.mean)
            assert np.array_equal(copy.covariance, original.covariance)

    def test_read_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(multi_bernoulli_to_document(self._model())))
        model = read_multi_bernoulli(path)
        assert model.dimension == 2

    @pytest.mark.parametrize("doc", [
        {},
        {"components": []},
        {"components": "nope"},
        {"components": [{"existence": 1.0, "mean": [0.0]}]},
        {"components": [{"existence": 2.0, "mean": [0.0], "covariance": [[1.0]]}]},
        {"components": [{"existence": 1.0, "mean": [0.0],
                         "covariance": [[1.0, 0.0]]}]},
        {"components": [{"existence": 1.0, "mean": [10 ** 400], "covariance": [[1.0]]}]},
    ])
    def test_rejects_malformed(self, doc):
        with pytest.raises(ValueError):
            multi_bernoulli_from_document(doc)

    def test_error_names_component_index(self):
        doc = {"components": [
            {"existence": 1.0, "mean": [0.0], "covariance": [[1.0]]},
            {"existence": 5.0, "mean": [0.0], "covariance": [[1.0]]},
        ]}
        with pytest.raises(ValueError, match="component 1"):
            multi_bernoulli_from_document(doc)


# --- models read as stacks ----------------------------------------------------

def random_covariance(rng, dimension):
    """Positive definite, singular positive semidefinite (its factor takes
    the jitter) or all zero (its factor is exactly zero), at random."""
    kind = rng.integers(3)
    if kind == 0:
        a = rng.normal(size=(dimension, dimension))
        return a @ a.T + 0.1 * np.eye(dimension)
    if kind == 1:
        if rng.integers(2):
            v = rng.normal(size=(dimension, 1))
            return v @ v.T
        return np.diag(rng.uniform(0.5, 2.0, dimension) * (np.arange(dimension) % 2))
    return np.zeros((dimension, dimension))


def random_entries(rng, count, dimension, nested):
    """``count`` valid model entries; ``nested`` is "flat", "nested" (every
    mean as [[...]]) or "mixed"."""
    entries = []
    for _ in range(count):
        mean = rng.uniform(-100.0, 100.0, dimension).tolist()
        if nested == "nested" or (nested == "mixed" and rng.integers(2)):
            mean = [mean]
        entries.append({"existence": float(rng.uniform()), "mean": mean,
                        "covariance": random_covariance(rng, dimension).tolist()})
    return entries


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 60), st.integers(1, 4),
       st.sampled_from(["flat", "nested", "mixed"]))
def test_stacks_are_those_of_each_component(seed, count, dimension, nested):
    entries = random_entries(np.random.default_rng(seed), count, dimension, nested)
    model = multi_bernoulli_from_document({"components": entries})
    components = [BernoulliComponent(entry["existence"], entry["mean"], entry["covariance"])
                  for entry in entries]
    assert model.dimension == dimension
    assert model._existence.tobytes() == np.array([comp.existence for comp in components]).tobytes()
    for stack, name in ((model._means, "mean"), (model._covariances, "covariance"),
                        (model._scale_trils, "scale_tril")):
        expected = np.stack([getattr(comp, name) for comp in components])
        assert stack.shape == expected.shape and stack.tobytes() == expected.tobytes(), name
    for got, expected in zip(model.components, components):
        assert type(got.existence) is float and got.existence == expected.existence
        for name in ("mean", "covariance", "scale_tril"):
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name
    assert multi_bernoulli_to_document(model) == multi_bernoulli_to_document(
        MultiBernoulli(tuple(components)))


@pytest.mark.parametrize("nested", ["flat", "nested", "mixed"])
def test_a_model_of_stackable_entries_builds_no_component(monkeypatch, nested):
    entries = random_entries(np.random.default_rng(3), 50, 2, nested)
    built = []
    real_post_init = BernoulliComponent.__post_init__

    def counting(component):
        built.append(component)
        real_post_init(component)

    monkeypatch.setattr(BernoulliComponent, "__post_init__", counting)
    model = multi_bernoulli_from_document({"components": entries})
    assert built == [] and len(model._means) == 50


def scaled_covariance(kind, dimension, exponent, ints):
    """A covariance of small integers times ``2**exponent``, the exponent
    cut so that every entry stays finite, which keeps the scaling exact:
    ``a @ a.T + I`` if definite, ``v @ v.T`` if singular (zero or definite
    where v is, or in one dimension), or zero; a and v are cut from ints.
    The exponent 1024 instead scales the largest entry to the largest
    float, exactly where the entries are powers of two, as in ``v @ v.T``
    with v of 0 and +-1."""
    a = np.array(ints[:dimension * dimension]).reshape(dimension, dimension)
    matrix = {"definite": a @ a.T + np.eye(dimension, dtype=int),
              "singular": a[:, :1] @ a[:, :1].T, "zero": 0 * a}[kind]
    largest = int(np.abs(matrix).max())
    if exponent == 1024 and largest:
        return matrix / largest * np.finfo(float).max
    return np.ldexp(matrix.astype(float), min(exponent, 1024 - largest.bit_length()))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3),
       st.lists(st.tuples(st.sampled_from(["definite", "singular", "zero"]),
                          st.integers(-1074, 1024),
                          st.lists(st.integers(-2, 2), min_size=9, max_size=9)),
                min_size=1, max_size=6))
@example(1, [("definite", 1023, [0] * 9)])  # [[2**1023]], where cov + cov.T overflows
@example(2, [("singular", -1074, [0, 0, 1] + [0] * 6)])  # [[0, 0], [0, 5e-324]]
@example(2, [("singular", -1074, [0, 0, 2] + [0] * 6)])  # needs a jitter above 1e-10 * 2e-323
# [[max, 0], [0, 0]] for the largest float max, where cov + jitter * I overflows
@example(2, [("singular", 1024, [1] + [0] * 8)])
@example(3, [("singular", 1024, [1, 0, 0, -1, 0, 0, 1, 0, 0])])  # +-max, rank one
def test_covariances_at_every_scale_are_read_as_each_component_reads_them(dimension, draws):
    entries = [{"existence": 1.0, "mean": [0.0] * dimension,
                "covariance": scaled_covariance(kind, dimension, exponent, ints).tolist()}
               for kind, exponent, ints in draws]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = multi_bernoulli_from_document(json.loads(json.dumps({"components": entries})))
        components = [BernoulliComponent(entry["existence"], entry["mean"], entry["covariance"])
                      for entry in entries]
    assert np.isfinite(model._scale_trils).all()
    for k, component in enumerate(components):
        assert model._existence[k] == component.existence
        for stack, name in ((model._means, "mean"), (model._covariances, "covariance"),
                            (model._scale_trils, "scale_tril")):
            assert stack[k].tobytes() == getattr(component, name).tobytes(), name


def first_fault(entries):
    """The message of the first fault of a model document's entries, read
    one entry at a time as each ``BernoulliComponent`` checks itself, or
    None."""
    components = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            return f"component {index} must be an object"
        missing = {"existence", "mean", "covariance"} - entry.keys()
        if missing:
            return f"component {index} lacks required field(s): {sorted(missing)}"
        try:
            components.append(BernoulliComponent(entry["existence"], entry["mean"],
                                                 entry["covariance"]))
        except (TypeError, ValueError) as exc:
            return f"component {index}: {exc}"
    if len({comp.dimension for comp in components}) > 1:
        return "all components must share one dimension"
    return None


HUGE = 10 ** 400  # an integer too large for any float

# each fault as a change to one valid entry of the given dimension
NUMERIC_FAULTS = {
    "existence above 1": lambda entry, d: entry.update(existence=1.5),
    "existence below 0": lambda entry, d: entry.update(existence=-0.25),
    "existence NaN": lambda entry, d: entry.update(existence=float("nan")),
    "existence a string": lambda entry, d: entry.update(existence="often"),
    "existence null": lambda entry, d: entry.update(existence=None),
    "existence a list": lambda entry, d: entry.update(existence=[0.5]),
    "existence huge": lambda entry, d: entry.update(existence=HUGE),
    "mean empty": lambda entry, d: entry.update(mean=[]),
    "mean infinite": lambda entry, d: entry["mean"].__setitem__(0, float("inf")),
    "mean huge": lambda entry, d: entry["mean"].__setitem__(0, HUGE),
    "mean a string": lambda entry, d: entry["mean"].__setitem__(0, "north"),
    "mean ragged": lambda entry, d: entry.update(mean=[entry["mean"], [0.0] * (d + 1)]),
    "mean longer": lambda entry, d: entry.update(mean=entry["mean"] + [0.0]),
    "covariance too small": lambda entry, d: entry.update(covariance=[[1.0] * d]),
    "covariance NaN": lambda entry, d: entry["covariance"][0].__setitem__(0, float("nan")),
    "covariance huge": lambda entry, d: entry["covariance"][0].__setitem__(0, HUGE),
    "covariance ragged": lambda entry, d: entry["covariance"].__setitem__(0, [1.0] * (d + 1)),
    "covariance asymmetric": lambda entry, d: entry.update(
        covariance=(np.eye(d) + np.eye(d, k=1) * 2.0).tolist()),
    "covariance indefinite": lambda entry, d: entry.update(covariance=(-np.eye(d)).tolist()),
    "dimension of its own": lambda entry, d: entry.update(
        mean=[0.0] * (d + 1), covariance=np.eye(d + 1).tolist()),
}
STRUCTURAL_FAULTS = {
    "not an object": lambda entries, k: entries.__setitem__(k, [entries[k]]),
    "a number": lambda entries, k: entries.__setitem__(k, 3),
    "null": lambda entries, k: entries.__setitem__(k, None),
    "no existence": lambda entries, k: entries[k].pop("existence"),
    "no mean or covariance": lambda entries, k: [entries[k].pop(name)
                                                 for name in ("mean", "covariance")],
}


FAULTS = ([("numeric", name) for name in sorted(NUMERIC_FAULTS)]
          + [("structural", name) for name in sorted(STRUCTURAL_FAULTS)]
          + [("numeric then structural", name) for name in sorted(NUMERIC_FAULTS)])


@pytest.mark.parametrize("kind, fault", FAULTS)
@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12), st.integers(1, 3),
       st.sampled_from(["flat", "nested"]), st.data())
def test_a_rejected_document_names_its_first_fault(kind, fault, seed, count, dimension, nested,
                                                   data):
    rng = np.random.default_rng(seed)
    entries = random_entries(rng, count, dimension, nested)
    if nested == "nested":  # the faults act on flat means
        for entry in entries:
            entry["mean"] = entry["mean"][0]
    first = data.draw(st.integers(0, count - 1))
    if kind == "structural":
        STRUCTURAL_FAULTS[fault](entries, first)
    else:
        NUMERIC_FAULTS[fault](entries[first], dimension)
    if kind == "numeric then structural" and first + 1 < count:
        later = data.draw(st.sampled_from(sorted(STRUCTURAL_FAULTS)))
        STRUCTURAL_FAULTS[later](entries, data.draw(st.integers(first + 1, count - 1)))
    expected = first_fault(entries)
    if expected is None:  # one component of a dimension of its own is a model
        multi_bernoulli_from_document({"components": entries})
        return
    with pytest.raises(ValueError) as raised:
        multi_bernoulli_from_document({"components": entries})
    assert str(raised.value) == expected
