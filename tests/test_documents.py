"""Tests for the point-set and model file formats."""

import json

import numpy as np
import pytest

from gospa.documents import (
    multi_bernoulli_from_document,
    multi_bernoulli_to_document,
    point_set_from_document,
    point_set_to_document,
    read_multi_bernoulli,
    read_point_set,
)
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
