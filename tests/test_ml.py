"""ML output layer tests: tensors, export, forecaster."""

import math

import numpy as np
import pytest

from repro.geometry import Envelope
from repro.instances import Raster, SpatialMap, TimeSeries
from repro.ml import (
    RidgeForecaster,
    features_to_csv,
    features_to_json,
    raster_to_matrix_sequence,
    sliding_window_dataset,
    spatial_map_to_matrix,
    time_series_to_vector,
    train_test_split_windows,
)
from repro.ml.export import load_features_json
from repro.ml.forecast import naive_last_value_rmse
from repro.temporal import Duration


class TestTensors:
    def test_time_series_vector(self):
        ts = TimeSeries.regular(Duration(0, 30), 10.0).with_cell_values([1, None, 3])
        vec = time_series_to_vector(ts)
        assert vec.tolist() == [1.0, 0.0, 3.0]

    def test_spatial_map_matrix_layout(self):
        sm = SpatialMap.regular(Envelope(0, 0, 3, 2), 3, 2).with_cell_values(
            [1, 2, 3, 4, 5, 6]
        )
        matrix = spatial_map_to_matrix(sm, nx=3, ny=2)
        # Row-major (y-outer): first row is cells 0..2.
        assert matrix.tolist() == [[1, 2, 3], [4, 5, 6]]

    def test_spatial_map_shape_mismatch(self):
        sm = SpatialMap.regular(Envelope(0, 0, 2, 2), 2, 2)
        with pytest.raises(ValueError):
            spatial_map_to_matrix(sm, nx=3, ny=3)

    def test_raster_matrix_sequence(self):
        raster = Raster.regular(Envelope(0, 0, 2, 1), Duration(0, 2), 2, 1, 2)
        # Cells: (cell0, t0), (cell0, t1), (cell1, t0), (cell1, t1)
        raster = raster.with_cell_values([10, 11, 20, 21])
        tensor = raster_to_matrix_sequence(raster, nx=2, ny=1, nt=2)
        assert tensor.shape == (2, 1, 2)
        assert tensor[0].tolist() == [[10, 20]]
        assert tensor[1].tolist() == [[11, 21]]

    def test_raster_none_fill(self):
        raster = Raster.regular(Envelope(0, 0, 1, 1), Duration(0, 2), 1, 1, 2)
        raster = raster.with_cell_values([None, 5])
        tensor = raster_to_matrix_sequence(raster, 1, 1, 2, fill=-1.0)
        assert tensor[0, 0, 0] == -1.0
        assert tensor[1, 0, 0] == 5.0

    def test_sliding_window_shapes(self):
        seq = np.arange(10, dtype=float).reshape(10, 1)
        X, y = sliding_window_dataset(seq, history=3, horizon=1)
        assert X.shape == (7, 3)
        assert y.shape == (7, 1)
        assert X[0].tolist() == [0, 1, 2]
        assert y[0][0] == 3

    def test_sliding_window_horizon(self):
        seq = np.arange(10, dtype=float)
        X, y = sliding_window_dataset(seq, history=2, horizon=3)
        assert y[0][0] == 4  # two history + horizon 3 → index 4

    def test_sliding_window_too_short(self):
        with pytest.raises(ValueError):
            sliding_window_dataset(np.arange(3, dtype=float), history=3, horizon=1)

    @pytest.mark.parametrize("shape", [(12,), (12, 3), (12, 2, 3)])
    @pytest.mark.parametrize("horizon", [1, 3])
    @pytest.mark.parametrize("history", [1, 4])
    def test_sliding_window_equals_the_copy_loop(self, shape, horizon, history):
        """The strided build against the per-sample loop it replaced."""
        seq = np.random.default_rng(3).normal(size=shape)
        n = shape[0] - history - horizon + 1
        features = int(np.prod(shape[1:]))
        want_x = np.empty((n, history * features))
        want_y = np.empty((n, features))
        for i in range(n):
            want_x[i] = seq[i : i + history].reshape(-1)
            want_y[i] = seq[i + history + horizon - 1].reshape(-1)
        X, y = sliding_window_dataset(seq, history=history, horizon=horizon)
        assert (X.dtype, y.dtype) == (np.float64, np.float64)
        assert np.array_equal(X, want_x) and np.array_equal(y, want_y)
        # Fresh, writable arrays: a caller normalising in place must not
        # write through to (or be refused by a view of) the sequence.
        before = seq.copy()
        X += 1.0
        y += 1.0
        assert np.array_equal(seq, before)

    def test_sliding_window_accepts_integer_sequences(self):
        X, y = sliding_window_dataset(np.arange(6), history=2)
        assert X.dtype == np.float64 and X.tolist()[0] == [0.0, 1.0] and y[0][0] == 2.0


class TestExport:
    @pytest.fixture
    def instance(self):
        return TimeSeries.regular(Duration(0, 20), 10.0).with_cell_values([4, 9])

    def test_json_roundtrip(self, tmp_path, instance):
        path = features_to_json(tmp_path / "f.json", instance)
        doc = load_features_json(path)
        assert doc["instance_type"] == "TimeSeries"
        assert doc["n_cells"] == 2
        assert [c["value"] for c in doc["cells"]] == [4, 9]
        assert doc["cells"][0]["t_start"] == 0.0
        assert doc["cells"][1]["t_end"] == 20.0

    def test_csv_export(self, tmp_path, instance):
        import csv

        path = features_to_csv(tmp_path / "f.csv", instance)
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        assert rows[0]["value"] == "4"

    def test_value_encoder(self, tmp_path, instance):
        path = features_to_json(
            tmp_path / "f.json", instance, value_encoder=lambda v: v * 10
        )
        doc = load_features_json(path)
        assert [c["value"] for c in doc["cells"]] == [40, 90]


class TestForecaster:
    def _rhythmic_sequence(self, n=200, cells=4, seed=3):
        rng = np.random.default_rng(seed)
        t = np.arange(n)
        base = 30 + 10 * np.sin(2 * math.pi * t / 24)
        seq = np.stack(
            [base + i * 2 + rng.normal(0, 0.5, n) for i in range(cells)], axis=1
        )
        return seq

    def test_learns_rhythm_beats_naive(self):
        seq = self._rhythmic_sequence()
        X, y = sliding_window_dataset(seq, history=24)
        X_tr, y_tr, X_te, y_te = train_test_split_windows(X, y)
        model = RidgeForecaster(alpha=1e-3).fit(X_tr, y_tr)
        model_rmse = model.score_rmse(X_te, y_te)
        naive_rmse = naive_last_value_rmse(X_te, y_te, feature_size=seq.shape[1])
        assert model_rmse < naive_rmse * 0.7

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RidgeForecaster().predict(np.zeros((1, 2)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            RidgeForecaster().fit(np.zeros((3, 2)), np.zeros(4))

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            RidgeForecaster(alpha=-1)

    def test_split_chronological(self):
        X = np.arange(10)[:, None].astype(float)
        y = np.arange(10).astype(float)
        X_tr, y_tr, X_te, y_te = train_test_split_windows(X, y, 0.7)
        assert X_tr.shape[0] == 7
        assert X_te[0][0] == 7.0  # strictly after training data

    def test_split_validation(self):
        X = np.zeros((2, 1))
        y = np.zeros(2)
        with pytest.raises(ValueError):
            train_test_split_windows(X, y, 1.5)

    def test_multioutput_prediction_shape(self):
        X = np.random.default_rng(0).normal(size=(50, 6))
        y = X @ np.random.default_rng(1).normal(size=(6, 3))
        model = RidgeForecaster(alpha=1e-6).fit(X, y)
        assert model.predict(X).shape == (50, 3)
        assert model.score_rmse(X, y) < 1e-6
