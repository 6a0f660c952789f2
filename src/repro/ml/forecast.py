"""A self-contained downstream forecaster.

The point of ST4ML is producing model-ready features; to demonstrate the
loop end to end without external ML engines, this module provides a ridge
(L2-regularized least-squares) forecaster over the sliding-window datasets
of :mod:`repro.ml.tensors`.  It is deliberately simple — the paper's
forecasting models (DCRNN et al.) are out of scope — but real enough to
show features carrying signal (tests assert it beats a naive baseline on
rhythmic synthetic traffic).
"""

from __future__ import annotations

import numpy as np


class RidgeForecaster:
    """Least-squares linear forecaster with L2 regularization.

    Solves ``min ||XW - Y||^2 + alpha ||W||^2`` in closed form; handles
    multi-output targets (one column per forecast cell).
    """

    def __init__(self, alpha: float = 1.0):
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = alpha
        self._weights: np.ndarray | None = None
        self._bias: np.ndarray | None = None

    @property
    def is_fitted(self) -> bool:
        """True once fit() has run."""
        return self._weights is not None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RidgeForecaster":
        """Fit the ridge weights in closed form; returns self."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if y.ndim == 1:
            y = y[:, None]
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y sample counts differ")
        x_mean = X.mean(axis=0)
        y_mean = y.mean(axis=0)
        xc = X - x_mean
        yc = y - y_mean
        gram = xc.T @ xc + self.alpha * np.eye(X.shape[1])
        self._weights = np.linalg.solve(gram, xc.T @ yc)
        self._bias = y_mean - x_mean @ self._weights
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for ``X``; requires fit()."""
        if not self.is_fitted:
            raise RuntimeError("forecaster is not fitted")
        X = np.asarray(X, dtype=np.float64)
        return X @ self._weights + self._bias

    def score_rmse(self, X: np.ndarray, y: np.ndarray) -> float:
        """Root-mean-square error on (X, y)."""
        y = np.asarray(y, dtype=np.float64)
        if y.ndim == 1:
            y = y[:, None]
        pred = self.predict(X)
        return float(np.sqrt(np.mean((pred - y) ** 2)))


def train_test_split_windows(
    X: np.ndarray, y: np.ndarray, train_fraction: float = 0.8
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Chronological split (no shuffling — temporal data leaks otherwise)."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    cut = max(1, int(X.shape[0] * train_fraction))
    if cut >= X.shape[0]:
        raise ValueError("not enough samples to split")
    return X[:cut], y[:cut], X[cut:], y[cut:]


def naive_last_value_rmse(X: np.ndarray, y: np.ndarray, feature_size: int) -> float:
    """RMSE of the persist-last-frame baseline, the standard yardstick."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    last_frame = X[:, -feature_size:]
    return float(np.sqrt(np.mean((last_frame - y) ** 2)))


def evaluate_forecast(y_true: np.ndarray, y_pred: np.ndarray) -> dict:
    """Standard forecast error metrics: RMSE, MAE, and MAPE.

    MAPE skips zero-valued targets (the conventional guard) and is
    reported as a percentage; all metrics are over the flattened arrays.
    """
    y_true = np.asarray(y_true, dtype=np.float64).ravel()
    y_pred = np.asarray(y_pred, dtype=np.float64).ravel()
    if y_true.shape != y_pred.shape:
        raise ValueError("prediction and target shapes differ")
    if y_true.size == 0:
        raise ValueError("cannot evaluate empty arrays")
    err = y_pred - y_true
    rmse = float(np.sqrt(np.mean(err**2)))
    mae = float(np.mean(np.abs(err)))
    nonzero = y_true != 0
    if nonzero.any():
        mape = float(np.mean(np.abs(err[nonzero] / y_true[nonzero])) * 100.0)
    else:
        mape = float("nan")
    return {"rmse": rmse, "mae": mae, "mape": mape}
