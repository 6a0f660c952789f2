"""Feature tensors from extracted collective instances.

The traffic-forecast formulation of Section 2.1 consumes features as a
sequence of 2-d matrices ``[A^t0, A^t1, ...]`` where ``a_ij^t`` is a cell
feature at time ``t``.  These helpers reshape extracted rasters, spatial
maps, and time series into exactly that numpy layout, and build supervised
sliding-window datasets from the sequences.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.instances.raster import Raster
from repro.instances.spatialmap import SpatialMap
from repro.instances.timeseries import TimeSeries


def time_series_to_vector(
    ts: TimeSeries,
    value_of: Callable[[object], float] = float,
    fill: float = 0.0,
) -> np.ndarray:
    """1-d array of per-slot features; ``None`` cells become ``fill``."""
    return np.array(
        [fill if v is None else value_of(v) for v in ts.cell_values()],
        dtype=np.float64,
    )


def spatial_map_to_matrix(
    sm: SpatialMap,
    nx: int,
    ny: int,
    value_of: Callable[[object], float] = float,
    fill: float = 0.0,
) -> np.ndarray:
    """(ny, nx) matrix from a regular spatial map's row-major cells."""
    if sm.n_cells != nx * ny:
        raise ValueError(
            f"spatial map has {sm.n_cells} cells, expected {nx}x{ny}"
        )
    flat = [fill if v is None else value_of(v) for v in sm.cell_values()]
    return np.array(flat, dtype=np.float64).reshape(ny, nx)


def raster_to_matrix_sequence(
    raster: Raster,
    nx: int,
    ny: int,
    nt: int,
    value_of: Callable[[object], float] = float,
    fill: float = 0.0,
) -> np.ndarray:
    """The ``[A^t0, A^t1, ...]`` sequence: an (nt, ny, nx) tensor.

    Expects the cell layout of :meth:`Raster.regular` /
    :meth:`RasterStructure.regular`: spatial row-major outer, temporal
    inner.
    """
    if raster.n_cells != nx * ny * nt:
        raise ValueError(
            f"raster has {raster.n_cells} cells, expected {nx}x{ny}x{nt}"
        )
    tensor = np.full((nt, ny, nx), fill, dtype=np.float64)
    values = raster.cell_values()
    for row in range(ny):
        for col in range(nx):
            base = (row * nx + col) * nt
            for t in range(nt):
                v = values[base + t]
                if v is not None:
                    tensor[t, row, col] = value_of(v)
    return tensor


def sliding_window_dataset(
    sequence: np.ndarray,
    history: int,
    horizon: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Supervised pairs from a temporal sequence.

    ``sequence`` has time as its first axis.  Returns ``(X, y)`` with
    ``X[i] = sequence[i : i + history]`` (flattened per sample) and
    ``y[i] = sequence[i + history + horizon - 1]`` (flattened) — the
    standard next-step formulation of the paper's forecasting citations.
    """
    if history < 1 or horizon < 1:
        raise ValueError("history and horizon must be positive")
    n_samples = sequence.shape[0] - history - horizon + 1
    if n_samples <= 0:
        raise ValueError(
            f"sequence of length {sequence.shape[0]} too short for "
            f"history={history}, horizon={horizon}"
        )
    flat = np.asarray(sequence, dtype=np.float64).reshape(sequence.shape[0], -1)
    # The window axis lands last; put it before the features so a sample
    # flattens time-major.  One C-order copy each: the results own their
    # memory (the views alias ``sequence`` and are read-only).
    windows = np.lib.stride_tricks.sliding_window_view(flat, history, axis=0)
    X = np.array(windows[:n_samples].transpose(0, 2, 1), order="C")
    return X.reshape(n_samples, -1), np.array(flat[history + horizon - 1 :], order="C")
