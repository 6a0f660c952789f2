"""Keyed-STR partitioner — the paper's T-STR generalization.

Section 4.1: "Such an idea can be extended with more dimensions according
to the application needs.  Any 1-d attribute of the ST data (e.g., the ID
and the vehicle type) can be included for partitioning."

:class:`KeyedSTRPartitioner` partitions first by the quantiles of an
arbitrary numeric 1-d key (temporal center, vehicle id hash, sampling
rate, …) and then spatially with 2-d STR inside each key slice —
:class:`~repro.partitioners.TSTRPartitioner` is exactly this with
``key_func = temporal center``, and is built on it.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.columnar.boxtable import BoxTable
from repro.index.boxes import STBox
from repro.instances.base import Instance
from repro.partitioners.base import STPartitioner, UNBOUNDED, as_table, fit_table
from repro.partitioners.tiling import (
    Str2D,
    bucket_of,
    bucket_of_batch,
    equal_count_cuts,
)


class KeyedSTRPartitioner(STPartitioner):
    """Quantile slices of a custom 1-d key, then 2-d STR per slice.

    Parameters
    ----------
    key_func:
        Maps an instance to a numeric key.  Must be deterministic — the
        same function routes records during the shuffle.
    gk:
        Number of key slices.
    gs:
        Spatial cells per slice.
    """

    def __init__(self, key_func: Callable[[Instance], float], gk: int, gs: int):
        super().__init__()
        if gk < 1 or gs < 1:
            raise ValueError("granularities must be positive")
        self.key_func = key_func
        self.gk = gk
        self.gs = gs
        self._cuts: list[float] | None = None
        self._tilings: list[Str2D] | None = None
        self._offsets: list[int] | None = None

    def _keys(self, table: BoxTable):
        """One key per row of ``table``."""
        return np.asarray([self.key_func(inst) for inst in table.rows], dtype=np.float64)

    def _key_interval(self, key_slice: int) -> tuple[float, float]:
        """The temporal extent of a key slice's boxes: the key is not an ST
        axis, so unbounded."""
        return (-UNBOUNDED, UNBOUNDED)

    def fit(self, sample: BoxTable | Sequence[Instance]) -> None:
        """Learn partition boundaries from a sample (see STPartitioner)."""
        table = fit_table(sample)
        xs, ys, _ = table.centers()
        keys = self._keys(table)
        self._cuts = equal_count_cuts(keys, self.gk)
        key_slices = bucket_of_batch(self._cuts, keys)
        self._tilings = []
        self._offsets = [0]
        for key_slice in range(len(self._cuts) + 1):
            mask = key_slices == key_slice
            if mask.any():
                tiling = Str2D(xs[mask], ys[mask], self.gs)
            else:
                # Degenerate slice (duplicated cuts — all sample keys equal): one cell.
                tiling = Str2D([0.0], [0.0], 1)
            self._tilings.append(tiling)
            self._offsets.append(self._offsets[-1] + tiling.cell_count)
        self._fitted = True

    @property
    def num_partitions(self) -> int:
        """Partition count; valid after fit()."""
        self._require_fitted()
        return self._offsets[-1]

    def assign(self, instance: Instance) -> int:
        """Partition id for an instance (see STPartitioner)."""
        self._require_fitted()
        key_slice = bucket_of(self._cuts, float(self.key_func(instance)))
        center = instance.spatial_extent.centroid()
        return self._offsets[key_slice] + self._tilings[key_slice].cell_of(
            center.x, center.y
        )

    def assign_batch(self, instances: BoxTable | Sequence[Instance]) -> list[int]:
        """Vectorized :meth:`assign` (see STPartitioner for the contract).

        Each row's key slice and spatial cell come from searchsorted kernels
        over the key and centre columns — the same arithmetic as
        :meth:`assign`, so the two agree on every input including
        cut-sitting keys and centers.
        """
        self._require_fitted()
        table = as_table(instances)
        xs, ys, _ = table.centers()
        key_slices = bucket_of_batch(self._cuts, self._keys(table))
        pids = np.empty(len(table), dtype=np.int64)
        for key_slice in np.unique(key_slices):
            mask = key_slices == key_slice
            cells = self._tilings[key_slice].cells_of_batch(xs[mask], ys[mask])
            pids[mask] = self._offsets[key_slice] + cells
        return pids.tolist()

    def assign_all(self, instance: Instance) -> list[int]:
        # A scalar key places the instance in exactly one key slice; only
        # the spatial dimension can straddle boundaries.
        """All partitions overlapping the instance MBR (see STPartitioner)."""
        self._require_fitted()
        key_slice = bucket_of(self._cuts, float(self.key_func(instance)))
        base = self._offsets[key_slice]
        return sorted(
            base + cell
            for cell in self._tilings[key_slice].cells_overlapping(
                instance.spatial_extent
            )
        )

    def boundaries(self) -> list[STBox]:
        """One ST box per partition: the spatial cell × the slice's temporal
        extent (see :meth:`_key_interval`)."""
        self._require_fitted()
        boxes = []
        for key_slice, tiling in enumerate(self._tilings):
            t_lo, t_hi = self._key_interval(key_slice)
            for cell in range(tiling.cell_count):
                env = tiling.cell_envelope(cell)
                boxes.append(
                    STBox(
                        (env.min_x, env.min_y, t_lo),
                        (env.max_x, env.max_y, t_hi),
                    )
                )
        return boxes
