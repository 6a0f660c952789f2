"""Collective structure descriptors.

A *structure* is the empty shell a singular→collective conversion
allocates instances into: a list of time slots, spatial cells, or
(geometry, duration) raster cells.  The descriptor knows

* how to enumerate candidate cells for an instance's ST MBR — via the
  regular-grid arithmetic shortcut when the structure is regular, or via
  a packed R-tree over its cells otherwise (both from Section 4.2), with
  a naive full-scan mode retained as the benchmark baseline;
* how to materialize an empty collective instance for an executor to fill.

Structures are immutable and cheap to broadcast, matching the paper's
design choice of shipping the (empty) structure to every executor rather
than shuffling the data to structure-owning executors.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Sequence

import numpy as np

from repro.columnar.packed_rtree import PackedRTree
from repro.geometry.base import Geometry
from repro.geometry.envelope import Envelope
from repro.index.boxes import STBox
from repro.index.grid import GridIndex
from repro.instances.raster import Raster
from repro.instances.spatialmap import SpatialMap
from repro.instances.timeseries import TimeSeries
from repro.temporal.duration import Duration
from repro.temporal.windows import tumbling_windows


class Structure(ABC):
    """Common candidate-cell interface for the three collective shapes."""

    #: Which of the (x, y, t) axes the cell boxes span, in ``cell_box`` order.
    _axes: tuple[int, ...] = ()

    def __init__(self) -> None:
        # Built lazily: the cells' ST box columns, their projection onto
        # this structure's dimensions and a packed R-tree over that (all
        # picklable, so a structure broadcast after prebuilding ships them
        # to every executor).
        self._packed: PackedRTree | None = None
        self._cell_arrays = None
        self._st_boxes = None

    @property
    @abstractmethod
    def n_cells(self) -> int:
        """Number of cells."""

    @property
    @abstractmethod
    def is_regular(self) -> bool:
        """True when cells are equal-sized and densely tile the extent."""

    @abstractmethod
    def cell_box(self, cell: int) -> STBox:
        """The index box of one cell (1-d, 2-d, or 3-d by structure kind)."""

    @abstractmethod
    def query_box(self, spatial: Envelope, temporal: Duration) -> STBox:
        """Project an instance's ST MBR onto this structure's dimensions."""

    @abstractmethod
    def empty_instance(self, value_factory: Callable[[], list] = list):
        """An empty collective instance over this structure's cells."""

    def instance_of(self, values: Sequence):
        """A collective instance over this structure's cells with
        ``values[i]`` in cell ``i`` — every cell entry is built once."""
        if len(values) != self.n_cells:
            raise ValueError("value count must match cell count")
        # ``empty_instance`` calls its factory once per cell, in cell order.
        return self.empty_instance(iter(values).__next__)

    @abstractmethod
    def _regular_candidates(self, box: STBox) -> list[int]:
        """Grid-arithmetic candidates; only valid when ``is_regular``."""

    @abstractmethod
    def _cell_parts(self) -> tuple[list[Geometry] | None, list[Duration] | None]:
        """Per-cell ``(geometries, durations)``; ``None`` for the dimension
        this structure ignores."""

    # -- candidate enumeration ---------------------------------------------------

    def _cell_st_boxes(self):
        """Lazily built ``(boxes, is_box)`` columns over the cells, id order.

        ``boxes`` is the ``(6, n_cells)`` array ``(x0, y0, t0, x1, y1, t1)``
        of every cell's MBR, ±inf on a dimension the structure ignores;
        ``is_box[i]`` says cell ``i`` *is* that box (it has no geometry or
        an :class:`Envelope`), so the array kernels can decide it exactly.
        """
        if self._st_boxes is None:
            geoms, durs = self._cell_parts()
            boxes = np.empty((6, self.n_cells), dtype=np.float64)
            boxes[:3] = -np.inf
            boxes[3:] = np.inf
            is_box = np.ones(self.n_cells, dtype=bool)
            if geoms is not None:
                envs = [g.envelope for g in geoms]
                boxes[[0, 1, 3, 4]] = np.array(
                    [(e.min_x, e.min_y, e.max_x, e.max_y) for e in envs]
                ).T
                is_box = np.array([isinstance(g, Envelope) for g in geoms])
            if durs is not None:
                boxes[[2, 5]] = np.array([(d.start, d.end) for d in durs]).T
            self._st_boxes = (boxes, is_box)
        return self._st_boxes

    def _cell_box_arrays(self):
        """Lazily built ``(mins, maxs)`` arrays of every cell box, id order."""
        if self._cell_arrays is None:
            boxes, _ = self._cell_st_boxes()
            axes = list(self._axes)
            self._cell_arrays = (
                np.ascontiguousarray(boxes[axes].T),
                np.ascontiguousarray(boxes[[a + 3 for a in axes]].T),
            )
        return self._cell_arrays

    def packed_rtree(self) -> PackedRTree:
        """Lazily built packed R-tree over the structure cells (Section 4.2).

        Queried with array kernels and returning cell ids directly (rows
        coincide with cell ids by construction).
        """
        if self._packed is None:
            self._packed = PackedRTree(*self._cell_box_arrays())
        return self._packed

    def _batch_query_arrays(self, x0, y0, t0, x1, y1, t1):
        """Per-instance query boxes as (mins, maxs) arrays, cell-box order.

        The vectorized counterpart of :meth:`query_box` over extent columns
        (projects onto this structure's dimensions, in the order
        :meth:`cell_box` uses).
        """
        raise NotImplementedError

    def _batch_grid_arrays(self, x0, y0, t0, x1, y1, t1):
        """Like :meth:`_batch_query_arrays` but in ``_grid`` dimension order
        (the regular structures swap x/y; see their ``regular()`` docs)."""
        raise NotImplementedError

    def candidate_cells(
        self,
        spatial: Envelope,
        temporal: Duration,
        method: str = "auto",
    ) -> list[int]:
        """Cells whose boxes intersect the instance MBR.

        ``method``:

        * ``"naive"`` — scan every cell (the Cartesian baseline of Fig. 6);
        * ``"rtree"`` — query the broadcast packed R-tree over cells;
        * ``"regular"`` — the arithmetic shortcut (regular structures only);
        * ``"auto"`` — regular shortcut when available, else R-tree.
        """
        box = self.query_box(spatial, temporal)
        if method == "auto":
            method = "regular" if self.is_regular else "rtree"
        if method == "naive":
            return [
                i for i in range(self.n_cells) if self.cell_box(i).intersects(box)
            ]
        if method == "rtree":
            return self.packed_rtree().query_rows(box).tolist()
        if method == "regular":
            if not self.is_regular:
                raise ValueError("regular method requires a regular structure")
            return self._regular_candidates(box)
        raise ValueError(f"unknown allocation method {method!r}")


class TimeSeriesStructure(Structure):
    """A sequence of time slots (1-d)."""

    _axes = (2,)

    def __init__(self, slots: Sequence[Duration], _grid: GridIndex | None = None):
        super().__init__()
        if not slots:
            raise ValueError("a time-series structure needs at least one slot")
        self.slots = list(slots)
        self._grid = _grid

    @classmethod
    def regular(cls, extent: Duration, n_slots: int) -> "TimeSeriesStructure":
        """Dense equal-cell structure (enables the §4.2 shortcut)."""
        slots = extent.split(n_slots)
        grid = GridIndex(STBox.from_duration(extent), (n_slots,))
        return cls(slots, grid)

    @classmethod
    def of_interval(cls, extent: Duration, slot_seconds: float) -> "TimeSeriesStructure":
        """Regular slots of roughly ``slot_seconds`` each.

        The extent is divided into ``ceil(length / slot_seconds)`` *equal*
        slots, so the structure stays dense and regular (the §4.2 shortcut
        precondition).  When ``slot_seconds`` divides the extent exactly —
        the common case, e.g. hourly slots over whole days — each slot is
        exactly ``slot_seconds`` long.
        """
        slots = tumbling_windows(extent, slot_seconds)
        return cls.regular(extent, len(slots)) if slots else cls(slots)

    @property
    def n_cells(self) -> int:
        """Number of structure cells."""
        return len(self.slots)

    @property
    def is_regular(self) -> bool:
        """True when cells are equal-sized and densely tiling."""
        return self._grid is not None

    def cell_box(self, cell: int) -> STBox:
        """The index box of one cell."""
        return STBox.from_duration(self.slots[cell])

    def query_box(self, spatial: Envelope, temporal: Duration) -> STBox:
        """Project an instance MBR onto this structure's dimensions."""
        return STBox.from_duration(temporal)

    def _cell_parts(self):
        return None, self.slots

    def _regular_candidates(self, box: STBox) -> list[int]:
        return self._grid.candidate_cells(box)

    def _batch_query_arrays(self, x0, y0, t0, x1, y1, t1):
        return t0.reshape(-1, 1), t1.reshape(-1, 1)

    def _batch_grid_arrays(self, x0, y0, t0, x1, y1, t1):
        return t0.reshape(-1, 1), t1.reshape(-1, 1)

    def empty_instance(self, value_factory: Callable[[], list] = list) -> TimeSeries:
        """An empty collective instance over these cells."""
        return TimeSeries.of_slots(self.slots, value_factory)


class SpatialMapStructure(Structure):
    """A set of spatial cells (2-d)."""

    _axes = (0, 1)

    def __init__(self, geometries: Sequence[Geometry], _grid: GridIndex | None = None):
        super().__init__()
        if not geometries:
            raise ValueError("a spatial-map structure needs at least one cell")
        self.geometries = list(geometries)
        self._grid = _grid

    @classmethod
    def regular(cls, extent: Envelope, nx: int, ny: int) -> "SpatialMapStructure":
        """Dense equal-cell structure (enables the §4.2 shortcut)."""
        cells = extent.split(nx, ny)
        # Envelope.split is row-major (y-outer, x-inner); GridIndex flattens
        # C-order (last dim fastest), so declare dims as (y, x).
        grid = GridIndex(
            STBox((extent.min_y, extent.min_x), (extent.max_y, extent.max_x)),
            (ny, nx),
        )
        return cls(cells, grid)

    @property
    def n_cells(self) -> int:
        """Number of structure cells."""
        return len(self.geometries)

    @property
    def is_regular(self) -> bool:
        """True when cells are equal-sized and densely tiling."""
        return self._grid is not None

    def cell_box(self, cell: int) -> STBox:
        """The index box of one cell."""
        return STBox.from_envelope(self.geometries[cell].envelope)

    def query_box(self, spatial: Envelope, temporal: Duration) -> STBox:
        """Project an instance MBR onto this structure's dimensions."""
        return STBox.from_envelope(spatial)

    def _cell_parts(self):
        return self.geometries, None

    def _regular_candidates(self, box: STBox) -> list[int]:
        # Swap (x, y) -> (y, x) to match the grid's dimension order.
        swapped = STBox((box.mins[1], box.mins[0]), (box.maxs[1], box.maxs[0]))
        return self._grid.candidate_cells(swapped)

    def _batch_query_arrays(self, x0, y0, t0, x1, y1, t1):
        return np.stack((x0, y0), axis=1), np.stack((x1, y1), axis=1)

    def _batch_grid_arrays(self, x0, y0, t0, x1, y1, t1):
        # Same (y, x) swap as _regular_candidates.
        return np.stack((y0, x0), axis=1), np.stack((y1, x1), axis=1)

    def exact_cells(
        self, geometry: Geometry, candidates: Sequence[int]
    ) -> list[int]:
        """Refine MBR candidates with exact geometry intersection."""
        return [i for i in candidates if self.geometries[i].intersects(geometry)]

    def empty_instance(self, value_factory: Callable[[], list] = list) -> SpatialMap:
        """An empty collective instance over these cells."""
        return SpatialMap.of_geometries(self.geometries, value_factory)


class RasterStructure(Structure):
    """A set of (geometry, duration) cells (3-d)."""

    _axes = (0, 1, 2)

    def __init__(
        self,
        cells: Sequence[tuple[Geometry, Duration]],
        _grid: GridIndex | None = None,
    ):
        super().__init__()
        if not cells:
            raise ValueError("a raster structure needs at least one cell")
        self.cells = list(cells)
        self._grid = _grid

    @classmethod
    def regular(
        cls,
        extent: Envelope,
        duration: Duration,
        nx: int,
        ny: int,
        nt: int,
    ) -> "RasterStructure":
        """Dense equal-cell structure (enables the §4.2 shortcut)."""
        spatial_cells = extent.split(nx, ny)
        slots = duration.split(nt)
        cells = [(g, d) for g in spatial_cells for d in slots]
        # Cell order: spatial row-major (y-outer, x-inner) then time inner —
        # so grid dims are (y, x, t) in C-order.
        grid = GridIndex(
            STBox(
                (extent.min_y, extent.min_x, duration.start),
                (extent.max_y, extent.max_x, duration.end),
            ),
            (ny, nx, nt),
        )
        return cls(cells, grid)

    @classmethod
    def of_product(
        cls,
        geometries: Sequence[Geometry],
        durations: Sequence[Duration],
    ) -> "RasterStructure":
        """Irregular raster from explicit spatial cells × temporal slots."""
        return cls([(g, d) for g in geometries for d in durations])

    @classmethod
    def from_road_network(
        cls,
        network,
        durations: Sequence[Duration],
        buffer_degrees: float = 0.0,
    ) -> "RasterStructure":
        """Raster of (road segment × time slot) cells.

        The spatial cell of each segment is its linestring, or its
        envelope expanded by ``buffer_degrees`` when a catchment area is
        wanted (e.g. air-quality stations near but not on the road).  This
        is the structure of the paper's road-network applications (air
        over road, Table 9's flow raster).
        """
        cells = []
        for seg in network.segments:
            shape = seg.linestring()
            geom: Geometry = (
                shape.envelope.expanded(buffer_degrees) if buffer_degrees > 0 else shape
            )
            cells.append(geom)
        return cls.of_product(cells, durations)

    @property
    def n_cells(self) -> int:
        """Number of structure cells."""
        return len(self.cells)

    @property
    def is_regular(self) -> bool:
        """True when cells are equal-sized and densely tiling."""
        return self._grid is not None

    def cell_box(self, cell: int) -> STBox:
        """The index box of one cell."""
        geom, dur = self.cells[cell]
        env = geom.envelope
        return STBox(
            (env.min_x, env.min_y, dur.start), (env.max_x, env.max_y, dur.end)
        )

    def query_box(self, spatial: Envelope, temporal: Duration) -> STBox:
        """Project an instance MBR onto this structure's dimensions."""
        return STBox.from_st(spatial, temporal)

    def _cell_parts(self):
        return [g for g, _ in self.cells], [d for _, d in self.cells]

    def _regular_candidates(self, box: STBox) -> list[int]:
        swapped = STBox(
            (box.mins[1], box.mins[0], box.mins[2]),
            (box.maxs[1], box.maxs[0], box.maxs[2]),
        )
        return self._grid.candidate_cells(swapped)

    def _batch_query_arrays(self, x0, y0, t0, x1, y1, t1):
        return np.stack((x0, y0, t0), axis=1), np.stack((x1, y1, t1), axis=1)

    def _batch_grid_arrays(self, x0, y0, t0, x1, y1, t1):
        # Same (y, x, t) swap as _regular_candidates.
        return np.stack((y0, x0, t0), axis=1), np.stack((y1, x1, t1), axis=1)

    def exact_cells(
        self, geometry: Geometry, duration: Duration, candidates: Sequence[int]
    ) -> list[int]:
        """Refine MBR candidates with exact geometry + duration tests."""
        out = []
        for i in candidates:
            cell_geom, cell_dur = self.cells[i]
            if cell_dur.intersects(duration) and cell_geom.intersects(geometry):
                out.append(i)
        return out

    def empty_instance(self, value_factory: Callable[[], list] = list) -> Raster:
        """An empty collective instance over these cells."""
        return Raster.of_cells(self.cells, value_factory)
