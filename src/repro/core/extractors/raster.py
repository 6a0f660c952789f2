"""Raster extractors: flow, speed, transit (in/out flow)."""

from __future__ import annotations

from repro.core.extractors.base import CellAggExtractor, portion_speed_sum
from repro.geometry.base import Geometry
from repro.instances.event import Event
from repro.instances.trajectory import Trajectory
from repro.temporal.duration import Duration


class RasterFlowExtractor(CellAggExtractor):
    """Record count per raster cell.

    With events (e.g. air-quality records over road-segment cells) this is
    a straight count; trajectories count once per cell they were allocated
    to.
    """

    def local(self, values: list, spatial: Geometry, temporal: Duration) -> int:
        """Per-cell partial aggregate (see CellAggExtractor)."""
        return len(values)

    def merge(self, a: int, b: int) -> int:
        """Combine two per-cell partial aggregates (see CellAggExtractor)."""
        return a + b

    def agg_spec(self):
        """Columnar compilation (see CellAggExtractor)."""
        from repro.columnar.aggregate import CountSpec

        return CountSpec()


class RasterSpeedExtractor(CellAggExtractor):
    """Vehicles appearing + their mean in-cell speed, per raster cell.

    This is the extractor of the paper's running example (Section 3.4) and
    of the Figure 9 case study: the feature of each (district, hour) cell
    is ``(vehicle_count, average_speed)`` where each vehicle contributes
    the average speed of its sub-trajectory inside the cell's duration.
    """

    def __init__(self, unit: str = "kmh"):
        if unit not in ("kmh", "ms"):
            raise ValueError("unit must be 'kmh' or 'ms'")
        self.unit = unit

    def local(
        self, values: list, spatial: Geometry, temporal: Duration
    ) -> tuple[int, float, int]:
        """Per-cell partial aggregate (see CellAggExtractor)."""
        error = "RasterSpeedExtractor expects trajectory cell arrays"
        total, count = portion_speed_sum(values, temporal, self.unit, error)
        return (len(values), total, count)

    def merge(self, a: tuple, b: tuple) -> tuple:
        """Combine two per-cell partial aggregates (see CellAggExtractor)."""
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2])

    def finalize(self, partial: tuple) -> tuple[int, float | None]:
        """Partial aggregate to final feature (see CellAggExtractor)."""
        vehicles, speed_sum, speed_count = partial
        avg = speed_sum / speed_count if speed_count else None
        return (vehicles, avg)

    def agg_spec(self):
        """Columnar compilation (see CellAggExtractor)."""
        from repro.columnar.aggregate import PortionSpeedSpec

        return PortionSpeedSpec(
            self.unit,
            "RasterSpeedExtractor expects trajectory cell arrays",
            count_vehicles=True,
        )


class RasterTransitExtractor(CellAggExtractor):
    """In/out flow per raster cell — the transition feature of Table 7.

    For each trajectory allocated to a cell, inspect where it was at the
    cell's temporal boundaries: a vehicle whose first in-cell point is
    *after* the trajectory start entered the cell (in-flow); one whose
    last in-cell point is *before* the trajectory end left it (out-flow).
    """

    def local(
        self, values: list, spatial: Geometry, temporal: Duration
    ) -> tuple[int, int]:
        """Per-cell partial aggregate (see CellAggExtractor)."""
        inflow = 0
        outflow = 0
        for inst in values:
            if isinstance(inst, Event):
                # Events carry no motion; they contribute to neither flow.
                continue
            if not isinstance(inst, Trajectory):
                raise TypeError("RasterTransitExtractor expects trajectory arrays")
            inside_times = [
                e.temporal.start
                for e in inst.entries
                if temporal.intersects(e.temporal) and spatial.intersects(e.spatial)
            ]
            if not inside_times:
                continue
            first_in = min(inside_times)
            last_in = max(inside_times)
            if first_in > inst.entries[0].temporal.start:
                inflow += 1
            if last_in < inst.entries[-1].temporal.start:
                outflow += 1
        return (inflow, outflow)

    def merge(self, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        """Combine two per-cell partial aggregates (see CellAggExtractor)."""
        return (a[0] + b[0], a[1] + b[1])

    def agg_spec(self):
        """Columnar compilation (see CellAggExtractor)."""
        from repro.columnar.aggregate import TransitSpec

        return TransitSpec("RasterTransitExtractor expects trajectory arrays")
