"""Time-series extractors: flow, speed, windowed frequency."""

from __future__ import annotations

from typing import Any

from repro.core.extractors.base import CellAggExtractor, portion_speed_sum
from repro.engine.rdd import RDD
from repro.geometry.base import Geometry
from repro.instances.timeseries import TimeSeries
from repro.temporal.duration import Duration


class TsFlowExtractor(CellAggExtractor):
    """Record count per time slot — the paper's hourly-flow application.

    Input: RDD of partial time series whose cell values are arrays of
    allocated singular instances.  Output: a time series of counts.
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


class TsSpeedExtractor(CellAggExtractor):
    """Mean trajectory speed per time slot (periodical speed feature).

    Each allocated trajectory contributes the average speed of its portion
    inside the slot; empty slots yield ``None``.
    """

    def __init__(self, unit: str = "kmh"):
        if unit not in ("kmh", "ms"):
            raise ValueError("unit must be 'kmh' or 'ms'")
        self.unit = unit

    def local(
        self, values: list, spatial: Geometry, temporal: Duration
    ) -> tuple[float, int]:
        """Per-cell partial aggregate (see CellAggExtractor)."""
        error = "TsSpeedExtractor expects trajectory cell arrays"
        return portion_speed_sum(values, temporal, self.unit, error)

    def merge(self, a: tuple[float, int], b: tuple[float, int]) -> tuple[float, int]:
        """Combine two per-cell partial aggregates (see CellAggExtractor)."""
        return (a[0] + b[0], a[1] + b[1])

    def finalize(self, partial: tuple[float, int]) -> float | None:
        """Partial aggregate to final feature (see CellAggExtractor)."""
        total, count = partial
        return total / count if count else None

    def agg_spec(self):
        """Columnar compilation (see CellAggExtractor)."""
        from repro.columnar.aggregate import PortionSpeedSpec

        return PortionSpeedSpec(
            self.unit, "TsSpeedExtractor expects trajectory cell arrays"
        )


class TsWindowFreqExtractor:
    """Sliding-window record frequency over an extracted flow series.

    Runs :class:`TsFlowExtractor` first, then a ``window_slots``-wide
    moving sum — the "window frequency" feature of Table 3.
    """

    def __init__(self, window_slots: int = 3):
        if window_slots < 1:
            raise ValueError("window must span at least one slot")
        self.window_slots = window_slots

    def extract(self, rdd: RDD) -> TimeSeries:
        """Run this extraction on the RDD (see class docstring)."""
        flow = TsFlowExtractor().extract(rdd)
        counts = flow.cell_values()
        w = self.window_slots
        windowed: list[Any] = []
        for i in range(len(counts)):
            lo = max(0, i - w + 1)
            windowed.append(sum(counts[lo : i + 1]))
        return flow.with_cell_values(windowed)
