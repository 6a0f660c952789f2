"""The six singular→collective converters.

Each is a thin, explicitly-named subclass of
:class:`~repro.core.converters.base.ToCollectiveConverter`, matching the
paper's API surface (``Event2SmConverter(polygonArr)`` etc.): it names its
structure kind, and the shared constructor ``(cells_or_structure,
method="auto")`` accepts either a ready structure of that kind or the
plain cell sequence to build one from (slots, geometries, or
``(geometry, duration)`` pairs).
"""

from __future__ import annotations

from repro.core.converters.base import ToCollectiveConverter
from repro.core.structures import (
    RasterStructure,
    SpatialMapStructure,
    TimeSeriesStructure,
)


class Event2TsConverter(ToCollectiveConverter):
    """Events → time series (e.g. hourly flow extraction)."""

    structure_type = TimeSeriesStructure


class Event2SmConverter(ToCollectiveConverter):
    """Events → spatial map (e.g. POI counts per postal area)."""

    structure_type = SpatialMapStructure


class Event2RasterConverter(ToCollectiveConverter):
    """Events → raster (e.g. air quality over road segments per day)."""

    structure_type = RasterStructure


class Traj2TsConverter(ToCollectiveConverter):
    """Trajectories → time series."""

    structure_type = TimeSeriesStructure


class Traj2SmConverter(ToCollectiveConverter):
    """Trajectories → spatial map (e.g. grid speed extraction)."""

    structure_type = SpatialMapStructure


class Traj2RasterConverter(ToCollectiveConverter):
    """Trajectories → raster (the running example of Section 3.4)."""

    structure_type = RasterStructure
