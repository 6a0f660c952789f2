"""Record codecs and CSV helpers.

Instances are persisted as plain tuples (the "ST4ML-compatible data
standard" the preprocessing step of Section 3.1 converts raw datasets
into).  Tuples pickle an order of magnitude smaller and faster than the
object graphs, which is this layer's stand-in for Parquet's columnar
compactness.
"""

from __future__ import annotations

import csv
from pathlib import Path

from repro.geometry.envelope import Envelope
from repro.geometry.linestring import LineString
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.instances.base import Entry, Instance
from repro.instances.event import Event
from repro.instances.trajectory import Trajectory
from repro.temporal.duration import Duration

#: Record type tags in on-disk tuples.
_EVENT = "E"
_TRAJ = "T"


def _encode_geometry(geom) -> tuple:
    if isinstance(geom, Point):
        return ("pt", geom.x, geom.y)
    if isinstance(geom, Envelope):
        return ("env", geom.min_x, geom.min_y, geom.max_x, geom.max_y)
    if isinstance(geom, LineString):
        return ("ls", geom.coords)
    if isinstance(geom, Polygon):
        return ("pg", geom.ring)
    raise TypeError(f"cannot encode geometry type {type(geom).__name__}")


def _decode_geometry(data: tuple):
    tag = data[0]
    if tag == "pt":
        return Point(data[1], data[2])
    if tag == "env":
        return Envelope(data[1], data[2], data[3], data[4])
    if tag == "ls":
        return LineString(data[1])
    if tag == "pg":
        return Polygon(data[1])
    raise ValueError(f"unknown geometry tag {tag!r}")


def encode_record(instance: Instance) -> tuple:
    """Flatten an Event or Trajectory into a plain on-disk tuple."""
    if isinstance(instance, Event):
        e = instance.entry
        return (
            _EVENT,
            _encode_geometry(e.spatial),
            e.temporal.start,
            e.temporal.end,
            e.value,
            instance.data,
        )
    if isinstance(instance, Trajectory):
        # A point's end is stored only where it is not its start, so
        # instant-only trajectories keep the 4-field points of every release.
        points = tuple(
            (e.spatial.x, e.spatial.y, t.start, e.value)
            if (t := e.temporal).end == t.start
            else (e.spatial.x, e.spatial.y, t.start, e.value, t.end)
            for e in instance.entries
        )
        return (_TRAJ, points, instance.data)
    raise TypeError(
        f"on-disk format supports singular instances, got {type(instance).__name__}"
    )


def decode_record(record: tuple) -> Instance:
    """Inverse of :func:`encode_record`."""
    tag = record[0]
    if tag == _EVENT:
        _, geom, start, end, value, data = record
        return Event(_decode_geometry(geom), Duration(start, end), value, data)
    if tag == _TRAJ:
        _, points, data = record
        if all(len(p) <= 4 for p in points):
            return Trajectory.of_points(points, data)
        return Trajectory(
            [Entry(Point(p[0], p[1]), Duration(p[2], *p[4:]), p[3]) for p in points], data
        )
    raise ValueError(f"unknown record tag {tag!r}")


def instant_trajectory_points(records: list) -> tuple | None:
    """``(lengths, x, y, t)`` of encoded trajectories, their points flattened
    in row order — ``None`` unless every record is a trajectory of instants
    (the columns a fused scan reads without building a ``Trajectory``)."""
    if any(r[0] != _TRAJ for r in records):
        return None
    points = [p for r in records for p in r[1]]
    if set(map(len, points)) - {4}:
        return None  # a point stored with its interval end
    x, y, t, _ = zip(*points) if points else ((), (), (), ())
    return [len(r[1]) for r in records], x, y, t


# -- raster structure CSV (the ReadRaster helper of Section 3.4) ----------------


def read_raster_csv(path: str | Path) -> list[tuple[Polygon, Duration]]:
    """Read a raster structure file: rows of ``shape ; t_min ; t_max``.

    ``shape`` is a ``|``-separated list of ``x,y`` vertices (a polygon
    ring), mirroring the paper's per-line (shape, t_min, t_max) format.
    """
    cells = []
    with open(path, newline="") as f:
        reader = csv.reader(f, delimiter=";")
        for line_no, row in enumerate(reader, start=1):
            if not row or row[0].startswith("#"):
                continue
            if len(row) != 3:
                raise ValueError(
                    f"{path}:{line_no}: expected 'shape;t_min;t_max', got {row!r}"
                )
            ring = []
            for pair in row[0].split("|"):
                x_str, y_str = pair.split(",")
                ring.append((float(x_str), float(y_str)))
            cells.append((Polygon(ring), Duration(float(row[1]), float(row[2]))))
    if not cells:
        raise ValueError(f"raster file {path} has no cells")
    return cells


def write_raster_csv(path: str | Path, cells: list[tuple[Polygon, Duration]]) -> None:
    """Inverse of :func:`read_raster_csv`."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, delimiter=";")
        for polygon, duration in cells:
            shape = "|".join(f"{x},{y}" for x, y in polygon.ring)
            writer.writerow([shape, duration.start, duration.end])


def write_features_csv(path: str | Path, rows: list[dict], columns: list[str]) -> None:
    """Save extracted features as CSV — the pipeline's terminal step."""
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({c: row.get(c) for c in columns})
