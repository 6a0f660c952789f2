"""Directed road network with segment geometry and shortest paths."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from repro.columnar.packed_rtree import PackedRTree, packed_tree_from_boxes
from repro.geometry.distance import (
    METERS_PER_DEGREE_LAT,
    haversine_distance,
    meters_per_degree_lon,
    project_point_to_segment,
)
from repro.geometry.linestring import LineString
from repro.index.boxes import STBox


@dataclass(frozen=True)
class RoadSegment:
    """One directed road segment between two junction nodes.

    ``segment_id`` is stable and unique; geometry is the straight line
    between the endpoint coordinates (polyline segments can be modeled as
    chains of RoadSegments).
    """

    segment_id: int
    from_node: int
    to_node: int
    from_lon: float
    from_lat: float
    to_lon: float
    to_lat: float

    @property
    def length_meters(self) -> float:
        """Great-circle length in meters."""
        return haversine_distance(self.from_lon, self.from_lat, self.to_lon, self.to_lat)

    def linestring(self) -> LineString:
        """The segment as a LineString."""
        return LineString([(self.from_lon, self.from_lat), (self.to_lon, self.to_lat)])

    def project(self, lon: float, lat: float) -> tuple[float, float, float, float]:
        """Snap a point onto the segment.

        Returns ``(snap_lon, snap_lat, distance_meters, fraction)`` where
        ``fraction`` is the relative position along the segment.  The
        projection is computed in a locally-scaled planar frame so the
        meters distance is faithful at city scale.
        """
        scale_x = meters_per_degree_lon(lat)
        scale_y = METERS_PER_DEGREE_LAT
        qx, qy, t = project_point_to_segment(
            lon * scale_x,
            lat * scale_y,
            self.from_lon * scale_x,
            self.from_lat * scale_y,
            self.to_lon * scale_x,
            self.to_lat * scale_y,
        )
        snap_lon = qx / scale_x
        snap_lat = qy / scale_y
        dist = math.hypot(lon * scale_x - qx, lat * scale_y - qy)
        return (snap_lon, snap_lat, dist, t)


class RoadNetwork:
    """A directed road graph with an R-tree over segments.

    Construction from explicit segments or via :meth:`grid` (a synthetic
    Manhattan-style grid used by the Hangzhou case-study substitute).
    """

    def __init__(self, segments: list[RoadSegment]):
        if not segments:
            raise ValueError("a road network needs at least one segment")
        self.segments = list(segments)
        self._by_id = {s.segment_id: s for s in self.segments}
        if len(self._by_id) != len(self.segments):
            raise ValueError("duplicate segment ids")
        self._adjacency: dict[int, list[tuple[int, float, int]]] = {}
        for s in self.segments:
            self._adjacency.setdefault(s.from_node, []).append(
                (s.to_node, s.length_meters, s.segment_id)
            )
        self._rtree: PackedRTree | None = None

    # -- construction helpers -----------------------------------------------------

    @classmethod
    def grid(
        cls,
        min_lon: float,
        min_lat: float,
        n_rows: int,
        n_cols: int,
        spacing_degrees: float = 0.005,
        bidirectional: bool = True,
    ) -> "RoadNetwork":
        """A rectangular grid network of ``n_rows x n_cols`` junctions."""
        if n_rows < 2 or n_cols < 2:
            raise ValueError("grid needs at least 2x2 junctions")

        def node_id(r: int, c: int) -> int:
            return r * n_cols + c

        def node_pos(r: int, c: int) -> tuple[float, float]:
            return (min_lon + c * spacing_degrees, min_lat + r * spacing_degrees)

        segments = []
        seg_id = 0
        for r in range(n_rows):
            for c in range(n_cols):
                lon, lat = node_pos(r, c)
                neighbors = []
                if c + 1 < n_cols:
                    neighbors.append((r, c + 1))
                if r + 1 < n_rows:
                    neighbors.append((r + 1, c))
                for nr, nc in neighbors:
                    nlon, nlat = node_pos(nr, nc)
                    segments.append(
                        RoadSegment(seg_id, node_id(r, c), node_id(nr, nc), lon, lat, nlon, nlat)
                    )
                    seg_id += 1
                    if bidirectional:
                        segments.append(
                            RoadSegment(seg_id, node_id(nr, nc), node_id(r, c), nlon, nlat, lon, lat)
                        )
                        seg_id += 1
        return cls(segments)

    # -- lookup ----------------------------------------------------------------------

    def segment(self, segment_id: int) -> RoadSegment:
        """Look a segment up by id."""
        return self._by_id[segment_id]

    @property
    def n_segments(self) -> int:
        """Number of directed segments."""
        return len(self.segments)

    def rtree(self) -> PackedRTree:
        """Lazily built 2-d R-tree over segment MBRs, rows indexing
        ``segments`` (broadcast by the map-matching conversion so it is
        built exactly once)."""
        if self._rtree is None:
            boxes = []
            for s in self.segments:
                env = s.linestring().envelope
                boxes.append(STBox((env.min_x, env.min_y), (env.max_x, env.max_y)))
            self._rtree = packed_tree_from_boxes(boxes)
        return self._rtree

    def candidate_segments(
        self, lon: float, lat: float, radius_meters: float, max_candidates: int = 8
    ) -> list[tuple[int, float]]:
        """Segments within ``radius_meters`` of a point, nearest first.

        Shortlisted with the R-tree (a box of the radius around the point),
        then exact-projected; capped at ``max_candidates``.
        """
        deg_x = radius_meters / max(1e-9, meters_per_degree_lon(lat))
        deg_y = radius_meters / METERS_PER_DEGREE_LAT
        box = STBox((lon - deg_x, lat - deg_y), (lon + deg_x, lat + deg_y))
        hits = []
        for row in self.rtree().query_rows(box).tolist():
            segment = self.segments[row]
            _, _, dist, _ = segment.project(lon, lat)
            if dist <= radius_meters:
                hits.append((segment.segment_id, dist))
        hits.sort(key=lambda h: (h[1], h[0]))
        return hits[:max_candidates]

    # -- routing -----------------------------------------------------------------------

    def shortest_path_meters(self, from_node: int, to_node: int, cutoff_meters: float = math.inf) -> float:
        """Dijkstra distance between junctions; ``inf`` when unreachable
        or beyond ``cutoff_meters`` (the HMM transition uses a cutoff so
        unreachable candidate pairs prune early)."""
        if from_node == to_node:
            return 0.0
        dist = {from_node: 0.0}
        heap = [(0.0, from_node)]
        while heap:
            d, node = heapq.heappop(heap)
            if node == to_node:
                return d
            if d > dist.get(node, math.inf) or d > cutoff_meters:
                continue
            for neighbor, weight, _ in self._adjacency.get(node, ()):
                nd = d + weight
                if nd < dist.get(neighbor, math.inf) and nd <= cutoff_meters:
                    dist[neighbor] = nd
                    heapq.heappush(heap, (nd, neighbor))
        return math.inf

    def route_distance_meters(
        self,
        from_segment: int,
        from_fraction: float,
        to_segment: int,
        to_fraction: float,
        cutoff_meters: float = math.inf,
    ) -> float:
        """On-network driving distance between two snapped positions."""
        seg_a = self._by_id[from_segment]
        seg_b = self._by_id[to_segment]
        if from_segment == to_segment:
            return abs(to_fraction - from_fraction) * seg_a.length_meters
        remaining = (1.0 - from_fraction) * seg_a.length_meters
        lead_in = to_fraction * seg_b.length_meters
        between = self.shortest_path_meters(
            seg_a.to_node, seg_b.from_node, cutoff_meters
        )
        return remaining + between + lead_in
