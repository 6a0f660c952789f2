"""Road network and HMM map-matching tests."""

import math

import pytest

from repro.engine import EngineContext
from repro.instances import Event, Trajectory
from repro.mapmatching import (
    Event2EventConverter,
    HmmMapMatcher,
    RoadNetwork,
    RoadSegment,
    Traj2TrajMapMatchConverter,
)


@pytest.fixture
def grid():
    """8x8 junction grid near (116.0, 39.9), 0.005 deg (~500 m) spacing."""
    return RoadNetwork.grid(116.0, 39.9, 8, 8, spacing_degrees=0.005)


class TestRoadNetwork:
    def test_grid_segment_count(self, grid):
        # 8x8 grid: 7*8 horizontal + 8*7 vertical edges, bidirectional.
        assert grid.n_segments == 2 * (7 * 8 + 8 * 7)

    def test_grid_needs_two_by_two(self):
        with pytest.raises(ValueError):
            RoadNetwork.grid(0, 0, 1, 5)

    def test_duplicate_ids_rejected(self):
        seg = RoadSegment(0, 0, 1, 0, 0, 1, 0)
        with pytest.raises(ValueError):
            RoadNetwork([seg, seg])

    def test_segment_length(self):
        seg = RoadSegment(0, 0, 1, 0.0, 0.0, 0.0, 0.001)
        assert seg.length_meters == pytest.approx(111.2, rel=1e-2)

    def test_project_on_segment(self):
        seg = RoadSegment(0, 0, 1, 0.0, 0.0, 0.01, 0.0)
        lon, lat, dist, frac = seg.project(0.005, 0.0005)
        assert lon == pytest.approx(0.005, abs=1e-6)
        assert lat == 0.0
        assert frac == pytest.approx(0.5, abs=1e-3)
        assert dist == pytest.approx(55.6, rel=0.02)  # 0.0005 deg lat

    def test_project_clamps_to_endpoints(self):
        seg = RoadSegment(0, 0, 1, 0.0, 0.0, 0.01, 0.0)
        _, _, _, frac = seg.project(-0.5, 0.0)
        assert frac == 0.0

    def test_candidate_segments_radius(self, grid):
        hits = grid.candidate_segments(116.0025, 39.9, radius_meters=100)
        assert hits
        assert all(dist <= 100 for _, dist in hits)
        # Nearest first.
        assert hits == sorted(hits, key=lambda h: h[1])

    def test_candidate_segments_ties_break_on_segment_id(self):
        # Every segment meeting at a junction is equidistant (0 m) from it:
        # their order must be a function of the data, not of index layout.
        net = RoadNetwork.grid(120.0, 30.0, 6, 6)
        for r in range(6):
            for c in range(6):
                hits = net.candidate_segments(
                    120.0 + c * 0.005, 30.0 + r * 0.005, 50.0, max_candidates=16
                )
                assert len(hits) >= 4
                assert hits == sorted(hits, key=lambda h: (h[1], h[0]))

    def test_candidate_segments_empty_far_away(self, grid):
        assert grid.candidate_segments(120.0, 50.0, radius_meters=100) == []

    def test_shortest_path_adjacent(self, grid):
        seg = grid.segments[0]
        d = grid.shortest_path_meters(seg.from_node, seg.to_node)
        assert d == pytest.approx(seg.length_meters, rel=1e-9)

    def test_shortest_path_self(self, grid):
        assert grid.shortest_path_meters(3, 3) == 0.0

    def test_shortest_path_cutoff(self, grid):
        d = grid.shortest_path_meters(0, 63, cutoff_meters=10.0)
        assert math.isinf(d)

    def test_route_distance_same_segment(self, grid):
        seg = grid.segments[0]
        d = grid.route_distance_meters(seg.segment_id, 0.2, seg.segment_id, 0.7)
        assert d == pytest.approx(0.5 * seg.length_meters)

    def test_rtree_cached(self, grid):
        assert grid.rtree() is grid.rtree()


def road_trajectory(grid, row=2, n_points=10, noise=0.00005, seed=3):
    """A trajectory traveling east along a horizontal road with GPS noise."""
    import random

    rng = random.Random(seed)
    lat = 39.9 + row * 0.005
    points = []
    t = 0.0
    for i in range(n_points):
        lon = 116.0 + i * 0.0025
        points.append((lon + rng.gauss(0, noise), lat + rng.gauss(0, noise), t))
        t += 30.0
    return Trajectory.of_points(points, data="drive")


class TestHmmMapMatcher:
    def test_matches_all_points_on_road(self, grid):
        traj = road_trajectory(grid)
        matcher = HmmMapMatcher(grid, sigma_meters=15, search_radius_meters=120)
        matched = matcher.match(traj)
        assert len(matched) == len(traj.entries)

    def test_snapped_to_correct_road(self, grid):
        traj = road_trajectory(grid, row=2)
        matcher = HmmMapMatcher(grid, sigma_meters=15, search_radius_meters=120)
        matched = matcher.match(traj)
        target_lat = 39.9 + 2 * 0.005
        for m in matched:
            assert m.lat == pytest.approx(target_lat, abs=1e-4)
            assert m.snap_distance_meters < 30

    def test_viterbi_beats_greedy_nearest(self, grid):
        """A point nearer to a perpendicular road must still match the
        traveled road given the route context."""
        lat = 39.9 + 2 * 0.005
        # Points along the horizontal road, with one sample pulled toward
        # the vertical cross street (closer to it than to the true road).
        points = [
            (116.0 + 0.0002, lat + 0.00002, 0.0),
            (116.005 - 0.0002, lat + 0.0021, 30.0),  # near the intersection, offset up
            (116.01 - 0.0002, lat + 0.00002, 60.0),
        ]
        traj = Trajectory.of_points(points, data="tricky")
        matcher = HmmMapMatcher(grid, sigma_meters=30, search_radius_meters=400)
        matched = matcher.match(traj)
        assert len(matched) == 3
        # First and last are unambiguous; the route-consistent middle match
        # keeps the vehicle near the horizontal road's latitude.
        assert matched[0].lat == pytest.approx(lat, abs=1e-4)
        assert matched[2].lat == pytest.approx(lat, abs=1e-4)

    def test_off_network_points_dropped(self, grid):
        points = [(130.0, 50.0, 0.0), (130.1, 50.0, 30.0)]
        traj = Trajectory.of_points(points, data="lost")
        matcher = HmmMapMatcher(grid)
        assert matcher.match(traj) == []
        assert matcher.match_to_trajectory(traj) is None

    def test_match_to_trajectory_values_are_segments(self, grid):
        traj = road_trajectory(grid)
        matcher = HmmMapMatcher(grid, sigma_meters=15, search_radius_meters=120)
        matched = matcher.match_to_trajectory(traj)
        assert matched.data == "drive"
        for e in matched.entries:
            assert isinstance(e.value, int)
            assert 0 <= e.value < grid.n_segments

    def test_parameter_validation(self, grid):
        with pytest.raises(ValueError):
            HmmMapMatcher(grid, sigma_meters=0)


class TestMapMatchConverters:
    def test_traj2traj_parallel(self, grid):
        ctx = EngineContext(default_parallelism=2)
        trajs = [road_trajectory(grid, row=r % 6, seed=r) for r in range(8)]
        rdd = ctx.parallelize(trajs, 2)
        out = Traj2TrajMapMatchConverter(
            grid, sigma_meters=15, search_radius_meters=120
        ).convert(rdd)
        assert out.count() == 8

    def test_traj2traj_type_check(self, grid):
        ctx = EngineContext(default_parallelism=1)
        rdd = ctx.parallelize([Event.of_point(116.0, 39.9, 0.0)], 1)
        with pytest.raises(Exception):
            Traj2TrajMapMatchConverter(grid).convert(rdd).collect()

    def test_event2event_snaps(self, grid):
        ctx = EngineContext(default_parallelism=1)
        ev = Event.of_point(116.0001, 39.9001, 0.0, data="e")
        out = Event2EventConverter(grid).convert(ctx.parallelize([ev], 1)).collect()
        assert len(out) == 1
        snapped = out[0]
        assert isinstance(snapped.value, int)  # segment id
        assert snapped.data == "e"

    def test_event2event_unmatched_kept_by_default(self, grid):
        ctx = EngineContext(default_parallelism=1)
        far = Event.of_point(130.0, 50.0, 0.0, data="far")
        kept = Event2EventConverter(grid).convert(ctx.parallelize([far], 1)).collect()
        assert kept == [far]
        dropped = (
            Event2EventConverter(grid, drop_unmatched=True)
            .convert(ctx.parallelize([far], 1))
            .collect()
        )
        assert dropped == []
