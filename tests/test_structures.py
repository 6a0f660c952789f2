"""Structure descriptors: candidate enumeration strategy equivalence."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.structures import (
    RasterStructure,
    SpatialMapStructure,
    TimeSeriesStructure,
)
from repro.geometry import Envelope, Polygon
from repro.temporal import Duration


def random_query(rng):
    x1, x2 = sorted((rng.uniform(-1, 11), rng.uniform(-1, 11)))
    y1, y2 = sorted((rng.uniform(-1, 11), rng.uniform(-1, 11)))
    t1, t2 = sorted((rng.uniform(-10, 110), rng.uniform(-10, 110)))
    return Envelope(x1, y1, x2, y2), Duration(t1, t2)


class TestTimeSeriesStructure:
    def test_regular_flag(self):
        assert TimeSeriesStructure.regular(Duration(0, 10), 5).is_regular
        assert not TimeSeriesStructure(Duration(0, 10).split(5)).is_regular

    def test_of_interval(self):
        s = TimeSeriesStructure.of_interval(Duration(0, 10), 3.0)
        assert s.n_cells == 4
        assert s.is_regular

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TimeSeriesStructure([])

    def test_methods_agree(self):
        rng = random.Random(4)
        regular = TimeSeriesStructure.regular(Duration(0, 100), 10)
        irregular = TimeSeriesStructure(Duration(0, 100).split(10))
        for _ in range(25):
            env, dur = random_query(rng)
            naive = sorted(regular.candidate_cells(env, dur, "naive"))
            rtree = sorted(regular.candidate_cells(env, dur, "rtree"))
            grid = sorted(regular.candidate_cells(env, dur, "regular"))
            irr = sorted(irregular.candidate_cells(env, dur, "rtree"))
            assert naive == rtree == grid == irr

    def test_regular_method_on_irregular_rejected(self):
        s = TimeSeriesStructure(Duration(0, 10).split(2))
        with pytest.raises(ValueError):
            s.candidate_cells(Envelope(0, 0, 1, 1), Duration(0, 1), "regular")

    def test_unknown_method_rejected(self):
        s = TimeSeriesStructure.regular(Duration(0, 10), 2)
        with pytest.raises(ValueError):
            s.candidate_cells(Envelope(0, 0, 1, 1), Duration(0, 1), "bogus")

    def test_empty_instance(self):
        s = TimeSeriesStructure.regular(Duration(0, 10), 5)
        inst = s.empty_instance()
        assert inst.n_cells == 5
        assert inst.cell_values() == [[]] * 5


class TestSpatialMapStructure:
    def test_methods_agree(self):
        rng = random.Random(5)
        s = SpatialMapStructure.regular(Envelope(0, 0, 10, 10), 4, 5)
        for _ in range(25):
            env, dur = random_query(rng)
            naive = sorted(s.candidate_cells(env, dur, "naive"))
            rtree = sorted(s.candidate_cells(env, dur, "rtree"))
            grid = sorted(s.candidate_cells(env, dur, "regular"))
            assert naive == rtree == grid

    def test_irregular_polygons(self):
        cells = [
            Polygon([(0, 0), (5, 0), (5, 5), (0, 5)]),
            Polygon([(5, 0), (10, 0), (10, 5)]),
        ]
        s = SpatialMapStructure(cells)
        assert not s.is_regular
        hits = s.candidate_cells(Envelope(1, 1, 2, 2), Duration(0, 1), "rtree")
        assert hits == [0]

    def test_exact_cells_refinement(self):
        tri = Polygon([(0, 0), (10, 0), (0, 10)])
        s = SpatialMapStructure([tri])
        from repro.geometry import Point

        candidates = s.candidate_cells(
            Envelope(8, 8, 9, 9), Duration(0, 1), "rtree"
        )
        # MBR intersects the triangle's MBR, but the exact test fails.
        assert s.exact_cells(Point(8.5, 8.5), candidates) == []

    def test_grid_order_matches_envelope_split(self):
        extent = Envelope(0, 0, 4, 2)
        s = SpatialMapStructure.regular(extent, 4, 2)
        from repro.geometry import Point

        # Cell 1 per Envelope.split row-major order is x in [1,2], y in [0,1].
        hits = s.candidate_cells(
            Point(1.5, 0.5).envelope, Duration(0, 1), "regular"
        )
        assert hits == [1]


class TestRasterStructure:
    def test_methods_agree(self):
        rng = random.Random(6)
        s = RasterStructure.regular(Envelope(0, 0, 10, 10), Duration(0, 100), 3, 3, 4)
        for _ in range(25):
            env, dur = random_query(rng)
            naive = sorted(s.candidate_cells(env, dur, "naive"))
            rtree = sorted(s.candidate_cells(env, dur, "rtree"))
            grid = sorted(s.candidate_cells(env, dur, "regular"))
            assert naive == rtree == grid

    def test_of_product_irregular(self):
        geoms = [Polygon([(0, 0), (1, 0), (0, 1)])]
        durs = Duration(0, 10).split(2)
        s = RasterStructure.of_product(geoms, durs)
        assert s.n_cells == 2
        assert not s.is_regular

    def test_cell_order_matches_raster_instance(self):
        s = RasterStructure.regular(Envelope(0, 0, 2, 2), Duration(0, 4), 2, 2, 2)
        inst = s.empty_instance()
        for i, (geom, dur) in enumerate(s.cells):
            assert inst.entries[i].spatial == geom
            assert inst.entries[i].temporal == dur

    def test_cell_index_built_once(self):
        s = RasterStructure.regular(Envelope(0, 0, 1, 1), Duration(0, 1), 2, 2, 2)
        assert s.packed_rtree() is s.packed_rtree()


query_coord = st.floats(min_value=-2, max_value=12, allow_nan=False)
query_time = st.floats(min_value=-20, max_value=120, allow_nan=False)


class TestStructureProperties:
    @given(query_coord, query_coord, query_coord, query_coord, query_time, query_time)
    @settings(max_examples=80, deadline=None)
    def test_raster_strategies_always_agree(self, a, b, c, d, t1, t2):
        x1, x2 = sorted((a, c))
        y1, y2 = sorted((b, d))
        lo, hi = sorted((t1, t2))
        env = Envelope(x1, y1, x2, y2)
        dur = Duration(lo, hi)
        s = RasterStructure.regular(Envelope(0, 0, 10, 10), Duration(0, 100), 4, 3, 5)
        naive = sorted(s.candidate_cells(env, dur, "naive"))
        rtree = sorted(s.candidate_cells(env, dur, "rtree"))
        grid = sorted(s.candidate_cells(env, dur, "regular"))
        assert naive == rtree == grid
