"""R-tree unit + property tests (``PackedRTree`` vs a brute-force scan)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar.packed_rtree import PackedRTree, packed_tree_from_boxes
from repro.index import STBox

from . import reference


def random_boxes(n: int, seed: int, ndim: int = 2) -> list[STBox]:
    rng = random.Random(seed)
    boxes = []
    for _ in range(n):
        mins = [rng.uniform(0, 90) for _ in range(ndim)]
        maxs = [m + rng.uniform(0, 10) for m in mins]
        boxes.append(STBox(mins, maxs))
    return boxes


class TestBuild:
    def test_empty_tree(self):
        tree = packed_tree_from_boxes([])
        assert len(tree) == 0
        assert tree.height == 0
        assert tree.query_rows(STBox((0, 0), (1, 1))).tolist() == []

    def test_single_item(self):
        tree = packed_tree_from_boxes([STBox((0, 0), (1, 1))])
        assert len(tree) == 1
        assert tree.query_rows(STBox((0.5, 0.5), (2, 2))).tolist() == [0]

    def test_capacity_bounds_height(self):
        boxes = random_boxes(1000, 1)
        shallow = packed_tree_from_boxes(boxes, capacity=64)
        deep = packed_tree_from_boxes(boxes, capacity=4)
        assert shallow.height < deep.height

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            packed_tree_from_boxes([], capacity=1)

    def test_all_entries(self):
        tree = packed_tree_from_boxes(random_boxes(50, 2), capacity=4)
        assert tree.query_rows(STBox((-1, -1), (101, 101))).tolist() == list(range(50))

    def test_mixed_dims_rejected(self):
        with pytest.raises(ValueError):
            packed_tree_from_boxes([STBox((0,), (1,)), STBox((0, 0), (1, 1))])
        with pytest.raises(ValueError):
            PackedRTree([[0.0], [1.0]], [[1.0, 1.0], [2.0, 2.0]])


class TestQuery:
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_matches_brute_force(self, ndim):
        boxes = random_boxes(400, seed=ndim, ndim=ndim)
        tree = packed_tree_from_boxes(boxes, capacity=8)
        rng = random.Random(99)
        candidates = 0
        for _ in range(20):
            mins = [rng.uniform(0, 80) for _ in range(ndim)]
            maxs = [m + rng.uniform(0, 30) for m in mins]
            q = STBox(mins, maxs)
            expected = reference.box_query(boxes, q)
            candidates += len(expected)
            assert tree.query_rows(q).tolist() == expected
        assert tree.stats.queries == 20
        assert tree.stats.candidates == candidates

    def test_query_dim_mismatch(self):
        tree = packed_tree_from_boxes(random_boxes(10, 3))
        with pytest.raises(ValueError):
            tree.query_rows(STBox((0,), (1,)))

    def test_stats_track_pruning(self):
        tree = packed_tree_from_boxes(random_boxes(1000, 5), capacity=8)
        tree.stats.reset()
        tree.query_rows(STBox((0, 0), (5, 5)))
        # A selective query must touch far fewer entries than a full scan.
        assert 0 < tree.stats.entry_tests < 1000
        tree.stats.reset()
        assert tree.stats.queries == 0


coord = st.floats(min_value=0, max_value=100, allow_nan=False)


@st.composite
def box_lists(draw):
    n = draw(st.integers(1, 60))
    boxes = []
    for _ in range(n):
        x1, x2 = sorted((draw(coord), draw(coord)))
        y1, y2 = sorted((draw(coord), draw(coord)))
        boxes.append(STBox((x1, y1), (x2, y2)))
    return boxes


class TestRTreeProperties:
    @given(box_lists(), coord, coord, coord, coord)
    @settings(max_examples=60, deadline=None)
    def test_query_equals_brute_force(self, boxes, a, b, c, d):
        x1, x2 = sorted((a, c))
        y1, y2 = sorted((b, d))
        q = STBox((x1, y1), (x2, y2))
        tree = packed_tree_from_boxes(boxes, capacity=4)
        assert tree.query_rows(q).tolist() == reference.box_query(boxes, q)

    @given(box_lists())
    @settings(max_examples=30, deadline=None)
    def test_every_item_findable_by_own_box(self, boxes):
        tree = packed_tree_from_boxes(boxes, capacity=4)
        for row, box in enumerate(boxes):
            assert row in tree.query_rows(box).tolist()
