"""Property-based round-trip tests for both on-disk codecs.

Invariants: the ST4ML codec round-trips instances exactly; the baseline
geo-record codec round-trips the ST content to timestamp-string precision
(microseconds) while degrading identities to reprs — the exact cost model
the baselines are supposed to pay, no more and no less.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.records import geo_record_to_instance, instance_to_geo_record
from repro.geometry import Point
from repro.instances import Event, Trajectory
from repro.instances.base import Entry
from repro.stio.formats import decode_record, encode_record
from repro.temporal import Duration

coord = st.floats(min_value=-179, max_value=179, allow_nan=False)
lat = st.floats(min_value=-85, max_value=85, allow_nan=False)
# Timestamps within datetime's comfortable range, at ms precision so the
# string format (microseconds) is lossless.
timestamp = st.integers(min_value=0, max_value=4_000_000_000).map(lambda ms: ms / 1000.0)
identity = st.one_of(st.integers(-1_000_000, 1_000_000), st.text(min_size=0, max_size=12))


@st.composite
def events(draw):
    return Event.of_point(
        draw(coord), draw(lat), draw(timestamp), value=draw(identity), data=draw(identity)
    )


@st.composite
def trajectories(draw):
    n = draw(st.integers(1, 6))
    times = sorted(draw(timestamp) for _ in range(n))
    points = [(draw(coord), draw(lat), t) for t in times]
    return Trajectory.of_points(points, data=draw(identity))


@st.composite
def interval_trajectories(draw):
    """Entries with interval times (some of them instants), sorted by start."""
    n = draw(st.integers(1, 6))
    starts = sorted(draw(timestamp) for _ in range(n))
    entries = [
        Entry(
            Point(draw(coord), draw(lat)),
            Duration(start, start + draw(st.sampled_from([0.0, 0.5, 10.0, 3_600.0]))),
            draw(st.one_of(st.none(), identity)),
        )
        for start in starts
    ]
    return Trajectory(entries, data=draw(identity))


class TestSt4mlCodec:
    @given(events())
    @settings(max_examples=80)
    def test_event_roundtrip_exact(self, ev):
        assert decode_record(encode_record(ev)) == ev

    @given(trajectories())
    @settings(max_examples=60)
    def test_trajectory_roundtrip_exact(self, traj):
        restored = decode_record(encode_record(traj))
        assert restored == traj

    @given(interval_trajectories())
    @settings(max_examples=60)
    def test_interval_trajectory_roundtrip_exact(self, traj):
        """Interval entry ends survive; an instant point keeps its 4 fields."""
        record = encode_record(traj)
        assert decode_record(record) == traj
        assert decode_record(record).st_bounds() == traj.st_bounds()
        for entry, point in zip(traj.entries, record[1]):
            assert len(point) == (4 if entry.temporal.end == entry.temporal.start else 5)


class TestBaselineCodec:
    @given(events())
    @settings(max_examples=60)
    def test_event_st_content_preserved(self, ev):
        restored = geo_record_to_instance(instance_to_geo_record(ev))
        assert restored.spatial == ev.spatial
        assert math.isclose(
            restored.temporal.start, ev.temporal.start, abs_tol=1e-5
        )
        # Identity degrades to a repr string — by design.
        assert restored.data == repr(ev.data)

    @given(trajectories())
    @settings(max_examples=40)
    def test_trajectory_st_content_preserved(self, traj):
        restored = geo_record_to_instance(instance_to_geo_record(traj))
        assert len(restored.entries) == len(traj.entries)
        for original, back in zip(traj.entries, restored.entries):
            assert back.spatial == original.spatial
            assert math.isclose(
                back.temporal.start, original.temporal.start, abs_tol=1e-5
            )

    @given(trajectories())
    @settings(max_examples=40)
    def test_selection_predicate_survives_roundtrip(self, traj):
        """A baseline must select the same records ST4ML does."""
        restored = geo_record_to_instance(instance_to_geo_record(traj))
        env = traj.spatial_extent.expanded(0.1)
        dur = traj.temporal_extent.expanded(1.0)
        assert restored.intersects(env, dur)
        assert traj.intersects(env, dur)
