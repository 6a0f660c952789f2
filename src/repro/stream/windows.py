"""Windowed extractors: tumbling and sliding aggregates over a feed.

The batch extractors answer "features per structure cell, once"; these
answer "features per time window, continuously".  A windowed extractor
is a stateful operator: each :meth:`~WindowedExtractor.update` folds one
selected RDD (typically the new-since-watermark slice of a feed) into a
per-window partial map, and :meth:`~WindowedExtractor.features`
finalizes whatever windows exist so far.  Windows are half-open
``[start, start + size)`` and laid out on a fixed ``origin``/``step``
grid, so assignment is pure index arithmetic — no record is ever
double-counted by a tumbling grid, and a sliding grid (``step < size``)
overlaps by design.

State is plain picklable data and checkpoints through
:class:`~repro.engine.faults.PipelineCheckpoint`
(:meth:`~WindowedExtractor.checkpoint` / :meth:`~WindowedExtractor.restore`),
with the same write-ordering guarantee as pipeline phases: blocks first,
``_COMPLETE`` marker last — a crash mid-checkpoint resumes from the
previous complete state.  Merging per-partition window maps happens
driver-side in partition order, so results are deterministic across
backends and under chaos-injected worker loss (the engine's retry path
recomputes partitions, it never reorders them).
"""

from __future__ import annotations

import math
from typing import Any

from repro.engine.rdd import RDD
from repro.instances.trajectory import Trajectory
from repro.temporal.duration import Duration

#: Checkpoint phase name used by default.
WINDOW_PHASE = "windows"


class WindowedExtractor:
    """Base of the windowed family: a keyed partial map over a window grid.

    Parameters
    ----------
    origin:
        Epoch time where window index 0 starts.
    size:
        Window length, seconds.
    step:
        Grid stride, seconds; ``None`` (default) means tumbling
        (``step == size``), smaller values slide.

    Subclasses define the per-record ``contribution`` (record + window →
    partial or ``None``), the commutative/associative ``combine``, and
    the final ``finish``.
    """

    #: "center" assigns a record to the window(s) containing its temporal
    #: center; "span" assigns to every window its temporal extent overlaps.
    assign: str = "center"

    def __init__(self, origin: float, size: float, step: float | None = None):
        if size <= 0:
            raise ValueError("window size must be positive")
        if step is not None and step <= 0:
            raise ValueError("window step must be positive")
        self.origin = float(origin)
        self.size = float(size)
        self.step = float(step) if step is not None else float(size)
        #: window index → partial aggregate (driver-side state).
        self.windows: dict[int, Any] = {}
        self.records_seen = 0
        self.updates = 0

    # -- subclass hooks ------------------------------------------------------------

    def contribution(self, inst, window: Duration) -> Any | None:
        """One record's partial for one window (``None`` contributes nothing)."""
        raise NotImplementedError

    def combine(self, a: Any, b: Any) -> Any:
        """Merge two window partials."""
        raise NotImplementedError

    def finish(self, partial: Any) -> Any:
        """Partial → final feature (identity by default)."""
        return partial

    # -- the window grid ----------------------------------------------------------

    def window_duration(self, index: int) -> Duration:
        """The half-open window ``[origin + index*step, … + size)`` as a
        closed :class:`Duration` (its printable/query form)."""
        start = self.origin + index * self.step
        return Duration(start, start + self.size)

    def _indices(self, lo: float, hi: float) -> range:
        """Grid indices whose half-open window intersects ``[lo, hi]``.

        ``k`` qualifies iff ``origin + k*step <= hi`` and
        ``lo < origin + k*step + size``.
        """
        k_max = math.floor((hi - self.origin) / self.step)
        k_min = math.floor((lo - self.origin - self.size) / self.step) + 1
        return range(k_min, k_max + 1)

    # -- updating ------------------------------------------------------------------

    def update(self, rdd: RDD) -> int:
        """Fold one selected RDD into the window state; returns records seen.

        The per-partition pass builds a window→partial dict worker-side
        (closures capture only plain config and the subclass's pure
        hooks); dicts merge into ``self.windows`` driver-side, in
        partition order.
        """
        by_center = self.assign == "center"
        indices = self._indices
        window_of = self.window_duration
        contribution = self.contribution
        combine = self.combine

        def fold(partition: list) -> list:
            local: dict[int, Any] = {}
            count = 0
            for inst in partition:
                count += 1
                extent = inst.temporal_extent
                if by_center:
                    center = extent.center
                    ks = indices(center, center)
                else:
                    ks = indices(extent.start, extent.end)
                for k in ks:
                    part = contribution(inst, window_of(k))
                    if part is None:
                        continue
                    local[k] = (
                        combine(local[k], part) if k in local else part
                    )
            return [(local, count)]

        seen = 0
        for local, count in rdd.map_partitions(fold).collect():
            seen += count
            for k in sorted(local):
                if k in self.windows:
                    self.windows[k] = self.combine(self.windows[k], local[k])
                else:
                    self.windows[k] = local[k]
        self.records_seen += seen
        self.updates += 1
        return seen

    # -- results -------------------------------------------------------------------

    def features(self) -> list[tuple[Duration, Any]]:
        """Finalized ``(window, feature)`` pairs, in window order."""
        return [
            (self.window_duration(k), self.finish(self.windows[k]))
            for k in sorted(self.windows)
        ]

    # -- checkpointing -------------------------------------------------------------

    def _payload(self) -> dict:
        return {
            "origin": self.origin,
            "size": self.size,
            "step": self.step,
            "windows": dict(self.windows),
            "records_seen": self.records_seen,
            "updates": self.updates,
        }

    def checkpoint(self, ckpt, phase: str = WINDOW_PHASE) -> None:
        """Persist the window state through a :class:`PipelineCheckpoint`.

        The state rides as one raw-pickle block, inheriting the
        checkpoint store's torn-write protection (marker written last).
        """
        ckpt.save(phase, ckpt.ctx.parallelize([self._payload()], 1))

    def restore(self, ckpt, phase: str = WINDOW_PHASE) -> bool:
        """Load state saved by :meth:`checkpoint`; False when absent.

        Refuses (``ValueError``) to restore state from a different
        window grid — silently merging grids would mislabel every
        feature.
        """
        if not ckpt.has(phase):
            return False
        rows = ckpt.load(phase).collect()
        payload = rows[0]
        grid = (payload["origin"], payload["size"], payload["step"])
        if grid != (self.origin, self.size, self.step):
            raise ValueError(
                f"checkpointed window grid {grid} does not match this "
                f"extractor's {(self.origin, self.size, self.step)}"
            )
        self.windows = dict(payload["windows"])
        self.records_seen = payload["records_seen"]
        self.updates = payload["updates"]
        return True


class WindowedFlowExtractor(WindowedExtractor):
    """Record count per window — the streaming analog of
    :class:`~repro.core.extractors.timeseries.TsFlowExtractor`.

    Assignment is by temporal center, so a tumbling grid counts each
    record exactly once.
    """

    assign = "center"

    def contribution(self, inst, window: Duration) -> int:
        """One record counts once per containing window."""
        return 1

    def combine(self, a: int, b: int) -> int:
        """Counts add."""
        return a + b


class WindowedSpeedExtractor(WindowedExtractor):
    """Mean trajectory speed per window — the streaming analog of
    :class:`~repro.core.extractors.timeseries.TsSpeedExtractor`.

    A trajectory contributes the average speed of its portion inside
    every window its extent overlaps (span assignment); windows with no
    usable portion finalize to ``None``-free absence (they simply don't
    appear).
    """

    assign = "span"

    def __init__(
        self,
        origin: float,
        size: float,
        step: float | None = None,
        unit: str = "kmh",
    ):
        super().__init__(origin, size, step)
        if unit not in ("kmh", "ms"):
            raise ValueError("unit must be 'kmh' or 'ms'")
        self.unit = unit

    def contribution(
        self, inst, window: Duration
    ) -> tuple[float, int] | None:
        """The portion-speed partial of one trajectory in one window."""
        if not isinstance(inst, Trajectory):
            raise TypeError("WindowedSpeedExtractor expects trajectories")
        portion = inst.sub_trajectory(window)
        if portion is None or len(portion.entries) < 2:
            return None
        speed = (
            portion.average_speed_kmh()
            if self.unit == "kmh"
            else portion.average_speed_ms()
        )
        return (speed, 1)

    def combine(
        self, a: tuple[float, int], b: tuple[float, int]
    ) -> tuple[float, int]:
        """(total, count) partials add."""
        return (a[0] + b[0], a[1] + b[1])

    def finish(self, partial: tuple[float, int]) -> float:
        """Mean speed of the window."""
        total, count = partial
        return total / count

    def _payload(self) -> dict:
        payload = super()._payload()
        payload["unit"] = self.unit
        return payload
