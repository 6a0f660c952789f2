"""Benchmark-owned seeded input generator.

Everything the benchmark feeds the system is made here, from numpy RNGs
only — never from ``repro.datasets`` / ``repro.workloads`` — so a later
PR cannot change the inputs by changing the library.  This module must
not import ``repro``; :mod:`benchmarks.e2e.adapter` turns the arrays into
instances through the public constructors.

The seed resamples the data, moves every ST range by a small jitter and
reshuffles the op order.  It does **not** move the city's hotspots or
redraw range positions from scratch: ranges sit on a low-discrepancy
(Halton) lattice, so two seeds give different inputs with the same
statistical shape, and a run-to-run comparison is not dominated by which
ranges happened to land on a hotspot.
"""

from __future__ import annotations

import hashlib

import numpy as np

DAY = 86_400.0
HOUR = 3_600.0
#: 2013-01-01T00:00:00Z — the NYC taxi data's first day.
T0 = 1_356_998_400.0

#: (min_lon, min_lat, max_lon, max_lat)
NYC_BBOX = (-74.05, 40.60, -73.85, 40.90)
NYC_SPAN = 30 * DAY
PORTO_BBOX = (-8.70, 41.10, -8.50, 41.25)
PORTO_SPAN = 7 * DAY
#: Fewest and most 15-second samples of one trip.
TRIP_POINTS = (12, 30)
#: How far the seed moves a range off its lattice point, as a share of the
#: range's free span.
RANGE_JITTER = 0.01

#: Fixed pickup hotspots as fractions of the bbox: (fx, fy, sigma_fx, sigma_fy, weight).
#: The remaining weight is a uniform background.
_HOTSPOTS = (
    (0.42, 0.52, 0.035, 0.050, 0.30),  # midtown
    (0.33, 0.36, 0.030, 0.035, 0.18),  # downtown
    (0.52, 0.66, 0.040, 0.045, 0.14),  # upper east/west
    (0.86, 0.14, 0.020, 0.020, 0.08),  # JFK
    (0.80, 0.58, 0.020, 0.020, 0.06),  # LGA
    (0.55, 0.30, 0.060, 0.060, 0.09),  # brooklyn
)


def _rng(seed: int, stream: int) -> np.random.Generator:
    """One independent generator per (seed, input stream)."""
    return np.random.default_rng([int(seed), int(stream)])


def _hotspot_xy(rng: np.random.Generator, n: int, bbox) -> tuple[np.ndarray, np.ndarray]:
    """Hotspot-mixture positions strictly inside ``bbox``."""
    x0, y0, x1, y1 = bbox
    weights = np.array([h[4] for h in _HOTSPOTS])
    probs = np.append(weights, 1.0 - weights.sum())
    comp = rng.choice(len(probs), size=n, p=probs)
    fx = rng.random(n)
    fy = rng.random(n)
    for k, (cx, cy, sx, sy, _) in enumerate(_HOTSPOTS):
        mask = comp == k
        m = int(mask.sum())
        fx[mask] = rng.normal(cx, sx, m)
        fy[mask] = rng.normal(cy, sy, m)
    # Draws that left the box become background; clipping would pile
    # records exactly on the box edge, where closed-range semantics matter.
    out = (fx <= 0.0) | (fx >= 1.0) | (fy <= 0.0) | (fy >= 1.0)
    m = int(out.sum())
    fx[out] = rng.uniform(1e-6, 1.0 - 1e-6, m)
    fy[out] = rng.uniform(1e-6, 1.0 - 1e-6, m)
    return x0 + fx * (x1 - x0), y0 + fy * (y1 - y0)


def _hour_of_day(rng: np.random.Generator, n: int) -> np.ndarray:
    """Continuous hour in [0, 24): morning and evening peaks on a flat base."""
    comp = rng.choice(3, size=n, p=(0.30, 0.45, 0.25))
    hour = rng.uniform(0.0, 24.0, n)
    for k, (mu, sigma) in enumerate(((8.5, 1.5), (18.5, 2.5))):
        mask = comp == k
        hour[mask] = rng.normal(mu, sigma, int(mask.sum()))
    return np.mod(hour, 24.0)


EVENT_COLUMNS = ("lon", "lat", "t", "fare", "meters")


def _payload(rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
    """Fare and trip length; the integer's pickled size varies with its value,
    so bytes on disk per record is a measurement, not a constant."""
    return {
        "fare": np.round(rng.gamma(2.0, 6.0, n) + 2.5, 2),
        "meters": np.rint(rng.lognormal(7.8, 0.9, n)).astype(np.int64),
    }


def event_arrays(seed: int, n: int) -> dict[str, np.ndarray]:
    """``n`` NYC-taxi-shaped pickups: lon, lat, t (continuous), fare, meters."""
    rng = _rng(seed, 1)
    lon, lat = _hotspot_xy(rng, n, NYC_BBOX)
    day = rng.integers(0, int(NYC_SPAN // DAY), n)
    t = T0 + day * DAY + _hour_of_day(rng, n) * HOUR
    return {"lon": lon, "lat": lat, "t": t, **_payload(rng, n)}


def _fold(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Reflect a walk back into [lo, hi] (triangle wave), keeping it continuous."""
    width = hi - lo
    return lo + width - np.abs(np.mod(values - lo, 2.0 * width) - width)


def trajectory_arrays(seed: int, n: int) -> dict[str, np.ndarray]:
    """``n`` Porto-taxi-shaped trips sampled every 15 s, ~21 points each.

    Returns flat ``points`` (M, 3: lon, lat, t) and ``offsets`` (n + 1).
    """
    rng = _rng(seed, 2)
    max_len = TRIP_POINTS[1]
    # Every length equally often, in seeded order: the number of points on
    # disk (and so bytes per trip) does not wander with the seed.
    lengths = rng.permutation(np.resize(np.arange(TRIP_POINTS[0], max_len + 1), n))
    x0, y0, x1, y1 = PORTO_BBOX
    sx, sy = _hotspot_xy(rng, n, PORTO_BBOX)
    day = rng.integers(0, int(PORTO_SPAN // DAY), n)
    start = T0 + day * DAY + _hour_of_day(rng, n) * (HOUR * (24.0 - 0.25) / 24.0)
    heading = rng.uniform(0.0, 2.0 * np.pi, (n, 1)) + np.cumsum(
        rng.normal(0.0, 0.22, (n, max_len)), axis=1
    )
    speed_ms = rng.uniform(4.0, 16.0, (n, 1)) * np.clip(
        1.0 + rng.normal(0.0, 0.2, (n, max_len)), 0.2, 1.8
    )
    step_m = speed_ms * 15.0
    lat_rad = np.deg2rad(0.5 * (y0 + y1))
    dx = step_m * np.cos(heading) / (111_320.0 * np.cos(lat_rad))
    dy = step_m * np.sin(heading) / 110_540.0
    margin = 1e-4
    lon = _fold(sx[:, None] + np.cumsum(dx, axis=1), x0 + margin, x1 - margin)
    lat = _fold(sy[:, None] + np.cumsum(dy, axis=1), y0 + margin, y1 - margin)
    t = start[:, None] + 15.0 * np.arange(max_len)[None, :]
    keep = np.arange(max_len)[None, :] < lengths[:, None]
    points = np.stack((lon[keep], lat[keep], t[keep]), axis=1)
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    return {"points": points, "offsets": offsets}


def _halton(index: np.ndarray, base: int) -> np.ndarray:
    """Radical inverse of ``index`` (>= 1) in ``base``."""
    result = np.zeros(index.shape, dtype=np.float64)
    frac = 1.0 / base
    i = index.astype(np.int64).copy()
    while np.any(i > 0):
        result += frac * (i % base)
        i //= base
        frac /= base
    return result


def st_ranges(
    seed: int,
    stream: int,
    bbox,
    span: float,
    fracs,
    counts,
    passes: int = 1,
    whole_hours: bool = False,
) -> dict[str, np.ndarray]:
    """``counts[c]`` ST ranges covering ``fracs[c]`` of every dimension, laid
    out ``passes`` times over, each pass in its own shuffled order.

    Returns ``boxes`` (passes * M, 6: x0, y0, x1, y1, t_start, t_end), ``op``
    (which of the M ranges a row is) and ``cls`` (its class).  Positions
    follow a Halton sequence per class plus a seeded jitter of ``RANGE_JITTER``
    of the free span.  A pass repeats the first one's ranges moved by a
    thousandth of that jitter: the same work, but never the same query
    twice, so a result cache cannot answer it.  ``whole_hours`` rounds each
    temporal length to a whole number of hours (for 1-h slot structures).
    """
    rng = _rng(seed, stream)
    x0, y0, x1, y1 = bbox
    cls = np.repeat(np.arange(len(fracs)), counts)
    m = cls.size
    # Each class walks its own stretch of the sequence.
    index = np.concatenate([1 + 64 * k + np.arange(c) for k, c in enumerate(counts)])
    u = np.stack([_halton(index, b) for b in (2, 3, 5)], axis=1)
    u = u + RANGE_JITTER * (rng.random((m, 3)) - 0.5)
    order = np.concatenate([rng.permutation(m) for _ in range(passes)])
    u = np.clip(
        u[order] + 1e-3 * RANGE_JITTER * (rng.random((order.size, 3)) - 0.5), 0.0, 1.0
    )
    cls = cls[order]
    frac = np.asarray(fracs, dtype=np.float64)[cls]
    w = (x1 - x0) * frac
    h = (y1 - y0) * frac
    d = span * frac
    if whole_hours:
        d = np.maximum(1.0, np.round(d / HOUR)) * HOUR
    bx = x0 + u[:, 0] * ((x1 - x0) - w)
    by = y0 + u[:, 1] * ((y1 - y0) - h)
    bt = T0 + u[:, 2] * (span - d)
    boxes = np.stack((bx, by, bx + w, by + h, bt, bt + d), axis=1)
    return {"boxes": boxes, "op": order, "cls": cls}


def ensure_populated(boxes, bbox, span: float, x, y, t) -> np.ndarray:
    """Recentre every range that holds no point on the point nearest to it.

    A selection with a partitioner cannot be fitted on nothing, and a
    workload must not contain an op that fails.  Sizes (the workload's
    shape) are kept; only the few ranges that landed on empty outskirts
    move, and they stay inside ``bbox`` x ``[T0, T0 + span]``.  No RNG.
    """
    boxes = boxes.copy()
    lows = np.array([bbox[0], bbox[1], T0])
    highs = np.array([bbox[2], bbox[3], T0 + span])
    points = np.stack((x, y, t), axis=1)
    for box in boxes:
        lo, hi = box[[0, 1, 4]], box[[2, 3, 5]]
        if np.any(np.all((points >= lo) & (points <= hi), axis=1)):
            continue
        # Not the exact centre: that is a cell boundary of every even grid,
        # where one record counts in two cells.
        anchor = lo + 0.381966 * (hi - lo)
        nearest = points[np.argmin((((points - anchor) / (highs - lows)) ** 2).sum(axis=1))]
        shift = nearest - anchor
        shift = np.clip(shift, lows - lo, highs - hi)
        box[[0, 1, 4]] = lo + shift
        box[[2, 3, 5]] = hi + shift
    return boxes


def stream_feed(seed: int, feed: int, n_batches: int, batch_size: int, late_frac: float) -> dict:
    """An event feed in event-time order, one 3-hour window per batch, with
    ``late_frac`` of each batch held back and delivered with the next one.

    Returns ``batches`` (list of dicts of arrays, as delivered) and
    ``late`` — how many records arrive behind the watermark.  A batch's
    latest record is never held back, so every held record is late by the
    time it is delivered and the count is exact.
    """
    rng = _rng(seed, 300 + feed)
    window = 3 * HOUR
    held_n = int(round(late_frac * batch_size))
    batches = []
    held = None
    late = 0
    for b in range(n_batches):
        lon, lat = _hotspot_xy(rng, batch_size, NYC_BBOX)
        t = np.sort(T0 + b * window + rng.random(batch_size) * window)
        cols = {"lon": lon, "lat": lat, "t": t, **_payload(rng, batch_size)}
        on_time = np.ones(batch_size, dtype=bool)
        if b < n_batches - 1 and held_n:
            on_time[rng.choice(batch_size - 1, held_n, replace=False)] = False
        delivered = {k: v[on_time] for k, v in cols.items()}
        if held is not None:
            late += held["t"].size
            delivered = {k: np.concatenate((delivered[k], held[k])) for k in cols}
        held = {k: v[~on_time] for k, v in cols.items()} if not on_time.all() else None
        batches.append(delivered)
    return {"batches": batches, "late": late, "span": n_batches * window}


def zipf_queries(
    seed: int, pool_size: int, n_queries: int, n_conns: int, frac: float, s: float
) -> dict[str, np.ndarray]:
    """A pool of ``pool_size`` ranges and, per connection, ``n_queries`` pool
    indexes drawn Zipf(``s``).

    Which range is how popular is fixed, not seeded: ten ranges carry almost
    half the traffic, and whether those sit on Manhattan or on the bay
    decides the median reply size — part of the workload's shape, like the
    hotspots themselves.  The seed draws the stream.
    """
    ranges = st_ranges(seed, 4, NYC_BBOX, NYC_SPAN, [frac], [pool_size])
    pool = ranges["boxes"][np.argsort(ranges["op"])]  # pool[i] is lattice point i
    rng = _rng(seed, 5)
    weights = 1.0 / np.arange(1, pool_size + 1) ** s
    weights /= weights.sum()
    rank_to_pool = np.random.default_rng(20130101).permutation(pool_size)
    draws = np.stack(
        [rank_to_pool[rng.choice(pool_size, n_queries, p=weights)] for _ in range(n_conns)]
    )
    return {"pool": pool, "draws": draws}


def digest(*arrays) -> str:
    """Hex digest of the exact bytes of the given arrays (the input identity)."""
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()
