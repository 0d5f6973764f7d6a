"""Transport flight model: how many extra round trips a chain costs.

A TCP sender restricted by slow start delivers iw bytes in the first
flight and grows geometrically, so f flights carry
iw * (g^f - 1) / (g - 1) bytes cumulatively. A handshake whose
certificate payload (plus fixed overhead) does not fit in the flights
already in progress stalls for one additional round trip per extra
flight.

Two modes:

* analytic: solve the capacity formula for the flight count.
* empirical: count configured size thresholds the chain exceeds
  (default [10, 40] KB, from measured TTFB step positions).

The analytic second threshold lands at 38 KB with the default window
and overhead (42 KB cumulative minus 4 KB overhead), two below the
measured 40; ``find_thresholds`` reports whatever the selected mode
implies and callers can compare.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from .chain_model import DEFAULT_KB_BYTES
from .errors import ConfigError, check_fields

ANALYTIC = "analytic"
EMPIRICAL = "empirical"

# Most sizes one size grid (a threshold scan or a sweep's size axis) may
# hold; a tiny but finite step would otherwise run for hours.
MAX_GRID_POINTS = 10_000_000


def check_grid_points(points: float) -> None:
    """Reject a size grid of more than MAX_GRID_POINTS points (or an
    overflowed, infinite count)."""
    if not points <= MAX_GRID_POINTS:
        raise ConfigError(f"size grid has {points:.4g} points; the limit is {MAX_GRID_POINTS}")


@dataclass(frozen=True)
class FlightModel:
    iw_bytes: int = 14000
    growth_factor: float = 2.0
    handshake_overhead_bytes: int = 4000
    mode: str = EMPIRICAL
    empirical_thresholds_kb: tuple[float, ...] = (10.0, 40.0)
    kb_bytes: int = DEFAULT_KB_BYTES

    def __post_init__(self):
        check_fields(self)
        if self.iw_bytes <= 0:
            raise ConfigError("iw_bytes must be positive")
        if self.growth_factor <= 1:
            raise ConfigError("growth_factor must exceed 1")
        if self.handshake_overhead_bytes < 0:
            raise ConfigError("handshake_overhead_bytes must be >= 0")
        if self.mode not in (ANALYTIC, EMPIRICAL):
            raise ConfigError(f"mode must be {ANALYTIC!r} or {EMPIRICAL!r}")
        thresholds = self.empirical_thresholds_kb
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ConfigError("empirical thresholds must be strictly increasing")
        if self.kb_bytes <= 0:
            raise ConfigError("kb_bytes must be positive")


def cumulative_capacity_bytes(model: FlightModel, flights: int) -> float:
    """Bytes deliverable in the first `flights` flights combined (ValueError past float range)."""
    if flights < 1:
        raise ValueError("flights must be >= 1")
    g = model.growth_factor
    try:
        capacity = model.iw_bytes * (g**flights - 1) / (g - 1)
    except OverflowError:
        capacity = math.inf
    if capacity < math.inf:
        return capacity
    raise ValueError(f"the capacity of {flights} flights overflows a float")


def extra_rtts(model: FlightModel, size_kb: float) -> int:
    """Extra round trips charged to a chain of size_kb KB.

    Strict exceedance on both paths: a chain exactly at a threshold
    (or exactly filling a flight) costs nothing extra. A byte count
    that overflows a float raises ValueError.
    """
    if not 0 <= size_kb < math.inf:
        raise ValueError(f"size must be finite and >= 0, got {size_kb}")
    if model.mode == EMPIRICAL:
        return bisect_left(model.empirical_thresholds_kb, size_kb)
    needed = size_kb * model.kb_bytes + model.handshake_overhead_bytes
    # The least f with capacity(f) >= needed, i.e. g^f >= 1 + needed * (g - 1) / iw.
    g = model.growth_factor
    estimate = math.log1p(needed / model.iw_bytes * (g - 1)) / math.log1p(g - 1)
    if estimate == math.inf:
        raise ValueError(f"the flight capacity for {size_kb} KB overflows a float")
    flights = math.ceil(estimate) or 1
    # The logarithms round; the capacity comparison itself settles the count.
    if flights > 1 and cumulative_capacity_bytes(model, flights - 1) >= needed:
        flights -= 1
    elif cumulative_capacity_bytes(model, flights) < needed:
        flights += 1
    return flights - 1


def find_thresholds(model: FlightModel, max_kb: float, step_kb: float) -> list[float]:
    """Scan [0, max_kb] in step_kb increments and report plateau edges.

    A threshold is the last size of a plateau: the scanned size one
    step before the extra-RTT count increases. Empty when no increase
    occurs below max_kb.
    """
    if not 0 < step_kb < math.inf:
        raise ValueError("step_kb must be finite and positive")
    if not step_kb < max_kb < math.inf:
        raise ValueError("max_kb must be finite and exceed step_kb")
    check_grid_points(max_kb / step_kb + 1)
    steps = int(max_kb / step_kb)
    thresholds = []
    prev = extra_rtts(model, 0.0)
    for i in range(1, steps + 1):
        size = i * step_kb
        cur = extra_rtts(model, size)
        if cur > prev:
            thresholds.append(size - step_kb)
        prev = cur
    return thresholds
