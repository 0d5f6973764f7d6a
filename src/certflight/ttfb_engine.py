"""Time-to-first-byte model.

TTFB decomposes into a fixed per-stack cost plus a round-trip count
scaled by path RTT:

    total_ms = base_ms + (base_flights + extra_rtts) * rtt_ms

base_flights covers TCP setup, the TLS handshake, and the HTTP
request/response at minimum chain size; extra_rtts comes from the
transport flight model and is zero for resumed sessions (no
certificate is sent on resumption). base_ms absorbs compute and
server-side costs measured at RTT ~0.

Profiles are calibrated from (rtt, ttfb) measurements. Two fitters:

* ``calibrate_stack_profile``: ordinary least squares.
* ``calibrate_minimax``: tolerance-normalized Chebyshev fit, for
  reproducing a whole measurement table where each point carries its
  own acceptance tolerance and the worst-case miss is what matters.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

from .chain_model import check_size_kb
from .errors import CalibrationError, ConfigError, check_fields
from .transport_flight import FlightModel, extra_rtts

NOISE_NONE = "none"
NOISE_GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class StackProfile:
    """Fitted latency profile of one TLS stack."""

    name: str
    base_ms: float
    base_flights: float
    resumed_base_ms: float | None = None

    def __post_init__(self):
        check_fields(self)
        if self.base_ms < 0:
            raise ConfigError("base_ms must be >= 0")
        if self.base_flights < 1:
            raise ConfigError("base_flights must be >= 1")
        if self.resumed_base_ms is None:
            object.__setattr__(self, "resumed_base_ms", self.base_ms)
        elif self.resumed_base_ms > self.base_ms:
            raise ConfigError("resumed_base_ms must not exceed base_ms")


@dataclass(frozen=True)
class NetworkPath:
    rtt_ms: float
    flight: FlightModel = FlightModel()

    def __post_init__(self):
        check_fields(self)
        if self.rtt_ms < 0:
            raise ConfigError("rtt_ms must be >= 0")


@dataclass(frozen=True)
class NoiseModel:
    kind: str = NOISE_NONE
    std_ms: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.kind not in (NOISE_NONE, NOISE_GAUSSIAN):
            raise ConfigError(f"noise kind must be {NOISE_NONE!r} or {NOISE_GAUSSIAN!r}")
        if self.std_ms < 0:
            raise ConfigError("std_ms must be >= 0")


@dataclass(frozen=True)
class TtfbEstimate:
    """Noise-free estimate with breakdown.

    Breakdown allocates one RTT to TCP setup, one to the HTTP exchange,
    and the remainder (base_ms plus all other flights) to TLS; the three
    parts sum exactly to total_ms. Profiles with base_flights below 2
    cannot fund that allocation, so the breakdown fields are None.
    """

    total_ms: float
    t_tcp_ms: float | None
    t_tls_ms: float | None
    t_request_response_ms: float | None
    extra_rtts: int
    resumed: bool

    def breakdown_allocated(self) -> bool:
        return self.t_tcp_ms is not None


def estimate_ttfb(
    stack: StackProfile,
    path: NetworkPath,
    chain_size_kb: float,
    resumed: bool = False,
) -> TtfbEstimate:
    """Deterministic TTFB for one stack, path, and chain size."""
    if resumed:
        check_size_kb(chain_size_kb)  # no certificate is sent, but the size must still be valid
    extra = 0 if resumed else extra_rtts(path.flight, chain_size_kb)
    base = stack.resumed_base_ms if resumed else stack.base_ms
    total = base + (stack.base_flights + extra) * path.rtt_ms
    if stack.base_flights >= 2:
        t_tcp = path.rtt_ms
        t_request_response = path.rtt_ms
        t_tls = base + (stack.base_flights - 2 + extra) * path.rtt_ms
    else:
        t_tcp = t_tls = t_request_response = None
    return TtfbEstimate(
        total_ms=total,
        t_tcp_ms=t_tcp,
        t_tls_ms=t_tls,
        t_request_response_ms=t_request_response,
        extra_rtts=extra,
        resumed=resumed,
    )


@dataclass(frozen=True)
class SampleSummary:
    mean_ms: float
    std_ms: float


def sample_ttfb(
    estimate: TtfbEstimate, noise: NoiseModel, trials: int, *, seed: int | None = None
) -> SampleSummary:
    """Mean and ddof=1 std of trials noisy observations around an estimate.

    The summary is drawn directly instead of the trials: for n draws of
    N(mu, sigma^2) the mean is mu + sigma/sqrt(n) * Z and the std is
    sigma * sqrt(chi2(n-1) / (n-1)), independent by Cochran's theorem.
    Both are exact draws of an n-trial summary, so the cost does not grow
    with trials. The generator is seeded per call with seed (noise.seed
    when None), so identical inputs reproduce the identical summary. One
    trial has std 0; noise-free input draws nothing.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if noise.kind == NOISE_NONE or noise.std_ms == 0.0:
        return SampleSummary(mean_ms=estimate.total_ms, std_ms=0.0)
    rng = random.Random(noise.seed if seed is None else seed)
    sigma = noise.std_ms
    mean = rng.gauss(estimate.total_ms, sigma / math.sqrt(trials))
    if trials == 1:
        return SampleSummary(mean_ms=mean, std_ms=0.0)
    dof = trials - 1
    std = sigma * math.sqrt(rng.gammavariate(dof / 2, 2.0) / dof)
    return SampleSummary(mean_ms=mean, std_ms=std)


def calibrate_stack_profile(
    measurements: Iterable[tuple[float, float]],
    penalty_rtts: float = 0.0,
    name: str = "calibrated",
    resumed_base_ms: float | None = None,
) -> StackProfile:
    """Least-squares fit of total = base + k * rtt over measurements.

    penalty_rtts is the extra-RTT count already charged to the measured
    chain by the flight model; it is subtracted from the fitted slope so
    base_flights reflects the penalty-free flight count.
    """
    pts = [(float(r), float(t)) for r, t in measurements]
    if len({r for r, _ in pts}) < 2:
        raise CalibrationError("need measurements at two or more distinct RTTs")
    slope, base = statistics.linear_regression([r for r, _ in pts], [t for _, t in pts])
    flights = slope - penalty_rtts
    if flights < 1:
        raise CalibrationError(
            f"fitted slope {slope:.4f} minus penalty {penalty_rtts} "
            "leaves fewer than 1 flight"
        )
    if base < 0:
        raise CalibrationError(f"fitted base {base:.4f} is negative")
    return StackProfile(
        name=name,
        base_ms=base,
        base_flights=flights,
        resumed_base_ms=min(resumed_base_ms, base) if resumed_base_ms is not None else None,
    )


def calibrate_minimax(
    cells: Sequence[tuple[float, float, float, float]],
    name: str = "calibrated-minimax",
    slope_bounds: tuple[float, float] = (1.0, 10.0),
) -> tuple[StackProfile, float]:
    """Chebyshev fit of a profile to a table of tolerance-weighted cells.

    Each cell is (rtt_ms, ttfb_ms, penalty_rtts, tolerance_ms); the fit
    minimizes max |base + (k + penalty) * rtt - ttfb| / tolerance. Returns
    the profile and that worst normalized residual (<= 1 means every cell
    is inside its own tolerance).

    The objective is jointly convex in (base, k); for fixed k the optimal
    base is the weighted Chebyshev center of the per-cell intercepts, and
    the outer slope search is ternary.
    """
    if len({r for r, _, _, _ in cells}) < 2:
        raise CalibrationError("need cells at two or more distinct RTTs")
    if any(t <= 0 for _, _, _, t in cells):
        raise CalibrationError("tolerances must be positive")

    def center(k: float) -> tuple[float, float]:
        # Intercepts each cell demands, and the tightest normalized
        # band containing all of them.
        c = [(ttfb - (k + penalty) * rtt, tol) for rtt, ttfb, penalty, tol in cells]
        worst = max((ci - cj) / (ti + tj) for ci, ti in c for cj, tj in c)
        base = (max(ci - worst * ti for ci, ti in c) + min(ci + worst * ti for ci, ti in c)) / 2
        return worst, base

    lo, hi = slope_bounds
    for _ in range(200):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if center(m1)[0] <= center(m2)[0]:
            hi = m2
        else:
            lo = m1
    k = (lo + hi) / 2
    worst, base = center(k)
    profile = StackProfile(name=name, base_ms=base, base_flights=k)
    return profile, worst


# Default profiles. ClassicalSim carries round defaults consistent with
# its measurement fits; the OQS profiles carry their least-squares fits
# directly. OQS resumption fits marginally above the full handshake
# (within measurement noise), so resumed_base_ms is clamped to base_ms.
_OQS_MLDSA_BASE = 335.263
_OQS_SLHDSA_BASE = 338.203

DEFAULT_STACKS = {
    "ClassicalSim": StackProfile(
        "ClassicalSim", base_ms=8.3, base_flights=2.0, resumed_base_ms=7.2
    ),
    "OqsMldsa": StackProfile(
        "OqsMldsa", base_ms=_OQS_MLDSA_BASE, base_flights=4.106
    ),
    "OqsSlhdsa": StackProfile(
        "OqsSlhdsa", base_ms=_OQS_SLHDSA_BASE, base_flights=4.092
    ),
    "OqsHybrid": StackProfile(
        "OqsHybrid", base_ms=_OQS_MLDSA_BASE + 4.0, base_flights=4.106
    ),
}


def resolve_stack(name: str, stacks: dict[str, StackProfile] | None = None) -> StackProfile:
    table = DEFAULT_STACKS if stacks is None else stacks
    try:
        return table[name]
    except KeyError:
        raise ConfigError(
            f"unknown stack {name!r}; known: {', '.join(sorted(table))}"
        ) from None
