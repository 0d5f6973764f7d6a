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
from typing import Callable, Iterable, Sequence

from .chain_model import check_size_kb
from .errors import CalibrationError, ConfigError, Record, lookup
from .transport_flight import FlightModel, extra_rtts

NOISE_NONE = "none"
NOISE_GAUSSIAN = "gaussian"


class StackProfile(Record, frozen=True):
    """Fitted latency profile of one TLS stack."""

    name: str
    base_ms: float
    base_flights: float
    resumed_base_ms: float | None = None
    _bounds = {"base_ms": ">= 0", "base_flights": ">= 1", "resumed_base_ms": ">= 0"}

    def __post_init__(self):
        if self.resumed_base_ms is None:
            object.__setattr__(self, "resumed_base_ms", self.base_ms)
        elif self.resumed_base_ms > self.base_ms:
            raise ConfigError("resumed_base_ms must not exceed base_ms")


class NetworkPath(Record, frozen=True):
    rtt_ms: float
    flight: FlightModel = FlightModel()
    _bounds = {"rtt_ms": ">= 0"}


class NoiseModel(Record, frozen=True):
    kind: str = NOISE_NONE
    std_ms: float = 0.0
    _bounds = {"std_ms": ">= 0"}

    def __post_init__(self):
        if self.kind not in (NOISE_NONE, NOISE_GAUSSIAN):
            raise ConfigError(f"noise kind must be {NOISE_NONE!r} or {NOISE_GAUSSIAN!r}")


class TtfbEstimate(Record, frozen=True):
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


def ttfb_total_ms(base_ms: float, flights: float, rtt_ms: float) -> float:
    """base_ms + flights * rtt_ms, the model's TTFB; ValueError when it overflows a float."""
    total = base_ms + flights * rtt_ms
    if not total < math.inf:
        raise ValueError(f"the TTFB of {flights} flights at rtt {rtt_ms} ms overflows a float")
    return total


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
    total = ttfb_total_ms(base, stack.base_flights + extra, path.rtt_ms)
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


class SavingsEstimate(Record, frozen=True):
    rtt_ms: float
    chain_size_kb: float
    resumption_rate: float
    expected_savings_ms: float
    full_ms: float
    resumed_ms: float
    _bounds = {"resumption_rate": ">= 0 and <= 1"}


def estimate_savings(stack: StackProfile, path: NetworkPath, chain_size_kb: float,
                     resumption_rate: float) -> SavingsEstimate:
    """Expected TTFB saved per connection by session resumption.

    savings = rate * (full handshake TTFB - resumed TTFB) at this
    chain size and path; the record refuses a rate outside [0, 1].
    """
    full = estimate_ttfb(stack, path, chain_size_kb, resumed=False).total_ms
    resumed = estimate_ttfb(stack, path, chain_size_kb, resumed=True).total_ms
    return SavingsEstimate(rtt_ms=path.rtt_ms, chain_size_kb=chain_size_kb,
                           resumption_rate=resumption_rate,
                           expected_savings_ms=resumption_rate * (full - resumed),
                           full_ms=full, resumed_ms=resumed)


def sample_ttfb(
    estimate: TtfbEstimate, noise: NoiseModel, trials: int, *, seed: int
) -> tuple[float, float]:
    """(mean_ms, std_ms), the mean and ddof=1 std of trials noisy observations
    around an estimate, drawn by summary_sampler keyed by the seed's shortest
    two's-complement bytes, so s and -s differ. Noise-free input draws nothing.
    ConfigError is raised if a draw around the estimate's total could overflow a float.
    """
    draw = summary_sampler(noise, trials, estimate.total_ms)
    key = seed.to_bytes(seed.bit_length() // 8 + 1, "big", signed=True)
    return (estimate.total_ms, 0.0) if draw is None else draw(estimate.total_ms, key)


def _sha256():
    """The SHA-256 constructor the sampler hashes keys with: the interpreter's
    built-in one, or hashlib's where the build lacks it. Called per sampler, so
    that estimate and forge load no hash module."""
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return sha256


def summary_sampler(
    noise: NoiseModel, trials: int, mu_max: float = 0.0
) -> Callable[[float, bytes], tuple[float, float]] | None:
    """A draw(mu, key) -> (mean, std) of trials noisy observations around mu,
    or None when the noise model adds no noise. ConfigError is raised, before
    any draw, if a draw could overflow a float for some mu up to mu_max.

    The summary is drawn directly instead of the trials: for n draws of
    N(mu, sigma^2) the mean is mu + sigma/sqrt(n) * Z and the std is
    sigma * sqrt(chi2(n-1) / (n-1)), independent by Cochran's theorem.
    Both are exact draws of an n-trial summary, so the cost does not grow
    with trials. One trial has std 0.

    A draw keeps no generator state: its summary is a pure function of
    sha256(key), the counter-based idea of Salmon et al. (SC'11). The
    digest's four 64-bit words w give uniforms (w + 1) * 2**-64 in (0, 1].
    Box-Muller on the first two gives Z and the Marsaglia-Tsang candidate
    for gamma((n-1)/2) = chi2(n-1)/2 (ACM TOMS 26(3), 2000); the third is
    its accept test. A shape below 1 (n = 2) draws gamma(a+1) * U**(1/a), U
    the fourth. A rejected candidate takes fresh words from
    sha256(digest || k), so an accepted first candidate costs one hash.

    The hash is the interpreter's own SHA-256 (_sha256, or _sha2 from Python
    3.12): hashlib would load OpenSSL's libcrypto, about 3.5 MB of a sweep's
    peak memory, for keys of a few dozen bytes that the built-in hashes at
    least as fast. SHA-256 is one function whichever module computes it, so
    the draws are too.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if noise.kind == NOISE_NONE or noise.std_ms == 0.0:
        return None
    from struct import Struct

    sha256, words = _sha256(), Struct(">4Q").unpack
    log, sqrt, cos, sin = math.log, math.sqrt, math.cos, math.sin
    unit, turn = 2.0**-64, 2.0**-64 * math.tau
    sigma = noise.std_ms
    scale = sigma / math.sqrt(trials)
    dof = trials - 1
    shape = dof / 2  # chi2(dof) = 2 * gamma(dof / 2)
    d = shape + (shape < 1) - 1 / 3  # Marsaglia-Tsang's d and c, for shape + 1 below 1
    c = 1 / math.sqrt(9 * d)
    # A uniform is at least 2**-64, so |Z| and |x| are at most r_max = sqrt(128 ln 2),
    # and the gamma draw at most d * (1 + c * r_max)**3: refuse a sigma whose
    # largest draw overflows a float, before any is drawn.
    r_max = sqrt(-2.0 * log(unit))
    v_max = 1.0 + c * r_max
    if not (scale * r_max < math.inf
            and (not dof or sigma * sqrt(2.0 * (d * (v_max * v_max * v_max)) / dof) < math.inf)):
        raise ConfigError(f"noise.std_ms {sigma!r} is too large: a {trials}-trial draw "
                          "could overflow a float")
    if not mu_max + scale * r_max < math.inf:  # the largest mean, summed as draw sums it
        raise ConfigError(f"noise.std_ms {sigma!r} is too large for a mean of {mu_max!r} ms: "
                          f"a {trials}-trial draw could overflow a float")

    def draw(mu: float, key: bytes) -> tuple[float, float]:
        digest = sha256(key).digest()
        w0, w1, w2, w3 = words(digest)
        r, t = sqrt(-2.0 * log((w0 + 1) * unit)), (w1 + 1) * turn
        mean = mu + scale * r * cos(t)
        if not dof:
            return mean, 0.0
        x, k = r * sin(t), 0
        while True:
            v = 1.0 + c * x
            if v > 0.0:
                v = v * v * v
                if log((w2 + 1) * unit) < 0.5 * x * x + d - d * v + d * log(v):
                    break
            k += 1
            w0, w1, w2, _ = words(sha256(digest + k.to_bytes(8, "big")).digest())
            x = sqrt(-2.0 * log((w0 + 1) * unit)) * sin((w1 + 1) * turn)
        gamma = d * v
        if shape < 1:
            gamma *= ((w3 + 1) * unit) ** (1 / shape)
        return mean, sigma * sqrt(2.0 * gamma / dof)

    return draw


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

    The arithmetic is statistics.linear_regression's on Python 3.11: fsum
    means, then fsum of the centred products, slope = sxy / sxx. Python 3.10
    and 3.12 compute the fit in other ways that can move its last bits;
    written out here, the fit is the same on every version.
    """
    pts = [(float(r), float(t)) for r, t in measurements]
    if len({r for r, _ in pts}) < 2:
        raise CalibrationError("need measurements at two or more distinct RTTs")
    try:
        rbar = math.fsum(r for r, _ in pts) / len(pts)
        tbar = math.fsum(t for _, t in pts) / len(pts)
        sxy = math.fsum((r - rbar) * (t - tbar) for r, t in pts)
        slope = sxy / math.fsum((r - rbar) * (r - rbar) for r, _ in pts)
    except OverflowError as exc:  # sums of squares beyond float range
        raise CalibrationError(f"measurements too large to fit: {exc}") from None
    except ZeroDivisionError:  # distinct RTTs whose spread squares to 0, such as 0 and 5e-324
        raise CalibrationError("RTTs too close together to fit a slope") from None
    base = tbar - slope * rbar
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

    lo, hi = 1.0, 10.0  # the base_flights bracket the slope search narrows
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
    return lookup(DEFAULT_STACKS if stacks is None else stacks, name, "stack")
