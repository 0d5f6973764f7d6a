"""Parameter sweeps, optimization regions, and resumption savings.

run_sweep evaluates the TTFB model over a (stack, rtt, size) grid with
optional size optimizers and per-row noise sampling. A row's mean_ms and
std_ms are an exact draw of the summary of plan.trials noisy trials (see
sample_ttfb), so the trial count costs no time. Per-row RNG seeds
are derived by hashing the plan seed with the row's grid coordinates,
so results are reproducible regardless of evaluation order and rows can
be computed concurrently and merged.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass

from .chain_model import SizeOptimizer, effective_size_kb, original_size_kb
from .errors import ConfigError, check_fields
from .transport_flight import FlightModel, check_grid_points
from .ttfb_engine import NetworkPath, NoiseModel, StackProfile, estimate_ttfb, sample_ttfb

DEFAULT_RTTS_MS = (0.0, 10.0, 50.0, 100.0, 200.0)


@dataclass(frozen=True)
class SweepPlan:
    stacks: tuple[str, ...] = ("ClassicalSim",)
    rtts_ms: tuple[float, ...] = DEFAULT_RTTS_MS
    size_start_kb: float = 4.0
    size_end_kb: float = 80.0
    size_step_kb: float = 2.0
    trials: int = 100
    seed: int = 1234
    optimizers: tuple[SizeOptimizer, ...] = ()

    def __post_init__(self):
        check_fields(self)
        if not self.stacks:
            raise ConfigError("plan needs at least one stack")
        if not self.rtts_ms:
            raise ConfigError("plan needs at least one rtt")
        if self.size_step_kb <= 0:
            raise ConfigError("size_step_kb must be positive")
        if self.size_end_kb < self.size_start_kb:
            raise ConfigError("size_end_kb must be >= size_start_kb")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")

    @property
    def sizes_kb(self) -> list[float]:
        steps = (self.size_end_kb - self.size_start_kb) / self.size_step_kb + 1e-9
        check_grid_points(steps + 1)
        return [self.size_start_kb + i * self.size_step_kb for i in range(int(steps) + 1)]


@dataclass(frozen=True)
class SweepRow:
    stack: str
    rtt_ms: float
    size_kb: float
    mean_ms: float
    std_ms: float
    extra_rtts: int
    optimizer: str = ""


def _row_seed(plan_seed: int, stack: str, rtt: float, size: float, optimizer: str) -> int:
    key = f"{plan_seed}|{stack}|{rtt!r}|{size!r}|{optimizer}"
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")


def run_sweep(
    plan: SweepPlan,
    stacks: dict[str, StackProfile],
    flight: FlightModel,
    noise: NoiseModel = NoiseModel(),
) -> list[SweepRow]:
    """Evaluate the grid in canonical order (stack, rtt, size, optimizer).

    With optimizers in the plan, each grid point also gets one row per
    optimizer, keyed by the raw size but charged the optimized size's
    round trips. Unknown stack names fail before any row is produced.
    """
    missing = [name for name in plan.stacks if name not in stacks]
    if missing:
        raise ConfigError(f"unknown stacks in plan: {', '.join(missing)}")
    sizes = plan.sizes_kb
    variants = [("", None)] + [(opt.label, opt) for opt in plan.optimizers]
    rows = []
    for stack_name in plan.stacks:
        stack = stacks[stack_name]
        for rtt in plan.rtts_ms:
            path = NetworkPath(rtt_ms=rtt, flight=flight)
            for size in sizes:
                for label, opt in variants:
                    wire_kb = size if opt is None else effective_size_kb(size, opt)
                    estimate = estimate_ttfb(stack, path, wire_kb)
                    summary = sample_ttfb(
                        estimate, noise, plan.trials,
                        seed=_row_seed(plan.seed, stack_name, rtt, size, label),
                    )
                    rows.append(
                        SweepRow(
                            stack=stack_name,
                            rtt_ms=rtt,
                            size_kb=size,
                            mean_ms=summary.mean_ms,
                            std_ms=summary.std_ms,
                            extra_rtts=estimate.extra_rtts,
                            optimizer=label,
                        )
                    )
    return rows


_BASE_FIELDS = ("stack", "rtt_ms", "size_kb", "mean_ms", "std_ms", "extra_rtts")


def _has_optimizers(rows: list[SweepRow]) -> bool:
    return any(r.optimizer for r in rows)


def emit_csv(rows: list[SweepRow]) -> str:
    """Render rows as CSV. Floats use repr, so values round-trip exactly.

    The optimizer column appears only when some row carries an optimizer.
    """
    fields = _BASE_FIELDS + ("optimizer",) if _has_optimizers(rows) else _BASE_FIELDS
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(fields)
    for r in rows:
        record = [r.stack, repr(r.rtt_ms), repr(r.size_kb), repr(r.mean_ms),
                  repr(r.std_ms), r.extra_rtts]
        if len(fields) == 7:
            record.append(r.optimizer)
        writer.writerow(record)
    return out.getvalue()


def rows_from_csv(text: str) -> list[SweepRow]:
    reader = csv.DictReader(io.StringIO(text))
    rows = []
    for rec in reader:
        rows.append(
            SweepRow(
                stack=rec["stack"],
                rtt_ms=float(rec["rtt_ms"]),
                size_kb=float(rec["size_kb"]),
                mean_ms=float(rec["mean_ms"]),
                std_ms=float(rec["std_ms"]),
                extra_rtts=int(rec["extra_rtts"]),
                optimizer=rec.get("optimizer", "") or "",
            )
        )
    return rows


def emit_json(rows: list[SweepRow]) -> str:
    keep_opt = _has_optimizers(rows)
    payload = []
    for r in rows:
        d = {
            "stack": r.stack,
            "rtt_ms": r.rtt_ms,
            "size_kb": r.size_kb,
            "mean_ms": r.mean_ms,
            "std_ms": r.std_ms,
            "extra_rtts": r.extra_rtts,
        }
        if keep_opt:
            d["optimizer"] = r.optimizer
        payload.append(d)
    return json.dumps(payload, indent=2) + "\n"


def rows_from_json(text: str) -> list[SweepRow]:
    return [SweepRow(**{**{"optimizer": ""}, **rec}) for rec in json.loads(text)]


def emit_gnuplot(rows: list[SweepRow]) -> str:
    """Two-column (size_kb, mean_ms) blocks, one per (stack, rtt, optimizer).

    Blocks are separated by two blank lines, addressable with gnuplot's
    `index` keyword.
    """
    series: dict[tuple[str, float, str], list[SweepRow]] = {}
    for r in rows:
        series.setdefault((r.stack, r.rtt_ms, r.optimizer), []).append(r)
    blocks = []
    for (stack, rtt, optimizer), members in series.items():
        title = f"# stack={stack} rtt_ms={rtt!r}"
        if optimizer:
            title += f" optimizer={optimizer}"
        body = "\n".join(f"{m.size_kb!r} {m.mean_ms!r}" for m in members)
        blocks.append(f"{title}\n{body}\n")
    return "\n\n".join(blocks)


# ------------------------------------------------------------ regions


@dataclass(frozen=True)
class OptimizationRegion:
    """Chain sizes for which an optimizer keeps the wire size at or
    under a flight threshold that the raw size would exceed.

    upper_kb_exact solves effective_size(upper) == threshold in closed
    form; upper_kb_rounded is its round-half-even integer display form.
    """

    optimizer: str
    threshold_kb: float
    lower_kb: float
    upper_kb_exact: float
    upper_kb_rounded: int


def compute_regions(
    thresholds_kb: list[float], optimizers: list[SizeOptimizer]
) -> list[OptimizationRegion]:
    if not thresholds_kb:
        raise ConfigError("need at least one threshold")
    regions = []
    for optimizer in optimizers:
        for threshold in thresholds_kb:
            if not 1 < threshold < math.inf:
                raise ConfigError("thresholds must be finite and above 1 KB to have a region")
            upper = original_size_kb(threshold, optimizer)
            if upper == math.inf:
                raise ConfigError(f"threshold {threshold} KB: no finite {optimizer.label} region")
            regions.append(
                OptimizationRegion(
                    optimizer=optimizer.label,
                    threshold_kb=threshold,
                    lower_kb=threshold,
                    upper_kb_exact=upper,
                    upper_kb_rounded=round(upper),
                )
            )
    return regions


def regions_csv(regions: list[OptimizationRegion]) -> str:
    lines = ["optimizer,threshold_kb,lower_kb,upper_kb_exact,upper_kb_rounded"]
    for r in regions:
        lines.append(
            f"{r.optimizer},{r.threshold_kb!r},{r.lower_kb!r},"
            f"{r.upper_kb_exact!r},{r.upper_kb_rounded}"
        )
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------ savings


@dataclass(frozen=True)
class SavingsEstimate:
    rtt_ms: float
    chain_size_kb: float
    resumption_rate: float
    expected_savings_ms: float
    full_ms: float
    resumed_ms: float


def estimate_savings(
    stack: StackProfile,
    path: NetworkPath,
    chain_size_kb: float,
    resumption_rate: float,
) -> SavingsEstimate:
    """Expected TTFB saved per connection by session resumption.

    savings = rate * (full handshake TTFB - resumed TTFB) at this
    chain size and path.
    """
    if not 0 <= resumption_rate <= 1:
        raise ConfigError("resumption_rate must be within [0, 1]")
    full = estimate_ttfb(stack, path, chain_size_kb, resumed=False)
    resumed = estimate_ttfb(stack, path, chain_size_kb, resumed=True)
    return SavingsEstimate(
        rtt_ms=path.rtt_ms,
        chain_size_kb=chain_size_kb,
        resumption_rate=resumption_rate,
        expected_savings_ms=resumption_rate * (full.total_ms - resumed.total_ms),
        full_ms=full.total_ms,
        resumed_ms=resumed.total_ms,
    )


def detect_thresholds_from_rows(rows: list[SweepRow], rtt_ms: float) -> list[float]:
    """Read thresholds off a finished sweep: sizes where the mean TTFB
    at one RTT steps up by more than half an RTT. An independent check
    on find_thresholds, driven by model output rather than the flight
    model."""
    if rtt_ms <= 0:
        raise ValueError("needs a positive rtt to see steps")
    curve = sorted(
        (r for r in rows if r.rtt_ms == rtt_ms and not r.optimizer),
        key=lambda r: (r.stack, r.size_kb),
    )
    thresholds = []
    for prev, cur in zip(curve, curve[1:]):
        if cur.stack == prev.stack and cur.mean_ms - prev.mean_ms > rtt_ms / 2:
            thresholds.append(prev.size_kb)
    return thresholds
