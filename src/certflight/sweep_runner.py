"""Parameter sweeps and optimization regions.

sweep_records evaluates the TTFB model over a (stack, rtt, size) grid with
optional size optimizers and per-row noise sampling, and yields the rows
one at a time, as tuples in the columns sweep_header names. sweep_csv and
sweep_gnuplot render the same rows as CSV text and as gnuplot blocks, one
chunk per (stack, rtt) line of the grid. All stream, so memory grows with
the size axis, not with the number of rows; run_sweep lists them. Every
input error is raised when one of them is called, before the first row
exists, so a failed sweep writes nothing.

The grid is factored: the wire size and extra round trips depend only on
(size, optimizer), and the totals only on (stack, rtt, extra round trips),
so each is computed once; sweep_csv likewise renders each line's and each
cell's fixed columns once. A row's mean_ms and std_ms are an exact draw of
the summary of plan.trials noisy trials (see summary_sampler), so the trial
count costs no time. A row's key joins the plan seed with the row's grid
coordinates, and its summary is a pure function of sha256 of that key, with
no generator state between rows, so results are reproducible regardless of
evaluation order and rows can be computed apart and merged: a sweep is the
concatenation, in plan order, of the sweeps of its one-stack, one-rtt plans.
"""

from __future__ import annotations

import io
import math
import struct

from .chain_model import SizeOptimizer, effective_size_kb, original_size_kb
from .config import SweepPlan  # re-exported: the plan is a section of the config
from .errors import ConfigError, Record, lookup
from .tables import csv_line, write_csv
from .transport_flight import FlightModel, extra_rtts
from .ttfb_engine import (  # SavingsEstimate and estimate_savings re-exported
    NoiseModel, SavingsEstimate, StackProfile, estimate_savings, summary_sampler, ttfb_total_ms,
)

SWEEP_FIELDS = ("stack", "rtt_ms", "size_kb", "mean_ms", "std_ms", "extra_rtts", "optimizer")


def sweep_header(optimized: bool) -> tuple[str, ...]:
    """The columns of a sweep's rows: SWEEP_FIELDS, with the optimizer's only
    when the plan has optimizers. sweep_records yields rows of this shape."""
    return SWEEP_FIELDS if optimized else SWEEP_FIELDS[:-1]


def _grid(plan: SweepPlan, stacks: dict[str, StackProfile], flight: FlightModel,
          noise: NoiseModel):
    """Check every size, stack (the plan has checked its rtts) and total, and that no
    total plus its largest noise draw overflows; then factor the plan's grid into its
    lines, its cells and the draw, which every sweep renderer reads."""
    variants = [("", None)] + [(opt.label, opt) for opt in plan.optimizers]
    # Per size and variant, in plan order: the size, the row key's tail, the extra
    # round trips, and the row's last columns: its label, where the plan has optimizers.
    cells = [(size, f"{size!r}|{label}".encode(),
              extra_rtts(flight, size if opt is None else effective_size_kb(size, opt)),
              (label,) if plan.optimizers else ())
             for size in plan.sizes_kb for label, opt in variants]
    extras = {extra for _, _, extra, _ in cells}
    # Per (stack, rtt): the row key's head, and the total of each extra.
    lines = []
    for name in plan.stacks:
        stack = lookup(stacks, name, "stack")
        for rtt in plan.rtts_ms:
            head = f"{plan.seed}|{name}|{rtt!r}|".encode()
            totals = {e: ttfb_total_ms(stack.base_ms, stack.base_flights + e, rtt) for e in extras}
            lines.append((name, rtt, head, totals))
    top = max((t for *_, totals in lines for t in totals.values()), default=0.0)
    # Without noise a row's mean is its total and its spread is 0.
    return lines, cells, summary_sampler(noise, plan.trials, top) or (lambda mu, key: (mu, 0.0))


def _draws(lines, cells, draw):
    """Per (stack, rtt) line, each cell's (mean_ms, std_ms): the only code that draws."""
    for _, _, head, totals in lines:
        yield [draw(totals[extra], head + tail) for _, tail, extra, _ in cells]


def sweep_records(
    plan: SweepPlan,
    stacks: dict[str, StackProfile],
    flight: FlightModel,
    noise: NoiseModel = NoiseModel(),
):
    """An iterator of the grid's rows in canonical order (stack, rtt, size,
    optimizer), as tuples of the values sweep_header(bool(plan.optimizers)) names.

    With optimizers in the plan, each grid point also gets one row per
    optimizer, keyed by the raw size but charged the optimized size's
    round trips. A row's draws come from sha256 of its key, the bytes of
    f"{seed}|{stack}|{rtt!r}|{size!r}|{label}". This call checks every stack,
    rtt, size and total, and that no total plus its largest noise draw
    overflows, before it returns, so the iterator itself raises nothing.
    """
    lines, cells, draw = _grid(plan, stacks, flight, noise)
    return ((name, rtt, size, mean, std, extra) + last
            for (name, rtt, *_), draws in zip(lines, _draws(lines, cells, draw))
            for (size, _, extra, last), (mean, std) in zip(cells, draws))


def sweep_csv(
    plan: SweepPlan,
    stacks: dict[str, StackProfile],
    flight: FlightModel,
    noise: NoiseModel = NoiseModel(),
):
    """The rows of sweep_records as CSV text, byte for byte as write_csv writes
    them under sweep_header: a generator of the header line, then of one chunk
    per (stack, rtt) line. Its inputs are checked as sweep_records checks them,
    before it returns. Each line's and each cell's fixed columns are rendered
    once, by csv_line, so csv decides their quoting; a row formats only its
    mean_ms and std_ms, floats, which csv would write as their repr."""
    return _csv_chunks(sweep_header(bool(plan.optimizers)), *_grid(plan, stacks, flight, noise))


def _csv_chunks(header, lines, cells, draw):
    yield csv_line(header) + "\n"
    # Per cell: the row's text before and after its mean_ms,std_ms.
    fixed = [(csv_line((size,)) + ",", "," + csv_line((extra, *last)) + "\n")
             for size, _, extra, last in cells]
    for (name, rtt, *_), draws in zip(lines, _draws(lines, cells, draw)):
        lead = csv_line((name, rtt)) + ","
        yield "".join([f"{lead}{before}{mean!r},{std!r}{after}"
                       for (before, after), (mean, std) in zip(fixed, draws)])


def sweep_gnuplot(plan: SweepPlan, stacks: dict[str, StackProfile], flight: FlightModel,
                  noise: NoiseModel = NoiseModel()):
    """The rows of sweep_records as two-column (size_kb, mean_ms) blocks, one per
    (stack, rtt, optimizer), which gnuplot's `index` addresses: a generator of one chunk
    per (stack, rtt) line. Its inputs are checked as sweep_records checks them, before
    it returns. A title names the rtt by its repr, so RTTs 0.0 and -0.0 are two, and
    writes a stack name's line breaks as \\n and \\r, so that it stays one comment line."""
    labels = [""] + [f" optimizer={opt.label}" for opt in plan.optimizers]
    return _gnuplot_chunks(labels, *_grid(plan, stacks, flight, noise))


def _gnuplot_chunks(labels, lines, cells, draw):
    variants = len(labels)
    for i, ((name, rtt, *_), draws) in enumerate(zip(lines, _draws(lines, cells, draw))):
        name = name.replace("\r", "\\r").replace("\n", "\\n")
        # Blocks are separated by two blank lines: each ends its last point's line.
        yield "\n\n" * (i > 0) + "\n\n".join(
            f"# stack={name} rtt_ms={rtt!r}{label}\n" + "".join(
                [f"{size!r} {mean!r}\n" for (size, *_), (mean, _)
                 in zip(cells[v::variants], draws[v::variants])])
            for v, label in enumerate(labels))


def run_sweep(
    plan: SweepPlan,
    stacks: dict[str, StackProfile],
    flight: FlightModel,
    noise: NoiseModel = NoiseModel(),
) -> list[tuple]:
    """The rows of sweep_records, listed. Unknown stack names fail before
    any row is produced."""
    return list(sweep_records(plan, stacks, flight, noise))


def emit_csv(records: list[tuple]) -> str:
    """Render the rows of run_sweep as CSV, headed by the columns of their
    width: the optimizer's only when the plan had optimizers."""
    optimized = bool(records) and len(records[0]) == len(SWEEP_FIELDS)
    out = io.StringIO()
    write_csv(out, sweep_header(optimized), records)
    return out.getvalue()


# ------------------------------------------------------------ regions


class OptimizationRegion(Record, frozen=True):
    """Chain sizes for which an optimizer keeps the wire size at or
    under a flight threshold that the raw size would exceed.

    upper_kb_exact is the largest float size whose effective size is at
    most the threshold; upper_kb_rounded is its round-half-even integer
    display form.
    """

    optimizer: str
    threshold_kb: float
    lower_kb: float
    upper_kb_exact: float
    upper_kb_rounded: int
    _bounds = {"threshold_kb": "> 1"}


REGION_FIELDS = OptimizationRegion._fields
_DOUBLE = struct.Struct(">d")
_MAX_BITS = 0x7FEF_FFFF_FFFF_FFFF  # the bit pattern of the largest finite float


def _region_upper(threshold: float, optimizer: SizeOptimizer, upper: float) -> float:
    """The largest float size that optimizer keeps at or under threshold.

    upper, the closed form, may miss it by a few ulps, or by very many where
    adding the offset rounds a long run of small sizes to one wire size. So
    the search runs over the bit patterns of the floats >= 0, which order as
    the floats do: it gallops from upper to a bracket, then bisects, at most
    64 steps each.
    """
    def fits(bits):
        return bits <= _MAX_BITS and effective_size_kb(
            _DOUBLE.unpack(bits.to_bytes(8, "big"))[0], optimizer) <= threshold

    lo = hi = int.from_bytes(_DOUBLE.pack(upper), "big")
    step = 1
    if fits(lo):
        while fits(hi):
            lo, hi, step = hi, hi + step, 2 * step
    else:  # size 0 fits: its wire size is the offset, at most 1 KB, under threshold
        while not fits(lo):
            hi, lo, step = lo, max(lo - step, 0), 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return _DOUBLE.unpack(lo.to_bytes(8, "big"))[0]


def compute_regions(
    thresholds_kb: list[float], optimizers: list[SizeOptimizer]
) -> list[OptimizationRegion]:
    if not thresholds_kb:
        raise ConfigError("need at least one threshold")
    if not optimizers:
        raise ConfigError("need at least one optimizer")
    regions = []
    for optimizer in optimizers:
        for threshold in thresholds_kb:
            # Checked before the search, which needs a size 0 that fits (see _region_upper).
            threshold = OptimizationRegion.check_field("threshold_kb", threshold)
            upper = original_size_kb(threshold, optimizer)
            if upper == math.inf:
                raise ConfigError(f"threshold {threshold} KB: no finite {optimizer.label} region")
            upper = _region_upper(threshold, optimizer, upper)
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


def detect_thresholds_from_rows(rows: list[tuple], rtt_ms: float) -> list[float]:
    """Read thresholds off a finished sweep: sizes where the mean TTFB
    at one RTT steps up by more than half an RTT. An independent check
    on find_thresholds, driven by model output rather than the flight
    model."""
    if rtt_ms <= 0:
        raise ValueError("needs a positive rtt to see steps")
    curve = sorted(
        ((stack, size, mean) for stack, rtt, size, mean, _, _, *label in rows
         if rtt == rtt_ms and not any(label)),
        key=lambda r: r[:2],
    )
    thresholds = []
    for (stack, size, mean), (next_stack, _, next_mean) in zip(curve, curve[1:]):
        if next_stack == stack and next_mean - mean > rtt_ms / 2:
            thresholds.append(size)
    return thresholds
