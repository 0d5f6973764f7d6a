import csv
import hashlib
import io
import json
import math
import sys
from operator import attrgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from certflight.chain_model import DEFAULT_OPTIMIZERS, SizeOptimizer, effective_size_kb
from certflight import chain_model
from certflight.errors import ConfigError
from certflight.sweep_runner import (
    REGION_FIELDS,
    SweepPlan,
    compute_regions,
    detect_thresholds_from_rows,
    emit_csv,
    estimate_savings,
    run_sweep,
    sweep_csv,
    sweep_header,
    sweep_gnuplot,
    sweep_records,
)
from certflight.tables import write_csv, write_json
from certflight.transport_flight import (
    ANALYTIC, EMPIRICAL, MAX_GRID_POINTS, FlightModel, find_thresholds,
)
from certflight.ttfb_engine import (
    DEFAULT_STACKS, NetworkPath, NoiseModel, StackProfile, estimate_ttfb, summary_sampler,
)

from reference_data import REGION_UPPERS

FLIGHT = FlightModel(mode=EMPIRICAL, empirical_thresholds_kb=(10.0, 40.0))
QUIET = NoiseModel("none")


def small_plan(**overrides):
    defaults = dict(
        stacks=("ClassicalSim",),
        rtts_ms=(10.0, 50.0),
        size_start_kb=4.0,
        size_end_kb=16.0,
        size_step_kb=4.0,
        trials=5,
        seed=42,
    )
    defaults.update(overrides)
    return SweepPlan(**defaults)


def test_default_plan_grid():
    plan = SweepPlan()
    assert len(plan.sizes_kb) == 39
    assert plan.sizes_kb[0] == 4.0
    assert plan.sizes_kb[-1] == 80.0
    assert plan.trials == 100


def test_plan_validation():
    with pytest.raises(ConfigError):
        SweepPlan(stacks=())
    with pytest.raises(ConfigError):
        SweepPlan(size_step_kb=0.0)
    with pytest.raises(ConfigError):
        SweepPlan(size_end_kb=2.0, size_start_kb=4.0)
    with pytest.raises(ConfigError):
        SweepPlan(trials=0)
    with pytest.raises(ConfigError, match=r"^rtts_ms must be >= 0, got -5\.0$"):
        SweepPlan(rtts_ms=(10, -5, 0))
    assert SweepPlan(rtts_ms=(-0.0,)).rtts_ms == (-0.0,)  # a signed zero is no negative rtt


def test_plan_rejects_repeated_optimizer_labels():
    # Two factors that round to one label would share that label's row seeds.
    for pair in ((DEFAULT_OPTIMIZERS[2],) * 2,
                 (SizeOptimizer(chain_model.CDN_MODERATE, factor=0.75),
                  SizeOptimizer(chain_model.CDN_MODERATE, factor=0.751))):
        with pytest.raises(ConfigError, match="cdn-moderate-25pct is listed twice"):
            small_plan(optimizers=pair)


@pytest.mark.parametrize("overrides, repeated", [
    ({"stacks": ("ClassicalSim", "OqsMldsa", "ClassicalSim")}, "stack ClassicalSim"),
    ({"rtts_ms": (10.0, 50.0, 10)}, "rtt 10.0"),
])
def test_plan_rejects_a_repeated_stack_or_rtt(overrides, repeated):
    # Both key the row seeds, so a repeat would print the same rows twice.
    with pytest.raises(ConfigError, match=f"{repeated} is listed twice"):
        small_plan(**overrides)


def test_plan_rejects_an_oversized_size_grid():
    # Checked when the sizes are listed, before any row is evaluated.
    for step in (1e-9, 1e-320):
        with pytest.raises(ConfigError, match="size grid"):
            run_sweep(small_plan(size_step_kb=step), DEFAULT_STACKS, FLIGHT, QUIET)
    # The limit is on points, not on the span; the plan refuses them when it is made.
    with pytest.raises(ConfigError, match="size grid"):
        SweepPlan(size_start_kb=0.0, size_end_kb=float(MAX_GRID_POINTS), size_step_kb=1.0)
    coarse = SweepPlan(size_start_kb=0.0, size_end_kb=1e12, size_step_kb=1e9)
    assert len(coarse.sizes_kb) == 1001


def test_sweep_grid_shape_and_order():
    plan = small_plan()
    rows = run_sweep(plan, DEFAULT_STACKS, FLIGHT, QUIET)
    assert len(rows) == 2 * 4  # rtts x sizes
    assert [r[1:3] for r in rows[:4]] == [
        (10.0, 4.0), (10.0, 8.0), (10.0, 12.0), (10.0, 16.0),
    ]
    assert all(r[0] == "ClassicalSim" for r in rows)
    assert all(len(r) == len(sweep_header(False)) for r in rows)  # no optimizer column


def test_sweep_means_track_the_deterministic_model():
    rows = run_sweep(small_plan(), DEFAULT_STACKS, FLIGHT, QUIET)
    by_size = {r[1:3]: r for r in rows}
    assert by_size[(50.0, 8.0)][3] == pytest.approx(108.3)
    assert by_size[(50.0, 12.0)][3] == pytest.approx(158.3)
    assert by_size[(50.0, 8.0)][5] == 0
    assert by_size[(50.0, 12.0)][5] == 1


def test_sweep_unknown_stack_fails_before_running():
    with pytest.raises(ConfigError):
        run_sweep(small_plan(stacks=("Nonesuch",)), DEFAULT_STACKS, FLIGHT, QUIET)


def test_sweep_deterministic_per_seed():
    noise = NoiseModel("gaussian", std_ms=0.4)
    a = run_sweep(small_plan(), DEFAULT_STACKS, FLIGHT, noise)
    b = run_sweep(small_plan(), DEFAULT_STACKS, FLIGHT, noise)
    assert a == b
    c = run_sweep(small_plan(seed=43), DEFAULT_STACKS, FLIGHT, noise)
    assert a != c


def test_row_noise_is_independent_of_grid_membership():
    # The same (stack, rtt, size) cell gets the same draws whether or
    # not other cells are in the plan.
    noise = NoiseModel("gaussian", std_ms=0.4)
    wide = run_sweep(small_plan(), DEFAULT_STACKS, FLIGHT, noise)
    narrow = run_sweep(
        small_plan(rtts_ms=(50.0,), size_start_kb=8.0, size_end_kb=8.0),
        DEFAULT_STACKS, FLIGHT, noise,
    )
    wide_cell = next(r for r in wide if r[1:3] == (50.0, 8.0))
    assert narrow == [wide_cell]


def test_criterion_9_csv_is_pinned():
    """The noisy sweep of acceptance criterion 9 hashes to one golden value.

    This pins the sampled values, and with them summary_sampler's draws:
    each row is drawn from sha256 of its key (no seed is derived from that
    hash), by Box-Muller and the Marsaglia-Tsang gamma. The
    draws also run through math.log, math.cos and math.sin, which come from
    the platform's libm, as random.gauss's do. Any change to how a
    row's summary is drawn (or to those functions' last bits) must update
    this hash in a visible test edit.
    """
    plan = SweepPlan(
        stacks=("ClassicalSim", "OqsMldsa"),
        rtts_ms=(10.0, 50.0),
        size_start_kb=4.0,
        size_end_kb=40.0,
        size_step_kb=4.0,
        trials=20,
        seed=777,
        optimizers=(
            SizeOptimizer(chain_model.MTC_ONE_INTERMEDIATE),
            SizeOptimizer(chain_model.CDN_MODERATE, factor=0.75),
        ),
    )
    noise = NoiseModel("gaussian", std_ms=0.3)
    text = emit_csv(run_sweep(plan, DEFAULT_STACKS, FlightModel(mode=EMPIRICAL), noise))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f36f9fc7961750588958ffef3b44037e1e8dbd1709d644972191913798ab4643"
    )


def test_without_a_builtin_sha256_the_sampler_takes_hashlibs_and_draws_the_same_rows(
        monkeypatch):
    """Where the interpreter has neither _sha2 nor _sha256, the sampler hashes with
    hashlib.sha256, and the sweep's CSV is byte for byte the built-in one's. The
    plan's 40 rows take 41 hashes: one row's first gamma candidate is rejected."""
    from certflight import ttfb_engine

    plan = small_plan(trials=3, seed=2368, size_end_kb=80.0)
    noise = NoiseModel("gaussian", std_ms=0.5)
    assert ttfb_engine._sha256() is not hashlib.sha256
    builtin = "".join(sweep_csv(plan, DEFAULT_STACKS, FLIGHT, noise))
    for name in ("_sha2", "_sha256"):
        monkeypatch.setitem(sys.modules, name, None)
    real, hashed = hashlib.sha256, []
    monkeypatch.setattr(hashlib, "sha256", lambda data: hashed.append(data) or real(data))
    assert ttfb_engine._sha256() is hashlib.sha256
    assert "".join(sweep_csv(plan, DEFAULT_STACKS, FLIGHT, noise)) == builtin
    assert len(hashed) == 41


def test_row_key_draws_are_unbiased_and_uncorrelated():
    """Over 12,240 rows, each drawn from sha256 of its own key, the mean's
    normal z = (mean_ms - total) / (sigma / sqrt(n)) has mean 0, variance 1
    and no lag-1 correlation between consecutive rows, and (n - 1) std^2 /
    sigma^2 has the chi2(n - 1) mean n - 1. The seed is fixed, so the test
    is deterministic; each band is about 6 standard errors of its statistic."""
    plan = SweepPlan(stacks=tuple(DEFAULT_STACKS), rtts_ms=tuple(range(0, 200, 10)),
                     size_start_kb=4.0, size_end_kb=80.0, size_step_kb=0.5, trials=20, seed=2024)
    sigma, n = 0.3, plan.trials
    noisy = run_sweep(plan, DEFAULT_STACKS, FLIGHT, NoiseModel("gaussian", std_ms=sigma))
    quiet = run_sweep(plan, DEFAULT_STACKS, FLIGHT, QUIET)
    rows = len(noisy)
    assert rows == len(quiet) == 12_240
    z = [(row[3] - exact[3]) / (sigma / math.sqrt(n)) for row, exact in zip(noisy, quiet)]
    chi2 = [(n - 1) * row[4] ** 2 / sigma**2 for row in noisy]
    z_mean = sum(z) / rows
    z_var = sum((v - z_mean) ** 2 for v in z) / (rows - 1)
    lag1 = sum((a - z_mean) * (b - z_mean) for a, b in zip(z, z[1:])) / ((rows - 1) * z_var)
    assert abs(z_mean) < 6 / math.sqrt(rows)
    assert abs(z_var - 1) < 6 * math.sqrt(2 / rows)
    assert abs(lag1) < 6 / math.sqrt(rows)
    assert abs(sum(chi2) / rows - (n - 1)) < 6 * math.sqrt(2 * (n - 1) / rows)


def test_optimizer_rows_shrink_the_wire_size():
    mtc1 = SizeOptimizer(chain_model.MTC_ONE_INTERMEDIATE)
    rows = run_sweep(small_plan(optimizers=(mtc1,)), DEFAULT_STACKS, FLIGHT, QUIET)
    assert len(rows) == 2 * 4 * 2
    base = next(r for r in rows if r[1:3] == (50.0, 12.0) and not r[6])
    opt = next(r for r in rows if r[1:3] == (50.0, 12.0) and r[6])
    assert opt[6] == "mtc-one-intermediate"
    # 12 KB shrinks to 7 KB, back under the first threshold.
    assert effective_size_kb(12.0, mtc1) == 7.0
    assert base[5] == 1 and opt[5] == 0
    assert opt[3] == pytest.approx(108.3)


def test_csv_round_trip_is_exact():
    noise = NoiseModel("gaussian", std_ms=0.4)
    rows = run_sweep(small_plan(), DEFAULT_STACKS, FLIGHT, noise)
    parsed = list(csv.DictReader(io.StringIO(emit_csv(rows))))
    assert len(parsed) == len(rows)
    for rec, row in zip(parsed, rows):
        expected = dict(zip(sweep_header(False), row))
        assert len(row) == len(expected) and rec.keys() == expected.keys()
        # Each field read back as its own type equals the row's value exactly.
        assert {name: type(value)(rec[name]) for name, value in expected.items()} == expected


def test_csv_optimizer_column_only_when_used():
    rows = run_sweep(small_plan(), DEFAULT_STACKS, FLIGHT, QUIET)
    header = emit_csv(rows).splitlines()[0]
    assert header == "stack,rtt_ms,size_kb,mean_ms,std_ms,extra_rtts"
    mtc1 = SizeOptimizer(chain_model.MTC_ONE_INTERMEDIATE)
    rows = run_sweep(small_plan(optimizers=(mtc1,)), DEFAULT_STACKS, FLIGHT, QUIET)
    header = emit_csv(rows).splitlines()[0]
    assert header.endswith(",optimizer")


def test_json_round_trip_is_exact():
    noise = NoiseModel("gaussian", std_ms=0.4)
    out = io.StringIO()
    write_json(out, sweep_header(False),
               sweep_records(small_plan(), DEFAULT_STACKS, FLIGHT, noise))
    rows = run_sweep(small_plan(), DEFAULT_STACKS, FLIGHT, noise)
    assert all(len(row) == len(sweep_header(False)) for row in rows)
    assert json.loads(out.getvalue()) == [dict(zip(sweep_header(False), row)) for row in rows]


def gnuplot_blocks(plan):
    text = "".join(sweep_gnuplot(plan, DEFAULT_STACKS, FLIGHT, QUIET))
    return text.rstrip("\n").split("\n\n\n")


def test_gnuplot_blocks():
    blocks = gnuplot_blocks(small_plan())
    assert len(blocks) == 2  # one per rtt
    assert blocks[0].startswith("# stack=ClassicalSim rtt_ms=10.0")
    first_data = blocks[0].splitlines()[1]
    size, mean = first_data.split()
    assert float(size) == 4.0
    assert float(mean) == pytest.approx(28.3)
    # 0.0 and -0.0 compare equal, but a plan takes them as two RTTs: two curves.
    zero, minus_zero = gnuplot_blocks(small_plan(rtts_ms=(0.0, -0.0)))
    assert zero.startswith("# stack=ClassicalSim rtt_ms=0.0\n") and zero.count("\n") == 4
    assert minus_zero.startswith("# stack=ClassicalSim rtt_ms=-0.0\n")
    assert minus_zero.split("\n")[1:] == zero.split("\n")[1:]  # one point per size each


def test_gnuplot_yields_one_chunk_per_line_in_plan_order():
    mtc1 = SizeOptimizer(chain_model.MTC_ONE_INTERMEDIATE)
    plan = small_plan(stacks=("ClassicalSim", "OqsMldsa"), rtts_ms=(10.0, 0.0, -0.0),
                      optimizers=(mtc1,))
    noise = NoiseModel("gaussian", std_ms=0.4)
    chunks = list(sweep_gnuplot(plan, DEFAULT_STACKS, FLIGHT, noise))
    lines = [(stack, rtt) for stack in plan.stacks for rtt in plan.rtts_ms]
    assert len(chunks) == len(lines)
    for i, ((stack, rtt), chunk) in enumerate(zip(lines, chunks)):
        # A line's chunk is its one-stack, one-rtt sweep's blocks, after the blank
        # lines that separate it from the line before.
        part = plan.replace(stacks=(stack,), rtts_ms=(rtt,))
        (alone,) = sweep_gnuplot(part, DEFAULT_STACKS, FLIGHT, noise)
        assert chunk == ("\n\n" if i else "") + alone
        titles = [line for line in chunk.split("\n") if line.startswith("#")]
        assert titles == [f"# stack={stack} rtt_ms={rtt!r}",
                          f"# stack={stack} rtt_ms={rtt!r} optimizer={mtc1.label}"]


def test_regions_cover_pinned_bounds():
    regions = compute_regions([10.0, 40.0], list(DEFAULT_OPTIMIZERS))
    assert len(regions) == 8
    for region in regions:
        expected = REGION_UPPERS[(region.optimizer, region.threshold_kb)]
        assert region.lower_kb == region.threshold_kb
        assert region.upper_kb_rounded == expected
        assert region.upper_kb_exact >= region.lower_kb


def test_regions_validation():
    with pytest.raises(ConfigError):
        compute_regions([], list(DEFAULT_OPTIMIZERS))
    with pytest.raises(ConfigError):
        compute_regions([1.0], list(DEFAULT_OPTIMIZERS))
    with pytest.raises(ConfigError, match="optimizer"):
        compute_regions([10.0], [])


def test_regions_csv_shape():
    out = io.StringIO()
    regions = compute_regions([10.0], [SizeOptimizer(chain_model.MTC_ONE_INTERMEDIATE)])
    write_csv(out, REGION_FIELDS, map(attrgetter(*REGION_FIELDS), regions))
    lines = out.getvalue().splitlines()
    assert lines[0] == "optimizer,threshold_kb,lower_kb,upper_kb_exact,upper_kb_rounded"
    assert lines[1].startswith("mtc-one-intermediate,10.0,10.0,18.0,18")


def test_savings_formula():
    stack = DEFAULT_STACKS["ClassicalSim"]
    path = NetworkPath(rtt_ms=50.0, flight=FLIGHT)
    est = estimate_savings(stack, path, 11.9, 0.803)
    assert est.full_ms == pytest.approx(158.3)
    assert est.resumed_ms == pytest.approx(107.2)
    assert est.expected_savings_ms == pytest.approx(0.803 * 51.1)
    zero = estimate_savings(stack, path, 11.9, 0.0)
    assert zero.expected_savings_ms == 0.0
    with pytest.raises(ConfigError):
        estimate_savings(stack, path, 11.9, 1.2)


def test_thresholds_visible_in_sweep_output():
    plan = SweepPlan(stacks=("ClassicalSim",), rtts_ms=(50.0,), trials=3)
    rows = run_sweep(plan, DEFAULT_STACKS, FLIGHT, QUIET)
    assert detect_thresholds_from_rows(rows, 50.0) == [10.0, 40.0]
    with pytest.raises(ValueError):
        detect_thresholds_from_rows(rows, 0.0)


def test_plan_replace_keeps_validation():
    plan = small_plan()
    with pytest.raises(ConfigError):
        plan.replace(trials=-1)


def test_a_threshold_without_a_finite_region_names_itself_and_the_optimizer():
    for optimizer in DEFAULT_OPTIMIZERS:
        with pytest.raises(ConfigError, match=f"threshold 1.7e\\+308 KB: no finite {optimizer.label} region"):
            compute_regions([10.0, 1.7e308], [optimizer])


MTC1, MTC2, CDN25, CDN40 = DEFAULT_OPTIMIZERS


@settings(max_examples=300, deadline=None)
@given(st.floats(1.0, 1e300, exclude_min=True), st.sampled_from(DEFAULT_OPTIMIZERS))
# The closed form put these edges one ulp outside or inside their regions.
@example(14.0, CDN40)
@example(94.0, CDN40)
@example(38.0, CDN25)
@example(94.0, CDN25)
# Adding mtc's 1 KB offset rounds a long run of tiny sizes to one wire size.
@example(math.nextafter(1.0, 2.0), MTC1)
@example(1.0000001, MTC2)
def test_a_region_edge_is_the_last_float_inside_it(threshold, optimizer):
    (region,) = compute_regions([threshold], [optimizer])
    upper = region.upper_kb_exact
    assert effective_size_kb(upper, optimizer) <= threshold
    assert threshold < effective_size_kb(math.nextafter(upper, math.inf), optimizer)


def test_region_edges_near_the_float_limit():
    # mtc's offset leaves every finite size under 1e308 KB: no finite region.
    for optimizer in (MTC1, MTC2):
        with pytest.raises(ConfigError, match="no finite"):
            compute_regions([1e308], [optimizer])
    for optimizer in (CDN25, CDN40):
        (region,) = compute_regions([1e308], [optimizer])
        upper = region.upper_kb_exact
        assert effective_size_kb(upper, optimizer) <= 1e308
        assert 1e308 < effective_size_kb(math.nextafter(upper, math.inf), optimizer)
    # The largest finite float itself fits cdn25 here, so the edge is that float.
    threshold = effective_size_kb(sys.float_info.max, CDN25)
    (region,) = compute_regions([threshold], [CDN25])
    assert region.upper_kb_exact == sys.float_info.max


# ------------------------------------------------------------ per-row oracle


def _row_key(plan_seed, stack, rtt, size, optimizer):
    return f"{plan_seed}|{stack}|{rtt!r}|{size!r}|{optimizer}".encode()


def oracle_rows(plan, stacks, flight, noise):
    """The sweep evaluated one row at a time, each row on its own."""
    variants = [("", None)] + [(opt.label, opt) for opt in plan.optimizers]
    draw = summary_sampler(noise, plan.trials)
    rows = []
    for stack_name in plan.stacks:
        for rtt in plan.rtts_ms:
            path = NetworkPath(rtt_ms=rtt, flight=flight)
            for size in plan.sizes_kb:
                for label, opt in variants:
                    wire_kb = size if opt is None else effective_size_kb(size, opt)
                    estimate = estimate_ttfb(stacks[stack_name], path, wire_kb)
                    mean, std = estimate.total_ms, 0.0
                    if draw is not None:
                        key = _row_key(plan.seed, stack_name, rtt, size, label)
                        mean, std = draw(mean, key)
                    rows.append((stack_name, rtt, size, mean, std, estimate.extra_rtts, label))
    return rows


def oracle_csv(rows):
    """rows: (stack, rtt, size, mean, std, extra, optimizer label) tuples."""
    fields = ["stack", "rtt_ms", "size_kb", "mean_ms", "std_ms", "extra_rtts"]
    if any(label for *_, label in rows):
        fields.append("optimizer")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(fields)
    for stack, rtt, size, mean, std, extra, label in rows:
        record = [stack, repr(rtt), repr(size), repr(mean), repr(std), extra]
        if len(fields) == 7:
            record.append(label)
        writer.writerow(record)
    return out.getvalue()


def oracle_json(rows):
    keep_opt = any(label for *_, label in rows)
    payload = []
    for stack, rtt, size, mean, std, extra, label in rows:
        d = {
            "stack": stack,
            "rtt_ms": rtt,
            "size_kb": size,
            "mean_ms": mean,
            "std_ms": std,
            "extra_rtts": extra,
        }
        if keep_opt:
            d["optimizer"] = label
        payload.append(d)
    return json.dumps(payload, indent=2) + "\n"


def oracle_gnuplot(rows):
    series = {}
    for stack, rtt, size, mean, _, _, label in rows:
        series.setdefault((stack, repr(rtt), label), []).append((size, mean))
    blocks = []
    for (stack, rtt, optimizer), members in series.items():
        name = stack.replace("\r", "\\r").replace("\n", "\\n")
        title = f"# stack={name} rtt_ms={rtt}"
        if optimizer:
            title += f" optimizer={optimizer}"
        body = "\n".join(f"{size!r} {mean!r}" for size, mean in members)
        blocks.append(f"{title}\n{body}\n")
    return "\n\n".join(blocks)


# Stacks whose names the CSV writer has to quote, and JSON has to escape.
ODD_STACK = 'édge,"q"\\'
LINE_STACK = "two\nlines"
STACKS = {**DEFAULT_STACKS, ODD_STACK: StackProfile(ODD_STACK, base_ms=0.0, base_flights=1.0),
          LINE_STACK: StackProfile(LINE_STACK, base_ms=2.5, base_flights=2.0)}

_optimizer = st.one_of(
    st.sampled_from(DEFAULT_OPTIMIZERS + (SizeOptimizer(chain_model.IDENTITY),)),
    st.builds(SizeOptimizer, st.sampled_from([chain_model.CDN_MODERATE, chain_model.CDN_AGGRESSIVE]),
              st.floats(0.01, 0.99)),
)
_flight = st.one_of(
    st.builds(FlightModel, mode=st.just(EMPIRICAL), empirical_thresholds_kb=st.lists(
        st.floats(0.5, 100), max_size=3, unique=True).map(lambda t: tuple(sorted(t)))),
    st.builds(FlightModel, mode=st.just(ANALYTIC), iw_bytes=st.integers(1000, 50_000),
              growth_factor=st.floats(1.1, 4.0), handshake_overhead_bytes=st.integers(0, 8000)),
)
_noise = st.one_of(
    st.just(NoiseModel("none")),
    st.builds(NoiseModel, st.just("gaussian"), st.just(0.0)),
    st.builds(NoiseModel, st.just("gaussian"), st.floats(0.01, 5.0)),
)


@st.composite
def _plans(draw):
    start = draw(st.floats(0.0, 60.0))
    step = draw(st.floats(0.05, 9.0))
    return SweepPlan(
        # A plan refuses a repeated stack, or an rtt whose repr repeats (0.0, -0.0 is fine).
        stacks=tuple(draw(st.lists(st.sampled_from(sorted(STACKS)), min_size=1, max_size=3,
                                   unique=True))),
        rtts_ms=tuple(draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 10.0, 49.999]),
                                              st.floats(0.0, 500.0)), min_size=1, max_size=3,
                                    unique_by=repr))),
        size_start_kb=start,
        size_end_kb=start + draw(st.floats(0.0, 12.0)) * step,
        size_step_kb=step,
        trials=draw(st.one_of(st.just(1), st.integers(2, 300))),
        seed=draw(st.integers(-2**64, 2**64)),
        optimizers=tuple(draw(st.lists(_optimizer, max_size=4, unique_by=lambda o: o.label))),
    )


@settings(max_examples=150, deadline=None)
@given(_plans(), _flight, _noise)
def test_factored_sweep_matches_the_per_row_oracle(plan, flight, noise):
    expected = oracle_rows(plan, STACKS, flight, noise)
    assert emit_csv(run_sweep(plan, STACKS, flight, noise)) == oracle_csv(expected)
    assert "".join(sweep_csv(plan, STACKS, flight, noise)) == oracle_csv(expected)
    records = list(sweep_records(plan, STACKS, flight, noise))
    for write, oracle in ((write_csv, oracle_csv), (write_json, oracle_json)):
        out = io.StringIO()
        write(out, sweep_header(bool(plan.optimizers)), records)
        assert out.getvalue() == oracle(expected)
    assert "".join(sweep_gnuplot(plan, STACKS, flight, noise)) == oracle_gnuplot(expected)


def test_a_gnuplot_title_keeps_a_line_broken_stack_name_on_one_line():
    plan = SweepPlan(stacks=(LINE_STACK,), rtts_ms=(10.0, 0.0), size_start_kb=4.0,
                     size_end_kb=12.0, size_step_kb=4.0, trials=1, optimizers=(MTC1,))
    lines = "".join(sweep_gnuplot(plan, STACKS, FLIGHT, QUIET)).split("\n")
    assert "# stack=two\\nlines rtt_ms=10.0" in lines
    data = [line.split() for line in lines if line and not line.startswith("#")]
    assert len(data) == 2 * 2 * 3  # two RTTs, two curves each, three sizes
    assert all(len(cells) == 2 and list(map(float, cells)) for cells in data)


def _csv_body(plan, flight, noise):
    """The sweep's CSV text after its header line."""
    return "".join(sweep_csv(plan, STACKS, flight, noise)).split("\n", 1)[1]


@settings(max_examples=100, deadline=None)
@given(_plans(), _flight, _noise)
@example(SweepPlan(stacks=(LINE_STACK, "ClassicalSim", ODD_STACK), rtts_ms=(0.0, 25.0, -0.0),
                   size_start_kb=6.0, size_end_kb=18.0, size_step_kb=3.0, trials=4, seed=-9,
                   optimizers=(MTC1, CDN40)),
         FLIGHT, NoiseModel("gaussian", std_ms=0.4))
def test_a_sweep_is_the_concatenation_of_its_one_stack_one_rtt_sweeps(plan, flight, noise):
    # A row is a pure function of its key, so a sweep can be computed line by
    # line and merged. repr tells the rows of rtt 0.0 and -0.0 apart.
    parts = [plan.replace(stacks=(stack,), rtts_ms=(rtt,))
             for stack in plan.stacks for rtt in plan.rtts_ms]
    assert _csv_body(plan, flight, noise) == "".join(
        _csv_body(part, flight, noise) for part in parts)
    assert list(map(repr, run_sweep(plan, STACKS, flight, noise))) == [
        repr(row) for part in parts for row in run_sweep(part, STACKS, flight, noise)]


# A step of 0.01 to 5 KB and a grid end up to 400 steps on, both in whole hundredths.
_grid_cents = st.integers(1, 500).flatmap(
    lambda step: st.tuples(st.integers(step + 1, 400 * step), st.just(step)))


@settings(max_examples=200, deadline=None)
@given(_flight, _grid_cents)
# 0.3 / 0.1 is 2.9999999999999996: the grid still ends at 0.30000000000000004.
@example(FlightModel(empirical_thresholds_kb=(0.25,)), (30, 10))
def test_find_thresholds_reads_like_a_noise_free_sweep(flight, cents):
    max_kb, step_kb = cents[0] / 100, cents[1] / 100
    plan = SweepPlan(stacks=("ClassicalSim",), rtts_ms=(50.0,), size_start_kb=0.0,
                     size_end_kb=max_kb, size_step_kb=step_kb, trials=1)
    rows = run_sweep(plan, DEFAULT_STACKS, flight, QUIET)
    assert find_thresholds(flight, max_kb, step_kb) == detect_thresholds_from_rows(rows, 50.0)
