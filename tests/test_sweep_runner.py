import dataclasses
import hashlib

import pytest

from certflight.chain_model import DEFAULT_OPTIMIZERS, SizeOptimizer, effective_size_kb
from certflight import chain_model
from certflight.errors import ConfigError
from certflight.sweep_runner import (
    SweepPlan,
    compute_regions,
    detect_thresholds_from_rows,
    emit_csv,
    emit_gnuplot,
    emit_json,
    estimate_savings,
    regions_csv,
    rows_from_csv,
    rows_from_json,
    run_sweep,
)
from certflight.transport_flight import EMPIRICAL, MAX_GRID_POINTS, FlightModel
from certflight.ttfb_engine import DEFAULT_STACKS, NetworkPath, NoiseModel

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


def test_plan_rejects_an_oversized_size_grid():
    # Checked when the sizes are listed, before any row is evaluated.
    for step in (1e-9, 1e-320):
        with pytest.raises(ConfigError, match="size grid"):
            run_sweep(small_plan(size_step_kb=step), DEFAULT_STACKS, FLIGHT, QUIET)
    # The limit is on points, not on the span.
    huge = SweepPlan(size_start_kb=0.0, size_end_kb=float(MAX_GRID_POINTS), size_step_kb=1.0)
    with pytest.raises(ConfigError, match="size grid"):
        huge.sizes_kb
    coarse = SweepPlan(size_start_kb=0.0, size_end_kb=1e12, size_step_kb=1e9)
    assert len(coarse.sizes_kb) == 1001


def test_sweep_grid_shape_and_order():
    plan = small_plan()
    rows = run_sweep(plan, DEFAULT_STACKS, FLIGHT, QUIET)
    assert len(rows) == 2 * 4  # rtts x sizes
    assert [(r.rtt_ms, r.size_kb) for r in rows[:4]] == [
        (10.0, 4.0), (10.0, 8.0), (10.0, 12.0), (10.0, 16.0),
    ]
    assert all(r.stack == "ClassicalSim" for r in rows)
    assert all(r.optimizer == "" for r in rows)


def test_sweep_means_track_the_deterministic_model():
    rows = run_sweep(small_plan(), DEFAULT_STACKS, FLIGHT, QUIET)
    by_size = {(r.rtt_ms, r.size_kb): r for r in rows}
    assert by_size[(50.0, 8.0)].mean_ms == pytest.approx(108.3)
    assert by_size[(50.0, 12.0)].mean_ms == pytest.approx(158.3)
    assert by_size[(50.0, 8.0)].extra_rtts == 0
    assert by_size[(50.0, 12.0)].extra_rtts == 1


def test_sweep_unknown_stack_fails_before_running():
    with pytest.raises(ConfigError):
        run_sweep(small_plan(stacks=("Nonesuch",)), DEFAULT_STACKS, FLIGHT, QUIET)


def test_sweep_deterministic_per_seed():
    noise = NoiseModel("gaussian", std_ms=0.4, seed=7)
    a = run_sweep(small_plan(), DEFAULT_STACKS, FLIGHT, noise)
    b = run_sweep(small_plan(), DEFAULT_STACKS, FLIGHT, noise)
    assert a == b
    c = run_sweep(small_plan(seed=43), DEFAULT_STACKS, FLIGHT, noise)
    assert a != c


def test_row_noise_is_independent_of_grid_membership():
    # The same (stack, rtt, size) cell gets the same draws whether or
    # not other cells are in the plan.
    noise = NoiseModel("gaussian", std_ms=0.4, seed=7)
    wide = run_sweep(small_plan(), DEFAULT_STACKS, FLIGHT, noise)
    narrow = run_sweep(
        small_plan(rtts_ms=(50.0,), size_start_kb=8.0, size_end_kb=8.0),
        DEFAULT_STACKS, FLIGHT, noise,
    )
    wide_cell = next(r for r in wide if r.rtt_ms == 50.0 and r.size_kb == 8.0)
    assert narrow == [wide_cell]


def test_criterion_9_csv_is_pinned():
    """The noisy sweep of acceptance criterion 9 hashes to one golden value.

    This pins the sampled values, and with them CPython's random.gauss and
    random.gammavariate streams for a seeded random.Random: any change to
    how a row's summary is drawn (or to those streams) must update this
    hash in a visible test edit.
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
    noise = NoiseModel("gaussian", std_ms=0.3, seed=0)
    text = emit_csv(run_sweep(plan, DEFAULT_STACKS, FlightModel(mode=EMPIRICAL), noise))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "6ca2b79dbb573006da39e55698af6056df578a1ccaf5eb9f4c887bdde58fbb1b"
    )


def test_optimizer_rows_shrink_the_wire_size():
    mtc1 = SizeOptimizer(chain_model.MTC_ONE_INTERMEDIATE)
    rows = run_sweep(small_plan(optimizers=(mtc1,)), DEFAULT_STACKS, FLIGHT, QUIET)
    assert len(rows) == 2 * 4 * 2
    base = next(r for r in rows if r.rtt_ms == 50.0 and r.size_kb == 12.0 and not r.optimizer)
    opt = next(r for r in rows if r.rtt_ms == 50.0 and r.size_kb == 12.0 and r.optimizer)
    assert opt.optimizer == "mtc-one-intermediate"
    # 12 KB shrinks to 7 KB, back under the first threshold.
    assert effective_size_kb(12.0, mtc1) == 7.0
    assert base.extra_rtts == 1 and opt.extra_rtts == 0
    assert opt.mean_ms == pytest.approx(108.3)


def test_csv_round_trip_is_exact():
    noise = NoiseModel("gaussian", std_ms=0.4, seed=7)
    rows = run_sweep(small_plan(), DEFAULT_STACKS, FLIGHT, noise)
    again = rows_from_csv(emit_csv(rows))
    assert again == rows


def test_csv_optimizer_column_only_when_used():
    rows = run_sweep(small_plan(), DEFAULT_STACKS, FLIGHT, QUIET)
    header = emit_csv(rows).splitlines()[0]
    assert header == "stack,rtt_ms,size_kb,mean_ms,std_ms,extra_rtts"
    mtc1 = SizeOptimizer(chain_model.MTC_ONE_INTERMEDIATE)
    rows = run_sweep(small_plan(optimizers=(mtc1,)), DEFAULT_STACKS, FLIGHT, QUIET)
    header = emit_csv(rows).splitlines()[0]
    assert header.endswith(",optimizer")


def test_json_round_trip_is_exact():
    noise = NoiseModel("gaussian", std_ms=0.4, seed=7)
    rows = run_sweep(small_plan(), DEFAULT_STACKS, FLIGHT, noise)
    assert rows_from_json(emit_json(rows)) == rows


def test_gnuplot_blocks():
    rows = run_sweep(small_plan(), DEFAULT_STACKS, FLIGHT, QUIET)
    text = emit_gnuplot(rows)
    blocks = text.split("\n\n")
    assert len(blocks) == 2  # one per rtt
    assert blocks[0].startswith("# stack=ClassicalSim rtt_ms=10.0")
    first_data = blocks[0].splitlines()[1]
    size, mean = first_data.split()
    assert float(size) == 4.0
    assert float(mean) == pytest.approx(28.3)


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


def test_regions_csv_shape():
    text = regions_csv(compute_regions([10.0], [SizeOptimizer(chain_model.MTC_ONE_INTERMEDIATE)]))
    lines = text.splitlines()
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
        dataclasses.replace(plan, trials=-1)


def test_a_threshold_without_a_finite_region_names_itself_and_the_optimizer():
    for optimizer in DEFAULT_OPTIMIZERS:
        with pytest.raises(ConfigError, match=f"threshold 1.7e\\+308 KB: no finite {optimizer.label} region"):
            compute_regions([10.0, 1.7e308], [optimizer])
