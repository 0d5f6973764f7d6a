import math
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certflight import transport_flight
from certflight.errors import ConfigError
from certflight.transport_flight import (
    ANALYTIC,
    EMPIRICAL,
    MAX_GRID_POINTS,
    FlightModel,
    cumulative_capacity_bytes,
    extra_rtts,
    find_thresholds,
    grid_points,
)


def test_cumulative_capacity_doubling():
    m = FlightModel()
    assert cumulative_capacity_bytes(m, 1) == 14000
    assert cumulative_capacity_bytes(m, 2) == 42000
    assert cumulative_capacity_bytes(m, 3) == 98000
    with pytest.raises(ValueError):
        cumulative_capacity_bytes(m, 0)


def test_cumulative_capacity_other_growth():
    m = FlightModel(growth_factor=1.5)
    assert cumulative_capacity_bytes(m, 1) == pytest.approx(14000)
    assert cumulative_capacity_bytes(m, 2) == pytest.approx(14000 + 21000)
    assert cumulative_capacity_bytes(m, 3) == pytest.approx(14000 + 21000 + 31500)
    # 1e300 ** 2 raises OverflowError instead of returning inf; both are refused alike.
    with pytest.raises(ValueError, match="^the capacity of 2 flights overflows a float$"):
        cumulative_capacity_bytes(FlightModel(growth_factor=1e300), 2)


@pytest.mark.parametrize(
    "size_kb,expected",
    [(0.0, 0), (9.9, 0), (10.0, 0), (10.001, 1), (38.0, 1), (38.01, 2), (94.0, 2), (94.1, 3)],
)
def test_analytic_extra_rtts_boundaries(size_kb, expected):
    # First flight carries 14000 bytes; 4000 go to handshake overhead,
    # so exactly 10 KB of chain still fits. Second boundary at 38 KB,
    # third at 94 KB.
    m = FlightModel(mode=ANALYTIC)
    assert extra_rtts(m, size_kb) == expected


@pytest.mark.parametrize(
    "size_kb,expected",
    [(0.0, 0), (10.0, 0), (10.5, 1), (40.0, 1), (40.5, 2), (500.0, 2)],
)
def test_empirical_extra_rtts_strict_exceedance(size_kb, expected):
    m = FlightModel(mode=EMPIRICAL)
    assert extra_rtts(m, size_kb) == expected


def test_extra_rtts_rejects_negative_size():
    with pytest.raises(ValueError):
        extra_rtts(FlightModel(), -0.1)


def test_single_threshold_model():
    m = FlightModel(mode=EMPIRICAL, empirical_thresholds_kb=(14.0,))
    assert extra_rtts(m, 11.9) == 0
    assert extra_rtts(m, 14.0) == 0
    assert extra_rtts(m, 17.6) == 1
    assert extra_rtts(m, 48.7) == 1


def test_find_thresholds_empirical_default():
    assert find_thresholds(FlightModel(), 80.0, 2.0) == [10.0, 40.0]


def test_find_thresholds_analytic():
    m = FlightModel(mode=ANALYTIC)
    assert find_thresholds(m, 80.0, 2.0) == [10.0, 38.0]
    assert find_thresholds(m, 80.0, 1.0) == [10.0, 38.0]
    assert find_thresholds(m, 80.0, 0.5) == [10.0, 38.0]


def test_find_thresholds_reports_last_size_of_plateau():
    # With a coarse grid the reported edge is the scanned size one step
    # before the jump, not the true boundary.
    m = FlightModel(mode=ANALYTIC)
    # step 16 scans 16 (1 extra), 32 (1), 48 (2), 64 (2), 80 (2): both
    # jumps are reported one full step early.
    assert find_thresholds(m, 80.0, 16.0) == [0.0, 32.0]
    assert find_thresholds(m, 80.0, 7.0) == [7.0, 35.0]


def test_find_thresholds_none_below_max():
    m = FlightModel(mode=EMPIRICAL, empirical_thresholds_kb=(200.0,))
    assert find_thresholds(m, 80.0, 2.0) == []


def test_find_thresholds_argument_validation():
    with pytest.raises(ValueError):
        find_thresholds(FlightModel(), 80.0, 0.0)
    with pytest.raises(ValueError):
        find_thresholds(FlightModel(), 1.0, 2.0)


def test_find_thresholds_rejects_an_oversized_grid():
    # 8e10 points would run for hours; 80 / 1e-320 overflows to inf.
    for step in (1e-9, 1e-320):
        with pytest.raises(ConfigError, match="size grid"):
            find_thresholds(FlightModel(), 80.0, step)
    assert grid_points(0.0, MAX_GRID_POINTS - 1, 1.0) == MAX_GRID_POINTS
    with pytest.raises(ConfigError):
        grid_points(0.0, MAX_GRID_POINTS, 1.0)


def test_the_grid_refusal_counts_the_points():
    # 12,344,999.5 points to four digits; one more would round up to 1.235e+07.
    with pytest.raises(ConfigError) as refused:
        grid_points(0.0, 12_344_998.5, 1.0)
    assert str(refused.value) == "size grid has 1.234e+07 points; the limit is 10000000"


def test_model_validation():
    with pytest.raises(ConfigError):
        FlightModel(growth_factor=1.0)
    with pytest.raises(ConfigError):
        FlightModel(empirical_thresholds_kb=(40.0, 10.0))
    with pytest.raises(ConfigError):
        FlightModel(mode="psychic")


def test_analytic_matches_empirical_when_thresholds_agree():
    analytic = FlightModel(mode=ANALYTIC)
    empirical = FlightModel(mode=EMPIRICAL, empirical_thresholds_kb=(10.0, 38.0, 94.0))
    for tenth_kb in range(0, 1000):
        size = tenth_kb / 10
        assert extra_rtts(analytic, size) == extra_rtts(empirical, size), size


def loop_extra_rtts(model, size_kb):
    """The per-flight search the closed form replaced, without its flight cap."""
    if model.mode == EMPIRICAL:
        return sum(1 for t in model.empirical_thresholds_kb if size_kb > t)
    needed = size_kb * model.kb_bytes + model.handshake_overhead_bytes
    flights = 1
    while cumulative_capacity_bytes(model, flights) < needed:
        flights += 1
    return flights - 1


analytic_models = st.builds(
    FlightModel,
    iw_bytes=st.integers(1, 10**7),
    growth_factor=st.floats(min_value=1.01, max_value=16.0),
    handshake_overhead_bytes=st.integers(0, 10**5),
    mode=st.just(ANALYTIC),
    kb_bytes=st.sampled_from([1000, 1024]),
)


@settings(max_examples=300, deadline=None)
@given(analytic_models, st.integers(1, 200), st.floats(min_value=0.0, max_value=1e12))
def test_closed_form_matches_the_flight_loop(model, flights, size_kb):
    # The exact size at which `flights` flights are full, and its float
    # neighbours, are where rounding in the logarithms would show.
    edge = (cumulative_capacity_bytes(model, flights) - model.handshake_overhead_bytes) / model.kb_bytes
    sizes = [size_kb]
    if edge >= 0:
        sizes += [edge, math.nextafter(edge, 0), math.nextafter(edge, math.inf)]
    for size in sizes:
        with mock.patch.object(transport_flight, "cumulative_capacity_bytes",
                               wraps=cumulative_capacity_bytes) as capacity:
            got = extra_rtts(model, size)
        assert got == loop_extra_rtts(model, size), size
        assert capacity.call_count <= 2  # settling the estimate, not a search


FLOAT_MAX = sys.float_info.max


@settings(max_examples=500, deadline=None)
@given(
    st.builds(
        FlightModel,
        iw_bytes=st.integers(1, int(FLOAT_MAX)),
        growth_factor=st.floats(min_value=1.0, exclude_min=True, max_value=FLOAT_MAX),
        handshake_overhead_bytes=st.integers(0, int(FLOAT_MAX)),
        mode=st.sampled_from([ANALYTIC, EMPIRICAL]),
        kb_bytes=st.integers(1, int(FLOAT_MAX)),
    ),
    st.floats(min_value=0.0, allow_infinity=False),
)
def test_every_valid_model_gives_a_count_or_a_value_error(model, size_kb):
    try:
        result = extra_rtts(model, size_kb)
    except ValueError:
        return
    assert type(result) is int and result >= 0


def test_slow_growth_is_counted_not_capped():
    # The flight loop gave up after 10,000 flights with a ConfigError.
    model = FlightModel(mode=ANALYTIC, growth_factor=1.001)
    assert extra_rtts(model, 1e300) == loop_extra_rtts(model, 1e300) == 681_569

