import pytest

from certflight.errors import ConfigError
from certflight.transport_flight import (
    ANALYTIC,
    EMPIRICAL,
    MAX_GRID_POINTS,
    FlightModel,
    check_grid_points,
    cumulative_capacity_bytes,
    extra_rtts,
    find_thresholds,
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
    check_grid_points(MAX_GRID_POINTS)
    with pytest.raises(ConfigError):
        check_grid_points(MAX_GRID_POINTS + 1)


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
