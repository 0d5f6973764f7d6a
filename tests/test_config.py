import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certflight.chain_model import (
    CDN_AGGRESSIVE,
    CDN_MODERATE,
    IDENTITY,
    MTC_ONE_INTERMEDIATE,
    MTC_TWO_INTERMEDIATES,
    SchemeProfile,
    SizeOptimizer,
    effective_size_kb,
)
from certflight.config import Config, load_config, save_config
from certflight.errors import ConfigError
from certflight.sweep_runner import SweepPlan
from certflight.transport_flight import ANALYTIC, EMPIRICAL, FlightModel, extra_rtts
from certflight.ttfb_engine import NetworkPath, NoiseModel, StackProfile

NAN, INF = math.nan, math.inf

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-6, max_value=1e6)
fraction = st.floats(min_value=0.0, max_value=1.0)
names = st.text(min_size=1, max_size=8)


def _round_trip(raw) -> Config:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(raw))
        return load_config(path)


@st.composite
def stacks(draw):
    base = draw(st.floats(min_value=0.0, max_value=1e4))
    resumed = draw(st.none() | fraction.map(lambda f: f * base))
    return StackProfile("n", base, draw(st.floats(min_value=1.0, max_value=10.0)), resumed)


@st.composite
def sweeps(draw):
    # A plan refuses a size grid past MAX_GRID_POINTS points: halved bounds keep
    # the span finite, and a step of a millionth of it keeps the grid within 10^6.
    start, end = sorted(draw(st.lists(finite.map(lambda kb: kb / 2), min_size=2, max_size=2)))
    return SweepPlan(
        # A plan refuses a repeated stack, or a negative rtt or one whose repr repeats.
        stacks=tuple(draw(st.lists(names, min_size=1, max_size=3, unique=True))),
        rtts_ms=tuple(draw(st.lists(st.floats(min_value=-0.0, allow_infinity=False),
                                    min_size=1, max_size=4, unique_by=repr))),
        size_start_kb=start,
        size_end_kb=end,
        size_step_kb=max(draw(positive), (end - start) / 1e6),
        trials=draw(st.integers(1, 10**6)),
        seed=draw(st.integers(0, 2**64)),
        # A plan refuses two optimizers with one label.
        optimizers=tuple(draw(st.lists(optimizers, max_size=4, unique_by=lambda o: o.label))),
    )


optimizers = st.sampled_from(
    [SizeOptimizer(MTC_ONE_INTERMEDIATE), SizeOptimizer(MTC_TWO_INTERMEDIATES),
     SizeOptimizer(IDENTITY)]
) | st.builds(SizeOptimizer, st.sampled_from([CDN_MODERATE, CDN_AGGRESSIVE]),
              st.floats(min_value=0.01, max_value=0.99))

flights = st.builds(
    FlightModel,
    iw_bytes=st.integers(1, 10**7),
    growth_factor=st.floats(min_value=1.01, max_value=4.0),
    handshake_overhead_bytes=st.integers(0, 10**5),
    mode=st.sampled_from([ANALYTIC, EMPIRICAL]),
    empirical_thresholds_kb=st.lists(finite, unique=True, max_size=4).map(sorted).map(tuple),
    kb_bytes=st.integers(1, 4096),
)


def _named(profiles):
    return st.dictionaries(names, profiles, min_size=1, max_size=3).map(
        lambda d: {n: p.replace(name=n) for n, p in d.items()}
    )


configs = st.builds(
    Config,
    schemes=_named(st.builds(SchemeProfile, st.just("n"), positive, positive,
                             st.none() | positive)),
    stacks=_named(stacks()),
    flight=flights,
    sweep=sweeps(),
    noise=st.builds(NoiseModel, st.sampled_from(["none", "gaussian"]),
                    st.floats(min_value=0.0, max_value=100.0)),
    asn_map_csv=st.none() | names,
    cdn_asn_file=st.none() | names,
    cloud_asn_file=st.none() | names,
)


@settings(max_examples=60, deadline=None)
@given(configs)
def test_config_round_trips_through_its_file(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        save_config(cfg, path)
        assert load_config(path) == cfg


@settings(max_examples=60, deadline=None)
@given(configs, st.sampled_from(["", "flight", "sweep", "noise", "schemes", "stacks",
                                 "sweep.optimizers"]), names, st.data())
def test_unknown_key_is_rejected_by_path(cfg, where, key, data):
    with tempfile.TemporaryDirectory() as tmp:
        saved = Path(tmp) / "cfg.json"
        save_config(cfg, saved)
        raw = json.loads(saved.read_text(encoding="utf-8"))
    section = raw
    if where in ("schemes", "stacks"):
        name = data.draw(st.sampled_from(sorted(raw[where])))
        section, where = raw[where][name], f"{where}.{name}"
    elif where == "sweep.optimizers":
        if not raw["sweep"]["optimizers"]:
            raw["sweep"]["optimizers"] = [{"kind": IDENTITY, "factor": None}]
        section, where = raw["sweep"]["optimizers"][0], "sweep.optimizers.0"
    elif where:
        section = raw[where]
    if key in section:
        return
    section[key] = 1
    path = f"{where}.{key}" if where else key
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "cfg.json"
        file.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="unknown config key") as info:
            load_config(file)
    assert str(info.value) == f"{file}: unknown config key {path}"


def test_partial_sections_keep_defaults():
    defaults = Config()
    assert _round_trip({}) == defaults
    cfg = _round_trip({"noise": {"std_ms": 0.5}, "flight": {"mode": ANALYTIC}})
    assert cfg.noise == NoiseModel("gaussian", std_ms=0.5)
    assert cfg.flight == FlightModel(mode=ANALYTIC)
    assert cfg.sweep == defaults.sweep and cfg.stacks == defaults.stacks


def test_saved_file_has_one_kb_bytes_and_no_profile_names(tmp_path):
    cfg = Config()
    cfg.kb_bytes = 1024
    assert cfg.flight.kb_bytes == 1024
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    raw = json.loads(path.read_text())
    assert raw["kb_bytes"] == 1024 and "kb_bytes" not in raw["flight"]
    assert "name" not in raw["stacks"]["ClassicalSim"]
    assert load_config(path).flight.kb_bytes == 1024


def test_a_saved_default_config_has_one_seed(tmp_path):
    path = tmp_path / "cfg.json"
    save_config(Config(), path)
    raw = json.loads(path.read_text())
    assert raw["noise"] == {"kind": "gaussian", "std_ms": 0.2} and "seed" in raw["sweep"]
    assert load_config(path) == Config()


# The last keyword of each case is the bad field.
BAD_FIELDS = [
    (FlightModel, {"iw_bytes": NAN}),
    (FlightModel, {"iw_bytes": 14000.0}),
    (FlightModel, {"iw_bytes": 2**1024}),
    (FlightModel, {"kb_bytes": True}),
    (FlightModel, {"growth_factor": INF}),
    (FlightModel, {"empirical_thresholds_kb": (10.0, NAN)}),
    (FlightModel, {"empirical_thresholds_kb": 10.0}),
    (FlightModel, {"iw_bytes": 0}),
    (FlightModel, {"handshake_overhead_bytes": -1}),
    (FlightModel, {"kb_bytes": 0}),
    (SweepPlan, {"trials": 2.0}),
    (SweepPlan, {"size_end_kb": NAN}),
    (SweepPlan, {"rtts_ms": (-INF,)}),
    (SweepPlan, {"stacks": (["X"],)}),
    (NoiseModel, {"std_ms": NAN}),
    (NoiseModel, {"std_ms": -0.1}),
    (NoiseModel, {"kind": "laplace"}),
    (StackProfile, {"name": "x", "base_flights": 2.0, "base_ms": NAN}),
    (StackProfile, {"name": "x", "base_flights": 2.0, "base_ms": -1.0}),
    (StackProfile, {"name": "x", "base_ms": 8.0, "base_flights": 2.0, "resumed_base_ms": NAN}),
    (SchemeProfile, {"name": "x", "intermediate_kb": 2.0, "leaf_kb": "1"}),
    (SchemeProfile, {"name": "x", "leaf_kb": 1.0, "intermediate_kb": 2.0, "mtc_leaf_kb": INF}),
    (SchemeProfile, {"name": "x", "leaf_kb": 1.0, "intermediate_kb": 2.0, "mtc_leaf_kb": 0.0}),
    (SizeOptimizer, {"kind": CDN_MODERATE, "factor": NAN}),
    (NetworkPath, {"rtt_ms": NAN}),
    (Config, {"asn_map_csv": 5}),
]


@pytest.mark.parametrize("cls, kwargs", BAD_FIELDS, ids=[
    f"{cls.__name__}-{list(kw)[-1]}={list(kw.values())[-1]!r}" for cls, kw in BAD_FIELDS
])
def test_fields_reject_non_finite_and_mistyped_values(cls, kwargs):
    with pytest.raises(ConfigError, match=list(kwargs)[-1]):
        cls(**kwargs)


def test_float_fields_store_floats():
    model = FlightModel(growth_factor=2, empirical_thresholds_kb=[10, 40])
    assert model.empirical_thresholds_kb == (10.0, 40.0)
    assert type(model.growth_factor) is float
    assert all(type(t) is float for t in model.empirical_thresholds_kb)


@settings(max_examples=200, deadline=None)
@given(flights.map(lambda m: m.replace(iw_bytes=max(m.iw_bytes, 1000))),
       st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=2, max_size=20))
def test_extra_rtts_is_monotone_in_size(model, sizes):
    sizes.sort()
    counts = [extra_rtts(model, s) for s in sizes]
    assert counts == sorted(counts)


@pytest.mark.parametrize("size", [NAN, INF, -INF, -0.1])
def test_sizes_must_be_finite_and_non_negative(size):
    for mode in (ANALYTIC, EMPIRICAL):
        with pytest.raises(ValueError, match="^size_kb must be "):
            extra_rtts(FlightModel(mode=mode), size)
    with pytest.raises(ValueError, match="^size_kb must be "):
        effective_size_kb(size, SizeOptimizer(MTC_ONE_INTERMEDIATE))
