"""Every declared field bound (a record's _bounds) is checked in one shape, wherever
the value comes from.

The tests read each record's table, so a new bound is covered without an edit here:
the limit itself is accepted or refused as its operator says, and the float (or int)
just past it is refused with exactly "{field} must be {op} {limit}, got {value!r}".
Given by a flag, that value ends in one error line naming the flag; given in a config
file, in one line naming the file and the key.
"""

import importlib
import json
import math
import operator
import pkgutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import certflight
from certflight import cli, config
from certflight.cert_forge import DerCertTemplate
from certflight.chain_model import ChainSpec, MerkleParams, SchemeProfile, resolve_scheme
from certflight.config import Config, SweepPlan
from certflight.errors import ConfigError, Record
from certflight.sweep_runner import OptimizationRegion
from certflight.transport_flight import FlightModel
from certflight.ttfb_engine import NetworkPath, NoiseModel, SavingsEstimate, StackProfile

for _module in pkgutil.iter_modules(certflight.__path__):
    importlib.import_module(f"certflight.{_module.name}")

_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}

# Per record type with bounds, a record whose other fields leave every limit reachable.
VALID = {
    SchemeProfile: SchemeProfile("x", leaf_kb=1.0, intermediate_kb=2.0, mtc_leaf_kb=1.5),
    ChainSpec: ChainSpec(resolve_scheme("ECDSA")),
    MerkleParams: MerkleParams(8),
    FlightModel: FlightModel(),
    StackProfile: StackProfile("x", base_ms=8.3, base_flights=2.0, resumed_base_ms=0.0),
    NetworkPath: NetworkPath(10.0),
    NoiseModel: NoiseModel(),
    SweepPlan: SweepPlan(),
    SavingsEstimate: SavingsEstimate(10.0, 12.0, 0.5, 5.0, 40.0, 30.0),
    OptimizationRegion: OptimizationRegion("x", 10.0, 10.0, 18.0, 18),
}

BOUNDS = [(cls, field, op, limit)
          for cls in sorted(Record.__subclasses__(), key=lambda cls: cls.__name__)
          for field, bound in cls._bounds.items()
          for op, limit in map(str.split, bound.split(" and "))]
IDS = [f"{cls.__name__}.{field} {op} {limit}" for cls, field, op, limit in BOUNDS]


def _is_int(cls, field) -> bool:
    return cls.__annotations__[field] == "int"


def _limit_and_past(cls, field, op, limit):
    """The limit as the field's type holds it, and the nearest value past it."""
    outward = -math.inf if op.startswith(">") else math.inf
    if _is_int(cls, field):
        value = int(limit)
        return value, value + (1 if outward > 0 else -1)
    value = float(limit)
    return value, math.nextafter(value, outward)


def _as_field(cls, field, value):
    return (value,) if cls.__annotations__[field].startswith("tuple") else value


def _refusal(field, op, limit, value) -> str:
    return f"{field} must be {op} {limit}, got {value!r}"


def test_every_bounded_record_has_a_valid_example():
    assert {cls for cls, *_ in BOUNDS} == set(VALID)


@pytest.mark.parametrize("cls, field, op, limit", BOUNDS, ids=IDS)
def test_a_declared_bound_holds_at_its_limit_and_refuses_past_it(cls, field, op, limit):
    at, past = _limit_and_past(cls, field, op, limit)
    record = VALID[cls]
    if _OPS[op](at, float(limit)):
        assert getattr(record.replace(**{field: _as_field(cls, field, at)}), field) == (
            _as_field(cls, field, at))
    else:
        with pytest.raises(ConfigError) as info:
            record.replace(**{field: _as_field(cls, field, at)})
        assert str(info.value) == _refusal(field, op, limit, at)
    with pytest.raises(ConfigError) as info:
        record.replace(**{field: _as_field(cls, field, past)})
    assert str(info.value) == _refusal(field, op, limit, past)


@pytest.mark.parametrize("cls, field, op, limit", BOUNDS, ids=IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_check_field_refuses_exactly_the_values_its_bound_refuses(cls, field, op, limit, data):
    if _is_int(cls, field):
        value = data.draw(st.integers(-(2**70), 2**70) | st.sampled_from(_limit_and_past(
            cls, field, op, limit)))
    else:
        value = data.draw(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
            _limit_and_past(cls, field, op, limit)))
    # Every term of the field's bound, not only this one, decides the outcome.
    failed = [(o, lim) for o, lim in map(str.split, cls._bounds[field].split(" and "))
              if not _OPS[o](value, float(lim))]
    if failed:
        with pytest.raises(ConfigError) as info:
            cls.check_field(field, _as_field(cls, field, value))
        assert str(info.value) == _refusal(field, *failed[0], value)
    else:
        assert cls.check_field(field, _as_field(cls, field, value)) == _as_field(cls, field, value)


# Per bounded field a flag sets: the argv that gives it the value text v, and the flag.
FLAG_ARGV = {
    (NetworkPath, "rtt_ms"): (lambda v: ["estimate", "--size-kb", "10", "--rtt", v], "--rtt"),
    (ChainSpec, "intermediates"): (lambda v: ["estimate", "--rtt", "1", "--intermediates", v],
                                   "--intermediates"),
    (ChainSpec, "explicit_size_kb"): (lambda v: ["forge", "--out-dir", "c", "--size-kb", v],
                                      "--size-kb"),
    (SavingsEstimate, "resumption_rate"): (
        lambda v: ["savings", "--rtt", "1", "--size-kb", "1", "--rate", v], "--rate"),
    (StackProfile, "resumed_base_ms"): (
        lambda v: ["calibrate", "--csv", "missing.csv", "--resumed-base", v], "--resumed-base"),
    (SweepPlan, "trials"): (lambda v: ["sweep", "--trials", v], "--trials"),
    (SweepPlan, "rtts_ms"): (lambda v: ["sweep", "--rtts", v], "--rtts"),
    (SweepPlan, "size_step_kb"): (lambda v: ["sweep", "--sizes", f"0:10:{v}"], "--sizes"),
}
FLAGGED = [bound for bound in BOUNDS if bound[:2] in FLAG_ARGV]


def test_every_bounded_command_argument_has_a_flag_case():
    assert set(cli._FIELD_FLAGS.values()) <= set(FLAG_ARGV)


@pytest.mark.parametrize("cls, field, op, limit", FLAGGED,
                         ids=[IDS[BOUNDS.index(bound)] for bound in FLAGGED])
def test_a_flag_past_its_fields_bound_ends_in_one_line_naming_the_flag(
        tmp_path, monkeypatch, capsys, cls, field, op, limit):
    monkeypatch.chdir(tmp_path)
    argv, flag = FLAG_ARGV[cls, field]
    _, past = _limit_and_past(cls, field, op, limit)
    assert cli.main(argv(repr(past))) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {flag}: {_refusal(field, op, limit, past)}\n")


# Per record type a config file holds: its key, and the other fields it needs there.
CONFIG_KEYS = {
    FlightModel: ("flight", {}),
    SweepPlan: ("sweep", {}),
    NoiseModel: ("noise", {}),
    SchemeProfile: ("schemes.X", {"leaf_kb": 1.0, "intermediate_kb": 2.0}),
    StackProfile: ("stacks.X", {"base_ms": 8.3, "base_flights": 2.0, "resumed_base_ms": 0.0}),
}
CONFIGURED = [bound for bound in BOUNDS if bound[0] in CONFIG_KEYS]


def test_every_record_a_config_file_holds_has_a_key():
    sections = {type(value) for value in vars(Config()).values() if isinstance(value, Record)}
    assert set(CONFIG_KEYS) == sections | set(config._PROFILES.values())


@pytest.mark.parametrize("cls, field, op, limit", CONFIGURED,
                         ids=[IDS[BOUNDS.index(bound)] for bound in CONFIGURED])
def test_a_config_value_past_its_fields_bound_names_the_file_and_key(
        tmp_path, capsys, cls, field, op, limit):
    key, others = CONFIG_KEYS[cls]
    _, past = _limit_and_past(cls, field, op, limit)
    if field == "kb_bytes":  # set only through the top-level key
        raw, where = {"kb_bytes": past}, ""
    else:
        section = {**others, field: _as_field(cls, field, past)}
        for part in reversed(key.split(".")):
            section = {part: section}
        raw, where = section, f"config {key}: "
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["--config", str(path), "regions"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {path}: {where}{_refusal(field, op, limit, past)}\n")


@pytest.mark.parametrize("make, message", [
    (lambda: ChainSpec(resolve_scheme("ML-DSA"), intermediates=2.5),
     "intermediates must be an integer within float range, got 2.5"),
    (lambda: ChainSpec(resolve_scheme("ML-DSA"), explicit_size_kb=float("nan")),
     "explicit_size_kb must be a finite number, got nan"),
    (lambda: ChainSpec(resolve_scheme("ML-DSA"), explicit_size_kb="12"),
     "explicit_size_kb must be a finite number, got '12'"),
    (lambda: MerkleParams(leaf_count=2.5),
     "leaf_count must be an integer within float range, got 2.5"),
    (lambda: DerCertTemplate(subject_cn=5), "subject_cn must be a string, got 5"),
], ids=["intermediates-2.5", "explicit-nan", "explicit-str", "leaf_count-2.5", "subject_cn-5"])
def test_an_input_record_refuses_a_mistyped_field_naming_it(make, message):
    with pytest.raises(ConfigError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("argv, line", [
    (["estimate", "--rtt", "5", "--size-kb", "-1"], "--size-kb: size_kb must be >= 0, got -1.0"),
    (["savings", "--rtt", "5", "--size-kb", "-1", "--rate", "0.5"],
     "--size-kb: size_kb must be >= 0, got -1.0"),
    (["thresholds", "--step-kb", "0"], "--step-kb: step_kb must be > 0, got 0.0"),
    (["thresholds", "--max-kb", "1", "--step-kb", "2"],
     "--step-kb, --max-kb: max_kb must be > step_kb (2.0) and < inf, got 1.0"),
    (["thresholds", "--step-kb", "1e-9", "--max-kb", "80"],
     "--step-kb, --max-kb: size grid has 8e+10 points; the limit is 10000000"),
    (["regions", "--thresholds", "0.5"], "--thresholds: threshold_kb must be > 1, got 0.5"),
    (["regions", "--optimizers", ","], "--optimizers: need at least one optimizer"),
], ids=["estimate-size", "savings-size", "thresholds-step", "thresholds-max",
        "thresholds-grid", "regions-threshold", "regions-optimizers"])
def test_a_function_argument_refusal_names_the_flags_that_gave_it(capsys, argv, line):
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {line}\n")
