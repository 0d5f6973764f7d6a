"""Every declared field bound (a record's _bounds) is checked in one shape, wherever
the value comes from.

The tests read each record's table, so a new bound is covered without an edit here:
the limit itself is accepted or refused as its operator says, and the float (or int)
just past it is refused with exactly "{field} must be {op} {limit}, got {value!r}".
Given by a flag, that value ends in one error line naming the flag; given in a config
file, in one line naming the file and the key.
"""

import contextlib
import importlib
import io
import json
import math
import operator
import pkgutil
from operator import attrgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import certflight
from certflight import cli, config
from certflight.cert_forge import DerCertTemplate, ForgedCert, ForgedChain, ParseReport
from certflight.chain_model import ChainSpec, MerkleParams, SchemeProfile, resolve_scheme
from certflight.config import Config, SweepPlan
from certflight.errors import ConfigError, Record, blame
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
    (lambda: ChainSpec("ML-DSA"), "scheme must be a SchemeProfile, got 'ML-DSA'"),
    (lambda: ChainSpec(resolve_scheme("ML-DSA"), mtc="yes"), "mtc must be a bool, got 'yes'"),
    (lambda: NetworkPath(10.0, flight={"mode": "analytic"}),
     "flight must be a FlightModel, got {'mode': 'analytic'}"),
    (lambda: Config(noise="none"), "noise must be a NoiseModel, got 'none'"),
    (lambda: Config(sweep=None), "sweep must be a SweepPlan, got None"),
    (lambda: SweepPlan(optimizers=("mtc1",)), "optimizers must be a SizeOptimizer, got 'mtc1'"),
    (lambda: Config(schemes={"x": 1}), "schemes['x'] must be a SchemeProfile, got 1"),
    (lambda: Config(schemes={1: resolve_scheme("ECDSA")}),
     "a key of schemes must be a string, got 1"),
    (lambda: Config(stacks=[]), "stacks must be a dict, got []"),
    (lambda: ParseReport(False, 3, 0, error_offset=1.5),
     "error_offset must be an integer within float range, got 1.5"),
    (lambda: ForgedCert("leaf", 3, "abc"), "der must be a bytes, got 'abc'"),
    (lambda: ForgedChain("ECDSA", False, (b"abc",)), "certs must be a ForgedCert, got b'abc'"),
], ids=["intermediates-2.5", "explicit-nan", "explicit-str", "leaf_count-2.5", "subject_cn-5",
        "scheme-str", "mtc-str", "flight-dict", "noise-str", "sweep-none", "optimizers-str",
        "schemes-int", "schemes-int-key", "stacks-list", "error_offset-1.5", "der-str",
        "certs-bytes"])
def test_an_input_record_refuses_a_mistyped_field_naming_it(make, message):
    with pytest.raises(ConfigError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("kind", ["list[int]", "dict[int, str]", "tuple[int]", "Nonesuch",
                                  "tuple[Nonesuch, ...] | None"])
def test_a_record_class_whose_annotation_no_check_reads_is_refused_when_made(kind):
    with pytest.raises(TypeError, match="^no check reads the annotation '"):
        type("Odd", (Record,), {"__annotations__": {"x": kind}})


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
    (["estimate", "--rtt", "1", "--size-kb", "1e306", "--mode", "analytic"],
     "--rtt, --size-kb, --mode: the flight capacity for 1e+306 KB overflows a float"),
    (["forge", "--size-kb", "1e306", "--out-dir", "c"],
     "--size-kb: a size of 1e+306 KB overflows a float byte count"),
    (["savings", "--rtt", "1e308", "--size-kb", "100", "--rate", "0.5"],
     "--rtt, --size-kb: the TTFB of 4.0 flights at rtt 1e+308 ms overflows a float"),
], ids=["estimate-size", "savings-size", "thresholds-step", "thresholds-max",
        "thresholds-grid", "regions-threshold", "regions-optimizers", "estimate-overflow",
        "forge-overflow", "savings-overflow"])
def test_a_function_argument_refusal_names_the_flags_that_gave_it(capsys, argv, line):
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {line}\n")


_GRID = '{"sweep": {"size_start_kb": 0.5, "size_end_kb": 1, "size_step_kb": 1}}'
_MAX = "max_kb must be > step_kb (1.0) and < inf, got 1.0"
_HUGE = '{"leaf_kb": 1e308, "intermediate_kb": 1e308}'
_INF = "size_kb must be a finite number, got inf"
_FLAT = '{"stacks": {"ClassicalSim": {"base_ms": 1, "base_flights": 1e308}}}'
_TTFB = "the TTFB of 1e+308 flights at rtt 10.0 ms overflows a float"
_ONEFLIGHT = '{"stacks": {"OneFlight": {"base_ms": 5.0, "base_flights": 1.5}}}'
_IW1 = '{"flight": {"iw_bytes": 1}}'


@pytest.mark.parametrize("text, argv, line", [
    (_GRID, ["thresholds"],
     f"{{path}}: config sweep.size_step_kb, sweep.size_end_kb: {_MAX}"),
    (_GRID, ["thresholds", "--step-kb", "1"], f"--step-kb, {{path}}: config sweep.size_end_kb: {_MAX}"),
    ('{"flight": {"empirical_thresholds_kb": [0.5]}}', ["regions"],
     "{path}: config flight.empirical_thresholds_kb: threshold_kb must be > 1, got 0.5"),
    # regions reads the built-in optimizers, not the file's sweep.optimizers.
    ('{"sweep": {"optimizers": [{"kind": "identity"}]}, "flight": {"empirical_thresholds_kb": '
     '[1.5]}}', ["regions"], "{path}: config flight.empirical_thresholds_kb: threshold 1.5 KB: "
     "the mtc-one-intermediate region is empty"),
    ('{"schemes": {"Big": %s}}' % _HUGE, ["estimate", "--scheme", "Big", "--rtt", "1"],
     f"--scheme, {{path}}: config schemes.Big: {_INF}"),
    # An argument left at its default names no flag; given, it does, default value or not.
    ('{"schemes": {"ECDSA": %s}}' % _HUGE, ["estimate", "--rtt", "1"],
     f"{{path}}: config schemes.ECDSA: {_INF}"),
    ('{"schemes": {"ECDSA": %s}}' % _HUGE, ["estimate", "--rtt", "1", "--intermediates", "1"],
     f"--intermediates, {{path}}: config schemes.ECDSA: {_INF}"),
    ('{"schemes": {"ECDSA": %s}}' % _HUGE, ["forge", "--out-dir", "c"],
     "{path}: config schemes.ECDSA: a size of 1e+308 KB overflows a float byte count"),
    # An alias names the profile it stands for.
    ('{"schemes": {"ECDSA": %s}}' % _HUGE, ["estimate", "--scheme", "ecdsa", "--rtt", "1"],
     f"--scheme, {{path}}: config schemes.ECDSA: {_INF}"),
    ('{"schemes": {"ML-DSA": %s}}' % _HUGE, ["forge", "--scheme", "ml-dsa", "--out-dir", "c"],
     "--scheme, {path}: config schemes.ML-DSA: a size of 1e+308 KB overflows a float byte count"),
    ('{"noise": {"kind": "gaussian", "std_ms": 1e308}}', ["sweep", "--trials", "2"],
     "--trials, {path}: config noise.std_ms: noise.std_ms 1e+308 is too large: "
     "a 2-trial draw could overflow a float"),
    (_IW1, ["estimate", "--rtt", "1", "--size-kb", "1.7e305", "--mode", "analytic"],
     "--rtt, --size-kb, --mode, {path}: config flight.iw_bytes: "
     "the capacity of 1024 flights overflows a float"),
    # A stack's profile is named by its own key, whether a flag or the plan names the stack.
    (_FLAT, ["estimate", "--rtt", "10"], f"--rtt, {{path}}: config stacks.ClassicalSim: {_TTFB}"),
    (_FLAT, ["estimate", "--rtt", "10", "--stack", "ClassicalSim"],
     f"--stack, --rtt, {{path}}: config stacks.ClassicalSim: {_TTFB}"),
    (_FLAT, ["sweep"], f"{{path}}: config stacks.ClassicalSim: {_TTFB}"),
    ('{"stacks": {"X": {"base_ms": 1, "base_flights": 2}}}', ["sweep"],
     "{path}: config stacks.ClassicalSim: unknown stack 'ClassicalSim'; known: X"),
    # A file's stacks or schemes table replaces the built-in one, default entry included.
    (_ONEFLIGHT, ["estimate", "--rtt", "1"],
     "{path}: config stacks.ClassicalSim: unknown stack 'ClassicalSim'; known: OneFlight"),
    ('{"schemes": {"Big": %s}}' % _HUGE, ["estimate", "--rtt", "1"],
     "{path}: config schemes.ECDSA: unknown scheme 'ECDSA'; known: Big"),
    ('{"schemes": {"Big": %s}}' % _HUGE, ["estimate", "--scheme", "ecdsa", "--rtt", "1"],
     "--scheme, {path}: config schemes.ECDSA: unknown scheme 'ecdsa'; known: Big"),
], ids=["thresholds-file", "thresholds-flag-and-file", "regions-file",
        "regions-file-optimizers-unread", "estimate-scheme-flag-and-file", "estimate-scheme-file",
        "estimate-intermediates-and-file", "forge-scheme-file", "estimate-alias-and-file",
        "forge-alias-and-file", "sweep-noise-file",
        "estimate-flight-file", "estimate-stack-file", "estimate-stack-flag-and-file",
        "sweep-stack-file", "sweep-stack-missing-from-file", "estimate-stack-missing-from-file",
        "estimate-scheme-missing-from-file", "estimate-alias-missing-from-file"])
def test_a_function_argument_refusal_names_the_config_key_that_gave_it(tmp_path, capsys, text,
                                                                       argv, line):
    path = tmp_path / "cfg.json"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["--config", str(path), *argv]) == 1
    assert capsys.readouterr() == ("", f"error: {line.format(path=path)}\n")


@pytest.mark.parametrize("text, flags, line", [
    (None, ["--rtt", "1", "--size-kb", "10", "--stack", "nope"],
     "--stack: unknown stack 'nope'; known: ClassicalSim, OqsHybrid, OqsMldsa, OqsSlhdsa"),
    (_ONEFLIGHT, ["--rtt", "1", "--size-kb", "10"],
     "{path}: config stacks.ClassicalSim: unknown stack 'ClassicalSim'; known: OneFlight"),
    (_FLAT, ["--rtt", "10", "--size-kb", "10"],
     f"--rtt, --size-kb, {{path}}: config stacks.ClassicalSim: {_TTFB}"),
    (_IW1, ["--rtt", "1", "--size-kb", "1.7e305", "--mode", "analytic"],
     "--rtt, --size-kb, --mode, {path}: config flight.iw_bytes: "
     "the capacity of 1024 flights overflows a float"),
    (None, ["--rtt", "1", "--size-kb", "1e306", "--mode", "analytic"],
     "--rtt, --size-kb, --mode: the flight capacity for 1e+306 KB overflows a float"),
], ids=["unknown-stack", "stack-missing-from-file", "ttfb-overflow", "capacity-overflow",
        "size-overflow"])
def test_savings_refuses_a_model_input_with_the_line_estimate_ends_with(tmp_path, text, flags,
                                                                        line):
    """estimate and savings resolve the model's inputs and their sources in one place."""
    path = tmp_path / "cfg.json"
    path.write_text(text or "{}", encoding="utf-8")
    config = ["--config", str(path)] if text else []
    expected = (1, f"error: {line.format(path=path)}\n")
    assert _run([*config, "estimate", *flags]) == expected
    assert _run([*config, "savings", "--rate", "0.5", *flags]) == expected


def test_a_refusal_with_no_source_keeps_its_message_unprefixed():
    with pytest.raises(ConfigError) as refused:
        with blame(""):
            raise ValueError("the TTFB overflows a float")
    assert str(refused.value) == "the TTFB overflows a float"


def test_the_key_table_names_every_key_a_file_sets_that_a_refusal_can_read():
    """A new field of flight, noise or sweep gets a key in cli._KEYS. The seed decides no
    refusal, and a profile is named by its own key (such as schemes.Big)."""
    keys = {key for keys in cli._KEYS.values() for key in keys}
    assert keys == ({"kb_bytes"}
                    | {f"flight.{name}" for name in FlightModel._fields if name != "kb_bytes"}
                    | {f"noise.{name}" for name in NoiseModel._fields}
                    | {f"sweep.{name}" for name in SweepPlan._fields if name != "seed"})
    assert all(cli._setting(Config(), key) is not None for key in keys)


def _argv(flags: dict) -> list:
    """Each flag given a text, followed by it."""
    return [t for flag, text in flags.items() if text is not None for t in (flag, text)]


def _run(argv) -> tuple[int, str]:
    """cli.main's exit code and stderr for argv."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return cli.main(argv), err.getvalue()


def _text(value) -> str:
    """A config value as its flag's text."""
    return ",".join(map(repr, value)) if type(value) is tuple else repr(value)


def _sourced(tmp_path_factory, raw: dict, argv: list, flags: dict, keys: dict) -> None:
    """Run argv with a config file holding raw and the flags given: flags maps each flag, in
    the order _source names them, to its text (None where not given), and keys maps it to
    the config key it falls back to. A refusal while the file loads reads as config.py
    words it. A later one gives the reason that the same values, each given by its flag
    and no file, get, and names the flags given, then the file once with each key of a
    flag not given whose value the file changed from its default."""
    path = tmp_path_factory.mktemp("cfg") / "cfg.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    code, err = _run(["--config", str(path), *argv, *_argv(flags)])
    try:
        cfg = config.load_config(path)
    except ConfigError as e:
        assert (code, err) == (1, f"error: {e}\n")
        return
    texts = {flag: text if text is not None else _text(attrgetter(keys[flag])(cfg))
             for flag, text in flags.items()}
    # The same values, every one given by its flag, and no file.
    code_flags, err_flags = _run([*argv, *_argv(texts)])
    given = [flag for flag, text in flags.items() if text is not None]
    changed = [keys[flag] for flag, text in flags.items()
               if text is None and attrgetter(keys[flag])(cfg) != attrgetter(keys[flag])(Config())]
    assert code == code_flags
    if code:
        assert err_flags.startswith(f"error: {', '.join(flags)}: ")
        reason = err_flags.removeprefix(f"error: {', '.join(flags)}: ")
        named = given + ([f"{path}: config {', '.join(changed)}"] if changed else [])
        assert named and err == f"error: {', '.join(named)}: {reason}"


_SIZES = st.sampled_from([80.0, 2.0, 100.0, 1.0, 0.5])


@settings(max_examples=60, deadline=None)
@given(sweep=st.fixed_dictionaries({}, optional={"size_end_kb": _SIZES, "size_step_kb": _SIZES}),
       step=st.none() | _SIZES, end=st.none() | _SIZES)
@example(sweep={"size_step_kb": 100}, step=None, end=None)  # names no size_end_kb it left alone
@example(sweep=json.loads(_GRID)["sweep"], step=None, end=None)  # sweepgrid.json
def test_a_thresholds_refusal_names_the_flags_given_then_the_file_once_with_the_keys_it_changed(
        tmp_path_factory, sweep, step, end):
    flags = {"--step-kb": step if step is None else repr(step),
             "--max-kb": end if end is None else repr(end)}
    _sourced(tmp_path_factory, {"sweep": sweep}, ["thresholds"], flags,
             {"--step-kb": "sweep.size_step_kb", "--max-kb": "sweep.size_end_kb"})


_THRESHOLDS = st.sampled_from([(10.0, 40.0), (14.0,), (1.5,), (0.5,), (40.0, 10.0), (1e308,)])


@settings(max_examples=40, deadline=None)
@given(file=st.none() | _THRESHOLDS, flag=st.none() | _THRESHOLDS)
def test_a_regions_refusal_names_the_flag_given_or_else_the_file_key_it_changed(
        tmp_path_factory, file, flag):
    raw = {} if file is None else {"flight": {"empirical_thresholds_kb": list(file)}}
    text = None if flag is None else ",".join(map(repr, flag))
    _sourced(tmp_path_factory, raw, ["regions"], {"--thresholds": text},
             {"--thresholds": "flight.empirical_thresholds_kb"})
