"""Record, the base of every certflight record type, behaves as a dataclass does.

Each record type gets a dataclasses.make_dataclass twin with its fields, its
defaults and its methods, __post_init__ among them. Records and twins built
from the same drawn values must print, compare, hash, replace and convert to
dicts alike, and refuse the same values with the same error.
"""

import dataclasses
import functools
import hashlib
import importlib
import pkgutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import certflight
from certflight.chain_model import DEFAULT_OPTIMIZERS, DEFAULT_SCHEMES
from certflight.config import Config, SweepPlan, save_config
from certflight.errors import Record
from certflight.transport_flight import ANALYTIC, FlightModel
from certflight.ttfb_engine import DEFAULT_STACKS, NoiseModel

for _module in pkgutil.iter_modules(certflight.__path__):
    importlib.import_module(f"certflight.{_module.name}")
RECORDS = sorted(Record.__subclasses__(), key=lambda cls: (cls.__module__, cls.__name__))
RECORDS_BY_NAME = {cls.__name__: cls for cls in RECORDS}


@functools.cache
def _twin(cls):
    """A dataclass with cls's fields and the twins of its defaults (a dict default
    as a factory), frozen where cls is, with cls's methods and properties."""
    specs = []
    for name in cls._fields:
        kind = cls.__annotations__[name]
        if name not in cls._defaults:
            specs.append((name, kind))
            continue
        default = _as_twin(cls._defaults[name])
        if type(default) is dict:
            specs.append((name, kind, dataclasses.field(default_factory=functools.partial(
                dict, default))))
        else:
            specs.append((name, kind, dataclasses.field(default=default)))
    namespace = {key: value for key, value in vars(cls).items()
                 if key == "__post_init__" or not key.startswith("__") and key not in cls._fields}
    namespace.update(_fields=None, _defaults=None)  # Record's, not methods of cls
    return dataclasses.make_dataclass(cls.__qualname__, specs, namespace=namespace,
                                      frozen=cls.__hash__ is not None)


@functools.cache
def _alike(cls):
    """A record class of cls's fields that is not cls."""
    return type(cls.__name__, (Record,), {"__annotations__": dict(cls.__annotations__)})


def _as_twin(value):
    """value with every record in it, however nested, replaced by its twin."""
    if isinstance(value, Record):
        return _twin(type(value))(**{name: _as_twin(getattr(value, name))
                                     for name in value._fields})
    if isinstance(value, (list, tuple)):
        return type(value)(map(_as_twin, value))
    if isinstance(value, dict):
        return {key: _as_twin(item) for key, item in value.items()}
    return value


# Most draws are values a check accepts, so that every type is often built;
# infinities, huge ints, bools and wrong types make every check refuse some.
# NaN is left out: a twin compares its fields as one tuple up to Python 3.12,
# where the same NaN object equals itself, and one by one from 3.13.
_floats = st.one_of(*[st.floats(0.5, 50.0)] * 4, st.floats(allow_nan=False),
                    st.integers(-3, 3), st.just(2**1030))
_ints = st.one_of(*[st.integers(1, 50)] * 4, st.integers(-(2**1030), 2**1030), st.booleans())
_texts = st.one_of(*[st.sampled_from(["identity", "cdn-moderate", "none", "gaussian",
                                      "analytic", "ClassicalSim"])] * 2, st.text(max_size=4))
_VALUES = {
    "int": _ints,
    "float": _floats,
    "bool": st.booleans(),
    "bytes": st.binary(max_size=4),
    "str": _texts,
    "int | None": st.none() | _ints,
    "float | None": st.none() | _floats | _texts,
    "str | None": st.none() | _texts | _ints,
    "tuple[float, ...]": st.lists(_floats, max_size=3).map(tuple) | st.lists(_floats) | _texts,
    "tuple[str, ...]": st.lists(_texts, max_size=3).map(tuple) | st.lists(_ints) | st.none(),
    "FlightModel": st.sampled_from([FlightModel(), FlightModel(mode=ANALYTIC, kb_bytes=1024)]),
    "NoiseModel": st.sampled_from([NoiseModel(), NoiseModel("gaussian", std_ms=0.2)]),
    "SchemeProfile": st.sampled_from(list(DEFAULT_SCHEMES.values())),
    "SweepPlan": st.sampled_from([SweepPlan(), SweepPlan(optimizers=DEFAULT_OPTIMIZERS)]),
    "tuple[SizeOptimizer, ...]": st.sampled_from([(), DEFAULT_OPTIMIZERS[:1], DEFAULT_OPTIMIZERS,
                                                  DEFAULT_OPTIMIZERS[:1] * 2]),
    "dict[str, SchemeProfile]": st.dictionaries(
        _texts, st.sampled_from(list(DEFAULT_SCHEMES.values())), max_size=2),
    "dict[str, StackProfile]": st.dictionaries(
        _texts, st.sampled_from(list(DEFAULT_STACKS.values())), max_size=2),
}


@st.composite
def _arguments(draw, cls):
    """(args, kwargs) for cls: each field with a default perhaps left out, and a
    leading run of the given fields passed by position."""
    values = {}
    for name in cls._fields:
        if name in cls._defaults and draw(st.sampled_from([True, True, False])):
            continue  # left to its default
        kind = cls.__annotations__[name]
        if kind == "tuple[ForgedCert, ...]":
            # Built here, outside the twin comparison: a target ForgedCert accepts.
            certs = draw(st.lists(st.tuples(_texts, st.integers(1, 50), st.binary(max_size=4)),
                                  max_size=2))
            values[name] = tuple(RECORDS_BY_NAME["ForgedCert"](*cert) for cert in certs)
        else:
            values[name] = draw(_VALUES[kind])
    leading = 0
    for name in cls._fields:
        if name not in values:
            break
        leading += 1
    positional = draw(st.integers(0, leading))
    names = list(values)
    return tuple(values[n] for n in names[:positional]), {n: values[n] for n in names[positional:]}


def _outcome(make, *args, **kwargs):
    """What make(*args, **kwargs) gives: the object, or the error it raises."""
    try:
        return make(*args, **kwargs)
    except Exception as e:  # the twin must raise the very same
        return (type(e), str(e))


def _same(record, twin):
    """record and twin are built alike, or refused with the same error."""
    if isinstance(twin, tuple):
        assert record == twin
        return False
    assert isinstance(record, Record) and dataclasses.is_dataclass(twin)
    assert repr(record) == repr(twin)
    assert record.asdict() == dataclasses.asdict(twin)
    return True


def test_every_record_type_is_checked():
    assert len(RECORDS) == 19
    assert [cls.__name__ for cls in RECORDS if cls.__hash__ is None] == [
        "Config", "ParseStats", "ResumptionStats"]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_record_behaves_as_its_dataclass_twin(cls, data):
    twin_cls = _twin(cls)
    (args, kwargs), (args2, kwargs2) = data.draw(_arguments(cls)), data.draw(_arguments(cls))
    record = _outcome(cls, *args, **kwargs)
    twin = _outcome(twin_cls, *_as_twin(args), **_as_twin(kwargs))
    if not _same(record, twin):
        return
    other = _outcome(cls, *args2, **kwargs2)
    other_twin = _outcome(twin_cls, *_as_twin(args2), **_as_twin(kwargs2))
    if _same(other, other_twin):
        assert (record == other) == (twin == other_twin)
    assert _outcome(hash, record) == _outcome(hash, twin)
    assert record == cls(**{name: getattr(record, name) for name in cls._fields})
    assert record.__eq__(twin) is NotImplemented and record != twin
    alike = _alike(cls)(**{name: getattr(record, name) for name in cls._fields})
    assert record.__eq__(alike) is NotImplemented and record != alike
    # replace re-runs the checks, as dataclasses.replace does.
    changes = {name: value for name, value in kwargs2.items() if data.draw(st.booleans())}
    _same(_outcome(record.replace, **changes),
          _outcome(dataclasses.replace, twin, **_as_twin(changes)))
    # A frozen record refuses every assignment and deletion, as its twin does;
    # any other takes them.
    name = cls._fields[0]
    if cls.__hash__ is None:
        setattr(record, name, None)
        assert getattr(record, name) is None
    else:
        for obj in (record, twin):
            assert issubclass(_outcome(setattr, obj, name, None)[0], AttributeError)
            assert issubclass(_outcome(delattr, obj, name)[0], AttributeError)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_refuses_the_arguments_its_twin_refuses(cls):
    first = cls._fields[0]
    bad = [((), {"nonesuch": 1}), ((None,) * (len(cls._fields) + 1), {}),
           ((None,), {first: None})]
    if first not in cls._defaults:
        bad.append(((), {}))  # a field without a default left out
    for args, kwargs in bad:
        assert _outcome(cls, *args, **kwargs)[0] is TypeError
        assert _outcome(_twin(cls), *args, **kwargs)[0] is TypeError


def test_a_config_gets_fresh_dicts_and_shares_no_default_it_could_change():
    a, b = Config(), Config()
    assert a == b
    assert a.schemes is not b.schemes and a.stacks is not b.stacks
    a.schemes.clear()
    assert b.schemes == DEFAULT_SCHEMES and Config().schemes == DEFAULT_SCHEMES


def test_the_default_config_file_keeps_its_bytes(tmp_path):
    # The digest of the file save_config wrote when Config was a dataclass.
    save_config(Config(), tmp_path / "c.json")
    assert hashlib.sha256((tmp_path / "c.json").read_bytes()).hexdigest() == (
        "81e03f28ce756569136aa59f9da46d19c32afb7707162f03a357f647c52b9591")
