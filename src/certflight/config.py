"""Serializable configuration: defaults reproduce the shipped calibration.

Precedence is CLI flags over config file over built-in defaults. The
config file path comes from --config or the CERTFLIGHT_CONFIG
environment variable. The file mirrors the fields of Config and of the
records it holds, and a key left out keeps the field's default. Unknown
keys, missing profile fields and bad values raise ConfigError naming
the key path. The top-level kb_bytes sets the KB of forged chains and of
the flight model.
"""

from __future__ import annotations

import json
import os

from .chain_model import DEFAULT_SCHEMES, SchemeProfile, SizeOptimizer
from .errors import ConfigError, Record, blame
from .transport_flight import FlightModel, grid_points
from .ttfb_engine import DEFAULT_STACKS, NoiseModel, StackProfile

ENV_CONFIG = "CERTFLIGHT_CONFIG"

# Top-level sections that map a profile name to the profile's other fields.
_PROFILES = {"schemes": SchemeProfile, "stacks": StackProfile}


def _data_path(name: str) -> str:
    return os.path.join(os.path.dirname(__file__), "data", name)


class SweepPlan(Record, frozen=True):
    stacks: tuple[str, ...] = ("ClassicalSim",)
    rtts_ms: tuple[float, ...] = (0.0, 10.0, 50.0, 100.0, 200.0)
    size_start_kb: float = 4.0
    size_end_kb: float = 80.0
    size_step_kb: float = 2.0
    trials: int = 100
    seed: int = 1234
    optimizers: tuple[SizeOptimizer, ...] = ()
    _bounds = {"rtts_ms": ">= 0", "size_step_kb": "> 0", "trials": ">= 1"}

    def __post_init__(self):
        if not self.stacks:
            raise ConfigError("plan needs at least one stack")
        if not self.rtts_ms:
            raise ConfigError("plan needs at least one rtt")
        if self.size_end_kb < self.size_start_kb:
            raise ConfigError("size_end_kb must be >= size_start_kb")
        grid_points(self.size_start_kb, self.size_end_kb, self.size_step_kb)
        # Each of these keys a row's seed, and the rtt enters it by repr.
        for what, keys in (("stack", self.stacks), ("rtt", map(repr, self.rtts_ms)),
                           ("optimizer", (opt.label for opt in self.optimizers))):
            seen = set()
            for key in keys:
                if key in seen:
                    raise ConfigError(f"{what} {key} is listed twice; each needs its own rows")
                seen.add(key)

    @property
    def sizes_kb(self) -> list[float]:
        count = grid_points(self.size_start_kb, self.size_end_kb, self.size_step_kb)
        return [self.size_start_kb + i * self.size_step_kb for i in range(count)]


class Config(Record):
    schemes: dict[str, SchemeProfile] = DEFAULT_SCHEMES
    stacks: dict[str, StackProfile] = DEFAULT_STACKS
    flight: FlightModel = FlightModel()
    sweep: SweepPlan = SweepPlan()
    noise: NoiseModel = NoiseModel("gaussian", std_ms=0.2)
    asn_map_csv: str | None = None
    cdn_asn_file: str | None = None
    cloud_asn_file: str | None = None

    @property
    def kb_bytes(self) -> int:
        """Bytes per KB, for forged chain targets and flight boundaries."""
        return self.flight.kb_bytes

    @kb_bytes.setter
    def kb_bytes(self, value: int) -> None:
        self.flight = self.flight.replace(kb_bytes=value)

    def resolve_asn_paths(self) -> tuple[str, str, str]:
        """Configured analytics inputs, falling back to packaged samples."""
        return (
            self.asn_map_csv or _data_path("asn_map_sample.csv"),
            self.cdn_asn_file or _data_path("cdn_asns.txt"),
            self.cloud_asn_file or _data_path("cloud_asns.txt"),
        )


def _expect(path: str, raw, kind=dict):
    if not isinstance(raw, kind):
        raise ConfigError(f"config {path} must be a JSON {'object' if kind is dict else 'list'}")
    return raw


def _build(path: str, target, raw, **fixed):
    """Make a record from the JSON object at path. target is a class, or
    an instance whose fields the object leaves out keep their values (an
    instance's class has a default for every field)."""
    # flight.kb_bytes is set only through the top-level kb_bytes.
    known = [name for name in target._fields if name not in fixed and name != "kb_bytes"]
    values = {}
    for key, value in _expect(path, raw).items():
        where = f"{path}.{key}" if path else key
        if key not in known:
            raise ConfigError(f"unknown config key {where}")
        if isinstance(getattr(target, key, None), Record):
            value = _build(where, getattr(target, key), value)
        elif where in _PROFILES:
            value = {n: _build(f"{where}.{n}", _PROFILES[where], d, name=n)
                     for n, d in _expect(where, value).items()}
        elif where == "sweep.optimizers":
            value = tuple(_build(f"{where}.{i}", SizeOptimizer, d)
                          for i, d in enumerate(_expect(where, value, list)))
        values[key] = value
    for name in known:
        if name not in values and name not in target._defaults:
            raise ConfigError(f"missing config key {path}.{name}")
    with blame(f"config {path or 'file'}"):
        return target(**fixed, **values) if isinstance(target, type) else target.replace(**values)


def load_config(path) -> Config:
    """The config in the JSON file at path. Every error names the file; a
    refused key or value reads path: message, as analyze's log errors do."""
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    # ValueError: not JSON, or not UTF-8; RecursionError: arrays nested too deep.
    except (OSError, ValueError, RecursionError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    with blame(f"{path}"):
        raw = dict(_expect("file", raw))
        cfg = Config()
        if "kb_bytes" in raw:
            cfg.kb_bytes = raw.pop("kb_bytes")
        return _build("", cfg, raw)


def save_config(cfg: Config, path) -> None:
    """Write cfg to path as the JSON file load_config reads: kb_bytes at the top,
    and each profile keyed by its name without a name field."""
    raw = cfg.asdict()
    for section in _PROFILES:
        for profile in raw[section].values():
            del profile["name"]
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"kb_bytes": raw["flight"].pop("kb_bytes"), **raw}, f, indent=2)
        f.write("\n")


def config_path(path_flag: str | None = None) -> str | None:
    """The config file named by flag, else by env var; None for the defaults."""
    return path_flag or os.environ.get(ENV_CONFIG)


def resolve_config(path_flag: str | None = None) -> Config:
    """Load the config named by flag, else env var, else defaults."""
    path = config_path(path_flag)
    return load_config(path) if path else Config()
