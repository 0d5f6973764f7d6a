"""Shared exception types, and the table lookup and field checks that raise ConfigError."""

import sys
from dataclasses import fields
from functools import cache


class ConfigError(ValueError):
    """A profile, plan, or config value is missing or inconsistent."""


class CalibrationError(ValueError):
    """Measurement data cannot support the requested fit."""


class LogFormatError(ValueError):
    """A log stream is unreadable as a whole (not just single bad lines)."""


class PaddingError(ValueError):
    """A certificate cannot be padded to the requested size.

    Carries the minimum achievable size in ``minimum_bytes`` when the
    target was too small.
    """

    def __init__(self, message, minimum_bytes=None):
        super().__init__(message)
        self.minimum_bytes = minimum_bytes


def lookup(table, name, what):
    """table[name], or a ConfigError naming the unknown `what` and every known name."""
    try:
        return table[name]
    except KeyError:
        raise ConfigError(f"unknown {what} {name!r}; known: {', '.join(sorted(table))}") from None


# Field checks keyed by the string annotations of the dataclasses (every
# module here uses postponed evaluation). Python's json reads NaN and
# Infinity, which the comparisons in the validators let through.


def _integer(name, value):
    # Arithmetic mixes these with floats, so they must fit in one.
    if isinstance(value, int) and not isinstance(value, bool) and abs(value) <= sys.float_info.max:
        return value
    raise ConfigError(f"{name} must be an integer within float range, got {value!r}")


def _finite(name, value):
    # The range test also fails for NaN and for ints too large for a float.
    if isinstance(value, (int, float)) and not isinstance(value, bool) and (
        -sys.float_info.max <= value <= sys.float_info.max
    ):
        return float(value)
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


def _string(name, value):
    if isinstance(value, str):
        return value
    raise ConfigError(f"{name} must be a string, got {value!r}")


def _optional(check):
    return lambda name, value: None if value is None else check(name, value)


def _tuple_of(check):
    def check_all(name, value):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        return tuple(check(name, v) for v in value)
    return check_all


_CHECKS = {
    "int": _integer,
    "float": _finite,
    "float | None": _optional(_finite),
    "str | None": _optional(_string),
    "tuple[float, ...]": _tuple_of(_finite),
    "tuple[str, ...]": _tuple_of(_string),
}


@cache
def _field_checks(cls) -> tuple:
    return tuple((f.name, _CHECKS[f.type]) for f in fields(cls) if f.type in _CHECKS)


def check_fields(obj) -> None:
    """Check and normalise each annotated field; raise ConfigError naming it."""
    for name, check in _field_checks(type(obj)):
        object.__setattr__(obj, name, check(name, getattr(obj, name)))
