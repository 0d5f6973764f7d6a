"""Shared exception types, the table lookup and field checks that raise
ConfigError, and Record, the base of every record type in certflight."""

import contextlib
import operator
import sys


class ConfigError(ValueError):
    """A profile, plan, or config value is missing or inconsistent."""


class CalibrationError(ValueError):
    """Measurement data cannot support the requested fit."""


class LogFormatError(ValueError):
    """A log stream is unreadable as a whole (not just single bad lines)."""


class PaddingError(ValueError):
    """A certificate cannot be padded to the requested size."""


@contextlib.contextmanager
def blame(where: str):
    """Run the block; a ValueError it raises becomes a ConfigError prefixed with where,
    the flag, file or key that gave the block its values (none where where is empty)."""
    try:
        yield
    except ValueError as e:
        raise ConfigError(f"{where}: {e}" if where else str(e)) from None


def lookup(table, name, what):
    """table[name], or a ConfigError naming the unknown `what` and every known name."""
    try:
        return table[name]
    except KeyError:
        raise ConfigError(f"unknown {what} {name!r}; known: {', '.join(sorted(table))}") from None


# Field checks keyed by the string annotations of the records (every module
# here uses postponed evaluation). Python's json reads NaN and Infinity, which
# the comparisons in the validators let through.


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


def _dict_of(check):
    def check_all(name, value):
        if not isinstance(value, dict):
            raise ConfigError(f"{name} must be a dict, got {value!r}")
        for key, item in value.items():
            _string(f"a key of {name}", key)
            check(f"{name}[{key!r}]", item)
        return value
    return check_all


def _of_type(kind: str):
    def check_type(name, value):
        if type(value).__name__ == kind:
            return value
        raise ConfigError(f"{name} must be a {kind}, got {value!r}")
    return check_type


# The check of each type a field may name: these, and each record class, whose check
# compares the name of its value's class (Record adds it).
_CHECKS = {"int": _integer, "float": _finite, "str": _string, "bool": _of_type("bool"),
           "bytes": _of_type("bytes")}


def _check_of(kind: str):
    """The check of a field annotated kind: X | None, tuple[X, ...], dict[str, X], or a
    type in _CHECKS; TypeError for any other annotation."""
    if kind.endswith(" | None"):
        return _optional(_check_of(kind[:-len(" | None")]))
    if kind.startswith("tuple[") and kind.endswith(", ...]"):
        return _tuple_of(_check_of(kind[len("tuple["):-len(", ...]")]))
    if kind.startswith("dict[str, ") and kind.endswith("]"):
        return _dict_of(_check_of(kind[len("dict[str, "):-1]))
    if kind not in _CHECKS:
        raise TypeError(f"no check reads the annotation {kind!r}")
    return _CHECKS[kind]


_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


def _bounded(check, bound: str):
    """check, then the declared bound: "op limit" terms joined by " and ", such as
    "> 0" or ">= 0 and <= 1". A tuple's items are bounded one by one, and None
    skips the bound. A value outside is refused in one shape naming the term."""
    terms = [(_OPS[op], float(limit), f"{op} {limit}")
             for op, limit in map(str.split, bound.split(" and "))]

    def check_bounded(name, value):
        value = check(name, value)
        for item in value if type(value) is tuple else (value,):
            for holds, limit, term in terms:
                if item is not None and not holds(item, limit):
                    raise ConfigError(f"{name} must be {term}, got {item!r}")
        return value
    return check_bounded


def check_fields(obj) -> None:
    """Check and normalise each annotated field; raise ConfigError naming it."""
    for name, check in obj._checks.items():
        object.__setattr__(obj, name, check(name, getattr(obj, name)))


def _refuse(obj, name, *value):
    raise AttributeError(f"{type(obj).__qualname__} is frozen: cannot set or delete {name!r}")


def _plain(value):
    if isinstance(value, Record):
        return value.asdict()
    if isinstance(value, (list, tuple)):
        return type(value)(map(_plain, value))
    if isinstance(value, dict):
        return type(value)((_plain(k), _plain(v)) for k, v in value.items())
    return value


class Record:
    """A class of named fields, built without generating code.

    A subclass's fields are its own annotations, in order; a class attribute
    of a field's name is its default, and a dict default is copied for each
    instance. The constructor binds fields by position or by name, refusing a
    missing, unknown or repeated one with TypeError, then calls __post_init__,
    which calls check_fields before the class's own: each field is checked as
    its annotation reads (see _check_of; a class whose annotation no check
    reads is refused when it is made), and then its bound in the class's _bounds
    table, such as {"rtt_ms": ">= 0"} (see _bounded). check_field checks one
    value so.
    A record equals a record of its own class with equal fields and prints as
    Name(field=value, ...). A class declared with frozen=True refuses every
    setattr and delattr (its __post_init__ sets fields with
    object.__setattr__) and hashes its fields; any other record is unhashable.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}
    _bounds: dict = {}
    _checks: dict = {}

    def __init_subclass__(cls, frozen: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        annotations = cls.__annotations__
        cls._fields = tuple(annotations)
        cls._defaults = {name: vars(cls)[name] for name in annotations if name in vars(cls)}
        cls._checks = {name: _check_of(kind) for name, kind in annotations.items()}
        _CHECKS[cls.__name__] = _of_type(cls.__name__)
        for name, bound in cls._bounds.items():
            cls._checks[name] = _bounded(cls._checks[name], bound)  # KeyError: no such field
        rules = vars(cls).get("__post_init__", Record.__post_init__)

        def __post_init__(self):
            check_fields(self)
            rules(self)
        cls.__post_init__ = __post_init__
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse
            cls.__hash__ = Record._hash

    def __init__(self, *args, **kwargs):
        cls, fields = type(self), self._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__qualname__}() takes {len(fields)} positional "
                            f"arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{cls.__qualname__}() got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{cls.__qualname__}() got multiple values for argument {name!r}")
            values[name] = value
        for name in fields:
            if name in values:
                value = values[name]
            elif name in self._defaults:
                value = self._defaults[name]
                value = dict(value) if type(value) is dict else value
            else:
                raise TypeError(f"{cls.__qualname__}() missing required argument {name!r}")
            # Not through vars(self): that builds an instance dict, and every later
            # attribute read (extra_rtts makes five a call) is then slower.
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    @classmethod
    def check_field(cls, name: str, value):
        """value checked and normalised as the field name's type and bound check it."""
        return cls._checks[name](name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def _hash(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A new record of this class with changes applied to its fields, checked
        as the constructor checks them."""
        return type(self)(**{**{name: getattr(self, name) for name in self._fields}, **changes})

    def asdict(self) -> dict:
        """The fields as a dict, records nested in fields, lists, tuples and
        dicts turned into dicts as well."""
        return {name: _plain(getattr(self, name)) for name in self._fields}
