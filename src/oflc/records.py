"""Frozen record classes: the package's value objects, without generated code.

A ``Record`` subclass declares its fields as class annotations, in order,
after those of its bases; a class value is the field's default.  Every
record shares one ``__init__``, which binds positional and keyword
arguments to the fields, checks each field by one rule and then calls
``__post_init__``, where a class checks what relates its fields.  The
rule reads the field's annotation and name:

* a ``float`` field stores any real number (numpy scalars and bools
  among them) as a Python float; an ``int`` field stores an integer, but
  not a bool, as an int; a ``Tuple[float, ...]`` or
  ``Tuple[float, float]`` field stores a tuple, a list or an array of
  reals as a tuple of floats;
* such a number field whose name is a key of ``domain.RANGES`` must lie
  in that range, each number of a tuple alike;
* a field annotated with a class, or with a ``Union`` of classes, must
  hold an instance of exactly one of them, matched by exact type.

Anything else there raises ``ValidationError`` naming the bare field,
and so does an int past the float range in a float field, where no float
holds it (a trapezoid's open end is inf, not such an int);
``config.build`` names the config section before it.  So the code that
reads a record computes in Python floats and ints only, inside the
physical domain, and a numpy machine constant runs, and writes its
trace, exactly as the float it equals.  A record holds its fields and
nothing else, but for the plant constants of ``sim.Scenario``.  Records
compare equal by class and field values, hash their field values, print
as ``Name(field=value, ...)`` and reject assignment and deletion.
``fields``, ``replace`` and ``MISSING`` stand in for the ``dataclasses``
functions of those names.

Nothing is generated per class, so defining a record costs what defining
a plain class does; importing ``dataclasses`` (and with it ``inspect``)
and building the methods of eleven classes took 20-35 ms of every start
(``python -X importtime``, Python 3.11, 2-core host).
"""

from collections import namedtuple
from numbers import Integral, Real
from typing import Tuple, Union, get_args, get_origin

from .domain import RANGES, check
from .errors import ValidationError

__all__ = ["Record", "Field", "MISSING", "fields", "replace"]


MISSING = object()  # the default of a field that has none

Field = namedtuple("Field", "name type default")


def _floats(value, n=None):
    """The items of ``value`` as a tuple of floats where it holds reals only (n of them, if n is given); else None."""
    try:
        items = tuple(value)
    except TypeError:  # not iterable
        return None
    reals = all(isinstance(x, Real) for x in items) and (n is None or len(items) == n)
    return tuple(map(float, items)) if reals else None


# field type -> (what its value must be, the value stored for a given one, or None where there is none)
_NUMBERS = {
    float: ("a real number", lambda x: float(x) if isinstance(x, Real) else None),
    int: ("an integer", lambda x: int(x) if isinstance(x, Integral) and not isinstance(x, bool) else None),
    Tuple[float, ...]: ("a sequence of real numbers", _floats),
    Tuple[float, float]: ("a pair of real numbers", lambda x: _floats(x, 2)),
}


def _checked(f, value):
    """``value`` as field ``f`` stores it, by the module docstring's rule; a value the rule rejects raises
    ValidationError naming ``f.name``."""
    if f.type in _NUMBERS:
        what, typed = _NUMBERS[f.type]
        try:
            number = typed(value)
        except OverflowError:  # float() of an int past the largest float
            raise ValidationError(f.name, f"must be {what} within the float range, got {value!r}") from None
        if number is None:
            raise ValidationError(f.name, f"must be {what}, got {value!r}")
        if f.name in RANGES:
            for x in number if type(number) is tuple else (number,):
                check(**{f.name: x})
        return number
    classes = get_args(f.type) if get_origin(f.type) is Union else (f.type,) if isinstance(f.type, type) else ()
    if classes and type(value) not in classes:
        raise ValidationError(f.name, f"must be a {' or '.join(c.__name__ for c in classes)}, got {value!r}")
    return value


class Record:
    """Base of the frozen record classes; see the module docstring."""

    def __init_subclass__(cls):
        found = {}
        for klass in reversed(cls.__mro__):
            for name, kind in klass.__dict__.get("__annotations__", {}).items():
                found[name] = Field(name, kind, klass.__dict__.get(name, MISSING))
        cls._record_fields = tuple(found.values())  # the class's Fields, read by every method

    def __init__(self, *args, **kwargs):
        fields_ = self._record_fields
        if len(args) > len(fields_):
            raise TypeError(f"{type(self).__qualname__}() takes {len(fields_)} arguments but {len(args)} were given")
        for f in fields_[:len(args)]:
            if f.name in kwargs:
                raise TypeError(f"{type(self).__qualname__}() got multiple values for argument {f.name!r}")
        values = (*args, *(kwargs.pop(f.name, f.default) for f in fields_[len(args):]))
        if kwargs:
            raise TypeError(f"{type(self).__qualname__}() got an unexpected keyword argument {next(iter(kwargs))!r}")
        for f, value in zip(fields_, values):
            if value is MISSING:
                raise TypeError(f"{type(self).__qualname__}() missing required argument {f.name!r}")
            # not through self.__dict__, which CPython 3.11 then keeps as a dict and reads more slowly
            object.__setattr__(self, f.name, _checked(f, value))
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self):
        return tuple(getattr(self, f.name) for f in self._record_fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in self._record_fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__qualname__} is frozen: cannot assign to {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__qualname__} is frozen: cannot delete {name!r}")


def fields(record):
    """The ``Field(name, type, default)`` of each field of a record or record class, in order."""
    return record._record_fields


def replace(record, **changes):
    """A new record of ``record``'s class with ``changes`` applied; its ``__post_init__`` runs again."""
    return type(record)(**{**{f.name: getattr(record, f.name) for f in record._record_fields}, **changes})
