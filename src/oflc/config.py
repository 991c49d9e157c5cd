"""INI-style scenario configuration: parse, validate, serialize.

README's CLI section gives the format.  Each section's keys, which of
them are required and their defaults are read off the ``records.fields``
of the record class it builds (``_keys``), so the code here states only
what the file format adds: the ``duration`` default, each profile
section's kinds and ``_RENAMED``, the fields written under other keys.
Every section is read and written through ``build``, which alone names
the section of an error.
"""

import configparser
import io
from typing import Tuple

from .domain import check
from .errors import ParseError, ValidationError
from .loop import ControllerSettings
from .machine import MachineParams
from .profiles import PROFILES, ConstantProfile
from .records import MISSING, fields
from .sim import MechanicalModel, Scenario

__all__ = ["build", "parse_config", "serialize_config"]

# kind -> the record class that a [torque] or a [speed] section of that kind builds
_TORQUE_KINDS = {cls.kind: cls for cls in PROFILES}
_SPEED_KINDS = {**_TORQUE_KINDS, MechanicalModel.kind: MechanicalModel}

# field type -> (what a value must be, text to value, value to text)
_TYPES = {
    int: ("an integer", int, str),
    float: ("a number", float, repr),
    Tuple[float, ...]: ("a number list", lambda text: tuple(float(x) for x in text.replace(",", " ").split()),
                        lambda values: " ".join(map(repr, values))),
}


def _constant_load(load):
    """The load torque of ``load``, checked first: ConstantProfile would name its own field, ``value``."""
    check(load=load)
    return ConstantProfile(load)


def _load_value(load_torque):
    """The ``load`` of a mechanical load torque; the format holds only a constant one (a file holds no function)."""
    if type(load_torque) is not ConstantProfile:
        raise ValidationError("load", f"only a constant load torque can be written, got {load_torque!r}")
    return (load_torque.value,)


# field written under other keys -> (its float keys, the field from their values, their values from the field)
_RENAMED = {
    "i0": (("i_d0", "i_q0"), lambda *i0: i0, tuple),
    "load_torque": (("load",), _constant_load, _load_value),
}


def _keys(cls, **defaults):
    """{key: (type, default)} of the config section of record class ``cls``, in field order.

    ``defaults`` override the record's; a key with no default is
    required (``records.MISSING``).  A field of ``_RENAMED`` gives its
    keys.
    """
    keys = {}
    for f in fields(cls):
        value = defaults.get(f.name, f.default)
        if f.name in _RENAMED:
            names, _, split = _RENAMED[f.name]
            keys.update(zip(names, ((float, x) for x in split(value))))
        elif f.type in _TYPES:
            keys[f.name] = (f.type, value)
    return keys


def _read(section, keys):
    """The field values of a config section by field name, over ``keys`` as from ``_keys``; the keys of a field of
    ``_RENAMED`` give that field.

    Raises ValidationError naming the bare key for an unknown key, a
    missing key with no default and a value that is not a number.
    """
    unknown = sorted(set(section) - set(keys))
    if unknown:
        raise ValidationError(unknown[0], "unknown key")
    values = {}
    for key, (kind, default) in keys.items():
        if key not in section:
            if default is MISSING:
                raise ValidationError(key, "missing")
            values[key] = default
            continue
        what, parse, _ = _TYPES[kind]
        try:
            values[key] = parse(section[key])
        except ValueError as exc:
            raise ValidationError(key, f"not {what}: {section[key]!r}") from exc
    for name, (names, join, _) in _RENAMED.items():
        if names[0] in values:
            values[name] = join(*(values.pop(key) for key in names))
    return values


def build(section, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its ValidationError's field renamed ``<section>.<field>``.

    A record, ``domain.check`` and the section readers and writers here
    name a rejected field bare; this names the config section it was read
    from or written to (or that a command-line override changes), the one
    place that does.
    """
    try:
        return make(*args, **kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{section}.{exc.field}", exc.reason) from exc


def _record(cls, section):
    """Record class ``cls`` built from the keys of a config section."""
    return cls(**_read(section, _keys(cls)))


def _profile(section, kinds):
    """The record of a ``[torque]`` or ``[speed]`` section, of the class of ``kinds`` that its ``kind`` names."""
    kind = section.pop("kind", None)
    if kind is None:
        raise ValidationError("kind", "missing")
    if kind not in kinds:
        raise ValidationError("kind", f"unknown profile kind {kind!r}")
    return _record(kinds[kind], section)


def parse_config(text):
    """Parse a scenario document; returns (Scenario, ControllerSettings).

    Raises ParseError for malformed documents and ValidationError (with
    the offending field named) for invariant violations.
    """
    cp = configparser.ConfigParser(interpolation=None)  # no '%' syntax: '0.5%' is a bad number
    cp.optionxform = str  # keys like L_d are case-sensitive
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ParseError(str(exc)) from exc

    def section(name, required=False):
        if required and name not in cp:
            raise ValidationError(name, "section missing")
        return dict(cp[name]) if name in cp else {}

    params = build("machine", _record, MachineParams, section("machine", True))
    values = build("scenario", _read, section("scenario"), _keys(Scenario, duration=0.1))
    tau_ref = build("torque", _profile, section("torque", True), _TORQUE_KINDS)
    speed = build("speed", _profile, section("speed"), _SPEED_KINDS) if "speed" in cp else ConstantProfile(0.0)
    scenario = build("scenario", Scenario, params=params, tau_ref=tau_ref, speed=speed, **values)
    return scenario, build("controller", _record, ControllerSettings, section("controller"))


def _text(record):
    """The config section of ``record``: its ``kind``, if it has one, then each key's value as text."""
    kind = {"kind": record.kind} if hasattr(record, "kind") else {}
    keys = _keys(type(record), **{f.name: getattr(record, f.name) for f in fields(record)})
    return {**kind, **{key: _TYPES[type_][2](value) for key, (type_, value) in keys.items()}}


def serialize_config(scenario, settings=None):
    """Render a scenario (plus controller settings) back to config text.

    Raises ValidationError naming a field that the format cannot hold.
    """
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    for name, record in (("machine", scenario.params), ("scenario", scenario), ("torque", scenario.tau_ref),
                         ("speed", scenario.speed), ("controller", settings)):
        if record is not None:
            cp[name] = build(name, _text, record)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()
