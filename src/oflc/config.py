"""INI-style scenario configuration: parse, validate, serialize.

README's CLI section gives the format.  Each section's keys, which of
them are required and their defaults are read off the ``records.fields``
of the record class it builds (``_keys``), so the code here states only
what the file format adds.
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

_PROFILES = {cls.kind: cls for cls in PROFILES}

# field type -> (what a value must be, text to value, value to text)
_TYPES = {
    int: ("an integer", int, str),
    float: ("a number", float, repr),
    Tuple[float, ...]: ("a number list", lambda text: tuple(float(x) for x in text.replace(",", " ").split()),
                        lambda values: " ".join(map(repr, values))),
}


def _keys(cls, **defaults):
    """{key: (type, default)} of the config section of record class ``cls``, in field order.

    ``defaults`` override the record's; a key with no default is
    required (``records.MISSING``).
    """
    keys = {}
    for f in fields(cls):
        default = defaults.get(f.name, f.default)
        if f.name == "i0":
            keys.update(i_d0=(float, default[0]), i_q0=(float, default[1]))
        elif f.name == "load_torque":
            keys["load"] = (float, default.value)
        elif f.type in _TYPES:
            keys[f.name] = (f.type, default)
    return keys


def _read(section, keys):
    """The values of a config section by key, over ``keys`` as from ``_keys``.

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
    return values


def build(section, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its ValidationError's field renamed ``<section>.<field>``.

    A record, ``domain.check`` and the section readers here name a
    rejected field bare; this names the config section it was read from
    (or that a command-line override changes), the one place that does.
    """
    try:
        return make(*args, **kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{section}.{exc.field}", exc.reason) from exc


def _record(cls, section):
    """Record class ``cls`` built from the keys of a config section."""
    return cls(**_read(section, _keys(cls)))


def _profile(section):
    """The profile of a ``[torque]`` or ``[speed]`` section, of the class its ``kind`` names."""
    kind = section.pop("kind", None)
    if kind is None:
        raise ValidationError("kind", "missing")
    if kind not in _PROFILES:
        raise ValidationError("kind", f"unknown profile kind {kind!r}")
    return _record(_PROFILES[kind], section)


def _mechanical(section):
    """The ``MechanicalModel`` of a ``[speed]`` section of ``kind = mechanical``."""
    del section["kind"]
    values = _read(section, _keys(MechanicalModel))
    load = values.pop("load")
    check(load=load)  # before ConstantProfile, which would name its own field
    return MechanicalModel(load_torque=ConstantProfile(load), **values)


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
    i0 = values.pop("i_d0"), values.pop("i_q0")
    tau_ref = build("torque", _profile, section("torque", True))

    speed, sp = ConstantProfile(0.0), section("speed")
    if "speed" in cp:
        speed = build("speed", _mechanical if sp.get("kind") == MechanicalModel.kind else _profile, sp)

    scenario = build("scenario", Scenario, params=params, tau_ref=tau_ref, speed=speed, i0=i0, **values)
    return scenario, build("controller", _record, ControllerSettings, section("controller"))


def _text(obj, **values):
    """The config section of record ``obj``: each key's value, from ``values`` or the field, as text."""
    return {key: _TYPES[kind][2](values[key] if key in values else getattr(obj, key))
            for key, (kind, _) in _keys(type(obj)).items()}


def serialize_config(scenario, settings=None):
    """Render a scenario (plus controller settings) back to config text.

    Raises ValidationError naming a field that the format cannot hold.
    """
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    cp["machine"] = _text(scenario.params)
    cp["scenario"] = _text(scenario, i_d0=scenario.i0[0], i_q0=scenario.i0[1])
    speed = scenario.speed
    if isinstance(speed, MechanicalModel) and type(speed.load_torque) is not ConstantProfile:
        raise ValidationError("speed.load", f"only a constant load torque can be written, got {speed.load_torque!r}")
    load = {"load": speed.load_torque.value} if isinstance(speed, MechanicalModel) else {}
    cp["torque"] = {"kind": scenario.tau_ref.kind, **_text(scenario.tau_ref)}
    cp["speed"] = {"kind": speed.kind, **_text(speed, **load)}
    if settings is not None:
        cp["controller"] = _text(settings)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()
