"""INI-style scenario configuration: parse, validate, serialize.

A minimal document needs a ``[machine]`` section and a torque profile;
everything else falls back to defaults::

    [machine]
    R = 0.5
    L_d = 3e-3
    L_q = 5e-3
    psi = 0.1
    p = 4

    [torque]
    kind = constant
    value = 4.0

Sections: ``[machine]``, ``[scenario]`` (rates/limits/initial state),
``[torque]`` (profile of the reference torque), ``[speed]`` (prescribed
electrical-speed profile or ``kind = mechanical`` with inertia/friction/
load), ``[controller]`` (PI gains, alpha_z).
"""

import configparser
import io
from dataclasses import dataclass

from .errors import ParseError, ValidationError
from .loop import PiGains
from .machine import MachineParams
from .profiles import ConstantProfile, SinusoidProfile, StepProfile, TableProfile, TrapezoidProfile
from .sim import MechanicalModel, Scenario

__all__ = ["ControllerSettings", "parse_config", "serialize_config"]

_SCENARIO_DEFAULTS = {
    "duration": 0.1,
    "dt_plant": 1e-6,
    "dt_ctrl": 1e-4,
    "horizon": 1e-3,
    "v_max": 48.0,
    "i_d0": 0.0,
    "i_q0": 0.0,
    "theta0": 0.0,
    "omega0": 0.0,
}

_PROFILE_FIELDS = {
    "constant": (ConstantProfile, {"value"}, set()),
    "step": (StepProfile, {"initial", "final", "t_step"}, set()),
    "sinusoid": (SinusoidProfile, {"amplitude", "frequency"}, {"offset", "phase"}),
    "trapezoid": (TrapezoidProfile, {"initial", "final", "t0", "t1"}, {"t2", "t3"}),
    "table": (TableProfile, {"times", "values"}, set()),
}


@dataclass(frozen=True)
class ControllerSettings:
    """Controller knobs carried alongside the scenario.

    Raises ValidationError naming ``controller.<field>`` for a value out
    of range, whether it came from a document or a command-line override.
    """

    kp: float = 5.0
    ki: float = 500.0
    alpha_z: float = 1.0

    def __post_init__(self):
        for name in ("kp", "ki"):
            if getattr(self, name) < 0.0:
                raise ValidationError(f"controller.{name}", "PI gains must be non-negative")
        if not 0.0 < self.alpha_z <= 1.0:
            raise ValidationError("controller.alpha_z", "must be in (0, 1]")

    def gains(self):
        return PiGains(kp=self.kp, ki=self.ki)


def _get_float(section, key, field):
    try:
        return float(section[key])
    except ValueError as exc:
        raise ValidationError(field, f"not a number: {section[key]!r}") from exc


def _float_list(text, field):
    try:
        return tuple(float(x) for x in text.replace(",", " ").split())
    except ValueError as exc:
        raise ValidationError(field, f"not a number list: {text!r}") from exc


def _parse_profile(section, section_name):
    kind = section.get("kind")
    if kind is None:
        raise ValidationError(f"{section_name}.kind", "missing")
    if kind not in _PROFILE_FIELDS:
        raise ValidationError(f"{section_name}.kind", f"unknown profile kind {kind!r}")
    cls, required, optional = _PROFILE_FIELDS[kind]
    given = {k for k in section if k != "kind"}
    missing = required - given
    if missing:
        raise ValidationError(f"{section_name}.{sorted(missing)[0]}", "missing")
    unknown = given - required - optional
    if unknown:
        raise ValidationError(f"{section_name}.{sorted(unknown)[0]}", f"unknown key for kind {kind!r}")
    kwargs = {}
    for key in given:
        field = f"{section_name}.{key}"
        if kind == "table":
            kwargs[key] = _float_list(section[key], field)
        else:
            kwargs[key] = _get_float(section, key, field)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValidationError(section_name, str(exc)) from exc


def parse_config(text):
    """Parse a scenario document; returns (Scenario, ControllerSettings).

    Raises ParseError for malformed documents and ValidationError (with
    the offending field named) for invariant violations.
    """
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keys like L_d are case-sensitive
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ParseError(str(exc)) from exc

    if "machine" not in cp:
        raise ValidationError("machine", "section missing")
    m = cp["machine"]
    for key in ("R", "L_d", "L_q", "psi", "p"):
        if key not in m:
            raise ValidationError(f"machine.{key}", "missing")
    try:
        params = MachineParams(
            R=_get_float(m, "R", "machine.R"),
            L_d=_get_float(m, "L_d", "machine.L_d"),
            L_q=_get_float(m, "L_q", "machine.L_q"),
            psi=_get_float(m, "psi", "machine.psi"),
            p=int(m["p"]),
        )
    except ValueError as exc:
        raise ValidationError("machine", str(exc)) from exc

    sc = cp["scenario"] if "scenario" in cp else {}
    vals = {}
    for key, default in _SCENARIO_DEFAULTS.items():
        if key in sc:
            vals[key] = _get_float(sc, key, f"scenario.{key}")
        else:
            vals[key] = default
    unknown = set(sc) - set(_SCENARIO_DEFAULTS)
    if unknown:
        raise ValidationError(f"scenario.{sorted(unknown)[0]}", "unknown key")

    if "torque" not in cp:
        raise ValidationError("torque", "section missing")
    tau_ref = _parse_profile(cp["torque"], "torque")

    speed = None
    mechanical = None
    if "speed" in cp and cp["speed"].get("kind") == "mechanical":
        sp = cp["speed"]
        known = {"kind", "inertia", "friction", "load"}
        unknown = set(sp) - known
        if unknown:
            raise ValidationError(f"speed.{sorted(unknown)[0]}", "unknown key")
        if "inertia" not in sp:
            raise ValidationError("speed.inertia", "missing")
        try:
            mechanical = MechanicalModel(
                inertia=_get_float(sp, "inertia", "speed.inertia"),
                friction=_get_float(sp, "friction", "speed.friction") if "friction" in sp else 0.0,
                load_torque=ConstantProfile(_get_float(sp, "load", "speed.load")) if "load" in sp else ConstantProfile(0.0),
            )
        except ValueError as exc:
            raise ValidationError("speed", str(exc)) from exc
    elif "speed" in cp:
        speed = _parse_profile(cp["speed"], "speed")
    else:
        speed = ConstantProfile(0.0)

    scenario = Scenario(
        params=params,
        duration=vals["duration"],
        tau_ref=tau_ref,
        speed=speed,
        mechanical=mechanical,
        dt_plant=vals["dt_plant"],
        dt_ctrl=vals["dt_ctrl"],
        horizon=vals["horizon"],
        v_max=vals["v_max"],
        i0=(vals["i_d0"], vals["i_q0"]),
        theta0=vals["theta0"],
        omega0=vals["omega0"],
    )

    cs = cp["controller"] if "controller" in cp else {}
    unknown = set(cs) - {"kp", "ki", "alpha_z"}
    if unknown:
        raise ValidationError(f"controller.{sorted(unknown)[0]}", "unknown key")
    return scenario, ControllerSettings(**{key: _get_float(cs, key, f"controller.{key}") for key in cs})


def _profile_section(profile):
    out = {"kind": profile.kind}
    if profile.kind == "table":
        out["times"] = " ".join(repr(x) for x in profile.times)
        out["values"] = " ".join(repr(x) for x in profile.values)
    else:
        for key, value in vars(profile).items():
            out[key] = repr(value)
    return out


def serialize_config(scenario, settings=None):
    """Render a scenario (plus controller settings) back to config text."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    p = scenario.params
    cp["machine"] = {"R": repr(p.R), "L_d": repr(p.L_d), "L_q": repr(p.L_q),
                     "psi": repr(p.psi), "p": str(p.p)}
    cp["scenario"] = {
        "duration": repr(scenario.duration),
        "dt_plant": repr(scenario.dt_plant),
        "dt_ctrl": repr(scenario.dt_ctrl),
        "horizon": repr(scenario.horizon),
        "v_max": repr(scenario.v_max),
        "i_d0": repr(scenario.i0[0]),
        "i_q0": repr(scenario.i0[1]),
        "theta0": repr(scenario.theta0),
        "omega0": repr(scenario.omega0),
    }
    cp["torque"] = _profile_section(scenario.tau_ref)
    if scenario.mechanical is not None:
        mech = scenario.mechanical
        if not isinstance(mech.load_torque, ConstantProfile):
            raise ValidationError("speed.load", f"only a constant load torque can be written, got {mech.load_torque!r}")
        cp["speed"] = {"kind": "mechanical", "inertia": repr(mech.inertia),
                       "friction": repr(mech.friction),
                       "load": repr(mech.load_torque.value)}
    else:
        cp["speed"] = _profile_section(scenario.speed)
    if settings is not None:
        cp["controller"] = {"kp": repr(settings.kp), "ki": repr(settings.ki),
                            "alpha_z": repr(settings.alpha_z)}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()
