import configparser
import contextlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oflc import loop, records
from oflc.cli import FIGURES, _write_trace, main
from oflc.config import parse_config, serialize_config
from oflc.domain import RANGES, RK4_RADIUS, rk4_limit
from oflc.errors import ValidationError
from oflc.loop import CONTROLLERS, ControlFrame, ControllerSettings
from oflc.optimizer import U_CLAMPED
from oflc.profiles import ConstantProfile, SinusoidProfile, StepProfile, TableProfile, TrapezoidProfile
from oflc.sim import MechanicalModel, run_scenario

SRC = Path(__file__).resolve().parents[1] / "src"
SCENARIOS = SRC.parent / "scenarios"
MECHANICAL = (SCENARIOS / "mechanical.cfg").read_text()

TINY = """
[machine]
R = 0.5
L_d = 3e-3
L_q = 5e-3
psi = 0.1
p = 4

[scenario]
duration = 0.005
dt_plant = 1e-5
dt_ctrl = 1e-4

[torque]
kind = constant
value = 3.0

[speed]
kind = constant
value = 100.0
"""


def _trace_frames(path):
    """The ControlFrames of a trace CSV, read back from its rows."""
    rows = (line.split(",") for line in path.read_text().splitlines()[2:])
    return [ControlFrame(*map(float, values), int(flags)) for *values, flags in rows]


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return path


def test_simulate_happy_path(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "runs"
    rc = main(["simulate", "--scenario", str(tiny_cfg), "--controller", "oflc", "--out", str(out)])
    assert rc == 0
    trace = (out / "oflc_trace.csv").read_text().splitlines()
    assert trace[0].startswith("# flags bitfield")
    assert trace[1].startswith("t,i_d,i_q,v_d,v_q,")
    assert len(trace) == 2 + 50  # 0.005 / 1e-4 ticks
    summary = (out / "oflc_summary.txt").read_text()
    assert "cost_integral_A2s:" in summary
    assert "rms_torque_error_Nm:" in summary
    assert "cost_integral_A2s:" in capsys.readouterr().out


def test_trace_rows_are_consistent(tiny_cfg, tmp_path):
    # the header is the record's schema, and every row of every controller reads
    # back as its record, keeps the voltage limit (criterion 4) and repeats on a
    # second run; at v_max = 2 V the command is clamped from the first tick
    scenario, settings = parse_config(TINY)
    for v_max in (48.0, 2.0):
        out = tmp_path / f"v_max_{v_max}"
        main(["compare", "--scenario", str(tiny_cfg), "--out", str(out), "--v-max", repr(v_max),
              "--controllers", *CONTROLLERS])
        limited = records.replace(scenario, v_max=v_max)
        for name in CONTROLLERS:
            header, *rows = (out / f"{name}_trace.csv").read_text().splitlines()[1:]
            assert header == ",".join(ControlFrame._fields)
            frames = run_scenario(limited, name, settings=settings).frames
            assert run_scenario(limited, name, settings=settings).frames == frames
            assert len(rows) == len(frames)
            for row, frame in zip(rows, frames):
                *values, flags = row.split(",")
                assert ControlFrame(*map(float, values), int(flags)) == frame
                assert math.hypot(frame.v_d, frame.v_q) <= v_max * (1.0 + 1e-9)
            if name == "oflc":
                assert bool(frames[0].flags & U_CLAMPED) == (v_max == 2.0)


@pytest.mark.parametrize("name, field, number", [("s1", "R", np.float64), ("mechanical", "p", np.int64)])
def test_numpy_machine_constants_run_and_write_as_python_numbers(tmp_path, name, field, number):
    # a record stores a numpy scalar as the Python number it equals, so the run is that of the plain number: the
    # same frames, every field but flags a Python float, and the same trace text (no "np.float64(" in a row)
    scenario, settings = parse_config((SCENARIOS / f"{name}.cfg").read_text())
    params = records.replace(scenario.params, **{field: number(getattr(scenario.params, field))})
    plain = run_scenario(scenario, settings=settings).frames
    frames = run_scenario(records.replace(scenario, params=params), settings=settings).frames
    assert frames == plain
    assert all(type(x) is float for frame in frames for x in frame[:-1])
    _write_trace(tmp_path / "plain.csv", plain, 1)
    _write_trace(tmp_path / "numpy.csv", frames, 1)
    assert (tmp_path / "numpy.csv").read_text() == (tmp_path / "plain.csv").read_text()


def test_decimation(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "runs"
    main(["simulate", "--scenario", str(tiny_cfg), "--out", str(out), "--decimate", "10"])
    trace = (out / "oflc_trace.csv").read_text().splitlines()
    assert len(trace) == 2 + 5

    capsys.readouterr()
    assert main(["simulate", "--scenario", str(tiny_cfg), "--out", str(tmp_path / "none"), "--decimate", "0"]) == 1
    assert capsys.readouterr().err == "error: --decimate must be >= 1\n"
    assert not (tmp_path / "none").exists()


def test_compare_writes_summary(tiny_cfg, tmp_path):
    out = tmp_path / "cmp"
    rc = main(["compare", "--scenario", str(tiny_cfg), "--out", str(out)])
    assert rc == 0
    summary = (out / "compare_summary.txt").read_text()
    assert "oflc_cost_integral_A2s:" in summary
    assert "flc_z0_cost_integral_A2s:" in summary
    assert "oflc_over_flc_z0_energy_ratio:" in summary
    assert (out / "oflc_trace.csv").exists() and (out / "flc_z0_trace.csv").exists()


def test_compare_runs_a_controller_named_twice_once(tiny_cfg, tmp_path, capsys):
    once, twice = tmp_path / "once", tmp_path / "twice"
    assert main(["compare", "--scenario", str(tiny_cfg), "--out", str(once), "--controllers", "oflc"]) == 0
    capsys.readouterr()
    assert main(["compare", "--scenario", str(tiny_cfg), "--out", str(twice), "--controllers", "oflc", "oflc"]) == 0
    assert capsys.readouterr().out.count("--- oflc ---") == 1
    for name in ("oflc_trace.csv", "oflc_summary.txt", "compare_summary.txt"):
        assert (twice / name).read_bytes() == (once / name).read_bytes()


def test_compare_summary_repeats_each_run_summary_figure(tiny_cfg, tmp_path):
    out = tmp_path / "cmp"
    names = ("oflc", "flc_z0", "id_zero")
    assert main(["compare", "--scenario", str(tiny_cfg), "--out", str(out), "--controllers", *names]) == 0
    compare = dict(line.split(": ", 1) for line in (out / "compare_summary.txt").read_text().splitlines())
    checked = 0
    for name in names:
        summary = dict(line.split(": ", 1) for line in (out / f"{name}_summary.txt").read_text().splitlines())
        for key, value in compare.items():
            if key.startswith(name + "_") and key[len(name) + 1:] in summary:
                assert value == summary[key[len(name) + 1:]], key
                checked += 1
    assert checked == len(FIGURES) * len(names)


def test_out_dir_env_default(tiny_cfg, tmp_path, monkeypatch):
    env_dir = tmp_path / "envout"
    monkeypatch.setenv("OFLC_OUT_DIR", str(env_dir))
    rc = main(["simulate", "--scenario", str(tiny_cfg)])
    assert rc == 0
    assert (env_dir / "oflc_trace.csv").exists()


def test_unknown_flag_exits_1(tiny_cfg):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", str(tiny_cfg), "--bogus"])
    assert exc.value.code == 1


def test_validation_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY.replace("dt_plant = 1e-5", "dt_plant = 1.0"))
    rc = main(["simulate", "--scenario", str(bad)])
    assert rc == 1
    assert "dt_plant" in capsys.readouterr().err

    good = tmp_path / "good.cfg"
    good.write_text(TINY)
    for flag, value, message in (("--alpha-z", "2", "controller.alpha_z: must be in [1e-06, 1], got 2.0"),
                                 ("--kp", "-1", "controller.kp"), ("--ki", "-1", "controller.ki"),
                                 ("--v-max", "nan", "scenario.v_max: must be in [1, 10000] V, got nan"),
                                 ("--v-max", "1e200", "scenario.v_max: must be in [1, 10000] V, got 1e+200"),
                                 ("--horizon", "0", "scenario.horizon: must be in [1e-06, 1] s, got 0.0"),
                                 # argparse's own negative-number pattern has no exponent
                                 ("--horizon", "-1e-3", "scenario.horizon: must be in [1e-06, 1] s, got -0.001"),
                                 ("--v-max", "-1e3", "scenario.v_max: must be in [1, 10000] V, got -1000.0"),
                                 ("--kp", "-1e3", "controller.kp: "),
                                 ("--kp", "nan", "controller.kp"), ("--ki", "inf", "controller.ki")):
        rc = main(["simulate", "--scenario", str(good), "--out", str(tmp_path), flag, value])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err

    for old, new, message in (("duration = 0.005", "duration = nan",
                               "scenario.duration: must be in [1e-10, 10000] s, got nan"),
                              ("duration = 0.005", "duration = inf", "scenario.duration: must be in "),
                              ("dt_plant = 1e-5", "dt_plant = nan", "scenario.dt_plant: must be in "),
                              ("dt_plant = 1e-5", "dt_plant = -1e-6", "scenario.dt_plant: must be in "),
                              ("dt_ctrl = 1e-4", "dt_ctrl = 1e-4\nv_max = nan", "scenario.v_max: must be in "),
                              ("p = 4", "p = 4.5", "machine.p: not an integer"),
                              ("p = 4", "p = 1" + "0" * 400, "machine.p: must be in [1, 100] pole pairs, got 1000"),
                              ("R = 0.5", "R = inf", "machine.R: must be in "),
                              ("L_d = 3e-3", "L_d = nan", "machine.L_d: must be in "),
                              ("L_q = 5e-3", "L_q = inf", "machine.L_q: must be in "),
                              ("L_q = 5e-3", "L_q = 5e-320", "machine.L_q: must be in [1e-06, 1] H, got 5e-320"),
                              ("psi = 0.1", "psi = nan", "machine.psi: must be in "),
                              ("dt_ctrl = 1e-4", "dt_ctrl = 1e-4\ni_d0 = nan", "scenario.i_d0: must be in "),
                              ("dt_ctrl = 1e-4", "dt_ctrl = 1e-4\ni_q0 = inf", "scenario.i_q0: must be in "),
                              ("value = 3.0", "value = nan", "torque.value: must be in [-1e+10, 1e+10], got nan"),
                              ("value = 100.0", "value = nan", "speed.value: must be in "),
                              ("dt_ctrl = 1e-4", "dt_ctrl = 1e-4\ntheta0 = 0.0", "scenario.theta0: unknown key"),
                              ("duration = 0.005", "duration = 1e308", "scenario.duration: must be in "),
                              ("duration = 0.005", "duration = 0.00505",
                               "scenario.duration: must be an integer multiple"),
                              ("duration = 0.005\ndt_plant = 1e-5\ndt_ctrl = 1e-4",
                               "duration = 5e-10\ndt_plant = 1e-5\ndt_ctrl = 1e-3",
                               "scenario.duration: must be at least dt_ctrl"),
                              ("dt_ctrl = 1e-4", "dt_ctrl = 1e-4\nomega0 = 0.0", "scenario.omega0: unknown key"),
                              ("dt_ctrl = 1e-4", "dt_ctrl = 1e308", "scenario.dt_ctrl: must be in "),
                              ("dt_ctrl = 1e-4", "dt_ctrl = 1.05e-4", "scenario.dt_ctrl: must be an integer multiple"),
                              ("dt_plant = 1e-5\ndt_ctrl = 1e-4", "dt_plant = 1e-10\ndt_ctrl = 1e-3",
                               "scenario.dt_plant: gives more than 1000000 substeps"),
                              ("duration = 0.005\ndt_plant = 1e-5", "duration = 1.0\ndt_plant = 1e-9",
                               "scenario.dt_plant: gives more than 100000000 substeps per run"),
                              ("value = 3.0", "value = inf", "torque.value: must be in "),
                              ("value = 100.0", "value = inf", "speed.value: must be in "),
                              ("kind = constant\nvalue = 3.0", "kind = table\ntimes = 0 1e-3\nvalues = 0 inf",
                               "torque.values: must be in [-1e+10, 1e+10], got inf"),
                              # a torque of +-1e308 N m, whose squared error once overflowed the run's RMS to inf
                              ("kind = constant\nvalue = 3.0", "kind = table\ntimes = 0 0.05\nvalues = 1e308 -1e308",
                               "torque.values: must be in [-1e+10, 1e+10], got 1e+308"),
                              ("kind = constant\nvalue = 3.0", "kind = step\ninitial = 0\nfinal = 3\nt_step = -inf",
                               "torque.t_step: must be in [-10000, 10000] s, got -inf"),
                              ("kind = constant\nvalue = 100.0", "kind = sinusoid\namplitude = 50\nfrequency = inf",
                               "speed.frequency: must be in [-5e+09, 5e+09] Hz, got inf"),
                              ("kind = constant\nvalue = 3.0",
                               "kind = trapezoid\ninitial = 0\nfinal = 3\nt0 = 0\nt1 = 1e-3\nt2 = -inf",
                               "torque.t2: must be in [-10000, inf] s, got -inf"),
                              # a ramp whose (final - initial)(t - t0) overflowed to inf at t = 0, where it reads 0
                              ("kind = constant\nvalue = 3.0",
                               "kind = trapezoid\ninitial = 0\nfinal = 402301\nt0 = -4.46852763195298e+302\nt1 = 1",
                               "torque.t0: must be in [-10000, 10000] s, got -4.46852763195298e+302"),
                              # breakpoints so close that the slope would overflow
                              ("kind = constant\nvalue = 3.0", "kind = table\ntimes = 0 1e-300\nvalues = 0 1",
                               "torque.times: must be strictly increasing, at least 1e-10 s apart"),
                              ("R = 0.5", "R = 0.5%", "machine.R: not a number: '0.5%'"),
                              ("kind = constant\nvalue = 3.0", "kind = table\ntimes = 0 2e-3 1e-3\nvalues = 1 2 3",
                               "torque.times: must be strictly increasing"),
                              ("kind = constant\nvalue = 3.0", "kind = table\ntimes = 0\nvalues = 1",
                               "torque.times: a table needs at least two points"),
                              ("kind = constant\nvalue = 3.0", "kind = table\ntimes = 0 1e-3\nvalues = 1 2 3",
                               "torque.values: needs one value per time, got 3 for 2"),
                              ("kind = constant\nvalue = 3.0", "value = 3.0", "torque.kind: missing"),
                              ("[machine]", "[motor]", "machine: section missing")):
        bad.write_text(TINY.replace(old, new))
        rc = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path)])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err

    # a flux far beyond any machine's is rejected up front, not run until it diverges
    bad.write_text(TINY.replace("psi = 0.1", "psi = 1e308"))
    assert main(["simulate", "--scenario", str(bad), "--out", str(tmp_path)]) == 1
    assert "error: machine.psi: must be in [0.0001, 100] Wb, got 1e+308" in capsys.readouterr().err

    # a non-finite input of the mechanical model is rejected up front, not run until the plant diverges
    for old, new, message in (("inertia = 1e-3", "inertia = nan", "speed.inertia: must be in [1e-09, 10000] kg m^2"),
                              ("inertia = 1e-3", "inertia = inf", "speed.inertia: must be in "),
                              ("friction = 2e-3", "friction = nan", "speed.friction: must be in [0, 1000] N m s"),
                              ("friction = 2e-3", "friction = inf", "speed.friction: must be in "),
                              ("load = 0.5", "load = nan", "speed.load: must be in [-1e+06, 1e+06] N m, got nan"),
                              ("load = 0.5", "load = inf", "speed.load: must be in "),
                              ("load = 0.5", "load = -inf", "speed.load: must be in "),
                              ("load = 0.5", "load = 0.5\nomega0 = nan", "speed.omega0: must be in "),
                              # finite, but friction*dt_plant/inertia = 3: the speed's Euler step would grow
                              ("inertia = 1e-3\nfriction = 2e-3", "inertia = 1e-6\nfriction = 0.3",
                               "scenario.speed: friction 0.3 gives friction*dt_plant/inertia 3, not below 2")):
        bad.write_text(MECHANICAL.replace(old, new))
        rc = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path)])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err


# one profile of each kind, which TINY runs as its torque or its speed
PROFILES = (ConstantProfile(3.0), StepProfile(0.0, 3.0, 1e-3), SinusoidProfile(3.0, 50.0, 1.0, 0.5),
            TrapezoidProfile(0.0, 3.0, 0.0, 1e-3, 2e-3, 3e-3), TableProfile((0.0, 1e-3), (1.0, 2.0)))


def test_every_non_finite_number_exits_1_naming_its_key(tmp_path, capsys):
    # every numeric key of every section, under each profile kind for [torque] and [speed] and in mechanical mode,
    # written out by serialize_config; a number list gets the bad value as its last number.  Only a trapezoid's
    # open ends t2 and t3 take +inf, which serialize_config writes for them
    scenario, settings = parse_config(TINY)
    variants = [records.replace(scenario, tau_ref=profile) for profile in PROFILES]
    variants += [records.replace(scenario, speed=profile) for profile in PROFILES]
    variants.append(records.replace(scenario, speed=MechanicalModel(inertia=1e-3, friction=2e-3,
                                                                   load_torque=ConstantProfile(0.5))))
    cfg, seen = tmp_path / "bad.cfg", set()
    for variant in variants:
        document = configparser.ConfigParser(interpolation=None)
        document.optionxform = str
        document.read_string(serialize_config(variant, settings))
        for name, section in document.items():
            for key, text in section.items():
                if key == "kind" or (name, section.get("kind"), key) in seen:
                    continue
                seen.add((name, section.get("kind"), key))
                for bad in ("nan", "inf", "-inf"):
                    section[key] = " ".join(text.split()[:-1] + [bad])
                    with cfg.open("w") as f:
                        document.write(f)
                    section[key] = text
                    rc = main(["simulate", "--scenario", str(cfg), "--out", str(tmp_path)])
                    err = capsys.readouterr().err
                    if key in ("t2", "t3") and bad == "inf":
                        assert rc == 0, (name, key, bad, err)
                        continue
                    assert rc == 1 and err.startswith(f"error: {name}.{key}: "), (name, key, bad, err)
    assert len(seen) == 5 + 7 + 3 + 2 * 16 + 4  # machine, scenario, controller, two sections of profiles, mechanical


# the config section of each input of the domain table; load is the constant load of a mechanical [speed], and a
# profile's key is taken by [torque] or [speed], as drawn
SECTIONS = {**dict.fromkeys(("R", "L_d", "L_q", "psi", "p"), "machine"),
            **dict.fromkeys(("v_max", "dt_plant", "dt_ctrl", "duration", "horizon", "i_d0", "i_q0"), "scenario"),
            **dict.fromkeys(("inertia", "friction", "load", "omega0"), "speed"),
            **dict.fromkeys(("kp", "ki", "alpha_z"), "controller")}
# each profile key -> a profile of PROFILES that has it
PROFILE_OF = {f.name: profile for profile in PROFILES for f in records.fields(profile)}


@st.composite
def _past_a_bound(draw):
    """(name, value): an input of the domain table, or "rk4" for the peak of a step speed profile on TINY's
    machine and dt_plant, and a value just past one of its bounds."""
    name = draw(st.sampled_from((*RANGES, "rk4")))
    outward, f = draw(st.sampled_from((-1.0, 1.0))), draw(st.floats(0.0, 1.0))
    if name == "rk4":
        machine = parse_config(TINY)[0].params
        # the peak at which rk4_limit reaches TINY's dt_plant; RK4_RADIUS / rk4_limit at rest is max(R/L_d, R/L_q)
        limit = RK4_RADIUS / 1e-5 - RK4_RADIUS / rk4_limit(machine, 0.0)
        return name, outward * limit * (1.0 + 1e-9) * (1.0 + f)
    if RANGES[name][1] == math.inf:  # t2 and t3, whose +inf is a trapezoid's open end
        outward = -1.0
    bound = RANGES[name][outward > 0.0]
    if name == "p":
        return name, bound + int(outward) * (1 + int(5 * f))
    return name, math.nextafter(bound, outward * math.inf) + outward * f * (0.9 * abs(bound) or 1.0)


@given(_past_a_bound(), st.sampled_from(("torque", "speed")))
def test_inputs_past_the_domain_exit_1_naming_their_field(tmp_path_factory, name_and_value, profile_section):
    # each input of the table, just past either bound, and a speed profile that RK4 cannot step at dt_plant, are
    # rejected where the library builds them, naming the field, and by oflc simulate, naming its key.  A profile's
    # key is taken by a profile in profile_section; a table takes the value as one of its two points
    name, value = name_and_value
    base = parse_config(TINY)[0]
    mechanical = MechanicalModel(inertia=1e-3, friction=2e-3, load_torque=ConstantProfile(0.5))
    ramp = StepProfile(0.0, 100.0, 1e-3)
    profile = PROFILE_OF.get(name)
    if name == "load":  # the two that build a profile, which rejects a value past its own range
        changes = {"load_torque": ConstantProfile(value)}
    elif name == "rk4":
        changes = {"speed": records.replace(ramp, final=value)}
    else:
        changes = {"i_d0": {"i0": (value, 0.0)}, "i_q0": {"i0": (0.0, value)},
                   "times": {"times": (value, 1e-3) if value < 0.0 else (0.0, value)},
                   "values": {"values": (1.0, value)}}.get(name, {name: value})
    # the record that takes the value, the bare field its error names, the changes to TINY written as the document,
    # the key that takes the value there and the field of oflc simulate's error
    profile_key = f"{profile_section}.{name}"
    record, field, document_changes, key, cli_field = {
        "machine": (base.params, name, {}, f"machine.{name}", f"machine.{name}"),
        "scenario": (base, name, {}, f"scenario.{name}", f"scenario.{name}"),
        "speed": (mechanical, name, {"speed": mechanical}, f"speed.{name}", f"speed.{name}"),
        "controller": (ControllerSettings(), name, {}, f"controller.{name}", f"controller.{name}"),
        "profile": (profile, name, {"tau_ref" if profile_section == "torque" else "speed": profile}, profile_key,
                    profile_key),
        "rk4": (base, "dt_plant", {"speed": ramp}, "speed.final", "scenario.dt_plant"),
    }.get("profile" if profile else SECTIONS.get(name, name), (None, name, None, None, None))
    with pytest.raises(ValidationError) as exc:
        if record is None:  # z_smoothing, which only loop.control_law takes
            loop.control_law(base.params, 48.0, 1e-3, z_smoothing=value)
        else:
            records.replace(record, **changes)
    assert exc.value.field == field
    assert exc.value.reason.startswith("must be at most" if name == "rk4" else "must be in ")
    if key is None:
        return

    document = configparser.ConfigParser(interpolation=None)
    document.optionxform = str
    document.read_string(serialize_config(records.replace(base, **document_changes), ControllerSettings()))
    section, option = key.split(".")
    document[section][option] = " ".join(map(repr, changes[name])) if name in ("times", "values") else repr(value)
    cfg = tmp_path_factory.mktemp("past") / "bad.cfg"
    with cfg.open("w") as f:
        document.write(f)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["simulate", "--scenario", str(cfg), "--out", str(cfg.parent)])
    assert rc == 1 and err.getvalue().startswith(f"error: {cli_field}: ")


# (scenario, --out, $OFLC_OUT_DIR, message); "file" is an existing regular file, "tiny" a valid scenario
# and "not_utf8.cfg" a file whose bytes are not UTF-8
@pytest.mark.parametrize("scenario, out, env_out, message", [
    ("nope.cfg", None, None, "error: cannot read scenario file"),
    ("not_utf8.cfg", None, None, "error: cannot read scenario file: 'utf-8' codec can't decode"),
    ("tiny", "file", None, "error: --out: "),
    ("tiny", "file/sub", None, "error: --out: "),
    ("tiny", None, "file", "error: --out: "),
], ids=["missing_scenario", "not_utf8", "out_is_file", "out_under_file", "env_out_is_file"])
def test_missing_file_exits_1(tiny_cfg, tmp_path, scenario, out, env_out, message):
    (tmp_path / "file").write_text("")
    (tmp_path / "not_utf8.cfg").write_bytes(b"\xff\xfe")
    argv = [sys.executable, "-m", "oflc.cli", "simulate",
            "--scenario", str(tiny_cfg if scenario == "tiny" else tmp_path / scenario)]
    if out:
        argv += ["--out", str(tmp_path / out)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    env.pop("OFLC_OUT_DIR", None)
    if env_out:
        env["OFLC_OUT_DIR"] = str(tmp_path / env_out)
    proc = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 1
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command, blocked", [
    ("simulate", "oflc_trace.csv"),
    ("simulate", "oflc_summary.txt"),
    ("compare", "compare_summary.txt"),
    ("compare", "flc_z0_trace.csv"),
    ("compare", "flc_z0_summary.txt"),
])
def test_unwritable_output_exits_1(tiny_cfg, tmp_path, capsys, command, blocked):
    # a directory where an output file goes cannot be opened for writing, even by root
    out = tmp_path / "runs"
    (out / blocked).mkdir(parents=True)
    assert main([command, "--scenario", str(tiny_cfg), "--out", str(out)]) == 1
    assert f"error: --out: cannot write {out / blocked}: " in capsys.readouterr().err


def test_override_flags(tiny_cfg, tmp_path):
    out = tmp_path / "ovr"
    rc = main(["simulate", "--scenario", str(tiny_cfg), "--out", str(out),
               "--v-max", "24", "--kp", "0", "--ki", "0", "--alpha-z", "0.5"])
    assert rc == 0
    lines = (out / "oflc_trace.csv").read_text().splitlines()[2:]
    header = (out / "oflc_trace.csv").read_text().splitlines()[1].split(",")
    for line in lines:
        vals = dict(zip(header, line.split(",")))
        assert math.hypot(float(vals["v_d"]), float(vals["v_q"])) <= 24.0 * (1.0 + 1e-9)

    # the overrides reach the run: its frames are those of the overridden settings, not of the defaults
    scenario = records.replace(parse_config(TINY)[0], v_max=24.0)
    frames = run_scenario(scenario, "oflc", settings=ControllerSettings(kp=0.0, ki=0.0, alpha_z=0.5)).frames
    assert _trace_frames(out / "oflc_trace.csv") == frames
    assert frames != run_scenario(scenario, "oflc").frames

    # so does a document's [controller] section
    tuned = tmp_path / "tuned.cfg"
    tuned.write_text(TINY + "\n[controller]\nkp = 2.0\nki = 100.0\nalpha_z = 0.5\n")
    out = tmp_path / "tuned"
    assert main(["compare", "--scenario", str(tuned), "--out", str(out)]) == 0
    scenario = parse_config(TINY)[0]
    for name in ("oflc", "flc_z0"):
        frames = run_scenario(scenario, name, settings=ControllerSettings(kp=2.0, ki=100.0, alpha_z=0.5)).frames
        assert _trace_frames(out / f"{name}_trace.csv") == frames
        assert frames != run_scenario(scenario, name).frames


def test_overflowing_torque_reports_inf(tmp_path, capsys, monkeypatch):
    # the squared torque error overflows to inf; the run still ends normally and reports it.  A torque reference
    # large enough for that lies outside the domain, so a controller's torque estimate of 1e200 N m gives it
    class Overflow:
        def step(self, t, omega, i_dq, tau_ref):
            return ControlFrame(t=t, i_d=i_dq[0], i_q=i_dq[1], v_d=0.0, v_q=0.0, tau_ref=tau_ref, tau_est=1e200,
                                u_raw=0.0, u_feasible=0.0, omega=omega, z_d=0.0, z_q=0.0, lambda_d=0.0,
                                lambda_q=0.0, p_copper_W=0.0, flags=0)

    monkeypatch.setitem(CONTROLLERS, "overflow", lambda scenario, settings: Overflow())
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    assert main(["simulate", "--scenario", str(cfg), "--controller", "overflow", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "aborted: False\n" in out
    assert "rms_torque_error_Nm: inf\n" in out
    assert "rms_torque_error_Nm: inf\n" in (tmp_path / "overflow_summary.txt").read_text()


def test_run_path_skips_numpy(tmp_path):
    # numpy is slow to import and only the array-form checks and the selftest need it; dataclasses, which
    # imports inspect, cost 20-35 ms of every start, and records.Record replaces it.  The compiled twins load as an
    # extension module, so no run, a mechanical one included, imports ctypes
    table = tmp_path / "table.cfg"
    table.write_text(TINY.replace("kind = constant\nvalue = 3.0", "kind = table\ntimes = 0 2e-3 4e-3\nvalues = 0 3 1"))
    code = f"""
import sys
import oflc, oflc.cli
from oflc.loop import CONTROLLERS
for cfg in ({str(table)!r}, {str(SCENARIOS / "mechanical.cfg")!r}):
    for name in CONTROLLERS:
        assert oflc.cli.main(["simulate", "--scenario", cfg, "--controller", name, "--out", {str(tmp_path)!r}]) == 0
    assert oflc.cli.main(["compare", "--scenario", cfg, "--controllers", *CONTROLLERS, "--out", {str(tmp_path)!r}]) == 0
for module in ("numpy", "scipy", "scipy.optimize", "dataclasses", "inspect", "ctypes"):
    assert module not in sys.modules, module + " imported"
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_command_on_the_clamp_edge_runs(tmp_path, capsys):
    # at i = (17.0, 0.034) A and 663 rad/s the command phi + |b| 48 sits inside the clamp band, yet its z budget
    # v_max^2 - (u - phi)^2 / |b|^2 rounds to -4.5e-13: z gets none, and the run ends normally
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(TINY.split("[scenario]")[0] + """
[scenario]
duration = 1e-4
dt_plant = 1e-4
dt_ctrl = 1e-4
i_d0 = 16.99328288378281
i_q0 = 0.03364250522619372

[torque]
kind = constant
value = -41.26583290144046

[speed]
kind = constant
value = 663.0489795836245

[controller]
kp = 0.0
ki = 0.0
""")
    assert main(["simulate", "--scenario", str(cfg), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "ticks_u_clamped: 0\n" in out and "ticks_z_zeroed: 1\n" in out


def test_selftest(capsys, monkeypatch):
    rc = main(["selftest"])
    assert rc == 0
    assert "selftest OK" in capsys.readouterr().out

    # an error of the law is a failure, not a skipped state
    def broken(*run):
        def law(*state):
            raise TypeError("broken control_law")
        return law

    monkeypatch.setattr(loop, "control_law", broken)
    with pytest.raises(TypeError, match="broken control_law"):
        main(["selftest"])
    assert "selftest OK" not in capsys.readouterr().out


def test_selftest_reports_failed_checks(capsys, monkeypatch):
    # a law whose voltages are 1% long breaks the voltage limit and its equality with the composed law
    build = loop.control_law

    def scaled(*run):
        law = build(*run)

        def scaled_law(*state):
            v_d, v_q, *rest = law(*state)
            return (1.01 * v_d, 1.01 * v_q, *rest)
        return scaled_law

    monkeypatch.setattr(loop, "control_law", scaled)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  voltage limit (max |v|/v_max 1.010000000000)\n" in out
    assert "FAIL  control_law equals composed_control_law (200 states differ)\n" in out
    assert out.endswith("2 selftest check(s) failed\n")
    assert "selftest OK" not in out
