import pytest

from conftest import P0
from oflc.config import ControllerSettings, parse_config, serialize_config
from oflc.errors import ParseError, ValidationError
from oflc.profiles import ConstantProfile, SinusoidProfile, StepProfile, TableProfile, TrapezoidProfile
from oflc.sim import MechanicalModel, Scenario

MINIMAL = """
[machine]
R = 0.5
L_d = 3e-3
L_q = 5e-3
psi = 0.1
p = 4

[torque]
kind = constant
value = 4.0
"""

FULL = """
[machine]
R = 0.5
L_d = 3e-3
L_q = 5e-3
psi = 0.1
p = 4

[scenario]
duration = 0.2
dt_plant = 1e-5
dt_ctrl = 1e-4
horizon = 2e-3
v_max = 40.0
i_d0 = 1.0
i_q0 = -2.0

[torque]
kind = sinusoid
amplitude = 4.0
frequency = 5.0
offset = 1.0

[speed]
kind = trapezoid
initial = 0.0
final = 200.0
t0 = 0.02
t1 = 0.1

[controller]
kp = 2.0
ki = 100.0
alpha_z = 0.5
"""


def test_minimal_config_applies_defaults():
    scenario, settings = parse_config(MINIMAL)
    assert scenario.dt_plant == 1e-6
    assert scenario.dt_ctrl == 1e-4
    assert scenario.horizon == 1e-3
    assert scenario.v_max == 48.0
    assert scenario.tau_ref(0.0) == 4.0
    assert scenario.speed(123.0) == 0.0
    assert settings.kp == 5.0 and settings.ki == 500.0 and settings.alpha_z == 1.0


def test_full_config():
    scenario, settings = parse_config(FULL)
    assert isinstance(scenario.tau_ref, SinusoidProfile)
    assert isinstance(scenario.speed, TrapezoidProfile)
    assert scenario.i0 == (1.0, -2.0)
    assert scenario.v_max == 40.0
    assert settings.alpha_z == 0.5


def test_dt_ordering_violation_names_field():
    bad = MINIMAL + "\n[scenario]\ndt_plant = 1e-3\ndt_ctrl = 1e-4\n"
    with pytest.raises(ValidationError) as exc:
        parse_config(bad)
    assert "dt_plant" in str(exc.value) and "dt_ctrl" in str(exc.value)


def test_missing_machine_field():
    with pytest.raises(ValidationError) as exc:
        parse_config("[machine]\nR = 0.5\n[torque]\nkind = constant\nvalue = 1\n")
    assert "machine.L_d" in str(exc.value)


def test_bad_number_names_field():
    with pytest.raises(ValidationError) as exc:
        parse_config(MINIMAL.replace("value = 4.0", "value = four"))
    assert "torque.value" in str(exc.value)


def test_unknown_profile_key():
    with pytest.raises(ValidationError) as exc:
        parse_config(MINIMAL + "\n[speed]\nkind = constant\nvalue = 1.0\nbogus = 2\n")
    assert "speed.bogus" in str(exc.value)


def test_unknown_profile_kind():
    with pytest.raises(ValidationError) as exc:
        parse_config(MINIMAL.replace("kind = constant", "kind = wavelet"))
    assert "torque.kind" in str(exc.value)


def test_malformed_document():
    with pytest.raises(ParseError):
        parse_config("this is not an ini file\nvalue without section = 3\n")


def test_mechanical_speed_section():
    text = MINIMAL + "\n[speed]\nkind = mechanical\ninertia = 1e-3\nfriction = 2e-3\nload = 0.5\n"
    scenario, _ = parse_config(text)
    assert scenario.speed is None
    assert scenario.mechanical.inertia == 1e-3
    assert scenario.mechanical.load_torque(0.0) == 0.5


def test_round_trip():
    default_load = Scenario(params=P0, duration=0.01, tau_ref=ConstantProfile(1.0),
                            mechanical=MechanicalModel(inertia=1e-3))
    # every profile kind, a trapezoid that ramps back, and a mechanical model with friction and a load
    step_table = Scenario(params=P0, duration=0.02, tau_ref=StepProfile(0.0, 6.0, 0.01),
                          speed=TableProfile((0.0, 0.005, 0.02), (0.0, 50.0, 120.5)), dt_plant=1e-5)
    closed_trapezoid = Scenario(params=P0, duration=0.01, tau_ref=ConstantProfile(2.5),
                                speed=TrapezoidProfile(10.0, 200.0, 1e-3, 4e-3, 6e-3, 9e-3), i0=(1.5, -0.25))
    loaded = Scenario(params=P0, duration=0.05, tau_ref=TrapezoidProfile(0.0, 3.0, 0.0, 0.01, 0.03, 0.04),
                      mechanical=MechanicalModel(inertia=2e-3, friction=1e-3, load_torque=ConstantProfile(0.4)),
                      omega0=3.0)
    for scenario, settings in (parse_config(FULL), (default_load, ControllerSettings()),
                               (step_table, ControllerSettings(kp=0.0, ki=0.0)),
                               (closed_trapezoid, ControllerSettings(alpha_z=0.25)), (loaded, ControllerSettings())):
        text = serialize_config(scenario, settings)
        scenario2, settings2 = parse_config(text)
        assert scenario2 == scenario
        assert settings2 == settings
        assert serialize_config(scenario2, settings2) == text


def test_serialize_rejects_unwritable_load():
    scenario = Scenario(params=P0, duration=0.01, tau_ref=ConstantProfile(1.0),
                        mechanical=MechanicalModel(inertia=1e-3, load_torque=SinusoidProfile(1.0, 5.0)))
    with pytest.raises(ValidationError) as exc:
        serialize_config(scenario)
    assert exc.value.field == "speed.load"


def test_shipped_scenarios_parse():
    from pathlib import Path

    root = Path(__file__).resolve().parents[1] / "scenarios"
    for cfg in sorted(root.glob("*.cfg")):
        scenario, _ = parse_config(cfg.read_text())
        assert scenario.duration > 0
