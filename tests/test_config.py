import math
import sys

import numpy as np
import pytest
from conftest import unless_overflowing
from hypothesis import example, given
from hypothesis import strategies as st

from oflc import records
from oflc.config import ControllerSettings, parse_config, serialize_config
from oflc.errors import ParseError, ValidationError
from oflc.machine import MachineParams
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
    assert isinstance(scenario.speed, MechanicalModel)
    assert scenario.speed.inertia == 1e-3
    assert scenario.speed.load_torque(0.0) == 0.5


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
# the control law squares each machine constant and v_max, so they need a finite square
FINITE_SQUARE = st.floats(min_value=0.0, exclude_min=True, max_value=1e150)

# the plant steps the flux linkages L i, so an inductance must also be a normal float
NORMAL_FINITE_SQUARE = st.floats(min_value=sys.float_info.min, max_value=1e150)

MACHINES = st.builds(MachineParams, FINITE_SQUARE, NORMAL_FINITE_SQUARE, NORMAL_FINITE_SQUARE, FINITE_SQUARE,
                     p=st.integers(1, 1000))


def _tables(n):
    """Table profiles of n points: strictly increasing times, any finite values."""
    times = st.lists(FINITE, min_size=n, max_size=n, unique=True).map(sorted).map(tuple)
    return st.builds(TableProfile, times, st.tuples(*[FINITE] * n))


# every profile kind but the constant one; a trapezoid end time may be left open (inf)
VARYING_PROFILES = st.one_of(
    st.builds(StepProfile, FINITE, FINITE, FINITE),
    st.builds(SinusoidProfile, FINITE, FINITE, FINITE, FINITE),
    st.builds(TrapezoidProfile, FINITE, FINITE, FINITE, FINITE, *[FINITE | st.just(math.inf)] * 2),
    st.integers(2, 6).flatmap(_tables),
)
PROFILES = st.builds(ConstantProfile, FINITE) | VARYING_PROFILES
MECHANICAL = st.builds(MechanicalModel, POSITIVE, NON_NEGATIVE, st.builds(ConstantProfile, FINITE), FINITE)
SETTINGS = st.builds(ControllerSettings, NON_NEGATIVE, NON_NEGATIVE,
                     st.floats(min_value=0.0, exclude_min=True, max_value=1.0))


@st.composite
def scenarios(draw):
    """Writable scenarios; whole substeps per tick and ticks per run make the rates exact multiples."""
    dt_plant = draw(st.floats(min_value=1e-300, max_value=1e300))
    dt_ctrl = draw(st.integers(1, 1000)) * dt_plant
    return unless_overflowing(lambda: Scenario(
        params=draw(MACHINES), duration=draw(st.integers(1, 10_000)) * dt_ctrl, tau_ref=draw(PROFILES),
        speed=draw(PROFILES | MECHANICAL), dt_plant=dt_plant, dt_ctrl=dt_ctrl, horizon=draw(POSITIVE),
        v_max=draw(FINITE_SQUARE), i0=(draw(FINITE), draw(FINITE))))


@given(scenarios(), SETTINGS)
@example(*parse_config(FULL))
def test_round_trip(scenario, settings):
    text = serialize_config(scenario, settings)
    assert parse_config(text) == (scenario, settings)
    assert serialize_config(*parse_config(text)) == text


def _not_a_profile(t):
    return 1.0


@given(scenarios(), st.sampled_from(("torque", "speed", "speed.load")), VARYING_PROFILES | st.just(_not_a_profile))
def test_serialize_rejects_unwritable_load(scenario, field, load):
    # the format holds only profiles, and of a mechanical load only a constant one
    if field == "torque":
        scenario = records.replace(scenario, tau_ref=_not_a_profile)
    elif field == "speed":
        scenario = records.replace(scenario, speed=_not_a_profile)
    else:
        scenario = unless_overflowing(lambda: records.replace(scenario, speed=MechanicalModel(inertia=1e-3,
                                                                                         load_torque=load)))
    with pytest.raises(ValidationError) as exc:
        serialize_config(scenario)
    assert exc.value.field == field


@pytest.mark.parametrize("make, message", [
    (lambda: ConstantProfile(math.nan), "value: must not be nan or infinite"),
    (lambda: StepProfile(0.0, 1.0, math.inf), "t_step: must not be nan or infinite"),
    (lambda: TrapezoidProfile(0.0, 1.0, 0.0, 0.01, -math.inf), "t2: must not be nan or -inf"),
    (lambda: SinusoidProfile(1.0, math.inf), "frequency: must not be nan or infinite"),
    (lambda: TableProfile((0.0, 1.0), (0.0, math.nan)), "values: must not be nan or infinite"),
], ids=["constant", "step", "trapezoid", "sinusoid", "table"])
def test_profiles_reject_non_finite(make, message):
    # a profile the config could not read back cannot be built either
    with pytest.raises(ValidationError, match=f"^{message}$"):
        make()


def test_sinusoid_past_the_largest_float_is_nan():
    # 2 pi f t overflows to inf, where math.sin raises; a run on such a profile aborts instead
    from oflc.sim import run_scenario

    assert math.isnan(SinusoidProfile(1.0, 1e308)(1e-4))
    scenario = Scenario(params=MachineParams(R=0.5, L_d=3e-3, L_q=5e-3, psi=0.1, p=4), duration=1e-3,
                        tau_ref=SinusoidProfile(1.0, 1e308), speed=ConstantProfile(0.0))
    assert run_scenario(scenario).aborted


@st.composite
def _table_and_time(draw):
    """A table profile and a time inside it, at or next to a breakpoint, or beyond either end."""
    profile = draw(st.integers(2, 6).flatmap(_tables))
    times = profile.times
    breakpoint = st.sampled_from(times)
    t = draw(st.one_of(
        st.floats(times[0], times[-1]),
        breakpoint,
        breakpoint.map(lambda x: math.nextafter(x, math.inf)),
        breakpoint.map(lambda x: math.nextafter(x, -math.inf)),
        st.floats(max_value=times[0], allow_nan=False),
        st.floats(min_value=times[-1], allow_nan=False),
    ))
    return profile, t


@given(_table_and_time())
@example((TableProfile((0.0, 0.05), (1e308, -1e308)), 0.025))
@example((TableProfile((-1e308, 1e308), (1.0, 1.0)), 9e307))  # 0 * inf: the retry from the right
def test_table_profile_is_np_interp(table_and_time):
    # the same floats as np.interp, whose order of operations the table follows; repr tells -0.0 and nan apart
    profile, t = table_and_time
    assert repr(profile(t)) == repr(float(np.interp(t, profile.times, profile.values)))


def test_trapezoid_profile_is_np_interp_over_its_breakpoints():
    # before t0, the ramp up, the hold, the ramp back down and after t3, with each breakpoint itself
    ramp = TrapezoidProfile(-2.0, 5.0, 0.01, 0.03, 0.06, 0.1)
    times, values = (0.01, 0.03, 0.06, 0.1), (-2.0, 5.0, 5.0, -2.0)
    for t in (-1.0, 0.0, 0.01, 0.02, 0.03, 0.045, 0.06, 0.07, 0.09, 0.1, 0.2):
        assert ramp(t) == pytest.approx(float(np.interp(t, times, values)), rel=1e-15, abs=1e-15)


def test_pole_pairs_must_be_an_integer():
    # True is an Integral, but the config cannot read it back; a numpy integer can be
    with pytest.raises(ValidationError, match="^p: must be a positive integer, got True$"):
        MachineParams(R=0.5, L_d=3e-3, L_q=5e-3, psi=0.1, p=True)
    params = MachineParams(R=0.5, L_d=3e-3, L_q=5e-3, psi=0.1, p=np.int64(4))
    scenario = Scenario(params=params, duration=1e-3, tau_ref=ConstantProfile(1.0), speed=ConstantProfile(0.0))
    assert parse_config(serialize_config(scenario))[0] == scenario


def test_shipped_scenarios_parse():
    from pathlib import Path

    root = Path(__file__).resolve().parents[1] / "scenarios"
    for cfg in sorted(root.glob("*.cfg")):
        scenario, _ = parse_config(cfg.read_text())
        assert scenario.duration > 0
