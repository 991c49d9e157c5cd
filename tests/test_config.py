import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import P0
import oflc
from oflc import records
from oflc.config import ControllerSettings, parse_config, serialize_config
from oflc.domain import RANGES, RK4_RADIUS, rk4_limit
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


MECHANICAL_SPEED = MINIMAL + "\n[speed]\nkind = mechanical\n"


@pytest.mark.parametrize("text, message", [
    (MINIMAL.replace("R = 0.5\n", ""), "machine.R: missing"),
    (MINIMAL.replace("value = 4.0", "value = 4.0\nbogus = 1"), "torque.bogus: unknown key"),
    (MINIMAL + "\n[controller]\nfoo = 1\n", "controller.foo: unknown key"),
    (MINIMAL + "\n[controller]\nkp = x\n", "controller.kp: not a number: 'x'"),
    (MECHANICAL_SPEED + "inertia = x\n", "speed.inertia: not a number: 'x'"),
    (MECHANICAL_SPEED, "speed.inertia: missing"),
    (MINIMAL + "\n[speed]\nkind = warp\n", "speed.kind: unknown profile kind 'warp'"),
    (MINIMAL.replace("kind = constant", "kind = mechanical"), "torque.kind: unknown profile kind 'mechanical'"),
    (MINIMAL + "\n[speed]\nvalue = 1\n", "speed.kind: missing"),
    (MINIMAL + "\n[speed]\nkind = step\ninitial = 0\nfinal = 1\n", "speed.t_step: missing"),
])
def test_reader_errors_name_their_section_once(text, message):
    with pytest.raises(ValidationError) as exc:
        parse_config(text)
    assert str(exc.value) == message


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


def within(name, high=math.inf):
    """Floats inside ``domain.RANGES[name]``, at most ``high``; +inf where the range takes it (a trapezoid's open
    end times)."""
    low, top, _ = RANGES[name]
    return st.floats(low, min(top, high))


# a profile value of any size the domain takes, for a torque profile
VALUES = within("value")


MACHINES = st.builds(MachineParams, within("R"), within("L_d"), within("L_q"), within("psi"),
                     p=st.integers(*RANGES["p"][:2]))
# the largest peak of a speed profile: every machine (R/L up to 1e9 /s) at the smallest dt_plant runs RK4 stably
# up to it
SPEED = RK4_RADIUS / RANGES["dt_plant"][0] / 2.0
SPEEDS = st.floats(-SPEED, SPEED)
LOADS = st.floats(*RANGES["load"][:2])


def _tables(n, values=VALUES):
    """Table profiles of n points: times in the domain, increasing by at least the smallest dt_plant, each value drawn
    from ``values``."""
    times = st.lists(within("times"), min_size=n, max_size=n, unique=True).map(sorted).filter(
        lambda times: all(b - a >= RANGES["dt_plant"][0] for a, b in zip(times, times[1:]))).map(tuple)
    return st.builds(TableProfile, times, st.tuples(*[values] * n))


def varying_profiles(values=None):
    """Every profile kind but the constant one, with values drawn from ``values``, or from the whole domain if None,
    and times, frequencies and phases from the whole domain; a trapezoid end time may be left open (inf).  Given
    values give a sinusoid's amplitude and offset as halves, so that its peak lies among them.  (Hypothesis caches
    strategies, so a given ``st.floats(-1e10, 1e10)`` is ``VALUES`` itself: only None tells the two apart.)"""
    halves = VALUES if values is None else values.map(lambda x: x / 2.0)
    values = VALUES if values is None else values
    return st.one_of(
        st.builds(StepProfile, values, values, within("t_step")),
        st.builds(SinusoidProfile, halves, within("frequency"), halves, within("phase")),
        st.builds(TrapezoidProfile, values, values, within("t0"), within("t1"), within("t2"), within("t3")),
        st.integers(2, 6).flatmap(lambda n: _tables(n, values)),
    )


PROFILES = st.builds(ConstantProfile, VALUES) | varying_profiles()
SPEED_PROFILES = st.builds(ConstantProfile, SPEEDS) | varying_profiles(SPEEDS)
# a friction that keeps friction dt_plant/inertia at most 1 up to twice the smallest dt_plant
MECHANICAL = within("inertia").flatmap(lambda inertia: st.builds(
    MechanicalModel, st.just(inertia), within("friction", inertia / RANGES["dt_plant"][0] / 2.0),
    st.builds(ConstantProfile, LOADS), within("omega0")))
SETTINGS = st.builds(ControllerSettings, within("kp"), within("ki"), within("alpha_z"))


def largest_dt_plant(params, speed, n_sub=1):
    """The largest dt_plant of a scenario of ``n_sub`` substeps per tick that ``Scenario`` accepts for this
    machine and speed source, less a few ulps: dt_ctrl's range, RK4's rule under a varying speed profile and, in
    mechanical mode, a friction dt_plant/inertia of at most 1."""
    rk4 = rk4_limit(params, speed.peak) if type(speed) not in (ConstantProfile, MechanicalModel) else math.inf
    high = min(RANGES["dt_plant"][1], RANGES["dt_ctrl"][1] / n_sub, rk4)
    if isinstance(speed, MechanicalModel) and speed.friction > 0.0:
        high = min(high, speed.inertia / speed.friction)
    return high * (1.0 - 1e-15)


def dt_plants(params, speed, n_sub=1, low=0.0, high=math.inf):
    """dt_plant, log-uniform from ``low`` to ``high`` as far as the domain takes them for this machine, speed source
    and substep count, or its largest where all of them lie above that."""
    high = min(high, largest_dt_plant(params, speed, n_sub))
    low = min(max(low, RANGES["dt_plant"][0]), high)
    return st.floats(0.0, 1.0).map(lambda x: min(max(low * (high / low) ** x, low), high))


@st.composite
def scenarios(draw):
    """Writable scenarios inside the domain; whole substeps per tick and ticks per run make the rates exact
    multiples."""
    params, speed = draw(MACHINES), draw(SPEED_PROFILES | MECHANICAL)
    n_sub = draw(st.integers(1, 1000))
    dt_plant = draw(dt_plants(params, speed, n_sub))
    dt_ctrl = n_sub * dt_plant
    return Scenario(params=params, duration=draw(st.integers(1, 10_000)) * dt_ctrl, tau_ref=draw(PROFILES),
                    speed=speed, dt_plant=dt_plant, dt_ctrl=dt_ctrl, horizon=draw(within("horizon")),
                    v_max=draw(within("v_max")), i0=(draw(within("i_d0")), draw(within("i_q0"))))


@given(scenarios(), SETTINGS)
@example(*parse_config(FULL))
# numpy floats and bools in float fields are written as the floats they equal
@example(Scenario(params=MachineParams(np.float64(0.5), 3e-3, 5e-3, 0.1, 4), duration=1e-3,
                  tau_ref=TableProfile((0.0, np.float64(1e-3)), (np.float64(2.0), True)),
                  speed=MechanicalModel(np.float64(1e-3), True, ConstantProfile(np.float64(0.5)), np.float64(-3.0)),
                  v_max=np.float64(48.0), i0=(np.float64(1.0), True)),
         ControllerSettings(np.float64(2.0), False, True))
def test_round_trip(scenario, settings):
    text = serialize_config(scenario, settings)
    assert parse_config(text) == (scenario, settings)
    assert serialize_config(*parse_config(text)) == text


@given(scenarios(), varying_profiles(LOADS))
def test_serialize_rejects_unwritable_load(scenario, load):
    # of a mechanical load the format holds only a constant one (a scenario takes no time function but a profile)
    scenario = records.replace(scenario, speed=MechanicalModel(inertia=1e-3, load_torque=load))
    with pytest.raises(ValidationError) as exc:
        serialize_config(scenario)
    assert exc.value.field == "speed.load"
    # the writer names the bare key, and config.build alone names its section
    cause = exc.value.__cause__
    assert isinstance(cause, ValidationError) and cause.field == "load"
    assert exc.traceback[-1].name == "build"


def test_package_names_no_section_outside_build():
    # a "<section>.<key>" name is built by config.build alone, never written out as a string in the package
    section_key = re.compile(r"(machine|scenario|torque|speed|controller)\.\w+")
    package = Path(oflc.__file__).parent
    found = [(path.name, node.lineno, node.value) for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Constant) and isinstance(node.value, str) and section_key.fullmatch(node.value)]
    assert found == []


@pytest.mark.parametrize("make, message", [
    (lambda: ConstantProfile(math.nan), r"value: must be in \[-1e\+10, 1e\+10\], got nan"),
    (lambda: StepProfile(0.0, 1.0, math.inf), r"t_step: must be in \[-10000, 10000\] s, got inf"),
    (lambda: TrapezoidProfile(0.0, 1.0, 0.0, 0.01, -math.inf), r"t2: must be in \[-10000, inf\] s, got -inf"),
    (lambda: SinusoidProfile(1.0, math.inf), r"frequency: must be in \[-5e\+09, 5e\+09\] Hz, got inf"),
    (lambda: TableProfile((0.0, 1.0), (0.0, math.nan)), r"values: must be in \[-1e\+10, 1e\+10\], got nan"),
    (lambda: MachineParams(R=10**400, L_d=3e-3, L_q=5e-3, psi=0.1, p=4),
     r"R: must be a real number within the float range, got 10{400}"),
    (lambda: TableProfile((0.0, 1.0), (0.0, -10**400)),
     r"values: must be a sequence of real numbers within the float range, got \(0\.0, -10{400}\)"),
    (lambda: Scenario(params=P0, duration=1e-3, tau_ref=ConstantProfile(0.0), speed=ConstantProfile(0.0),
                      i0=(10**400, 0.0)),
     r"i0: must be a pair of real numbers within the float range, got \(10{400}, 0\.0\)"),
    (lambda: TrapezoidProfile(0.0, 1.0, 0.0, 0.01, 1.0, 10**400),
     r"t3: must be a real number within the float range, got 10{400}"),
], ids=["constant", "step", "trapezoid", "sinusoid", "table", "machine_int", "table_int", "scenario_int",
        "trapezoid_int"])
def test_profiles_reject_non_finite(make, message):
    # a profile the config could not read back cannot be built either.  Nor can a record whose float field is given
    # an int that no float holds, in range or not: the field is named, as for any rejected value.  A trapezoid's open
    # end, whose range runs to +inf, is the default inf, not such an int
    with pytest.raises(ValidationError, match=f"^{message}$"):
        make()


def test_sinusoid_past_the_largest_float_is_nan():
    # 2 pi f t overflows to inf, where math.sin raises.  Inside the domain a run's times never get there (2 pi f t
    # stays below 3.2e14), but a profile called directly at such a time reads nan
    assert math.isnan(SinusoidProfile(1.0, RANGES["frequency"][1])(1e300))


@given(PROFILES | SPEED_PROFILES | st.builds(ConstantProfile, LOADS) | varying_profiles(LOADS),
       st.floats(-1e4, 1e4))
# ramps over a few subnormal floats and over 1e-10 s, which read 0.3333 and 1.7e-6 past their peaks while a ramp
# multiplied its step by the elapsed time before dividing by its span
@example(TrapezoidProfile(0.0, 0.3, -1e-323, 5e-324), 0.0)
@example(TrapezoidProfile(0.0, 7.7e-310, 0.0, 1e-10), 9.999999999999999e-11)
def test_profile_values_stay_within_its_peak(profile, t):
    # the peak that Scenario's RK4 rule reads of a speed profile, and MechanicalModel's load range of a load,
    # bounds every value up to rounding; inside the domain every reading at a time within +-1e4 s, which holds every
    # time of a run, is finite: a ramp's share of its span lies in [0, 1], a table's slope <= 2e20 and
    # 2 pi f t <= 3.2e14
    x = profile(t)
    assert math.isfinite(x) and abs(x) <= profile.peak * (1.0 + 1e-12)


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
@example((TableProfile((0.0, 0.05), (1e10, -1e10)), 0.025))
@example((TableProfile((-1e4, 1e4), (-1e10, 1e10)), 9999.0))
@example((TableProfile((0.0, 1e-10), (-1e10, 1e10)), 3e-11))  # the steepest slope: 2e20
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
    with pytest.raises(ValidationError, match="^p: must be an integer, got True$"):
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


def test_benchmark_and_fixture_scenarios_lie_inside_the_domain():
    # a range edit that turned one of these into a rejection would make a benchmark run exit 1, or a fixture
    # test a ValidationError: every config the two workloads draw (seeds 0-99, fine_plant's constant and
    # mechanical speeds alike), every shipped scenario, P0 and P_NS, and criterion 10's ticks
    import importlib.util
    import random
    from pathlib import Path

    from conftest import P0, P_NS, tick_scenario

    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("bench_workloads", root / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for seed in range(100):
        rng = random.Random(f"fine_plant:{seed}")
        for mechanical in (False, True):
            scenario, _ = parse_config(workloads.fine_plant_text(root, rng, mechanical))
            assert isinstance(scenario.speed, MechanicalModel) == mechanical
        parse_config(workloads.ctrl_dense_text(root, random.Random(f"ctrl_dense:{seed}")))
    for cfg in sorted((root / "scenarios").glob("*.cfg")):
        parse_config(cfg.read_text())
    for params in (P0, P_NS):
        assert records.replace(params) == params
    for dt in (2e-4, 1e-4, 5e-5):
        tick_scenario(P0, dt, round(0.01 / dt), 200.0)
    tick_scenario(P_NS, 1e-6, 2000, 150.0)
