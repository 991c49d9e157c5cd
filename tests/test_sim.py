import functools
import math
import re
import sys
import sysconfig
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, seed
from hypothesis import strategies as st

from conftest import COMPILER, P0, P_NS, V_MAX, tick_scenario
from test_config import (FINITE, MACHINES, MECHANICAL, PROFILES, SPEED_PROFILES, SPEEDS, dt_plants, varying_profiles,
                         within)
from oflc import kernels, records, sim
from oflc.domain import RK4_RADIUS, rk4_limit
from oflc.errors import NonFiniteStateError, ValidationError
from oflc.linearization import compute_terms
from oflc.loop import CONTROLLERS, ControlFrame, ControllerSettings, composed_control_law, control_law
from oflc.machine import MachineParams, dq_dynamics, torque
from oflc.optimizer import B_DEGENERATE, U_CLAMPED
from oflc.profiles import ConstantProfile, SinusoidProfile, StepProfile, TableProfile, TrapezoidProfile
from oflc.sim import (
    MechanicalModel,
    Scenario,
    energy_accounting,
    rk4_plant_step,
    run_continuous,
    run_scenario,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _reference_tick(i_d, i_q, omega_m, v_d, v_q, t, s, omega=None):
    """The tick step written as substeps of the generic ``sim.rk4`` on ``dq_dynamics``,
    each followed in mechanical mode by an Euler step of the speed through ``machine.torque``;
    a given ``omega`` is the first substep's electrical speed."""
    i, params = np.array([i_d, i_q]), s.params
    mech = s.speed if isinstance(s.speed, MechanicalModel) else None
    for j in range(round(s.dt_ctrl / s.dt_plant)):
        t_sub = t + j * s.dt_plant
        if j or omega is None:
            omega = float(s.speed(t_sub)) if mech is None else params.p * omega_m
        i = sim.rk4(lambda x, _t: dq_dynamics(x, (v_d, v_q), omega, params), i, t_sub, s.dt_plant)
        if mech is not None:
            tau_m = torque(i.tolist(), params)
            omega_m += (tau_m - mech.load_torque(t_sub) - mech.friction * omega_m) / mech.inertia * s.dt_plant
    return (*i.tolist(), omega_m)


def _flux_gap(step, reference, i0, params, scale=0):
    """The gap between the currents of two ticks from currents i0, in flux linkage L i, as a share of the
    largest flux of i0, of the reference and of 1 A on either axis, or of the flux ``scale`` if that is larger.

    A tick's rounding, in the substep loop or the closed form, is small against the flux of the whole state, not
    against each current: a current whose flux is some 1e-18 of the other's keeps no digit.  Exact rationals.
    """
    L = (Fraction(params.L_d), Fraction(params.L_q))
    gap = max(l * abs(Fraction(a) - Fraction(b)) for l, a, b in zip(L, step, reference))
    return gap / max(Fraction(scale), *(l * max(1, abs(Fraction(x)), abs(Fraction(y)))
                                        for l, x, y in zip(L, i0, reference)))


def _held(omega):
    """A profile that holds ``omega`` but is not a ConstantProfile, so that the plant runs its substep loop."""
    return StepProfile(omega, omega, 0.0)


def _tick_speeds(rng, t, dt_plant, n_sub):
    """One speed source per kind: constant, a ramp across the tick, sinusoid, mechanical under a
    varying load and under a constant one (the plant step reads a constant profile once per tick)."""
    dt_ctrl = n_sub * dt_plant
    ramp = TrapezoidProfile(rng.uniform(-300.0, 300.0), rng.uniform(-300.0, 300.0),
                            t - 0.5 * dt_plant, t + dt_ctrl - 0.5 * dt_plant)
    mech = MechanicalModel(inertia=10.0 ** rng.uniform(-5.0, -2.0), friction=rng.uniform(0.0, 1e-2),
                           load_torque=SinusoidProfile(rng.uniform(0.0, 2.0), 1.0 / dt_ctrl))
    mech_constant_load = MechanicalModel(inertia=10.0 ** rng.uniform(-5.0, -2.0), friction=rng.uniform(0.0, 1e-2),
                                         load_torque=ConstantProfile(rng.uniform(-2.0, 2.0)))
    return (ConstantProfile(rng.uniform(-500.0, 500.0)), ramp,
            SinusoidProfile(rng.uniform(0.0, 400.0), rng.uniform(0.1, 1.0) / dt_ctrl, rng.uniform(-100.0, 100.0),
                            rng.uniform(0.0, 6.0)),
            mech, mech_constant_load)


def test_tick_step_equals_substep_reference(rng):
    # RK4's own result, rounded differently: the substep loop steps the flux linkages and the closed-form tick
    # maps them, each within 1e-12 of the reference in flux (the worst seen was 1.1e-14), and the mechanical speed
    # within 1e-12 of the larger of its start and end (7.4e-14 seen): its Euler steps read currents that differ in
    # the last bits.
    # Each scenario is also made by records.replace() from the one before it, changing its machine, dt_plant,
    # substep count or kind of speed, so a plant constant kept from that one would show
    previous = tick_scenario(P_NS, 1e-6, 3, speed=MechanicalModel(inertia=1e-3))
    for params in (P0, P_NS):
        for n_sub in (1, 7, 100):
            for _ in range(20):
                dt_plant, t = 10.0 ** rng.uniform(-7.0, -4.0), rng.uniform(0.0, 0.1)
                # currents of every size down to 1 uA, so that a last-bit change of a stage shows in the sum
                i_d, i_q = (rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-6.0, 1.7, 2)).tolist()
                v_d, v_q = rng.uniform(-48.0, 48.0, 2).tolist()
                omega_m = rng.uniform(-100.0, 100.0)
                speeds = _tick_speeds(rng, t, dt_plant, n_sub)
                for k in rng.permutation(len(speeds)):
                    speed = speeds[k]
                    s = tick_scenario(params, dt_plant, n_sub, speed=speed)
                    replaced = records.replace(previous, params=params, speed=speed, dt_plant=dt_plant,
                                               dt_ctrl=s.dt_ctrl, duration=s.duration)
                    assert replaced == s
                    # the speed a caller took at t gives the same tick; where the speed varies, another
                    # first-substep speed is used as given
                    omega = params.p * omega_m if isinstance(speed, MechanicalModel) else float(speed(t))
                    other = omega * rng.uniform(0.5, 1.5) + rng.uniform(-10.0, 10.0)
                    for scenario in (s, replaced):
                        step = sim.rk4_plant_step(i_d, i_q, omega_m, v_d, v_q, t, scenario)
                        reference = _reference_tick(i_d, i_q, omega_m, v_d, v_q, t, scenario)
                        assert all(type(x) is float for x in step)
                        assert sim.rk4_plant_step(i_d, i_q, omega_m, v_d, v_q, t, scenario, omega=omega) == step
                        if type(speed) is ConstantProfile:
                            assert _flux_gap(step, reference, (i_d, i_q), params) <= 1e-12 and step[2] == omega_m
                            continue
                        other_step = sim.rk4_plant_step(i_d, i_q, omega_m, v_d, v_q, t, scenario, omega=other)
                        other_reference = _reference_tick(i_d, i_q, omega_m, v_d, v_q, t, scenario, omega=other)
                        for a, b in ((step, reference), (other_step, other_reference)):
                            assert _flux_gap(a, b, (i_d, i_q), params) <= 1e-12
                            assert abs(a[2] - b[2]) <= 1e-12 * max(abs(omega_m), abs(b[2]))
                        if not isinstance(speed, MechanicalModel):
                            assert step[2] == omega_m
                    previous = replaced


def test_tick_step_nonfinite_mid_tick_raises():
    # a mechanical speed is not known ahead: a load of 1e6 N m on 1e-9 kg m^2 drives it to -4e13 rad/s
    # (electrical) in the first substep of 10 ms, where RK4 is unstable; the currents stay finite for two
    # substeps and overflow in the third
    speed = MechanicalModel(inertia=1e-9, load_torque=ConstantProfile(1e6))
    assert all(np.isfinite(sim.rk4_plant_step(1.0, -2.0, 0.0, 3.0, 4.0, 0.0, tick_scenario(P0, 1e-2, 2, speed))))
    s = tick_scenario(P0, 1e-2, 10, speed)
    for step in (sim.rk4_plant_step, _reference_tick):
        with np.errstate(all="ignore"), pytest.raises(NonFiniteStateError):
            step(1.0, -2.0, 0.0, 3.0, 4.0, 0.0, s)


def test_rk4_equilibrium_fixed_point():
    np.testing.assert_allclose(rk4_plant_step(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, tick_scenario(P0, 1e-5, 1))[:2], [0.0, 0.0])


def test_rk4_nonfinite_raises():
    # the currents overflow in the first substep; with 100 substeps the loop runs 99 more on inf and nan, at a
    # held speed and in mechanical mode, and must still raise, as the reference does at once.  The closed-form
    # tick of a constant 1e6 rad/s maps 1e308 A to a finite (2.48e307, 2.85e307) A over 100 us, so the held
    # speed is a step profile's; the one substep of 1 us maps (1e308, 1e308) A past the largest float, and its
    # tick raises through the same end-of-tick check as the loop's
    mechanical = MechanicalModel(inertia=1e-3, load_torque=ConstantProfile(0.5))
    for s, i_q in ((tick_scenario(P0, 1e-6, 1, 1e6), 1e308), (tick_scenario(P0, 1e-6, 100, _held(1e6)), 0.0),
                   (tick_scenario(P0, 1e-6, 100, mechanical), 0.0)):
        for step in (rk4_plant_step, _reference_tick):
            with np.errstate(all="ignore"), pytest.raises(NonFiniteStateError):
                step(1e308, i_q, 0.0, 0.0, 0.0, 0.0, s)
    assert rk4_plant_step(1e308, 0.0, 0.0, 0.0, 0.0, 0.0, tick_scenario(P0, 1e-6, 100, 1e6))[:2] == pytest.approx(
        (2.48e307, 2.85e307), rel=1e-2)
    # P^n overflows over 20 unstable substeps of 100 us at R/L = 1e9 /s, which the domain takes at a constant
    # speed: the map holds a non-finite entry, so the mapped currents are not finite even at a zero state, which
    # exact RK4 keeps, and every tick raises
    s = tick_scenario(STIFF, 1e-4, 20, 0.0)
    d, g, _ = s._plant[0]
    assert not all(map(math.isfinite, d + g))
    with pytest.raises(NonFiniteStateError):
        rk4_plant_step(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, s)


# the stiffest machine of the domain: R/L = 1e9 /s
STIFF = MachineParams(R=1e3, L_d=1e-6, L_q=1e-6, psi=0.1, p=1)


def test_closed_form_tick_overflow_raises():
    # 20 unstable substeps of 15.5 us from 1 mA off the equilibrium 10 A: the map's D i and G v overflow to +-inf
    # (D_dd = 4.2e307) and cancel to nan, while exact RK4 gives a finite i_d = 4.17e304 A.  A constant-speed tick
    # has no other way to take than the map, so it raises, and a run aborts there
    s = tick_scenario(STIFF, 1.55e-5, 20, 0.0)
    (d_dd, _, _, _), (g_dd, _, _, _), _ = s._plant[0]
    assert math.isnan(10.001 + d_dd * 10.001 + g_dd * 1e4)
    exact = _exact_rk4(STIFF, 0.0, s.dt_plant, 20, (10.001, 0.0), (1e4, 0.0))
    assert float(exact[0]) == pytest.approx(4.17e304, rel=1e-3)
    with pytest.raises(NonFiniteStateError):
        rk4_plant_step(10.001, 0.0, 0.0, 1e4, 0.0, 0.0, s)


def test_mechanical_speed_step_factors_are_finite():
    # mechanical mode steps the speed by (y_q (c_1 + c_2 y_d) - tau_load - friction omega_m) dt/J, with the torque per
    # unit flux c_1, c_2 and dt/J taken once per scenario.  At the domain's corners (the smallest inertia at the
    # largest dt_plant, the largest torque per unit flux, the largest inertia at the smallest dt_plant) every factor
    # is a normal float and a tick at rest stays at rest; an inertia or inductance past them is rejected, named
    huge_torque = MachineParams(R=1e-4, L_d=1.0, L_q=1e-6, psi=1e2, p=100)
    for params, dt_plant, mech in ((P0, 0.1, MechanicalModel(inertia=1e-9)),
                                   (huge_torque, 1e-6, MechanicalModel(inertia=1e-3, friction=1.0)),
                                   (P0, 1e-10, MechanicalModel(inertia=1e4, friction=1e3))):
        s = tick_scenario(params, dt_plant, 2, mech)
        _, _, c_1, c_2, _, k_m = s._plant[-1]
        assert all(sys.float_info.min <= abs(x) < math.inf for x in (c_1, c_2, k_m))
        assert rk4_plant_step(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, s) == (0.0, 0.0, 0.0)
    for make, field in ((lambda: MechanicalModel(inertia=5e-324), "inertia"),
                        (lambda: MachineParams(0.5, 3e-3, sys.float_info.min, 1.0, 4), "L_q"),
                        (lambda: MechanicalModel(inertia=1e303), "inertia"),
                        (lambda: MechanicalModel(inertia=1e-3, friction=1e300), "friction")):
        with pytest.raises(ValidationError, match=f"^{field}: must be in "):
            make()


def test_friction_step_that_cannot_decay_is_rejected():
    # friction alone scales the speed's forward-Euler step by 1 - friction dt_plant/J, which grows or keeps
    # |omega_m| from a ratio of 2 on, while the exact speed decays as exp(-friction t/J).  Ratios 3 and 2 are
    # rejected (3 took omega_m from 10 to 1.04e4 rad/s in one tick and aborted the run; 2 took it from 10 to 10.9 over
    # two ticks); 0.5 runs and decays
    def scenario(friction):
        return Scenario(params=P0, duration=3e-4, tau_ref=ConstantProfile(0.0), dt_plant=1e-5, dt_ctrl=1e-4,
                        speed=MechanicalModel(inertia=1e-6, friction=friction, omega0=10.0))

    for friction, ratio in ((0.3, "3"), (0.2, "2")):
        message = (rf"^speed: friction {friction} gives friction\*dt_plant/inertia {ratio}, not below 2: "
                   r"the speed's Euler step grows$")
        with pytest.raises(ValidationError, match=message):
            scenario(friction)
    result = run_scenario(scenario(0.05), "id_zero")
    speeds = [frame.omega / P0.p for frame in result.frames]
    assert not result.aborted and len(speeds) == 3 and speeds[0] == 10.0
    assert all(0.0 < b < a for a, b in zip(speeds, speeds[1:]))


def _exact_rk4(params, speed, h, n, i, v, t=0.0, omega_m=0.0):
    """n classical RK4 steps of the voltage equations at the held voltage v, in exact rationals of the given floats,
    the speed they end at and the largest flux |L_d i_d| or |L_q i_q| at their endpoints: (i_d, i_q, omega_m, peak).

    Substep j runs at the electrical speed ``speed`` if it is a number, at a profile's float reading at
    t + j h, or in mechanical mode (a ``MechanicalModel``) at p omega_m, where omega_m then takes an exact Euler
    step under the torque of the new currents and the load's reading at t + j h.
    """
    times = [t + j * h for j in range(n)]  # the float times at which the plant reads a profile
    R, L_d, L_q, psi, h, v_d, v_q = map(Fraction, (params.R, params.L_d, params.L_q, params.psi, h, *v))
    mech = speed if isinstance(speed, MechanicalModel) else None
    x_d, x_q = map(Fraction, i)
    omega_m = Fraction(omega_m)
    peak = max(L_d * abs(x_d), L_q * abs(x_q))
    for t_j in times:
        if mech is not None:
            omega = params.p * omega_m
        else:
            omega = Fraction(float(speed(t_j)) if callable(speed) else speed)

        def f(x_d, x_q):
            return (-R * x_d + L_q * omega * x_q + v_d) / L_d, (-L_d * omega * x_d - R * x_q - psi * omega + v_q) / L_q

        k1 = f(x_d, x_q)
        k2 = f(x_d + h / 2 * k1[0], x_q + h / 2 * k1[1])
        k3 = f(x_d + h / 2 * k2[0], x_q + h / 2 * k2[1])
        k4 = f(x_d + h * k3[0], x_q + h * k3[1])
        x_d, x_q = (x + h / 6 * (a + 2 * b + 2 * c + d) for x, a, b, c, d in zip((x_d, x_q), k1, k2, k3, k4))
        peak = max(peak, L_d * abs(x_d), L_q * abs(x_q))
        if mech is not None:
            tau = Fraction(1.5 * params.p) * (psi * x_q + (L_d - L_q) * x_d * x_q)
            load = Fraction(float(mech.load_torque(t_j)))
            omega_m += (tau - load - Fraction(mech.friction) * omega_m) / Fraction(mech.inertia) * h
    return x_d, x_q, omega_m, peak


@st.composite
def _held_ticks(draw, speeds, n_subs):
    """(scenario, n_sub) of one tick on a drawn machine, at a constant speed from ``speeds`` and any dt_plant that
    the domain takes at that speed, where RK4 is stable or not."""
    params, speed, n_sub = draw(MACHINES), draw(speeds), draw(st.sampled_from(n_subs))
    return tick_scenario(params, draw(dt_plants(params, speed, n_sub)), n_sub, speed), n_sub


@seed(25)
@given(_held_ticks(st.builds(ConstantProfile, st.just(0.0) | st.floats(-1e3, 1e3) | SPEEDS), (1, 2, 7, 100, 2000)),
       st.tuples(*[st.floats(-1e3, 1e3)] * 4))
# an unstable tick (h |A| = 178) near a double eigenvalue, 1.03e-14 of its currents' flux from exact RK4
@example((tick_scenario(MachineParams(759.0, 0.9375, 0.5234375, 1.0, 1), 0.09999999999999991, 7, 327.0), 7),
         (0.0, 1.0, 0.0, 0.0))
# a stable tick in which the back-EMF turns once (n h omega near 2 pi): its endpoint's flux is 0.48 Wb against a
# 17 Wb swing, 1.32e-14 of the former from exact RK4 and 6.8e-16 of the latter
@example((tick_scenario(MachineParams(395.25, 0.5, 0.875, 9.0, 1), 1e-10, 7, 8988638687.386543), 7), (0.0,) * 4)
def test_closed_form_tick_is_rk4(tick, currents_and_voltages):
    # the closed-form tick at every dt_plant the domain takes, RK4 stable or not.  For n_sub <= 7 (whose P^n stays
    # below some 1e240 at the drawn speeds, so the map exists) it is within 1e-14 of RK4 in exact arithmetic, in flux,
    # as a share of the largest flux of the exact trajectory at its substep endpoints where RK4's rule holds (as in
    # test_substep_loop_is_rk4); there it is also within 1e-12 of the substep loop, run by a profile that holds the
    # same speed.
    # Beyond the rule longer ticks may overflow, and raise, and P^n rounds as |P|^n does: near a double eigenvalue
    # the map was 1.1e-13 of its currents' flux from exact RK4.  There the gap is a share of the flux RK4 can reach,
    # P(h|A|)^n (|y_0| + n h |w|) in the infinity norm, as P's coefficients are positive (worst 3.1e-15 over
    # 10,000 unpinned examples, and 2.9e-16 over 6,000 ticks drawn near a double eigenvalue)
    (s, n_sub), (i_d, i_q, v_d, v_q) = tick, currents_and_voltages
    params, omega = s.params, s.speed.value
    stable = s.dt_plant <= rk4_limit(params, abs(omega))
    try:
        step = rk4_plant_step(i_d, i_q, 0.0, v_d, v_q, 0.0, s)
    except NonFiniteStateError:
        assert not stable and n_sub > 7
        return
    assert step[2] == 0.0
    if stable:
        loop = rk4_plant_step(i_d, i_q, 0.0, v_d, v_q, 0.0, records.replace(s, speed=_held(omega)))
        assert _flux_gap(step, loop, (i_d, i_q), params) <= 1e-12
    if n_sub <= 7:
        exact = _exact_rk4(params, omega, s.dt_plant, n_sub, (i_d, i_q), (v_d, v_q))
        h = s.dt_plant
        z, w = RK4_RADIUS * h / rk4_limit(params, abs(omega)), max(abs(v_d), abs(v_q - params.psi * omega))
        reach = exact[3] if stable else ((1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0) ** n_sub
                                         * (max(params.L_d * abs(i_d), params.L_q * abs(i_q)) + n_sub * h * w))
        assert _flux_gap(step, exact, (i_d, i_q), params, reach) <= Fraction(1e-14)


def _near(value):
    """Floats within two decades of ``value``."""
    return st.floats(-2.0, 2.0).map(lambda x: value * 10.0 ** x)


def _loaded(loads):
    """Mechanical speeds of a few hundred rad/s under the drawn load torques."""
    return st.builds(MechanicalModel, _near(1e-3), st.floats(0.0, 1e-2), loads, st.floats(-100.0, 100.0))


NEAR_P0 = st.builds(MachineParams, _near(P0.R), _near(P0.L_d), _near(P0.L_q), _near(P0.psi), st.integers(1, 12))
CONSTANT_LOADS = st.builds(ConstantProfile, st.floats(-10.0, 10.0))
# speed sources of any size in the domain, and ramps and loaded machines of a few hundred rad/s
TICK_SPEEDS = (
    st.tuples(varying_profiles(SPEEDS) | st.builds(TrapezoidProfile, *[st.floats(-1e3, 1e3)] * 2, st.just(0.0),
                                                   st.floats(1e-9, 1e-1)), st.sampled_from((1, 2, 7)))
    | st.tuples(MECHANICAL | _loaded(CONSTANT_LOADS | st.builds(SinusoidProfile, st.floats(-10.0, 10.0),
                                                                st.floats(0.0, 1e4))), st.sampled_from((1, 2))))
# the speed sources whose ticks a compiled loop steps, a mechanical speed at a constant load and every varying speed
# profile, up to 100 substeps
COMPILED_SPEEDS = st.tuples(MECHANICAL | _loaded(CONSTANT_LOADS) | varying_profiles(SPEEDS),
                            st.sampled_from((1, 2, 7, 100)))


@st.composite
def _loop_ticks(draw, speeds=TICK_SPEEDS):
    """(scenario, speed source) of one tick of a drawn machine and speed source, with a dt_plant the domain takes."""
    params, (speed, n_sub) = draw(MACHINES | NEAR_P0), draw(speeds)
    return tick_scenario(params, draw(dt_plants(params, speed, n_sub)), n_sub, speed), speed


# a tick whose currents swing to some 68 A within it, and back to (-0.82, -0.89) A: 1.2e-14 of its endpoint's flux
# from exact RK4, and 1.8e-16 of the trajectory's peak flux of 66.3 Wb
_SWING = TableProfile((-1.0, 0.0), (0.0, 9030979404.0))


@seed(26)
@given(_loop_ticks(), st.just(0.0) | FINITE, st.tuples(*[st.floats(-1e3, 1e3)] * 4))
@example((tick_scenario(MachineParams(1.0, 1.0, 0.5, 35.0, 1), 1e-10, 7, _SWING), _SWING), 0.0, (0.0,) * 4)
def test_substep_loop_is_rk4(tick, t, currents_and_voltages):
    # the substep loop within 1e-14 in flux of RK4 in exact arithmetic, under varying speeds and in mechanical mode,
    # as a share of the largest flux of the exact trajectory at its substep endpoints (or of i0's and the endpoint's,
    # if larger): a tick's rounding is small against the largest flux it passes through.  Every substep of a profile
    # speed has h (max(R/L_d, R/L_q) + |omega|) <= 2, which Scenario demands; a mechanical speed is not known ahead,
    # so its draws are held to the bound only where they meet it.  Beyond it, RK4's T amplifies the rounding of
    # A y + w, where its terms cancel, by up to h|T||A| in any float form of the plant.  A speed fed back through the
    # torque makes the exact rationals some nine times longer per substep, so mechanical ticks run at most 2
    # substeps (3 take up to 5 s)
    (s, speed), (i_d, i_q, v_d, v_q) = tick, currents_and_voltages
    params, n_sub = s.params, round(s.dt_ctrl / s.dt_plant)
    h, omega_m = s.dt_plant, speed.omega0 if isinstance(speed, MechanicalModel) else 0.0
    try:
        step = rk4_plant_step(i_d, i_q, omega_m, v_d, v_q, t, s)
    except NonFiniteStateError:  # a mechanical speed that diverged, or a sinusoid whose phase overflows to nan
        return
    if not math.isfinite(step[2]):  # a load reading, or the speed it drove, is not finite: no rational has it
        return
    exact = _exact_rk4(params, speed, h, n_sub, (i_d, i_q), (v_d, v_q), t, omega_m)
    if isinstance(speed, MechanicalModel):
        speeds = [params.p * _exact_rk4(params, speed, h, j, (i_d, i_q), (v_d, v_q), t, omega_m)[2]
                  for j in range(n_sub)]
        # rk4_limit's rule at each speed, written out: a mechanical speed can pass what a profile may hold
        rate = max(params.R / params.L_d, params.R / params.L_q)
        if any(h > RK4_RADIUS / (rate + abs(w)) for w in speeds):
            return
    assert _flux_gap(step, exact, (i_d, i_q), params, exact[3]) <= Fraction(1e-14)


def _python_loop(s):
    """``s`` rebuilt as if the compiled loop could not be had, so that its ticks run the Python loop."""
    with mock.patch.object(kernels, "load", lambda: None):
        return records.replace(s)


def _tick_bits(*args):
    """The ``float.hex`` of each value ``rk4_plant_step(*args)`` returns, or the message of its NonFiniteStateError."""
    try:
        return [float.hex(x) for x in rk4_plant_step(*args)]
    except NonFiniteStateError as exc:
        return str(exc)


# a sinusoid whose phase 2 pi f t + phase overflows to inf at t = 1e308, where it reads nan at every substep
_OVERFLOWING = SinusoidProfile(100.0, 50.0)


@pytest.mark.skipif(not COMPILER, reason="no C compiler or Python.h: the Python loop runs alone")
@given(_loop_ticks(COMPILED_SPEEDS), st.just(0.0) | FINITE, st.tuples(*[st.floats(-1e3, 1e3)] * 4),
       st.floats(-1e4, 1e4))
@example((tick_scenario(P0, 1e-6, 7, _OVERFLOWING), _OVERFLOWING), 1e308, (1.0, -2.0, 3.0, 4.0), 100.0)
def test_compiled_loop_equals_the_python_loop(tick, t, currents_and_voltages, omega):
    # _kernels.c does the Python loop's float operations in its order, and profile_tick calls the profile at its
    # times, so every tick gives the same bits, or both raise the same error; with the first substep's speed taken
    # from omega_m (mechanical) or the profile at t, given as p omega_m, or given apart; a profile passes omega_m
    # through
    (s, speed), (i_d, i_q, v_d, v_q) = tick, currents_and_voltages
    omega_m = speed.omega0 if isinstance(speed, MechanicalModel) else 0.0
    loop, args = _python_loop(s), (i_d, i_q, omega_m, v_d, v_q, t)
    assert s._plant[-3] is not None and loop._plant[-3] is None
    for first in (None, s.params.p * omega_m, omega):
        assert _tick_bits(*args, s, first) == _tick_bits(*args, loop, first)


def _no_compile(patch, tmp_path, failure):
    """Make ``kernels.load`` fail by ``failure``: a compile that fails, a missing Python.h or an unwritable cache."""
    if failure == "compile":  # an unknown flag changes the digest and fails the compile
        patch.setattr(kernels, "FLAGS", kernels.FLAGS + ("-fno-such-option",))
    elif failure == "Python.h":  # an include directory without it, met by a cold build in an empty cache
        patch.setattr(kernels, "CACHE", tmp_path)
        get_path = sysconfig.get_path
        patch.setattr(sysconfig, "get_path", lambda name, *a, **kw: str(tmp_path) if name == "include"
                      else get_path(name, *a, **kw))
    else:  # a cache directory whose parent is a file
        (tmp_path / "file").write_text("")
        patch.setattr(kernels, "CACHE", tmp_path / "file" / "__pycache__")


@pytest.mark.parametrize("failure", ["compile", "Python.h", "cache"])
def test_runs_take_the_python_twins_where_the_build_fails(monkeypatch, tmp_path, failure):
    # where the compiled twins cannot be had, the scenarios take the Python loop and the controllers the Python law,
    # to the same frames: every controller on a mechanical scenario and on s1, whose speed is a varying profile
    from oflc.config import parse_config

    scenarios = [parse_config((SCENARIOS / name).read_text())[0] for name in ("mechanical.cfg", "s1.cfg")]
    compiled = [repr(run_scenario(s, c)) for s in scenarios for c in CONTROLLERS]
    with monkeypatch.context() as patch:
        _no_compile(patch, tmp_path, failure)
        kernels.load.cache_clear()
        try:
            assert kernels.load() is None
            assert control_law(P0, V_MAX, 1e-3).func is composed_control_law
            fallback = [records.replace(s) for s in scenarios]
            assert all(x._plant[-3] is None for x in fallback) and fallback == scenarios
            python = [repr(run_scenario(s, c)) for s in fallback for c in CONTROLLERS]
        finally:
            kernels.load.cache_clear()
    assert all((x._plant[-3] is not None) == COMPILER for x in scenarios)
    assert (control_law(P0, V_MAX, 1e-3).func is getattr(kernels.load(), "law", None)) == COMPILER
    assert python == compiled

def test_substep_loop_keeps_rk4_order():
    # criterion 10's two checks, of the substep loop rather than the closed form: the same speeds, held by step
    # profiles.  Richardson order on a smooth salient trajectory
    from scipy.linalg import expm

    def endpoint(dt, n):
        return np.array(rk4_plant_step(1.0, -2.0, 0.0, 3.0, 4.0, 0.0, tick_scenario(P0, dt, n, _held(200.0)))[:2])

    T, dt = 0.01, 2e-4
    e1, e2, e3 = endpoint(dt, round(T / dt)), endpoint(dt / 2, round(2 * T / dt)), endpoint(dt / 4, round(4 * T / dt))
    order = float(np.log2(np.linalg.norm(e1 - e2) / np.linalg.norm(e2 - e3)))
    assert order >= 3.9

    # the linear (non-salient) case against the matrix-exponential solution
    params, omega, v, n = P_NS, 150.0, np.array([5.0, -3.0]), 2000
    M = np.array([[-params.R / params.L_d, params.L_q * omega / params.L_d],
                  [-params.L_d * omega / params.L_q, -params.R / params.L_q]])
    c = np.array([v[0] / params.L_d, (v[1] - params.psi * omega) / params.L_q])
    i = np.array(rk4_plant_step(2.0, -1.0, 0.0, *v.tolist(), 0.0, tick_scenario(params, 1e-6, n, _held(omega)))[:2])
    i_star = -np.linalg.solve(M, c)
    exact = i_star + expm(M * (n * 1e-6)) @ (np.array([2.0, -1.0]) - i_star)
    assert np.linalg.norm(i - exact) / max(1.0, np.linalg.norm(exact)) <= 1e-9


# the two speed sources whose tick runs the substep loop at a varying speed: a 0 -> 600 rad/s ramp across the tick,
# under v = (3, 4) V, and a loaded machine from 20 rad/s, under v = (3, 20) V
VARYING_SPEEDS = {
    "ramp": (TrapezoidProfile(0.0, 600.0, 0.0, 0.01), (3.0, 4.0)),
    "mechanical": (MechanicalModel(inertia=2e-4, friction=1e-3, load_torque=ConstantProfile(0.5), omega0=20.0),
                   (3.0, 20.0)),
}


@pytest.mark.xfail(strict=True, reason="ROADMAP item 19")
@pytest.mark.parametrize("case", VARYING_SPEEDS)
def test_substep_loop_keeps_rk4_order_where_the_speed_varies(case):
    # criterion 10's order, of the loop under a speed that varies within the tick, from i = (1, -2) A on P0 over
    # one 10 ms tick at h = 100, 50 and 25 us, against DOP853 on the true ODE: the error is in (i_d, i_q), or in
    # (i_d, i_q, omega_m) in mechanical mode.  The loop holds each substep's starting speed for all four stages,
    # so its currents, and a mechanical speed, are first order (observed 1.0); true RK4 reaches 3.99 and 4.01
    from scipy.integrate import solve_ivp

    speed, v = VARYING_SPEEDS[case]
    mech = speed if isinstance(speed, MechanicalModel) else None
    x0 = [1.0, -2.0] + ([mech.omega0] if mech else [])

    def f(t, x):
        omega = P0.p * x[2] if mech else speed(t)
        di = dq_dynamics(x[:2], v, omega, P0)
        if mech is None:
            return di
        return [*di, (torque(x[:2].tolist(), P0) - mech.load_torque(t) - mech.friction * x[2]) / mech.inertia]

    exact = solve_ivp(f, (0.0, 0.01), x0, method="DOP853", rtol=1e-13, atol=1e-13).y[:, -1]
    errors = []
    for h, n in ((1e-4, 100), (5e-5, 200), (2.5e-5, 400)):
        step = rk4_plant_step(1.0, -2.0, x0[-1] if mech else 0.0, *v, 0.0, tick_scenario(P0, h, n, speed))
        errors.append(np.linalg.norm(np.subtract(step[:len(x0)], exact)))
    e1, e2, e3 = errors
    assert math.log2(e1 / e2) >= 3.9 and math.log2(e2 / e3) >= 3.9


def _quiet_scenario(**kw):
    args = dict(params=P0, duration=0.01, tau_ref=ConstantProfile(0.0),
                speed=ConstantProfile(0.0), dt_plant=1e-5, dt_ctrl=1e-4,
                horizon=1e-3, v_max=V_MAX)
    args.update(kw)
    return Scenario(**args)


def test_unknown_controller_is_named_with_the_choices():
    # a controller object is no name either: a custom controller is a CONTROLLERS row
    choices = re.escape(repr(tuple(CONTROLLERS)))
    for name in ("bogus", ["oflc"], CONTROLLERS["oflc"](_quiet_scenario(), ControllerSettings())):
        with pytest.raises(ValueError, match=f"^unknown controller {re.escape(repr(name))}; expected one of {choices}$"):
            run_scenario(_quiet_scenario(), name)


def test_zero_scenario_zero_cost():
    result = run_scenario(_quiet_scenario(), "oflc", settings=ControllerSettings(kp=0.0, ki=0.0))
    assert result.cost_integral == 0.0
    assert result.rms_torque_error == 0.0
    assert not result.aborted


def test_one_tick_run():
    # the shortest valid run: its one frame spans no interval, and its RMS error is that frame's error
    result = run_scenario(_quiet_scenario(duration=1e-4, tau_ref=ConstantProfile(3.0), i0=(1.0, 2.0)), "oflc")
    (frame,) = result.frames
    assert (result.cost_integral, result.copper_energy) == (0.0, 0.0)
    assert result.rms_torque_error == abs(frame.tau_ref - frame.tau_est) > 0.0


def test_run_scenario_reproducible(monkeypatch):
    # a repeated run gives the same frames.  A run on the reference plant step, whose ticks are RK4's result rounded
    # differently, gives the same flags and every other field within 1e-12 of its largest magnitude in the run
    # (the worst seen was 2.5e-15)
    prescribed = _quiet_scenario(tau_ref=SinusoidProfile(3.0, 20.0), speed=TrapezoidProfile(0.0, 150.0, 0.002, 0.006))
    mechanical = Scenario(params=P0, duration=0.005, tau_ref=ConstantProfile(2.0),
                          speed=MechanicalModel(inertia=1e-4, friction=1e-3, load_torque=ConstantProfile(0.5),
                                                omega0=20.0),
                          dt_plant=1e-5, dt_ctrl=1e-4, horizon=1e-3, v_max=V_MAX)
    for s in (prescribed, mechanical):
        a = run_scenario(s, "oflc", settings=ControllerSettings())
        b = run_scenario(s, "oflc", settings=ControllerSettings())
        with monkeypatch.context() as m:
            m.setattr(sim, "rk4_plant_step", _reference_tick)
            c = run_scenario(s, "oflc", settings=ControllerSettings())
        assert a.cost_integral == b.cost_integral == pytest.approx(c.cost_integral, rel=1e-12, abs=0.0)
        assert len(a.frames) == len(b.frames) == len(c.frames) == round(s.duration / s.dt_ctrl)
        assert a.frames == b.frames
        assert [f.flags for f in a.frames] == [f.flags for f in c.frames]
        for k, name in enumerate(ControlFrame._fields[:-1]):
            scale = max(abs(f[k]) for f in c.frames)
            assert all(abs(fa[k] - fc[k]) <= 1e-12 * scale for fa, fc in zip(a.frames, c.frames)), name


def _logged(monkeypatch, profile):
    """``profile`` and the list of the times at which it is called from now on: its class's ``__call__`` is patched."""
    times, call = [], type(profile).__call__
    monkeypatch.setattr(type(profile), "__call__",
                        lambda self, t: (self is profile and times.append(t), call(self, t))[1])
    return profile, times


def _ramp():
    """1000 t over the first second: a varying speed profile, or a load torque."""
    return TrapezoidProfile(0.0, 1000.0, 0.0, 1.0)


def test_run_scenario_samples_the_speed_once_per_substep(monkeypatch):
    # the controller's sample at t is also the first substep's speed; a varying profile is called again
    # only at the later substeps of the tick
    for n_sub in (1, 7):
        speed, reads = _logged(monkeypatch, _ramp())
        s = _quiet_scenario(duration=0.002, speed=speed, dt_plant=1e-4 / n_sub)
        result = run_scenario(s, "oflc")
        assert not result.aborted and len(reads) == 20 * n_sub
    # a ConstantProfile speed is read once per tick, at its start: its ticks are the closed-form map
    constant, reads = _logged(monkeypatch, ConstantProfile(0.0))
    s = _quiet_scenario(duration=3e-2, speed=constant, dt_plant=1e-4, dt_ctrl=1e-2)
    result = run_scenario(s, "oflc", settings=ControllerSettings(kp=0.0, ki=0.0))
    assert not result.aborted and reads == [0.0, 1e-2, 2e-2]


def test_run_scenario_reads_the_load_once_per_tick_or_per_substep(monkeypatch):
    # mechanical mode reads a ConstantProfile load once per tick, at its start, and any other load at every
    # substep, at t + j dt_plant
    constant, reads = _logged(monkeypatch, ConstantProfile(0.5))
    for n_sub in (1, 7):
        dt_plant, (varying, times) = 1e-4 / n_sub, _logged(monkeypatch, _ramp())
        for load in (varying, constant):
            s = _quiet_scenario(duration=0.002, dt_plant=dt_plant,
                                speed=MechanicalModel(inertia=1e-4, friction=1e-3, load_torque=load, omega0=20.0))
            assert not run_scenario(s, "oflc").aborted
        assert times == [k * s.dt_ctrl + j * dt_plant for k in range(20) for j in range(n_sub)]
        assert reads == [k * s.dt_ctrl for k in range(20)]
        reads.clear()


@pytest.mark.skipif(not COMPILER, reason="no C compiler or Python.h: the Python law runs alone")
def test_simulators_never_call_the_reference_steps(monkeypatch):
    # where the compiled twins load, the compiled law alone gives what a simulator applies; the step functions are
    # its reference, and its fallback only at a degenerate b or an input that is not an exact float, which these
    # runs never meet, so every oflc name bound to one of them raises for the length of the runs
    from oflc import linearization, optimizer

    steps = (linearization.compute_terms, linearization.linearize, optimizer.clamp_torque_command,
             optimizer.costate_matrices, optimizer.estimate_costate, optimizer.z_limit, optimizer.optimal_z)

    def reference_step(*args, **kwargs):
        raise AssertionError("a simulator called a reference step of the control law")

    replaced = 0
    for name, module in list(sys.modules.items()):
        if name == "oflc" or name.startswith("oflc."):
            for attr, value in list(vars(module).items()):
                if any(value is step for step in steps):
                    monkeypatch.setattr(module, attr, reference_step)
                    replaced += 1
    assert replaced >= len(steps)

    # a torque command beyond the voltage limit at speed, so the clamp and both z rules run
    tau_ref, ramp = SinusoidProfile(80.0, 300.0), TrapezoidProfile(0.0, 300.0, 0.0005, 0.0015)
    for speed in (ramp, MechanicalModel(inertia=1e-4, friction=1e-3, omega0=20.0)):
        s = _quiet_scenario(duration=0.002, tau_ref=tau_ref, speed=speed)
        for controller in CONTROLLERS:
            result = run_scenario(s, controller)
            assert not result.aborted and result.saturation_counts["u_clamped"] > 0
    for kw in (dict(z_smoothing=0.5), dict(use_z=False)):
        run = run_continuous(P0, V_MAX, tau_ref, ramp, 0.002, 1e-5, **kw)
        assert run.clamped.any() and not run.clamped.all()


def test_run_frames_respect_limits():
    s = _quiet_scenario(tau_ref=SinusoidProfile(6.0, 30.0), speed=TrapezoidProfile(0.0, 250.0, 0.001, 0.006))
    from oflc.linearization import compute_terms

    result = run_scenario(s, "oflc", settings=ControllerSettings())
    assert not result.aborted
    for f in result.frames:
        assert np.linalg.norm((f.v_d, f.v_q)) <= V_MAX * (1.0 + 1e-9)
        zn = np.linalg.norm((f.z_d, f.z_q))
        if zn > 0.0:
            terms = compute_terms((f.i_d, f.i_q), f.omega, P0)
            assert abs(float(np.dot((terms.b_d, terms.b_q), (f.z_d, f.z_q)))) <= 1e-10 * np.sqrt(terms.b_norm_sq) * zn


@st.composite
def short_runs(draw):
    """20-tick scenarios on a machine with each constant within two decades of P0's, with the torque profiles,
    speed sources and v_max of the config round trip's draws, and dt_plant from 1e-7 s to 1e-4 s where the
    domain takes it."""
    params, speed = draw(NEAR_P0), draw(SPEED_PROFILES | MECHANICAL)
    n_sub = draw(st.integers(1, 5))
    dt_plant = draw(dt_plants(params, speed, n_sub, 1e-7, 1e-4))
    return Scenario(params=params, duration=20 * n_sub * dt_plant, tau_ref=draw(PROFILES), speed=speed,
                    dt_plant=dt_plant, dt_ctrl=n_sub * dt_plant, v_max=draw(within("v_max")))


@given(short_runs())
def test_drawn_runs_keep_the_voltage_limit_and_z_orthogonal_to_b(s):
    # the bounds of criteria 3 and 4 on every tick with finite values, plus the rounding the law's voltage carries:
    # its clamp band edge phi -+ |b| v_max rounds by up to ulp(u) / 2, and |v| = |u - phi| / |b|.  That exceeds
    # v_max 1e-9 where |phi| is some 1e7 times |b| v_max: a back-EMF that dwarfs v_max, as psi omega = 2.75e7 V
    # against 1 V (P0 but p = 1, a constant 2.75e8 rad/s, dt_plant = dt_ctrl = 7.27e-9 s) gave 1 + 1.0e-9
    for name in CONTROLLERS:
        held = (0.0, 0.0)
        for f in run_scenario(s, name).frames:
            held, v_dq = (f.v_d, f.v_q), held
            if not all(map(math.isfinite, f[:-1])):
                continue
            if f.flags & B_DEGENERATE:
                assert (f.v_d, f.v_q) == v_dq  # the held voltage, checked on its own tick
                continue
            if name == "id_zero":
                assert math.hypot(f.v_d, f.v_q) <= s.v_max * (1.0 + 1e-9)
                continue
            terms = compute_terms((f.i_d, f.i_q), f.omega, s.params)
            assert math.hypot(f.v_d, f.v_q) <= s.v_max * (1.0 + 1e-9) + math.ulp(f.u_feasible) / terms.b_norm
            z_norm = math.hypot(f.z_d, f.z_q)
            if z_norm > 0.0:
                assert abs(terms.b_d * f.z_d + terms.b_q * f.z_q) <= 1e-10 * terms.b_norm * z_norm


@given(short_runs(), short_runs())
def test_drawn_runs_are_deterministic(s, other):
    # two runs, and a run on a copy that records.replace() made from another scenario, give the same frames and
    # figures; repr tells nan apart from a changed value.  A plant constant or tick map that outlived its
    # scenario would show in the copy
    copy = records.replace(other, **{f.name: getattr(s, f.name) for f in records.fields(s)})
    assert copy == s
    results = [repr(run_scenario(x, "oflc")) for x in (s, s, copy)]
    assert results[0] == results[1] == results[2]


def test_run_continuous_evaluates_the_law_once_per_stage(monkeypatch):
    # the four RK4 stages of each step, the first of which gives its sample's u and clamp flag, and the last sample
    calls = []

    def counted(*run):
        law = control_law(*run)

        def counted_law(*state):
            calls.append(state)
            return law(*state)
        return counted_law

    monkeypatch.setattr(sim, "control_law", counted)
    n = 37
    run = run_continuous(P0, V_MAX, SinusoidProfile(80.0, 300.0), TrapezoidProfile(0.0, 300.0, 0.0, 1e-3), n * 1e-5,
                         1e-5, z_smoothing=0.5)
    assert len(run.t) == n + 1 and len(calls) == 4 * n + 1
    assert run.clamped.any() and not run.clamped.all()


def test_run_continuous_takes_the_compiled_law_to_the_composed_law_s_arrays(monkeypatch):
    # each RK4 stage passes the law a tuple, so where the compiled twins load it runs the compiled law and never
    # the composed law it holds (the states stay clear of b's degenerate point), and gives the composed law's
    # arrays, bit for bit
    composed_calls = []

    def counted(*run):
        law = control_law(*run)
        if law.func is composed_control_law:
            return law

        def composed(*state):
            composed_calls.append(state)
            return law.args[1](*state)
        return functools.partial(law.func, law.args[0], composed)

    for z_smoothing in (0.0, 0.5):
        args = (P0, V_MAX, SinusoidProfile(80.0, 300.0), TrapezoidProfile(0.0, 300.0, 0.0, 1e-3), 50e-5, 1e-5)
        with monkeypatch.context() as patch:
            patch.setattr(sim, "control_law", counted)
            compiled = run_continuous(*args, z_smoothing=z_smoothing)
        with mock.patch.object(kernels, "load", lambda: None):
            python = run_continuous(*args, z_smoothing=z_smoothing)
        for name in ("t", "i", "tau", "u", "clamped"):
            a, b = getattr(compiled, name), getattr(python, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert composed_calls == []


def test_clamped_ticks_spend_no_voltage_on_z():
    # mechanical.cfg chatters between clamped and unclamped ticks; a clamped
    # command uses the whole voltage budget, so z must be exactly zero
    from oflc.config import parse_config
    from oflc.optimizer import Z_AT_LIMIT, Z_ZEROED

    scenario, settings = parse_config((SCENARIOS / "mechanical.cfg").read_text())
    frames = run_scenario(scenario, "oflc", settings=settings).frames
    clamped = [f for f in frames if f.flags & U_CLAMPED]
    assert clamped
    for f in clamped:
        assert (f.z_d, f.z_q) == (0.0, 0.0)
        assert f.flags & Z_ZEROED and not f.flags & Z_AT_LIMIT
        assert np.hypot(f.v_d, f.v_q) <= scenario.v_max * (1.0 + 1e-15)


def test_tracking_not_degraded_by_z():
    # feasible scenario: z must not hurt tracking (fine control rate so
    # zero-order-hold chatter is negligible)
    s = _quiet_scenario(duration=0.05, tau_ref=SinusoidProfile(4.0, 5.0),
                        speed=TrapezoidProfile(0.0, 200.0, 0.01, 0.03),
                        dt_plant=1e-5, dt_ctrl=1e-5, horizon=1e-4)
    r_on = run_scenario(s, "oflc", settings=ControllerSettings())
    r_off = run_scenario(s, "flc_z0", settings=ControllerSettings())
    assert r_on.rms_torque_error <= r_off.rms_torque_error + 1e-3


def test_mechanical_mode_accelerates():
    s = Scenario(params=P0, duration=0.05, tau_ref=ConstantProfile(2.0),
                 speed=MechanicalModel(inertia=1e-3, friction=1e-3),
                 dt_plant=1e-5, dt_ctrl=1e-4, horizon=1e-3, v_max=V_MAX)
    result = run_scenario(s, "oflc", settings=ControllerSettings())
    assert not result.aborted
    assert result.frames[-1].omega > 10.0  # spun up under positive torque


def test_id_zero_baseline_tracks():
    s = _quiet_scenario(duration=0.05, tau_ref=ConstantProfile(4.0), speed=ConstantProfile(100.0))
    result = run_scenario(s, "id_zero")
    assert result.frames[-1].tau_est == pytest.approx(4.0, rel=0.02)
    assert abs(result.frames[-1].i_d) <= 0.1


def test_z0_baseline_latches_where_oflc_does_not():
    # with z = 0 the law sets only the torque, and nothing regulates the current along b's normal: the zero dynamics
    # of the torque output (Isidori, Nonlinear Control Systems, 1995, ch. 4).  On s1 at L_q/L_d = 2.5, flc_z0's i_d
    # drifts to about 19 A and its u stays clamped to the end of the run; oflc's z pulls |i| back down
    from oflc.config import parse_config

    scenario, settings = parse_config((SCENARIOS / "s1.cfg").read_text())
    salient = records.replace(scenario, params=records.replace(scenario.params, L_q=7.5e-3))
    assert salient.params.L_q / salient.params.L_d == 2.5

    def clamped(scenario, name):
        """Whether u_clamped is set, tick by tick."""
        return [bool(f.flags & U_CLAMPED) for f in run_scenario(scenario, name, settings).frames]

    for name in CONTROLLERS:
        assert not any(clamped(scenario, name)), name
    latched = clamped(salient, "flc_z0")
    assert all(latched[len(latched) - len(latched) // 10:])
    assert not any(clamped(salient, "oflc"))


def test_nonfinite_abort_keeps_partial_trace(monkeypatch):
    # a torque estimate of 1e200 N m, as a diverging plant gives before its currents overflow: the squared error
    # overflows to inf, and the run reports it rather than raising
    class BlowUp:
        def step(self, t, omega, i_dq, tau_ref):
            return ControlFrame(t=t, i_d=0.0, i_q=0.0, v_d=np.inf, v_q=0.0, tau_ref=tau_ref,
                                tau_est=1e200, u_raw=0.0, u_feasible=0.0, omega=omega, z_d=0.0, z_q=0.0,
                                lambda_d=0.0, lambda_q=0.0, p_copper_W=0.0, flags=0)

    monkeypatch.setitem(CONTROLLERS, "blow_up", lambda s, st: BlowUp())
    with np.errstate(all="ignore"):
        result = run_scenario(_quiet_scenario(), "blow_up")
    assert result.aborted
    assert len(result.frames) >= 1
    assert result.rms_torque_error == math.inf


def _frame(t, i_d, i_q, p_copper):
    """A quiet tick's record with the given currents and copper power."""
    return ControlFrame(t=float(t), i_d=float(i_d), i_q=float(i_q), v_d=0.0, v_q=0.0, tau_ref=0.0,
                        tau_est=0.0, u_raw=0.0, u_feasible=0.0, omega=0.0, z_d=0.0, z_q=0.0,
                        lambda_d=0.0, lambda_q=0.0, p_copper_W=float(p_copper), flags=0)


def _const_frames(i_sq, duration, n):
    t = np.linspace(0.0, duration, n)
    i = np.sqrt(i_sq / 2.0)
    frames = []
    for tk in t:
        frames.append(_frame(tk, i, i, 1.5 * P0.R * i_sq))
    return frames


def _pairwise_energy(frames):
    """The trapezoid sums over zipped pairs of frames, each frame's |i|^2 squared twice: the reference."""
    cost = copper = 0.0
    for a, b in zip(frames, frames[1:]):
        dt = b.t - a.t
        cost += dt * ((b.i_d * b.i_d + b.i_q * b.i_q) + (a.i_d * a.i_d + a.i_q * a.i_q)) / 2.0
        copper += dt * (b.p_copper_W + a.p_copper_W) / 2.0
    return cost, copper


def test_energy_accounting_equals_the_pairwise_sums():
    from oflc.config import parse_config

    scenario, settings = parse_config((SCENARIOS / "s1.cfg").read_text())
    frames = run_scenario(scenario, "oflc", settings=settings).frames
    assert len(frames) == round(scenario.duration / scenario.dt_ctrl)
    for trace in (frames, frames[:0], frames[:1], frames[:2], frames[1234:1236]):
        got = energy_accounting(trace)
        assert got == _pairwise_energy(trace) and all(type(x) is float for x in got)
    assert energy_accounting(frames[:1]) == (0.0, 0.0)


def test_energy_accounting_constant():
    cost, copper = energy_accounting(_const_frames(4.0, 2.0, 51))
    assert cost == pytest.approx(8.0)
    assert copper == pytest.approx(1.5 * P0.R * 4.0 * 2.0)


def test_energy_accounting_zero():
    cost, copper = energy_accounting(_const_frames(0.0, 2.0, 51))
    assert cost == 0.0 and copper == 0.0


def test_energy_accounting_refinement():
    # smooth trace: halving the sample spacing barely moves the integral
    def frames_at(n):
        t = np.linspace(0.0, 0.5, n)
        out = []
        for tk in t:
            i_d = 2.0 * np.sin(2 * np.pi * 3.0 * tk)
            i_q = 1.0 + np.cos(2 * np.pi * 2.0 * tk)
            isq = i_d**2 + i_q**2
            out.append(_frame(tk, i_d, i_q, 1.5 * P0.R * isq))
        return out

    c1, _ = energy_accounting(frames_at(4001))
    c2, _ = energy_accounting(frames_at(8001))
    assert abs(c1 - c2) <= 1e-6 * abs(c2)


def test_summary_figures_equal_numpy_sums():
    # the run sums its figures in order, numpy pairwise; for n non-negative terms the
    # two differ by at most about n eps relative, 2000 * 1.1e-16 here
    from oflc.config import parse_config

    scenario, settings = parse_config((SCENARIOS / "mechanical.cfg").read_text())
    for name in CONTROLLERS:
        result = run_scenario(scenario, name, settings=settings)
        t, i_d, i_q, p_cu, err = np.array([(f.t, f.i_d, f.i_q, f.p_copper_W, f.tau_ref - f.tau_est)
                                           for f in result.frames]).T
        assert result.cost_integral == pytest.approx(np.trapezoid(i_d * i_d + i_q * i_q, t), rel=1e-12, abs=0.0)
        assert result.copper_energy == pytest.approx(np.trapezoid(p_cu, t), rel=1e-12, abs=0.0)
        assert result.rms_torque_error == pytest.approx(np.sqrt(np.mean(err * err)), rel=1e-12, abs=0.0)


def test_scenario_validation():
    with pytest.raises(ValidationError):
        _quiet_scenario(dt_plant=1e-3)  # > dt_ctrl
    with pytest.raises(ValidationError):
        _quiet_scenario(dt_plant=3e-5)  # does not divide dt_ctrl
    with pytest.raises(ValidationError):
        _quiet_scenario(v_max=0.0)
    # runs that would not end: 1e296 substeps per tick, 1e10 ticks, 1e12 substeps per run
    with pytest.raises(ValidationError, match="^dt_plant: "):
        _quiet_scenario(dt_plant=1e-300)
    with pytest.raises(ValidationError, match="^duration: "):
        _quiet_scenario(duration=1e6)
    # within 1e-6 of zero ticks, a multiple of dt_ctrl that would run no tick
    with pytest.raises(ValidationError, match="^duration: must be at least dt_ctrl"):
        _quiet_scenario(duration=5e-10, dt_ctrl=1e-3)
    with pytest.raises(ValidationError, match="^dt_plant: gives more than 100000000 substeps per run"):
        _quiet_scenario(duration=100.0, dt_ctrl=1e-4, dt_plant=1e-10)
    for name, value in (("duration", np.nan), ("duration", np.inf), ("dt_plant", np.nan), ("dt_ctrl", np.nan),
                        ("horizon", np.inf), ("v_max", np.nan), ("v_max", np.inf), ("duration", 0.0),
                        ("duration", -0.01), ("dt_plant", 0.0), ("dt_plant", -1e-5), ("dt_ctrl", -1e-4),
                        ("horizon", 0.0), ("horizon", -1e-3), ("v_max", -np.inf)):
        with pytest.raises(ValidationError, match=rf"^{name}: must be in \[.*\] \w+, got {value}$"):
            _quiet_scenario(**{name: value})
    # a limit of 1.05e-97 V, under which id_zero's clip of the largest torque the domain takes needed a subnormal
    # factor
    with pytest.raises(ValidationError, match=r"^v_max: must be in \[1, 10000\] V, got 1.05e-97$"):
        _quiet_scenario(tau_ref=StepProfile(0.0, 1e10, 0.0), v_max=1.05e-97)
    with pytest.raises(TypeError, match="^Scenario\\(\\) missing required argument 'speed'$"):
        Scenario(params=P0, duration=0.01, tau_ref=ConstantProfile(0.0))  # no speed source
    # the speed source is a profile or a MechanicalModel, nothing else: a function of time that is no profile
    # would skip RK4's rule (this one reads 1e9 rad/s by 1 ms, where dt_plant 1e-5 s is past the rule)
    profiles = "ConstantProfile or StepProfile or SinusoidProfile or TrapezoidProfile or TableProfile"
    for speed in (None, 100.0, lambda t: TrapezoidProfile(0.0, 1e9, 0.0, 1e-3)(t)):
        with pytest.raises(ValidationError, match=f"^speed: must be a {profiles} or MechanicalModel, got "):
            _quiet_scenario(speed=speed)
    # a value that the first tick would call or read as a machine is rejected where it is built; the time functions
    # are the five profile classes, so a lambda load would skip the load's range
    for tau_ref in (3.0, lambda t: 1.0, MechanicalModel(inertia=1e-3)):
        with pytest.raises(ValidationError, match=f"^tau_ref: must be a {profiles}, got "):
            _quiet_scenario(tau_ref=tau_ref)
    with pytest.raises(ValidationError, match="^params: must be a MachineParams, got None$"):
        _quiet_scenario(params=None)
    for load in (0.5, lambda t: 1e9):
        with pytest.raises(ValidationError, match=f"^load_torque: must be a {profiles}, got "):
            MechanicalModel(inertia=1e-3, load_torque=load)
    # the initial currents are a pair of real numbers
    for i0 in ((1.0,), (1.0, 2.0, 3.0), None, 1.0, ("a", 1.0), (1.0, None), (1.0, 2j)):
        with pytest.raises(ValidationError, match="^i0: must be a pair of real numbers"):
            _quiet_scenario(i0=i0)
    for name, i0 in (("i_d0", (np.nan, 0.0)), ("i_q0", (0.0, -np.inf))):
        with pytest.raises(ValidationError, match=f"^{name}: must be in "):
            _quiet_scenario(i0=i0)
    assert _quiet_scenario(i0=(1, np.float64(-2.0))).i0 == (1, -2.0)
