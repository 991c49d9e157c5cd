import functools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import COMPILER, P0, P_NS, V_MAX, random_state, tick_scenario
from test_config import MACHINES, within
from oflc import kernels, machine, optimizer
from oflc.domain import RANGES
from oflc.errors import DegenerateBError, ValidationError
from oflc.linearization import compute_terms
from oflc.loop import (CONTROLLERS, ControlFrame, ControllerSettings, TorqueController, closed_loop_tf_check,
                       composed_control_law, control_law)
from oflc.optimizer import B_DEGENERATE, LAMBDA_FALLBACK, U_CLAMPED, Z_AT_LIMIT, Z_ZEROED
from oflc.profiles import ConstantProfile, StepProfile
from oflc.sim import Scenario, run_continuous


def _reference_control_law(i, omega, u_raw, params, v_max, horizon, smoothing):
    """The control law on numpy arrays, written independently of the package.

    b and phi from their formulas, A = (u - phi) Lambda + Gamma from the
    matrix expressions, lambda by np.linalg.solve, and z from an explicit
    projection matrix and np.linalg.norm.  Returns (v, lam, z, flags).
    """
    i_d, i_q = i
    R, L_d, L_q, psi, p, eta = params.R, params.L_d, params.L_q, params.psi, params.p, params.eta
    L_inv = np.diag([1.0 / L_d, 1.0 / L_q])
    c = 1.5 * p / R
    b = np.array([-c * eta * L_q * i_q, c * (psi - eta * L_d * i_d)])
    b2 = float(b @ b)
    # the textbook q drift -R i_q - omega (L_d i_d + psi) (Krause et al., Analysis of Electric Machinery)
    phi = (1.5 * p * (omega / R) * (eta * L_d**2 * i_d**2 - eta * L_q**2 * i_q**2 + (L_q - 2.0 * L_d) * psi * i_d
                                    - psi**2)
           + 1.5 * p * eta * L_q * i_d * i_q)
    flags = 0
    b_norm = np.linalg.norm(b)
    u = min(max(u_raw, phi - b_norm * v_max), phi + b_norm * v_max)
    if u != u_raw:
        flags |= U_CLAMPED
    G = np.array([[0.0, -c * eta * L_q], [-c * eta * L_d, 0.0]])  # db/di
    Lam = -L_inv @ (G / b2 - 2.0 * np.outer(b, G.T @ b) / b2**2)
    dphi = 1.5 * p * np.array([(omega / R) * (2.0 * eta * L_d**2 * i_d + (L_q - 2.0 * L_d) * psi) + eta * L_q * i_q,
                               -2.0 * (omega / R) * eta * L_q**2 * i_q + eta * L_q * i_d])
    dh = np.array([[-R, L_q * omega], [-L_d * omega, -R]])
    A = (u - phi) * Lam + L_inv @ (np.outer(b / b2, dphi) - dh)
    M = np.eye(2) / horizon + A.T
    if np.linalg.cond(M) > optimizer.COND_LIMIT:
        lam = 2.0 * horizon * np.asarray(i)
        flags |= LAMBDA_FALLBACK
    else:
        lam = 2.0 * np.linalg.solve(M, i)
    z_max = 0.0 if flags & U_CLAMPED else np.sqrt(max(v_max**2 - (u - phi)**2 / b2, 0.0))
    d = (np.eye(2) - np.outer(b, b) / b2) @ (L_inv @ lam)
    if smoothing > 0.0:
        z = -z_max * d / np.sqrt(d @ d + smoothing**2)
        flags |= Z_ZEROED if z_max <= 0.0 else 0
    elif np.linalg.norm(d) < optimizer.EPS_D or z_max <= 0.0:
        z = np.zeros(2)
        flags |= Z_ZEROED
    else:
        z = -z_max * d / np.linalg.norm(d)
        flags |= Z_AT_LIMIT
    return b / b2 * (u - phi) + z, lam, z, flags


@pytest.mark.parametrize("smoothing", [0.0, 0.5])
@pytest.mark.parametrize("params", [P0, P_NS], ids=["salient", "non_salient"])
def test_control_law_matches_array_reference(rng, params, smoothing):
    flag_counts = np.zeros(5, dtype=int)
    law = control_law(params, V_MAX, 1e-3, z_smoothing=smoothing)
    for _ in range(2000):
        i, omega, _ = random_state(rng, params)
        i = tuple(i.tolist())
        u_raw = rng.uniform(-60.0, 60.0)
        v_d, v_q, _, lam_d, lam_q, z_d, z_q, flags = law(i, omega, u_raw)
        v, lam, z = (v_d, v_q), (lam_d, lam_q), (z_d, z_q)
        v_ref, lam_ref, z_ref, flags_ref = _reference_control_law(i, omega, u_raw, params, V_MAX, 1e-3, smoothing)
        assert flags == flags_ref
        for got, ref in ((v, v_ref), (lam, lam_ref), (z, z_ref)):
            assert np.linalg.norm(np.subtract(got, ref)) <= 1e-12 * np.linalg.norm(ref)
        flag_counts += [flags >> k & 1 for k in range(5)]
    # the draws hold clamped and unclamped ticks, and z at its limit unless smoothed
    assert 0 < flag_counts[0] < 2000
    assert (flag_counts[1] > 0) == (smoothing == 0.0)


def _controller(settings=ControllerSettings(kp=0.0, ki=0.0), use_z=True):
    return TorqueController(tick_scenario(P0, 1e-4, 1, v_max=V_MAX, horizon=1e-3), settings, use_z)


# at i = (0, 5) A on P0 the torque estimate is 3.0 N m exactly, and every u below lies inside the clamp band
def test_pi_feedforward_only():
    frame = _controller().step(0.0, 0.0, (0.0, 5.0), 4.0)
    assert frame.tau_est == 3.0 and frame.u_raw == 4.0


def test_pi_zero_error():
    ctrl = _controller(ControllerSettings(kp=3.0, ki=100.0))
    frame = ctrl.step(0.0, 0.0, (0.0, 5.0), 3.0)
    assert frame.u_raw == 3.0 and ctrl.integrator == 0.0


def test_pi_proportional():
    ctrl = _controller(ControllerSettings(kp=2.0, ki=0.0))
    frame = ctrl.step(0.0, 0.0, (0.0, 5.0), 3.5)
    assert frame.u_raw == pytest.approx(4.5)
    assert ctrl.integrator == pytest.approx(0.5e-4)  # the error integrates even with ki = 0


def _dq(theta, i_abc):
    """The dq currents of phase currents ``i_abc`` at shaft angle ``theta``, as floats."""
    return tuple((machine.park_matrix(theta, P0.p) @ np.asarray(i_abc)).tolist())


def test_control_step_all_zero():
    ctrl = _controller()
    frame = ctrl.step(0.0, 0.0, (0.0, 0.0), 0.0)
    np.testing.assert_allclose([frame.v_d, frame.v_q], [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose([frame.z_d, frame.z_q], [0.0, 0.0])
    np.testing.assert_allclose([frame.lambda_d, frame.lambda_q], [0.0, 0.0])
    assert frame.flags & Z_ZEROED


def test_control_step_clamped_command():
    ctrl = _controller()
    frame = ctrl.step(0.0, 100.0, (0.0, 0.0), 200.0)
    # at i = 0, omega = 100: b = (0, 1.2), phi = -12 -> u_max = 45.6
    assert frame.flags & U_CLAMPED
    assert frame.u_feasible == pytest.approx(45.6)
    np.testing.assert_allclose([frame.z_d, frame.z_q], [0.0, 0.0])
    assert np.hypot(frame.v_d, frame.v_q) == pytest.approx(V_MAX)


def _signed_log_current(rng):
    """A current drawn log-uniform in magnitude from 1 uA to 50 A, of random sign: last-bit changes of
    the law show at small magnitudes and can round away at large ones."""
    return float(np.copysign(10.0 ** rng.uniform(-6.0, np.log10(50.0)), rng.uniform(-1.0, 1.0)))


# 1e-160 overflows |I/h|_F^2 in the costate solve, which forces the lambda fallback
HORIZONS = (1e-3, 10.0, 1e-160)
# a scenario's horizons, the default and the ends of its range
DOMAIN_HORIZONS = (1e-3, *RANGES["horizon"][:2])
# (i, omega, tau_ref) of a tick whose costate matrix M = I/h + A^T is singular on P0 at the 1 s horizon, with u
# clamped to the top of its band: the lambda fallback inside the domain
SINGULAR_TICK = ((16.435402478574517, -27.62559434833556), 147.1662177920912, 1e9)
ALL_FLAGS = U_CLAMPED | Z_AT_LIMIT | Z_ZEROED | B_DEGENERATE | LAMBDA_FALLBACK


def test_control_law_equals_step_composition(rng):
    seen = 0
    for params in (P0, P_NS):
        for horizon in HORIZONS:
            for smoothing in (0.0, 0.5):
                for use_z in (True, False):
                    for _ in range(300):
                        i = (_signed_log_current(rng), _signed_log_current(rng))
                        args = (i, rng.uniform(-300.0, 300.0), rng.uniform(-80.0, 80.0), params, V_MAX, horizon,
                                rng.uniform(0.1, 1.0), use_z, smoothing)
                        got = control_law(*args[3:])(*args[:3])
                        assert got == composed_control_law(*args)
                        seen |= got[-1]
    assert seen == ALL_FLAGS & ~B_DEGENERATE
    # i_d = psi/(eta L_d) = 50, i_q = 0 makes b vanish
    with pytest.raises(DegenerateBError):
        control_law(P0, V_MAX, 1e-3)((50.0, 0.0), 100.0, 6.0)
    with pytest.raises(DegenerateBError):
        composed_control_law((50.0, 0.0), 100.0, 6.0, P0, V_MAX, 1e-3)


def _outcome(law, *args):
    """The type and ``float.hex`` (an int's repr) of each value ``law(*args)`` returns, or its error's type and
    message."""
    try:
        return [(type(x), float.hex(x) if isinstance(x, float) else repr(x)) for x in law(*args)]
    except Exception as exc:  # DegenerateBError, or what the Python law raises on its input
        return type(exc), str(exc)


@st.composite
def _law_calls(draw):
    """(a law's arguments, one call's arguments) on drawn machines and states: at any u, at a clamped u, at b's
    degenerate point i = (psi/(L_q - L_d), 0), with one input not finite, or one an int, a numpy.float64 or i_dq a
    list."""
    params = draw(MACHINES | st.just(P0))
    run = (params, draw(within("v_max")), draw(within("horizon")), draw(within("alpha_z")), draw(st.booleans()),
           draw(st.just(0.0) | within("z_smoothing")))
    state = [*draw(st.tuples(*[st.floats(-1e4, 1e4)] * 2)), draw(st.floats(-1e5, 1e5)), draw(st.floats(-1e6, 1e6))]
    kind = draw(st.sampled_from(("state", "clamped", "degenerate", "non-finite", "int", "numpy", "list")))
    if kind == "clamped":
        try:
            terms = compute_terms(state[:2], state[2], params)
        except DegenerateBError:
            pass
        else:
            edge = terms.b_norm * run[1] * draw(st.sampled_from((1.0, 1.5, 1e3)))
            state[3] = terms.phi + draw(st.sampled_from((edge, -edge)))
    elif kind == "degenerate" and params.L_q != params.L_d:
        state[:2] = params.psi / (params.L_q - params.L_d), 0.0
    elif kind in ("non-finite", "int", "numpy"):
        k = draw(st.integers(0, 3))
        state[k] = {"non-finite": draw(st.sampled_from((math.nan, math.inf, -math.inf))),
                    "int": draw(st.integers(-100, 100)), "numpy": np.float64(state[k])}[kind]
    i_dq = list if kind == "list" else tuple
    return run, (i_dq(state[:2]), *state[2:])


@pytest.mark.skipif(not COMPILER, reason="no compiled module: the Python law runs alone")
@given(_law_calls())
@example(((P0, V_MAX, 1e-3, 1.0, True, 0.0), ((50.0, 0.0), 100.0, 6.0)))  # b vanishes
@example(((P0, V_MAX, 1e-3, 1.0, True, 0.0), ((3.0, -4.0), 200.0, 1e9)))  # clamped
@example(((P_NS, V_MAX, 1e-3, 0.5, False, 0.0), ((3.0, -4.0), math.nan, 2.0)))
@example(((P0, V_MAX, 1e-3, 1.0, True, 0.3), ([3.0, -4.0], 200, np.float64(2.0))))
def test_compiled_law_equals_composed_control_law(call):
    # the compiled law does composed_control_law's float operations in their order, so every call gives the same
    # bits, or the same error; a call it does not take (a degenerate b, or an input that is not an exact float) goes
    # to the Python law it holds, and only such a call.  The oracle is composed_control_law called on its own, not
    # through the held law, so a wrong binding of the run would show
    run, args = call
    law = control_law(*run)
    assert law.func is kernels.load().law
    constants, python_law = law.args
    taken = []
    seen = functools.partial(law.func, constants, lambda *a: taken.append(a) or python_law(*a))
    expected = _outcome(composed_control_law, *args, *run)
    assert _outcome(law, *args) == _outcome(seen, *args) == expected
    floats = type(args[0]) is tuple and all(type(x) is float for x in (*args[0], *args[1:]))
    assert bool(taken) == (not floats or expected[0] is DegenerateBError)


def test_control_law_equals_step_composition_at_the_clamp_edge(rng):
    # u_raw on the band edges phi -+ |b| v_max and one ulp either side, at currents up to 1e8 A, where
    # |phi| dwarfs |b| v_max and the discriminant of an unclamped u rounds below zero: z gets no budget
    # there, and the law raises nothing but DegenerateBError
    seen = rounded = 0
    for params in (P0, P_NS):
        for horizon in HORIZONS:
            for smoothing in (0.0, 0.5):
                for use_z in (True, False):
                    for _ in range(100):
                        i = tuple(float(np.copysign(10.0 ** rng.uniform(-6.0, 8.0), rng.uniform(-1.0, 1.0)))
                                  for _ in range(2))
                        omega, alpha_z = rng.uniform(-2000.0, 2000.0), rng.uniform(0.1, 1.0)
                        law = control_law(params, V_MAX, horizon, alpha_z, use_z, smoothing)
                        try:
                            terms = compute_terms(i, omega, params)
                        except DegenerateBError:
                            continue
                        for edge in (terms.phi - terms.b_norm * V_MAX, terms.phi + terms.b_norm * V_MAX):
                            for u_raw in (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)):
                                got = law(i, omega, u_raw)
                                assert got == composed_control_law(i, omega, u_raw, params, V_MAX, horizon, alpha_z,
                                                                   use_z, smoothing)
                                seen |= got[-1]
                                e = u_raw - terms.phi
                                rounded += not got[-1] & U_CLAMPED and V_MAX * V_MAX - e * e / terms.b_norm_sq < 0.0
    assert seen & U_CLAMPED and seen & Z_ZEROED
    assert rounded  # the draws reach unclamped commands whose budget rounds below zero


def test_control_law_rejects_unusable_z_smoothing():
    # 1e-170 squares to 0, so s / sqrt(s^2 + smoothing^2) divides by zero at s = 0; nan and negative
    # values would select the exact rule unnoticed
    for value in (1e-170, math.nan, -0.5, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="^z_smoothing: "):
            control_law(P0, V_MAX, 1e-3, z_smoothing=value)
    with pytest.raises(ValidationError, match="^z_smoothing: "):
        run_continuous(P0, V_MAX, ConstantProfile(1.0), ConstantProfile(0.0), 1e-4, 1e-5, z_smoothing=1e-170)
    # each accepted width builds the law it names
    state = ((3.0, -4.0), 200.0, 2.0)
    for value in (0.0, -0.0, 1e-6, 0.5, 1e6):
        assert control_law(P0, V_MAX, 1e-3, z_smoothing=value)(*state) == composed_control_law(
            *state, P0, V_MAX, 1e-3, z_smoothing=value)


def test_control_step_replay_is_bit_identical(rng):
    # each tick against machine.torque, the PI update and the step-function composition, with the
    # controller's integrator and held voltage tracked alongside; each controller draws its own
    # settings and tick, which it binds at construction
    seen = 0
    for params in (P0, P_NS):
        for horizon in DOMAIN_HORIZONS:
            for use_z in (True, False):
                settings = ControllerSettings(kp=rng.uniform(0.0, 20.0), ki=rng.uniform(0.0, 2000.0),
                                              alpha_z=rng.uniform(0.1, 1.0))
                dt = 10.0 ** rng.uniform(-5.0, -3.0)
                ctrl = TorqueController(tick_scenario(params, dt, 1, v_max=V_MAX, horizon=horizon), settings, use_z)
                integrator, v_prev = 0.0, (0.0, 0.0)
                for k in range(200):
                    i_d, i_q = (50.0, 0.0) if k % 50 == 49 else (_signed_log_current(rng), _signed_log_current(rng))
                    t, omega, tau_ref = k * dt, rng.uniform(-300.0, 300.0), rng.uniform(-60.0, 60.0)
                    if k == 100:
                        (i_d, i_q), omega, tau_ref = SINGULAR_TICK
                    frame = ctrl.step(t, omega, (i_d, i_q), tau_ref)

                    tau_est = machine.torque((i_d, i_q), params)
                    e = tau_ref - tau_est
                    integ_next = integrator + e * dt
                    u_raw = tau_ref + settings.kp * e + settings.ki * integ_next
                    try:
                        v_d, v_q, u, lam_d, lam_q, z_d, z_q, flags = composed_control_law(
                            (i_d, i_q), omega, u_raw, params, V_MAX, horizon, settings.alpha_z, use_z)
                        v, lam, z = (v_d, v_q), (lam_d, lam_q), (z_d, z_q)
                    except DegenerateBError:
                        v, u, lam, z, flags = v_prev, u_raw, (0.0, 0.0), (0.0, 0.0), B_DEGENERATE
                    else:
                        if not flags & U_CLAMPED:
                            integrator = integ_next
                        v_prev = v
                    p_copper = 1.5 * params.R * (i_d * i_d + i_q * i_q)
                    assert frame == ControlFrame(t, i_d, i_q, *v, tau_ref, tau_est, u_raw, u, omega, *z, *lam,
                                                 p_copper, flags)
                    assert ctrl.integrator == integrator
                    seen |= flags
    assert seen == ALL_FLAGS
    for horizon in HORIZONS[1:]:
        with pytest.raises(ValidationError, match="^horizon: must be in "):
            tick_scenario(P0, 1e-4, 1, horizon=horizon)


def test_control_step_deterministic():
    a = _controller(settings=ControllerSettings())
    b = _controller(settings=ControllerSettings())
    for k in range(20):
        i_dq = _dq(0.1 * k, (1.0, -0.2, -0.8))
        fa = a.step(k * 1e-4, 50.0, i_dq, 2.0)
        fb = b.step(k * 1e-4, 50.0, i_dq, 2.0)
        assert fa == fb


def _held(x):
    """``x`` and, recursively, the arguments and keywords it binds as a partial and its closure cells."""
    yield x
    for y in (*getattr(x, "args", ()), *getattr(x, "keywords", {}).values(),
              *(cell.cell_contents for cell in getattr(x, "__closure__", None) or ())):
        yield from _held(y)


def test_controllers_hold_no_scenario_or_settings():
    # each controller reads its run once, at construction: none of its attributes, the members of its tuples, or
    # what any of these binds (a compiled law holds the Python law, which binds the run by keyword) is the scenario
    # or the settings
    scenario, settings = tick_scenario(P0, 1e-4, 1), ControllerSettings()
    for name, build in CONTROLLERS.items():
        held = []
        for value in vars(build(scenario, settings)).values():
            for member in value if isinstance(value, tuple) else (value,):
                held += _held(member)
        assert not [x for x in held if isinstance(x, (Scenario, ControllerSettings))], name


def test_torque_channel_isolation():
    # b^T v_dq is the same with and without z
    on = _controller(use_z=True)
    off = _controller(use_z=False)
    i_dq = _dq(0.2, (5.0, -2.0, -3.0))
    frame_on = on.step(0.0, 120.0, i_dq, 3.0)
    frame_off = off.step(0.0, 120.0, i_dq, 3.0)
    terms = compute_terms((frame_on.i_d, frame_on.i_q), 120.0, P0)
    b_dot_v = [float(np.dot((terms.b_d, terms.b_q), (f.v_d, f.v_q))) for f in (frame_on, frame_off)]
    assert b_dot_v[0] == pytest.approx(b_dot_v[1], rel=1e-12)


def test_anti_windup_bounds_integrator():
    ctrl = _controller(settings=ControllerSettings(kp=5.0, ki=500.0))
    integs = []
    for k in range(500):
        ctrl.step(k * 1e-4, 0.0, (0.0, 0.0), 500.0)  # far beyond feasible
        integs.append(ctrl.integrator)
    assert max(np.abs(integs)) <= 1.0  # frozen, not winding up


def test_degenerate_b_holds_previous_voltage():
    ctrl = _controller()
    good = ctrl.step(0.0, 100.0, (0.0, 0.0), 6.0)
    # i_d = psi/(eta L_d) = 50, i_q = 0 makes b vanish
    frame = ctrl.step(1e-4, 100.0, (50.0, 0.0), 6.0)
    assert frame.flags & B_DEGENERATE
    assert (frame.v_d, frame.v_q) == (good.v_d, good.v_q)


def test_step_response_first_order():
    mu = P0.mu
    run = run_continuous(P0, V_MAX, StepProfile(0.0, 6.0, 0.0), ConstantProfile(0.0),
                         5.0 * mu, 2e-5, z_smoothing=0.5)
    k = round(mu / 2e-5)
    assert run.tau[k] == pytest.approx(6.0 * (1.0 - np.exp(-1.0)), rel=1e-3)
    mu_hat = closed_loop_tf_check(run.t, run.tau, 6.0)
    assert mu_hat == pytest.approx(mu, rel=0.01)


def test_tf_check_rejects_non_first_order():
    from oflc.errors import PoorFitError

    t = np.linspace(0.0, 0.05, 200)
    first_order = 6.0 * (1.0 - np.exp(-t / 0.01))
    wiggly = first_order + 1.5 * np.sin(2 * np.pi * 900 * t)
    flat = np.full_like(t, 6.0)  # already at u_final: no sample determines mu
    with_nan = np.where(t == t[50], np.nan, first_order)
    still = np.zeros_like(t)  # never leaves tau0: the fit gives mu_hat = -inf with a zero residual
    for tau in (wiggly, flat, with_nan, still):
        with pytest.raises(PoorFitError):
            closed_loop_tf_check(t, tau, 6.0)
