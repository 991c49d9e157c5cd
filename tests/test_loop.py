import numpy as np
import pytest

from conftest import P0, V_MAX
from oflc import machine, optimizer
from oflc.linearization import compute_terms, linearize
from oflc.loop import PiGains, TorqueController, closed_loop_tf_check, pi_update
from oflc.optimizer import B_DEGENERATE, U_CLAMPED, Z_ZEROED
from oflc.profiles import ConstantProfile, StepProfile
from oflc.sim import run_continuous


def test_pi_update_feedforward_only():
    u, _ = pi_update(4.0, 1.0, PiGains(kp=0.0, ki=0.0), 1e-4)
    assert u == 4.0


def test_pi_update_zero_error():
    u, integ = pi_update(4.0, 4.0, PiGains(kp=3.0, ki=100.0), 1e-4)
    assert u == 4.0
    assert integ == 0.0


def test_pi_update_proportional():
    u, _ = pi_update(4.0, 3.5, PiGains(kp=2.0, ki=0.0), 1e-4)
    assert u == pytest.approx(5.0)


def _controller(**kw):
    args = dict(params=P0, v_max=V_MAX, dt_ctrl=1e-4, horizon=1e-3,
                gains=PiGains(kp=0.0, ki=0.0))
    args.update(kw)
    return TorqueController(**args)


def test_control_step_all_zero():
    ctrl = _controller()
    frame = ctrl.step(0.0, 0.0, 0.0, (0.0, 0.0, 0.0), 0.0)
    np.testing.assert_allclose([frame.v_d, frame.v_q], [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose([frame.z_d, frame.z_q], [0.0, 0.0])
    np.testing.assert_allclose([frame.lambda_d, frame.lambda_q], [0.0, 0.0])
    assert frame.flags & Z_ZEROED


def test_control_step_clamped_command():
    ctrl = _controller()
    frame = ctrl.step(0.0, 0.0, 100.0, (0.0, 0.0, 0.0), 200.0)
    # at i = 0, omega = 100: b = (0, 1.2), phi = -12 -> u_max = 45.6
    assert frame.flags & U_CLAMPED
    assert frame.u_feasible == pytest.approx(45.6)
    np.testing.assert_allclose([frame.z_d, frame.z_q], [0.0, 0.0])
    assert np.hypot(frame.v_d, frame.v_q) == pytest.approx(V_MAX)


def test_control_step_replay_is_bit_identical():
    ctrl = _controller()
    theta, omega, i_abc, tau_ref = 0.3, 150.0, (4.0, -1.5, -2.5), 3.0
    frame = ctrl.step(0.0, theta, omega, i_abc, tau_ref)

    # replay through the individual module operations
    i_dq = machine.park_clarke(theta, i_abc, P0)
    terms = compute_terms(i_dq, omega, P0)
    u_f, _ = optimizer.clamp_torque_command(tau_ref, terms, V_MAX)
    mats = optimizer.costate_matrices(i_dq, omega, u_f, terms, P0)
    lam, _ = optimizer.estimate_costate(i_dq, mats.A, 1e-3)
    z_max = optimizer.z_limit(u_f, terms, V_MAX)
    B = optimizer.projection(terms.b)
    z, _ = optimizer.optimal_z(lam, B, P0.L_inv, z_max)
    v_dq = linearize(u_f, z, terms)

    assert [frame.i_d, frame.i_q] == i_dq.tolist()
    assert frame.u_feasible == u_f
    assert [frame.lambda_d, frame.lambda_q] == lam.tolist()
    assert [frame.z_d, frame.z_q] == z.tolist()
    assert [frame.v_d, frame.v_q] == v_dq.tolist()


def test_control_step_deterministic():
    a = _controller(gains=PiGains())
    b = _controller(gains=PiGains())
    for k in range(20):
        fa = a.step(k * 1e-4, 0.1 * k, 50.0, (1.0, -0.2, -0.8), 2.0)
        fb = b.step(k * 1e-4, 0.1 * k, 50.0, (1.0, -0.2, -0.8), 2.0)
        assert fa == fb


def test_torque_channel_isolation():
    # b^T v_dq is the same with and without z
    on = _controller(use_z=True)
    off = _controller(use_z=False)
    frame_on = on.step(0.0, 0.2, 120.0, (5.0, -2.0, -3.0), 3.0)
    frame_off = off.step(0.0, 0.2, 120.0, (5.0, -2.0, -3.0), 3.0)
    terms = compute_terms((frame_on.i_d, frame_on.i_q), 120.0, P0)
    b_dot_v = [float(terms.b @ (f.v_d, f.v_q)) for f in (frame_on, frame_off)]
    assert b_dot_v[0] == pytest.approx(b_dot_v[1], rel=1e-12)


def test_anti_windup_bounds_integrator():
    gains = PiGains(kp=5.0, ki=500.0)
    ctrl = _controller(gains=gains)
    integs = []
    for k in range(500):
        ctrl.step(k * 1e-4, 0.0, 0.0, (0.0, 0.0, 0.0), 500.0)  # far beyond feasible
        integs.append(gains.integrator)
    assert max(np.abs(integs)) <= 1.0  # frozen, not winding up


def test_degenerate_b_holds_previous_voltage():
    ctrl = _controller()
    good = ctrl.step(0.0, 0.0, 100.0, (0.0, 0.0, 0.0), 6.0)
    # i_d = psi/(eta L_d) = 50, i_q = 0 makes b vanish; abc for that dq at theta=0
    i_abc = machine.inverse_park_clarke(0.0, (50.0, 0.0), P0)
    frame = ctrl.step(1e-4, 0.0, 100.0, i_abc, 6.0)
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


def test_step_response_independent_of_z():
    mu = P0.mu
    kw = dict(duration=5.0 * mu, dt=2e-5)
    on = run_continuous(P0, V_MAX, StepProfile(0.0, 6.0, 0.0), ConstantProfile(0.0),
                        z_smoothing=0.5, **kw)
    off = run_continuous(P0, V_MAX, StepProfile(0.0, 6.0, 0.0), ConstantProfile(0.0),
                         use_z=False, **kw)
    assert np.abs(on.tau - off.tau).max() <= 1e-6


def test_tf_check_rejects_non_first_order():
    from oflc.errors import PoorFitError

    t = np.linspace(0.0, 0.05, 200)
    wiggly = 6.0 * (1.0 - np.exp(-t / 0.01)) + 1.5 * np.sin(2 * np.pi * 900 * t)
    with pytest.raises(PoorFitError):
        closed_loop_tf_check(t, wiggly, 6.0)
