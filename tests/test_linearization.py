import numpy as np
import pytest

from conftest import P0, random_state
from oflc.errors import DegenerateBError, OrthogonalityViolation
from oflc.linearization import compute_terms, linearize, torque_rate_identity_residual, voltage
from oflc.machine import torque
from oflc.sim import run_open_loop


def test_b_at_origin():
    terms = compute_terms((0.0, 0.0), 0.0, P0)
    np.testing.assert_allclose((terms.b_d, terms.b_q), [0.0, 1.2])
    assert terms.b_norm_sq == pytest.approx(1.44)


def test_phi_at_origin():
    assert compute_terms((0.0, 0.0), 0.0, P0).phi == 0.0
    assert compute_terms((0.0, 0.0), 100.0, P0).phi == pytest.approx(-12.0)


def test_degenerate_b_raises():
    # b_q vanishes at i_d = psi / (eta L_d), b_d at i_q = 0
    i_d = P0.psi / (P0.eta * P0.L_d)
    with pytest.raises(DegenerateBError):
        compute_terms((i_d, 0.0), 50.0, P0)


def test_linearize_values():
    terms = compute_terms((0.0, 0.0), 100.0, P0)  # b = (0, 1.2), phi = -12
    np.testing.assert_allclose(linearize(-12.0, (0.0, 0.0), terms), [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(linearize(6.0, (0.0, 0.0), terms), [0.0, 15.0])
    np.testing.assert_allclose(linearize(6.0, (3.0, 0.0), terms), [3.0, 15.0])


def test_linearize_rejects_non_orthogonal_z():
    terms = compute_terms((0.0, 0.0), 100.0, P0)
    with pytest.raises(OrthogonalityViolation):
        linearize(6.0, (0.0, 2.0), terms)


def test_orthogonal_decomposition(rng):
    # b^T v = u - phi regardless of the admissible z
    for _ in range(200):
        i, omega, terms = random_state(rng, P0)
        u = rng.uniform(-30, 30)
        n = np.array([-terms.b_q, terms.b_d]) / np.sqrt(terms.b_norm_sq)
        z = rng.uniform(-20, 20) * n
        v = linearize(u, z, terms)
        assert v == voltage(u, z, terms)  # the checked map is the one formula, bit for bit
        assert float(np.dot((terms.b_d, terms.b_q), v)) == pytest.approx(u - terms.phi, abs=1e-9 * max(1.0, abs(u - terms.phi)))


def test_phi_affine_in_omega(rng):
    for _ in range(50):
        i = rng.uniform(-20, 20, 2)
        try:
            p0 = compute_terms(i, 0.0, P0).phi
            p1 = compute_terms(i, 123.0, P0).phi
            p2 = compute_terms(i, 246.0, P0).phi
        except DegenerateBError:
            continue
        assert p2 - p0 == pytest.approx(2.0 * (p1 - p0), rel=1e-12, abs=1e-9)


def _open_loop_trajectory(dt=1e-6, duration=2e-3, omega=150.0):
    def v_fn(t):
        return np.array([5.0 * np.sin(2.0 * np.pi * 300.0 * t),
                         8.0 * np.cos(2.0 * np.pi * 200.0 * t)])

    ts, traj = run_open_loop(P0, v_fn, lambda t: omega, (1.0, 2.0), duration, dt)
    return ts, traj, v_fn, omega


def test_identity_residual_on_trajectory():
    dt = 1e-6
    ts, traj, v_fn, omega = _open_loop_trajectory(dt=dt)
    for k in range(1, len(ts) - 1, 7):
        res = torque_rate_identity_residual(traj[k - 1], traj[k], traj[k + 1],
                                            v_fn(ts[k]), omega, dt, P0)
        tau = torque(traj[k], P0)
        assert abs(res) <= 1e-3 * max(1.0, abs(tau))


def test_printed_b_d_variant_fails_identity():
    # the discriminating test between the two b_d derivations
    dt = 1e-6
    ts, traj, v_fn, omega = _open_loop_trajectory(dt=dt)
    derived, printed = [], []
    for k in range(1, len(ts) - 1, 7):
        args = (traj[k - 1], traj[k], traj[k + 1], v_fn(ts[k]), omega, dt, P0)
        derived.append(abs(torque_rate_identity_residual(*args)))
        printed.append(abs(torque_rate_identity_residual(*args, printed_b_d=True)))
    assert max(derived) <= max(printed)
    assert max(printed) > 100.0 * max(derived)


def test_equilibrium_residual_zero():
    # constant-current equilibrium: v = -h keeps di/dt = 0, tau_dot = 0
    from oflc.machine import voltage_drift

    i = np.array([2.0, 5.0])
    omega = 80.0
    v = -np.array(voltage_drift(i, omega, P0))
    res = torque_rate_identity_residual(i, i, i, v, omega, 1e-6, P0)
    assert abs(res) <= 1e-12
