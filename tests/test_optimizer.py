import numpy as np
import pytest

from conftest import P0, P_NS, random_state
from oflc import optimizer
from oflc.errors import DegenerateBError, NegativeDiscriminantError
from oflc.linearization import compute_terms
from oflc.machine import h_vector


def test_dh_di_value():
    omega = 123.0
    np.testing.assert_allclose(
        optimizer.dh_di(omega, P0),
        [[-0.5, 0.005 * omega], [0.003 * omega, -0.5]],
    )


def test_lambda_zero_for_non_salient():
    terms = compute_terms((3.0, -7.0), 100.0, P_NS)
    np.testing.assert_allclose(optimizer.lambda_matrix(terms, P_NS), np.zeros((2, 2)))


def _fd_jacobian_of_f(i, omega, u, params, eps=1e-5):
    A_fd = np.empty((2, 2))
    for j in range(2):
        dv = np.zeros(2)
        dv[j] = eps
        fp = optimizer.current_dynamics(i + dv, omega, u, np.zeros(2), params)
        fm = optimizer.current_dynamics(i - dv, omega, u, np.zeros(2), params)
        A_fd[:, j] = -(fp - fm) / (2.0 * eps)
    return A_fd


def test_A_matches_negative_jacobian(rng):
    for _ in range(200):
        i, omega, terms = random_state(rng, P0)
        u = rng.uniform(-20, 20)
        mats = optimizer.costate_matrices(i, omega, u, terms, P0)
        A_fd = _fd_jacobian_of_f(i, omega, u, P0)
        assert np.linalg.norm(mats.A - A_fd) <= 1e-5 * max(np.linalg.norm(mats.A), 1.0)


def test_gradient_blocks_match_finite_differences(rng):
    eps = 1e-6
    for _ in range(100):
        i, omega, terms = random_state(rng, P0)
        dphi_fd = np.empty(2)
        dh_fd = np.empty((2, 2))
        for j in range(2):
            dv = np.zeros(2)
            dv[j] = eps
            dphi_fd[j] = (compute_terms(i + dv, omega, P0).phi - compute_terms(i - dv, omega, P0).phi) / (2 * eps)
            dh_fd[:, j] = (h_vector(i + dv, omega, P0) - h_vector(i - dv, omega, P0)) / (2 * eps)
        dphi = optimizer.dphi_di(i, omega, P0)
        assert np.linalg.norm(dphi - dphi_fd) <= 1e-6 * max(np.linalg.norm(dphi), 1.0)
        dh = optimizer.dh_di(omega, P0)
        assert np.linalg.norm(dh - dh_fd) <= 1e-6 * max(np.linalg.norm(dh), 1.0)


def test_estimate_costate_values():
    lam, fb = optimizer.estimate_costate((1.0, 2.0), np.zeros((2, 2)), 0.01)
    np.testing.assert_allclose(lam, [0.02, 0.04])
    assert not fb

    lam, fb = optimizer.estimate_costate((0.0, 0.0), np.array([[3.0, 1.0], [0.5, -2.0]]), 0.01)
    np.testing.assert_allclose(lam, [0.0, 0.0])
    assert not fb

    lam, fb = optimizer.estimate_costate((1.0, 0.0), np.diag([-50.0, -50.0]), 0.01)
    np.testing.assert_allclose(lam, [0.04, 0.0])
    assert not fb


def test_estimate_costate_fallback_on_singular():
    h = 0.01
    A = -np.eye(2) / h  # makes I/h + A^T singular
    lam, fb = optimizer.estimate_costate((1.0, 2.0), A, h)
    assert fb
    np.testing.assert_allclose(lam, [0.02, 0.04])  # 2 h i


def test_estimate_costate_linear_in_i(rng):
    A = rng.uniform(-50, 50, (2, 2))
    i = rng.uniform(-10, 10, 2)
    lam1, _ = optimizer.estimate_costate(i, A, 0.01)
    lam3, _ = optimizer.estimate_costate(3.0 * i, A, 0.01)
    np.testing.assert_allclose(lam3, 3.0 * lam1, rtol=1e-12)


def test_projection_values():
    np.testing.assert_allclose(optimizer.projection((0.0, 1.2)), [[1.0, 0.0], [0.0, 0.0]])
    np.testing.assert_allclose(optimizer.projection((1.0, 1.0)), [[0.5, -0.5], [-0.5, 0.5]])


def test_projection_properties(rng):
    for _ in range(100):
        b = rng.uniform(-5, 5, 2)
        if np.linalg.norm(b) < 1e-3:
            continue
        B = optimizer.projection(b)
        assert np.linalg.norm(B @ b) <= 1e-12 * np.linalg.norm(b)
        np.testing.assert_allclose(B @ B, B, atol=1e-14)
        np.testing.assert_allclose(B.T, B)
    with pytest.raises(DegenerateBError):
        optimizer.projection((0.0, 0.0))


def _terms_b012_phi_m12():
    return compute_terms((0.0, 0.0), 100.0, P0)  # b = (0, 1.2), phi = -12


def test_clamp_torque_command():
    terms = _terms_b012_phi_m12()
    u, rep = optimizer.clamp_torque_command(6.0, terms, 48.0)
    assert u == 6.0 and not rep.u_clamped
    u, rep = optimizer.clamp_torque_command(100.0, terms, 48.0)
    assert u == pytest.approx(45.6) and rep.u_clamped and rep.u_raw == 100.0
    u, rep = optimizer.clamp_torque_command(-100.0, terms, 48.0)
    assert u == pytest.approx(-69.6) and rep.u_clamped


def test_z_limit():
    terms = _terms_b012_phi_m12()
    assert optimizer.z_limit(6.0, terms, 48.0) == pytest.approx(np.sqrt(2304.0 - 225.0))
    assert optimizer.z_limit(45.6, terms, 48.0) == pytest.approx(0.0, abs=1e-6)
    assert optimizer.z_limit(-12.0, terms, 48.0) == pytest.approx(48.0)
    with pytest.raises(NegativeDiscriminantError):
        optimizer.z_limit(100.0, terms, 48.0)


def test_optimal_z_values():
    B = optimizer.projection((0.0, 1.2))
    L_inv = np.diag([1.0 / 0.003, 1.0 / 0.005])
    z, rep = optimizer.optimal_z((0.0, 0.0), B, L_inv, 10.0)
    np.testing.assert_allclose(z, [0.0, 0.0])
    assert rep.z_zeroed and not rep.z_at_limit

    z, rep = optimizer.optimal_z((0.03, 0.04), B, L_inv, 10.0)
    np.testing.assert_allclose(z, [-10.0, 0.0])
    assert rep.z_at_limit and not rep.z_zeroed

    z, rep = optimizer.optimal_z((0.03, 0.04), B, L_inv, 0.0)
    assert rep.z_zeroed and np.all(z == 0.0)


def test_optimal_z_orthogonality(rng):
    for smoothing in (0.0, 0.5):
        for _ in range(1000):
            i, omega, terms = random_state(rng, P0)
            lam = rng.uniform(-1, 1, 2)
            B = optimizer.projection(terms.b)
            z, _ = optimizer.optimal_z(lam, B, P0.L_inv, 10.0, smoothing=smoothing)
            zn = np.linalg.norm(z)
            assert zn <= 10.0 * (1.0 + 1e-12)
            if zn > 0.0:
                assert abs(float(terms.b @ z)) <= 1e-10 * np.sqrt(terms.b_norm_sq) * zn


def test_optimal_z_minimizes_hamiltonian(rng):
    # brute-force 1-D oracle over the admissible segment
    for _ in range(300):
        i, omega, terms = random_state(rng, P0)
        u, _ = optimizer.clamp_torque_command(rng.uniform(-30, 30), terms, 48.0)
        z_max = optimizer.z_limit(u, terms, 48.0)
        B = optimizer.projection(terms.b)
        mats = optimizer.costate_matrices(i, omega, u, terms, P0)
        lam, _ = optimizer.estimate_costate(i, mats.A, 1e-3)
        z_star, _ = optimizer.optimal_z(lam, B, P0.L_inv, z_max)
        h_star = optimizer.hamiltonian(i, lam, u, z_star, terms, omega, P0)
        n = np.array([-terms.b[1], terms.b[0]]) / np.sqrt(terms.b_norm_sq)
        best = min(
            optimizer.hamiltonian(i, lam, u, s * n, terms, omega, P0)
            for s in np.linspace(-z_max, z_max, 201)
        )
        assert h_star <= best + 1e-6 * max(1.0, abs(best))


def test_hamiltonian_basics(rng):
    terms = _terms_b012_phi_m12()
    assert optimizer.hamiltonian((0.0, 0.0), (0.0, 0.0), 6.0, (3.0, 0.0), terms, 100.0, P0) == 0.0
    # affine in z
    i, omega, terms = random_state(rng, P0)
    lam = rng.uniform(-1, 1, 2)
    z1 = rng.uniform(-10, 10, 2)
    z2 = rng.uniform(-10, 10, 2)
    dh = (optimizer.hamiltonian(i, lam, 3.0, z1, terms, omega, P0)
          - optimizer.hamiltonian(i, lam, 3.0, z2, terms, omega, P0))
    assert dh == pytest.approx(float(lam @ (P0.L_inv @ (np.asarray(z1) - np.asarray(z2)))), rel=1e-9, abs=1e-12)


def test_printed_lambda_is_close_for_small_saliency():
    # the published compact Lambda assumes the printed b_d; for weak
    # saliency the two agree to first order
    P_weak = type(P0)(R=0.5, L_d=4e-3, L_q=4.04e-3, psi=0.1, p=4)
    terms = compute_terms((2.0, 5.0), 100.0, P_weak)
    lam_derived = optimizer.lambda_matrix(terms, P_weak)
    lam_printed = optimizer.printed_lambda_matrix(terms, P_weak)
    # same leading scale; exact agreement is not expected (see module docs)
    assert np.linalg.norm(lam_printed) == pytest.approx(np.linalg.norm(lam_derived), rel=0.2)
