import math

import numpy as np
import pytest

from conftest import P0, P_NS, random_state
from oflc import optimizer
from oflc.errors import NegativeDiscriminantError
from oflc.linearization import compute_terms


def test_dh_di_value():
    omega = 123.0
    np.testing.assert_allclose(
        optimizer.dh_di(omega, P0),
        [[-0.5, 0.005 * omega], [-0.003 * omega, -0.5]],  # textbook signs (Krause et al.)
    )


def _lambda_of_A(i, omega, terms, params):
    """Lambda as the slope of A = (u - phi) Lambda + Gamma in u."""
    return (np.array(optimizer.costate_matrices(i, omega, 1.0, terms, params))
            - np.array(optimizer.costate_matrices(i, omega, 0.0, terms, params)))


def test_lambda_zero_for_non_salient():
    terms = compute_terms((3.0, -7.0), 100.0, P_NS)
    np.testing.assert_allclose(_lambda_of_A((3.0, -7.0), 100.0, terms, P_NS), np.zeros((2, 2)))


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


def _rotation(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def _costate_fallback(M, i=(1.0, 2.0)):
    """estimate_costate's fallback flag for the solve matrix M: with h = inf, I/h + A^T is A^T exactly."""
    (m_dd, m_dq), (m_qd, m_qq) = np.asarray(M, dtype=float).tolist()  # floats: numpy scalars warn on inf * 0
    return bool(optimizer.estimate_costate(i, ((m_dd, m_qd), (m_dq, m_qq)), math.inf)[1])


def test_costate_fallback_matches_condition_number(rng):
    limit = optimizer.COND_LIMIT
    # seeded random matrices, then prescribed condition numbers on both sides of COND_LIMIT
    mats = [rng.uniform(-100.0, 100.0, (2, 2)) for _ in range(200)]
    for cond in (1.0, 1e3, 1e8, limit / 10.0, limit / 2.0, limit * 2.0, limit * 10.0, 1e15):
        for _ in range(20):
            sigma = np.diag([1.0, 1.0 / cond]) * 10.0 ** rng.uniform(-3.0, 6.0)
            mats.append(_rotation(rng.uniform(0, 2 * np.pi)) @ sigma @ _rotation(rng.uniform(0, 2 * np.pi)))
    flags = [_costate_fallback(M) for M in mats]
    assert flags == [bool(np.linalg.cond(M) > limit) for M in mats]
    assert 0 < sum(flags) < len(mats)
    # singular: the fallback, as np.linalg.cond decides
    singular = [np.zeros((2, 2)), np.array([[1.0, 2.0], [2.0, 4.0]])]
    singular += [np.outer(rng.uniform(-10, 10, 2), rng.uniform(-10, 10, 2)) for _ in range(50)]
    for M in singular:
        assert _costate_fallback(M) and np.linalg.cond(M) > limit
    # |M|_F^2 overflows (or underflows to 0 with det): the fallback, though cond(M) is small
    for M in (1e200 * mats[0], 1e-200 * mats[1]):
        assert _costate_fallback(M) and np.linalg.cond(M) < limit
    # a horizon below about 1e-154 overflows |I/h|_F^2: lambda = 2 h i with the flag
    lam, fb = optimizer.estimate_costate((1.0, 2.0), ((0.0, 0.0), (0.0, 0.0)), 1e-160)
    assert fb and lam == (2e-160, 4e-160)
    # any non-finite entry: the fallback lambda = 2 h i
    for bad in (math.nan, math.inf, -math.inf):
        for k in range(4):
            M = np.eye(2)
            M.flat[k] = bad
            lam, fb = optimizer.estimate_costate((1.0, 2.0), (M - np.eye(2) / 0.01).tolist(), 0.01)
            assert fb
            np.testing.assert_allclose(lam, [0.02, 0.04])


def test_estimate_costate_linear_in_i(rng):
    A = rng.uniform(-50, 50, (2, 2))
    i = rng.uniform(-10, 10, 2)
    lam1, _ = optimizer.estimate_costate(i, A, 0.01)
    lam3, _ = optimizer.estimate_costate(3.0 * i, A, 0.01)
    np.testing.assert_allclose(lam3, 3.0 * np.asarray(lam1), rtol=1e-12)


def _terms_b012_phi_m12():
    return compute_terms((0.0, 0.0), 100.0, P0)  # b = (0, 1.2), phi = -12


def test_clamp_torque_command():
    terms = _terms_b012_phi_m12()
    u, clamped = optimizer.clamp_torque_command(6.0, terms, 48.0)
    assert u == 6.0 and not clamped
    u, clamped = optimizer.clamp_torque_command(100.0, terms, 48.0)
    assert u == pytest.approx(45.6) and clamped
    u, clamped = optimizer.clamp_torque_command(-100.0, terms, 48.0)
    assert u == pytest.approx(-69.6) and clamped


def test_z_limit():
    terms = _terms_b012_phi_m12()
    assert optimizer.z_limit(6.0, terms, 48.0) == pytest.approx(np.sqrt(2304.0 - 225.0))
    assert optimizer.z_limit(45.6, terms, 48.0) == pytest.approx(0.0, abs=1e-6)
    assert optimizer.z_limit(-12.0, terms, 48.0) == pytest.approx(48.0)
    with pytest.raises(NegativeDiscriminantError):
        optimizer.z_limit(100.0, terms, 48.0)


def test_optimal_z_values():
    terms = _terms_b012_phi_m12()  # P0's L = diag(0.003, 0.005)
    z, rep = optimizer.optimal_z((0.0, 0.0), terms, P0, 10.0)
    np.testing.assert_allclose(z, [0.0, 0.0])
    assert rep == optimizer.Z_ZEROED

    z, rep = optimizer.optimal_z((0.03, 0.04), terms, P0, 10.0)
    np.testing.assert_allclose(z, [-10.0, 0.0])
    assert rep == optimizer.Z_AT_LIMIT

    z, rep = optimizer.optimal_z((0.03, 0.04), terms, P0, 0.0)
    assert rep == optimizer.Z_ZEROED and np.all(np.asarray(z) == 0.0)


def test_optimal_z_orthogonality(rng):
    for smoothing in (0.0, 0.5):
        for _ in range(1000):
            i, omega, terms = random_state(rng, P0)
            lam = rng.uniform(-1, 1, 2)
            z, _ = optimizer.optimal_z(lam, terms, P0, 10.0, smoothing=smoothing)
            zn = np.linalg.norm(z)
            assert zn <= 10.0 * (1.0 + 1e-12)
            if zn > 0.0:
                assert abs(float(np.dot((terms.b_d, terms.b_q), z))) <= 1e-10 * np.sqrt(terms.b_norm_sq) * zn


def test_optimal_z_minimizes_hamiltonian(rng):
    # brute-force 1-D oracle over the admissible segment
    for _ in range(300):
        i, omega, terms = random_state(rng, P0)
        u, _ = optimizer.clamp_torque_command(rng.uniform(-30, 30), terms, 48.0)
        z_max = optimizer.z_limit(u, terms, 48.0)
        A = optimizer.costate_matrices(i, omega, u, terms, P0)
        lam, _ = optimizer.estimate_costate(i, A, 1e-3)
        z_star, _ = optimizer.optimal_z(lam, terms, P0, z_max)
        h_star = optimizer.hamiltonian(i, lam, u, z_star, terms, omega, P0)
        n = np.array([-terms.b_q, terms.b_d]) / np.sqrt(terms.b_norm_sq)
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
    assert dh == pytest.approx(float(lam @ ((np.asarray(z1) - np.asarray(z2)) / (P0.L_d, P0.L_q))), rel=1e-9, abs=1e-12)


def test_printed_lambda_is_close_for_small_saliency():
    # the published compact Lambda assumes the printed b_d; for weak
    # saliency the two agree to first order
    P_weak = type(P0)(R=0.5, L_d=4e-3, L_q=4.04e-3, psi=0.1, p=4)
    terms = compute_terms((2.0, 5.0), 100.0, P_weak)
    lam_derived = _lambda_of_A((2.0, 5.0), 100.0, terms, P_weak)
    lam_printed = optimizer.printed_lambda_matrix(terms, P_weak)
    # same leading scale; exact agreement is not expected (see module docs)
    assert np.linalg.norm(lam_printed) == pytest.approx(np.linalg.norm(lam_derived), rel=0.2)
