"""Per-tick Pontryagin machinery for the loss-minimizing channel z.

These step functions are the reference form of the law's middle steps
(see ``loop.control_law``): the clamp of the torque command u into its
feasible band given v_max (``clamp_torque_command``); A, the negative
Jacobian of the current dynamics under the linearizing control
(``costate_matrices``); the one-step discrete costate with zero terminal
boundary (``estimate_costate``); and z on the line perpendicular to b,
within the voltage budget u leaves (``z_limit``), at the exact pointwise
minimizer of the Hamiltonian, which is affine along it (``optimal_z``).
b^T z = 0 holds by construction.  They work on Python floats: 2-vectors
are (d, q) pairs and 2x2 matrices pairs of rows; the clamp, costate and
z steps return the trace's bits of ``FLAG_NAMES`` they raise.
``current_dynamics`` (an array, through ``machine.dq_dynamics``),
``hamiltonian`` (a float) and ``printed_lambda_matrix`` (pairs of rows)
are independent checks for the tests; the first two take their voltage
from ``linearization.voltage``, for any z.
"""

import math

from .errors import NegativeDiscriminantError
from .linearization import compute_terms, voltage
from .machine import dh_di, dq_dynamics, torque_hessian

__all__ = [
    "EPS_D",
    "COND_LIMIT",
    "FLAG_NAMES",
    "U_CLAMPED", "Z_AT_LIMIT", "Z_ZEROED", "B_DEGENERATE", "LAMBDA_FALLBACK",
    "dphi_di",
    "printed_lambda_matrix",
    "costate_matrices",
    "current_dynamics",
    "estimate_costate",
    "clamp_torque_command",
    "z_limit",
    "optimal_z",
    "hamiltonian",
]

# Below this |n^T L^-1 lambda| the optimal direction is undefined; z = 0.
EPS_D = 1e-9
# Condition-number limit for the costate solve.
COND_LIMIT = 1e12


# The per-tick flags in trace-bit order: FLAG_NAMES[k] is bit 1 << k.
FLAG_NAMES = ("u_clamped", "z_at_limit", "z_zeroed", "b_degenerate", "lambda_fallback")
U_CLAMPED, Z_AT_LIMIT, Z_ZEROED, B_DEGENERATE, LAMBDA_FALLBACK = (1 << k for k in range(len(FLAG_NAMES)))


def printed_lambda_matrix(terms, params):
    """Compact published form of Lambda, by rows; kept as a cross-check only."""
    b_d, b_q, b2 = terms.b_d, terms.b_q, terms.b_norm_sq
    coef = 1.5 * params.p * params.eta * params.L_d / (params.R * b2 * b2)
    c_d, c_q = coef / params.L_d, coef / params.L_q
    return ((c_d * (2.0 * b_d * b_q), c_d * (b_q * b_q - b_d * b_d)),
            (c_q * (b_d * b_d - b_q * b_q), c_q * (2.0 * b_d * b_q)))


def costate_matrices(i, omega, u, terms, params):
    """A = (u - phi) Lambda + Gamma, by rows.

    Lambda = -L^-1 d(b/|b|^2)/di is zero for a non-salient machine, and
    Gamma = L^-1 (b/|b|^2 dphi/di^T - dh/di) holds the chain rule on
    phi = tau + b^T h, dphi/di = grad tau + (db/di)^T h + (dh/di)^T b.
    The state enters through
    ``terms`` and ``omega``, which must be the speed ``terms`` was
    computed at; ``i`` is unused, kept for the criteria's call form.
    """
    b_d, b_q, phi, b2, _, h_d, h_q = terms
    (h_dd, h_dq), (h_qd, h_qq) = dh_di(omega, params)
    L_d, L_q, mu = params.L_d, params.L_q, params.mu
    # db/di = mu L^-1 (the Hessian of tau) = G = [[0, g_dq], [g_qd, 0]]
    t_dq = torque_hessian(params)
    g_dq, g_qd = mu / L_d * t_dq, mu / L_q * t_dq
    # the chain rule on phi = tau + b^T h, with grad tau = L b / mu
    dphi_d = L_d * b_d / mu + g_qd * h_q + h_dd * b_d + h_qd * b_q
    dphi_q = L_q * b_q / mu + g_dq * h_d + h_dq * b_d + h_qq * b_q
    # d(b/|b|^2)/di = G/|b|^2 - 2 b (G^T b)^T/|b|^4
    gb_d, gb_q = g_qd * b_q, g_dq * b_d
    w = 2.0 / (b2 * b2)
    j_dd, j_dq = -w * b_d * gb_d, g_dq / b2 - w * b_d * gb_q
    j_qd, j_qq = g_qd / b2 - w * b_q * gb_d, -w * b_q * gb_q
    e = u - phi
    c_d, c_q = b_d / b2, b_q / b2
    return (((c_d * dphi_d - h_dd - e * j_dd) / L_d, (c_d * dphi_q - h_dq - e * j_dq) / L_d),
            ((c_q * dphi_d - h_qd - e * j_qd) / L_q, (c_q * dphi_q - h_qq - e * j_qq) / L_q))


def dphi_di(i, omega, params):
    """Gradient (dphi/di_d, dphi/di_q) of phi = tau + b^T h, read off ``costate_matrices``.

    At u = phi, A is Gamma, and b^T b/|b|^2 = 1 gives
    dphi/di^T = b^T (L Gamma + dh/di).  Raises DegenerateBError where
    ``compute_terms`` does.
    """
    terms = compute_terms(i, omega, params)
    (a_dd, a_dq), (a_qd, a_qq) = costate_matrices(i, omega, terms.phi, terms, params)
    (h_dd, h_dq), (h_qd, h_qq) = dh_di(omega, params)
    b_d, b_q, L_d, L_q = terms.b_d, terms.b_q, params.L_d, params.L_q
    return (b_d * (L_d * a_dd + h_dd) + b_q * (L_q * a_qd + h_qd),
            b_d * (L_d * a_dq + h_dq) + b_q * (L_q * a_qq + h_qq))


def current_dynamics(i, omega, u, z, params):
    """di/dt under the linearizing control with torque command u and input z.

    f(i) = L^-1 (h + v) with the voltage v = b/|b|^2 (u - phi) + z; A above
    equals -df/di with u and z held fixed.
    """
    return dq_dynamics(i, voltage(u, z, compute_terms(i, omega, params)), omega, params)


def estimate_costate(i, A, horizon):
    """One-step discrete costate lambda = 2 (I/h + A^T)^-1 i, by Cramer's rule.

    Returns (lambda, flags): flags is LAMBDA_FALLBACK if M = I/h + A^T is
    ill conditioned (cond > COND_LIMIT = C), singular or not finite, and
    lambda then the A-free fallback 2 h i; otherwise 0.  A 2x2 M has
    |M|_F^2 / |det M| = cond + 1/cond, and C + 1/C rounds to C, so the
    test is one inequality, which a nan or an overflow fails as well.
    """
    i_d, i_q = i
    (a_dd, a_dq), (a_qd, a_qq) = A
    m_dd, m_qq = 1.0 / horizon + a_dd, 1.0 / horizon + a_qq
    m_dq, m_qd = a_qd, a_dq
    det = m_dd * m_qq - m_dq * m_qd
    if not m_dd * m_dd + m_dq * m_dq + m_qd * m_qd + m_qq * m_qq < COND_LIMIT * abs(det):
        return (2.0 * horizon * i_d, 2.0 * horizon * i_q), LAMBDA_FALLBACK
    x_d = (m_qq * i_d - m_dq * i_q) / det
    x_q = (m_dd * i_q - m_qd * i_d) / det
    return (2.0 * x_d, 2.0 * x_q), 0


def clamp_torque_command(u, terms, v_max):
    """Clip u into [phi - |b| v_max, phi + |b| v_max]; returns (u, flags), flags U_CLAMPED or 0."""
    u_min = terms.phi - terms.b_norm * v_max
    u_max = terms.phi + terms.b_norm * v_max
    if u > u_max:
        return u_max, U_CLAMPED
    if u < u_min:
        return u_min, U_CLAMPED
    return u, 0


def z_limit(u_feasible, terms, v_max):
    """Voltage budget left for z: sqrt(v_max^2 - (u - phi)^2 / |b|^2), or 0 if that is negative.

    Raises NegativeDiscriminantError below -1e-9 v_max^2 for a u outside the clamp band.
    """
    e = u_feasible - terms.phi
    disc = v_max * v_max - e * e / terms.b_norm_sq
    if disc < 0.0:
        if disc <= -1e-9 * v_max * v_max and clamp_torque_command(u_feasible, terms, v_max)[1]:
            raise NegativeDiscriminantError(f"discriminant = {disc:.3e}; torque command not clamped?")
        return 0.0
    return math.sqrt(disc)


def optimal_z(lam, terms, params, z_max, alpha_z=1.0, smoothing=0.0):
    """Closed-form Hamiltonian minimizer over {z = m n : |m| <= z_max}.

    n = (-b_q, b_d) / |b| spans the line perpendicular to b, and the
    Hamiltonian's slope along it is s = n^T L^-1 lambda, so
    m = -alpha_z z_max sign(s).  Returns (z, flags): flags is Z_AT_LIMIT
    for |m| = alpha_z z_max, and Z_ZEROED where a degenerate direction
    (|s| < EPS_D) or a zero budget yield z = 0.

    ``smoothing`` > 0 replaces the bang-bang magnitude with the boundary
    layer m = -alpha_z z_max s / sqrt(s^2 + smoothing^2).  The exact rule
    makes a closed loop evaluated continuously a sliding mode around the
    loss optimum, which a fixed-step integrator cannot resolve; the
    smoothed z stays admissible (|z| < alpha_z z_max), so it never sets
    Z_AT_LIMIT.
    """
    lam_d, lam_q = lam
    n_d, n_q = -terms.b_q / terms.b_norm, terms.b_d / terms.b_norm
    s = n_d * (lam_d / params.L_d) + n_q * (lam_q / params.L_q)
    if smoothing > 0.0:
        m = -alpha_z * z_max * s / math.sqrt(s * s + smoothing * smoothing)
        return (m * n_d, m * n_q), Z_ZEROED if z_max <= 0.0 else 0
    if abs(s) < EPS_D or z_max <= 0.0:
        return (0.0, 0.0), Z_ZEROED
    m = -math.copysign(alpha_z * z_max, s)
    return (m * n_d, m * n_q), Z_AT_LIMIT


def hamiltonian(i, lam, u, z, terms, omega, params):
    """H = |i|^2 + lambda^T L^-1 (h + v) with the voltage v = b/|b|^2 (u - phi) + z, as a float.

    b, phi and h are those of ``terms``, so ``omega`` is unused, kept
    for the criteria's call form.
    """
    i_d, i_q = i
    lam_d, lam_q = lam
    v_d, v_q = voltage(u, z, terms)
    return float(i_d * i_d + i_q * i_q
                 + (lam_d * ((terms.h_d + v_d) / params.L_d) + lam_q * ((terms.h_q + v_q) / params.L_q)))
