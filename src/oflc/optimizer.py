"""Per-tick Pontryagin machinery for the loss-minimizing channel z.

Pipeline per control tick (after the linearization terms are known):

1. clamp the torque command u into its feasible band given v_max;
2. assemble A = (u - phi) * Lambda + Gamma, the negative Jacobian of the
   current dynamics under the linearizing control;
3. estimate the costate lambda = 2 (I/h + A^T)^-1 i (one-step discrete
   costate with zero terminal boundary);
4. project L^-1 lambda onto the subspace orthogonal to b and scale the
   result to the remaining voltage budget z_max, opposing the costate
   direction.

The admissible z set is a line segment in R^2, so the closed form is the
exact pointwise Hamiltonian minimizer.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBError, NegativeDiscriminantError
from .linearization import EPS_B, compute_terms
from .machine import h_vector

__all__ = [
    "EPS_D",
    "COND_LIMIT",
    "FLAG_NAMES",
    "SaturationReport",
    "CostateMatrices",
    "dphi_di",
    "dh_di",
    "b_direction_jacobian",
    "lambda_matrix",
    "printed_lambda_matrix",
    "gamma_matrix",
    "costate_matrices",
    "current_dynamics",
    "estimate_costate",
    "projection",
    "clamp_torque_command",
    "z_limit",
    "optimal_z",
    "hamiltonian",
]

# Below this |B L^-1 lambda| the optimal direction is undefined; z = 0.
EPS_D = 1e-9
# Condition-number limit for the costate solve.
COND_LIMIT = 1e12


# The per-tick flags in trace-bit order: FLAG_NAMES[k] is bit 1 << k.
FLAG_NAMES = ("u_clamped", "z_at_limit", "z_zeroed", "b_degenerate", "lambda_fallback")


@dataclass
class SaturationReport:
    """Per-tick flags describing clamps and degeneracies."""

    u_clamped: bool = False
    u_raw: float = 0.0
    z_at_limit: bool = False
    z_zeroed: bool = False
    b_degenerate: bool = False
    lambda_fallback: bool = False

    def flags_bitfield(self):
        """Pack the boolean flags for the trace file (bit 1 << k for FLAG_NAMES[k])."""
        return sum(1 << k for k, name in enumerate(FLAG_NAMES) if getattr(self, name))


@dataclass(frozen=True)
class CostateMatrices:
    """Blocks of the costate dynamics d(lambda)/dt = A^T lambda - 2 i."""

    A: np.ndarray
    Lambda: np.ndarray
    Gamma: np.ndarray
    dphi_di: np.ndarray
    dh_di: np.ndarray


def dphi_di(i, omega, params):
    """Gradient of the drift phi with respect to the dq currents."""
    i_d, i_q = i
    p, R, L_d, L_q = params.p, params.R, params.L_d, params.L_q
    eta, mu, psi = params.eta, params.mu, params.psi
    return 1.5 * p * np.array(
        [
            mu * omega * psi + eta * L_q * i_q - 2.0 * (omega / R) * eta * L_d**2 * i_d,
            -2.0 * omega * mu * eta * L_q * i_q + eta * L_q * i_d,
        ]
    )


def dh_di(omega, params):
    """Jacobian of the voltage-equation drift h with respect to currents."""
    return np.array(
        [
            [-params.R, params.L_q * omega],
            [params.L_d * omega, -params.R],
        ]
    )


def b_direction_jacobian(terms, params):
    """Jacobian of b/|b|^2 with respect to the dq currents."""
    c = 1.5 * params.p / params.R
    # db/di for the authoritative b (L_q in b_d).
    G = np.array(
        [
            [0.0, -c * params.eta * params.L_q],
            [-c * params.eta * params.L_d, 0.0],
        ]
    )
    b, b2 = terms.b, terms.b_norm_sq
    return G / b2 - 2.0 * np.outer(b, G.T @ b) / (b2 * b2)


def lambda_matrix(terms, params):
    """Lambda = -L^-1 d(b/|b|^2)/di; zero for non-salient machines."""
    return -params.L_inv @ b_direction_jacobian(terms, params)


def printed_lambda_matrix(terms, params):
    """Compact published form of Lambda; kept as a cross-check only."""
    b_d, b_q = terms.b
    b2 = terms.b_norm_sq
    coef = 1.5 * params.p * params.eta * params.L_d / (params.R * b2 * b2)
    core = np.array(
        [
            [2.0 * b_d * b_q, b_q**2 - b_d**2],
            [b_d**2 - b_q**2, 2.0 * b_d * b_q],
        ]
    )
    return coef * params.L_inv @ core


def gamma_matrix(i, omega, terms, params):
    """Gamma = L^-1 ( b/|b|^2 dphi/di^T - dh/di )."""
    outer = np.outer(terms.b / terms.b_norm_sq, dphi_di(i, omega, params))
    return params.L_inv @ (outer - dh_di(omega, params))


def costate_matrices(i, omega, u, terms, params):
    """Assemble A = (u - phi) Lambda + Gamma and its blocks."""
    Lam = lambda_matrix(terms, params)
    Gam = gamma_matrix(i, omega, terms, params)
    return CostateMatrices(
        A=(u - terms.phi) * Lam + Gam,
        Lambda=Lam,
        Gamma=Gam,
        dphi_di=dphi_di(i, omega, params),
        dh_di=dh_di(omega, params),
    )


def current_dynamics(i, omega, u, z, params, printed_b_d=False):
    """di/dt under the linearizing control with torque command u and input z.

    f(i) = L^-1 ( b/|b|^2 (u - phi) + h + z ); A above equals -df/di with
    u and z held fixed.
    """
    terms = compute_terms(i, omega, params, printed_b_d=printed_b_d)
    return params.L_inv @ (
        terms.b / terms.b_norm_sq * (u - terms.phi) + h_vector(i, omega, params) + np.asarray(z, dtype=float)
    )


def estimate_costate(i, A, horizon):
    """One-step discrete costate lambda = 2 (I/h + A^T)^-1 i.

    Returns (lambda, fallback_used).  If the solve matrix is ill
    conditioned (cond > COND_LIMIT) the A-free fallback lambda = 2 h i is
    returned with the flag set.
    """
    i = np.asarray(i, dtype=float)
    M = np.eye(2) / horizon + A.T
    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        return 2.0 * horizon * i, True
    return 2.0 * np.linalg.solve(M, i), False


def projection(b):
    """Projection matrix B = I - b b^T / |b|^2 onto the subspace | b."""
    b = np.asarray(b, dtype=float)
    b2 = float(b @ b)
    if b2 < EPS_B * EPS_B:
        raise DegenerateBError(f"|b| = {np.sqrt(b2):.3e}")
    return np.eye(2) - np.outer(b, b) / b2


def clamp_torque_command(u, terms, v_max):
    """Clip u into [phi - |b| v_max, phi + |b| v_max]; returns (u, report)."""
    b_norm = np.sqrt(terms.b_norm_sq)
    u_min = terms.phi - b_norm * v_max
    u_max = terms.phi + b_norm * v_max
    if u > u_max:
        return u_max, SaturationReport(u_clamped=True, u_raw=u)
    if u < u_min:
        return u_min, SaturationReport(u_clamped=True, u_raw=u)
    return u, SaturationReport(u_raw=u)


def z_limit(u_feasible, terms, v_max):
    """Voltage budget left for z: sqrt(v_max^2 - (u - phi)^2 / |b|^2)."""
    disc = v_max * v_max - (u_feasible - terms.phi) ** 2 / terms.b_norm_sq
    if disc < 0.0:
        # tiny negatives from the clamp boundary round to zero
        if disc > -1e-9 * v_max * v_max:
            return 0.0
        raise NegativeDiscriminantError(f"discriminant = {disc:.3e}; torque command not clamped?")
    return np.sqrt(disc)


def optimal_z(lam, B, L_inv, z_max, alpha_z=1.0, smoothing=0.0):
    """Closed-form Hamiltonian minimizer over {z : z | b, |z| <= z_max}.

    Aligns z against B L^-1 lambda and scales it to alpha_z * z_max.
    Returns (z, report); degenerate direction or zero budget yield z = 0
    with the z_zeroed flag.

    ``smoothing`` > 0 replaces the bang-bang magnitude with the boundary
    layer z = -alpha_z z_max d / sqrt(|d|^2 + smoothing^2), d = B L^-1
    lambda.  The exact rule makes a closed loop evaluated continuously a
    sliding mode around the loss optimum, which a fixed-step integrator
    cannot resolve; the smoothed z stays admissible (z | b,
    |z| < alpha_z z_max), so it never sets z_at_limit.
    """
    lam = np.asarray(lam, dtype=float)
    d = B @ (L_inv @ lam)
    # second projection scrubs the parallel rounding residual
    d = B @ d
    if smoothing > 0.0:
        z = -alpha_z * z_max * d / np.sqrt(float(d @ d) + smoothing**2)
        return z, SaturationReport(z_zeroed=z_max <= 0.0)
    d_norm = np.linalg.norm(d)
    if d_norm < EPS_D or z_max <= 0.0:
        return np.zeros(2), SaturationReport(z_zeroed=True)
    z = -(alpha_z * z_max / d_norm) * d
    return z, SaturationReport(z_at_limit=True)


def hamiltonian(i, lam, u, z, terms, omega, params):
    """H = |i|^2 + lambda^T L^-1 ( b/|b|^2 (u - phi) + h + z )."""
    i = np.asarray(i, dtype=float)
    f_arg = terms.b / terms.b_norm_sq * (u - terms.phi) + h_vector(i, omega, params) + np.asarray(z, dtype=float)
    return float(i @ i) + float(np.asarray(lam) @ (params.L_inv @ f_arg))
