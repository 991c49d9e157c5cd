"""Torque-exact feedback linearization of the dq voltage equations.

The torque-rate identity

    tau + mu * dtau/dt = b(i)^T v + phi(i, omega)

holds along any trajectory of the machine.  With the voltage equations
L di/dt = h(i, omega) + v, dtau/dt = grad tau^T L^-1 (h + v), so
b = mu L^-1 grad tau and phi = tau + b^T h: the Lie-derivative form of
feedback linearization (Isidori, Nonlinear Control Systems, 3rd ed., 1995,
ch. 4).  ``compute_terms`` evaluates both from these definitions, over
``machine.torque_gradient``, ``machine.torque`` and
``machine.voltage_drift``, so the machine model is stated in ``machine``
only; with ``linearize`` it is the reference form of the law's first and
last steps (see ``loop.control_law``).  Applying

    v = b / |b|^2 * (u - phi) + z,     with  b^T z = 0,

therefore turns the torque dynamics into the first-order linear system
tau + mu * dtau/dt = u, with z free to spend the remaining voltage budget
on loss minimization.  ``voltage`` is this map's one formula, unchecked;
``linearize`` checks b^T z = 0 and then calls it.

Note on b_d: ``torque_rate_identity_residual(printed_b_d=True)`` evaluates
a published variant, b_d = -(3p/2R) * eta * L_d * i_q, which carries L_d
where b = mu L^-1 grad tau has L_q, so the residual check can arbitrate.
"""

import math
from typing import NamedTuple

from .errors import DegenerateBError, OrthogonalityViolation
from .machine import torque, torque_gradient, voltage_drift

__all__ = [
    "EPS_B",
    "TOL_ORTH",
    "LinearizationTerms",
    "compute_terms",
    "linearize",
    "voltage",
    "torque_rate_identity_residual",
]

# Below this |b| the torque channel is uncontrollable.
EPS_B = 1e-6
# Relative orthogonality tolerance on b^T z.
TOL_ORTH = 1e-9


class LinearizationTerms(NamedTuple):
    """Torque-channel direction b = (b_d, b_q), phi, |b|^2, |b| and the drift h = (h_d, h_q) at one state."""

    b_d: float
    b_q: float
    phi: float
    b_norm_sq: float
    b_norm: float
    h_d: float
    h_q: float


def compute_terms(i, omega, params):
    """Evaluate b(i) = mu L^-1 grad tau, phi(i, omega) = tau + b^T h and h(i, omega) at ``i = (i_d, i_q)``.

    Raises:
        DegenerateBError: if |b| < EPS_B (torque channel uncontrollable).
    """
    g_d, g_q = torque_gradient(i, params)
    mu = params.mu
    b_d, b_q = mu / params.L_d * g_d, mu / params.L_q * g_q
    b_norm_sq = b_d * b_d + b_q * b_q
    b_norm = math.sqrt(b_norm_sq)
    if b_norm_sq < EPS_B * EPS_B:
        raise DegenerateBError(f"|b| = {b_norm:.3e} at i = ({i[0]}, {i[1]})")

    h_d, h_q = voltage_drift(i, omega, params)
    phi = torque(i, params) + b_d * h_d + b_q * h_q
    return LinearizationTerms(b_d, b_q, phi, b_norm_sq, b_norm, h_d, h_q)


def linearize(u, z, terms):
    """Map auxiliary inputs (u, z) to dq voltages: v = b/|b|^2 (u - phi) + z.

    ``z`` is a (z_d, z_q) pair; returns (v_d, v_q).

    Raises:
        OrthogonalityViolation: if z is not perpendicular to b within
            TOL_ORTH relative tolerance.
    """
    z_d, z_q = z
    b_d, b_q, b_norm = terms.b_d, terms.b_q, terms.b_norm
    b_dot_z = b_d * z_d + b_q * z_q
    z_norm = math.hypot(z_d, z_q)
    if abs(b_dot_z) > TOL_ORTH * b_norm * z_norm and z_norm > 0.0:
        raise OrthogonalityViolation(f"|b.z| = {abs(b_dot_z):.3e} for |b||z| = {b_norm * z_norm:.3e}")
    return voltage(u, z, terms)


def voltage(u, z, terms):
    """v = b/|b|^2 (u - phi) + z for any (z_d, z_q): ``linearize`` without its b.z check."""
    z_d, z_q = z
    e = u - terms.phi
    return terms.b_d / terms.b_norm_sq * e + z_d, terms.b_q / terms.b_norm_sq * e + z_q


def torque_rate_identity_residual(i_prev, i_curr, i_next, v, omega, dt, params, printed_b_d=False):
    """Residual of tau + mu*dtau/dt - (b^T v + phi) at the middle sample.

    ``i_prev``/``i_next`` are trajectory samples +-dt around ``i_curr`` and
    feed a central finite difference for dtau/dt; ``v`` is the voltage
    applied over the stencil.  Expected ~0 for the authoritative b, phi;
    ``printed_b_d`` swaps in the published b_d with L_d for L_q.
    """
    tau = torque(i_curr, params)
    tau_dot = (torque(i_next, params) - torque(i_prev, params)) / (2.0 * dt)
    b_d, b_q, phi = compute_terms(i_curr, omega, params)[:3]
    if printed_b_d:
        b_d = -1.5 * params.p / params.R * params.eta * params.L_d * i_curr[1]
    v_d, v_q = v
    return (tau + params.mu * tau_dot) - (b_d * v_d + b_q * v_q + phi)
