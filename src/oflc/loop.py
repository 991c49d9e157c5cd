"""The controllers: the torque pipeline, the i_d = 0 baseline and the table naming them.

``CONTROLLERS`` maps each controller name to a builder taking (scenario,
settings); it is the one list of names, which ``sim.run_scenario`` and
the CLI read.  Each controller reads its run once, at construction: what
its tick needs of its arguments goes into one tuple of constants,
``_tick``, which ``step`` unpacks once, and the instance keeps no
reference to the scenario or the settings.  Only the loop state (the
integrators, and the torque pipeline's held voltage) changes from tick
to tick.

The torque pipeline per tick, on the measured dq currents: the torque
estimate feeds the PI loop, which forms u (pure feedforward when both
gains are zero), and the law that ``control_law`` builds, whose
docstring is the law's contract, maps u to the dq voltages.  The law is
written once in Python, as ``composed_control_law`` over the step
functions of ``linearization`` and ``optimizer``, and once in C, as
``_kernels.c``'s ``law``, which runs wherever ``kernels.load`` gives
it: 0.2-0.3 us a call against 5-9 us for the composition.  Each tick
returns one ``ControlFrame``: Python floats named and ordered as the
trace CSV columns, and a flags int.  The closed torque loop is the
first-order system of ``linearization``, independent of z.
"""

import functools
import math
import struct
from typing import NamedTuple

from .domain import check
from .errors import DegenerateBError, PoorFitError
from . import kernels, linearization, machine, optimizer
from .linearization import EPS_B
from .optimizer import B_DEGENERATE, COND_LIMIT, EPS_D, LAMBDA_FALLBACK, U_CLAMPED, Z_AT_LIMIT, Z_ZEROED
from .records import Record

__all__ = ["ControllerSettings", "ControlFrame", "control_law", "composed_control_law", "TorqueController",
           "IdZeroController", "CONTROLLERS", "closed_loop_tf_check"]

# Largest relative RMS residual of a step response that still counts as first order.
TF_RESIDUAL_LIMIT = 1e-2

# Current-loop bandwidth of the id_zero baseline, rad/s.
ID_ZERO_BANDWIDTH = 2000.0


class ControllerSettings(Record):
    """Settings of the torque controller: the PI gains of the outer torque loop and alpha_z."""

    kp: float = 5.0
    ki: float = 500.0
    alpha_z: float = 1.0


class ControlFrame(NamedTuple):
    """Record of one control tick; the fields are the trace CSV columns, in order.

    Every field is a Python float except ``flags``, an int with bit
    1 << k set for ``optimizer.FLAG_NAMES[k]``.
    """

    t: float
    i_d: float
    i_q: float
    v_d: float
    v_q: float
    tau_ref: float
    tau_est: float
    u_raw: float
    u_feasible: float
    omega: float
    z_d: float
    z_q: float
    lambda_d: float
    lambda_q: float
    p_copper_W: float
    flags: int


def control_law(params, v_max, horizon, alpha_z=1.0, use_z=True, z_smoothing=0.0):
    """Build the control law of one run: ``law(i_dq, omega, u_raw)`` maps a torque command to dq voltages.

    This docstring is the law's contract.  The arguments fix what does
    not change within a run: the machine, v_max, the costate horizon and
    the z rule (z = 0 unless ``use_z``; ``z_smoothing`` as in
    ``optimizer.optimal_z``).  They are those of ``composed_control_law``
    after ``u_raw``; a ``z_smoothing`` neither 0 nor inside its
    ``domain.RANGES`` raises ValidationError.  ``TorqueController``
    builds the law once per run and runs it once per tick,
    ``sim.run_continuous`` at every RK4 stage.

    At the dq currents ``i_dq``, ``law`` computes the linearization terms
    b and phi, clamps u_raw into its feasible band given v_max, estimates
    the costate, picks the loss-minimizing z on the line perpendicular to
    b and maps (u, z) to the dq voltages v = b/|b|^2 (u - phi) + z.  It
    returns one flat tuple (v_d, v_q, u_feasible, lambda_d, lambda_q,
    z_d, z_q, flags), with the flags bits of ``optimizer.FLAG_NAMES``,
    for its callers to unpack once.  It checks only b: ``law`` raises
    DegenerateBError if b vanishes at i_dq, and what voltage to apply
    then is the caller's decision.  Its u lies in the clamp band, so a
    negative z budget (where |phi| dwarfs |b| v_max) is rounding, and z
    gets none; and z = m n is orthogonal to b by construction.  So
    neither ``z_limit``'s NegativeDiscriminantError nor ``linearize``'s
    OrthogonalityViolation has anything to catch here.

    The Python law is ``composed_control_law`` with the run bound by
    keyword, one call per step of the law.  Where ``kernels.load`` gives
    the compiled twins and every constant of the run is a float, the law
    returned is ``functools.partial(_kernels.law, constants, python_law)``:
    the composition's float operations in C, in their order, which the
    tests and ``oflc selftest`` hold to ``composed_control_law`` bit for
    bit.  It computes a call on a tuple of two floats and two floats
    (exact types), in 0.2-0.3 us, and passes every other call, and a
    degenerate b, to the composition, so its results, result types,
    errors and messages are the composition's.  The composition is the
    law wherever the twins are not, at 5-9 us a call (timeit, best of 7,
    2-vCPU host, Python 3.11, gcc 12).
    """
    if z_smoothing != 0.0:
        check(z_smoothing=z_smoothing)
    python_law = functools.partial(composed_control_law, params=params, v_max=v_max, horizon=horizon,
                                   alpha_z=alpha_z, use_z=use_z, z_smoothing=z_smoothing)
    R, L_d, L_q, psi = params.R, params.L_d, params.L_q, params.psi
    k_tau, saliency = 1.5 * params.p, L_d - L_q
    t_dq = k_tau * saliency  # the Hessian entry of machine.torque_hessian
    mu = L_q / R
    mu_d, mu_q = mu / L_d, mu / L_q
    run = (mu_d, mu_q, t_dq, k_tau, psi, saliency, L_d, L_q, -L_d, -R, mu, mu_d * t_dq, mu_q * t_dq, v_max,
           1.0 / horizon, 2.0 * horizon, v_max * v_max, alpha_z, z_smoothing)  # the first fields of _kernels.c's Law
    compiled = kernels.load()
    # the twin computes on doubles, as the composition does only where every constant is a float: an int or a numpy
    # scalar can change its result types or errors
    if compiled is None or any(type(x) is not float for x in run):
        return python_law
    constants = struct.pack("27d", *run, EPS_B * EPS_B, COND_LIMIT, EPS_D, 1.0 if use_z else 0.0, U_CLAMPED,
                            LAMBDA_FALLBACK, Z_ZEROED, Z_AT_LIMIT)  # _kernels.c's Law, field by field
    return functools.partial(compiled.law, constants, python_law)


def composed_control_law(i_dq, omega, u_raw, params, v_max, horizon, alpha_z=1.0, use_z=True, z_smoothing=0.0):
    """The law ``control_law`` builds, as the composition of the step functions, one call per step of the law.

    ``composed_control_law(i_dq, omega, u_raw, *run)`` has the results
    and errors of ``control_law(*run)(i_dq, omega, u_raw)``, bit for bit:
    it is the Python law, and the compiled law's reference.  ``z_limit``
    sees only an unclamped u.
    """
    terms = linearization.compute_terms(i_dq, omega, params)
    u_feasible, flags = optimizer.clamp_torque_command(u_raw, terms, v_max)
    A = optimizer.costate_matrices(i_dq, omega, u_feasible, terms, params)
    lam, lam_flags = optimizer.estimate_costate(i_dq, A, horizon)
    flags |= lam_flags
    if use_z:
        # a clamped u leaves exactly no budget; z_limit would return rounding noise
        z_max = 0.0 if flags & U_CLAMPED else optimizer.z_limit(u_feasible, terms, v_max)
        z, z_flags = optimizer.optimal_z(lam, terms, params, z_max, alpha_z, smoothing=z_smoothing)
        flags |= z_flags
    else:
        z = (0.0, 0.0)
    return (*linearization.linearize(u_feasible, z, terms), u_feasible, *lam, *z, flags)


class TorqueController:
    """Stateful per-tick controller (PI integrator + previous-voltage hold).

    One instance drives the machine of one ``sim.Scenario``, which has
    checked its rates and limits; instances are independent.  Set
    ``use_z=False`` for the plain linearizing controller with z = 0.
    ``integrator`` is the PI loop's integral of the torque error; it is
    frozen whenever the torque command is clamped (conditional-integration
    anti-windup).
    """

    def __init__(self, scenario, settings, use_z=True):
        self.integrator = 0.0
        self._v_prev = (0.0, 0.0)
        params = scenario.params
        self._tick = (1.5 * params.p, params.psi, params.L_d - params.L_q, 1.5 * params.R, settings.kp, settings.ki,
                      scenario.dt_ctrl, control_law(params, scenario.v_max, scenario.horizon, settings.alpha_z, use_z))

    def step(self, t, omega, i_dq, tau_ref):
        """Run the pipeline on one (i_d, i_q) sample; returns its ControlFrame.

        ``machine.torque``, the copper loss and the PI update with
        feedforward, u = tau_ref + kp e + ki int(e), are written inline in
        their operation order; the tests hold each frame equal to the one
        they and ``composed_control_law`` give, bit for bit.
        """
        k_tau, psi, saliency, k_cu, kp, ki, dt, law = self._tick
        i_d, i_q = i_dq
        tau_est = k_tau * (psi * i_q + saliency * i_d * i_q)
        p_copper = k_cu * (i_d * i_d + i_q * i_q)
        e = tau_ref - tau_est
        integ_next = self.integrator + e * dt
        u_raw = tau_ref + kp * e + ki * integ_next
        try:
            v_d, v_q, u_feasible, lambda_d, lambda_q, z_d, z_q, flags = law(i_dq, omega, u_raw)
        except DegenerateBError:
            # torque channel uncontrollable: hold previous voltage
            v_d, v_q = self._v_prev
            u_feasible, lambda_d, lambda_q, z_d, z_q, flags = u_raw, 0.0, 0.0, 0.0, 0.0, B_DEGENERATE
        else:
            if not flags & U_CLAMPED:
                self.integrator = integ_next
            self._v_prev = (v_d, v_q)
        # tuple.__new__ skips the argument parsing of ControlFrame's own __new__
        return tuple.__new__(ControlFrame, (t, i_d, i_q, v_d, v_q, tau_ref, tau_est, u_raw, u_feasible, omega,
                                            z_d, z_q, lambda_d, lambda_q, p_copper, flags))


class IdZeroController:
    """Classical i_d = 0 vector-control baseline, against which the energy claim is also reported.

    Two decoupled PI current loops, pole-placement tuned (kp = L wc,
    ki = R wc at wc = ``ID_ZERO_BANDWIDTH``), with feedforward decoupling
    of the cross-coupling and back-EMF terms.  The i_q reference is
    tau_ref over dtau/di_q at i = 0.  Where |v| passes v_max, v is scaled
    onto the limit, the frame's ``u_clamped`` flag is set and the
    integrators freeze (anti-windup).  Like the torque pipeline, it binds
    its run at construction, as the module docstring says.
    """

    def __init__(self, scenario):
        self._integ = (0.0, 0.0)
        params = scenario.params
        wc = ID_ZERO_BANDWIDTH
        self._tick = (params, params.L_d * wc, params.L_q * wc, params.R * wc, 1.5 * params.R,
                      machine.torque_gradient((0.0, 0.0), params)[1], scenario.dt_ctrl, scenario.v_max)

    def step(self, t, omega, i_dq, tau_ref):
        """Run both current loops on one (i_d, i_q) sample; returns its ControlFrame."""
        params, kp_d, kp_q, ki, k_cu, dtau_diq, dt, v_max = self._tick
        i_d, i_q = i_dq
        p_copper = k_cu * (i_d * i_d + i_q * i_q)
        e_d = 0.0 - i_d  # the i_d reference is zero
        e_q = tau_ref / dtau_diq - i_q
        integ_d = self._integ[0] + e_d * dt
        integ_q = self._integ[1] + e_q * dt
        # feedforward cancels the omega terms of the drift: h(i, 0) - h(i, omega)
        h0_d, h0_q = machine.voltage_drift(i_dq, 0.0, params)
        h_d, h_q = machine.voltage_drift(i_dq, omega, params)
        v_d = kp_d * e_d + ki * integ_d + (h0_d - h_d)
        v_q = kp_q * e_q + ki * integ_q + (h0_q - h_q)
        v_norm = math.hypot(v_d, v_q)
        clipped = v_norm > v_max
        if clipped:
            v_d, v_q = v_d / v_norm * v_max, v_q / v_norm * v_max  # v_max/|v| may be subnormal
        else:
            self._integ = (integ_d, integ_q)
        tau_est = machine.torque(i_dq, params)
        return tuple.__new__(ControlFrame, (t, i_d, i_q, v_d, v_q, tau_ref, tau_est, tau_ref, tau_ref, omega,
                                            0.0, 0.0, 0.0, 0.0, p_copper, U_CLAMPED if clipped else 0))


# The named controllers: name -> builder of a controller for (scenario, settings).
CONTROLLERS = {
    "oflc": lambda s, st: TorqueController(s, st),
    "flc_z0": lambda s, st: TorqueController(s, st, use_z=False),
    "id_zero": lambda s, st: IdZeroController(s),
}


def closed_loop_tf_check(t, tau, u_final):
    """Fit tau(t) = u_final + (tau0 - u_final) exp(-(t - t0)/mu) and return mu_hat.

    ``t``/``tau`` are step-response samples from the step instant onward.
    With y = (u_final - tau)/(u_final - tau0) and s = t - t0 the model is
    ln y = -s/mu: mu_hat = -sum(w s^2)/sum(w s ln y) over the samples with
    y > 0, whose weights w = y^2 make it least squares in tau to first order.
    Raises PoorFitError unless mu_hat is positive and finite and the relative
    RMS residual is at most TF_RESIDUAL_LIMIT (the response is not first
    order, or no sample determines mu).
    """
    import numpy as np

    s = np.asarray(t, dtype=float) - t[0]
    tau = np.asarray(tau, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):  # a flat or nan response gives a nan mu_hat
        y = (u_final - tau) / (u_final - tau[0])
        y_fit, s_fit = y[y > 0.0], s[y > 0.0]
        mu_hat = float(-np.sum(y_fit ** 2 * s_fit ** 2) / np.sum(y_fit ** 2 * s_fit * np.log(y_fit)))
        model = u_final + (tau[0] - u_final) * np.exp(-s / mu_hat)
    rms = np.sqrt(np.mean((model - tau) ** 2)) / max(abs(u_final - tau[0]), 1e-12)
    if not (rms <= TF_RESIDUAL_LIMIT and 0.0 < mu_hat < math.inf):
        raise PoorFitError(f"mu_hat {mu_hat:.3e} with relative RMS residual {rms:.3e} (limit {TF_RESIDUAL_LIMIT:.1e})")
    return mu_hat
