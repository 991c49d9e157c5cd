"""The controllers: the torque pipeline, the i_d = 0 baseline and the table naming them.

``CONTROLLERS`` maps each controller name to a builder taking (scenario,
settings); it is the one list of names, which ``sim.run_scenario`` and
the CLI read.

The torque pipeline per tick, on the measured dq currents:

1. compute the linearization terms at the dq currents, the torque
   estimate among them, and form u via the PI loop (pure feedforward
   when both gains are zero);
2. clamp u into its feasible band given v_max;
3. estimate the costate;
4. compute the loss-minimizing input z on the line perpendicular to b;
5. map (u, z) to the dq voltages the inverter applies.

Steps 2 to 5 are ``control_law``, which the continuous-time simulator
evaluates too; it runs on Python floats and takes step 1's terms, so
the tick computes each fact once.  Each tick returns one
``ControlFrame``: Python floats named and ordered as the trace CSV
columns, and a flags int.  The closed torque loop behaves as the
first-order system tau(s)/u(s) = 1/(mu s + 1), independent of z.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DegenerateBError, PoorFitError, ValidationError
from . import linearization, machine, optimizer
from .optimizer import B_DEGENERATE, LAMBDA_FALLBACK, U_CLAMPED, Z_AT_LIMIT, Z_ZEROED

__all__ = ["ControllerSettings", "ControlFrame", "pi_update", "control_law", "TorqueController", "IdZeroController",
           "CONTROLLERS", "closed_loop_tf_check"]

# Largest relative RMS residual of a step response that still counts as first order.
TF_RESIDUAL_LIMIT = 1e-2

# Current-loop bandwidth of the id_zero baseline, rad/s.
ID_ZERO_BANDWIDTH = 2000.0


@dataclass(frozen=True)
class ControllerSettings:
    """Settings of the torque controller: the PI gains of the outer torque loop and alpha_z.

    Raises ValidationError naming ``controller.<field>`` for a value out
    of range, whether it came from a document or a command-line override.
    """

    kp: float = 5.0
    ki: float = 500.0
    alpha_z: float = 1.0

    def __post_init__(self):
        for name in ("kp", "ki"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValidationError(f"controller.{name}", "PI gains must be finite and non-negative")
        if not 0.0 < self.alpha_z <= 1.0:
            raise ValidationError("controller.alpha_z", "must be in (0, 1]")


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


def pi_update(tau_ref, tau_est, integrator, settings, dt):
    """Candidate PI output with feedforward: u = tau_ref + kp e + ki int(e).

    Returns (u_raw, integrator_next); the caller commits the integrator
    only if u ends up inside the feasible band.
    """
    e = tau_ref - tau_est
    integ_next = integrator + e * dt
    return tau_ref + settings.kp * e + settings.ki * integ_next, integ_next


def control_law(i_dq, omega, u_raw, params, v_max, horizon, alpha_z=1.0, use_z=True, z_smoothing=0.0, terms=None):
    """Map a torque command to dq voltages at the dq currents ``i_dq``.

    Clamps u_raw into its feasible band, estimates the costate, picks z
    (z = 0 unless ``use_z``; ``z_smoothing`` as in ``optimizer.optimal_z``)
    and linearizes.  ``terms`` are ``linearization.compute_terms`` at
    (i_dq, omega), computed here unless the caller passes them.  Returns
    (v_dq, u_feasible, lam, z, flags), the vectors as (d, q) pairs and
    the flags bits of ``optimizer.FLAG_NAMES``.

    Raises:
        DegenerateBError: if b vanishes at i_dq; what voltage to apply
            then is the caller's decision.
    """
    if terms is None:
        terms = linearization.compute_terms(i_dq, omega, params)
    u_feasible, clamped = optimizer.clamp_torque_command(u_raw, terms, v_max)
    A = optimizer.costate_matrices(i_dq, omega, u_feasible, terms, params)
    lam, fallback = optimizer.estimate_costate(i_dq, A, horizon)
    flags = (U_CLAMPED if clamped else 0) | (LAMBDA_FALLBACK if fallback else 0)
    if use_z:
        # a clamped u leaves exactly no budget; z_limit would return rounding noise
        z_max = 0.0 if clamped else optimizer.z_limit(u_feasible, terms, v_max)
        z, z_flags = optimizer.optimal_z(lam, terms, params, z_max, alpha_z, smoothing=z_smoothing)
        flags |= (Z_AT_LIMIT if z_flags.z_at_limit else 0) | (Z_ZEROED if z_flags.z_zeroed else 0)
    else:
        z = (0.0, 0.0)
    return linearization.linearize(u_feasible, z, terms), u_feasible, lam, z, flags


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
        self.scenario = scenario
        self.settings = settings
        self.use_z = use_z
        self.integrator = 0.0
        self._v_prev = (0.0, 0.0)

    def step(self, t, omega, i_dq, tau_ref):
        """Run the pipeline on one (i_d, i_q) sample; returns its ControlFrame.

        The linearization terms are computed once, and their torque is the
        torque estimate; where b vanishes the torque is computed alone.
        """
        s = self.scenario
        params = s.params
        i_d, i_q = i_dq
        try:
            terms = linearization.compute_terms(i_dq, omega, params)
        except DegenerateBError:
            terms = None
        tau_est = machine.torque(i_dq, params) if terms is None else terms.tau
        p_copper = 1.5 * params.R * (i_d * i_d + i_q * i_q)
        u_raw, integ_next = pi_update(tau_ref, tau_est, self.integrator, self.settings, s.dt_ctrl)
        if terms is None:
            # torque channel uncontrollable: hold previous voltage
            v_d, v_q = self._v_prev
            u_feasible, lambda_d, lambda_q, z_d, z_q, flags = u_raw, 0.0, 0.0, 0.0, 0.0, B_DEGENERATE
        else:
            (v_d, v_q), u_feasible, (lambda_d, lambda_q), (z_d, z_q), flags = control_law(
                i_dq, omega, u_raw, params, s.v_max, s.horizon, self.settings.alpha_z, self.use_z, terms=terms)
            if not flags & U_CLAMPED:
                self.integrator = integ_next
            self._v_prev = (v_d, v_q)
        return ControlFrame(t, i_d, i_q, v_d, v_q, tau_ref, tau_est, u_raw, u_feasible, omega,
                            z_d, z_q, lambda_d, lambda_q, p_copper, flags)


class IdZeroController:
    """Classical i_d = 0 vector-control baseline.

    Two decoupled PI current loops with feedforward decoupling of the
    cross-coupling and back-EMF terms; reporting context only.
    """

    def __init__(self, scenario):
        self.scenario = scenario
        params = scenario.params
        # pole-placement tuning: kp = L wc, ki = R wc
        self.kp_d = params.L_d * ID_ZERO_BANDWIDTH
        self.kp_q = params.L_q * ID_ZERO_BANDWIDTH
        self.ki = params.R * ID_ZERO_BANDWIDTH
        self._dtau_diq = machine.torque_gradient((0.0, 0.0), params)[1]
        self._integ = (0.0, 0.0)

    def step(self, t, omega, i_dq, tau_ref):
        s = self.scenario
        params = s.params
        i_d, i_q = i_dq
        p_copper = 1.5 * params.R * (i_d * i_d + i_q * i_q)
        e_d = 0.0 - i_d  # the i_d reference is zero
        e_q = tau_ref / self._dtau_diq - i_q  # dtau/di_q at i = 0 maps tau_ref to i_q
        integ_d = self._integ[0] + e_d * s.dt_ctrl
        integ_q = self._integ[1] + e_q * s.dt_ctrl
        # feedforward cancels the omega terms of the drift: h(i, 0) - h(i, omega)
        h0_d, h0_q = machine.voltage_drift(i_dq, 0.0, params)
        h_d, h_q = machine.voltage_drift(i_dq, omega, params)
        v_d = self.kp_d * e_d + self.ki * integ_d + (h0_d - h_d)
        v_q = self.kp_q * e_q + self.ki * integ_q + (h0_q - h_q)
        v_norm = math.hypot(v_d, v_q)
        clipped = v_norm > s.v_max
        if clipped:
            v_d, v_q = v_d * (s.v_max / v_norm), v_q * (s.v_max / v_norm)
        else:
            self._integ = (integ_d, integ_q)  # anti-windup: freeze while clipped
        tau_est = machine.torque((i_d, i_q), params)
        return ControlFrame(t, i_d, i_q, v_d, v_q, tau_ref, tau_est, tau_ref, tau_ref, omega,
                            0.0, 0.0, 0.0, 0.0, p_copper, U_CLAMPED if clipped else 0)


# The named controllers: name -> builder of a controller for (scenario, settings).
CONTROLLERS = {
    "oflc": lambda s, st: TorqueController(s, st),
    "flc_z0": lambda s, st: TorqueController(s, st, use_z=False),
    "id_zero": lambda s, st: IdZeroController(s),
}


def closed_loop_tf_check(t, tau, u_final):
    """Fit tau(t) = u_final + (tau0 - u_final) exp(-t/mu) and return mu_hat.

    ``t``/``tau`` are step-response samples from the step instant onward.
    Raises PoorFitError if the relative RMS residual exceeds
    TF_RESIDUAL_LIMIT (response is not first order).
    """
    import numpy as np
    from scipy.optimize import curve_fit  # scipy is slow to import and only this check needs it

    t = np.asarray(t, dtype=float)
    tau = np.asarray(tau, dtype=float)
    tau0 = tau[0]
    scale = max(abs(u_final - tau0), 1e-12)

    def model(tt, mu_hat):
        return u_final + (tau0 - u_final) * np.exp(-tt / mu_hat)

    popt, _ = curve_fit(model, t - t[0], tau, p0=[max(t[-1] - t[0], 1e-6) / 5.0])
    mu_hat = float(popt[0])
    rms = np.sqrt(np.mean((model(t - t[0], mu_hat) - tau) ** 2)) / scale
    if rms > TF_RESIDUAL_LIMIT:
        raise PoorFitError(f"relative RMS residual {rms:.3e} exceeds {TF_RESIDUAL_LIMIT:.1e}")
    return mu_hat
