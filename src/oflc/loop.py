"""Per-tick torque control pipeline and the optional PI loop around it.

The pipeline per tick:

1. Park-Clarke the measured phase currents;
2. estimate torque from the dq currents and form u via the PI loop
   (pure feedforward when both gains are zero);
3. clamp u into its feasible band given v_max;
4. estimate the costate;
5. compute the loss-minimizing input z;
6. map (u, z) to dq voltages and then to inverter phase voltages.

Steps 3 to 6 (up to the dq voltages) are ``control_law``, which the
continuous-time simulator evaluates too.  The closed torque loop behaves
as the first-order system tau(s)/u(s) = 1/(mu s + 1), independent of z.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import curve_fit

from .errors import DegenerateBError, PoorFitError
from . import machine, optimizer
from .linearization import compute_terms, linearize
from .optimizer import SaturationReport

__all__ = ["PiGains", "ControlFrame", "pi_update", "control_law", "TorqueController", "closed_loop_tf_check"]


@dataclass
class PiGains:
    """PI gains and integrator state for the outer torque loop.

    The integrator is frozen whenever the torque command is clamped
    (conditional-integration anti-windup).
    """

    kp: float = 5.0
    ki: float = 500.0
    integrator: float = 0.0

    def __post_init__(self):
        if self.kp < 0.0 or self.ki < 0.0:
            raise ValueError("PI gains must be non-negative")


@dataclass(frozen=True)
class ControlFrame:
    """Log record of one control tick."""

    t: float
    theta: float
    omega: float
    i_dq: np.ndarray
    tau_ref: float
    tau_est: float
    u_raw: float
    u_feasible: float
    lam: np.ndarray
    z: np.ndarray
    v_dq: np.ndarray
    v_abc: np.ndarray
    report: SaturationReport
    p_copper: float


def pi_update(tau_ref, tau_est, gains, dt):
    """Candidate PI output with feedforward: u = tau_ref + kp e + ki int(e).

    Returns (u_raw, integrator_next); the caller commits the integrator
    only if u ends up inside the feasible band.
    """
    e = tau_ref - tau_est
    integ_next = gains.integrator + e * dt
    return tau_ref + gains.kp * e + gains.ki * integ_next, integ_next


def control_law(i_dq, omega, u_raw, params, v_max, horizon, alpha_z=1.0, use_z=True, z_smoothing=0.0):
    """Map a torque command to dq voltages at one state.

    Clamps u_raw into its feasible band, estimates the costate, picks z
    (z = 0 unless ``use_z``; ``z_smoothing`` as in ``optimizer.optimal_z``)
    and linearizes.  Returns (v_dq, u_feasible, lam, z, report).

    Raises:
        DegenerateBError: if b vanishes at i_dq; what voltage to apply
            then is the caller's decision.
    """
    terms = compute_terms(i_dq, omega, params)
    u_feasible, clamp = optimizer.clamp_torque_command(u_raw, terms, v_max)
    mats = optimizer.costate_matrices(i_dq, omega, u_feasible, terms, params)
    lam, fallback = optimizer.estimate_costate(i_dq, mats.A, horizon)
    if use_z:
        z_max = optimizer.z_limit(u_feasible, terms, v_max)
        B = optimizer.projection(terms.b)
        z, z_report = optimizer.optimal_z(lam, B, params.L_inv, z_max, alpha_z, smoothing=z_smoothing)
    else:
        z, z_report = np.zeros(2), SaturationReport()
    report = SaturationReport(u_clamped=clamp.u_clamped, u_raw=u_raw, z_at_limit=z_report.z_at_limit,
                              z_zeroed=z_report.z_zeroed, lambda_fallback=fallback)
    return linearize(u_feasible, z, terms), u_feasible, lam, z, report


class TorqueController:
    """Stateful per-tick controller (PI integrator + previous-voltage hold).

    One instance drives one machine; instances are independent.  Set
    ``use_z=False`` for the plain linearizing controller with z = 0.
    """

    def __init__(self, params, v_max, dt_ctrl, horizon=None, gains=None,
                 alpha_z=1.0, use_z=True):
        if v_max <= 0.0:
            raise ValueError("v_max must be positive")
        if dt_ctrl <= 0.0:
            raise ValueError("dt_ctrl must be positive")
        self.params = params
        self.v_max = v_max
        self.dt_ctrl = dt_ctrl
        self.horizon = 10.0 * dt_ctrl if horizon is None else horizon
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        self.gains = gains if gains is not None else PiGains()
        if not 0.0 < alpha_z <= 1.0:
            raise ValueError("alpha_z must be in (0, 1]")
        self.alpha_z = alpha_z
        self.use_z = use_z
        self._v_prev = np.zeros(2)

    def reset(self):
        self.gains.integrator = 0.0
        self._v_prev = np.zeros(2)

    def step(self, t, theta, omega, i_abc, tau_ref):
        """Run the six-step pipeline on one sensor sample."""
        params = self.params
        i_dq = machine.park_clarke(theta, i_abc, params)
        tau_est = machine.torque(i_dq, params)
        p_copper = 1.5 * params.R * float(i_dq @ i_dq)
        u_raw, integ_next = pi_update(tau_ref, tau_est, self.gains, self.dt_ctrl)
        try:
            v_dq, u_feasible, lam, z, report = control_law(
                i_dq, omega, u_raw, params, self.v_max, self.horizon, self.alpha_z, self.use_z)
        except DegenerateBError:
            # torque channel uncontrollable: hold previous voltage
            v_dq, u_feasible, lam, z = self._v_prev.copy(), u_raw, np.zeros(2), np.zeros(2)
            report = SaturationReport(b_degenerate=True, u_raw=u_raw)
        else:
            if not report.u_clamped:
                self.gains.integrator = integ_next
            self._v_prev = v_dq
        return ControlFrame(
            t=t, theta=theta, omega=omega, i_dq=i_dq, tau_ref=tau_ref,
            tau_est=tau_est, u_raw=u_raw, u_feasible=u_feasible, lam=lam,
            z=z, v_dq=v_dq,
            v_abc=machine.inverse_park_clarke(theta, v_dq, params),
            report=report, p_copper=p_copper,
        )


def closed_loop_tf_check(t, tau, u_final, residual_threshold=1e-2):
    """Fit tau(t) = u_final + (tau0 - u_final) exp(-t/mu) and return mu_hat.

    ``t``/``tau`` are step-response samples from the step instant onward.
    Raises PoorFitError if the relative RMS residual exceeds the
    threshold (response is not first order).
    """
    t = np.asarray(t, dtype=float)
    tau = np.asarray(tau, dtype=float)
    tau0 = tau[0]
    scale = max(abs(u_final - tau0), 1e-12)

    def model(tt, mu_hat):
        return u_final + (tau0 - u_final) * np.exp(-tt / mu_hat)

    popt, _ = curve_fit(model, t - t[0], tau, p0=[max(t[-1] - t[0], 1e-6) / 5.0])
    mu_hat = float(popt[0])
    rms = np.sqrt(np.mean((model(t - t[0], mu_hat) - tau) ** 2)) / scale
    if rms > residual_threshold:
        raise PoorFitError(f"relative RMS residual {rms:.3e} exceeds {residual_threshold:.1e}")
    return mu_hat
