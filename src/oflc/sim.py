"""Fixed-step plant simulator, scenario engine and comparison runner.

Two integration modes are provided:

* ``run_scenario``: the realistic discrete drive: the controller runs at
  dt_ctrl, its voltage is held (zero-order hold) while the plant is
  stepped with RK4 at dt_plant.
* ``run_continuous``: the controller is re-evaluated at every RK4 stage,
  i.e. the continuous-time closed loop.  Used for transfer-function and
  linearization-identity checks, which are continuous-time statements
  that zero-order-hold quantization would otherwise dominate.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import NonFiniteStateError, ValidationError
from . import machine, optimizer
from .linearization import compute_terms
from .loop import ControlFrame, TorqueController, control_law
from .machine import MachineParams, dq_dynamics, inverse_park_clarke, torque
from .optimizer import FLAG_NAMES, SaturationReport
from .profiles import ConstantProfile

__all__ = [
    "MechanicalModel",
    "Scenario",
    "RunResult",
    "ContinuousRun",
    "rk4",
    "rk4_plant_step",
    "run_scenario",
    "run_continuous",
    "energy_accounting",
    "IdZeroController",
    "CONTROLLER_NAMES",
]

CONTROLLER_NAMES = ("oflc", "flc_z0", "id_zero")


@dataclass(frozen=True)
class MechanicalModel:
    """Rigid mechanical load: J dw/dt = tau - tau_load - friction * w.

    Speeds here are mechanical; the electrical speed fed to the machine
    model is p times larger.
    """

    inertia: float  # kg m^2
    friction: float = 0.0  # N m s
    load_torque: Callable[[float], float] = ConstantProfile(0.0)

    def __post_init__(self):
        if self.inertia <= 0.0:
            raise ValueError("inertia must be positive")
        if self.friction < 0.0:
            raise ValueError("friction must be non-negative")


@dataclass(frozen=True)
class Scenario:
    """One simulation run: machine, profiles, rates and limits.

    ``speed`` is the prescribed electrical speed profile (rad/s); set it
    to None and supply ``mechanical`` to let the load dynamics produce
    the speed instead.
    """

    params: MachineParams
    duration: float
    tau_ref: Callable[[float], float]
    speed: Optional[Callable[[float], float]] = None
    mechanical: Optional[MechanicalModel] = None
    dt_plant: float = 1e-6
    dt_ctrl: float = 1e-4
    horizon: float = 1e-3
    v_max: float = 48.0
    i0: Tuple[float, float] = (0.0, 0.0)
    theta0: float = 0.0
    omega0: float = 0.0  # initial mechanical speed, mechanical mode only

    def __post_init__(self):
        if self.duration <= 0.0:
            raise ValidationError("duration", "must be positive")
        if self.dt_plant <= 0.0:
            raise ValidationError("dt_plant", "must be positive")
        if self.dt_plant > self.dt_ctrl:
            raise ValidationError("dt_plant", f"must not exceed dt_ctrl ({self.dt_plant} > {self.dt_ctrl})")
        if abs(self.dt_ctrl / self.dt_plant - round(self.dt_ctrl / self.dt_plant)) > 1e-9:
            raise ValidationError("dt_ctrl", "must be an integer multiple of dt_plant")
        if abs(self.duration / self.dt_ctrl - round(self.duration / self.dt_ctrl)) > 1e-6:
            raise ValidationError("duration", "must be an integer multiple of dt_ctrl")
        if self.horizon <= 0.0:
            raise ValidationError("horizon", "must be positive")
        if self.v_max <= 0.0:
            raise ValidationError("v_max", "must be positive")
        if (self.speed is None) == (self.mechanical is None):
            raise ValidationError("speed", "exactly one of speed profile or mechanical model required")


@dataclass
class RunResult:
    """Trace and summary figures of one scenario run."""

    frames: list
    cost_integral: float = 0.0  # int |i|^2 dt, A^2 s
    copper_energy: float = 0.0  # int 3/2 R |i|^2 dt, J
    rms_torque_error: float = 0.0
    saturation_counts: dict = field(default_factory=dict)
    aborted: bool = False


def rk4(f, x, t, h):
    """One classical RK4 step of dx/dt = f(x, t) from time t over h.

    Raises:
        NonFiniteStateError: if the new state is not finite.
    """
    k1 = f(x, t)
    k2 = f(x + 0.5 * h * k1, t + 0.5 * h)
    k3 = f(x + 0.5 * h * k2, t + 0.5 * h)
    k4 = f(x + h * k3, t + h)
    x_next = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(x_next)):
        raise NonFiniteStateError(f"state diverged: {x_next}")
    return x_next


def _rk4_trajectory(f, x0, duration, dt):
    """RK4 samples (t, x) of dx/dt = f(x, t) at t = k dt, k = 0 .. duration/dt."""
    n = round(duration / dt)
    xs = np.empty((n + 1, len(x0)))
    xs[0] = x0
    for k in range(n):
        xs[k + 1] = rk4(f, xs[k], k * dt, dt)
    return np.arange(n + 1) * dt, xs


def rk4_plant_step(i, v, omega, dt_plant, params):
    """One classical RK4 step of the current dynamics, v and omega held."""
    return rk4(lambda x, t: dq_dynamics(x, v, omega, params), i, 0.0, dt_plant)


class IdZeroController:
    """Classical i_d = 0 vector-control baseline.

    Two decoupled PI current loops with feedforward decoupling of the
    cross-coupling and back-EMF terms; reporting context only.
    """

    def __init__(self, params, v_max, dt_ctrl, bandwidth=2000.0):
        self.params = params
        self.v_max = v_max
        self.dt_ctrl = dt_ctrl
        # pole-placement tuning: kp = L wc, ki = R wc
        self.kp_d = params.L_d * bandwidth
        self.kp_q = params.L_q * bandwidth
        self.ki = params.R * bandwidth
        self._integ = np.zeros(2)

    def reset(self):
        self._integ = np.zeros(2)

    def step(self, t, theta, omega, i_abc, tau_ref):
        params = self.params
        i_dq = machine.park_clarke(theta, i_abc, params)
        tau_est = torque(i_dq, params)
        p_copper = 1.5 * params.R * float(i_dq @ i_dq)
        i_ref = np.array([0.0, tau_ref / (1.5 * params.p * params.psi)])
        e = i_ref - i_dq
        integ_next = self._integ + e * self.dt_ctrl
        v_d = self.kp_d * e[0] + self.ki * integ_next[0] - params.L_q * i_dq[1] * omega
        v_q = self.kp_q * e[1] + self.ki * integ_next[1] + params.L_d * i_dq[0] * omega + params.psi * omega
        v_dq = np.array([v_d, v_q])
        v_norm = np.linalg.norm(v_dq)
        clipped = v_norm > self.v_max
        if clipped:
            v_dq = v_dq * (self.v_max / v_norm)
        else:
            self._integ = integ_next  # anti-windup: freeze while clipped
        return ControlFrame(
            t=t, theta=theta, omega=omega, i_dq=i_dq, tau_ref=tau_ref,
            tau_est=tau_est, u_raw=tau_ref, u_feasible=tau_ref,
            lam=np.zeros(2), z=np.zeros(2), v_dq=v_dq,
            v_abc=inverse_park_clarke(theta, v_dq, params),
            report=SaturationReport(u_clamped=clipped, u_raw=tau_ref),
            p_copper=p_copper,
        )


def make_controller(name, scenario, gains=None, alpha_z=1.0):
    """Instantiate one of the named controllers for a scenario."""
    if name == "oflc":
        return TorqueController(scenario.params, scenario.v_max, scenario.dt_ctrl,
                                horizon=scenario.horizon, gains=gains, alpha_z=alpha_z)
    if name == "flc_z0":
        return TorqueController(scenario.params, scenario.v_max, scenario.dt_ctrl,
                                horizon=scenario.horizon, gains=gains, use_z=False)
    if name == "id_zero":
        return IdZeroController(scenario.params, scenario.v_max, scenario.dt_ctrl)
    raise ValueError(f"unknown controller {name!r}; expected one of {CONTROLLER_NAMES}")


def run_scenario(scenario, controller="oflc", gains=None, alpha_z=1.0):
    """Simulate a scenario with zero-order-hold control; deterministic."""
    s = scenario
    params = s.params
    ctrl = controller if hasattr(controller, "step") else make_controller(controller, s, gains=gains, alpha_z=alpha_z)

    n_ctrl = round(s.duration / s.dt_ctrl)
    n_sub = round(s.dt_ctrl / s.dt_plant)
    i = np.array(s.i0, dtype=float)
    theta = s.theta0
    omega_m = s.omega0  # mechanical, mechanical mode only
    frames = []
    aborted = False

    for k in range(n_ctrl):
        t = k * s.dt_ctrl
        if s.speed is not None:
            omega_e = float(s.speed(t))
        else:
            omega_e = params.p * omega_m
        i_abc = inverse_park_clarke(theta, i, params)
        frame = ctrl.step(t, theta, omega_e, i_abc, float(s.tau_ref(t)))
        frames.append(frame)
        try:
            for j in range(n_sub):
                t_sub = t + j * s.dt_plant
                omega_sub = float(s.speed(t_sub)) if s.speed is not None else params.p * omega_m
                i = rk4_plant_step(i, frame.v_dq, omega_sub, s.dt_plant, params)
                if s.speed is not None:
                    theta += omega_sub / params.p * s.dt_plant
                else:
                    mech = s.mechanical
                    tau_m = torque(i, params)
                    omega_m += (tau_m - mech.load_torque(t_sub) - mech.friction * omega_m) / mech.inertia * s.dt_plant
                    theta += omega_m * s.dt_plant
        except NonFiniteStateError:
            aborted = True
            break

    result = RunResult(frames=frames, aborted=aborted)
    if frames:
        cost, copper = energy_accounting(frames)
        result.cost_integral = cost
        result.copper_energy = copper
        err = np.array([f.tau_ref - f.tau_est for f in frames])
        result.rms_torque_error = float(np.sqrt(np.mean(err * err)))
    result.saturation_counts = {name: sum(getattr(f.report, name) for f in frames) for name in FLAG_NAMES}
    return result


def energy_accounting(frames):
    """Trapezoidal integrals of |i|^2 and copper power over a trace."""
    t = np.array([f.t for f in frames])
    i_sq = np.array([float(f.i_dq @ f.i_dq) for f in frames])
    p_cu = np.array([f.p_copper for f in frames])
    return float(np.trapezoid(i_sq, t)), float(np.trapezoid(p_cu, t))


def run_open_loop(params, v_fn, omega_fn, i0, duration, dt):
    """Integrate the plant under a prescribed smooth voltage ``v_fn(t)``.

    v is evaluated inside the RK4 stages (no zero-order hold); returns
    (t, i) with i of shape (N+1, 2).  Test utility for trajectory-level
    identities.
    """
    return _rk4_trajectory(lambda i, t: dq_dynamics(i, v_fn(t), omega_fn(t), params), i0, duration, dt)


@dataclass
class ContinuousRun:
    """Sampled trajectory of a continuous-control closed-loop run."""

    t: np.ndarray
    i: np.ndarray  # (N, 2)
    tau: np.ndarray
    u: np.ndarray  # clamped torque command actually applied at samples
    clamped: np.ndarray  # bool per sample


def run_continuous(params, v_max, u_profile, omega_profile, duration, dt,
                   horizon=1e-3, use_z=True, alpha_z=1.0, i0=(0.0, 0.0),
                   z_smoothing=0.0):
    """Integrate the closed loop with control re-evaluated at every stage.

    ``u_profile(t)`` is the raw torque command (no PI loop) and
    ``omega_profile(t)`` the electrical speed.  Realizes the
    continuous-time behaviour tau + mu dtau/dt = u exactly up to
    integrator error.

    ``z_smoothing`` > 0 selects the smoothed z rule of
    ``optimizer.optimal_z``: the exact bang-bang rule makes this closed
    loop a sliding mode that a fixed-step integrator cannot resolve.
    """

    def deriv(i, t):
        omega = float(omega_profile(t))
        v = control_law(i, omega, float(u_profile(t)), params, v_max, horizon, alpha_z, use_z, z_smoothing)[0]
        return dq_dynamics(i, v, omega, params)

    ts, states = _rk4_trajectory(deriv, i0, duration, dt)
    # only the clamp, not the whole control law: u needs no costate solve
    applied = [optimizer.clamp_torque_command(float(u_profile(t)), compute_terms(i, omega_profile(t), params), v_max)
               for t, i in zip(ts, states)]
    return ContinuousRun(t=ts, i=states, tau=np.array([torque(i, params) for i in states]),
                         u=np.array([u for u, _ in applied]),
                         clamped=np.array([report.u_clamped for _, report in applied]))
