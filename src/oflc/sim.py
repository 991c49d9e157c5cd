"""Fixed-step plant simulator and scenario engine: it runs the controllers of ``loop``.

Two integration modes are provided:

* ``run_scenario``: the realistic discrete drive: the controller runs at
  dt_ctrl, and its voltage is held (zero-order hold) while
  ``rk4_plant_step``, whose docstring is the plant's contract, steps the
  plant over the tick at dt_plant.  Most of a fine-step run is spent
  there.
* ``run_continuous``: the law of ``loop.control_law`` is re-evaluated at
  every RK4 stage, i.e. the continuous-time closed loop.  Used for
  transfer-function and linearization-identity checks, which are
  continuous-time statements that zero-order-hold quantization would
  otherwise dominate.

``rk4`` is the one generic integrator, behind ``run_open_loop`` and
``run_continuous``, and the reference of its measured fast twin
``rk4_plant_step``.  A run's trace is ``RunResult.frames``, one
``loop.ControlFrame`` per control tick; ``energy_accounting`` and the
run's summary figures read its fields, and the CLI writes them unchanged
as the trace CSV.

``run_scenario`` runs on Python floats and never imports numpy; ``rk4``,
``run_open_loop`` and ``run_continuous`` work on numpy arrays and import
it in their own bodies.  The first ``Scenario`` of a process loads the
compiled twins of ``kernels``, and where it builds them, imports
subprocess and sysconfig; with them, every tick that the closed-form map
does not take, under a varying speed profile or in mechanical mode, runs
compiled (see ``rk4_plant_step``), and every tick of an ``oflc`` or
``flc_z0`` run after the first runs in one call of the tick loop's
compiled twin (see ``run_scenario``).
"""

import functools
import math
import struct
from collections import Counter
from typing import Tuple, Union

from . import kernels
from .domain import check, rk4_limit
from .errors import NonFiniteStateError, ValidationError
from .loop import CONTROLLERS, ControllerSettings, control_law
from .machine import MachineParams, dq_dynamics, torque
from .optimizer import FLAG_NAMES, U_CLAMPED
from .profiles import ConstantProfile, Profile
from .records import Record

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
]

# Bounds on a run's time and memory; the largest uses are 2000 substeps per tick (criterion 10), 50 000 ticks (the
# non-salient acceptance fixture) and 10**5 substeps per run (scenarios/step.cfg).  A substep costs about 0.025 us in
# the compiled loop in mechanical mode at a constant load (a tick adds about 1.2-2 us, its control tick and its
# frame, in the compiled run, and about 0.4 us more where rk4_plant_step calls the loop), 0.1-0.3 us where it
# calls a varying speed profile or load at every substep (almost all of it the profile's own call), and in the
# Python loop about 0.5 us in mechanical mode, 0.55-0.8 us under a speed profile and 0.75-0.9 us under a varying load
# (timeit on 1000-substep ticks, 2-core host, Python 3.11), so 10**8 substeps per run take 2.5 s compiled at a
# constant load, up to 30 s compiled where a profile is called at every substep, and up to about 90 s in Python; each
# tick keeps a ControlFrame of about 0.5 kB, so 10**6 ticks hold 0.5 GB of trace.
MAX_SUBSTEPS_PER_TICK = 10**6
MAX_TICKS_PER_RUN = 10**6
MAX_SUBSTEPS_PER_RUN = 10**8


class MechanicalModel(Record):
    """Rigid mechanical load: J dw/dt = tau - tau_load - friction * w, from w = omega0.

    Speeds here are mechanical; the electrical speed fed to the machine
    model is p times larger.  Its load torque's ``peak`` must also lie in
    the ``load`` range of ``domain.RANGES``.
    """

    inertia: float  # kg m^2
    friction: float = 0.0  # N m s
    load_torque: Profile = ConstantProfile(0.0)
    omega0: float = 0.0  # initial speed, rad/s

    kind = "mechanical"  # the [speed] kind of the config format

    def __post_init__(self):
        check(load=self.load_torque.peak)


class Scenario(Record):
    """One simulation run: machine, profiles, rates and limits.

    ``speed`` is the one speed source: a prescribed electrical speed
    profile (rad/s), or a ``MechanicalModel`` whose load dynamics produce
    the speed.  Its fields are checked by the rule of ``records``;
    ``__post_init__`` adds the initial currents' ranges and the rules
    that relate fields: the rates' multiples, the run's size, RK4's
    stability rule and the mechanical speed's Euler step.  So the
    controllers built from a scenario read it unchecked.  It also takes
    ``rk4_plant_step``'s constants (see there) by the one classification
    of the speed source, so it alone decides which speeds RK4's rule bounds
    and which ticks the compiled loop steps; there it also binds the
    plant's half of ``run_scenario``'s compiled run.
    """

    params: MachineParams
    duration: float
    tau_ref: Profile
    speed: Union[Profile, MechanicalModel]
    dt_plant: float = 1e-6
    dt_ctrl: float = 1e-4
    horizon: float = 1e-3
    v_max: float = 48.0
    i0: Tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        check(i_d0=self.i0[0], i_q0=self.i0[1])
        if self.dt_plant > self.dt_ctrl:
            raise ValidationError("dt_plant", f"must not exceed dt_ctrl ({self.dt_plant} > {self.dt_ctrl})")
        ratio = self.dt_ctrl / self.dt_plant
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValidationError("dt_ctrl", "must be an integer multiple of dt_plant")
        n_sub = round(ratio)
        if n_sub > MAX_SUBSTEPS_PER_TICK:
            raise ValidationError("dt_plant", f"gives more than {MAX_SUBSTEPS_PER_TICK} substeps per control tick")
        ratio = self.duration / self.dt_ctrl
        if abs(ratio - round(ratio)) > 1e-6:
            raise ValidationError("duration", "must be an integer multiple of dt_ctrl")
        if round(ratio) < 1:
            raise ValidationError("duration", f"must be at least dt_ctrl ({self.duration} < {self.dt_ctrl})")
        if round(ratio) > MAX_TICKS_PER_RUN:
            raise ValidationError("duration", f"gives more than {MAX_TICKS_PER_RUN} control ticks")
        if n_sub * round(ratio) > MAX_SUBSTEPS_PER_RUN:
            raise ValidationError("dt_plant", f"gives more than {MAX_SUBSTEPS_PER_RUN} substeps per run")
        params, speed, dt = self.params, self.speed, self.dt_plant
        # rk4_plant_step's constants, not fields, so ==, repr and replace() do not see them: a constant profile's tick
        # is one closed-form map, a mechanical speed takes an Euler step, and any other profile runs the substep loop
        # within RK4's stability rule
        tick = mech = None
        if type(speed) is ConstantProfile:
            tick = _tick_map(params, speed.value, dt, n_sub)
        elif isinstance(speed, MechanicalModel):
            # the speed's Euler step, (y_q (c_1 + c_2 y_d) - tau_load - friction omega_m) dt/J: machine.torque in the
            # flux y = L i, with c_2 = 1.5 p (L_d - L_q)/(L_d L_q), which keeps the digits of L_d - L_q
            k_tau, k_m, load = 1.5 * params.p, dt / speed.inertia, speed.load_torque
            c_1, c_2 = params.psi / params.L_q * k_tau, (params.L_d - params.L_q) / params.L_q / params.L_d * k_tau
            # friction alone scales omega_m by 1 - friction dt/J per step, which shrinks it, as the exact speed
            # shrinks, only for friction dt/J < 2
            if not speed.friction * k_m < 2.0:
                raise ValidationError("speed", f"friction {speed.friction} gives friction*dt_plant/inertia "
                                      f"{speed.friction * k_m:.6g}, not below 2: the speed's Euler step grows")
            mech = (load, type(load) is not ConstantProfile, c_1, c_2, speed.friction, k_m)
        elif not dt <= (limit := rk4_limit(params, speed.peak)):
            raise ValidationError("dt_plant", f"must be at most {limit:.6g} s, where RK4 steps the plant "
                                  f"stably up to {speed.peak} rad/s")
        # the diagonal of the flux form's A and its h/k multiples, the h/k that scale the speed, psi and p
        a_d, a_q, h_k = -params.R / params.L_d, -params.R / params.L_q, (dt / 2.0, dt / 3.0, dt / 4.0)
        plant = (tick, range(n_sub), dt, *h_k, a_d, a_q, *(a_d * x for x in h_k), *(a_q * x for x in h_k),
                 params.L_d, params.L_q, params.psi, params.p)
        # the compiled twins load (and build, once) here, outside run_scenario, whose controllers' laws take them
        # too; every tick the map does not take runs the compiled loop, on the loop's floats packed as _kernels.c's
        # Plant, with the speed's Euler step and load_varies, or zeros and no load under a speed profile.  The
        # compiled run takes the plant's half of its arguments, the same packed Plant or the map packed as
        # _kernels.c's Map, with the profiles and n (see run_scenario)
        module, compiled, run = kernels.load(), None, None
        if module is not None:
            if tick is None:
                load, euler = (None, (0.0,) * 5) if mech is None else (mech[0], (*mech[2:], mech[1]))
                packed = struct.pack("21d", *plant[2:], *euler)
                compiled = functools.partial(module.tick, packed, speed, load, n_sub)
            else:
                load, packed = None, struct.pack("9d", *tick[0], *tick[1], tick[2])
            run = (packed, speed, load, n_sub, self.tau_ref)
        object.__setattr__(self, "_plant", (*plant, run, compiled, speed, mech))


class RunResult(Record):
    """Trace and summary figures of one scenario run, built once from the finished figures, so without defaults."""

    frames: list  # one ControlFrame per control tick
    cost_integral: float  # int |i|^2 dt, A^2 s
    copper_energy: float  # int 3/2 R |i|^2 dt, J
    rms_torque_error: float
    saturation_counts: dict  # {flag name: ticks with that flag set}
    aborted: bool


def rk4(f, x, t, h):
    """One classical RK4 step of dx/dt = f(x, t) from time t over h.

    Raises:
        NonFiniteStateError: if the new state is not finite.
    """
    import numpy as np

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
    import numpy as np

    n = round(duration / dt)
    xs = np.empty((n + 1, len(x0)))
    xs[0] = x0
    for k in range(n):
        xs[k + 1] = rk4(f, xs[k], k * dt, dt)
    return np.arange(n + 1) * dt, xs


def _mul(x, y):
    """The product of two 2x2 matrices, each a row-major tuple of floats."""
    a, b, c, d = x
    e, f, g, h = y
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _compose(x, y):
    """(D, S) of P^(a+b) from (D, S) of P^a and of P^b, where D = P^m - I and S = I + P + ... + P^(m-1).

    P^(a+b) - I = D_a + D_b + D_a D_b and S_(a+b) = S_a + P^a S_b.  D is kept apart from I, so that
    a P^m close to I keeps the digits of its deviation, which 1 + D would round away.
    """
    (d_a, s_a), (d_b, s_b) = x, y
    dd, ds = _mul(d_a, d_b), _mul(d_a, s_b)
    return (tuple(p + q + r for p, q, r in zip(d_a, d_b, dd)),
            tuple(p + q + r for p, q, r in zip(s_a, s_b, ds)))


def _tick_map(params, omega, h, n):
    """The n RK4 substeps of h at the held electrical speed ``omega`` as one affine map.

    At a held speed and voltage the plant is linear: y' = A y + v + e in
    ``rk4_plant_step``'s flux linkages, with A = (dh/di) L^-1.  One RK4
    substep is then exactly y -> P y + h T (v + e), with B = h A,
    T = I + B/2 + B^2/6 + B^3/24 and P = I + B T, RK4's stability
    polynomial (Hairer and Wanner, Solving ODEs II, IV.2); n substeps are
    y -> y + D y + h S T (v + e), with D = P^n - I and
    S = I + P + ... + P^(n-1), found by binary powering of ``_compose``.
    In the currents that is i -> i + L^-1 D L i + G (v + e), with
    G = L^-1 h S T, which equals L^-1 D L (dh/di)^-1 but needs no
    inverse.  Returns (D, G, e_q) in the currents, D and G row-major.  An
    entry overflows where RK4 is unstable and P^n does; every entry of D
    and G multiplies a finite number in the tick, so the mapped currents
    are then not finite either (inf * 0 is nan), and every tick raises
    ``NonFiniteStateError``, from the zero state too.
    """
    R, L_d, L_q = params.R, params.L_d, params.L_q
    b = (-R / L_d * h, omega * h, -omega * h, -R / L_q * h)
    t = (1.0, 0.0, 0.0, 1.0)
    for k in (4.0, 3.0, 2.0):  # T by Horner: I + B/2 (I + B/3 (I + B/4))
        bt = _mul(b, t)
        t = (1.0 + bt[0] / k, bt[1] / k, bt[2] / k, 1.0 + bt[3] / k)
    first = (_mul(b, t), (1.0, 0.0, 0.0, 1.0))  # (D, S) of P^1
    d_s = first
    for bit in bin(n)[3:]:
        d_s = _compose(d_s, d_s)
        if bit == "1":
            d_s = _compose(d_s, first)
    d, s = d_s
    st = _mul(s, t)
    d = (d[0], d[1] * (L_q / L_d), d[2] * (L_d / L_q), d[3])
    g = (st[0] * h / L_d, st[1] * h / L_d, st[2] * h / L_q, st[3] * h / L_q)
    return d, g, -params.psi * omega


def rk4_plant_step(i_d, i_q, omega_m, v_d, v_q, t, s, omega=None):
    """Step the plant of scenario ``s`` over one control tick from time t, v held; returns (i_d, i_q, omega_m).

    This docstring is the plant's contract.  The plant is stepped in the
    flux linkages y = L i, in which ``machine``'s voltage equations read
    y' = A y + w, with A = [[-R/L_d, omega], [-omega, -R/L_q]] and
    w = v + e, on constants that ``Scenario.__post_init__`` computes once
    per scenario and keeps beside the record's fields.

    At a ``ConstantProfile`` speed the tick's n = dt_ctrl/dt_plant
    substeps are one affine map, i + D i + G (v + e) (see ``_tick_map``):
    RK4's own result on the true ODE, rounded differently.  Every other
    speed source runs the substeps one by one, in one loop.  At a held
    speed and voltage a substep is exactly RK4's y += h T (A y + w), with
    T r applied by Horner, r + (hA/2)(r + (hA/3)(r + (hA/4) r)), and the
    back-EMF written into the q stage as -omega (y_d + psi); the currents
    are y / L at the end of the tick.  Each substep takes the speed's entries of hA/k from
    the electrical speed omega at its start and holds them for all four
    stages: wherever the speed varies, the loop is RK4 of a frozen-speed
    ODE, and the currents are first order in time (README gives the
    measured errors; ROADMAP item 19 is the fix).  At a speed profile
    omega is the profile's reading, and omega_m passes through.  In
    mechanical mode (a ``MechanicalModel`` speed) omega is p * omega_m,
    and after the currents omega_m takes one forward-Euler step, also
    first order: omega_m += (tau - tau_load - friction omega_m) dt/J,
    with ``machine.torque`` written in the flux, tau = y_q (c_1 + c_2 y_d).

    Every tick that the map does not take, under a varying speed profile
    and in mechanical mode at any load, runs as the loop's compiled twin,
    ``_kernels.tick`` (see ``kernels``), wherever ``kernels.load`` gives
    the module: one C function of two loops, one per mode, that share one
    substep body and do every float operation of the Python loop in the
    same order, on IEEE binary64, so its results are bit-identical to the
    loop's (the tests compare the ``float.hex`` of every value).  It calls
    a varying speed profile, and the load, from C, at the loop's times and
    in its order, so a profile sees the same calls, and an error it raises
    propagates as it is.  It is built with ``-O2 -std=c99
    -ffp-contract=off`` and no ``-ffast-math`` or ``-march``: no
    multiply-add is fused, nothing is reordered and no subnormal is
    flushed to zero, so each operation rounds as CPython's does.
    ``Scenario`` builds and loads it when it is constructed, so no run
    times the compile, and each tick calls it once, as a Python builtin.
    ``run_scenario``'s compiled run steps every tick of a torque-pipeline
    run after the first through the same C loop, and through the map's
    two lines in C at a constant speed, without calling this function.
    A substep costs about 0.025 us in mechanical mode at a constant load,
    and 0.1-0.3 us where a profile is called at every substep, nearly all
    of it the profile's call, against 0.5-0.9 us in the Python loop; a
    1-substep tick takes about 0.3-0.4 us, against 0.85-0.9 us in the
    loop.  The Python loop is the twin's reference, and runs every such
    tick where no compiler or ``Python.h``, a failed compile or an
    unwritable cache leaves no module to load, with the same numbers.

    ``omega``, when given, is the electrical speed the caller already
    took at t (``run_scenario`` passes the one it gave the controller);
    the loop takes it as its first substep's speed, and with None takes
    that sample here.  A ``ConstantProfile`` speed or load is read once
    per tick, at its first substep; any other profile is called again at
    every later substep, at t + j dt_plant.

    The tests hold every tick within 1e-12 of ``rk4`` on
    ``machine.dq_dynamics`` at the speeds the loop holds, and within 1e-14
    of those steps in exact arithmetic for n <= 7, in flux linkage: the
    map at every dt_plant the domain takes, stable or not (the 1e-12
    against the loop only where RK4's rule holds), the loop under a speed
    profile (which that rule keeps stable) and in mechanical mode where
    h|A| <= 2.  The loop's 1e-14 is a share of the
    largest flux the exact tick passes through, since a tick's currents
    can swing far past both ends.

    The currents are checked once, at the end of the tick, whichever way
    it took: inf or nan survives the later substeps' +, - and x with
    finite numbers and / by the positive L_d and L_q.  So a mapped tick
    whose currents are not finite (the map's entries overflow where RK4
    is unstable, or its products do) raises, as the loop's would; the map
    has no fallback to the loop.

    Raises:
        NonFiniteStateError: if the currents at the end of the tick are not finite.
    """
    (tick, substeps, dt, h2, h3, h4, a_d, a_q, a2_d, a3_d, a4_d, a2_q, a3_q, a4_q, L_d, L_q, psi, p, _, compiled,
     speed, mech) = s._plant
    if tick is None and omega is None:
        omega = speed(t) if mech is None else p * omega_m
    if tick is not None:
        (d_dd, d_dq, d_qd, d_qq), (g_dd, g_dq, g_qd, g_qq), e_q = tick
        w_q = v_q + e_q
        i_d, i_q = (i_d + (d_dd * i_d + d_dq * i_q) + (g_dd * v_d + g_dq * w_q),
                    i_q + (d_qd * i_d + d_qq * i_q) + (g_qd * v_d + g_qq * w_q))
    elif compiled is not None:  # the loop below, compiled
        i_d, i_q, omega_m = compiled(i_d, i_q, omega_m, v_d, v_q, t, omega)
    else:
        y_d, y_q = L_d * i_d, L_q * i_q
        if mech is not None:
            load, load_varies, c_1, c_2, friction, k_m = mech
            tau_load = load(t)
        for j in substeps:
            if mech is None and j:  # a varying speed profile: a constant one took the map
                omega = speed(t + j * dt)
            # the speed's entries of hA/k; the back-EMF -omega psi joins the q stage as the flux y_d + psi
            o2, o3, o4 = h2 * omega, h3 * omega, h4 * omega
            r_d, r_q = a_d * y_d + omega * y_q + v_d, a_q * y_q - omega * (y_d + psi) + v_q
            x_d, x_q = r_d + (a4_d * r_d + o4 * r_q), r_q + (a4_q * r_q - o4 * r_d)
            x_d, x_q = r_d + (a3_d * x_d + o3 * x_q), r_q + (a3_q * x_q - o3 * x_d)
            y_d, y_q = y_d + dt * (r_d + (a2_d * x_d + o2 * x_q)), y_q + dt * (r_q + (a2_q * x_q - o2 * x_d))
            if mech is not None:
                if load_varies and j:
                    tau_load = load(t + j * dt)
                omega_m += (y_q * (c_1 + c_2 * y_d) - tau_load - friction * omega_m) * k_m
                omega = p * omega_m
        i_d, i_q = y_d / L_d, y_q / L_q
    if not (math.isfinite(i_d) and math.isfinite(i_q)):
        raise NonFiniteStateError(f"state diverged: [{i_d}, {i_q}]")
    return i_d, i_q, omega_m


def run_scenario(scenario, controller="oflc", settings=ControllerSettings()):
    """Simulate a scenario with zero-order-hold control; deterministic.

    ``controller`` is a ``loop.CONTROLLERS`` name, built with ``settings``
    (which ``id_zero`` does not use); anything else raises ValueError.

    Tick k reads the speed (the profile at t = k dt_ctrl, or p omega_m in
    mechanical mode) and then tau_ref at t, runs the controller's
    ``step``, keeps its frame and steps the plant by ``rk4_plant_step``;
    the first tick whose currents are not finite keeps its frame and ends
    the run as aborted.  Where the compiled twins load and the law is
    compiled, an ``oflc`` or ``flc_z0`` run takes tick 0 so, and then
    every later tick in one call of ``_kernels.run``, this loop's compiled
    twin: ``TorqueController.step``'s float operations, the law, the held
    voltage at a degenerate b and the plant step, by the map or by the one
    C copy of the substep loop, every float operation and profile call in
    this loop's order, so its frames are bit-identical (the tests compare
    the ``float.hex`` and type of every field).  The controller binds its
    half of the call, the law's and the tick's packed constants, and the
    scenario its own: the packed plant or tick map, the profiles and n.
    A ctrl_dense tick takes about 1.2-2.2 us so, against 2.5-4.5 us a tick
    of this loop with the compiled law and plant tick (in process, best of
    9, 2-vCPU host, Python 3.11, gcc 12).  ``id_zero``, a law with a
    non-float constant and a host where the module does not load run
    every tick here.
    """
    s = scenario
    if not (isinstance(controller, str) and controller in CONTROLLERS):
        raise ValueError(f"unknown controller {controller!r}; expected one of {tuple(CONTROLLERS)}")
    ctrl = CONTROLLERS[controller](s, settings)

    dt_ctrl, speed, tau_ref, p = s.dt_ctrl, s.speed, s.tau_ref, s.params.p
    n_ctrl = round(s.duration / dt_ctrl)
    i_d, i_q = s.i0
    mechanical = isinstance(speed, MechanicalModel)
    omega_m = speed.omega0 if mechanical else 0.0  # mechanical, mechanical mode only
    frames = []
    aborted = False
    # the compiled run, where the controller binds its half and the scenario its own
    run = s._plant[-4] is not None and getattr(ctrl, "_run", None)

    for k in range(n_ctrl):
        t = k * dt_ctrl
        omega_e = p * omega_m if mechanical else speed(t)
        frame = ctrl.step(t, omega_e, (i_d, i_q), tau_ref(t))
        frames.append(frame)
        try:
            i_d, i_q, omega_m = rk4_plant_step(i_d, i_q, omega_m, frame.v_d, frame.v_q, t, s, omega_e)
        except NonFiniteStateError:
            aborted = True
            break
        if run:  # ticks 1 .. n_ctrl - 1, in one call
            aborted = run(*s._plant[-4], frames, n_ctrl, i_d, i_q, omega_m, ctrl.integrator, *ctrl._v_prev)
            break

    cost, copper = energy_accounting(frames)
    # e * e and a plain sum overflow to inf, where e ** 2 and math.fsum raise OverflowError
    rms_error = math.sqrt(sum((e := f.tau_ref - f.tau_est) * e for f in frames) / len(frames))
    # one pass over the trace: the ticks of each distinct flags value, then their bits
    ticks_by_flags = Counter(f.flags for f in frames)
    saturation_counts = {name: sum(n for flags, n in ticks_by_flags.items() if flags >> k & 1)
                         for k, name in enumerate(FLAG_NAMES)}
    return RunResult(frames, cost, copper, rms_error, saturation_counts, aborted)


def energy_accounting(frames):
    """Trapezoidal integrals of |i|^2 and copper power over a trace, summed tick by tick.

    Each interval adds dt (y_k+1 + y_k) / 2, the term of ``np.trapezoid``;
    only the order of the sum differs from numpy's pairwise one.  Each
    frame's t, |i|^2 and copper power are read once and carried to the
    next interval.
    """
    cost = copper = 0.0
    if not frames:
        return cost, copper
    a = frames[0]
    t_a, sq_a, p_a = a.t, a.i_d * a.i_d + a.i_q * a.i_q, a.p_copper_W
    for b in frames[1:]:
        t_b, sq_b, p_b = b.t, b.i_d * b.i_d + b.i_q * b.i_q, b.p_copper_W
        dt = t_b - t_a
        cost += dt * (sq_b + sq_a) / 2.0
        copper += dt * (p_b + p_a) / 2.0
        t_a, sq_a, p_a = t_b, sq_b, p_b
    return cost, copper


def run_open_loop(params, v_fn, omega_fn, i0, duration, dt):
    """Integrate the plant under a prescribed smooth voltage ``v_fn(t)``.

    v is evaluated inside the RK4 stages (no zero-order hold); returns
    (t, i) with i of shape (N+1, 2).  Test utility for trajectory-level
    identities.
    """
    return _rk4_trajectory(lambda i, t: dq_dynamics(i, v_fn(t), omega_fn(t), params), i0, duration, dt)


class ContinuousRun(Record):
    """Sampled trajectory of a continuous-control closed-loop run."""

    t: "np.ndarray"
    i: "np.ndarray"  # (N, 2)
    tau: "np.ndarray"
    u: "np.ndarray"  # clamped torque command actually applied at samples
    clamped: "np.ndarray"  # bool per sample


def run_continuous(params, v_max, u_profile, omega_profile, duration, dt,
                   use_z=True, i0=(0.0, 0.0), z_smoothing=0.0):
    """Integrate the closed loop with control re-evaluated at every stage.

    ``u_profile(t)`` is the raw torque command (no PI loop) and
    ``omega_profile(t)`` the electrical speed.  Realizes the
    continuous-time behaviour tau + mu dtau/dt = u exactly up to
    integrator error.  The law is built once, by ``loop.control_law``,
    with the costate horizon of ``Scenario`` and the alpha_z of
    ``ControllerSettings``, their defaults.  The sampled u and clamped
    are those the law returns at each sample, in the first RK4 stage of
    the step leaving it.

    ``z_smoothing`` > 0 selects the smoothed z rule of
    ``optimizer.optimal_z``: the exact bang-bang rule makes this closed
    loop a sliding mode that a fixed-step integrator cannot resolve.
    """
    import numpy as np

    law = control_law(params, v_max, Scenario.horizon, ControllerSettings.alpha_z, use_z, z_smoothing)
    applied = []  # the law's u and clamp flag at every RK4 stage, 4 per step

    def deriv(i, t):
        omega = float(omega_profile(t))
        # a tuple of floats, which the compiled law computes: it hands a list to composed_control_law
        v_d, v_q, u, _, _, _, _, flags = law(tuple(i.tolist()), omega, float(u_profile(t)))
        applied.append((u, bool(flags & U_CLAMPED)))
        return dq_dynamics(i, (v_d, v_q), omega, params)

    ts, states = _rk4_trajectory(deriv, i0, duration, dt)
    deriv(states[-1], ts[-1])  # the law at the last sample; the derivative goes unused
    u, clamped = map(np.array, zip(*applied[::4]))  # each step's first stage is at its starting sample
    return ContinuousRun(t=ts, i=states, tau=np.array([torque(i, params) for i in states]), u=u, clamped=clamped)
