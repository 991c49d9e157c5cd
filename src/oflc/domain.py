"""The physical domain: the range of every run input, a sub-watt servo to a megawatt traction machine with a decade to
spare (the README gives sources), so that each derived constant is a normal float and every profile reading in a run
is finite.

A record checks each of its number fields named by a key of ``RANGES`` when built (see ``records``); a
``sim.MechanicalModel``'s speed is mechanical.  The other keys are checked where their value is taken:
``Scenario``'s initial currents ``i_d0`` and ``i_q0``, a mechanical model's ``load`` (its load torque's peak) and the
smoothed z rule's width ``z_smoothing`` in s = n L^-1 lambda.  ``rk4_limit`` is RK4's stability rule on a speed;
``sim.Scenario`` alone decides which speeds it bounds.
"""

import math

from .errors import ValidationError

__all__ = ["RANGES", "RK4_RADIUS", "check", "rk4_limit"]

# name -> (lowest, highest, unit); a profile value's unit is that of the quantity it gives (N m or rad/s)
RANGES = {
    "R": (1e-4, 1e3, "ohm"),
    "L_d": (1e-6, 1.0, "H"), "L_q": (1e-6, 1.0, "H"),
    "psi": (1e-4, 1e2, "Wb"),
    "p": (1, 100, "pole pairs"),
    "v_max": (1.0, 1e4, "V"),
    "dt_plant": (1e-10, 1e-1, "s"),
    "dt_ctrl": (1e-10, 1.0, "s"),
    "duration": (1e-10, 1e4, "s"),
    "horizon": (1e-6, 1.0, "s"),
    "i_d0": (-1e5, 1e5, "A"), "i_q0": (-1e5, 1e5, "A"),
    "inertia": (1e-9, 1e4, "kg m^2"),
    "friction": (0.0, 1e3, "N m s"),
    "load": (-1e6, 1e6, "N m"),
    "omega0": (-1e5, 1e5, "rad/s"),
    "z_smoothing": (1e-6, 1e6, "A^2/V"),
    "kp": (0.0, 1e6, ""), "ki": (0.0, 1e9, "1/s"),
    "alpha_z": (1e-6, 1.0, ""),
    **dict.fromkeys(("value", "initial", "final", "amplitude", "offset", "values"), (-1e10, 1e10, "")),
    **dict.fromkeys(("t_step", "t0", "t1", "times"), (-1e4, 1e4, "s")),
    "t2": (-1e4, math.inf, "s"), "t3": (-1e4, math.inf, "s"),  # +inf: a trapezoid that never ramps back
    "frequency": (-5e9, 5e9, "Hz"),
    "phase": (-1e4, 1e4, "rad"),
}
RK4_RADIUS = 2.0  # the largest h |A| of a substep of the loop under a varying speed profile (see the README)


def check(**values):
    """Raise ValidationError naming the bare ``name`` for the first value outside its ``RANGES[name]``; a caller that
    reads a config section names the section through ``config.build``."""
    for name, value in values.items():
        low, high, unit = RANGES[name]
        if not low <= value <= high:
            bounds = f"[{low:g}, {high:g}] {unit}".rstrip()  # a unitless range ends at its bracket
            raise ValidationError(name, f"must be in {bounds}, got {value}")


def rk4_limit(params, peak):
    """The largest dt_plant with h (max(R/L_d, R/L_q) + peak) <= RK4_RADIUS: the substep loop steps the plant stably
    up to the electrical speed ``peak``."""
    return RK4_RADIUS / (max(params.R / params.L_d, params.R / params.L_q) + peak)
