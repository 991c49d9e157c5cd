"""The physical domain: the range of every machine, scenario and load input, a sub-watt servo to a megawatt traction
machine with a decade to spare (the README gives sources), so that each derived constant is a normal float."""

from .errors import ValidationError

__all__ = ["RANGES", "RK4_RADIUS", "check", "rk4_limit"]

# name -> (lowest, highest, unit): the fields of MachineParams, Scenario and MechanicalModel (whose speed is
# mechanical, and whose load is its load torque's peak), and the smoothed z rule's width in s = n L^-1 lambda
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
}
RK4_RADIUS = 2.0  # the largest h |A| of a substep of the loop under a varying speed profile (see the README)


def check(prefix="", **values):
    """Raise ValidationError naming ``prefix + name`` for the first value outside its ``RANGES[name]``."""
    for name, value in values.items():
        low, high, unit = RANGES[name]
        if not low <= value <= high:
            raise ValidationError(prefix + name, f"must be in [{low:g}, {high:g}] {unit}, got {value}")


def rk4_limit(params, speed):
    """The largest dt_plant with h (max(R/L_d, R/L_q) + |omega|) <= RK4_RADIUS up to a varying speed profile's
    ``peak``, or None: a constant profile's tick is one closed-form map, and a mechanical speed is not known ahead."""
    if speed.kind not in ("constant", "mechanical"):
        return RK4_RADIUS / (max(params.R / params.L_d, params.R / params.L_q) + speed.peak)
    return None
