"""Time profiles for reference torque, speed and load torque.

Each profile is a small frozen ``records.Record`` callable as
``profile(t)``; the ``kind`` tag and field names round-trip through the
scenario config format.  The five classes of ``PROFILES`` are the only
time functions a ``sim.Scenario`` or ``sim.MechanicalModel`` takes.  A
profile's numbers are Python floats (see ``records``), so a profile
called at a float time returns a float.  Every number of a profile must be finite,
except +inf where it is the field's default (the open end times of a
trapezoid).  A profile's ``peak`` bounds each finite |value|, up to rounding.
"""

import math
from bisect import bisect_right
from typing import Tuple

from .errors import ValidationError
from .records import Record, fields

__all__ = ["ConstantProfile", "StepProfile", "SinusoidProfile", "TrapezoidProfile", "TableProfile"]


class _Profile(Record):
    """Base of the profile records: checks that their numbers are finite."""

    def __post_init__(self):
        for f in fields(self):
            # inf stays allowed where it is the default: serialize_config writes it for an open trapezoid end
            open_end = f.default == math.inf
            value = getattr(self, f.name)
            for x in value if f.type == Tuple[float, ...] else (value,):
                if not (math.isfinite(x) or open_end and x == math.inf):
                    raise ValidationError(f.name, f"must not be nan or {'-inf' if open_end else 'infinite'}")


class ConstantProfile(_Profile):
    value: float

    kind = "constant"
    peak = property(lambda self: abs(self.value))

    def __call__(self, t):
        return self.value


class StepProfile(_Profile):
    initial: float
    final: float
    t_step: float

    kind = "step"
    peak = property(lambda self: max(abs(self.initial), abs(self.final)))

    def __call__(self, t):
        return self.final if t >= self.t_step else self.initial


class SinusoidProfile(_Profile):
    amplitude: float
    frequency: float  # Hz
    offset: float = 0.0
    phase: float = 0.0  # rad

    kind = "sinusoid"
    peak = property(lambda self: abs(self.offset) + abs(self.amplitude))

    def __post_init__(self):
        super().__post_init__()
        # (2 pi f) t is the order the phase was always evaluated in.  Not a field, so ==, repr and replace() do
        # not see it; set as Scenario._plant is, which keeps the instance layout
        object.__setattr__(self, "_two_pi_f", 2.0 * math.pi * self.frequency)

    def __call__(self, t):
        x = self._two_pi_f * t + self.phase  # inf past the largest float: math.sin raises on it
        return self.offset + self.amplitude * (math.sin(x) if math.isfinite(x) else math.nan)


class TrapezoidProfile(_Profile):
    """Ramp from ``initial`` to ``final`` over [t0, t1], hold, optionally
    ramp back to ``initial`` over [t2, t3]."""

    initial: float
    final: float
    t0: float
    t1: float
    t2: float = math.inf
    t3: float = math.inf

    kind = "trapezoid"
    peak = property(lambda self: max(abs(self.initial), abs(self.final)))

    def __call__(self, t):
        if t <= self.t0:
            return self.initial
        if t < self.t1:
            return self.initial + (self.final - self.initial) * (t - self.t0) / (self.t1 - self.t0)
        if t <= self.t2:
            return self.final
        if t < self.t3:
            return self.final + (self.initial - self.final) * (t - self.t2) / (self.t3 - self.t2)
        return self.initial


class TableProfile(_Profile):
    """Piecewise-linear interpolation through (times, values) breakpoints.

    Equal to ``np.interp(t, times, values)`` bit for bit, including its
    retry from the right breakpoint when the interpolant is nan (an
    infinite slope times zero); outside the table it holds the end values.
    """

    times: Tuple[float, ...]
    values: Tuple[float, ...]

    kind = "table"
    peak = property(lambda self: max(map(abs, self.values)))

    def __post_init__(self):
        super().__post_init__()
        if len(self.times) < 2:
            raise ValidationError("times", "a table needs at least two points")
        if len(self.values) != len(self.times):
            raise ValidationError("values", f"needs one value per time, got {len(self.values)} for {len(self.times)}")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValidationError("times", "must be strictly increasing")

    def __call__(self, t):
        times, values = self.times, self.values
        j = bisect_right(times, t) - 1  # times[j] <= t < times[j + 1]
        if j < 0:
            return values[0]
        if j >= len(times) - 1:
            return values[-1]
        if t == times[j]:
            return values[j]
        slope = (values[j + 1] - values[j]) / (times[j + 1] - times[j])
        y = slope * (t - times[j]) + values[j]
        if y != y:
            y = slope * (t - times[j + 1]) + values[j + 1]
            if y != y and values[j] == values[j + 1]:
                y = values[j]
        return y


# the profile classes, matched by exact type where a time function is taken
PROFILES = (ConstantProfile, StepProfile, SinusoidProfile, TrapezoidProfile, TableProfile)
