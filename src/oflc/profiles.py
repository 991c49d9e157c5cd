"""Time profiles for reference torque, speed and load torque.

Each profile is a small frozen ``records.Record`` callable as
``profile(t)``; the ``kind`` tag and field names round-trip through the
scenario config format.  The five classes of ``PROFILES``, the members
of the ``Profile`` union, are the only time functions a ``sim.Scenario``
or ``sim.MechanicalModel`` takes.  A profile's numbers are Python floats
(see ``records``), each inside its ``domain.RANGES``, and a table's
times at least the smallest dt_plant apart; README's physical-domain
section gives why every reading at a time of a run is then finite.  A
profile's ``peak`` bounds each |value| up to rounding.
"""

import math
from bisect import bisect_right
from typing import Tuple, Union

from .domain import RANGES
from .errors import ValidationError
from .records import Record

__all__ = ["ConstantProfile", "StepProfile", "SinusoidProfile", "TrapezoidProfile", "TableProfile"]


class ConstantProfile(Record):
    value: float

    kind = "constant"
    peak = property(lambda self: abs(self.value))

    def __call__(self, t):
        return self.value


class StepProfile(Record):
    initial: float
    final: float
    t_step: float

    kind = "step"
    peak = property(lambda self: max(abs(self.initial), abs(self.final)))

    def __call__(self, t):
        return self.final if t >= self.t_step else self.initial


class SinusoidProfile(Record):
    """offset + amplitude sin(2 pi frequency t + phase), its phase taken left to right as written at every call."""

    amplitude: float
    frequency: float  # Hz
    offset: float = 0.0
    phase: float = 0.0  # rad

    kind = "sinusoid"
    peak = property(lambda self: abs(self.offset) + abs(self.amplitude))

    def __call__(self, t):
        x = 2.0 * math.pi * self.frequency * t + self.phase  # inf for t near the largest float, where math.sin raises
        return self.offset + self.amplitude * (math.sin(x) if math.isfinite(x) else math.nan)


class TrapezoidProfile(Record):
    """Ramp from ``initial`` to ``final`` over [t0, t1], hold, optionally
    ramp back to ``initial`` over [t2, t3].

    A ramp reads its elapsed share of the span, a fraction in [0, 1],
    times the step; so every reading lies between the ends up to a
    rounding of the sum, however short the span.
    """

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
            return self.initial + (t - self.t0) / (self.t1 - self.t0) * (self.final - self.initial)
        if t <= self.t2:
            return self.final
        if t < self.t3:
            return self.final + (t - self.t2) / (self.t3 - self.t2) * (self.initial - self.final)
        return self.initial


class TableProfile(Record):
    """Piecewise-linear interpolation through (times, values) breakpoints.

    Equal to ``np.interp(t, times, values)`` bit for bit; outside the
    table it holds the end values.  The domain bounds each slope by
    2e10 / 1e-10, so np.interp's retry for a nan interpolant (an infinite
    slope times zero) never applies.
    """

    times: Tuple[float, ...]
    values: Tuple[float, ...]

    kind = "table"
    peak = property(lambda self: max(map(abs, self.values)))

    def __post_init__(self):
        if len(self.times) < 2:
            raise ValidationError("times", "a table needs at least two points")
        if len(self.values) != len(self.times):
            raise ValidationError("values", f"needs one value per time, got {len(self.values)} for {len(self.times)}")
        gap = RANGES["dt_plant"][0]  # which bounds every slope
        if any(b - a < gap for a, b in zip(self.times, self.times[1:])):
            raise ValidationError("times", f"must be strictly increasing, at least {gap:g} s apart")

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
        return slope * (t - times[j]) + values[j]


# the profile classes; a field annotated ``Profile`` holds exactly one of them (see ``records``)
PROFILES = (ConstantProfile, StepProfile, SinusoidProfile, TrapezoidProfile, TableProfile)
Profile = Union[PROFILES]
