"""Exception types shared across the package."""


class OflcError(Exception):
    """Base class for package errors."""


class DegenerateBError(OflcError):
    """The torque-channel direction b has (numerically) zero length.

    The torque channel is uncontrollable at such a state; the controller
    holds its previous voltage and flags the tick.
    """


class OrthogonalityViolation(OflcError):
    """A z passed to ``linearization.linearize`` is not orthogonal to b within tolerance."""


class NegativeDiscriminantError(OflcError):
    """A u outside the clamp band was passed to ``optimizer.z_limit``: its voltage budget for z is negative."""


class NonFiniteStateError(OflcError):
    """Plant state left the finite range during integration."""


class PoorFitError(OflcError):
    """First-order step-response fit residual exceeds threshold."""


class ConfigError(OflcError):
    """Base class for errors in what configures a run: the scenario file, its values and the command line."""


class ParseError(ConfigError):
    """Config document is not well formed."""


class ValidationError(ConfigError, ValueError):
    """Config parsed but violates a scenario invariant (a ValueError too)."""

    def __init__(self, field, reason):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")
