"""Optimal feedback-linearization torque control of salient-pole PMSMs.

Library + CLI simulator: torque-exact feedback linearization with an
orthogonal, Pontryagin-optimal copper-loss-minimizing channel, validated
against a simulated dq-frame plant.
"""

from .errors import (
    ConfigError,
    DegenerateBError,
    NegativeDiscriminantError,
    NonFiniteStateError,
    OflcError,
    OrthogonalityViolation,
    ParseError,
    PoorFitError,
    ValidationError,
)
from .linearization import LinearizationTerms, compute_terms, linearize
from .loop import ControlFrame, ControllerSettings, TorqueController, closed_loop_tf_check
from .machine import MachineParams, dq_dynamics, inverse_park_clarke, park_clarke, torque
from .optimizer import (
    clamp_torque_command,
    costate_matrices,
    estimate_costate,
    hamiltonian,
    optimal_z,
    z_limit,
)
from .profiles import ConstantProfile, SinusoidProfile, StepProfile, TableProfile, TrapezoidProfile
from .sim import (
    ContinuousRun,
    MechanicalModel,
    RunResult,
    Scenario,
    energy_accounting,
    rk4_plant_step,
    run_continuous,
    run_scenario,
)
from .config import parse_config, serialize_config

__version__ = "0.1.0"
