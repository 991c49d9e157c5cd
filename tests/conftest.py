import numpy as np
import pytest
from hypothesis import Phase, settings

from oflc import kernels
from oflc.machine import MachineParams

# The property tests draw the same capped set of examples on every run.  No
# explain phase: it traces every line and took minutes on one failing example.
settings.register_profile("oflc", derandomize=True, max_examples=200, database=None, deadline=None,
                          phases=(Phase.explicit, Phase.generate, Phase.shrink))
# Fresh random draws, 10 000 per property, to size a tolerance on many examples:
# pytest --hypothesis-profile=oflc-sizing, which overrides the load below.
settings.register_profile("oflc-sizing", derandomize=False, max_examples=10_000, database=None, deadline=None)
settings.load_profile("oflc")

# reference machine used throughout the tests:
# eta = 2/3, mu = 0.01 s
P0 = MachineParams(R=0.5, L_d=3e-3, L_q=5e-3, psi=0.1, p=4)

# non-salient variant (L_d = L_q)
P_NS = MachineParams(R=0.5, L_d=4e-3, L_q=4e-3, psi=0.1, p=4)

V_MAX = 48.0

# where the compiled twins run: oflc.kernels builds or finds the module, as no compiler, no Python.h or an
# unwritable cache may keep it from doing
COMPILER = kernels.load() is not None


def tick_scenario(params, dt_plant, n_sub, speed=0.0, **kw):
    """A one-tick scenario whose ``sim.rk4_plant_step`` runs ``n_sub`` substeps of dt_plant.

    A number is taken as a constant speed; pass a ``MechanicalModel`` as
    ``speed`` for mechanical mode.
    """
    from oflc.profiles import ConstantProfile
    from oflc.sim import Scenario

    if isinstance(speed, (int, float)):
        speed = ConstantProfile(float(speed))
    return Scenario(params=params, duration=n_sub * dt_plant, tau_ref=ConstantProfile(0.0), speed=speed,
                    dt_plant=dt_plant, dt_ctrl=n_sub * dt_plant, **kw)


@pytest.fixture
def p0():
    return P0


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_state(rng, params, i_range=20.0, omega_range=300.0):
    """Random (i, omega) away from the degenerate-b manifold."""
    from oflc.errors import DegenerateBError
    from oflc.linearization import compute_terms

    while True:
        i = rng.uniform(-i_range, i_range, 2)
        omega = rng.uniform(-omega_range, omega_range)
        try:
            terms = compute_terms(i, omega, params)
        except DegenerateBError:
            continue
        if np.sqrt(terms.b_norm_sq) > 1e-2:
            return i, omega, terms
