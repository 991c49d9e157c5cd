"""dq-frame electrical model of a salient-pole PM synchronous machine.

Conventions used throughout the package:

* current and voltage vectors are ordered ``[d, q]``: (d, q) pairs of
  Python floats everywhere but in the array forms ``park_matrix``,
  ``inverse_park_matrix``, ``park_clarke``, ``inverse_park_clarke`` and
  ``dq_dynamics`` (the right-hand side that ``sim.rk4`` integrates), each
  of which imports numpy in its own body (README's Install gives why);
* the machine model is stated here only: ``torque``, ``torque_gradient``
  and ``torque_hessian``, and the voltage equations L di/dt = h(i, omega)
  + v, whose drift ``voltage_drift`` is (dh/di) i + e over the Jacobian
  ``dh_di`` and the back-EMF e = (0, -psi omega).  The Python law,
  ``loop.composed_control_law``, calls them through the step functions
  of ``linearization`` and ``optimizer``.  Two inline copies exist, each
  for speed and each tied to its reference by a test:
  ``sim.rk4_plant_step`` restates the voltage equations in the flux
  linkages L i and in mechanical mode copies ``torque``, tied in
  ``tests/test_sim.py`` to ``sim.rk4`` on ``dq_dynamics`` and to
  ``torque`` within a tolerance (its docstring is the plant's contract);
  and ``loop.TorqueController.step`` copies ``torque``, tied in
  ``tests/test_loop.py`` to it.  ``_kernels.c`` holds C twins of the law
  (``law``) and of the whole substep loop, under every speed source
  (``tick``), tied bit for bit to ``loop.composed_control_law`` and to
  the Python loop in those two test files; the law's twin takes
  0.2-0.3 us a call, the composition 5-9 us;
* ``theta`` is the mechanical shaft angle in radians; the transforms use
  the electrical angle ``p * theta``;
* ``omega`` is the electrical-frame speed in rad/s (the speed that
  multiplies the cross-coupling and back-EMF terms of the voltage
  equations).  Mechanical speed is ``omega / p``.

All functions here are pure and safe to call concurrently.
"""

import math

from .records import Record

__all__ = [
    "MachineParams",
    "park_matrix",
    "inverse_park_matrix",
    "park_clarke",
    "inverse_park_clarke",
    "torque",
    "torque_gradient",
    "torque_hessian",
    "dq_dynamics",
    "voltage_drift",
    "dh_di",
]

_TWO_THIRDS_PI = 2.0 * math.pi / 3.0


class MachineParams(Record):
    """Electrical constants of the machine.

    Attributes:
        R: stator resistance (ohm)
        L_d: d-axis inductance (henry)
        L_q: q-axis inductance (henry)
        psi: permanent-magnet flux linkage / back-EMF constant (weber)
        p: pole pairs
    """

    R: float
    L_d: float
    L_q: float
    psi: float
    p: int

    @property
    def eta(self):
        """Inductance ratio L_q/L_d - 1 (zero for a non-salient machine)."""
        return self.L_q / self.L_d - 1.0

    @property
    def mu(self):
        """Machine time constant L_q/R in seconds."""
        return self.L_q / self.R


def park_matrix(theta, p):
    """2x3 transform from phase quantities to the rotating dq frame."""
    import numpy as np

    a = p * theta
    return (2.0 / 3.0) * np.array(
        [
            [np.cos(a), np.cos(a - _TWO_THIRDS_PI), np.cos(a + _TWO_THIRDS_PI)],
            [np.sin(a), np.sin(a - _TWO_THIRDS_PI), np.sin(a + _TWO_THIRDS_PI)],
        ]
    )


def inverse_park_matrix(theta, p):
    """3x2 transform from the dq frame back to phase quantities."""
    import numpy as np

    a = p * theta
    return np.array(
        [
            [np.cos(a), np.sin(a)],
            [np.cos(a - _TWO_THIRDS_PI), np.sin(a - _TWO_THIRDS_PI)],
            [np.cos(a + _TWO_THIRDS_PI), np.sin(a + _TWO_THIRDS_PI)],
        ]
    )


def park_clarke(theta, abc, params):
    """Map per-phase quantities (a, b, c) to the dq pair [d, q]."""
    import numpy as np

    return park_matrix(theta, params.p) @ np.asarray(abc, dtype=float)


def inverse_park_clarke(theta, dq, params):
    """Map a dq pair [d, q] to per-phase quantities (a, b, c)."""
    import numpy as np

    return inverse_park_matrix(theta, params.p) @ np.asarray(dq, dtype=float)


def torque(i, params):
    """Electromagnetic torque (N*m) at dq currents ``i = [i_d, i_q]``."""
    i_d, i_q = i
    return 1.5 * params.p * (params.psi * i_q + (params.L_d - params.L_q) * i_d * i_q)


def torque_gradient(i, params):
    """Gradient (dtau/di_d, dtau/di_q) of ``torque`` at ``i = [i_d, i_q]``; affine in i."""
    i_d, i_q = i
    k, saliency = 1.5 * params.p, params.L_d - params.L_q
    return k * saliency * i_q, k * (params.psi + saliency * i_d)


def torque_hessian(params):
    """Off-diagonal entry d2tau/di_d di_q = 3p/2 (L_d - L_q) of the constant Hessian; its diagonal is zero."""
    return 1.5 * params.p * (params.L_d - params.L_q)


def voltage_drift(i, omega, params):
    """Drift h = (dh/di) i + e of L di/dt = h(i, omega) + v, with the back-EMF e = (0, -psi omega); (h_d, h_q)."""
    i_d, i_q = i
    (h_dd, h_dq), (h_qd, h_qq) = dh_di(omega, params)
    return h_dd * i_d + h_dq * i_q, h_qd * i_d + h_qq * i_q - params.psi * omega


def dh_di(omega, params):
    """Jacobian of the drift h with respect to the currents, by rows."""
    return ((-params.R, params.L_q * omega),
            (-params.L_d * omega, -params.R))


def dq_dynamics(i, v, omega, params):
    """Current derivatives d[i_d, i_q]/dt under voltages v at speed omega, as an array."""
    import numpy as np

    h_d, h_q = voltage_drift(i, omega, params)
    return np.array(((h_d + v[0]) / params.L_d, (h_q + v[1]) / params.L_q))
