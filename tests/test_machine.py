import sys

import numpy as np
import pytest

from conftest import P0, P_NS
from oflc.domain import RANGES
from oflc.errors import ValidationError
from oflc.machine import (
    MachineParams,
    dq_dynamics,
    inverse_park_clarke,
    park_clarke,
    torque,
    torque_gradient,
    torque_hessian,
    voltage_drift,
)


def test_derived_constants():
    assert P0.eta == pytest.approx(2.0 / 3.0)
    assert P0.mu == pytest.approx(0.01)


@pytest.mark.parametrize("bad", [
    dict(R=-1.0), dict(L_d=0.0), dict(L_q=-2e-3), dict(psi=0.0), dict(p=0),
])
def test_param_validation(bad):
    kwargs = dict(R=0.5, L_d=3e-3, L_q=5e-3, psi=0.1, p=4)
    kwargs.update(bad)
    with pytest.raises(ValueError):
        MachineParams(**kwargs)


def test_inductances_are_normal_floats():
    # the plant steps the flux linkages L i, which a subnormal inductance underflows: a subnormal constant lies far
    # below the domain, while its smallest inductance is taken
    base = dict(R=0.5, L_d=3e-3, L_q=5e-3, psi=0.1, p=4)
    for name in ("R", "L_d", "L_q", "psi"):
        with pytest.raises(ValidationError, match=f"^{name}: must be in "):
            MachineParams(**dict(base, **{name: 1e-310}))
    for name in ("L_d", "L_q"):
        assert getattr(MachineParams(**dict(base, **{name: RANGES[name][0]})), name) >= sys.float_info.min


def test_park_clarke_aligned_phase_a():
    np.testing.assert_allclose(park_clarke(0.0, (1.0, -0.5, -0.5), P0), [1.0, 0.0], atol=1e-15)


def test_park_clarke_zero_input():
    np.testing.assert_allclose(park_clarke(0.321, (0.0, 0.0, 0.0), P0), [0.0, 0.0])


def test_park_clarke_quarter_electrical_turn():
    # p*theta = pi/2 rotates the balanced set fully onto the q axis
    np.testing.assert_allclose(park_clarke(np.pi / 8.0, (1.0, -0.5, -0.5), P0), [0.0, 1.0], atol=1e-15)


def test_inverse_park_clarke_first_column():
    np.testing.assert_allclose(inverse_park_clarke(0.0, (1.0, 0.0), P0), [1.0, -0.5, -0.5], atol=1e-15)
    np.testing.assert_allclose(inverse_park_clarke(1.1, (0.0, 0.0), P0), [0.0, 0.0, 0.0])


def test_transform_linearity(rng):
    theta = 0.77
    x = rng.uniform(-5, 5, 3)
    y = rng.uniform(-5, 5, 3)
    np.testing.assert_allclose(
        park_clarke(theta, 2.0 * x - 3.0 * y, P0),
        2.0 * park_clarke(theta, x, P0) - 3.0 * park_clarke(theta, y, P0),
        atol=1e-12,
    )
    v = rng.uniform(-5, 5, 2)
    w = rng.uniform(-5, 5, 2)
    np.testing.assert_allclose(
        inverse_park_clarke(theta, 0.5 * v + 4.0 * w, P0),
        0.5 * inverse_park_clarke(theta, v, P0) + 4.0 * inverse_park_clarke(theta, w, P0),
        atol=1e-12,
    )


def test_torque_values():
    assert torque((0.0, 10.0), P0) == pytest.approx(6.0)
    assert torque((0.0, 0.0), P0) == 0.0
    # 6 * (1 + (-0.002)(-5)(10) / (psi scaling)) evaluated directly
    assert torque((-5.0, 10.0), P0) == pytest.approx(6.6)


def test_torque_odd_in_iq(rng):
    for _ in range(20):
        i_q = rng.uniform(-30, 30)
        assert torque((0.0, i_q), P0) == pytest.approx(-torque((0.0, -i_q), P0))


@pytest.mark.parametrize("params", [P0, P_NS], ids=["salient", "non_salient"])
def test_torque_derivatives_against_central_differences(rng, params):
    eps = 1e-3
    steps = np.eye(2) * eps
    hessian = np.array([[0.0, torque_hessian(params)], [torque_hessian(params), 0.0]])
    for _ in range(100):
        i = rng.uniform(-50, 50, 2)
        grad_fd = np.array([(torque(i + d, params) - torque(i - d, params)) / (2.0 * eps) for d in steps])
        grad = np.array(torque_gradient(i, params))
        assert np.linalg.norm(grad_fd - grad) <= 1e-8 * np.linalg.norm(grad)
        hess_fd = np.column_stack([(np.array(torque_gradient(i + d, params)) - torque_gradient(i - d, params))
                                   / (2.0 * eps) for d in steps])
        assert np.linalg.norm(hess_fd - hessian) <= 1e-8 * np.linalg.norm(hessian)


def test_dq_dynamics_values():
    np.testing.assert_allclose(dq_dynamics((0.0, 0.0), (0.0, 0.0), 0.0, P0), [0.0, 0.0])
    # back-EMF term only
    np.testing.assert_allclose(dq_dynamics((0.0, 0.0), (0.0, 0.0), 100.0, P0), [0.0, -2000.0])
    # resistive drop cancels v_d
    np.testing.assert_allclose(dq_dynamics((1.0, 0.0), (0.5, 0.0), 0.0, P0), [0.0, 0.0], atol=1e-12)


def test_h_vector_values():
    np.testing.assert_allclose(voltage_drift((0.0, 0.0), 0.0, P0), [0.0, 0.0])
    np.testing.assert_allclose(voltage_drift((0.0, 0.0), 100.0, P0), [0.0, -10.0])


def test_h_identity_against_dynamics(rng):
    # L di/dt - v = h at random states
    L = np.diag([P0.L_d, P0.L_q])
    for _ in range(100):
        i = rng.uniform(-50, 50, 2)
        v = rng.uniform(-48, 48, 2)
        omega = rng.uniform(-500, 500)
        lhs = L @ dq_dynamics(i, v, omega, P0) - v
        rhs = np.array(voltage_drift(i, omega, P0))
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


def test_power_balance(rng):
    # electrical power in = copper loss + rate of magnetic energy + mechanical power out
    L = np.diag([P0.L_d, P0.L_q])
    for _ in range(100):
        i = rng.uniform(-50, 50, 2)
        v = rng.uniform(-48, 48, 2)
        omega = rng.uniform(-500, 500)
        p_in = 1.5 * v @ i
        p_out = (1.5 * P0.R * (i @ i), 1.5 * i @ L @ dq_dynamics(i, v, omega, P0), torque(i, P0) * omega / P0.p)
        assert abs(p_in - sum(p_out)) <= 1e-12 * max(abs(p_in), *map(abs, p_out))
