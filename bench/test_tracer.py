"""Tests of the benchmark's span tracer.

Run from the repository root: PYTHONPATH=src python -m pytest bench
"""

import sys
import types

import numpy as np
import pytest

from child import install_layers
from tracer import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def toy(monkeypatch):
    """A package ``toypkg`` whose ``outer`` calls ``inner`` through an alias."""
    clock = FakeClock()
    lib = types.ModuleType("toypkg.lib")
    app = types.ModuleType("toypkg.app")

    def inner(x):
        clock.advance(2.0)
        return x

    def outer():
        clock.advance(1.0)
        app.inner(None)
        clock.advance(3.0)
        app.inner(None)
        return "done"

    lib.inner = inner
    app.inner = inner  # as after ``from .lib import inner``
    app.outer = outer
    monkeypatch.setitem(sys.modules, "toypkg", types.ModuleType("toypkg"))
    monkeypatch.setitem(sys.modules, "toypkg.lib", lib)
    monkeypatch.setitem(sys.modules, "toypkg.app", app)
    return clock, lib, app


def test_self_time_of_nested_calls(toy):
    clock, lib, app = toy
    tracer = Tracer(clock=clock)
    tracer.install("outer", app, "outer", package="toypkg")
    tracer.install("inner", lib, "inner", package="toypkg")
    assert app.outer() == "done"
    outer, inner = tracer.layers["outer"], tracer.layers["inner"]
    assert (outer.calls, outer.total_s, outer.self_s) == (1, 8.0, 4.0)
    assert (inner.calls, inner.total_s, inner.self_s) == (2, 4.0, 4.0)


def test_values_and_exceptions_pass_through(toy):
    clock, lib, app = toy
    sentinel = object()
    error = KeyError("boom")

    def fails():
        clock.advance(5.0)
        raise error

    app.fails = fails
    tracer = Tracer(clock=clock)
    tracer.install("inner", lib, "inner", package="toypkg")
    tracer.install("fails", app, "fails", package="toypkg")
    assert app.inner(sentinel) is sentinel
    with pytest.raises(KeyError) as info:
        app.fails()
    assert info.value is error
    assert tracer.layers["fails"].calls == 1 and tracer.layers["fails"].self_s == 5.0
    assert tracer._stack == []
    tracer.uninstall()
    assert app.inner is lib.inner and app.fails is fails


def test_missing_attribute_is_reported_not_raised(toy):
    _, lib, _ = toy
    tracer = Tracer()
    tracer.install("gone", lib, "no_such_function", package="toypkg")
    assert tracer.missing == ["toypkg.lib.no_such_function"]
    assert tracer.layers["gone"].calls == 0


def test_non_finite_state_still_reaches_run_scenario():
    from oflc import profiles, sim
    from oflc.machine import MachineParams

    # dt R / L_d = 8.3 lies outside RK4's stability region, so the plant diverges
    scenario = sim.Scenario(params=MachineParams(R=0.5, L_d=3e-3, L_q=5e-3, psi=0.1, p=4), duration=20.0,
                            tau_ref=profiles.ConstantProfile(0.0), speed=profiles.ConstantProfile(0.0),
                            dt_plant=0.05, dt_ctrl=0.05, i0=(1.0, 0.0))
    tracer = Tracer()
    install_layers(tracer)
    try:
        with np.errstate(all="ignore"):
            result = sim.run_scenario(scenario, "id_zero")
    finally:
        tracer.uninstall()
    assert result.aborted
    assert tracer.layers["sim.rk4_plant_step"].calls >= 1
    assert tracer.missing == []
    assert sim.rk4_plant_step.__name__ == "rk4_plant_step" and not hasattr(sim.rk4_plant_step, "__wrapped__")
