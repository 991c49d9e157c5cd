import dataclasses
import gc
import math
from typing import Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import P0, tick_scenario
from oflc.domain import RANGES
from oflc.errors import ValidationError
from oflc.loop import ControllerSettings
from oflc.machine import MachineParams
from oflc.optimizer import FLAG_NAMES
from oflc.profiles import PROFILES, ConstantProfile, SinusoidProfile, StepProfile, TableProfile, TrapezoidProfile
from oflc.records import MISSING, Record, fields, replace
from oflc.sim import ContinuousRun, MechanicalModel, RunResult, Scenario
from test_config import FINITE, MACHINES, MECHANICAL, SETTINGS, VALUES, scenarios, within

# (name, default) of each field, in order, as the frozen dataclasses that the records replaced had them.
# RunResult alone lost its defaults: run_scenario builds it once, from its finished figures.
FIELDS = {
    MachineParams: [("R", MISSING), ("L_d", MISSING), ("L_q", MISSING), ("psi", MISSING), ("p", MISSING)],
    ControllerSettings: [("kp", 5.0), ("ki", 500.0), ("alpha_z", 1.0)],
    ConstantProfile: [("value", MISSING)],
    StepProfile: [("initial", MISSING), ("final", MISSING), ("t_step", MISSING)],
    SinusoidProfile: [("amplitude", MISSING), ("frequency", MISSING), ("offset", 0.0), ("phase", 0.0)],
    TrapezoidProfile: [("initial", MISSING), ("final", MISSING), ("t0", MISSING), ("t1", MISSING),
                       ("t2", math.inf), ("t3", math.inf)],
    TableProfile: [("times", MISSING), ("values", MISSING)],
    MechanicalModel: [("inertia", MISSING), ("friction", 0.0), ("load_torque", ConstantProfile(0.0)),
                      ("omega0", 0.0)],
    Scenario: [("params", MISSING), ("duration", MISSING), ("tau_ref", MISSING), ("speed", MISSING),
               ("dt_plant", 1e-6), ("dt_ctrl", 1e-4), ("horizon", 1e-3), ("v_max", 48.0), ("i0", (0.0, 0.0))],
    RunResult: [("frames", MISSING), ("cost_integral", MISSING), ("copper_energy", MISSING),
                ("rms_torque_error", MISSING), ("saturation_counts", MISSING), ("aborted", MISSING)],
    ContinuousRun: [("t", MISSING), ("i", MISSING), ("tau", MISSING), ("u", MISSING), ("clamped", MISSING)],
}

# frames and saturation_counts are a list and a dict, so a RunResult is unhashable, as its twin is
SAMPLES = st.lists(FINITE, max_size=3).map(tuple)
DRAWS = {
    MachineParams: MACHINES,
    ControllerSettings: SETTINGS,
    ConstantProfile: st.builds(ConstantProfile, VALUES),
    StepProfile: st.builds(StepProfile, VALUES, VALUES, within("t_step")),
    SinusoidProfile: st.builds(SinusoidProfile, VALUES, within("frequency"), VALUES, within("phase")),
    TrapezoidProfile: st.builds(TrapezoidProfile, VALUES, VALUES, *map(within, ("t0", "t1", "t2", "t3"))),
    TableProfile: st.builds(TableProfile, st.just((0.0, 1.0, 2.0)), st.tuples(VALUES, VALUES, VALUES)),
    MechanicalModel: MECHANICAL,
    Scenario: scenarios(),
    RunResult: st.builds(RunResult, st.lists(FINITE, max_size=3), FINITE, FINITE, FINITE,
                         st.dictionaries(st.sampled_from(FLAG_NAMES), st.integers(0, 10)), st.booleans()),
    ContinuousRun: st.builds(ContinuousRun, SAMPLES, SAMPLES, SAMPLES, SAMPLES, SAMPLES),
}

# each record class's frozen dataclass twin: the same qualified name and fields
TWINS = {cls: dataclasses.make_dataclass(cls.__qualname__, [(f.name, f.type) for f in fields(cls)], frozen=True)
         for cls in FIELDS}


def _twin(record):
    return TWINS[type(record)](*(getattr(record, f.name) for f in fields(record)))


FLOAT_TUPLES = (Tuple[float, ...], Tuple[float, float])


def _spellings(value, kind):
    """Values of other types that a field of type ``kind`` stores as ``value``: a numpy scalar, and for a float an
    int or a bool where it equals one; a list or an array for a tuple of floats."""
    if kind is int:
        return [value, np.int64(value)]
    if kind is float:
        spellings = [value, np.float64(value)]
        if value.is_integer() and abs(value) < 2**62:
            spellings += [int(value), np.int64(value)]
        if value in (0.0, 1.0):
            spellings.append(bool(value))
        return spellings
    if kind in FLOAT_TUPLES:
        return [value, list(value), np.array(value)]
    return [value]


@st.composite
def _respelled(draw, record):
    """``record`` built again with each number field's value given as one of its ``_spellings``, and each record
    among its fields built so in turn."""
    values = {}
    for f in fields(record):
        value = getattr(record, f.name)
        spelled = _respelled(value) if isinstance(value, Record) else st.sampled_from(_spellings(value, f.type))
        values[f.name] = draw(spelled)
    return type(record)(**values)


def _number_types(record):
    """The types of the numbers a record and the records among its fields store, in their number fields."""
    for f in fields(record):
        value = getattr(record, f.name)
        if isinstance(value, Record):
            yield from _number_types(value)
        elif f.type in (float, int):
            yield type(value)
        elif f.type in FLOAT_TUPLES:
            yield from map(type, value)


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_fields(cls):
    assert [(f.name, f.default) for f in fields(cls)] == FIELDS[cls]


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
@settings(max_examples=40)
@given(data=st.data())
def test_record_matches_its_frozen_dataclass_twin(cls, data):
    a, b = data.draw(DRAWS[cls]), data.draw(DRAWS[cls])
    # numbers given as ints, bools, numpy scalars, lists or arrays are stored as Python floats and ints
    respelled = data.draw(_respelled(a))
    assert respelled == a and set(_number_types(respelled)) <= {float, int}
    a = respelled
    assert fields(a) == fields(cls)
    # a record is its fields, but for the constants that a scenario's plant step reads every tick
    assert set(vars(a)) == {f.name for f in fields(cls)} | ({"_plant"} if cls is Scenario else set())
    assert repr(a) == repr(_twin(a))
    try:
        expected = hash(_twin(a))
    except TypeError:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == expected
    # equal by class and by field values
    assert replace(a) == a and not replace(a) != a
    assert (a == b) == (_twin(a) == _twin(b))
    assert a != _twin(a) and _twin(a) != a
    for f in fields(a):
        with pytest.raises(AttributeError):
            setattr(a, f.name, getattr(b, f.name))
        with pytest.raises(AttributeError):
            delattr(a, f.name)
    with pytest.raises(AttributeError):
        a.extra = 1.0
    assert repr(a) == repr(_twin(a))  # the attempts left it as it was


def test_every_input_number_field_has_a_range_and_every_range_an_input():
    # a record bounds a number field by the domain.RANGES key of its name, so a field without a key would take any
    # number, and a key that names no field would bound nothing.  The four keys that are no field are checked where
    # their value is taken: Scenario's i0 by its items i_d0 and i_q0, a mechanical load torque's peak as load, and
    # the z_smoothing of loop.control_law
    inputs = (MachineParams, Scenario, MechanicalModel, ControllerSettings, *PROFILES)
    numbers = {f.name for cls in inputs for f in fields(cls) if f.type in (float, int, *FLOAT_TUPLES)}
    elsewhere = {"i_d0", "i_q0", "load", "z_smoothing"}
    assert set(RANGES) - elsewhere == numbers - {"i0"}
    assert elsewhere <= set(RANGES)


def test_fields_stay_in_the_instance_layout():
    # CPython reads an instance's attributes fastest while they sit in its own layout, which a write through
    # self.__dict__ turns into a real dict for good (once 7% of a ctrl_dense tick); gc shows which it is
    # (Scenario also keeps a value that is not a field)
    for record in (P0, tick_scenario(P0, 1e-6, 3), SinusoidProfile(1.0, 50.0, 0.5, 0.25)):
        assert dict not in map(type, gc.get_referents(record))


def test_replace_revalidates():
    with pytest.raises(ValidationError) as exc:
        replace(P0, R=-1.0)
    assert exc.value.field == "R"
    assert replace(P0, R=1.0) == MachineParams(1.0, P0.L_d, P0.L_q, P0.psi, P0.p)
    assert P0.R == 0.5


@pytest.mark.parametrize("make, message", [
    (lambda: ConstantProfile(), "ConstantProfile() missing required argument 'value'"),
    (lambda: StepProfile(0.0, 1.0), "StepProfile() missing required argument 't_step'"),
    (lambda: ConstantProfile(1.0, 2.0), "ConstantProfile() takes 1 arguments but 2 were given"),
    (lambda: ConstantProfile(1.0, value=2.0), "ConstantProfile() got multiple values for argument 'value'"),
    (lambda: ConstantProfile(valu=1.0), "ConstantProfile() got an unexpected keyword argument 'valu'"),
    (lambda: replace(P0, Rs=1.0), "MachineParams() got an unexpected keyword argument 'Rs'"),
], ids=["missing", "missing_positional", "too_many", "duplicate", "unknown", "replace_unknown"])
def test_constructor_type_errors(make, message):
    with pytest.raises(TypeError) as exc:
        make()
    assert str(exc.value) == message
