"""Scenario inputs of the benchmark workloads, made from the workload seed.

``Workload.child_spec`` writes the inputs of one child process.  oflc
only ever sees the INI scenario text written here, drawn afresh for
every child from the run's seeded random stream.

* ``fine_plant``: ``oflc compare`` of oflc and flc_z0 on a variant of
  ``scenarios/step.cfg`` (torque step, 1 us plant step), 100 RK4 substeps
  per control tick (the plant dominates).  Children 1 and 2 of every four
  run ``kind = mechanical`` speed, the load model of
  ``scenarios/mechanical.cfg`` that no other workload runs, and the others
  a constant speed; so the first two children, and the untraced and the
  traced children of a ``--trace 1`` run, hold both kinds.
* ``ctrl_dense``: ``oflc simulate`` of oflc on the s1 machine with one
  substep per tick, a speed ramp up and back down and 6000 ticks (the
  control law and the trace writer dominate).

Every draw keeps the tick and substep counts fixed, so the work per child
does not depend on the seed; only the parameter values do.
"""

import configparser
import random
from pathlib import Path

WORKLOADS = ("fine_plant", "ctrl_dense")

FINE_PLANT_TICKS = 300
CTRL_DENSE_TICKS = 6000


def _read_cfg(path):
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read_string(path.read_text())
    return cp


def _ini(sections):
    lines = []
    for name, body in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in body.items())
        lines.append("")
    return "\n".join(lines)


def fine_plant_text(root, rng, mechanical):
    """The machine and time steps of scenarios/step.cfg; step and speed drawn."""
    cp = _read_cfg(root / "scenarios" / "step.cfg")
    dt_ctrl = float(cp["scenario"]["dt_ctrl"])
    duration = FINE_PLANT_TICKS * dt_ctrl
    return _ini({
        "machine": dict(cp["machine"]),
        "scenario": {"duration": repr(duration), "dt_plant": cp["scenario"]["dt_plant"], "dt_ctrl": repr(dt_ctrl)},
        "torque": {"kind": "step", "initial": "0.0", "final": repr(rng.uniform(4.0, 8.0)),
                   "t_step": repr(rng.uniform(0.2, 0.5) * duration)},
        "speed": _fine_plant_speed(root, rng) if mechanical else {"kind": "constant",
                                                                    "value": repr(rng.uniform(60.0, 140.0))},
    })


def _fine_plant_speed(root, rng):
    """The mechanical model of scenarios/mechanical.cfg with its load drawn."""
    speed = dict(_read_cfg(root / "scenarios" / "mechanical.cfg")["speed"])
    speed["load"] = repr(rng.uniform(0.2, 0.8))
    return speed


def ctrl_dense_text(root, rng):
    """s1 machine, dt_plant = dt_ctrl, speed ramps up, holds and ramps down."""
    dt = 1e-4
    ramp = rng.uniform(0.1, 0.15)
    hold = rng.uniform(0.1, 0.15)
    t0 = rng.uniform(0.02, 0.06)
    return _ini({
        "machine": dict(_read_cfg(root / "scenarios" / "s1.cfg")["machine"]),
        "scenario": {"duration": repr(CTRL_DENSE_TICKS * dt), "dt_plant": repr(dt), "dt_ctrl": repr(dt),
                     "horizon": "1e-3", "v_max": "48.0"},
        "torque": {"kind": "sinusoid", "amplitude": repr(rng.uniform(2.0, 4.0)),
                   "frequency": repr(rng.uniform(4.0, 16.0))},
        "speed": {"kind": "trapezoid", "initial": "0.0", "final": repr(rng.uniform(150.0, 200.0)),
                  "t0": repr(t0), "t1": repr(t0 + ramp), "t2": repr(t0 + ramp + hold),
                  "t3": repr(t0 + 2.0 * ramp + hold)},
        "controller": {"kp": "5.0", "ki": "500.0", "alpha_z": "1.0"},
    })


class Workload:
    """Writes the inputs of successive child processes of one run."""

    def __init__(self, name, root, seed):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
        self.name = name
        self.root = Path(root)
        self._rng = random.Random(f"{name}:{seed}")
        self._children = 0

    def child_spec(self, out_dir):
        """Write the inputs of the next child into ``out_dir``; return its spec.

        The spec's ``argv`` is an ``oflc`` command line; ``controllers``
        and ``ticks`` say what the output check should find.
        """
        out_dir.mkdir(parents=True, exist_ok=True)
        cfg = out_dir / "scenario.cfg"
        index = self._children
        self._children += 1
        if self.name == "fine_plant":
            cfg.write_text(fine_plant_text(self.root, self._rng, mechanical=index % 4 in (1, 2)))
            controllers, ticks = ["oflc", "flc_z0"], FINE_PLANT_TICKS
            argv = ["compare", "--controllers", *controllers]
        else:
            cfg.write_text(ctrl_dense_text(self.root, self._rng))
            controllers, ticks = ["oflc"], CTRL_DENSE_TICKS
            argv = ["simulate", "--controller", "oflc"]
        argv += ["--scenario", str(cfg), "--out", str(out_dir), "--decimate", "1"]
        return {"argv": argv, "controllers": controllers, "ticks": ticks}
