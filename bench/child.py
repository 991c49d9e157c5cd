"""One child process of the benchmark: runs one job on oflc and reports.

Usage: python3 bench/child.py SPEC.json

The spec (written by run.py) holds ``argv``, an ``oflc`` command line
run through ``oflc.cli.main``.  The child always times
``sim.run_scenario`` and the first control tick; with ``"trace": true``
it also wraps every layer listed in ``install_layers``.  Its report is written as JSON to
``spec["report"]``; the exit code is the oflc exit code.
"""

import json
import math
import os
import sys
import time
from pathlib import Path

from tracer import Tracer


def install_layers(t):
    """Wrap the public entry points of every oflc module, named by layer."""
    from oflc import cli, config, linearization, loop, machine, optimizer, profiles, sim

    t.install("sim.rk4_plant_step", sim, "rk4_plant_step", keep_samples=True)
    t.install("machine.dq_dynamics", machine, "dq_dynamics")
    for name in profiles.__all__:
        t.install("profiles", getattr(profiles, name), "__call__")
    t.install("loop.step", loop.TorqueController, "step", keep_samples=True)
    t.install("linearization.compute_terms", linearization, "compute_terms")
    t.install("linearization.linearize", linearization, "linearize")
    t.install("optimizer.clamp_torque_command", optimizer, "clamp_torque_command")
    t.install("optimizer.costate_matrices", optimizer, "costate_matrices")
    t.install("optimizer.estimate_costate", optimizer, "estimate_costate", observe=_costate_fallback)
    t.install("optimizer.optimal_z", optimizer, "optimal_z", observe=_z_zeroed)
    t.install("machine.transforms", machine, "park_clarke")
    t.install("machine.transforms", machine, "inverse_park_clarke")
    t.install("sim.energy_accounting", sim, "energy_accounting")
    t.install("cli.write_trace", cli, "_write_trace", observe=_trace_written)
    t.install("cli.write_summary", cli, "_write_summary")
    t.install("config.parse_config", config, "parse_config")


def _item(result, index):
    return result[index] if isinstance(result, tuple) and len(result) > index else None


def _costate_fallback(layer, args, kwargs, result):
    layer.count("fallback", int(bool(_item(result, 1))))


def _z_zeroed(layer, args, kwargs, result):
    layer.count("zeroed", int(bool(getattr(_item(result, 1), "z_zeroed", False))))


def _trace_written(layer, args, kwargs, result):
    path, frames, decimate = (list(args) + [None, None, 1])[:3]
    layer.count("rows", len(range(0, len(frames), decimate)))
    layer.count("bytes", os.path.getsize(path))


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q / 100.0 * len(sorted_values)) - 1)]


def _layer_report(layers):
    out = {}
    for name, layer in layers.items():
        entry = {"calls": layer.calls, "total_s": layer.total_s, "self_s": layer.self_s, "counts": layer.counts}
        if layer.samples is not None:
            samples = sorted(layer.samples)
            entry.update(n=len(samples), us_p50=_percentile(samples, 50) * 1e6,
                         us_p99=_percentile(samples, 99) * 1e6)
        out[name] = entry
    return out


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text())
    from oflc import cli, loop, sim

    report = {"first_tick": None, "runs": [], "layers": None, "missing": []}

    def mark_first_tick(cls):
        original = cls.step

        def step(self, *args, **kwargs):
            if report["first_tick"] is None:
                report["first_tick"] = time.perf_counter()
            return original(self, *args, **kwargs)

        cls.step = step

    mark_first_tick(loop.TorqueController)

    def record_run(layer, args, kwargs, result):
        scenario = args[0] if args else kwargs["scenario"]
        n_ctrl = round(scenario.duration / scenario.dt_ctrl)
        n_sub = round(scenario.dt_ctrl / scenario.dt_plant)
        ticks = len(result.frames) if result.aborted else n_ctrl
        report["runs"].append({
            "controller": args[1] if len(args) > 1 else kwargs.get("controller", "oflc"),
            "seconds": layer.samples[-1], "ticks": ticks, "substeps": ticks * n_sub,
            "aborted": bool(result.aborted),
        })

    tracer = Tracer()
    tracer.install("sim.run_scenario", sim, "run_scenario", keep_samples=True, observe=record_run)
    if spec["trace"]:
        install_layers(tracer)
    try:
        code = cli.main(spec["argv"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
        if spec["trace"]:
            report["layers"] = _layer_report(tracer.layers)
            report["missing"] = tracer.missing
        Path(spec["report"]).write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
