"""Output check of every child run, and the model fingerprints it yields.

A controller run passes when the child exited 0, its summary says it did
not abort and holds finite figures, and its trace has one row per
control tick, only finite values, and an
``integral |i|^2 dt`` recomputed from it that matches the summary.
"""

import math
from pathlib import Path

import numpy as np

COST_RTOL = 1e-9


def read_summary(path):
    """``key: value`` lines of an oflc summary file as a dict of strings."""
    out = {}
    for line in Path(path).read_text().splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def read_trace(path):
    """Columns of an oflc trace CSV as a dict of float arrays."""
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    header = lines[0].strip().split(",")
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2) if len(lines) > 1 else np.empty((0, len(header)))
    return {name: data[:, k] for k, name in enumerate(header)}


def _summary_figures(summary):
    figures = {
        "cost_A2s": float(summary["cost_integral_A2s"]),
        "copper_energy_J": float(summary["copper_energy_J"]),
        "rms_torque_error_Nm": float(summary["rms_torque_error_Nm"]),
    }
    figures["flag_ticks"] = {k[len("ticks_"):]: int(v) for k, v in summary.items() if k.startswith("ticks_")}
    return figures


def check_run(summary_path, trace_path, ticks):
    """Check one controller run; return (problem or None, fingerprint)."""
    try:
        summary = read_summary(summary_path)
        figures = _summary_figures(summary)
    except (OSError, KeyError, ValueError) as exc:
        return f"summary unreadable: {exc}", None
    if summary.get("aborted") != "False":
        return "run aborted", figures
    bad = [k for k in ("cost_A2s", "copper_energy_J", "rms_torque_error_Nm") if not math.isfinite(figures[k])]
    if bad:
        return f"non-finite summary figures {bad}", figures
    try:
        cols = read_trace(trace_path)
        t, i_d, i_q, z_d, z_q = (cols[k] for k in ("t", "i_d", "i_q", "z_d", "z_q"))
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return f"trace unreadable: {exc!r}", figures
    if len(t) != ticks:
        return f"trace has {len(t)} rows, expected {ticks}", figures
    if not all(np.isfinite(col).all() for col in cols.values()):
        return "trace holds non-finite values", figures
    cost = float(np.trapezoid(i_d**2 + i_q**2, t))
    if not math.isclose(cost, figures["cost_A2s"], rel_tol=COST_RTOL, abs_tol=1e-12):
        return f"trace cost {cost!r} != summary cost {figures['cost_A2s']!r}", figures
    figures["z_sign_flips"] = int(np.count_nonzero(z_d[1:] * z_d[:-1] + z_q[1:] * z_q[:-1] < 0.0))
    return None, figures


def check_child(spec, child_dir, exit_code):
    """Check every controller run of one child.

    Returns (attempted, problems, model) where ``problems`` lists one
    string per failed controller run and ``model`` maps each controller
    to its fingerprint.
    """
    child_dir = Path(child_dir)
    problems = []
    model = {}
    for name in spec["controllers"]:
        problem, figures = check_run(child_dir / f"{name}_summary.txt", child_dir / f"{name}_trace.csv",
                                     spec["ticks"])
        if exit_code != 0:
            problem = f"exit code {exit_code}" + (f"; {problem}" if problem else "")
        if problem:
            problems.append(f"{name}: {problem}")
        if figures:
            model[name] = figures
    if "flc_z0" in model and "oflc" in model and model["flc_z0"]["cost_A2s"] > 0.0:
        model["energy_saving_pct"] = (1.0 - model["oflc"]["cost_A2s"] / model["flc_z0"]["cost_A2s"]) * 100.0
    return len(spec["controllers"]), problems, model

