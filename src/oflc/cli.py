"""Command-line front end: simulate, compare, selftest.

README's CLI section gives the commands, their output files and the exit
codes (0 success, 1 usage or validation error, 2 numerical abort).
"""

import argparse
import math
import os
import re
import sys
from contextlib import contextmanager
from pathlib import Path

from . import loop, machine, optimizer, records
from .config import build, parse_config
from .errors import ConfigError, DegenerateBError
from .linearization import compute_terms
from .loop import CONTROLLERS, ControlFrame
from .optimizer import FLAG_NAMES
from .sim import run_scenario

__all__ = ["main"]

FLAGS_DOC = "# flags bitfield: " + " ".join(f"{1 << k}={name}" for k, name in enumerate(FLAG_NAMES))

# a run's summary figures: (summary key, RunResult attribute), as each summary file and compare's lines name them
FIGURES = (("cost_integral_A2s", "cost_integral"), ("copper_energy_J", "copper_energy"),
           ("rms_torque_error_Nm", "rms_torque_error"))


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # -1e-3 and -inf are values, not options; argparse's own pattern takes only forms like -1 and -0.5
        self._negative_number_matcher = re.compile(r"-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|-(inf|infinity|nan)$", re.I)

    # usage errors exit 1; code 2 is reserved for aborted runs
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _build_parser():
    parser = _Parser(prog="oflc", description="Optimal feedback-linearization PMSM torque-control simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scenario", required=True, help="scenario config file")
        p.add_argument("--out", default=None, help="output directory (default: $OFLC_OUT_DIR or .)")
        p.add_argument("--decimate", type=int, default=1, help="emit every Nth trace row (simulation unaffected)")
        p.add_argument("--v-max", type=float, default=None, help="override voltage limit")
        p.add_argument("--horizon", type=float, default=None, help="override costate horizon (s)")
        p.add_argument("--kp", type=float, default=None, help="override PI proportional gain")
        p.add_argument("--ki", type=float, default=None, help="override PI integral gain")
        p.add_argument("--alpha-z", type=float, default=None, help="override z aggressiveness in (0, 1]")

    p_sim = sub.add_parser("simulate", help="run one controller on a scenario")
    add_common(p_sim)
    p_sim.add_argument("--controller", choices=CONTROLLERS, default="oflc")

    p_cmp = sub.add_parser("compare", help="run several controllers on the same scenario")
    add_common(p_cmp)
    p_cmp.add_argument("--controllers", nargs="+", choices=CONTROLLERS,
                       default=["oflc", "flc_z0"])

    sub.add_parser("selftest", help="check the shipped control law on seeded random states")
    return parser


def _load(args):
    try:
        text = Path(args.scenario).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario file: {exc}") from exc
    scenario, settings = parse_config(text)

    def overrides(*names):
        return {name: getattr(args, name) for name in names if getattr(args, name) is not None}

    # replace() re-runs the validation of both objects on the overridden values, a rejected one named by section
    scenario = build("scenario", records.replace, scenario, **overrides("v_max", "horizon"))
    settings = build("controller", records.replace, settings, **overrides("kp", "ki", "alpha_z"))
    if args.decimate < 1:
        raise ConfigError("--decimate must be >= 1")
    return scenario, settings


def _out_dir(args):
    out = args.out or os.environ.get("OFLC_OUT_DIR") or "."
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out: cannot create output directory: {exc}") from exc
    return path


@contextmanager
def _writing(path):
    """Yield ``path``; an OSError while writing it exits 1 naming the file."""
    try:
        yield path
    except OSError as exc:
        raise ConfigError(f"--out: cannot write {path}: {exc}") from exc


def _write_trace(path, frames, decimate):
    with open(path, "w") as fh:
        fh.write(FLAGS_DOC + "\n")
        fh.write(",".join(ControlFrame._fields) + "\n")
        for frame in frames[::decimate]:
            fh.write(",".join(map(repr, frame)) + "\n")


def _write_summary(path, name, result):
    lines = [f"controller: {name}", f"aborted: {result.aborted}",
             *(f"{key}: {getattr(result, attr)!r}" for key, attr in FIGURES)]
    for key, count in sorted(result.saturation_counts.items()):
        lines.append(f"ticks_{key}: {count}")
    Path(path).write_text("\n".join(lines) + "\n")
    return lines


def _run_one(name, scenario, settings, out_dir, decimate):
    result = run_scenario(scenario, controller=name, settings=settings)
    with _writing(out_dir / f"{name}_trace.csv") as path:
        _write_trace(path, result.frames, decimate)
    with _writing(out_dir / f"{name}_summary.txt") as path:
        lines = _write_summary(path, name, result)
    for line in lines:
        print(line)
    return result


def _cmd_simulate(args):
    scenario, settings = _load(args)
    result = _run_one(args.controller, scenario, settings, _out_dir(args), args.decimate)
    return 2 if result.aborted else 0


def _cmd_compare(args):
    scenario, settings = _load(args)
    out_dir = _out_dir(args)
    results = {}
    for name in dict.fromkeys(args.controllers):  # each named controller once, in the order first given
        print(f"--- {name} ---")
        results[name] = _run_one(name, scenario, settings, out_dir, args.decimate)
    lines = ["scenario: " + args.scenario]
    lines += (f"{name}_{key}: {getattr(res, attr)!r}" for name, res in results.items() for key, attr in FIGURES)
    if "oflc" in results and "flc_z0" in results and results["flc_z0"].cost_integral > 0.0:
        ratio = results["oflc"].cost_integral / results["flc_z0"].cost_integral
        lines.append(f"oflc_over_flc_z0_energy_ratio: {ratio!r}")
        lines.append(f"energy_saving_percent: {(1.0 - ratio) * 100.0!r}")
    with _writing(out_dir / "compare_summary.txt") as path:
        path.write_text("\n".join(lines) + "\n")
    print("--- compare ---")
    for line in lines:
        print(line)
    return 2 if any(r.aborted for r in results.values()) else 0


def _cmd_selftest(args):
    """Run the shipped control law on seeded random states and check what it rests on.

    The law, built once by ``loop.control_law`` and compiled where the
    twins load, must equal ``loop.composed_control_law``, called here on
    its own, bit for bit on each state.  Only a state where b vanishes is
    skipped, and any other error propagates.
    Each other check, b.z = 0 among them, uses the bound of the
    acceptance criterion that states it.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    params = machine.MachineParams(R=0.5, L_d=3e-3, L_q=5e-3, psi=0.1, p=4)
    v_max, n_states, eps = 48.0, 200, 1e-5
    law = loop.control_law(params, v_max, 1e-3)
    round_trip = v_ratio = b_dot_z = a_dev = 0.0
    checked = twin_mismatches = 0
    for _ in range(n_states):
        theta = rng.uniform(-100.0, 100.0)
        K_K_inv = machine.park_matrix(theta, params.p) @ machine.inverse_park_matrix(theta, params.p)
        round_trip = max(round_trip, float(np.abs(K_K_inv - np.eye(2)).max()))
        i, omega, u_raw = rng.uniform(-20.0, 20.0, 2), rng.uniform(-300.0, 300.0), rng.uniform(-20.0, 20.0)
        args = (tuple(i.tolist()), omega, u_raw)
        try:
            v_d, v_q, u, _, _, z_d, z_q, _ = out = law(*args)
        except DegenerateBError:
            continue
        checked += 1
        reference = loop.composed_control_law(*args, params, v_max, 1e-3)
        twin_mismatches += out != reference
        v_ratio = max(v_ratio, math.hypot(v_d, v_q) / v_max)
        terms = compute_terms(i, omega, params)
        z_norm = math.hypot(z_d, z_q)
        if z_norm > 0.0:
            b_dot_z = max(b_dot_z, abs(terms.b_d * z_d + terms.b_q * z_q) / (terms.b_norm * z_norm))
        # A = -df/di at the applied u, against central differences of f
        A = np.array(optimizer.costate_matrices(i, omega, u, terms, params))
        A_fd = np.column_stack([(optimizer.current_dynamics(i - d, omega, u, (0.0, 0.0), params)
                                 - optimizer.current_dynamics(i + d, omega, u, (0.0, 0.0), params)) / (2.0 * eps)
                                for d in np.eye(2) * eps])
        a_dev = max(a_dev, float(np.linalg.norm(A - A_fd)) / max(float(np.linalg.norm(A)), 1.0))

    failures = 0
    for name, ok in ((f"states checked ({checked} of {n_states})", checked >= n_states / 2),
                     (f"control_law equals composed_control_law ({twin_mismatches} states differ)",
                      twin_mismatches == 0),
                     (f"transform round trip (max dev {round_trip:.2e})", round_trip <= 1e-12),
                     (f"voltage limit (max |v|/v_max {v_ratio:.12f})", v_ratio <= 1.0 + 1e-9),
                     (f"orthogonality b.z (worst rel {b_dot_z:.2e})", b_dot_z <= 1e-10),
                     (f"costate matrix vs finite differences (worst rel {a_dev:.2e})", a_dev <= 1e-5)):
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += not ok
    if failures:
        print(f"{failures} selftest check(s) failed")
        return 1
    print("selftest OK")
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_selftest(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
