"""Command-line front end: simulate, compare, selftest.

Outputs per run (in the output directory, default ``$OFLC_OUT_DIR`` or
the current directory):

* ``<controller>_trace.csv``: one row per control tick with columns
  ``t,i_d,i_q,v_d,v_q,tau_ref,tau_est,u_raw,u_feasible,omega,z_d,z_q,
  lambda_d,lambda_q,p_copper_W,flags``.  ``flags`` is a bitfield over
  ``optimizer.FLAG_NAMES``, spelled out in the file's first line.
* ``<controller>_summary.txt``: ``key: value`` lines with the cost
  integral, copper energy, RMS torque error and saturation counts.

Exit codes: 0 success, 1 usage/validation error, 2 numerical abort.
"""

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from .config import parse_config
from .errors import ConfigError
from .optimizer import FLAG_NAMES
from .sim import CONTROLLER_NAMES, run_scenario

__all__ = ["main"]

TRACE_COLUMNS = ("t,i_d,i_q,v_d,v_q,tau_ref,tau_est,u_raw,u_feasible,omega,"
                 "z_d,z_q,lambda_d,lambda_q,p_copper_W,flags")

FLAGS_DOC = "# flags bitfield: " + " ".join(f"{1 << k}={name}" for k, name in enumerate(FLAG_NAMES))


class _Parser(argparse.ArgumentParser):
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
    p_sim.add_argument("--controller", choices=CONTROLLER_NAMES, default="oflc")

    p_cmp = sub.add_parser("compare", help="run several controllers on the same scenario")
    add_common(p_cmp)
    p_cmp.add_argument("--controllers", nargs="+", choices=CONTROLLER_NAMES,
                       default=["oflc", "flc_z0"])

    sub.add_parser("selftest", help="run quick invariant checks")
    return parser


def _load(args):
    try:
        text = Path(args.scenario).read_text()
    except OSError as exc:
        print(f"error: cannot read scenario file: {exc}", file=sys.stderr)
        raise SystemExit(1)
    scenario, settings = parse_config(text)

    def overrides(*names):
        return {name: getattr(args, name) for name in names if getattr(args, name) is not None}

    # replace() re-runs the validation of both objects on the overridden values
    scenario = dataclasses.replace(scenario, **overrides("v_max", "horizon"))
    settings = dataclasses.replace(settings, **overrides("kp", "ki", "alpha_z"))
    if args.decimate < 1:
        print("error: --decimate must be >= 1", file=sys.stderr)
        raise SystemExit(1)
    return scenario, settings


def _out_dir(args):
    out = args.out or os.environ.get("OFLC_OUT_DIR") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_trace(path, frames, decimate):
    with open(path, "w") as fh:
        fh.write(FLAGS_DOC + "\n")
        fh.write(TRACE_COLUMNS + "\n")
        for frame in frames[::decimate]:
            row = (frame.t, frame.i_dq[0], frame.i_dq[1], frame.v_dq[0], frame.v_dq[1],
                   frame.tau_ref, frame.tau_est, frame.u_raw, frame.u_feasible,
                   frame.omega, frame.z[0], frame.z[1], frame.lam[0], frame.lam[1],
                   frame.p_copper)
            fh.write(",".join(repr(float(x)) for x in row))
            fh.write(f",{frame.report.flags_bitfield()}\n")


def _write_summary(path, name, result):
    lines = [
        f"controller: {name}",
        f"aborted: {result.aborted}",
        f"cost_integral_A2s: {result.cost_integral!r}",
        f"copper_energy_J: {result.copper_energy!r}",
        f"rms_torque_error_Nm: {result.rms_torque_error!r}",
    ]
    for key, count in sorted(result.saturation_counts.items()):
        lines.append(f"ticks_{key}: {count}")
    Path(path).write_text("\n".join(lines) + "\n")
    return lines


def _run_one(name, scenario, settings, out_dir, decimate):
    result = run_scenario(scenario, controller=name, gains=settings.gains(),
                          alpha_z=settings.alpha_z)
    _write_trace(out_dir / f"{name}_trace.csv", result.frames, decimate)
    for line in _write_summary(out_dir / f"{name}_summary.txt", name, result):
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
    for name in args.controllers:
        print(f"--- {name} ---")
        results[name] = _run_one(name, scenario, settings, out_dir, args.decimate)
    lines = ["scenario: " + args.scenario]
    for name, res in results.items():
        lines.append(f"{name}_cost_integral_A2s: {res.cost_integral!r}")
        lines.append(f"{name}_copper_energy_J: {res.copper_energy!r}")
        lines.append(f"{name}_rms_torque_error_Nm: {res.rms_torque_error!r}")
    if "oflc" in results and "flc_z0" in results and results["flc_z0"].cost_integral > 0.0:
        ratio = results["oflc"].cost_integral / results["flc_z0"].cost_integral
        lines.append(f"oflc_over_flc_z0_energy_ratio: {ratio!r}")
        lines.append(f"energy_saving_percent: {(1.0 - ratio) * 100.0!r}")
    (out_dir / "compare_summary.txt").write_text("\n".join(lines) + "\n")
    print("--- compare ---")
    for line in lines:
        print(line)
    return 2 if any(r.aborted for r in results.values()) else 0


def _cmd_selftest(args):
    """Spot-check the core invariants on random states."""
    from . import machine, optimizer
    from .linearization import compute_terms, linearize
    from .machine import MachineParams

    rng = np.random.default_rng(0)
    params = MachineParams(R=0.5, L_d=3e-3, L_q=5e-3, psi=0.1, p=4)
    failures = []

    def check(name, ok):
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures.append(name)

    worst = 0.0
    for _ in range(200):
        theta = rng.uniform(-np.pi, np.pi)
        K = machine.park_matrix(theta, params.p)
        K_inv = machine.inverse_park_matrix(theta, params.p)
        worst = max(worst, float(np.abs(K @ K_inv - np.eye(2)).max()))
    check(f"transform round trip (max dev {worst:.2e})", worst <= 1e-12)

    worst = 0.0
    for _ in range(200):
        i = rng.uniform(-20.0, 20.0, 2)
        omega = rng.uniform(-300.0, 300.0)
        u = rng.uniform(-20.0, 20.0)
        lam_seed = rng.uniform(-1.0, 1.0, 2)
        try:
            terms = compute_terms(i, omega, params)
        except Exception:
            continue
        B = optimizer.projection(terms.b)
        z, _ = optimizer.optimal_z(lam_seed, B, params.L_inv, 10.0)
        zn = np.linalg.norm(z)
        if zn > 0.0:
            worst = max(worst, abs(float(terms.b @ z)) / (np.sqrt(terms.b_norm_sq) * zn))
        v = linearize(u if abs(u - terms.phi) < 40.0 * np.sqrt(terms.b_norm_sq) else terms.phi, z, terms)
        del v
    check(f"orthogonality b.z (worst rel {worst:.2e})", worst <= 1e-10)

    worst = 0.0
    for _ in range(100):
        i = rng.uniform(-20.0, 20.0, 2)
        omega = rng.uniform(-300.0, 300.0)
        u = rng.uniform(-20.0, 20.0)
        try:
            terms = compute_terms(i, omega, params)
        except Exception:
            continue
        mats = optimizer.costate_matrices(i, omega, u, terms, params)
        eps = 1e-5
        A_fd = np.empty((2, 2))
        for j in range(2):
            dv = np.zeros(2)
            dv[j] = eps
            fp = optimizer.current_dynamics(i + dv, omega, u, np.zeros(2), params)
            fm = optimizer.current_dynamics(i - dv, omega, u, np.zeros(2), params)
            A_fd[:, j] = -(fp - fm) / (2.0 * eps)
        denom = max(np.linalg.norm(mats.A), 1.0)
        worst = max(worst, float(np.linalg.norm(mats.A - A_fd)) / denom)
    check(f"costate matrix vs finite differences (worst rel {worst:.2e})", worst <= 1e-5)

    if failures:
        print(f"{len(failures)} selftest check(s) failed")
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
