"""Benchmark of the oflc simulator.

Usage, from the repository root:

    python3 bench/run.py --workload fine_plant --seed 1 --seconds 30 --trace 0

One run is a closed loop of child processes (bench/child.py), one at a
time, each running one job of the workload on fresh inputs made from the
seed, for ``--seconds`` (no child starts that would likely end later).
Every child's outputs are checked (bench/checks.py).  With ``--trace 0``
the last line of standard output is a JSON object with the end-to-end
metrics over the children: ``wall_s`` is their mean, ``ticks_per_s`` and
``substeps_per_s`` are the ticks and substeps of all children over the
seconds they spent in ``sim.run_scenario``, and ``setup_s`` and
``peak_rss_mb`` are medians.  The timings are means over the whole run
because a shared host's speed can switch between fast and slow phases
that last seconds; a median of a few children then jumps between the
phases, while a mean moves only with the share of time spent in each.
With ``--trace 1`` untraced and traced children alternate and the
per-layer metrics of the traced ones are reported, with the tracing
overhead.  The full record, with tail percentiles, sample counts, model
fingerprints and the environment, is printed before that line and written
to ``.bench_out/``.
"""

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from checks import check_child
from workloads import WORKLOADS, Workload

CHILD = Path(__file__).resolve().parent / "child.py"
MIN_CHILDREN = 2
# A child is killed (and fails) after CHILD_TIMEOUT_S, and none starts
# after RUN_LIMIT_S, so a run ends within 180 s even on a slow host.
CHILD_TIMEOUT_S = 60.0
RUN_LIMIT_S = 100.0

PLANT_LAYERS = ("sim.rk4_plant_step", "machine.dq_dynamics", "profiles", "sim.run_scenario")
CONTROL_LAYERS = ("loop.step", "linearization.compute_terms", "linearization.linearize",
                  "optimizer.clamp_torque_command", "optimizer.costate_matrices",
                  "optimizer.estimate_costate", "optimizer.optimal_z", "machine.transforms")
OUTPUT_LAYERS = ("sim.energy_accounting", "cli.write_trace", "cli.write_summary")

END_TO_END_UNITS = {"wall_s": "s", "ticks_per_s": "1/s", "substeps_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark itself cannot run here."""


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def build(root, env):
    """Byte-compile oflc and import it once, so no child pays first-run costs."""
    if not compileall.compile_dir(str(root / "src" / "oflc"), quiet=1):
        raise BenchError("oflc does not compile")
    subprocess.run([sys.executable, "-c", "import oflc"], env=env, check=True, timeout=CHILD_TIMEOUT_S,
                   cwd=root)


def run_child(root, spec, child_dir, traced, env):
    """Run one child to completion; return its timing sample."""
    spec = dict(spec, out=str(child_dir), trace=traced, report=str(child_dir / "report.json"))
    spec_path = child_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    with open(child_dir / "log.txt", "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(CHILD), str(spec_path)], env=env, cwd=root,
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    report_path = child_dir / "report.json"
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    sample = {"traced": traced, "exit_code": proc.returncode, "wall_s": t1 - t0,
              "peak_rss_mb": usage.ru_maxrss / 1024.0, "report": report}
    if report and report["first_tick"] is not None and report["runs"]:
        runs = report["runs"]
        sample.update(setup_s=report["first_tick"] - t0, busy_s=sum(r["seconds"] for r in runs),
                      ticks=sum(r["ticks"] for r in runs), substeps=sum(r["substeps"] for r in runs))
        sample.update(ticks_per_s=sample["ticks"] / sample["busy_s"],
                      substeps_per_s=sample["substeps"] / sample["busy_s"])
    return sample


def end_to_end_values(samples):
    """The reported value of each end-to-end metric over ``samples``."""
    busy = sum(s["busy_s"] for s in samples)
    return {
        "wall_s": statistics.fmean(s["wall_s"] for s in samples),
        "ticks_per_s": sum(s["ticks"] for s in samples) / busy,
        "substeps_per_s": sum(s["substeps"] for s in samples) / busy,
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }


def summarize(values):
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n}
    for q in (99.9, 99, 95, 90, 75):
        if n * (1.0 - q / 100.0) >= 10:
            out[f"p{q:g}"] = values[min(n - 1, int(q / 100.0 * n))]
            return out
    out["max"] = values[-1]
    return out


def layer_metrics(traced, untraced_wall):
    """Per-layer metrics over the traced children (medians per child)."""
    def med(fn):
        return statistics.median(fn(s) for s in traced)

    def layer(s, name):
        return s["report"]["layers"][name]

    def self_s(s, names):
        return sum(layer(s, n)["self_s"] for n in names)

    def ratio(name, key):
        hits = sum(layer(s, name)["counts"].get(key, 0) for s in traced)
        calls = sum(layer(s, name)["calls"] for s in traced)
        return hits / calls if calls else 0.0

    m = {}
    for name in ("sim.rk4_plant_step", "loop.step"):
        m[f"{name}.calls"] = (med(lambda s: layer(s, name)["calls"]), "count")
        m[f"{name}.self_s"] = (med(lambda s: layer(s, name)["self_s"]), "s")
        m[f"{name}.us_p50"] = (med(lambda s: layer(s, name).get("us_p50", 0.0)), "us")
        m[f"{name}.us_p99"] = (med(lambda s: layer(s, name).get("us_p99", 0.0)), "us")
    for name in ("machine.dq_dynamics", "profiles"):
        m[f"{name}.calls"] = (med(lambda s: layer(s, name)["calls"]), "count")
        m[f"{name}.self_s"] = (med(lambda s: layer(s, name)["self_s"]), "s")
    for name in ("sim.run_scenario", "linearization.compute_terms", "linearization.linearize",
                 "optimizer.clamp_torque_command", "optimizer.costate_matrices", "optimizer.estimate_costate",
                 "optimizer.optimal_z", "machine.transforms"):
        m[f"{name}.self_s"] = (med(lambda s: layer(s, name)["self_s"]), "s")
    m["optimizer.lambda_fallback_ratio"] = (ratio("optimizer.estimate_costate", "fallback"), "ratio")
    m["optimizer.z_zeroed_ratio"] = (ratio("optimizer.optimal_z", "zeroed"), "ratio")
    m["sim.energy_accounting.s"] = (med(lambda s: layer(s, "sim.energy_accounting")["total_s"]), "s")
    m["cli.write_trace.s"] = (med(lambda s: layer(s, "cli.write_trace")["total_s"]), "s")
    m["cli.write_trace.rows"] = (med(lambda s: layer(s, "cli.write_trace")["counts"].get("rows", 0)), "count")
    m["cli.write_trace.bytes"] = (med(lambda s: layer(s, "cli.write_trace")["counts"].get("bytes", 0)), "bytes")
    m["cli.write_summary.s"] = (med(lambda s: layer(s, "cli.write_summary")["total_s"]), "s")
    m["config.parse_config.ms"] = (med(lambda s: layer(s, "config.parse_config")["total_s"]) * 1e3, "ms")
    m["plant_share_pct"] = (med(lambda s: 100.0 * self_s(s, PLANT_LAYERS) / s["wall_s"]), "%")
    m["control_share_pct"] = (med(lambda s: 100.0 * self_s(s, CONTROL_LAYERS) / s["wall_s"]), "%")
    m["output_share_pct"] = (med(lambda s: 100.0 * self_s(s, OUTPUT_LAYERS) / s["wall_s"]), "%")
    m["setup_share_pct"] = (med(lambda s: 100.0 * s["setup_s"] / s["wall_s"]), "%")
    traced_wall = statistics.fmean(s["wall_s"] for s in traced)
    m["trace_overhead_pct"] = ((traced_wall / untraced_wall - 1.0) * 100.0, "%")
    return m


def environment(root, seed):
    def git_commit():
        if not (root / ".git").exists():
            return None  # an exported checkout; src_sha256 identifies the code
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    digest = hashlib.sha256()
    for path in sorted((root / "src" / "oflc").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run(args, root):
    if not (root / "src" / "oflc").is_dir() or not (root / "scenarios").is_dir():
        raise BenchError("run from the root of an oflc checkout (src/oflc and scenarios/ are missing)")
    env = child_env(root)
    build(root, env)
    work = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    workload = Workload(args.workload, root, args.seed)

    samples, problems, models = [], [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        # start a child only if one more of median length still ends in time
        elapsed = time.perf_counter() - start
        expected = statistics.median(s["wall_s"] for s in samples) if samples else 0.0
        if elapsed >= RUN_LIMIT_S or (len(samples) >= MIN_CHILDREN and elapsed + expected > args.seconds):
            break
        child_dir = work / f"c{len(samples):03d}"
        spec = workload.child_spec(child_dir)
        traced = bool(args.trace) and len(samples) % 2 == 1
        sample = run_child(root, spec, child_dir, traced, env)
        n, child_problems, child_model = check_child(spec, child_dir, sample["exit_code"])
        attempted += n
        problems += [f"child {len(samples)}: {p}" for p in child_problems]
        if len(models) < MIN_CHILDREN:
            models.append(child_model)  # fingerprints of the children every run makes
        sample["ok"] = not child_problems
        samples.append(sample)
        shutil.rmtree(child_dir)

    # time the children that passed the check; if none did, time them all
    timed = [s for s in samples if s["ok"] and "setup_s" in s] or [s for s in samples if "setup_s" in s]
    untraced = [s for s in timed if not s["traced"]]
    if not untraced or (args.trace and len(timed) == len(untraced)):
        raise BenchError(f"no child run completed: {problems[:3]}")
    e2e = {name: summarize([s[name] for s in untraced]) for name in END_TO_END_UNITS}
    headline = end_to_end_values(untraced)
    for name, value in headline.items():
        e2e[name]["value"] = value
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "children": len(samples), "attempted": attempted, "failed": len(problems),
        "failed_frac": len(problems) / attempted, "problems": problems,
        "end_to_end": {name: dict(stats, unit=END_TO_END_UNITS[name]) for name, stats in e2e.items()},
        "model": models, "environment": environment(root, args.seed),
        "samples": [{k: s.get(k) for k in ("traced", "ok", "wall_s", "setup_s", "ticks_per_s", "peak_rss_mb")}
                    for s in samples],
    }
    if args.trace:
        traced = [s for s in timed if s["traced"]]
        layers = layer_metrics(traced, headline["wall_s"])
        record["per_layer"] = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        record["per_layer_children"] = len(traced)
        record["percentile_samples"] = {name: sum(s["report"]["layers"][name]["n"] for s in traced)
                                        for name in ("sim.rk4_plant_step", "loop.step")}
        record["missing_attributes"] = traced[0]["report"]["missing"]
        metrics = record["per_layer"]
    else:
        metrics = {name: {"value": headline[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    for name, stats in record["end_to_end"].items():
        tail = ", ".join(f"{k} {v:.6g}" for k, v in stats.items() if k not in ("value", "unit", "n"))
        print(f"{name}: {stats['value']:.6g} {stats['unit']} (per child: {tail}; n={stats['n']})")
    print(f"failed_frac: {record['failed_frac']:.6g} ({len(problems)}/{attempted} controller runs)")
    for problem in problems:
        print(f"problem: {problem}")
    print("record: " + json.dumps(record))
    (work.parent / f"{work.name}.json").write_text(json.dumps(record, indent=1))
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": len(problems),
                      "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        run(args, Path.cwd().resolve())
    except (BenchError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
