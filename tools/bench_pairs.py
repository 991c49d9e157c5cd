"""Paired benchmark runs of a git revision against the working tree.

Usage, from the repository root:

    python3 tools/bench_pairs.py REF --workload W --pairs N [--first-seed S] [--out FILE]

Exports git revision ``REF`` with ``git archive`` into a temporary
directory, then runs ``bench/run.py --workload W --seed S --seconds T
--trace 0`` N times on each side: the export of REF (the parent) and the
working tree (the change).  T is ``run_seconds`` of ``BENCHMARK.json``.
Pair k uses seed S + k on both sides, and the side that runs first
alternates, parent first in pair 0.  Each side runs its own ``bench/``.

Prints each pair's end-to-end values and change/parent ratios, then per
metric the change's wins, each side's median, the quartiles of the
per-pair ratios and of the parent's values, the claim rule's verdict
(``verdict``) and the no-regression verdict against
the metric's ``bound`` in ``BENCHMARK.json`` (``regression``).  With
``--out`` the pairs and the summary are also written as JSON.  Exits 0
when every run completed and its outputs passed the benchmark's checks, 1
otherwise, and 2 when REF cannot be exported.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from trace_identity import ROOT, export_tree


def verdict(parent, change, better):
    """The claim rule over the paired values of one metric.

    ``parent[k]`` and ``change[k]`` are pair k's values and ``better`` is
    "higher" or "lower".  The change wins a pair when its value is better;
    a tie counts for neither side.  The claim is met when the change wins
    at least nine tenths of the pairs and its median is better than the
    parent's by more than the parent's interquartile range (quartiles by
    ``statistics.quantiles(method="inclusive")``).  The quartiles of the
    per-pair change/parent ratios are reported beside it, as data: they
    show the change's spread with the host's drift between pairs taken
    out, and the rule does not read them.  Needs two pairs or more.
    """
    sign = 1.0 if better == "higher" else -1.0
    n = len(parent)
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    parent_q1, parent_median, parent_q3 = statistics.quantiles(parent, n=4, method="inclusive")
    change_q1, change_median, change_q3 = statistics.quantiles(change, n=4, method="inclusive")
    gain = sign * (change_median - parent_median)
    ratios = [c / p for p, c in zip(parent, change)]
    ratio_q1, _, ratio_q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {
        "pairs": n, "change_better_pairs": wins,
        "parent_median": parent_median, "parent_q1": parent_q1, "parent_q3": parent_q3,
        "change_median": change_median, "change_q1": change_q1, "change_q3": change_q3,
        "median_pair_ratio": statistics.median(ratios), "pair_ratio_q1": ratio_q1, "pair_ratio_q3": ratio_q3,
        "median_gain": gain, "parent_iqr": parent_q3 - parent_q1,
        "claim_met": 10 * wins >= 9 * n and gain > parent_q3 - parent_q1,
    }


def regression(parent, change, better, bound):
    """The no-regression verdict over the paired values of one metric, whose benchmark bound is ``bound``.

    "worse" where the change's median is worse than the parent's by more
    than the margin, ``bound`` times the parent median's magnitude;
    otherwise "unresolved" where the parent's interquartile range exceeds
    that margin and not every change run is better than every parent run;
    otherwise "within bound".  Medians and quartiles as in ``verdict``.
    """
    sign = 1.0 if better == "higher" else -1.0
    parent_q1, parent_median, parent_q3 = statistics.quantiles(parent, n=4, method="inclusive")
    margin = bound * abs(parent_median)
    if sign * (statistics.median(change) - parent_median) < -margin:
        return "worse"
    if parent_q3 - parent_q1 > margin and not all(sign * (c - p) > 0.0 for p in parent for c in change):
        return "unresolved"
    return "within bound"


def run_bench(root, workload, seed, seconds):
    """One ``bench/run.py`` run in checkout ``root``: its metric values, failures and model fingerprints."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    out = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"bench/run.py exited {out.returncode} in {root}: {out.stderr.strip()[-500:]}")
    lines = out.stdout.splitlines()
    record = json.loads(next(x for x in lines if x.startswith("record: "))[len("record: "):])
    return {"values": {name: m["value"] for name, m in json.loads(lines[-1])["metrics"].items()},
            "children": record["children"], "attempted": record["attempted"], "failed": record["failed"],
            "model": record["model"]}


def summarize(pairs, metrics):
    """Each metric's ``verdict`` and ``regression`` over the completed pairs, and the failure counts of each side.

    ``metrics`` maps each metric's name to its ``better`` and ``bound``.
    """
    judged = {}
    for name, (better, bound) in metrics.items():
        parent, change = ([p[side]["values"][name] for p in pairs] for side in ("parent", "change"))
        judged[name] = {**verdict(parent, change, better), "bound": bound,
                        "regression": regression(parent, change, better, bound)}
    return {
        "pairs": len(pairs),
        "failed": {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")},
        "model_fingerprints_equal": all(p["parent"]["model"] == p["change"]["model"] for p in pairs),
        "metrics": judged,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="git revision of the parent side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, default=1, help="seed of pair 0; pair k uses this + k")
    parser.add_argument("--out", type=Path, help="also write the pairs and the summary to this JSON file")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"], m["bound"]) for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]

    pairs, error = [], None
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        try:
            parent_root = export_tree(args.ref, Path(tmp) / "ref")
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        roots = {"parent": parent_root, "change": ROOT}
        for k in range(args.pairs):
            seed = args.first_seed + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            try:
                for side in order:
                    pair[side] = run_bench(roots[side], args.workload, seed, seconds)
            except RuntimeError as exc:
                error = f"pair {k} (seed {seed}): {exc}"
                break
            pairs.append(pair)
            ratios = "  ".join(f"{name} {pair['change']['values'][name] / pair['parent']['values'][name]:.3f}"
                               for name in metrics)
            print(f"pair {k} seed {seed} ({order[0]} first): change/parent {ratios}", flush=True)

    summary = summarize(pairs, metrics) if len(pairs) >= 2 else None
    if summary:
        print(f"{args.workload}: {len(pairs)} pairs against {args.ref}; failed {summary['failed']}; "
              f"model fingerprints equal: {summary['model_fingerprints_equal']}")
        for name, v in summary["metrics"].items():
            print(f"  {name}: change better in {v['change_better_pairs']}/{v['pairs']}; median "
                  f"{v['parent_median']:.6g} -> {v['change_median']:.6g}, median pair ratio "
                  f"{v['median_pair_ratio']:.4f} [{v['pair_ratio_q1']:.4f}, {v['pair_ratio_q3']:.4f}]; "
                  f"parent IQR {v['parent_iqr']:.4g} "
                  f"[{v['parent_q1']:.6g}, {v['parent_q3']:.6g}]; claim rule {'met' if v['claim_met'] else 'not met'}; "
                  f"bound {v['bound']:g}: {v['regression']}")
    if args.out:
        args.out.write_text(json.dumps({"ref": args.ref, "workload": args.workload, "seconds": seconds,
                                        "seeds": f"{args.first_seed}-{args.first_seed + args.pairs - 1}",
                                        "error": error, "summary": summary, "runs": pairs}, indent=1) + "\n")
    if error:
        print(f"error: {error}", file=sys.stderr)
    return 1 if error or (summary and any(summary["failed"].values())) else 0


if __name__ == "__main__":
    sys.exit(main())
