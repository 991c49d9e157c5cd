"""The claim rule and the no-regression verdict of tools/bench_pairs.py (``verdict``, ``regression``)."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture(scope="module")
def bench_pairs():
    sys.path.insert(0, str(TOOLS))  # bench_pairs imports trace_identity by file name
    try:
        spec = importlib.util.spec_from_file_location("bench_pairs", TOOLS / "bench_pairs.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(TOOLS))
    return module


PARENT = [80.0, 82.0, 84.0, 86.0, 88.0, 90.0, 92.0, 94.0, 96.0, 98.0]  # quartiles 84.5 and 93.5, IQR 9


def test_verdict_counts_wins_and_compares_the_median_gain_with_the_parent_iqr(bench_pairs):
    verdict = bench_pairs.verdict
    up = [p + 10.0 for p in PARENT]  # 10/10 wins, median gain 10 > 9
    v = verdict(PARENT, up, "higher")
    assert (v["change_better_pairs"], v["pairs"], v["claim_met"]) == (10, 10, True)
    assert (v["parent_q1"], v["parent_median"], v["parent_q3"], v["parent_iqr"]) == (84.5, 89.0, 93.5, 9.0)
    assert v["median_gain"] == 10.0 and v["change_median"] == 99.0
    assert v["median_pair_ratio"] == pytest.approx((98.0 / 88.0 + 100.0 / 90.0) / 2.0, rel=1e-15)
    # the same values are a loss where lower is better
    down = verdict(PARENT, up, "lower")
    assert (down["change_better_pairs"], down["median_gain"], down["claim_met"]) == (0, -10.0, False)
    # every pair won, but by less than the parent's spread
    assert not verdict(PARENT, [p + 8.0 for p in PARENT], "higher")["claim_met"]
    # nine wins of ten is enough; a tie counts for neither side, so eight wins and a tie are not
    nine = [p - 1.0 if k == 0 else p + 12.0 for k, p in enumerate(PARENT)]
    assert verdict(PARENT, nine, "higher")["change_better_pairs"] == 9
    assert verdict(PARENT, nine, "higher")["claim_met"]
    eight_and_tie = [p if k == 1 else c for k, (p, c) in enumerate(zip(PARENT, nine))]
    v = verdict(PARENT, eight_and_tie, "higher")
    assert (v["change_better_pairs"], v["claim_met"]) == (8, False)
    # lower is better: a 20% fall on every pair
    assert verdict(PARENT, [0.8 * p for p in PARENT], "lower")["claim_met"]


def test_verdict_reports_the_pair_ratio_quartiles_beside_an_unchanged_rule(bench_pairs):
    verdict = bench_pairs.verdict
    # a parent that drifts from 40 to 130 across the pairs and a change 1.25 times it in each: the ratios do not
    # spread, yet the claim rule still compares the median gain, 21.25, with the parent's IQR, 45
    drifting = [40.0 + 10.0 * k for k in range(10)]
    v = verdict(drifting, [1.25 * p for p in drifting], "higher")
    assert (v["pair_ratio_q1"], v["median_pair_ratio"], v["pair_ratio_q3"]) == (1.25, 1.25, 1.25)
    assert (v["change_better_pairs"], v["median_gain"], v["parent_iqr"], v["claim_met"]) == (10, 21.25, 45.0, False)
    # ratios 1, 1.25, ..., 3.25 on a flat parent: quartiles by statistics.quantiles(method="inclusive")
    v = verdict([4.0] * 10, [4.0 + k for k in range(10)], "higher")
    assert (v["pair_ratio_q1"], v["median_pair_ratio"], v["pair_ratio_q3"]) == (1.5625, 2.125, 2.6875)


def test_regression_is_worse_beyond_the_bound_and_unresolved_where_the_parent_spreads_wider(bench_pairs):
    regression = bench_pairs.regression
    # PARENT's median is 89 and its IQR 9: a bound of 0.25 gives a margin of 22.25 (wider than the IQR), one of
    # 0.05 a margin of 4.45 (narrower).  Each case runs in both directions, the change's values mirrored about
    # the parent's
    for better, sign in (("higher", 1.0), ("lower", -1.0)):
        def shifted(by):
            return [p + sign * by for p in PARENT]

        assert regression(PARENT, shifted(-30.0), better, 0.25) == "worse"
        assert regression(PARENT, shifted(-22.25), better, 0.25) == "within bound"  # worse by the margin itself
        assert regression(PARENT, shifted(-1.0), better, 0.25) == "within bound"
        assert regression(PARENT, shifted(-5.0), better, 0.05) == "worse"
        assert regression(PARENT, shifted(-1.0), better, 0.05) == "unresolved"
        assert regression(PARENT, shifted(1.0), better, 0.05) == "unresolved"  # better, but not run for run
        assert regression(PARENT, shifted(20.0), better, 0.05) == "within bound"  # all change runs beat all parent runs
        assert regression(PARENT, shifted(18.0), better, 0.05) == "unresolved"  # 98 ties 80 + 18


def test_summarize_judges_each_metric_against_its_bound(bench_pairs):
    def run(value):
        return {"values": {"ticks_per_s": value, "wall_s": value}, "failed": 0, "model": "m"}

    pairs = [{"parent": run(p), "change": run(p - 30.0)} for p in PARENT]
    summary = bench_pairs.summarize(pairs, {"ticks_per_s": ("higher", 0.25), "wall_s": ("lower", 0.05)})
    assert summary["failed"] == {"parent": 0, "change": 0} and summary["model_fingerprints_equal"]
    ticks, wall = summary["metrics"]["ticks_per_s"], summary["metrics"]["wall_s"]
    assert (ticks["bound"], ticks["regression"], ticks["claim_met"]) == (0.25, "worse", False)
    assert (wall["bound"], wall["regression"], wall["claim_met"]) == (0.05, "within bound", True)
