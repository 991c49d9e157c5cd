"""The claim rule of tools/bench_pairs.py (``verdict``)."""

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
