"""Tests for the summary written by scripts/bench_pairs.py."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _results(workload: dict) -> dict:
    """Run results of both sides, rebuilt from a committed BENCH summary."""
    out = {}
    for side in bench_pairs.SIDES:
        out[side] = [
            {
                "attempted": att,
                "failed": failed,
                "metrics": {
                    name: {"value": m[side]["runs"][i], "unit": m["unit"]}
                    for name, m in workload["metrics"].items()
                },
            }
            for i, (att, failed) in enumerate(workload["attempted_failed"][side])
        ]
    return out


@pytest.mark.parametrize("workload", ["dynamics", "pipeline", "boundary"])
def test_summary_reproduces_the_committed_bench_file(workload):
    doc = json.loads((ROOT / "BENCH_array_map_code.json").read_text())
    want = doc["workloads"][workload]
    got = bench_pairs.summarize(_results(want))
    assert got == {k: v for k, v in want.items() if k != "seed"}


def test_pair_wins_count_strictly_lower_change_runs():
    results = {
        side: [{"attempted": 4, "failed": 0, "metrics": {"time_s": {"value": v, "unit": "s"}}}
               for v in values]
        for side, values in (("parent", [1.0, 2.0, 3.0]), ("change", [0.5, 2.0, 3.5]))
    }
    summary = bench_pairs.summarize(results)
    assert summary["metrics"]["time_s"]["change_lower_in_pairs"] == 1  # a tie wins nothing
    assert summary["pairs"] == 3
    assert summary["attempted_failed"]["change"] == [[4, 0]] * 3


BOUNDS = {"time_s": 0.2}


def _judged(parent, change, failed=(0, 0)):
    """Verdicts on runs of time_s given per side, with failed operations per run."""
    results = {
        side: [{"attempted": 10, "failed": fails,
                "metrics": {"time_s": {"value": v, "unit": "s"}}} for v in values]
        for side, values, fails in (("parent", parent, failed[0]), ("change", change, failed[1]))
    }
    return bench_pairs.judge(bench_pairs.summarize(results), BOUNDS)


STEADY = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]


class TestJudge:
    def test_gain(self):
        assert _judged(STEADY, [v - 0.3 for v in STEADY])["time_s"] == "gain"

    def test_gain_needs_nine_of_ten_pairs(self):
        change = [v - 0.3 for v in STEADY[:8]] + [1.05, 1.05]  # wins 8 of 10
        assert _judged(STEADY, change)["time_s"] == "unchanged"

    def test_gain_needs_medians_apart_by_more_than_the_parent_iqr(self):
        parent = [1.0, 1.5] * 5  # quartiles 1.0 and 1.5
        change = [v - 0.01 for v in parent]  # wins every pair by 0.01
        assert _judged(parent, change)["time_s"] == "unresolved"

    def test_regression(self):
        assert _judged(STEADY, [v * 1.3 for v in STEADY])["time_s"] == "regression"

    def test_worse_within_the_bound_is_unchanged(self):
        assert _judged(STEADY, [v * 1.1 for v in STEADY])["time_s"] == "unchanged"

    def test_unresolved_when_the_spread_exceeds_the_bound(self):
        wide = [0.7, 1.3] * 5
        assert _judged(STEADY, wide)["time_s"] == "unresolved"
        assert _judged(wide, STEADY)["time_s"] == "unresolved"

    def test_wide_spread_with_every_change_run_lower_is_unchanged(self):
        parent = [1.0, 1.5] * 5  # median 1.25, quartile distance 0.5 > 0.2 * 1.25
        assert _judged(parent, [0.95] * 10)["time_s"] == "unchanged"

    def test_failed_share(self):
        assert _judged(STEADY, STEADY)["failed_share"] == "no larger"
        assert _judged(STEADY, STEADY, failed=(1, 1))["failed_share"] == "no larger"
        assert _judged(STEADY, STEADY, failed=(0, 1))["failed_share"] == "larger"

    def test_metrics_without_a_bound_get_no_verdict(self):
        results = {side: [{"attempted": 1, "failed": 0,
                           "metrics": {"time_s": {"value": v, "unit": "s"},
                                       "other": {"value": v, "unit": "s"}}} for v in STEADY]
                   for side in bench_pairs.SIDES}
        assert set(bench_pairs.judge(bench_pairs.summarize(results), BOUNDS)) == {
            "time_s", "failed_share"}

    def test_bounds_come_from_the_benchmark_file(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        bounds = bench_pairs.load_bounds(ROOT / "BENCHMARK.json")
        assert bounds == {m["name"]: m["bound"] for m in doc["end_to_end"]}
        assert bounds["time_s"] == 0.2


@pytest.mark.parametrize("workload", ["pipeline", "boundary", "dynamics"])
def test_verdicts_reproduce_the_committed_bench_file(workload):
    doc = json.loads((ROOT / "BENCH_cli_layer.json").read_text())
    want = doc["workloads"][workload]
    summary = bench_pairs.summarize(_results(want))
    assert summary == {k: v for k, v in want.items() if k not in ("seed", "verdicts")}
    bounds = bench_pairs.load_bounds(ROOT / "BENCHMARK.json")
    assert bench_pairs.judge(summary, bounds) == want["verdicts"]
