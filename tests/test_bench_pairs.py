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
