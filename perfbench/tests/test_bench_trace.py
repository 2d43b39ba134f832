"""The traced run: counts repeat exactly, and tracing leaves dfclab as it was.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import subprocess
from pathlib import Path

import pytest

import dfclab
import jobs as J
import oracles as O
import tracing
import workload as W

ROOT = Path(__file__).resolve().parents[2]


def _traced_counts(job_list):
    tracer = tracing.Tracer()
    problems = []
    with tracer:
        rnd = W._round(job_list, tracer, problems)
    totals = {}
    for delta in rnd["deltas"]:
        for k, v in delta.items():
            totals[k] = totals.get(k, 0) + v
    metrics = tracing.layer_metrics(totals)
    return {k: v for k, v in metrics.items() if tracing.LAYER_UNITS[k] != "ms"}, problems


@pytest.mark.parametrize("workload", J.WORKLOADS)
def test_counts_repeat_exactly(workload):
    jobs, _ = J.build(workload, 5)
    # The cheapest dozen jobs keep the test short.
    sample = sorted(jobs, key=lambda j: ("stabilize" in j.name, "basin" in j.name,
                                         "interval" in j.name, "min_N" in j.name))[:12]
    first, problems = _traced_counts(sample)
    second, _ = _traced_counts(sample)
    assert problems == []
    assert first == second
    assert sum(first.values()) > 0


def test_tracer_counts_where_the_work_happens():
    jobs = [J._find_job("logistic", 4.0, 5, dfclab.parse_map("logistic:r=4"))]
    counts, _ = _traced_counts(jobs)
    assert counts["cycles.find_calls"] == 1
    assert counts["maps.eval_calls"] > 1000
    assert counts["cycles.evals_per_orbit"] == pytest.approx(
        counts["maps.eval_calls"] / O.necklace_count(5)
    )
    assert counts["polynomials.roots_calls"] == 0


def test_tracer_restores_dfclab():
    before = (dfclab.stability.poly_roots, dfclab.cycles.eval_map, dfclab.cli.main)
    with tracing.Tracer():
        assert dfclab.stability.poly_roots is not before[0]
        assert dfclab.cycles.eval_map is not before[1]
    assert (dfclab.stability.poly_roots, dfclab.cycles.eval_map, dfclab.cli.main) == before


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    assert names == set(tracing.LAYER_UNITS) | {"trace.overhead_s"}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(units[k] == u for k, u in tracing.LAYER_UNITS.items())


def test_run_output_is_ignored_by_git():
    probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse"], capture_output=True)
    if probe.returncode != 0:
        pytest.skip("not a git checkout")
    for path in ("perfbench/runs/boundary-seed1-trace0.json", ".bench_build/x"):
        assert subprocess.run(["git", "-C", str(ROOT), "check-ignore", "-q", path]).returncode == 0
