"""Run one workload in this process and print one JSON record of raw results.

Started by run.py, never by hand:

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 --spawned-at MONOTONIC [--setup-only]

``--spawned-at`` is the monotonic clock reading taken by the parent just
before it started this process, so that set-up time includes interpreter
start-up. The process keeps to one thread: run.py caps the BLAS pools.

Set-up ends when the warm-up job returns. Then rounds run, each one pass
over the workload's job list, with the reference kernel timed before every
job and after the last, until jobs and kernels have run for ``--seconds``.
Every answer of a round is checked against the oracles after the round,
outside the timed spans and the run length (the first round's checks fill
the oracle caches and take seconds). With ``--trace 1`` untraced and traced
rounds alternate.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
import threading
import time

# dfclab and numpy load before the clock reading below: their import is set-up.
import dfclab.cli  # noqa: F401

_t_bench_import = time.monotonic()
import jobs as J  # noqa: E402
import refkernel  # noqa: E402
import tracing  # noqa: E402

BENCH_IMPORT_S = time.monotonic() - _t_bench_import
MIN_ROUNDS = 3
MIN_TRACED = 2
MAX_PROBLEMS = 5


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=J.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = tracing.Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():
        job_list, warmup = J.build(args.workload, args.seed)
    setup_trace = tracer.snapshot() if tracer else {}
    warm_out = warmup.run()
    setup_raw = time.monotonic() - args.spawned_at - BENCH_IMPORT_S
    # A mean over about 0.2 s of kernel calls followed set-up time best: the
    # spread of set-up over processes fell from 8-10% with 5 calls to 4-6%.
    setup_kernel = statistics.mean(refkernel.time_kernel()[1] for _ in range(100))
    setup_factor = refkernel.NOMINAL_S / setup_kernel
    record = {
        "setup_raw_s": setup_raw,
        "setup_s": setup_raw * setup_factor,
    }
    if args.setup_only:
        print(json.dumps(record))
        return 0

    problems = [f"{warmup.name}: {p}" for p in _checked(warmup, warm_out)]
    warmup_ok = not problems
    rounds = []
    while True:
        traced = tracer if tracer and len(rounds) % 2 == 1 else None
        with traced or contextlib.nullcontext():
            rounds.append(_round(job_list, traced, problems))
        whole = len(rounds) >= (2 * MIN_TRACED if tracer else MIN_ROUNDS) and (
            not tracer or len(rounds) % 2 == 0
        )
        if whole and sum(r["measured_s"] for r in rounds) >= args.seconds:
            break

    failed = sum(r["failed"] for r in rounds)
    record.update(
        {
            "workload": args.workload,
            "jobs_per_round": len(job_list),
            "rounds": len(rounds),
            "attempted": len(rounds) * len(job_list),
            "failed": failed,
            "correct": warmup_ok and not any(r["unexpected"] for r in rounds),
            "problems": problems[:MAX_PROBLEMS],
            "known_faults": sorted({j.known_fault for j in job_list if j.known_fault}),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "threads": threading.active_count(),
            "kernel_ms": 1e3 * statistics.median(
                k for r in rounds for k in r["kernel_s"]
            ),
        }
    )
    record["job_names"] = [j.name for j in job_list]
    record["per_round"] = [
        {k: r[k] for k in ("traced", "raw_s", "ref_s", "kernel_s")} for r in rounds
    ]
    plain = [r for r in rounds if not r["traced"]]
    record.update(job_stats(plain, "ref_s"))
    record.update({k + "_raw": v for k, v in job_stats(plain, "raw_s").items()})
    if tracer:
        traced = [r for r in rounds if r["traced"]]
        record["traced_time_s"] = job_stats(traced, "ref_s")["time_s"]
        record["layers"] = layer_summary(traced, setup_trace, setup_factor)
    print(json.dumps(record))
    return 0


def _round(job_list, tracer, problems) -> dict:
    """One pass over the jobs, then the checks of their answers."""
    # The benchmark's own objects (oracle caches, records) would otherwise
    # lengthen the collector's passes that land inside timed jobs.
    gc.collect()
    gc.freeze()
    kernels = [refkernel.time_kernel()]
    spans, outputs, deltas = [], [], []
    for job in job_list:
        before = tracer.snapshot() if tracer else None
        t0 = time.perf_counter()
        try:
            outputs.append((job.run(), None))
        except Exception as exc:  # a failing job is counted, not fatal
            outputs.append((None, f"{type(exc).__name__}: {exc}"))
        spans.append((t0, time.perf_counter()))
        kernels.append(refkernel.time_kernel())
        if tracer:
            out = outputs[-1][0]
            if isinstance(out, J.CliResult):
                tracer.counts["out_bytes"] += len(out.stdout.encode())
            after = tracer.snapshot()
            deltas.append({k: v - before.get(k, 0) for k, v in after.items()})
    failed = unexpected = 0
    for job, (out, error) in zip(job_list, outputs):
        found = [error] if error else _checked(job, out)
        if found:
            failed += 1
            if not job.known_fault:
                unexpected += 1
                if len(problems) < MAX_PROBLEMS:
                    problems.append(f"{job.name}: {'; '.join(found)}")
    raw = [end - start for start, end in spans]
    factors = refkernel.speed_factors(kernels, spans)
    return {
        "traced": tracer is not None,
        "measured_s": kernels[-1][0] + kernels[-1][1] - kernels[0][0],
        "raw_s": raw,
        "ref_s": [t * f for t, f in zip(raw, factors)],
        "factors": factors,
        "kernel_s": [k for _, k in kernels],
        "deltas": deltas,
        "failed": failed,
        "unexpected": unexpected,
    }


def _checked(job, out) -> list[str]:
    try:
        return job.check(out)
    except Exception as exc:  # malformed output is a wrong answer
        return [f"check raised {type(exc).__name__}: {exc}"]


def job_stats(rounds: list[dict], key: str) -> dict:
    """time_s, median and tail of the per-job medians over ``rounds``.

    Each job's time is its median over the rounds, so a stall in one round
    moves nothing. The tail is the highest percentile of those per-job times
    that has ten jobs beyond it.
    """
    per_job = [statistics.median(col) for col in zip(*(r[key] for r in rounds))]
    ordered = sorted(per_job)
    n = len(ordered)
    stats = {
        "time_s": sum(per_job),
        "job_p50_ms": 1e3 * statistics.median(per_job),
        "tail_samples": n,
    }
    if n >= 40:
        stats["job_tail_ms"] = 1e3 * ordered[n - 11]
        stats["tail_percentile"] = 100.0 * (n - 10) / n
    return stats


def layer_summary(traced: list[dict], setup_trace: dict, setup_factor: float) -> dict:
    """Per-layer metrics of one round: counts from the first traced round,
    times as medians over the traced rounds, all at reference speed."""
    per_round = []
    for r in traced:
        totals: dict[str, float] = {}
        for delta, factor in zip(r["deltas"], r["factors"]):
            for k, v in delta.items():
                totals[k] = totals.get(k, 0) + (v * factor if k.startswith("self:") else v)
        per_round.append(tracing.layer_metrics(totals))
    out = {}
    for name, unit in tracing.LAYER_UNITS.items():
        values = [m[name] for m in per_round]
        out[name] = statistics.median(values) if unit == "ms" else values[0]
        if unit != "ms" and len(set(values)) > 1:
            out.setdefault("_unsteady_counts", []).append(name)
    out["maps.parse_ms"] += 1e3 * setup_trace.get("self:parse_map", 0.0) * setup_factor
    return out


if __name__ == "__main__":
    sys.exit(main())
