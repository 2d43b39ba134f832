"""dfclab benchmark: one workload, timed at reference speed, every output checked.

Run from the root of a dfclab source tree:

    python3 perfbench/run.py --workload boundary --seed 1 --seconds 15 --trace 0

Workloads are ``boundary``, ``dynamics`` and ``pipeline`` (see README.md).
The workload runs in its own process, single-threaded, with dfclab imported
from ``src/``. With ``--trace 0`` the end-to-end metrics are reported and set-up
is measured in four more processes that stop after set-up; with ``--trace 1``
the per-layer metrics of a traced run are reported. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the full record of the run, with every job's time in every round,
goes to perfbench/runs/. The exit status is non-zero, with no result
printed, when dfclab's sources are missing or the workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Full records of the latest runs, per workload, seed and trace setting.
RUNS_DIR = HERE / "runs"
WORKLOADS = ("boundary", "dynamics", "pipeline")
SETUP_PROBES = 4
# Every process this script starts has ended, killed if need be, by then.
DEADLINE_S = 170
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "dfclab" / "__init__.py").is_file():
        sys.stderr.write("run.py: no dfclab sources under ./src; run from the repository root\n")
        return 2
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    base = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--trace", str(args.trace)]
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(_spawn(base + ["--setup-only"], env, deadline))
        rec = _spawn(base + ["--seconds", str(args.seconds)], env, deadline)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        sys.stderr.write(f"run.py: workload process failed: {exc}\n")
        return 1
    setups.append(rec)
    RUNS_DIR.mkdir(exist_ok=True)
    record_path = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps({"workload": rec, "setup_probes": setups[:-1]}) + "\n")

    for line in _describe(rec, setups):
        print(line)
    print(json.dumps(
        {
            "correct": rec["correct"],
            "attempted": rec["attempted"],
            "failed": rec["failed"],
            "metrics": _metrics(rec, setups, args.trace),
        }
    ))
    return 0


def _spawn(cmd: list[str], env: dict, deadline: float) -> dict:
    """Run one workload process; return the JSON record on its last line."""
    now = time.monotonic()
    cmd = cmd + ["--spawned-at", repr(now)]
    proc = subprocess.run(
        cmd, env=env, stdout=subprocess.PIPE, timeout=max(1.0, deadline - now), text=True
    )
    if proc.returncode != 0:
        raise subprocess.SubprocessError(f"exit status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metrics(rec: dict, setups: list[dict], trace: int) -> dict:
    if trace:
        from tracing import LAYER_UNITS

        metrics = {k: {"value": rec["layers"][k], "unit": u} for k, u in LAYER_UNITS.items()}
        metrics["trace.overhead_s"] = {
            "value": rec["traced_time_s"] - rec["time_s"], "unit": "s"
        }
        return metrics
    return {
        "time_s": {"value": rec["time_s"], "unit": "s"},
        "job_p50_ms": {"value": rec["job_p50_ms"], "unit": "ms"},
        "job_tail_ms": {"value": rec["job_tail_ms"], "unit": "ms"},
        "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
        "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MB"},
    }


def _describe(rec: dict, setups: list[dict]) -> list[str]:
    """Human-readable lines printed before the result."""
    lines = [
        f"workload {rec['workload']}: {rec['rounds']} rounds of {rec['jobs_per_round']} jobs, "
        f"{rec['failed']} of {rec['attempted']} failed, correct={rec['correct']}, "
        f"threads={rec['threads']}, kernel median {rec['kernel_ms']:.3f} ms",
        f"time_s {rec['time_s']:.4f} at reference speed, {rec['time_s_raw']:.4f} raw",
        f"job_p50_ms {rec['job_p50_ms']:.3f} at reference speed, "
        f"{rec['job_p50_ms_raw']:.3f} raw",
        f"job_tail_ms {rec['job_tail_ms']:.3f} at reference speed, "
        f"{rec['job_tail_ms_raw']:.3f} raw: p{rec['tail_percentile']:.1f} of "
        f"{rec['tail_samples']} per-job medians",
        "setup_s " + ", ".join(f"{s['setup_s']:.4f}" for s in setups)
        + " at reference speed; raw " + ", ".join(f"{s['setup_raw_s']:.4f}" for s in setups),
    ]
    if "traced_time_s" in rec:
        lines.append(f"traced time_s {rec['traced_time_s']:.4f}")
        unsteady = rec["layers"].get("_unsteady_counts")
        if unsteady:
            lines.append("counts that differ between traced rounds: " + ", ".join(unsteady))
    for fault in rec["known_faults"]:
        lines.append(f"known fault, counted as failed: {fault}")
    lines += [f"problem: {p}" for p in rec["problems"]]
    return lines


if __name__ == "__main__":
    sys.exit(main())
