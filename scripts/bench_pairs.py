"""Time a parent checkout against a change checkout in alternating pairs of benchmark runs.

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, at one
workload, seed and run length; the parent runs first in even pairs, the
change in odd ones, so a drift of the host's speed falls on both sides. The
summary has, per workload and end-to-end metric, every run's value, each
side's median and quartiles, and the number of pairs the change won (all
the metrics are lower-better), plus each run's operations attempted and
failed. Each workload also gets verdicts (see ``judge``) against the bounds
of the parent checkout's ``BENCHMARK.json``, which is read, never written.
Run it from anywhere:

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload pipeline boundary dynamics --seed 91 --pairs 10 --seconds 25 \\
        --out BENCH_name.json

The i-th workload listed runs at seed ``--seed`` + i. Each checkout is a
dfclab source tree with ``perfbench/`` and ``src/``; the parent's commit is
recorded when it is a git work tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py`` run in a checkout: the JSON object of its last line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(runs: list[float]) -> dict:
    """Runs with their median and quartiles (exclusive method), to 6 decimals."""
    q1, median, q3 = statistics.quantiles(runs, n=4)
    return {"runs": runs, "median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def summarize(results: dict[str, list[dict]]) -> dict:
    """Per-workload summary from the run results of both sides, in pair order."""
    units = {k: v["unit"] for k, v in results["parent"][0]["metrics"].items()}
    metrics = {}
    for name, unit in units.items():
        runs = {s: [r["metrics"][name]["value"] for r in results[s]] for s in SIDES}
        metrics[name] = {
            "unit": unit,
            **{s: spread(runs[s]) for s in SIDES},
            "change_lower_in_pairs": sum(c < p for p, c in zip(runs["parent"], runs["change"])),
        }
    return {
        "pairs": len(results["parent"]),
        "attempted_failed": {s: [[r["attempted"], r["failed"]] for r in results[s]] for s in SIDES},
        "metrics": metrics,
    }


def load_bounds(benchmark: Path) -> dict[str, float]:
    """Each end-to-end metric's bound from a ``BENCHMARK.json``: the share of
    the parent's median by which the change may be worse."""
    doc = json.loads(benchmark.read_text())
    return {m["name"]: m["bound"] for m in doc["end_to_end"]}


def judge(summary: dict, bounds: dict[str, float]) -> dict[str, str]:
    """Verdicts on one workload's summary, per metric that has a bound.

    With p and c the parent's and the change's median and iqr the parent's
    quartile distance, a metric is
    - "gain" when the change won at least 9 of 10 pairs and p - c > iqr;
    - "regression" when (c - p) / p exceeds the bound;
    - "unresolved" when either side's quartile distance, over p, exceeds
      the bound, unless every change run is lower than every parent run;
    - "unchanged" otherwise.
    ``failed_share`` is "larger" when the change failed a larger share of
    its attempted operations than the parent, else "no larger".
    """
    out = {}
    for name, m in summary["metrics"].items():
        if name not in bounds:
            continue
        par, chg = m["parent"], m["change"]
        p, c = par["median"], chg["median"]
        spread = max(s["q3"] - s["q1"] for s in (par, chg))
        if 10 * m["change_lower_in_pairs"] >= 9 * summary["pairs"] and p - c > par["q3"] - par["q1"]:
            out[name] = "gain"
        elif c - p > bounds[name] * p:
            out[name] = "regression"
        elif spread > bounds[name] * p and not max(chg["runs"]) < min(par["runs"]):
            out[name] = "unresolved"
        else:
            out[name] = "unchanged"
    shares = {}
    for side, runs in summary["attempted_failed"].items():
        attempted = sum(a for a, _ in runs)
        shares[side] = sum(f for _, f in runs) / attempted if attempted else 0.0
    out["failed_share"] = "larger" if shares["change"] > shares["parent"] else "no larger"
    return out


def _commit(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _host() -> str:
    import numpy

    py = ".".join(platform.python_version_tuple()[:2])
    return (f"{os.cpu_count()}-core {platform.machine()}, Python {py}, "
            f"numpy {numpy.__version__}, one BLAS thread")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="change checkout")
    ap.add_argument("--workload", nargs="+", required=True,
                    choices=["boundary", "dynamics", "pipeline"])
    ap.add_argument("--seed", type=int, required=True, help="seed of the first workload")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True, help="run length of every run")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bounds = load_bounds(checkouts["parent"] / "BENCHMARK.json")

    doc = {
        "what": "perfbench end-to-end metrics, parent commit against this change, "
                "alternating pairs",
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds} --trace 0",
        "parent_commit": _commit(checkouts["parent"]),
        "host": _host(),
        "workloads": {},
    }
    for i, workload in enumerate(args.workload):
        seed = args.seed + i
        results: dict[str, list[dict]] = {s: [] for s in SIDES}
        for pair in range(args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                res = run_once(checkouts[side], workload, seed, args.seconds)
                results[side].append(res)
                sys.stderr.write(f"{workload} pair {pair} {side}: "
                                 f"time_s {res['metrics']['time_s']['value']:.4f}\n")
        summary = summarize(results)
        doc["workloads"][workload] = {"seed": seed, **summary, "verdicts": judge(summary, bounds)}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")  # keep finished workloads
    return 0


if __name__ == "__main__":
    sys.exit(main())
