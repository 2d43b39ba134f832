"""List the benchmark jobs whose output differs between two checkouts.

Each checkout runs every job of ``perfbench/jobs.py`` for the given
workloads and seeds, in a process of its own that imports that checkout's
``src/dfclab`` and ``perfbench/`` as they are. A job's output is the
``repr`` of what it returns, or the type and message of what it raises.
Jobs are matched by workload, seed, place in the round and name; the
script prints each job whose output differs, then one summary line, and
exits 1 when any differs. A differing job whose two outputs read the same
once every float literal is masked differs in floats, and its line gives
the largest |p - c| / (1 + |p|) over its literals; any other differs in
structure (a job one side lacks included). Run it from anywhere:

    python3 scripts/compare_outputs.py ../parent . --seeds 0 1 2 3 4
"""

from __future__ import annotations

import argparse
import json
import math
import re
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("boundary", "dynamics", "pipeline")

# Run in the checkout: argv is the workloads, then "--", then the seeds.
_CHILD = """
import json, sys
sys.path[:0] = ["src", "perfbench"]
import jobs
cut = sys.argv.index("--")
out = {}
for workload in sys.argv[1:cut]:
    for seed in map(int, sys.argv[cut + 1:]):
        for i, job in enumerate(jobs.build(workload, seed)[0]):
            try:
                text = repr(job.run())
            except Exception as exc:
                text = f"raised {type(exc).__name__}: {exc}"
            out[f"{workload} seed={seed} #{i} {job.name}"] = text
print(json.dumps(out))
"""


def outputs(checkout: Path, workloads, seeds) -> dict[str, str]:
    """Output of every job, keyed by workload, seed, place and name."""
    cmd = [sys.executable, "-c", _CHILD, *workloads, "--", *map(str, seeds)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def differing(parent: dict[str, str], change: dict[str, str]) -> list[str]:
    """Jobs of either side whose output differs or that the other side lacks."""
    return sorted(k for k in parent.keys() | change.keys() if parent.get(k) != change.get(k))


# A float's repr, or a float in CLI text: it has a point or an exponent, or
# is inf or nan, and is not part of a name (a "\n" or "\t" escape before it
# in the repr of a string is no name).
_FLOAT = re.compile(r"(?:(?<![\w.])|(?<=\\[nt]))"
                    r"-?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+|inf|nan)(?![\w.])")


def float_gap(parent: str | None, change: str | None) -> float | None:
    """The largest |p - c| / (1 + |p|) over the float literals of two outputs
    that read the same once their float literals are masked, inf where a pair
    is not finite, or None when they differ in structure (or one is None)."""
    if parent is None or change is None or _FLOAT.sub("#", parent) != _FLOAT.sub("#", change):
        return None
    gap = 0.0
    for p, c in zip(_FLOAT.findall(parent), _FLOAT.findall(change)):
        p, c = float(p), float(c)
        if p != c:
            d = abs(p - c) / (1.0 + abs(p))
            gap = max(gap, d if math.isfinite(d) else math.inf)
    return gap


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="parent checkout")
    ap.add_argument("change", type=Path, help="change checkout")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--seeds", nargs="+", type=int, default=[0, 1, 2, 3, 4])
    args = ap.parse_args(argv)
    sides = [outputs(c.resolve(), args.workloads, args.seeds) for c in (args.parent, args.change)]
    diff = differing(*sides)
    for key in diff:
        gap = float_gap(sides[0].get(key), sides[1].get(key))
        what = "in structure" if gap is None else f"in floats, by at most {gap:.1e} relative"
        print(f"differs {what}: {key}")
    print(f"{len(sides[0])} jobs ({', '.join(args.workloads)}; seeds "
          f"{' '.join(map(str, args.seeds))}) compared: {len(diff)} differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
