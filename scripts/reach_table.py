"""Write src/dfclab/reach_table.py, the stable mu interval of each named-scheme row.

One row per (scheme, T, N) for the gain schemes of ``stability.SCHEMES``,
T <= 4 and N <= 32: ``stability.reach`` of the scheme's gains, (lo, hi,
clear). ``min_N_to_stabilize`` reads its verdicts there, and
``stable_mu_interval`` the interval of gains equal to a row's. Floats are
written by ``repr``, so the module reads back bit for bit. With
``--check`` the script writes nothing and exits 1 when the committed
module differs from a fresh build (after a change to the contacts, the
interval or ``SCHUR_MARGIN``). Whenever the rebuild differs from the
committed module, it prints how far its numbers moved: the largest
relative move of lo and of hi, and every row whose clear flag flipped.
Run it from anywhere:

    python3 scripts/reach_table.py [--check]
"""

from __future__ import annotations

import argparse
import ast
import difflib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from dfclab.stability import SCHEMES, reach  # noqa: E402

TABLE = ROOT / "src" / "dfclab" / "reach_table.py"
T_MAX = 4
N_MAX = 32

HEADER = f'''"""Stable multiplier intervals of the uniform and dk2013 gain schemes.

Generated by ``python3 scripts/reach_table.py``; edit that script, not this
file. ``ROWS[(scheme, T, N)]`` is ``(lo, hi, clear)`` for T <= {T_MAX} and
N <= {N_MAX}: ``reach`` of the scheme's gains, the interval that
``stable_mu_interval`` returns for them, floats written by ``repr`` so they
read back bit for bit, and whether no ``merged_contacts`` value lies
strictly inside it.
"""

ROWS = {{
'''


def rows() -> dict[tuple[str, int, int], tuple[float, float, bool]]:
    """Every row of the table, in the order the module lists them."""
    return {(s, T, N): reach(SCHEMES[s](N), T)
            for s in SCHEMES for T in range(1, T_MAX + 1) for N in range(1, N_MAX + 1)}


def render(table: dict) -> str:
    """The text of the generated module."""
    lines = [f'    ("{scheme}", {T}, {N}): ({lo!r}, {hi!r}, {clear!r}),\n'
             for (scheme, T, N), (lo, hi, clear) in table.items()]
    return "".join([HEADER, *lines, "}\n"])


def parse(text: str) -> dict:
    """The ``ROWS`` of a module text that ``render`` wrote."""
    for node in ast.parse(text).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["ROWS"]:
            return ast.literal_eval(node.value)
    return {}


def moves(old: dict, new: dict) -> list[str]:
    """How the rows of new moved from those of old, one line per finding."""
    def rel(x: float, y: float) -> float:
        return 0.0 if x == y else abs(y - x) / max(abs(x), abs(y))

    largest = {"lo": (0.0, None), "hi": (0.0, None)}
    flipped = []
    for key, (lo1, hi1, clear1) in new.items():
        if key not in old:
            continue
        lo0, hi0, clear0 = old[key]
        if clear0 != clear1:
            flipped.append(f"{key}: clear {clear0} -> {clear1}")
        for name, x, y in (("lo", lo0, lo1), ("hi", hi0, hi1)):
            if rel(x, y) > largest[name][0]:
                largest[name] = (rel(x, y), f"{key}: {x!r} -> {y!r}")
    lines = [f"largest relative move of {name}: {move:.3g}" + (f" at {where}" if where else "")
             for name, (move, where) in largest.items()]
    lines += [f"row {key} only in the committed table" for key in old.keys() - new.keys()]
    lines += [f"row {key} only in the rebuilt table" for key in new.keys() - old.keys()]
    return lines + flipped


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="write nothing; exit 1 if the committed table is stale")
    args = ap.parse_args(argv)
    table = rows()
    text = render(table)
    old = TABLE.read_text() if TABLE.exists() else ""
    if old == text:
        print(f"{TABLE.name}: up to date")
        return 0
    print("\n".join(moves(parse(old), table)))
    if not args.check:
        TABLE.write_text(text)
        print(f"{TABLE.name}: rewritten")
        return 0
    diff = difflib.unified_diff(old.splitlines(), text.splitlines(), "committed", "rebuilt",
                                lineterm="", n=0)
    print("\n".join(list(diff)[:40]))
    print(f"{TABLE.name}: stale; rerun python3 scripts/reach_table.py")
    return 1


if __name__ == "__main__":
    sys.exit(main())
