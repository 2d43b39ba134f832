"""Command-line interface: one executable, subcommand per operation.

This module only parses and checks flags, calls the library and prints the
result; the pipeline and the choice of target cycle live in the library.
Reports are machine readable: JSON documents start with ``schema_version``
and ``subcommand`` so downstream scripts can pin schemas; CSV output has a
fixed header row per subcommand. Every subcommand accepts ``--seed``
(default 0), but only ``verify`` draws random numbers; identical
configuration + seed yields byte-identical output. Exit codes: 0 success,
1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from .cycles import find_cycles
from .maps import MapError, MapSpec, parse_map
from .polynomials import poly_roots
from .simulation import simulate_nearest
from .spectrum import GainVector, char_poly_closed
from .stability import (
    SCHUR_MARGIN,
    analyze,
    make_gains,
    pipeline_stabilize,
    spectral_radius,
)
from .verify import run_suite

SCHEMA_VERSION = 1
GAINS_HELP = "comma-separated gains for --scheme custom (--gains=-0.5,1.5 if the first is < 0)"
# The least value of each integer flag, by argparse dest.
INT_FLOORS = {
    "period": ("--period", 1),
    "grid": ("--grid", 100),
    "N": ("--N", 1),
    "T": ("--T", 1),
    "n_max": ("--N-max", 1),
    "trials": ("--trials", 1),
}


class UsageError(Exception):
    """Invalid flag value; reported with exit status 2."""


class DomainError(Exception):
    """Valid usage but the operation cannot be performed; exit status 1."""


# ---------------------------------------------------------------------------
# Small parsing helpers
# ---------------------------------------------------------------------------


def _parse_kv_pairs(pairs: list[str] | None) -> dict[str, float]:
    out: dict[str, float] = {}
    for item in pairs or []:
        if "=" not in item:
            raise UsageError(f"--param expects key=val, got {item!r}")
        key, val = item.split("=", 1)
        try:
            out[key.strip()] = float(val)
        except ValueError:
            raise UsageError(f"--param {key}: bad numeric value {val!r}") from None
    return out


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise UsageError(f"{flag} expects a comma-separated list of numbers") from None


def _parse_exact(text: str, flag: str) -> Fraction:
    """The exact rational value of a finite number written in a flag."""
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"{flag} expects a number, got {text!r}") from None
    if not math.isfinite(value):
        raise UsageError(f"{flag} expects a finite number, got {text!r}")
    return Fraction(text.strip())


def _parse_domain(text: str | None) -> tuple[float, float] | None:
    if text is None:
        return None
    vals = _parse_float_list(text, "--domain")
    if len(vals) != 2 or not vals[0] < vals[1]:
        raise UsageError("--domain expects lo,hi with lo < hi")
    return (vals[0], vals[1])


def _load_map(args) -> MapSpec:
    params = _parse_kv_pairs(getattr(args, "param", None))
    domain = _parse_domain(getattr(args, "domain", None))
    return parse_map(args.map, params=params, domain=domain)


def _check_int_floors(args) -> None:
    """Every integer flag below its floor is a usage error, checked before the handler.

    ``gains --N`` is left to make_gains, whose message names N against the
    count of --gains.
    """
    if args.subcommand == "gains":
        return
    for dest, (flag, least) in INT_FLOORS.items():
        value = getattr(args, dest, None)
        if value is not None and value < least:
            raise UsageError(f"{flag} must be >= {least}")


def _make_gains(scheme: str, N: int, custom: list[float] | None) -> GainVector:
    try:
        return make_gains(scheme, N, custom)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _gains_for(args) -> GainVector:
    """Gains of --scheme; without --N, custom gains set N by their count."""
    custom = _parse_float_list(args.gains, "--gains") if args.gains else None
    if args.scheme == "custom" and custom is None:
        raise UsageError("--scheme custom requires --gains")
    N = len(custom) if args.N is None else args.N
    return _make_gains(args.scheme, N, custom)


def _roots_doc(roots) -> list[dict]:
    return [
        {"re": float(r.real), "im": float(r.imag), "modulus": float(abs(r))}
        for r in roots
    ]


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(args, body: dict) -> str:
    """A JSON report: the schema header, then the subcommand's own keys."""
    doc = {"schema_version": SCHEMA_VERSION, "subcommand": args.subcommand, **body}
    return json.dumps(doc, indent=2) + "\n"


def _emit_json(args, body: dict) -> None:
    _emit(args, _json_text(args, body))


def _emit_csv(args, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    _emit(args, "\n".join(lines) + "\n")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_cycles(args) -> int:
    m = _load_map(args)
    cycles = find_cycles(m, args.period, args.grid, orbit_tol=args.tol)
    items = [
        {
            "points": list(c.points),
            "multipliers": list(c.multipliers),
            "product": c.multiplier_product,
        }
        for c in cycles
    ]
    if args.format == "csv":
        rows = []
        for idx, c in enumerate(cycles):
            for j, (x, mu) in enumerate(zip(c.points, c.multipliers)):
                rows.append([idx, j, x, mu, c.multiplier_product])
        _emit_csv(args, ["cycle", "point_index", "x", "multiplier", "product"], rows)
    else:
        _emit_json(args, {"map": m.source, "period": args.period, "cycles": items})
    return 0


def _cmd_charpoly(args) -> int:
    gains_list = _parse_float_list(args.gains, "--gains")
    mults = _parse_float_list(args.multipliers, "--multipliers")
    gains = _make_gains("custom", args.N, gains_list)
    if len(mults) != args.T:
        raise UsageError(f"--multipliers expects {args.T} values, got {len(mults)}")
    mu = float(np.prod(mults))
    p = char_poly_closed(args.N, args.T, gains, mu)
    if args.format == "csv":
        rows = [[k, c] for k, c in enumerate(p.coeffs)]
        _emit_csv(args, ["degree", "coefficient"], rows)
    else:
        _emit_json(
            args,
            {
                "N": args.N,
                "T": args.T,
                "gains": gains_list,
                "multipliers": mults,
                "mu": mu,
                "coeffs": p.coeffs.tolist(),
                "roots": _roots_doc(poly_roots(p)),
            },
        )
    return 0


def _cmd_stability(args) -> int:
    gains = _gains_for(args)
    p = char_poly_closed(args.N, args.T, gains, args.mu)
    report = analyze(p)
    verdict = {
        "spectral_radius": report.spectral_radius,
        "stable": report.schur_stable,
        "jury_verdict": report.jury_verdict,
        "marginal": report.marginal,
    }
    if args.format == "csv":
        _emit_csv(args, ["mu", *verdict], [[args.mu, *verdict.values()]])
    else:
        _emit_json(
            args,
            {
                "N": args.N,
                "T": args.T,
                "scheme": args.scheme,
                "mu": args.mu,
                "gains": list(gains.coeffs),
                "coeffs": p.coeffs.tolist(),
                **verdict,
                "roots": _roots_doc(report.roots),
            },
        )
    return 0


def _cmd_gains(args) -> int:
    gains = _gains_for(args)
    if args.format == "csv":
        rows = [[j + 1, a] for j, a in enumerate(gains.coeffs)]
        _emit_csv(args, ["j", "a_j"], rows)
    else:
        _emit_json(
            args, {"scheme": args.scheme, "N": args.N, "gains": list(gains.coeffs)}
        )
    return 0


def _cmd_simulate(args) -> int:
    m = _load_map(args)
    if args.N is None and not (args.scheme == "custom" and args.gains):
        raise UsageError("--N is required")
    gains = _gains_for(args)
    T = args.period
    M = (len(gains) - 1) * T + 1

    if args.history is not None:
        history = _parse_float_list(args.history, "--history")
        if len(history) != M:
            raise UsageError(f"--history expects {M} values, got {len(history)}")
    elif args.init is not None:
        history = [args.init] * M
    else:
        raise UsageError("one of --init or --history is required")
    if args.steps < 10 * T:
        raise UsageError(f"--steps must be at least 10*T = {10 * T}")

    cycles = find_cycles(m, T, args.grid)
    if not cycles:
        raise DomainError(f"no period-{T} cycle found on domain {m.domain}")
    if args.cycle_index is not None:
        if not 0 <= args.cycle_index < len(cycles):
            raise UsageError(
                f"--cycle-index out of range (found {len(cycles)} cycles)"
            )
        cycles = [cycles[args.cycle_index]]
    traj = simulate_nearest(m, gains, T, history, args.steps, cycles, args.tol)

    summary = {
        "map": m.source,
        "period": T,
        "scheme": args.scheme,
        "N": len(gains),
        "target_points": list(traj.target.points),
        "converged": traj.converged,
        "settle_step": traj.settle_step,
        "diverged": traj.diverged,
    }
    header = ["k", "x", "u"]
    # u(k) is the control applied on the step from state k to k+1; the
    # history rows before the last one and the final state carry none.
    n_hist = len(traj.states) - len(traj.controls)
    us = [None] * (n_hist - 1) + [float(u) for u in traj.controls] + [None]
    rows = [[k, float(x), u] for k, (x, u) in enumerate(zip(traj.states, us))]

    if args.format == "json":
        trajectory = [dict(zip(header, r)) for r in rows]
        _emit_json(args, {**summary, "trajectory": trajectory})
    else:
        # CSV trajectory to --out (or stdout), JSON summary to stdout.
        _emit_csv(args, header, rows)
        sys.stdout.write(_json_text(args, summary))
    return 0


def _cmd_sweep(args) -> int:
    bounds = [_parse_exact(v, "--mu-range") for v in args.mu_range.split(",") if v.strip()]
    if len(bounds) != 2 or not bounds[0] <= bounds[1]:
        raise UsageError("--mu-range expects lo,hi with lo <= hi")
    lo, hi = bounds
    step = _parse_exact(args.mu_step, "--mu-step")
    if float(step) <= 0:
        raise UsageError("--mu-step must be positive")
    gains = _gains_for(args)
    header = ["mu", "spectral_radius", "stable"]
    rows = []
    # Row i is the float nearest to lo + i*step, computed exactly.
    for i in range(int((hi - lo) / step) + 1):
        mu = float(lo + i * step)
        radius = spectral_radius(char_poly_closed(args.N, args.T, gains, mu))
        rows.append([mu, radius, bool(radius < 1.0 - SCHUR_MARGIN)])
    if args.format == "json":
        doc_rows = [dict(zip(header, r)) for r in rows]
        _emit_json(args, {"N": args.N, "T": args.T, "scheme": args.scheme, "rows": doc_rows})
    else:
        _emit_csv(args, header, rows)
    return 0


def _cmd_verify(args) -> int:
    try:
        results = run_suite(args.suite, trials=args.trials, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        sys.stderr.write(
            f"{status} {res.name}: max_err={res.max_err:.3e} "
            f"tol={res.tolerance:.1e} ({res.trials} trials)\n"
        )
    all_passed = all(r.passed for r in results)
    _emit_json(
        args,
        {
            "suite": args.suite,
            "seed": args.seed,
            "trials": args.trials,
            "results": [r.to_dict() for r in results],
            "all_passed": all_passed,
        },
    )
    return 0 if all_passed else 1


def _cmd_stabilize(args) -> int:
    m = _load_map(args)
    steps = max(args.steps, 10 * args.period)
    entries = pipeline_stabilize(
        m, args.period, args.scheme, args.n_max, steps, args.tol, args.grid
    )
    _emit_json(
        args,
        {
            "map": m.source,
            "period": args.period,
            "scheme": args.scheme,
            "N_max": args.n_max,
            "entries": entries,
        },
    )
    return 0


# ---------------------------------------------------------------------------
# Argument parser
# ---------------------------------------------------------------------------


def _add_common(sub, fmt_default="json"):
    sub.add_argument("--format", choices=["json", "csv"], default=fmt_default)
    sub.add_argument("--out", help="write the report to this path instead of stdout")
    sub.add_argument("--seed", type=int, default=0, help="random seed; only verify reads it")


def _add_map_flags(sub):
    sub.add_argument("--map", required=True, help='builtin designator ("logistic:r=4") or expression in x')
    sub.add_argument("--param", action="append", metavar="KEY=VAL", help="bind an expression parameter")
    sub.add_argument("--domain", help="override the scan domain as lo,hi")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfclab",
        description="Delayed feedback control of cycles in 1-D maps: "
        "spectra, stability tests, and simulation.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = subs.add_parser("cycles", help="detect period-T orbits of a map")
    _add_map_flags(sub)
    sub.add_argument("--period", type=int, required=True)
    sub.add_argument("--grid", type=int, default=1000)
    sub.add_argument("--tol", type=float, default=1e-8)
    _add_common(sub)
    sub.set_defaults(handler=_cmd_cycles)

    sub = subs.add_parser("charpoly", help="closed-form characteristic polynomial and roots")
    sub.add_argument("--N", type=int, required=True)
    sub.add_argument("--T", type=int, required=True)
    sub.add_argument("--gains", required=True,
                     help="comma-separated a_1..a_N (--gains=-0.5,1.5 if the first is < 0)")
    sub.add_argument("--multipliers", required=True,
                     help="comma-separated mu_1..mu_T (--multipliers=-2,1.1 if the first is < 0)")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_charpoly)

    sub = subs.add_parser("stability", help="Schur stability report for one mu")
    sub.add_argument("--N", type=int, required=True)
    sub.add_argument("--T", type=int, required=True)
    sub.add_argument("--scheme", choices=["uniform", "dk2013", "custom"], default="uniform")
    sub.add_argument("--gains", help=GAINS_HELP)
    sub.add_argument("--mu", type=float, required=True)
    _add_common(sub)
    sub.set_defaults(handler=_cmd_stability)

    sub = subs.add_parser("gains", help="emit a gain scheme")
    sub.add_argument("--scheme", choices=["uniform", "dk2013", "custom"], required=True)
    sub.add_argument("--N", type=int, required=True)
    sub.add_argument("--gains", help=GAINS_HELP)
    _add_common(sub)
    sub.set_defaults(handler=_cmd_gains)

    sub = subs.add_parser("simulate", help="run the controlled dynamics")
    _add_map_flags(sub)
    sub.add_argument("--period", type=int, required=True)
    sub.add_argument("--scheme", choices=["uniform", "dk2013", "custom"], default="uniform")
    sub.add_argument("--N", type=int)
    sub.add_argument("--gains", help=GAINS_HELP)
    sub.add_argument("--init", type=float, help="constant initial history value")
    sub.add_argument("--history", help="explicit initial history, (N-1)T+1 values"
                     " (--history=-0.2,0.5 if the first is < 0)")
    sub.add_argument("--steps", type=int, required=True)
    sub.add_argument("--tol", type=float, default=1e-6)
    sub.add_argument("--grid", type=int, default=1000)
    sub.add_argument("--cycle-index", type=int, help="target cycle index (anchor order)")
    _add_common(sub, fmt_default="csv")
    sub.set_defaults(handler=_cmd_simulate)

    sub = subs.add_parser("sweep", help="spectral radius over a mu range")
    sub.add_argument("--N", type=int, required=True)
    sub.add_argument("--T", type=int, required=True)
    sub.add_argument("--scheme", choices=["uniform", "dk2013", "custom"], default="uniform")
    sub.add_argument("--gains", help=GAINS_HELP)
    sub.add_argument(
        "--mu-range", required=True,
        help="lo,hi (use --mu-range=-3,-1 when lo is negative)",
    )
    sub.add_argument("--mu-step", required=True, help="grid spacing; rows are lo + i*step")
    _add_common(sub, fmt_default="csv")
    sub.set_defaults(handler=_cmd_sweep)

    sub = subs.add_parser("verify", help="run seeded self-check suites")
    sub.add_argument(
        "--suite",
        choices=["lemma1", "chain", "rotation", "morgul", "all"],
        default="all",
    )
    sub.add_argument("--trials", type=int, default=100)
    _add_common(sub)
    sub.set_defaults(handler=_cmd_verify)

    sub = subs.add_parser("stabilize", help="cycle -> gains -> simulation pipeline")
    _add_map_flags(sub)
    sub.add_argument("--period", type=int, required=True)
    sub.add_argument("--scheme", choices=["uniform", "dk2013"], default="uniform")
    sub.add_argument("--N-max", dest="n_max", type=int, default=32)
    sub.add_argument("--steps", type=int, default=5000)
    sub.add_argument("--tol", type=float, default=1e-6)
    sub.add_argument("--grid", type=int, default=1000)
    _add_common(sub)
    sub.set_defaults(handler=_cmd_stabilize)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_int_floors(args)
        return args.handler(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except (MapError, DomainError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
