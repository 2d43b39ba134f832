"""Command-line interface: one executable, subcommand per operation.

This module only parses and checks flags, calls the library and prints the
result; the pipeline and the choice of target cycle live in the library.
Each concern is declared once. ``_command`` registers a subcommand with its
``--format`` and ``--out``, and one helper per flag group adds the flags the
subcommands share: ``_map_flags`` (--map, --param, --domain), ``_scan_flags``
(--period, --grid), ``_run_flags`` (--steps, --tol), ``_shape_flags`` (--N,
--T) and ``_gain_flags`` (--scheme, --gains). Every handler writes its
report through ``_report``; ``_gains_for`` is the one way to gains, and the
checks that span flags are ``_check_degree`` and ``_check_steps``.

Reports are machine readable: JSON documents start with ``schema_version``
and ``subcommand`` so downstream scripts can pin schemas; CSV output has a
fixed header row per subcommand (``verify`` and ``stabilize`` write JSON
only). Only ``verify`` draws random numbers, so only it takes ``--seed``
(default 0); identical configuration + seed yields byte-identical output.
Exit codes: 0 success, 1 domain error, 2 usage error; a float flag that is
not a finite number, a tolerance that is not positive, an integer flag below
its floor, a length above ``MAX_ARRAY_LENGTH``, a degree (N-1)T + 1 above
``MAX_DEGREE``, fewer than 10 T steps and ``simulate``'s --init with
--history are usage errors.

``main`` parses with one parser per process, built by its first call and
reused by every later one, so a process that runs many commands (a test
suite, a notebook, a benchmark) pays for the parser once; importing the
module builds none. ``build_parser`` returns a new parser on every call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections.abc import Sequence
from dataclasses import asdict
from fractions import Fraction

from .cycles import find_cycles
from .maps import MapError, MapSpec, parse_map
from .polynomials import poly_roots
from .simulation import simulate_nearest
from .spectrum import GainVector, char_poly_closed
from .stability import (
    SCHEMES,
    SCHUR_MARGIN,
    analyze,
    make_gains,
    pipeline_stabilize,
    spectral_radii,
)
from .verify import SUITES, run_suite

SCHEMA_VERSION = 1
# The most sweep rows, scan grid points or steps a command may ask for.
MAX_ARRAY_LENGTH = 10**7
# The highest degree (N-1)T + 1 of a polynomial, or length of a history: a
# root solve takes 16 B x degree^2 for its dense companion matrix.
MAX_DEGREE = 1000


class UsageError(Exception):
    """Invalid flag value; reported with exit status 2."""


class DomainError(Exception):
    """Valid usage but the operation cannot be performed; exit status 1."""


# ---------------------------------------------------------------------------
# Small parsing helpers and the checks that span flags
# ---------------------------------------------------------------------------


def _parse_kv_pairs(pairs: list[str] | None) -> dict[str, float]:
    out: dict[str, float] = {}
    for item in pairs or []:
        if "=" not in item:
            raise UsageError(f"--param expects key=val, got {item!r}")
        key, val = item.split("=", 1)
        out[key.strip()] = _parse_float(val, f"--param {key.strip()}")
    return out


def _parse_float(text: str, flag: str) -> float:
    """The value of a finite number written in a flag."""
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"{flag} expects a number, got {text!r}") from None
    if not math.isfinite(value):
        raise UsageError(f"{flag} expects a finite number, got {text!r}")
    return value


def _finite(flag: str):
    """argparse type of a float flag: a UsageError for text that is not a finite number."""
    return lambda text: _parse_float(text, flag)


def _positive(flag: str):
    """argparse type of a tolerance flag: a UsageError unless it is a finite number > 0."""

    def parse(text: str) -> float:
        value = _parse_float(text, flag)
        if not value > 0.0:
            raise UsageError(f"{flag} must be > 0")
        return value

    return parse


def _int_flag(flag: str, least: int | None, most: int | None = None):
    """argparse type of an integer flag: a UsageError outside [least, most] (None: unbounded)."""

    def parse(text: str) -> int:
        value = int(text)
        if least is not None and value < least:
            raise UsageError(f"{flag} must be >= {least}")
        if most is not None and value > most:
            raise UsageError(f"{flag} must be <= {most}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def _parse_float_list(text: str, flag: str) -> list[float]:
    return [_parse_float(v, flag) for v in text.split(",") if v.strip() != ""]


def _parse_gains(text: str) -> list[float]:
    """--gains as numbers, at least one; GainVector rejects the non-finite
    ones by name."""
    try:
        gains = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise UsageError("--gains expects a comma-separated list of numbers") from None
    if not gains:
        raise UsageError("--gains expects at least one number")
    return gains


def _parse_exact(text: str, flag: str) -> Fraction:
    """The exact rational value of a finite number written in a flag."""
    _parse_float(text, flag)
    return Fraction(text.strip())


def _parse_domain(text: str | None) -> tuple[float, float] | None:
    if text is None:
        return None
    vals = _parse_float_list(text, "--domain")
    if len(vals) != 2 or not (vals[0] < vals[1] and math.isfinite(vals[1] - vals[0])):
        raise UsageError("--domain expects lo,hi with lo < hi and a finite width hi - lo")
    return (vals[0], vals[1])


def _load_map(args) -> MapSpec:
    params = _parse_kv_pairs(args.param)
    return parse_map(args.map, params=params, domain=_parse_domain(args.domain))


def _check_degree(N: int, T: int) -> None:
    """A usage error unless (N-1)T + 1 is at most ``MAX_DEGREE``."""
    degree = (N - 1) * T + 1
    if degree > MAX_DEGREE:
        raise UsageError(f"degree (N-1)*T+1 must be <= {MAX_DEGREE}, got {degree}")


def _check_steps(args) -> None:
    """A usage error unless a run of --steps covers ten periods."""
    if args.steps < 10 * args.period:
        raise UsageError(f"--steps must be at least 10*T = {10 * args.period}")


def _gains_for(args, T: int = 1) -> GainVector:
    """Gains of --scheme for polynomials of period T; without --N, custom
    gains set N by their count. The degree is checked before they are built."""
    custom = None if args.gains is None else _parse_gains(args.gains)
    if args.scheme == "custom" and custom is None:
        raise UsageError("--scheme custom requires --gains")
    N = len(custom) if args.N is None else args.N
    _check_degree(N, T)
    try:
        return make_gains(args.scheme, N, custom)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


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


def _emit_csv(args, header: list[str], columns: list[Sequence]) -> None:
    """A CSV report from columns of equal length. Each column is formatted
    in one pass, then the rows are joined into the report at once."""
    cells = [_csv_column(col) for col in columns]
    lines = [",".join(header), *map(",".join, zip(*cells))]
    _emit(args, "\n".join(lines) + "\n")


def _csv_column(values: Sequence) -> list[str]:
    """``_csv_cell`` of every value, without a call per cell for the column
    types the reports print: floats and ints with blanks, or bools."""
    kinds = set(map(type, values))
    if kinds <= {float, type(None)}:
        # repr(v) is _csv_cell(v), made once per distinct value: a simulated
        # run repeats its cycle. 0.0 == -0.0 share a key, so zeros are made
        # one by one.
        text = {v: repr(v) for v in set(values)}
        text[None] = ""
        cells = list(map(text.__getitem__, values))
        if 0.0 in text:
            cells = [repr(v) if v == 0.0 else cell for v, cell in zip(values, cells)]
        return cells
    if kinds <= {float, int, type(None)}:
        # For exactly these types repr(v) is _csv_cell(v).
        return ["" if v is None else repr(v) for v in values]
    if kinds == {bool}:
        return ["true" if v else "false" for v in values]
    return list(map(_csv_cell, values))


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _report(args, body, header: Sequence[str] = (), columns: Sequence[Sequence] = ()) -> int:
    """Write the report in --format and return exit status 0.

    CSV is ``columns`` under ``header``; JSON is ``body``, the subcommand's
    own keys, or a function that returns them, called only for JSON, so a
    CSV report computes nothing that only the JSON document holds.
    """
    if args.format == "csv":
        _emit_csv(args, header, columns)
    else:
        _emit(args, _json_text(args, body() if callable(body) else body))
    return 0


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_cycles(args) -> int:
    m = _load_map(args)
    cycles = find_cycles(m, args.period, args.grid)
    items = [
        {
            "points": list(c.points),
            "multipliers": list(c.multipliers),
            "product": c.multiplier_product,
        }
        for c in cycles
    ]
    columns = [[idx for idx, c in enumerate(cycles) for _ in c.points],
               [j for c in cycles for j in range(len(c.points))],
               [x for c in cycles for x in c.points],
               [mu for c in cycles for mu in c.multipliers],
               [c.multiplier_product for c in cycles for _ in c.points]]
    return _report(args, {"map": m.source, "period": args.period, "cycles": items},
                   ["cycle", "point_index", "x", "multiplier", "product"], columns)


def _cmd_charpoly(args) -> int:
    gains = _gains_for(args, args.T)
    mults = _parse_float_list(args.multipliers, "--multipliers")
    if len(mults) != args.T:
        raise UsageError(f"--multipliers expects {args.T} values, got {len(mults)}")
    mu = math.prod(mults)  # inf on overflow, which char_poly_closed names
    p = char_poly_closed(args.N, args.T, gains, mu)
    return _report(
        args,
        lambda: {
            "N": args.N,
            "T": args.T,
            "gains": list(gains.coeffs),
            "multipliers": mults,
            "mu": mu,
            "coeffs": p.coeffs.tolist(),
            "roots": _roots_doc(poly_roots(p)),
        },
        ["degree", "coefficient"],
        [range(len(p.coeffs)), p.coeffs.tolist()],
    )


def _cmd_stability(args) -> int:
    gains = _gains_for(args, args.T)
    p = char_poly_closed(args.N, args.T, gains, args.mu)
    report = analyze(p)
    verdict = {
        "spectral_radius": report.spectral_radius,
        "stable": report.schur_stable,
        "jury_verdict": report.jury_verdict,
        "marginal": report.marginal,
    }
    return _report(
        args,
        lambda: {
            "N": args.N,
            "T": args.T,
            "scheme": args.scheme,
            "mu": args.mu,
            "gains": list(gains.coeffs),
            "coeffs": p.coeffs.tolist(),
            **verdict,
            "roots": _roots_doc(report.roots),
        },
        ["mu", *verdict],
        [[v] for v in (args.mu, *verdict.values())],
    )


def _cmd_gains(args) -> int:
    gains = _gains_for(args)
    return _report(args, {"scheme": args.scheme, "N": args.N, "gains": list(gains.coeffs)},
                   ["j", "a_j"], [range(1, len(gains) + 1), list(gains.coeffs)])


def _cmd_simulate(args) -> int:
    m = _load_map(args)
    if args.N is None and not (args.scheme == "custom" and args.gains is not None):
        raise UsageError("--N is required")
    T = args.period
    gains = _gains_for(args, T)
    M = (len(gains) - 1) * T + 1

    if args.history is not None and args.init is not None:
        raise UsageError("give one of --init or --history, not both")
    if args.history is not None:
        history = _parse_float_list(args.history, "--history")
        if len(history) != M:
            raise UsageError(f"--history expects {M} values, got {len(history)}")
    elif args.init is not None:
        history = [args.init] * M
    else:
        raise UsageError("one of --init or --history is required")
    _check_steps(args)

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
    us = [None] * (n_hist - 1) + traj.controls.tolist() + [None]
    columns = [range(len(traj.states)), traj.states.tolist(), us]
    _report(args, lambda: {**summary, "trajectory": [dict(zip(header, r)) for r in zip(*columns)]},
            header, columns)
    if args.format == "csv":  # the JSON summary goes to stdout beside the trajectory
        sys.stdout.write(_json_text(args, summary))
    return 0


def _cmd_sweep(args) -> int:
    """Spectral radius per mu row; one stacked root solve serves every row."""
    bounds = [_parse_exact(v, "--mu-range") for v in args.mu_range.split(",") if v.strip()]
    if len(bounds) != 2 or not bounds[0] <= bounds[1]:
        raise UsageError("--mu-range expects lo,hi with lo <= hi")
    lo, hi = bounds
    step = _parse_exact(args.mu_step, "--mu-step")
    if float(step) <= 0:
        raise UsageError("--mu-step must be positive")
    n_rows = int((hi - lo) / step) + 1
    if n_rows > MAX_ARRAY_LENGTH:
        raise UsageError(f"--mu-range and --mu-step give more than {MAX_ARRAY_LENGTH} rows")
    gains = _gains_for(args, args.T)
    header = ["mu", "spectral_radius", "stable"]
    # Row i is the float nearest to lo + i*step: exact integers over one
    # common denominator, as int / int rounds correctly.
    den = math.lcm(lo.denominator, step.denominator)
    a, b = int(lo * den), int(step * den)
    mus = [(a + i * b) / den for i in range(n_rows)]
    radii = spectral_radii(args.N, args.T, gains, mus)
    columns = [mus, radii.tolist(), (radii < 1.0 - SCHUR_MARGIN).tolist()]
    return _report(
        args,
        lambda: {"N": args.N, "T": args.T, "scheme": args.scheme,
                 "rows": [dict(zip(header, r)) for r in zip(*columns)]},
        header,
        columns,
    )


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
    _report(
        args,
        {
            "suite": args.suite,
            "seed": args.seed,
            "trials": args.trials,
            "results": [asdict(r) for r in results],
            "all_passed": all_passed,
        },
    )
    return 0 if all_passed else 1


def _cmd_stabilize(args) -> int:
    _check_steps(args)
    _check_degree(args.n_max, args.period)
    m = _load_map(args)
    entries = pipeline_stabilize(
        m, args.period, args.scheme, args.n_max, args.steps, args.tol, args.grid
    )
    return _report(
        args,
        {
            "map": m.source,
            "period": args.period,
            "scheme": args.scheme,
            "N_max": args.n_max,
            "entries": entries,
        },
    )


# ---------------------------------------------------------------------------
# Argument parser: subcommands and flag groups
# ---------------------------------------------------------------------------


def _command(subs, name, handler, help, formats=("json", "csv"), default="json"):
    sub = subs.add_parser(name, help=help)
    sub.add_argument("--format", choices=formats, default=default)
    sub.add_argument("--out", help="write the report to this path instead of stdout")
    sub.set_defaults(handler=handler)
    return sub


def _map_flags(sub):
    sub.add_argument("--map", required=True, help='builtin designator ("logistic:r=4") or expression in x')
    sub.add_argument("--param", action="append", metavar="KEY=VAL", help="bind an expression parameter")
    sub.add_argument("--domain", help="override the scan domain as lo,hi")


def _scan_flags(sub):
    sub.add_argument("--period", type=_int_flag("--period", 1), required=True)
    sub.add_argument("--grid", type=_int_flag("--grid", 100, MAX_ARRAY_LENGTH), default=1000)


def _run_flags(sub, steps=None):
    sub.add_argument("--steps", type=_int_flag("--steps", None, MAX_ARRAY_LENGTH),
                     default=steps, required=steps is None)
    sub.add_argument("--tol", type=_positive("--tol"), default=1e-6)


def _shape_flags(sub, T=True, required=True):
    sub.add_argument("--N", type=_int_flag("--N", 1), required=required)
    if T:
        sub.add_argument("--T", type=_int_flag("--T", 1), required=True)


def _gain_flags(sub, required=False):
    sub.add_argument("--scheme", choices=[*SCHEMES, "custom"], required=required,
                     default=None if required else "uniform")
    sub.add_argument("--gains", help="comma-separated gains for --scheme custom"
                     " (--gains=-0.5,1.5 if the first is < 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfclab",
        description="Delayed feedback control of cycles in 1-D maps: "
        "spectra, stability tests, and simulation.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = _command(subs, "cycles", _cmd_cycles, "detect period-T orbits of a map")
    _map_flags(sub)
    _scan_flags(sub)

    sub = _command(subs, "charpoly", _cmd_charpoly,
                   "closed-form characteristic polynomial and roots")
    _shape_flags(sub)
    sub.add_argument("--gains", required=True,
                     help="comma-separated a_1..a_N (--gains=-0.5,1.5 if the first is < 0)")
    sub.add_argument("--multipliers", required=True,
                     help="comma-separated mu_1..mu_T (--multipliers=-2,1.1 if the first is < 0)")
    sub.set_defaults(scheme="custom")  # _gains_for reads --gains as custom gains

    sub = _command(subs, "stability", _cmd_stability, "Schur stability report for one mu")
    _shape_flags(sub)
    _gain_flags(sub)
    sub.add_argument("--mu", type=_finite("--mu"), required=True)

    sub = _command(subs, "gains", _cmd_gains, "emit a gain scheme")
    _gain_flags(sub, required=True)
    _shape_flags(sub, T=False)

    sub = _command(subs, "simulate", _cmd_simulate, "run the controlled dynamics", default="csv")
    _map_flags(sub)
    _scan_flags(sub)
    _gain_flags(sub)
    _shape_flags(sub, T=False, required=False)
    _run_flags(sub)
    sub.add_argument("--init", type=_finite("--init"), help="constant initial history value")
    sub.add_argument("--history", help="explicit initial history, (N-1)T+1 values"
                     " (--history=-0.2,0.5 if the first is < 0)")
    sub.add_argument("--cycle-index", type=int, help="target cycle index (anchor order)")

    sub = _command(subs, "sweep", _cmd_sweep,
                   "spectral radius over a mu range, all rows from one stacked root solve",
                   default="csv")
    _shape_flags(sub)
    _gain_flags(sub)
    sub.add_argument(
        "--mu-range", required=True,
        help="lo,hi (use --mu-range=-3,-1 when lo is negative)",
    )
    sub.add_argument("--mu-step", required=True, help="grid spacing; rows are lo + i*step,"
                     f" at most {MAX_ARRAY_LENGTH} of them")

    sub = _command(subs, "verify", _cmd_verify, "run seeded self-check suites", formats=("json",))
    sub.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    sub.add_argument("--trials", type=_int_flag("--trials", 1), default=100)
    sub.add_argument("--seed", type=int, default=0, help="random seed of the trials")

    sub = _command(subs, "stabilize", _cmd_stabilize, "cycle -> gains -> simulation pipeline",
                   formats=("json",))
    _map_flags(sub)
    _scan_flags(sub)
    sub.add_argument("--scheme", choices=SCHEMES, default="uniform")
    sub.add_argument("--N-max", dest="n_max", type=_int_flag("--N-max", 1), default=32)
    _run_flags(sub, steps=5000)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call in this process shares: argparse keeps
    no state between parses, so one parser serves every command."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)  # a flag's type raises UsageError
        return args.handler(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except (MapError, DomainError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
