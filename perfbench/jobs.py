"""The three workloads: job lists drawn from a seed, and the check of each job.

A job calls dfclab once; its check compares the answer with ``oracles`` and
returns the problems found (an empty list means correct). The jobs of a
workload have a fixed make-up, so that the cost of a round hardly depends on
the seed. The seed draws the order of the jobs, charpoly gains and
multipliers, basin sampling seeds and sweep ranges, and moves the initial
values of simulations and the multipliers that exhaust N_max by up to 2.5%
around fixed anchors. Other multipliers stay at their anchors: the number
of Aberth sweeps, and so the cost of one root solve, changes by up to 3.5x
when the multiplier moves by 0.5%.

Jobs look dfclab functions up when they run (``dfclab.stability.analyze``,
not a name bound at import), so that a traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

import dfclab
import dfclab.cli
import oracles as O

WORKLOADS = ("boundary", "dynamics", "pipeline")


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    # Set on a job that fails every time because of a named fault in dfclab.
    known_fault: str | None = None


class CliResult(NamedTuple):
    code: int
    stdout: str


def build(workload: str, seed: int) -> tuple[list[Job], Job]:
    """Job list of one round, in seed-drawn order, and the set-up warm-up job."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    jobs, warmup = {
        "boundary": _boundary,
        "dynamics": _dynamics,
        "pipeline": _pipeline,
    }[workload](rng)
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order], warmup


def _close(x: float, want: float, rtol: float) -> bool:
    return abs(x - want) <= rtol * (1.0 + abs(want))


# ---------------------------------------------------------------------------
# boundary: stability queries on polynomials, no maps
# ---------------------------------------------------------------------------

# (T, N, gain scheme) of the stable-interval queries. The last reaches
# degree (N-1)T + 1 = 93; N=32 there (degree 125) took 1.7 s, 45% of a
# round, and its run-to-run spread alone moved time_s by 7%.
INTERVAL_CLASSES = (
    (1, 8, "uniform"),
    (1, 16, "dk2013"),
    (2, 8, "dk2013"),
    (2, 16, "uniform"),
    (3, 10, "uniform"),
    (4, 8, "dk2013"),
    (4, 24, "uniform"),
)
# (T, scheme, mu anchor, exhausts N_max) of min_N_to_stabilize queries. The
# first four are settled at small N. The rest have multipliers beyond -2^T,
# as the cycles of logistic r=4 do, so they exhaust N_max and reach degree
# (N_max-1)T + 1 = 125 at T=4; the seed moves them, since their cost is a
# sum over 32 root solves.
MIN_N_CLASSES = (
    (1, "uniform", -3.5, False),
    (1, "dk2013", -12.0, False),
    (2, "uniform", -1.8, False),
    (2, "dk2013", -1.6, False),
    (2, "uniform", -4.6, True),
    (3, "dk2013", -9.2, True),
    (4, "uniform", -18.4, True),
)
N_MAX = 32
GAMMA_NS = (8, 24)


def _near(rng, anchor: float, spread: float = 0.05) -> float:
    """anchor, moved by a seed-drawn share of at most spread/2 of its size."""
    return float(anchor * (1.0 + spread * (rng.random() - 0.5)))


def _mu_anchors(N: int, T: int) -> tuple[float, ...]:
    """Multipliers of the analyze jobs, then of the jury job: stable and
    unstable ones for every class (T=1 intervals scale with N)."""
    if T == 1:
        return (-0.5 * N, -1.5 * N, 1.2, -0.8 * N)
    return (-1.0, -3.0, 1.2, -2.0)


def _boundary(rng):
    st = dfclab.stability
    jobs = []
    for T, N, scheme in INTERVAL_CLASSES:
        a = dfclab.make_gains(scheme, N)
        jobs.append(
            Job(
                f"stable_mu_interval N={N} T={T} {scheme}",
                lambda N=N, T=T, a=a, s=scheme: st.stable_mu_interval(N, T, a, scheme=s),
                lambda out, N=N, T=T, s=scheme: check_interval(s, N, T, out),
            )
        )
        mus = _mu_anchors(N, T)
        for mu in mus[:3]:
            jobs.append(
                Job(
                    f"analyze N={N} T={T} {scheme} mu={mu:.4f}",
                    lambda N=N, T=T, a=a, mu=mu: st.analyze(
                        dfclab.spectrum.char_poly_closed(N, T, a, mu)
                    ),
                    lambda out, N=N, T=T, s=scheme, mu=mu: check_report(s, N, T, mu, out),
                )
            )
        mu = mus[3]
        jobs.append(
            Job(
                f"jury_stable N={N} T={T} {scheme} mu={mu:.4f}",
                lambda N=N, T=T, a=a, mu=mu: st.jury_stable(
                    dfclab.spectrum.char_poly_closed(N, T, a, mu)
                ),
                lambda out, N=N, T=T, s=scheme, mu=mu: check_jury(s, N, T, mu, out),
            )
        )
    for T, scheme, anchor, exhausts in MIN_N_CLASSES:
        mu = _near(rng, anchor) if exhausts else anchor
        jobs.append(
            Job(
                f"min_N_to_stabilize T={T} {scheme} mu={mu:.4f}",
                lambda T=T, mu=mu, s=scheme: st.min_N_to_stabilize(T, mu, s, N_MAX),
                lambda out, T=T, mu=mu, s=scheme: check_min_n(s, T, mu, N_MAX, out),
            )
        )
    for N in GAMMA_NS:
        a = dfclab.make_gains("dk2013", N)
        jobs.append(
            Job(
                f"gamma_t1 dk2013 N={N}",
                lambda a=a: st.gamma_t1(a),
                lambda out, N=N: check_gamma(N, out),
            )
        )
    a = dfclab.make_gains("uniform", 4)
    warmup = Job(
        "warm-up analyze N=4 T=2",
        lambda: st.analyze(dfclab.spectrum.char_poly_closed(4, 2, a, -1.5)),
        lambda out: check_report("uniform", 4, 2, -1.5, out),
    )
    return jobs, warmup


def _probe(x: float) -> float:
    """Distance from an endpoint at which the verdict must be settled."""
    return 1e-5 * (1.0 + abs(x))


def check_interval(scheme: str, N: int, T: int, out) -> list[str]:
    a = O.gains(scheme, N)
    problems = []
    if not (math.isfinite(out.lo) and out.lo < 0.0 < out.hi <= 1.0):
        return [f"interval ({out.lo}, {out.hi}) does not contain 0 inside (-inf, 1]"]
    for name, x, sign in (("lo", out.lo, 1.0), ("hi", out.hi, -1.0)):
        inside, outside = x + sign * _probe(x), x - sign * _probe(x)
        if O.inside_unit_disc(a, T, inside) is False:
            problems.append(f"unstable just inside {name}={x!r} (mu={inside!r})")
        if O.inside_unit_disc(a, T, outside) is True:
            problems.append(f"stable just outside {name}={x!r} (mu={outside!r})")
    if scheme == "dk2013" and T == 1:
        want = O.dk2013_lower_endpoint(N)
        if abs(out.lo - want) > 1e-5 + 1e-8 * abs(want):
            problems.append(f"lo={out.lo!r} differs from -cot^2(pi/(2(N+1)))={want!r}")
    return problems


def check_report(scheme: str, N: int, T: int, mu: float, out) -> list[str]:
    a = O.gains(scheme, N)
    r = O.radius(a, T, float(mu))
    problems = []
    if len(out.roots) != (N - 1) * T + 1:
        problems.append(f"{len(out.roots)} roots for degree {(N - 1) * T + 1}")
    if abs(out.spectral_radius - r) > 1e-8 * max(1.0, r):
        problems.append(f"spectral radius {out.spectral_radius!r}, independently {r!r}")
    for field, want in (
        ("schur_stable", O.schur_stable(a, T, mu)),
        ("jury_verdict", O.inside_unit_disc(a, T, mu)),
    ):
        if want is not None and getattr(out, field) != want:
            problems.append(f"{field}={getattr(out, field)} but radius is {r!r}")
    return problems


def check_jury(scheme: str, N: int, T: int, mu: float, out) -> list[str]:
    want = O.inside_unit_disc(O.gains(scheme, N), T, float(mu))
    if want is not None and out != want:
        return [f"jury_stable={out} but radius is {O.radius(O.gains(scheme, N), T, float(mu))!r}"]
    return []


def check_min_n(scheme: str, T: int, mu: float, n_max: int, out) -> list[str]:
    def stable(N):
        return O.schur_stable(O.gains(scheme, N), T, mu)

    if out is None:
        bad = [N for N in range(1, n_max + 1) if stable(N) is True]
        return [f"reported no N, but N={bad[0]} is stable"] if bad else []
    if not 1 <= out <= n_max:
        return [f"N={out} outside 1..{n_max}"]
    problems = []
    if stable(out) is False:
        problems.append(f"N={out} is not stable")
    bad = [N for N in range(1, out) if stable(N) is True]
    if bad:
        problems.append(f"N={out} is not minimal: N={bad[0]} is stable")
    return problems


def check_gamma(N: int, out) -> list[str]:
    """gamma is where a root first reaches the unit circle as mu falls from 0."""
    a = O.gains("dk2013", N)
    crossing = O.dk2013_lower_endpoint(N)
    if not crossing - 1e-6 * abs(crossing) <= out < 0.0:
        return [f"gamma={out!r} outside [{crossing!r}, 0)"]
    problems = []
    r = O.radius(a, 1, float(out))
    if abs(r - 1.0) > 1e-8:
        problems.append(f"no root on the unit circle at gamma={out!r}: radius {r!r}")
    for share in (1 - 1e-4, 0.75, 0.5, 0.25):
        if O.inside_unit_disc(a, 1, out * share) is not True:
            problems.append(f"unstable at mu={out * share!r}, above gamma={out!r}")
    return problems


# ---------------------------------------------------------------------------
# dynamics: map evaluation, cycle search, basins; no root finder
# ---------------------------------------------------------------------------

LOGISTIC4_PERIODS = (5, 6, 7, 8, 9)
LOGISTIC4_EXPR_PERIODS = (5, 6, 7)
CUBIC_BS = (2.6, 2.8)
QUADRATIC_CS = (-1.9, -1.3)
LOGISTIC_RS = (3.7, 3.9)
BASIN_SAMPLES, BASIN_STEPS = 64, 500
# Just past the saddle-node at 1 + sqrt(8), where two period-3 orbits exist.
TANGENT_R = 3.8284272

_PARAM_NAME = {"logistic": "r", "quadratic": "c", "cubic": "b"}


def designator(family: str, param: float) -> str:
    return f"{family}:{_PARAM_NAME[family]}={param!r}"


def _find_job(family, param, T, m, label=None, known_fault=None):
    return Job(
        f"find_cycles {label or designator(family, param)} T={T}",
        lambda: dfclab.cycles.find_cycles(m, T),
        lambda out: check_cycles(family, param, T, out),
        known_fault,
    )


def _dynamics(rng):
    parse = dfclab.maps.parse_map
    jobs = []
    logistic4 = parse("logistic:r=4")
    jobs += [_find_job("logistic", 4.0, T, logistic4) for T in LOGISTIC4_PERIODS]
    m = parse("r*x*(1-x)", params={"r": 4.0})
    jobs += [_find_job("logistic", 4.0, T, m, "r*x*(1-x)") for T in LOGISTIC4_EXPR_PERIODS]
    for family, values, periods in (
        ("cubic", CUBIC_BS, (1, 2, 3, 4, 5)),
        ("quadratic", QUADRATIC_CS, (1, 2, 3, 4)),
        ("logistic", LOGISTIC_RS, (1, 2, 3, 4, 5)),
    ):
        for param in values:
            m = parse(designator(family, param))
            jobs += [_find_job(family, param, T, m) for T in periods]
    # Stabilised fixed points whose basin holds some but not all samples.
    for family, param, N, x, mult in (
        ("cubic", 2.8, 3, math.sqrt(1.8), 3 - 2 * 2.8),
        ("cubic", 2.8, 3, -math.sqrt(1.8), 3 - 2 * 2.8),
        ("logistic", 3.9, 2, 1 - 1 / 3.9, 2 - 3.9),
        ("logistic", 3.9, 2, 1 - 1 / 3.9, 2 - 3.9),
    ):
        m = parse(designator(family, param))
        a = dfclab.make_gains("uniform", N)
        target = dfclab.Cycle(1, (x,), (mult,), mult)
        s = int(rng.integers(2**31))
        jobs.append(
            Job(
                f"basin_fraction {designator(family, param)} N={N} x*={x:.4f} seed={s}",
                lambda m=m, a=a, t=target, s=s: dfclab.simulation.basin_fraction(
                    m, a, 1, t, BASIN_SAMPLES, BASIN_STEPS, seed=s
                ),
                lambda out, f=family, p=param, a=a, x=x, s=s: check_basin(
                    f, p, a.coeffs, (x,), s, out
                ),
            )
        )
    m = parse(designator("logistic", TANGENT_R))
    fault = "find_cycles misses the tangent period-3 orbits past 1+sqrt(8)"
    jobs.append(_find_job("logistic", TANGENT_R, 3, m, known_fault=fault))
    warmup = _find_job("logistic", 4.0, 5, logistic4, "warm-up logistic:r=4")
    return jobs, warmup


def expected_orbits(family: str, param: float, T: int) -> int:
    if family == "logistic" and param == 4.0:
        return O.necklace_count(T)
    return O.orbit_count(family, param, T)


def check_cycles(family: str, param: float, T: int, out) -> list[str]:
    orbits = [(c.points, c.multipliers, c.multiplier_product) for c in out]
    return check_orbits(family, param, T, orbits)


def check_orbits(family, param, T, orbits) -> list[str]:
    problems = []
    want = expected_orbits(family, param, T)
    if len(orbits) != want:
        problems.append(f"{len(orbits)} period-{T} orbits, expected {want}")
    anchors = sorted(min(pts) for pts, _, _ in orbits)
    if any(b - a < 1e-9 for a, b in zip(anchors, anchors[1:])):
        problems.append("an orbit is reported twice")
    for pts, mults, prod in orbits:
        problems += O.orbit_problems(family, param, T, pts, mults, prod)
        if family == "logistic" and param == 4.0 and max(abs(x) for x in pts) > 0.0:
            if abs(abs(prod) - 2.0**T) > 1e-7 * 2.0**T:
                problems.append(f"|multiplier product| {abs(prod)!r} is not 2^{T}")
    return problems


def check_basin(family, param, a, orbit, seed, out) -> list[str]:
    want = O.basin_fraction(
        family, param, tuple(a), 1, tuple(orbit), BASIN_SAMPLES, BASIN_STEPS,
        dfclab.simulation.DEFAULT_SIM_TOL, seed,
    )
    return [] if out == want else [f"basin fraction {out!r}, independently {want!r}"]


# ---------------------------------------------------------------------------
# pipeline: CLI commands in-process
# ---------------------------------------------------------------------------

# (map family, parameter, period, scheme) of stabilize runs.
STABILIZE_RUNS = (
    ("logistic", 4.0, 1, "uniform"),
    ("logistic", 4.0, 1, "dk2013"),
    ("logistic", 4.0, 2, "uniform"),
    ("logistic", 4.0, 2, "dk2013"),
    ("logistic", 4.0, 3, "dk2013"),
    ("logistic", 4.0, 4, "uniform"),
    ("logistic", 3.9, 1, "dk2013"),
    ("logistic", 3.9, 2, "uniform"),
    ("logistic", 3.9, 3, "uniform"),
    ("quadratic", -1.3, 1, "uniform"),
    ("quadratic", -1.3, 2, "dk2013"),
    ("cubic", 2.8, 1, "dk2013"),
    ("cubic", 2.8, 2, "uniform"),
)
# (map family, parameter, N, initial value anchor) of simulate runs: fixed
# points that uniform gains stabilise, so the trajectory may settle or wander.
SIMULATE_RUNS = (
    ("logistic", 3.9, 2, 0.3),
    ("logistic", 4.0, 3, 0.6),
    ("cubic", 2.8, 3, 0.41),
    ("quadratic", -1.3, 2, 0.5),
)
SIMULATE_STEPS = 3000
SWEEP_ROWS, SWEEP_STEP = 300, "0.0125"
SWEEP_NS = {"uniform": 4, "dk2013": 5}
CYCLES_PERIODS = (3, 4, 5, 6)
# (N, T) of the stability and charpoly commands.
STABILITY_SHAPES = ((2, 1), (3, 2), (4, 1), (5, 3), (6, 2), (8, 4), (10, 1), (12, 3), (3, 4), (7, 2))
CHARPOLY_SHAPES = ((2, 1), (3, 1), (2, 2), (3, 2), (4, 2), (5, 1), (4, 3), (6, 2), (5, 3), (6, 3))
# The sweep whose rows show the accumulated step.
GRID_SWEEP = ("3", "2", "-3", "0", "0.1")


def cli(argv: list[str]) -> CliResult:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = dfclab.cli.main(argv)
    return CliResult(code, buf.getvalue())


def _cli_job(argv, check, known_fault=None) -> Job:
    def checked(out: CliResult) -> list[str]:
        if out.code != 0:
            return [f"exit status {out.code}"]
        return check(out.stdout)

    return Job("dfclab " + " ".join(argv), lambda: cli(argv), checked, known_fault)


def _pipeline(rng):
    jobs = []
    for family, param, T, scheme in STABILIZE_RUNS:
        argv = ["stabilize", "--map", designator(family, param), "--period", str(T),
                "--scheme", scheme]
        jobs.append(_cli_job(argv, lambda s, f=family, p=param, T=T, sc=scheme:
                             check_stabilize(f, p, T, sc, s)))
    for family, param, N, anchor in SIMULATE_RUNS:
        init = _near(rng, anchor)
        argv = ["simulate", "--map", designator(family, param), "--period", "1",
                "--N", str(N), "--init", repr(init), "--steps", str(SIMULATE_STEPS)]
        jobs.append(_cli_job(argv, lambda s, f=family, p=param, N=N, x0=init:
                             check_simulate(f, p, N, x0, s)))
    for scheme, N in SWEEP_NS.items():
        lo = f"{-3.2 + 0.01 * int(rng.integers(0, 40)):.2f}"
        hi = f"{float(lo) + (SWEEP_ROWS - 1) * float(SWEEP_STEP):.4f}"
        argv = ["sweep", "--N", str(N), "--T", "2", "--scheme", scheme,
                f"--mu-range={lo},{hi}", "--mu-step", SWEEP_STEP]
        jobs.append(_cli_job(argv, lambda s, N=N, sc=scheme: check_sweep(sc, N, 2, s)))
    for T in CYCLES_PERIODS:
        argv = ["cycles", "--map", "logistic:r=4", "--period", str(T)]
        jobs.append(_cli_job(argv, lambda s, T=T: check_cli_cycles("logistic", 4.0, T, s)))
    for i, (N, T) in enumerate(STABILITY_SHAPES):
        scheme = ("uniform", "dk2013")[i % 2]
        mu = _mu_anchors(N, T)[i % 3]
        argv = ["stability", "--N", str(N), "--T", str(T), "--scheme", scheme,
                f"--mu={mu!r}"]
        jobs.append(_cli_job(argv, lambda s, N=N, T=T, sc=scheme, mu=mu:
                             check_cli_stability(sc, N, T, mu, s)))
    for N, T in CHARPOLY_SHAPES:
        w = rng.uniform(0.1, 1.0, N)
        gains = [float(v) for v in w / w.sum()]
        mults = [float(v) for v in rng.uniform(-2.0, 2.0, T)]
        argv = ["charpoly", "--N", str(N), "--T", str(T),
                "--gains=" + ",".join(map(repr, gains)),
                "--multipliers=" + ",".join(map(repr, mults))]
        jobs.append(_cli_job(argv, lambda s, g=gains, ms=mults: check_charpoly(g, ms, s)))
    N, T, lo, hi, step = GRID_SWEEP
    argv = ["sweep", "--N", N, "--T", T, f"--mu-range={lo},{hi}", "--mu-step", step]
    jobs.append(_cli_job(
        argv,
        lambda s: check_sweep("uniform", int(N), int(T), s, grid=(lo, hi, step)),
        known_fault="sweep accumulates its mu step instead of computing lo + i*step",
    ))
    warmup = _cli_job(["stability", "--N", "4", "--T", "2", "--mu=-1.5"],
                      lambda s: check_cli_stability("uniform", 4, 2, -1.5, s))
    warmup.name = "warm-up " + warmup.name
    return jobs, warmup


def check_stabilize(family, param, T, scheme, stdout) -> list[str]:
    doc = json.loads(stdout)
    entries = doc["entries"]
    problems = check_orbits(
        family, param, T, [(e["points"], e["multipliers"], e["mu"]) for e in entries]
    )
    for e in entries:
        mu = e["mu"]
        if mu >= 1.0:
            if e["stabilizable"]:
                problems.append(f"mu={mu!r} >= 1 reported stabilizable")
            continue
        n_found = e.get("min_N") if e["stabilizable"] else None
        problems += check_min_n(scheme, T, mu, doc["N_max"], n_found)
        if n_found is None:
            continue
        a = O.gains(scheme, n_found)
        if len(e["gains"]) != n_found or any(
            not _close(x, y, 1e-12) for x, y in zip(e["gains"], a)
        ):
            problems.append(f"gains {e['gains']} are not the {scheme} gains for N={n_found}")
            continue
        r = O.radius(a, T, mu)
        if abs(e["spectral_radius"] - r) > 1e-8:
            problems.append(f"spectral radius {e['spectral_radius']!r}, independently {r!r}")
        M = (n_found - 1) * T + 1
        history = tuple(e["points"][i % T] + 1e-4 for i in range(M))
        states, _, diverged = O.trajectory(family, param, tuple(e["gains"]), T, history, 5000)
        conv = O.converged(states, diverged, e["points"], T, 1e-6)
        if e["converged"] != conv:
            problems.append(f"converged={e['converged']} but the recursion gives {conv}")
    return problems


def check_simulate(family, param, N, init, stdout) -> list[str]:
    csv_text, _, summary_text = stdout.partition("{")
    summary = json.loads("{" + summary_text)
    rows = [line.split(",") for line in csv_text.strip().splitlines()[1:]]
    xs = np.array([float(r[1]) for r in rows])
    us = np.array([float(r[2]) for r in rows if r[2] != ""])
    target = summary["target_points"]
    problems = O.orbit_problems(
        family, param, 1, target, O.MAPS[family][1](np.array(target), param),
        float(np.prod(O.MAPS[family][1](np.array(target), param))),
    )
    states, controls, diverged = O.trajectory(
        family, param, O.gains("uniform", N), 1, (init,) * N, SIMULATE_STEPS
    )
    n = len(xs)
    want_x = states[np.isfinite(states)]
    want_u = controls[np.isfinite(controls)]
    if n != len(want_x) or not np.allclose(xs, want_x, rtol=1e-12, atol=1e-12):
        problems.append("trajectory differs from the controlled recursion")
    elif len(us) != len(want_u) or not np.allclose(us, want_u, rtol=1e-12, atol=1e-12):
        problems.append("controls differ from the controlled recursion")
    if summary["diverged"] != diverged:
        problems.append(f"diverged={summary['diverged']} but the recursion says {diverged}")
    conv = O.converged(want_x, diverged, target, 1, 1e-6)
    if summary["converged"] != conv:
        problems.append(f"converged={summary['converged']} but the recursion gives {conv}")
    return problems


def _csv_rows(stdout: str) -> list[list[str]]:
    return [line.split(",") for line in stdout.strip().splitlines()[1:]]


def check_sweep(scheme, N, T, stdout, grid=None) -> list[str]:
    rows = _csv_rows(stdout)
    a = O.gains(scheme, N)
    problems = []
    for mu_s, radius_s, stable_s in rows:
        mu, r = float(mu_s), float(radius_s)
        want = O.schur_stable(a, T, mu)
        if want is not None and (stable_s == "true") != want:
            problems.append(f"mu={mu_s}: stable={stable_s}, radius is {O.radius(a, T, mu)!r}")
        if abs(mu) > 1e-3 and abs(r - O.radius(a, T, mu)) > 1e-7:
            problems.append(f"mu={mu_s}: radius {r!r}, independently {O.radius(a, T, mu)!r}")
    if grid is not None:
        want_mus = O.grid_values(*grid)
        got = [float(r[0]) for r in rows]
        off = [f"{g!r} for {w!r}" for g, w in zip(got, want_mus) if g != w]
        if len(got) != len(want_mus):
            problems.append(f"{len(got)} rows, expected {len(want_mus)}")
        if off:
            problems.append(f"{len(off)} rows off the grid lo + i*step, e.g. {off[0]}")
    return problems


def check_cli_cycles(family, param, T, stdout) -> list[str]:
    items = json.loads(stdout)["cycles"]
    orbits = [(c["points"], c["multipliers"], c["product"]) for c in items]
    return check_orbits(family, param, T, orbits)


def check_cli_stability(scheme, N, T, mu, stdout) -> list[str]:
    doc = json.loads(stdout)
    a = O.gains(scheme, N)
    problems = []
    if any(not _close(x, y, 1e-12) for x, y in zip(doc["gains"], a)):
        problems.append(f"gains {doc['gains']} differ from the {scheme} formula")
    want = O.stability_poly(a, T, mu).coef
    if len(doc["coeffs"]) != len(want) or any(
        not _close(x, y, 1e-12) for x, y in zip(doc["coeffs"], want)
    ):
        problems.append("coefficients differ from the rebuilt polynomial")
    r = O.radius(a, T, mu)
    if abs(doc["spectral_radius"] - r) > 1e-8 * max(1.0, r):
        problems.append(f"spectral radius {doc['spectral_radius']!r}, independently {r!r}")
    for key, verdict in (("stable", O.schur_stable(a, T, mu)),
                         ("jury_verdict", O.inside_unit_disc(a, T, mu))):
        if verdict is not None and doc[key] != verdict:
            problems.append(f"{key}={doc[key]} but radius is {r!r}")
    return problems


def check_charpoly(gains, mults, stdout) -> list[str]:
    doc = json.loads(stdout)
    mu = math.prod(mults)
    T = len(mults)
    want = O.stability_poly(gains, T, mu).coef
    problems = []
    if len(doc["coeffs"]) != len(want) or any(
        not _close(x, y, 1e-12) for x, y in zip(doc["coeffs"], want)
    ):
        problems.append("coefficients differ from the rebuilt polynomial")
    moduli = sorted(root["modulus"] for root in doc["roots"])
    want_moduli = sorted(np.abs(np.roots(want[::-1])))
    if len(moduli) != len(want_moduli) or not np.allclose(moduli, want_moduli, atol=1e-6):
        problems.append("root moduli differ from numpy.roots")
    return problems
