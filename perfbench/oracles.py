"""Answers computed without dfclab, against which the benchmark checks it.

* The stability polynomial p(lambda) = lambda^((N-1)T+1) - mu q(lambda)^T is
  rebuilt with ``numpy.polynomial`` and its spectral radius taken from
  ``numpy.roots``; when that radius lies too close to a verdict threshold for
  double precision, the outermost roots are polished by Newton steps in
  ``mpmath``.
* Periodic-orbit counts come from number theory for logistic r=4 (the
  necklace count) and, for other maps, from fixed-point counts of f^d on a
  dense numpy grid combined by Moebius inversion.
* Controlled trajectories come from a plain numpy run of
  x(k+1) = sum_j a_j f(x(k-(j-1)T)) over a batch of initial histories. The
  maps use the same elementary float operations as their textbook formulas,
  so a trajectory is reproduced bit for bit even where it is chaotic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
from numpy.polynomial import Polynomial

# A radius closer than this to a threshold is refined in mpmath.
NEAR_THRESHOLD = 1e-7
# A refined radius closer than this to a threshold settles no verdict.
UNDECIDABLE = 1e-11
# The margin dfclab puts between "Schur stable" and the unit circle.
SCHUR_MARGIN = 1e-9


# ---------------------------------------------------------------------------
# Gains and the stability polynomial
# ---------------------------------------------------------------------------


def gains(scheme: str, N: int) -> tuple[float, ...]:
    """Gain vector a_1..a_N of a named scheme, from its defining formula."""
    if scheme == "uniform":
        return (1.0 / N,) * N
    if scheme == "dk2013":
        h = N + 1
        j = np.arange(1, N + 1)
        vals = 2.0 * np.tan(np.pi / (2 * h)) * (1.0 - j / h) * np.sin(np.pi * j / h)
        return tuple(float(v) for v in vals / vals.sum())
    raise ValueError(f"unknown scheme {scheme!r}")


def dk2013_lower_endpoint(N: int) -> float:
    """Closed-form lower end -cot^2(pi/(2(N+1))) of the dk2013 T=1 interval."""
    return -1.0 / math.tan(math.pi / (2 * (N + 1))) ** 2


def stability_poly(a, T: int, mu: float) -> Polynomial:
    """p(lambda) = lambda^M - mu q(lambda)^T, q = a_1 lambda^(N-1) + ... + a_N."""
    a = tuple(float(v) for v in a)
    M = (len(a) - 1) * T + 1
    q = Polynomial(a[::-1])
    return Polynomial.basis(M) - mu * q**T


@lru_cache(maxsize=None)
def radius(a: tuple, T: int, mu: float) -> float:
    """Spectral radius of the stability polynomial, refined near 1 and 1 - margin."""
    p = stability_poly(a, T, mu)
    roots = np.roots(p.coef[::-1])
    r = float(np.max(np.abs(roots)))
    if min(abs(r - 1.0), abs(r - (1.0 - SCHUR_MARGIN))) < NEAR_THRESHOLD:
        r = _polished_radius(p, roots)
    return r


def _polished_radius(p: Polynomial, roots: np.ndarray) -> float:
    """Max modulus after Newton-polishing, at 40 digits, every root near the top."""
    coeffs = [mpmath.mpf(float(c)) for c in p.coef[::-1]]
    dcoeffs = [c * (len(coeffs) - 1 - k) for k, c in enumerate(coeffs[:-1])]
    mods = np.abs(roots)
    near = mods >= mods.max() - 1e-6
    best = float(mods[~near].max()) if np.any(~near) else 0.0
    with mpmath.workdps(40):
        for z0 in roots[near]:
            z = mpmath.mpc(complex(z0))
            for _ in range(60):
                step = mpmath.polyval(coeffs, z) / mpmath.polyval(dcoeffs, z)
                z -= step
                if abs(step) < mpmath.mpf(10) ** -30:
                    break
            best = max(best, float(abs(z)))
    return best


def verdict(r: float, threshold: float) -> bool | None:
    """r < threshold, or None when the two are too close to tell apart."""
    if abs(r - threshold) <= UNDECIDABLE:
        return None
    return r < threshold


def schur_stable(a, T: int, mu: float) -> bool | None:
    """dfclab's stability verdict (radius below 1 - margin), decided independently."""
    return verdict(radius(tuple(a), T, float(mu)), 1.0 - SCHUR_MARGIN)


def inside_unit_disc(a, T: int, mu: float) -> bool | None:
    """All roots strictly inside the unit disc, the verdict of the Jury table."""
    return verdict(radius(tuple(a), T, float(mu)), 1.0)


# ---------------------------------------------------------------------------
# Maps and periodic orbits
# ---------------------------------------------------------------------------


def _pow(x, n: int):
    """x**n with C pow, elementwise, as Python floats compute it."""

    def one(v: float) -> float:
        try:
            return math.pow(v, n)
        except OverflowError:
            return math.copysign(math.inf, v) if n % 2 else math.inf

    return np.frompyfunc(one, 1, 1)(x).astype(float)


# family -> (f on numpy arrays, f', domain)
MAPS = {
    "logistic": (
        lambda x, r: r * x * (1 - x),
        lambda x, r: r * (1 - 2 * x),
        (0.0, 1.0),
    ),
    "quadratic": (
        lambda x, c: _pow(x, 2) + c,
        lambda x, c: 2 * x,
        (-2.0, 2.0),
    ),
    "cubic": (
        lambda x, b: b * x - _pow(x, 3),
        lambda x, b: b - 3 * x * x,
        (-2.0, 2.0),
    ),
}


# Sign counts on a grid need no last-bit agreement with C pow.
_FAST_MAPS = {
    "logistic": lambda x, r: r * x * (1 - x),
    "quadratic": lambda x, c: x * x + c,
    "cubic": lambda x, b: b * x - x * x * x,
}


def mobius(n: int) -> int:
    result, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            result = -result
        k += 1
    return -result if n > 1 else result


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def necklace_count(T: int) -> int:
    """Number of period-T orbits of logistic r=4: (1/T) sum_{d|T} mu(T/d) 2^d."""
    return sum(mobius(T // d) * 2**d for d in divisors(T)) // T


@lru_cache(maxsize=None)
def orbit_count(family: str, param: float, T: int, points: int = 1 << 20) -> int:
    """Number of minimal-period-T orbits, from sign changes on a dense grid.

    Fix(f^d) is counted as the sign changes of f^d(x) - x on a grid that
    reaches slightly past both ends of the map's domain, so that a fixed
    point on the boundary counts; Moebius inversion turns the counts into
    points of exact period T.
    """
    f = _FAST_MAPS[family]
    lo, hi = MAPS[family][2]
    pad = 1e-3 * (hi - lo)
    xs = np.linspace(lo - pad, hi + pad, points) + 0.37 * (hi - lo) / points
    fix = dict.fromkeys(divisors(T), 0)
    # Chunks overlap by one point and keep the memory this takes small.
    chunk = 1 << 16
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, points - 1, chunk):
            x = xs[start : start + chunk + 1]
            for d in fix:
                y = x
                for _ in range(d):
                    # Clipping keeps the sign of escaping iterates and avoids inf.
                    y = np.clip(f(y, param), -1e6, 1e6)
                g = np.sign(y - x)
                fix[d] += int(np.count_nonzero(g[:-1] == 0) + np.count_nonzero(g[:-1] * g[1:] < 0))
    exact = sum(mobius(T // d) * fix[d] for d in divisors(T))
    if exact % T:
        raise ArithmeticError(f"{exact} period-{T} points do not form whole orbits")
    return exact // T


def orbit_problems(
    family: str, param: float, T: int, points, multipliers, product
) -> list[str]:
    """What is wrong with a reported orbit, by plain-float iteration of f."""
    f, df, _ = MAPS[family]
    pts = np.asarray(points, dtype=float)
    problems = []
    if len(pts) != T:
        return [f"orbit has {len(pts)} points, expected {T}"]
    images = f(pts, param)
    gap = np.abs(images - np.roll(pts, -1))
    if np.any(gap > 1e-9 * (1 + np.abs(pts))):
        problems.append(f"orbit does not close: max |f(x_j) - x_j+1| = {gap.max():.3g}")
    if T > 1 and np.min(np.abs(pts[:, None] - pts[None, :]) + np.eye(T)) < 1e-9:
        problems.append("orbit repeats a point, so its period is not minimal")
    want = df(pts, param)
    if np.any(np.abs(np.asarray(multipliers) - want) > 1e-9 * (1 + np.abs(want))):
        problems.append("multipliers differ from f'(x_j)")
    true_product = float(np.prod(want))
    if abs(product - true_product) > 1e-8 * (1 + abs(true_product)):
        problems.append(f"multiplier product {product!r} differs from {true_product!r}")
    return problems


# ---------------------------------------------------------------------------
# Controlled recursion
# ---------------------------------------------------------------------------


def controlled_run(family: str, param: float, a, T: int, histories, steps: int):
    """Run x(k+1) = sum_j a_j f(x(k-(j-1)T)) for each row of ``histories``.

    Returns (states, controls, diverged). A row that produces a non-finite
    value stops there: its later states are NaN and ``diverged`` is set.
    """
    f = MAPS[family][0]
    a = [float(v) for v in a]
    hist = np.atleast_2d(np.asarray(histories, dtype=float))
    S, M = hist.shape
    N = len(a)
    if M != (N - 1) * T + 1:
        raise ValueError("history length must be (N-1)T + 1")
    states = np.full((S, M + steps), np.nan)
    states[:, :M] = hist
    controls = np.full((S, steps), np.nan)
    alive = np.ones(S, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(M - 1, M - 1 + steps):
            rows = np.nonzero(alive)[0]
            if rows.size == 0:
                break
            fx = [f(states[rows, k - (j - 1) * T], param) for j in range(1, N + 1)]
            new = 0.0
            for c, v in zip(a, fx):
                new = new + c * v
            ok = np.isfinite(new)
            for v in fx:
                ok &= np.isfinite(v)
            alive[rows[~ok]] = False
            good = rows[ok]
            states[good, k + 1] = new[ok]
            controls[good, k - M + 1] = new[ok] - fx[0][ok]
    return states, controls, ~alive


@lru_cache(maxsize=None)
def trajectory(family: str, param: float, a: tuple, T: int, history: tuple, steps: int):
    """(states, controls, diverged) of one run of ``controlled_run``, kept read-only."""
    states, controls, diverged = controlled_run(family, param, a, T, [history], steps)
    states[0].setflags(write=False)
    controls[0].setflags(write=False)
    return states[0], controls[0], bool(diverged[0])


def converged(states: np.ndarray, diverged: bool, orbit, T: int, tol: float) -> bool:
    """Every state of the last 10T lies within tol of the orbit, as a set."""
    if diverged:
        return False
    window = np.asarray(states)[-10 * T :]
    dist = np.min(np.abs(window[:, None] - np.asarray(orbit)[None, :]), axis=1)
    return bool(np.all(dist <= tol))


@lru_cache(maxsize=None)
def basin_fraction(
    family: str, param: float, a: tuple, T: int, orbit: tuple, samples: int,
    steps: int, tol: float, seed: int,
) -> float:
    """Share of constant initial histories, drawn as dfclab draws them, that converge."""
    lo, hi = MAPS[family][2]
    draws = np.random.default_rng(seed).uniform(lo, hi, samples)
    M = (len(a) - 1) * T + 1
    states, _, diverged = controlled_run(
        family, param, a, T, np.repeat(draws[:, None], M, axis=1), steps
    )
    hits = sum(
        converged(states[i], diverged[i], orbit, T, tol) for i in range(samples)
    )
    return hits / samples


def grid_values(lo: str, hi: str, step: str) -> list[float]:
    """The floats nearest to lo + i*step, i = 0.., up to and including hi."""
    lo_q, hi_q, step_q = Fraction(lo), Fraction(hi), Fraction(step)
    n = int((hi_q - lo_q) / step_q)
    return [float(lo_q + i * step_q) for i in range(n + 1)]
