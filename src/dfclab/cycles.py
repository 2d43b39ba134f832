"""Detection of T-periodic orbits of a scalar map and their multipliers.

Cycles are located as roots of g(x) = f^T(x) - x: a sign-change scan on a
uniform grid over the map's domain, bisection to a 1e-12 bracket, and a
short Newton polish. Roots are then filtered to minimal period T, grouped
into orbits, and deduplicated with each orbit anchored at its smallest
point. Near-tangent cycles (multiplier close to +1) can slip through a
sign-change scan; a denser grid is the mitigation.

The scan and the bisection run on arrays: the grid is one T-fold iteration
of ``eval_map_array``, and every sign-change bracket is bisected in
lockstep, one array evaluation of g per halving for all brackets still
open. Each bracket sees the midpoints, the exit on ``g(mid) == 0.0`` and the
sign test that a bracket-by-bracket bisection would, and the array form of
f is bit-identical to ``eval_map``, so the roots are too. A grid node whose
f^T raises is skipped; a midpoint whose f^T raises makes find_cycles raise
that error, as the scalar g would. The Newton polish, the minimal-period
filter and the grouping evaluate f point by point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .maps import MapEvalError, MapSpec, eval_map, eval_map_array, eval_map_deriv

__all__ = [
    "Cycle",
    "find_cycles",
    "multiplier_of",
    "ORBIT_TOL",
    "PERIOD_TOL",
]

ORBIT_TOL = 1e-8  # orbit membership / grouping
PERIOD_TOL = 1e-8  # minimal-period rejection
CLOSURE_RTOL = 1e-10  # cycle closure, relative to 1 + |x|
BRACKET_WIDTH = 1e-12
NEWTON_MAX_ITER = 20


@dataclass(frozen=True)
class Cycle:
    """A minimal-period-T orbit with its per-point multipliers.

    ``points`` are ordered so f(points[j]) = points[(j+1) % T], anchored at
    the smallest point; ``multipliers[j]`` is f'(points[j]) and
    ``multiplier_product`` their product.
    """

    period: int
    points: tuple[float, ...]
    multipliers: tuple[float, ...]
    multiplier_product: float

    def __post_init__(self):
        if self.period < 1 or len(self.points) != self.period:
            raise ValueError("period must match the number of points")
        if len(self.multipliers) != self.period:
            raise ValueError("need one multiplier per point")
        prod = math.prod(self.multipliers)
        if abs(prod - self.multiplier_product) > 1e-12 * (1.0 + abs(prod)):
            raise ValueError("multiplier_product inconsistent with multipliers")

    def distance_to(self, x: float) -> float:
        """Distance from x to the orbit treated as a set."""
        return min(abs(x - p) for p in self.points)


def _iterate(m: MapSpec, x: float, n: int) -> float:
    for _ in range(n):
        x = eval_map(m, x)
    return x


def _iterate_array(m: MapSpec, x: np.ndarray, n: int) -> np.ndarray:
    """f^n over an array, NaN where an evaluation raises."""
    for _ in range(n):
        x, bad = eval_map_array(m, x)
        x[bad] = np.nan
    return x


def _g_and_slope(m: MapSpec, x: float, T: int) -> tuple[float, float]:
    """g(x) = f^T(x) - x and g'(x) via the chain rule along the path."""
    val, slope = x, 1.0
    for _ in range(T):
        slope *= eval_map_deriv(m, val)
        val = eval_map(m, val)
    return val - x, slope - 1.0


def multiplier_of(
    m: MapSpec, points, orbit_tol: float = ORBIT_TOL
) -> tuple[tuple[float, ...], float]:
    """Multipliers f'(x_j) along a verified orbit and their product.

    Rejects point sequences that fail the orbit property
    |f(x_j) - x_{(j+1) mod T}| <= orbit_tol * (1 + |x_j|).
    """
    pts = [float(p) for p in points]
    if not pts:
        raise ValueError("empty point sequence")
    T = len(pts)
    for j, x in enumerate(pts):
        nxt = pts[(j + 1) % T]
        if abs(eval_map(m, x) - nxt) > orbit_tol * (1.0 + abs(x)):
            raise ValueError(
                f"points do not form an orbit: |f(x_{j}) - x_{(j + 1) % T}| "
                f"exceeds {orbit_tol}"
            )
    mus = tuple(eval_map_deriv(m, x) for x in pts)
    return mus, math.prod(mus)


def find_cycles(
    m: MapSpec,
    period: int,
    grid_points: int = 1000,
    orbit_tol: float = ORBIT_TOL,
    period_tol: float = PERIOD_TOL,
) -> list[Cycle]:
    """All minimal-period-`period` orbits of m found on its domain.

    An empty result is valid (no cycles of that period in the domain).
    Orbits are reported once each, anchored at their smallest point and
    sorted by anchor.
    """
    if period < 1:
        raise ValueError("period must be a positive integer")
    if grid_points < 100:
        raise ValueError("grid_points must be at least 100")
    lo, hi = m.domain
    T = period

    def g(x: float) -> float:
        return _iterate(m, x, T) - x

    # Grid scan for sign changes / exact nodes; NaN marks a node whose map errors.
    n = grid_points
    xs = lo + (hi - lo) * np.arange(n) / (n - 1)
    with np.errstate(over="ignore"):
        gs = _iterate_array(m, xs, T) - xs
        exact = np.abs(gs) <= 1e-13 * (1.0 + np.abs(xs))
        ga, gb = gs[:-1], gs[1:]
        change = np.isfinite(ga) & np.isfinite(gb) & (ga * gb < 0.0)
    roots = xs[exact].tolist()
    roots += _refine_roots(m, g, xs[:-1][change], xs[1:][change], ga[change], T, lo, hi)

    # Minimal-period filter: reject roots fixed by a proper divisor of T.
    minimal: list[float] = []
    for r in roots:
        is_minimal = True
        for d in range(1, T):
            if T % d == 0 and abs(_iterate(m, r, d) - r) <= period_tol:
                is_minimal = False
                break
        if is_minimal:
            minimal.append(r)

    # Group roots into orbits and anchor each at its smallest point.
    cycles: list[Cycle] = []
    anchors: list[float] = []
    for r in minimal:
        orbit = [r]
        for _ in range(T - 1):
            orbit.append(eval_map(m, orbit[-1]))
        anchor = min(orbit)
        if any(abs(anchor - a) <= orbit_tol for a in anchors):
            continue
        # Re-polish the anchor so the reported orbit closes tightly.
        anchor = _newton_polish(m, anchor, T, lo, hi)
        pts = [anchor]
        for _ in range(T - 1):
            pts.append(eval_map(m, pts[-1]))
        closure_ok = all(
            abs(eval_map(m, pts[j]) - pts[(j + 1) % T])
            <= CLOSURE_RTOL * (1.0 + abs(pts[j]))
            for j in range(T)
        )
        if not closure_ok:
            continue
        anchors.append(anchor)
        mus, prod = multiplier_of(m, pts, orbit_tol)
        cycles.append(
            Cycle(period=T, points=tuple(pts), multipliers=mus, multiplier_product=prod)
        )

    cycles.sort(key=lambda c: c.points[0])
    return cycles


def _refine_roots(m, g, xa, xb, ga, T, lo, hi) -> list[float]:
    """Bisect every bracket to a 1e-12 width in lockstep, then Newton polish.

    Bracket i starts as [xa[i], xb[i]] with g(xa[i]) = ga[i]. A bracket whose
    midpoint g is exactly 0.0 stops there and is polished directly. Of a
    bracket bisected to width, the polished point is kept unless its |g|
    exceeds that of the bracket midpoint (Newton can stall on flat spots).
    """
    ends = np.empty(len(xa))  # per bracket: its midpoint when it stopped
    fm_end = np.ones(len(xa))  # g there if the bracket stopped on 0.0 or NaN
    rows, a, b, fa = np.arange(len(xa)), xa, xb, ga
    with np.errstate(over="ignore"):
        while True:
            wide = b - a > BRACKET_WIDTH
            if not wide.all():
                ends[rows[~wide]] = 0.5 * (a[~wide] + b[~wide])
                rows, a, b, fa = rows[wide], a[wide], b[wide], fa[wide]
            if not rows.size:
                break
            mid = 0.5 * (a + b)
            fm = _iterate_array(m, mid, T) - mid
            live = np.abs(fm) > 0.0  # False on g(mid) == 0.0 and on a map error
            if not live.all():
                ends[rows[~live]], fm_end[rows[~live]] = mid[~live], fm[~live]
                rows, a, b, fa, mid, fm = (v[live] for v in (rows, a, b, fa, mid, fm))
            left = fa * fm < 0.0
            a, b, fa = np.where(left, a, mid), np.where(left, mid, b), np.where(left, fa, fm)
    zero, failed = fm_end == 0.0, np.isnan(fm_end)
    if failed.any():
        x = float(ends[failed][0])
        g(x)  # raises the map error that stopped the first such bracket
        raise MapEvalError(f"g({x!r}) failed in the array scan only")

    mids = ends.tolist()
    polished = [_newton_polish(m, x, T, lo, hi) for x in mids]
    with np.errstate(over="ignore"):
        keep = zero | (
            np.abs(_iterate_array(m, np.array(polished), T) - polished)
            <= np.abs(_iterate_array(m, ends, T) - ends)
        )
    return [p if k else x for p, x, k in zip(polished, mids, keep.tolist())]


def _newton_polish(m, x0, T, lo, hi) -> float:
    slack = 1e-9 * (1.0 + abs(hi - lo))
    x = x0
    for _ in range(NEWTON_MAX_ITER):
        try:
            val, slope = _g_and_slope(m, x, T)
        except MapEvalError:
            return x0
        if slope == 0.0:
            break
        step = val / slope
        nxt = x - step
        if not (lo - slack <= nxt <= hi + slack):
            return x0
        x = nxt
        if abs(step) <= 1e-15 * (1.0 + abs(x)):
            break
    return x
