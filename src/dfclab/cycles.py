"""Detection of T-periodic orbits of a scalar map and their multipliers.

Cycles are located as roots of g(x) = f^T(x) - x: a sign-change scan on a
uniform grid over the map's domain, bisection to a 1e-12 bracket, and a
short Newton polish. Roots are then filtered to minimal period T, grouped
into orbits, and deduplicated with each orbit anchored at its smallest
point. Near-tangent cycles (multiplier close to +1) can slip through a
sign-change scan; a denser grid is the mitigation.

The scan, the bisection, the minimal-period filter and each root's forward
orbit run on arrays through ``eval_map_array``, which is bit-identical to
``eval_map``; every sign-change bracket is bisected in lockstep by
``bisect_brackets``. One error policy holds throughout: a point whose f^T
raises a map error is skipped, be it a grid node, a bisection midpoint
(its bracket is dropped) or a root whose orbit cannot be evaluated. The
Newton polish and the reported orbit evaluate f point by point; a
candidate whose polished orbit has a lower period (Newton can land on one)
or does not close to ``CLOSURE_RTOL`` is skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .maps import MapEvalError, MapSpec, eval_map, eval_map_array, eval_map_deriv

__all__ = [
    "Cycle",
    "bisect_brackets",
    "find_cycles",
    "multiplier_of",
    "ORBIT_TOL",
    "PERIOD_TOL",
]

ORBIT_TOL = 1e-8  # two orbits whose anchors lie this close are one
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


def bisect_brackets(g, a, b, ga, width: float) -> np.ndarray:
    """Bisect every bracket [a[i], b[i]] of a sign change of g in lockstep.

    g maps an array of points to their values, NaN where g is undefined;
    ga[i] = g(a[i]) is nonzero and g(b[i]) has the other sign. Each halving
    is one call of g on the midpoints of the brackets still wider than
    width. A bracket stops at a midpoint where g is exactly 0.0, is dropped
    at a midpoint where g is NaN, and otherwise ends at the midpoint of its
    last bracket, within width / 2 of a sign change. The points come back
    in bracket order.
    """
    a, b, ga = (np.asarray(v, dtype=float) for v in (a, b, ga))
    ends = np.empty(a.size)  # per bracket: where it stopped, NaN if dropped
    rows = np.arange(a.size)
    while True:
        wide = b - a > width
        if not wide.all():
            ends[rows[~wide]] = 0.5 * (a[~wide] + b[~wide])
            rows, a, b, ga = rows[wide], a[wide], b[wide], ga[wide]
        if not rows.size:
            return ends[~np.isnan(ends)]
        mid = 0.5 * (a + b)
        gm = g(mid)
        live = np.abs(gm) > 0.0  # False on g(mid) == 0.0 and on NaN
        if not live.all():
            ends[rows[~live]] = np.where(gm[~live] == 0.0, mid[~live], np.nan)
            rows, a, b, ga, mid, gm = (v[live] for v in (rows, a, b, ga, mid, gm))
        left = (ga < 0.0) != (gm < 0.0)
        a, b, ga = np.where(left, a, mid), np.where(left, mid, b), np.where(left, ga, gm)


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


def find_cycles(m: MapSpec, period: int, grid_points: int = 1000) -> list[Cycle]:
    """All minimal-period-`period` orbits of m found on its domain.

    An empty result is valid (no cycles of that period in the domain).
    Orbits are reported once each, anchored at their smallest point and
    sorted by anchor. A point where f^T raises a map error is skipped, never
    raised: a grid node, a bisection midpoint, a root's orbit. A root, and
    again its Newton-polished orbit, is of minimal period T unless f^d
    returns it within ``PERIOD_TOL`` for a proper divisor d of T; two
    orbits are one when their anchors lie within ``ORBIT_TOL``; an orbit is
    reported only if it closes to ``CLOSURE_RTOL``.

    An orbit may leave the domain. It is reported when one of its points is
    a root found on the domain; its other points may lie outside. The Newton
    re-polish of the anchor never steps outside the domain, so an anchor
    that lies outside it is reported as the orbit's iteration gave it.
    """
    if period < 1:
        raise ValueError("period must be a positive integer")
    if grid_points < 100:
        raise ValueError("grid_points must be at least 100")
    lo, hi = m.domain
    T = period

    def g(x: np.ndarray) -> np.ndarray:
        return _iterate_array(m, x, T) - x

    # Grid scan for sign changes / exact nodes; NaN marks a node whose map errors.
    n = grid_points
    xs = lo + (hi - lo) * np.arange(n) / (n - 1)
    with np.errstate(over="ignore"):
        gs = g(xs)
        exact = np.abs(gs) <= 1e-13 * (1.0 + np.abs(xs))
        ga, gb = gs[:-1], gs[1:]
        change = np.isfinite(ga) & np.isfinite(gb) & (ga * gb < 0.0)
        ends = bisect_brackets(g, xs[:-1][change], xs[1:][change], ga[change], BRACKET_WIDTH)
        # Newton polish, kept unless it raises |g| above the bisection's (it
        # can stall on flat spots).
        polished = np.array([_newton_polish(m, x, T, lo, hi) for x in ends.tolist()])
        better = np.abs(g(polished)) <= np.abs(g(ends))
        roots = np.concatenate([xs[exact], np.where(better, polished, ends)])

        # Each root's orbit, one row per step; drop roots fixed by a proper
        # divisor of T and roots whose orbit meets a map error.
        orbit = np.empty((T, roots.size))
        orbit[0] = roots
        for k in range(1, T):
            orbit[k] = _iterate_array(m, orbit[k - 1], 1)
        minimal = np.isfinite(orbit).all(axis=0)
        for d in range(1, T):
            if T % d == 0:
                minimal &= ~(np.abs(orbit[d] - roots) <= PERIOD_TOL)

    # Group roots into orbits and anchor each at its smallest point.
    cycles: list[Cycle] = []
    for anchor in orbit.min(axis=0)[minimal].tolist():
        if any(abs(anchor - c.points[0]) <= ORBIT_TOL for c in cycles):
            continue
        # Re-polish the anchor so the reported orbit closes tightly. Newton
        # may land on another point of the orbit, on an orbit already
        # reported or on one of lower period, so the polished orbit is
        # filtered, anchored and compared again.
        pts = [_newton_polish(m, anchor, T, lo, hi)]
        try:
            for _ in range(T - 1):
                pts.append(eval_map(m, pts[-1]))
            if any(abs(pts[d] - pts[0]) <= PERIOD_TOL for d in range(1, T) if T % d == 0):
                continue
            k = pts.index(min(pts))
            pts = pts[k:] + pts[:k]
            mus, prod = multiplier_of(m, pts, CLOSURE_RTOL)
        except (MapEvalError, ValueError):  # the orbit errs or does not close
            continue
        if any(abs(pts[0] - c.points[0]) <= ORBIT_TOL for c in cycles):
            continue
        cycles.append(
            Cycle(period=T, points=tuple(pts), multipliers=mus, multiplier_product=prod)
        )

    cycles.sort(key=lambda c: c.points[0])
    return cycles


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
