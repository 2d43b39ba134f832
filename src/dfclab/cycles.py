"""Detection of T-periodic orbits of a scalar map and their multipliers.

Cycles are located as roots of g(x) = f^T(x) - x: a sign-change scan on a
uniform grid over the map's domain, bisection to a 1e-12 bracket, and a
short Newton polish. Roots are then filtered to minimal period T, grouped
into orbits, and deduplicated with each orbit anchored at its smallest
point. Near-tangent cycles (multiplier close to +1) can slip through a
sign-change scan; a denser grid is the mitigation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .maps import MapEvalError, MapSpec, eval_map, eval_map_deriv

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

    # Grid scan for sign changes / exact nodes.
    n = grid_points
    xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    gs = []
    for x in xs:
        try:
            gs.append(g(x))
        except MapEvalError:
            gs.append(float("nan"))

    roots: list[float] = []
    for x, v in zip(xs, gs):
        if math.isfinite(v) and abs(v) <= 1e-13 * (1.0 + abs(x)):
            roots.append(x)
    for i in range(n - 1):
        va, vb = gs[i], gs[i + 1]
        if not (math.isfinite(va) and math.isfinite(vb)):
            continue
        if va * vb < 0.0:
            roots.append(_refine_root(m, g, xs[i], xs[i + 1], va, T, lo, hi))

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


def _refine_root(m, g, xa, xb, ga, T, lo, hi) -> float:
    """Bisection to a 1e-12 bracket, then Newton polish (bisection fallback)."""
    a, b, fa = xa, xb, ga
    while b - a > BRACKET_WIDTH:
        mid = 0.5 * (a + b)
        fm = g(mid)
        if fm == 0.0:
            return _newton_polish(m, mid, T, lo, hi)
        if fa * fm < 0.0:
            b = mid
        else:
            a, fa = mid, fm
    bisect_root = 0.5 * (a + b)
    polished = _newton_polish(m, bisect_root, T, lo, hi)
    # Keep whichever residual is smaller; Newton can stall on flat spots.
    try:
        if abs(g(polished)) <= abs(g(bisect_root)):
            return polished
    except MapEvalError:
        pass
    return bisect_root


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
