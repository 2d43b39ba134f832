"""Detection of T-periodic orbits of a scalar map and their multipliers.

Cycles are located as roots of g(x) = f^T(x) - x: a sign-change scan on a
uniform grid over the map's domain, then a bracket-keeping Newton refinement
of every sign change to a 1e-12 bracket (``newton_brackets``, the Newton-
bisection hybrid of Dekker and Brent, as ``rtsafe`` in Numerical Recipes).
Roots are then filtered to minimal period T, grouped into orbits, and
deduplicated with each orbit anchored at its smallest point. Near-tangent
cycles (multiplier close to +1) can slip through a sign-change scan; a
denser grid is the mitigation.

Every stage runs on arrays, and every map evaluation is one call of
``maps.compose_map_array``, the map's compiled n-fold array forms,
bit-identical to n calls of ``eval_map_array`` or ``eval_map_deriv_array``
and so to ``eval_map``: f^T for the scan; f for the minimal-period filter
and each root's orbit; f^T and (f^T)' in one call per refinement pass, at
one probe per live bracket, and per Newton step of the polish of every
anchor in lockstep; f and f' for the closure check and the multipliers.
One error policy holds throughout: a point whose f^T raises a map error is
skipped, be it a grid node, a refinement probe (its bracket is dropped) or
a root whose orbit cannot be evaluated. A bracket that straddles a pole of
f^T rather than a root is dropped before the polish. A candidate whose
polished orbit has a lower period (Newton can land on one) or does not
close to ``CLOSURE_RTOL`` is skipped. ``newton_brackets`` takes any g that
gives its slope with its value; ``stability`` refines the contacts of the
stability boundary with it too.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .maps import MapOverflowError, MapSpec, compose_map_array, eval_map

__all__ = [
    "Cycle",
    "find_cycles",
    "multiplier_of",
    "newton_brackets",
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
    x, bad = compose_map_array(m, x, n)
    x[bad] = np.nan
    return x


def multiplier_of(m: MapSpec, points) -> tuple[tuple[float, ...], float]:
    """Multipliers f'(x_j) along a verified orbit and their product.

    Rejects point sequences that fail the orbit property
    |f(x_j) - x_{(j+1) mod T}| <= ORBIT_TOL * (1 + |x_j|), and raises
    a map error where f or f' errs at a point.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 1)
    if not pts.size:
        raise ValueError("empty point sequence")
    mus, err, gap = _multipliers(m, pts, ORBIT_TOL)
    if err[0]:
        for x in pts[:, 0].tolist():
            eval_map(m, x)  # raises the map's own error where f errs
        raise MapOverflowError(f"f' is not finite at a point of {pts[:, 0].tolist()}")
    if gap[0]:
        raise ValueError(f"points do not form an orbit: some |f(x_j) - x_(j+1)| "
                         f"exceeds {ORBIT_TOL} (1 + |x_j|)")
    mus = tuple(mus[:, 0].tolist())
    return mus, math.prod(mus)


def find_cycles(m: MapSpec, period: int, grid_points: int = 1000) -> list[Cycle]:
    """All minimal-period-`period` orbits of m found on its domain.

    An empty result is valid (no cycles of that period in the domain).
    Orbits are reported once each, anchored at their smallest point and
    sorted by anchor. Each sign change of f^T - x on a grid of grid_points
    nodes is refined by ``newton_brackets`` to a root within 1e-12 of it,
    or dropped as a pole of f^T when |g| at its end exceeds |g| at both grid
    nodes. A point where f^T raises a map error is skipped, never raised: a
    grid node, a refinement probe (f or f' erring drops its bracket), a
    root's orbit. A root, and again its Newton-polished orbit, is of minimal
    period T unless f^d returns it within ``PERIOD_TOL`` for a proper
    divisor d of T; two orbits are one when their anchors lie within
    ``ORBIT_TOL``; an orbit is reported only if it closes to
    ``CLOSURE_RTOL``.

    An orbit may leave the domain. It is reported when one of its points is
    a root found on the domain; its other points may lie outside. The Newton
    re-polish of the anchor never steps outside the domain, so an anchor
    that lies outside it is reported as the orbit's iteration gave it.

    A grid node where f^T overflows is skipped as any erring node is, which
    can hide every root of a domain near the float limit: on (-8e307, 8e307)
    the nodes lie about 1.6e305 apart, so for x^2 - 1 the nodes next to its
    fixed points overflow in x^2 and the result is empty.
    """
    if period < 1:
        raise ValueError("period must be a positive integer")
    if grid_points < 100:
        raise ValueError("grid_points must be at least 100")
    lo, hi = m.domain
    T = period

    # Grid scan of g = f^T - x for sign changes / exact nodes; NaN marks a
    # node whose map errors.
    n = grid_points
    with np.errstate(over="ignore"):
        span = (hi - lo) * np.arange(n)
        xs = lo + span / (n - 1)
        if not math.isfinite(span[-1]):  # |span| grows with i: it overflows from some i on
            # On a domain near the float limit those nodes scale i first.
            wide = np.flatnonzero(~np.isfinite(span))
            xs[wide] = lo + (hi - lo) * (wide / (n - 1))
        gs = _iterate_array(m, xs, T) - xs
        exact = np.abs(gs) <= 1e-13 * (1.0 + np.abs(xs))
        ga, gb = gs[:-1], gs[1:]
        change = np.isfinite(ga) & np.isfinite(gb) & (ga * gb < 0.0)
        roots = np.concatenate([xs[exact], newton_brackets(
            _orbit_g(m, T), xs[:-1][change], xs[1:][change], ga[change], gb[change],
            BRACKET_WIDTH)])
        orbits, minimal = _minimal_orbits(m, roots, T)
        anchors = orbits.min(axis=0)[minimal]

        # Re-polish each anchor so the reported orbit closes tightly. Newton
        # may land on another point of the orbit, on an orbit already
        # reported or on one of lower period, so the polished orbit is
        # filtered, anchored at its smallest point and compared again.
        orbits, keep = _minimal_orbits(m, _newton_polish(m, anchors, T, lo, hi), T)
        rotated = (orbits.argmin(axis=0) + np.arange(T)[:, None]) % T
        orbits = orbits[rotated, np.arange(anchors.size)]
        mus, err, gap = _multipliers(m, orbits, CLOSURE_RTOL)
        keep &= ~(err | gap)

    cycles: list[Cycle] = []
    seen: list[float] = []  # the anchors of the cycles so far, sorted
    for anchor, pts, mu, ok in zip(anchors.tolist(), orbits.T.tolist(), mus.T.tolist(), keep):
        if not ok or _seen(seen, anchor) or _seen(seen, pts[0]):
            continue
        bisect.insort(seen, pts[0])
        cycles.append(
            Cycle(period=T, points=tuple(pts), multipliers=tuple(mu),
                  multiplier_product=math.prod(mu))
        )

    cycles.sort(key=lambda c: c.points[0])
    return cycles


def _seen(anchors: list[float], x: float) -> bool:
    """Whether an anchor of the sorted list lies within ``ORBIT_TOL`` of x.
    |x - c| grows as c moves away from x, so the nearest anchor on each side
    decides."""
    k = bisect.bisect_left(anchors, x)
    return (k > 0 and abs(x - anchors[k - 1]) <= ORBIT_TOL) or (
        k < len(anchors) and abs(x - anchors[k]) <= ORBIT_TOL)


def _minimal_orbits(m: MapSpec, starts: np.ndarray, T: int) -> tuple[np.ndarray, np.ndarray]:
    """The orbit of each start, one column per start and one row per step,
    and the mask of the starts whose orbit meets no map error and that no
    proper divisor d of T returns within ``PERIOD_TOL``."""
    orbits = np.empty((T, starts.size))
    orbits[0] = starts
    for k in range(1, T):
        orbits[k] = _iterate_array(m, orbits[k - 1], 1)
    minimal = np.isfinite(orbits).all(axis=0)
    for d in range(1, T):
        if T % d == 0:
            minimal &= ~(np.abs(orbits[d] - starts) <= PERIOD_TOL)
    return orbits, minimal


def _multipliers(m: MapSpec, orbits: np.ndarray, tol: float):
    """f' at every point of orbits (one orbit per column), the mask of the
    columns where f or f' errs, and the mask of the columns with a gap
    |f(x_j) - x_(j+1 mod T)| above tol * (1 + |x_j|)."""
    fx, mus, bad = compose_map_array(m, orbits, 1, deriv=True)
    nxt = orbits[(np.arange(len(orbits)) + 1) % len(orbits)]
    gap = np.abs(fx - nxt) > tol * (1.0 + np.abs(orbits))
    return mus, bad.any(axis=0), gap.any(axis=0)


def _orbit_g(m: MapSpec, T: int):
    """g = f^T - x as the refinement takes it: x -> (g, g', mask of the points
    where f or f' errs along the orbit), one T-fold composition of f and f'."""

    def g(x):
        gx, slope, err = compose_map_array(m, x, T, deriv=True)
        return gx - x, slope - 1.0, err

    return g


@np.errstate(all="ignore")  # an error's values are unspecified
def newton_brackets(g, a, b, ga, gb, width: float) -> np.ndarray:
    """Refine every bracket [a[i], b[i]] of a sign change of g in lockstep.

    g maps an array of points to (g, g', err): the values, the slopes and
    the mask of the points where g errs. ga[i] = g(a[i]) and gb[i] = g(b[i])
    are nonzero and of opposite signs. Each pass is one call of g at one
    probe per live bracket, and the probe becomes the end of its bracket on
    its side of the sign change. The first probe is the midpoint. After it,
    the probe is the Newton target from the last probe:
    - a step shorter than width / 2 is lengthened by width / 2, so that the
      bracket closes round the target;
    - a target inside the bracket, or less than 1% of its width past an
      end (which puts the root at that end), is moved to at least width / 2
      inside the bracket;
    - a target farther out falls back to the midpoint.
    A pass makes progress when it halves the bracket or its Newton step is
    at most half the move to its probe. After two passes in a row without
    progress the probe is the midpoint (Newton creeps up on a multiple root
    from one side), and so is every probe once the stage has run twice as
    many passes as bisection of the widest bracket would.

    A bracket ends at a probe where g is exactly 0.0, is dropped at a probe
    where g errs, and otherwise ends once no wider than width, at its end
    with the smaller |g|. That end is a root unless its |g| exceeds |g| at
    both starting ends: |g| falls towards a root and grows towards a pole,
    so such a bracket straddles a pole and is dropped. The roots come back
    in bracket order.
    """
    a, b, ga, gb = (np.array(v, dtype=float) for v in (a, b, ga, gb))
    roots = np.full(a.size, np.nan)  # per bracket: where it ended, NaN if dropped
    rows = np.arange(a.size)
    start = np.maximum(np.abs(ga), np.abs(gb))
    w = b - a
    x = 0.5 * (a + b)
    moved = 0.5 * w  # the move from the last probe to x
    slow = np.zeros(a.size, dtype=int)  # passes in a row without progress
    budget = 2 * math.ceil(math.log2(max(np.max(w, initial=0.0), width) / width))
    while rows.size:
        gx, slope, err = g(x)
        left = (ga < 0.0) != (gx < 0.0)  # the sign change lies in [a, x]
        a, ga = np.where(left, a, x), np.where(left, ga, gx)
        b, gb = np.where(left, x, b), np.where(left, gx, gb)
        w, wide = b - a, w
        halved = w <= 0.5 * wide
        end = err | (gx == 0.0) | (w <= width)
        if np.count_nonzero(end):  # settle the brackets that end here, then drop them
            zero = (gx == 0.0) & ~err
            roots[rows[zero]] = x[zero]
            done = ~(err | zero) & (w <= width)
            pole = done & (np.minimum(np.abs(ga), np.abs(gb)) > start)
            done &= ~pole
            roots[rows[done]] = np.where(np.abs(ga) <= np.abs(gb), a, b)[done]
            live = ~end
            rows, a, b, ga, gb, w, x, gx, slope, moved, halved, slow, start = (
                v[live] for v in (rows, a, b, ga, gb, w, x, gx, slope, moved, halved, slow, start))
            if not rows.size:
                break
        step = np.divide(-gx, slope, out=np.full(x.size, np.nan),
                         where=np.isfinite(slope) & (slope != 0.0))
        slow = np.where(halved | (np.abs(step) <= 0.5 * moved), 0, slow + 1)
        step += np.where(np.abs(step) < 0.5 * width, np.copysign(0.5 * width, step), 0.0)
        # A target a hair past an end puts the root at that end: probe just inside.
        nxt, hair = x + step, 0.01 * w
        budget -= 1
        newton = (a - hair < nxt) & (nxt < b + hair) & (slow < 2) & (budget > 0)
        nxt = np.minimum(np.maximum(nxt, a + 0.5 * width), b - 0.5 * width)
        moved = np.where(newton, np.abs(nxt - x), 0.5 * w)
        x = np.where(newton, nxt, 0.5 * (a + b))
        slow[~newton] = 0
    return roots[~np.isnan(roots)]


@np.errstate(all="ignore")  # an error's values are unspecified
def _newton_polish(m: MapSpec, x0: np.ndarray, T: int, lo: float, hi: float) -> np.ndarray:
    """Newton on g = f^T - x from every point of x0 in lockstep.

    A point stops where g' is 0, after a step below 1e-15 (1 + |x|), or after
    ``NEWTON_MAX_ITER`` steps; it returns to its start if f or f' errs along
    its path or a step leaves the domain (with a small slack).
    """
    slack = 1e-9 * (1.0 + abs(hi - lo))
    g = _orbit_g(m, T)
    x = np.array(x0, dtype=float)
    live = np.arange(x.size)  # the points still stepping
    for _ in range(NEWTON_MAX_ITER):
        if not live.size:
            break
        start = x[live]
        val, slope, err = g(start)
        # A zero slope takes a zero step, which stops the point where it is.
        step = np.divide(val, slope, out=np.zeros(live.size), where=slope != 0.0)
        nxt = start - step
        nxt[err] = np.nan
        inside = (lo - slack <= nxt) & (nxt <= hi + slack)
        x[live] = np.where(inside, nxt, x0[live])
        live = live[inside & (np.abs(step) > 1e-15 * (1.0 + np.abs(nxt)))]
    return x
