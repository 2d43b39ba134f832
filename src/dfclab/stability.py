"""Schur stability tests, gain schemes, and stable-multiplier intervals.

A controlled cycle is locally stable iff its characteristic polynomial is
Schur stable (all roots strictly inside the unit disc). Root moduli are the
ground truth here; the Jury table is the independent tabular cross-check.
The module also generates the two gain schemes (uniform and the optimized
``dk2013`` family), locates the lower stability boundary gamma for T = 1 by
a unit-circle scan, and brackets the stable multiplier interval numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polynomials import Polynomial, horner, poly_roots
from .spectrum import GainVector, char_poly_closed

__all__ = [
    "StabilityReport",
    "MuInterval",
    "SCHUR_MARGIN",
    "jury_stable",
    "spectral_radius",
    "analyze",
    "gains_uniform",
    "gains_dk2013",
    "make_gains",
    "gamma_t1",
    "stable_mu_interval",
    "min_N_to_stabilize",
]

SCHUR_MARGIN = 1e-9
MARGINAL_BAND = 1e-6
MU_ENDPOINT_TOL = 1e-6


@dataclass(frozen=True)
class StabilityReport:
    """Verdict for one polynomial: root moduli plus the Jury cross-check.

    ``schur_stable`` is spectral_radius < 1 - margin; ``marginal`` flags
    spectral radii within 1e-6 of the unit circle, where a hard boolean is
    not meaningful.
    """

    polynomial: Polynomial
    spectral_radius: float
    schur_stable: bool
    jury_verdict: bool
    marginal: bool
    roots: tuple[complex, ...]


@dataclass(frozen=True)
class MuInterval:
    """Open interval of multipliers mu for which the control is stable.

    ``lo`` may be -inf when no lower crossing was found within the search
    range; ``hi`` never exceeds 1 (p(1) = 1 - mu forces instability beyond).
    ``connected`` records the optional grid check that the interior is
    entirely stable (None when not scanned).
    """

    lo: float
    hi: float
    scheme: str
    N: int
    T: int
    connected: bool | None = None

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise ValueError(f"interval requires lo < hi, got ({self.lo}, {self.hi})")
        if self.hi > 1.0 + 1e-9:
            raise ValueError(f"hi must be <= 1, got {self.hi}")


def spectral_radius(p: Polynomial) -> float:
    """Max root modulus of p."""
    return float(np.max(np.abs(poly_roots(p))))


def jury_stable(p: Polynomial) -> bool:
    """Full Jury table test: True iff all roots lie strictly inside the unit disc.

    Conditions: p(1) > 0, (-1)^n p(-1) > 0, |a_0| < a_n, then the table
    reduction with |first| > |last| at every row. The leading coefficient is
    normalized positive first (sign flips preserve roots). A near-zero table
    pivot makes the reduction degenerate; such marginal cases are resolved by
    the root-modulus path.
    """
    if p.degree < 1:
        raise ValueError("Jury test requires degree >= 1")
    a = p.coeffs.copy()
    if a[-1] < 0:
        a = -a
    n = p.degree

    if horner(a, 1.0) <= 0.0:
        return False
    if ((-1.0) ** n) * horner(a, -1.0) <= 0.0:
        return False
    if abs(a[0]) >= a[-1]:
        return False

    # Table reduction: each derived row (lengths n, n-1, ..., 3) must satisfy
    # |first| > |last|. Degree <= 2 needs no derived rows: the three base
    # conditions above are already necessary and sufficient.
    row = a
    while row.size > 3:
        m = row.size - 1
        nxt = row[0] * row[:m] - row[m] * row[m:0:-1]
        row_scale = np.max(np.abs(nxt))
        if row_scale == 0.0 or abs(nxt[0]) <= 1e-14 * row_scale:
            # Degenerate pivot: marginal table, resolved by root moduli.
            return spectral_radius(p) < 1.0
        if abs(nxt[0]) <= abs(nxt[-1]):
            return False
        row = nxt
    return True


def analyze(p: Polynomial, margin: float = SCHUR_MARGIN) -> StabilityReport:
    """Build a StabilityReport from roots and the Jury table."""
    roots = poly_roots(p)
    radius = float(np.max(np.abs(roots)))
    return StabilityReport(
        polynomial=p,
        spectral_radius=radius,
        schur_stable=radius < 1.0 - margin,
        jury_verdict=jury_stable(p),
        marginal=abs(radius - 1.0) <= MARGINAL_BAND,
        roots=tuple(complex(r) for r in roots),
    )


# ---------------------------------------------------------------------------
# Gain schemes
# ---------------------------------------------------------------------------


def gains_uniform(N: int) -> GainVector:
    """All gains equal to 1/N."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    return GainVector([1.0 / N] * N)


def gains_dk2013(N: int) -> GainVector:
    """Optimized T=1 gains a_j = 2 tan(pi/(2(N+1))) (1 - j/(N+1)) sin(pi j/(N+1)).

    The formula sums to 1 identically; the sum is re-verified to 1e-9 and a
    deviation indicates a transcription bug.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    t = 2.0 * math.tan(math.pi / (2.0 * (N + 1)))
    vals = [
        t * (1.0 - j / (N + 1.0)) * math.sin(math.pi * j / (N + 1.0))
        for j in range(1, N + 1)
    ]
    total = sum(vals)
    if abs(total - 1.0) > 1e-9:
        raise RuntimeError(f"dk2013 gains sum to {total!r}, formula transcription bug")
    # Rescale the 1e-12-level residue so GainVector's strict invariant holds.
    vals = [v / total for v in vals]
    return GainVector(vals)


def make_gains(scheme: str, N: int, custom: list[float] | None = None) -> GainVector:
    """Gain vector for a named scheme: uniform, dk2013, or custom."""
    if scheme == "uniform":
        return gains_uniform(N)
    if scheme == "dk2013":
        return gains_dk2013(N)
    if scheme == "custom":
        if custom is None:
            raise ValueError("custom scheme requires explicit gains")
        if len(custom) != N:
            raise ValueError(f"expected {N} gains, got {len(custom)}")
        return GainVector(custom)
    raise ValueError(f"unknown gain scheme {scheme!r}")


# ---------------------------------------------------------------------------
# Stability boundary in mu
# ---------------------------------------------------------------------------


def gamma_t1(a: GainVector, theta_grid: int = 100_000) -> float:
    """Most negative multiplier before any root first reaches the unit circle (T = 1).

    A root on the unit circle at angle theta requires 1/mu =
    sum_j a_j exp(-i j theta) to be real, so the scan locates zeros of the
    imaginary part of that sum on (0, 2pi) and evaluates the real part
    there; gamma = 1 / inf(real parts), or -inf when the infimum is >= 0.
    Zeros are found by sign-change bisection plus a tangency sweep (local
    minima of |Im| refined to machine level), since optimized gain families
    can place double zeros where the imaginary part touches without
    crossing. Such a tangency marks an isolated boundary contact, so gamma
    may sit strictly inside the crossing-based interval of
    ``stable_mu_interval``; the two agree whenever all zeros are simple
    (uniform gains in particular).
    """
    if theta_grid < 10_000:
        raise ValueError("theta_grid must be at least 10^4")
    coeffs = np.asarray(a.coeffs)
    j = np.arange(1, len(a) + 1)

    def s_imag(theta: float) -> float:
        return float(np.sum(coeffs * np.sin(-j * theta)))

    def s_real(theta: float) -> float:
        return float(np.sum(coeffs * np.cos(j * theta)))

    thetas = np.linspace(0.0, 2.0 * np.pi, theta_grid + 1)[1:-1]
    vals = np.sin(-np.outer(thetas, j)) @ coeffs
    scale = float(np.sum(np.abs(coeffs)))

    candidates: list[float] = []
    for i in range(len(thetas) - 1):
        vi, vj = vals[i], vals[i + 1]
        if vi == 0.0:
            candidates.append(thetas[i])
        elif vi * vj < 0.0:
            lo, hi = thetas[i], thetas[i + 1]
            flo = vi
            while hi - lo > 1e-10:
                mid = 0.5 * (lo + hi)
                fm = s_imag(mid)
                if flo * fm <= 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            candidates.append(0.5 * (lo + hi))
    if vals[-1] == 0.0:
        candidates.append(thetas[-1])

    # Tangency sweep: interior local minima of |Im| that refine to ~0.
    absvals = np.abs(vals)
    for i in range(1, len(thetas) - 1):
        if absvals[i] <= absvals[i - 1] and absvals[i] <= absvals[i + 1]:
            if absvals[i] > 1e-6 * scale:
                continue
            lo, hi = thetas[i - 1], thetas[i + 1]
            for _ in range(200):
                m1 = lo + (hi - lo) / 3.0
                m2 = hi - (hi - lo) / 3.0
                if abs(s_imag(m1)) <= abs(s_imag(m2)):
                    hi = m2
                else:
                    lo = m1
                if hi - lo <= 1e-12:
                    break
            t = 0.5 * (lo + hi)
            if abs(s_imag(t)) <= 1e-10 * scale:
                candidates.append(t)

    if not candidates:
        raise ValueError(
            "no zero of the imaginary part found; theta = pi is always a zero "
            "for real gains, so this indicates a grid problem"
        )
    inf_real = min(s_real(t) for t in candidates)
    if inf_real >= 0.0:
        return float("-inf")
    return 1.0 / inf_real


def _radius_at(N: int, T: int, a: GainVector, mu: float) -> float:
    return spectral_radius(char_poly_closed(N, T, a, mu))


def stable_mu_interval(
    N: int,
    T: int,
    a: GainVector,
    tol: float = MU_ENDPOINT_TOL,
    mu_floor: float = -1e6,
    scheme: str = "custom",
    scan_grid: int | None = None,
) -> MuInterval:
    """Bracket the stable interval of multipliers around mu = 0.

    At mu = 0 the polynomial is lambda^M, always stable. Both endpoints are
    located by bisecting spectral_radius = 1 - margin crossings, expanding
    downward geometrically (lo becomes -inf if no crossing above mu_floor)
    and upward toward the hard ceiling mu = 1 from p(1) = 1 - mu. Assumes a
    single connected stable interval containing 0; pass ``scan_grid`` to
    verify connectivity on a grid of interior points.
    """
    _ = char_poly_closed(N, T, a, 0.0)  # validates dimensions

    def stable(mu: float) -> bool:
        return _radius_at(N, T, a, mu) < 1.0 - SCHUR_MARGIN

    # Downward expansion.
    lo_in, lo_out = 0.0, None
    step = -1.0
    while step > mu_floor:
        if stable(step):
            lo_in = step
        else:
            lo_out = step
            break
        step *= 2.0
    if lo_out is None:
        lo = float("-inf")
    else:
        while lo_in - lo_out > tol:
            mid = 0.5 * (lo_in + lo_out)
            if stable(mid):
                lo_in = mid
            else:
                lo_out = mid
        lo = 0.5 * (lo_in + lo_out)

    # Upward expansion, ceiling at 1.
    hi_in, hi_out = 0.0, 1.0
    probe = 0.25
    while probe < 1.0:
        if stable(probe):
            hi_in = probe
            probe *= 2.0
        else:
            hi_out = probe
            break
    while hi_out - hi_in > tol:
        mid = 0.5 * (hi_in + hi_out)
        if stable(mid):
            hi_in = mid
        else:
            hi_out = mid
    hi = 0.5 * (hi_in + hi_out)

    connected = None
    if scan_grid is not None:
        lo_eff = lo if math.isfinite(lo) else mu_floor
        mus = np.linspace(lo_eff + 10 * tol, hi - 10 * tol, scan_grid)
        connected = all(stable(float(m)) for m in mus)

    return MuInterval(lo=lo, hi=hi, scheme=scheme, N=N, T=T, connected=connected)


def min_N_to_stabilize(
    T: int, mu: float, scheme: str = "uniform", N_max: int = 32
) -> int | None:
    """Smallest N <= N_max whose scheme gains make the cycle stable, else None.

    mu >= 1 is rejected immediately: p(1) = 1 - mu <= 0 for every valid gain
    vector, so no N can work.
    """
    if T < 1 or N_max < 1:
        raise ValueError("T and N_max must be positive integers")
    if mu >= 1.0:
        return None
    for N in range(1, N_max + 1):
        gains = make_gains(scheme, N)
        if _radius_at(N, T, gains, mu) < 1.0 - SCHUR_MARGIN:
            return N
    return None
