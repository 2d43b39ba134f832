"""Schur stability tests, gain schemes, and stable-multiplier intervals.

A controlled cycle is locally stable iff its characteristic polynomial is
Schur stable (all roots strictly inside the unit disc). Every verdict comes
from the Jury table, run on p(r lambda) for a radius below r = 1 - margin;
roots are solved only where a radius is reported, and root moduli are the
test oracle. The module also generates the two gain schemes (uniform and
the optimized ``dk2013`` family) and finds the multipliers mu at which a
root touches the unit circle (Neimark's D-decomposition), placed by the
bracketed Newton of ``cycles.newton_brackets`` from a grid that one FFT
evaluates. The verdict is constant between such contacts, so the stable
interval around mu = 0 takes one table probe per gap, and gamma (T = 1) is
the nearest negative contact.

For the named schemes (``SCHEMES``) at T <= 4 and N <= 32,
``reach_table.ROWS`` holds the ``reach`` row of each: the stable interval
(lo, hi) and whether no merged contact lies strictly inside it, written by
``scripts/reach_table.py``; each such stable set is that one interval.
``stable_mu_interval`` returns a row's (lo, hi) for gains equal, float for
float, to that scheme's gains at N, bit for bit what ``reach`` gives them.
It finds the row by one dict lookup: a map from each row's gains to its
scheme name, built once per process from the table's keys, gives the
scheme, and (scheme, T, N) the row. ``min_N_to_stabilize`` reads rows by
its scheme's name and takes its verdict for N from there when mu is
farther than 1e-6 (1 + |mu|) from the row's ends, outside the interval or
inside one without contacts. The margined Jury table (``_stable``) decides
every other N, so the answers are those of the Jury table alone.

``pipeline_stabilize`` runs the paper's chain on a map: each T-cycle's mu,
the smallest N whose gains make p Schur stable, and a simulation to confirm.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cycles import find_cycles, newton_brackets
from .maps import MapSpec
from .polynomials import Polynomial, poly_roots, poly_roots_stack
from .simulation import simulate
from .spectrum import GainVector, char_poly_closed, check_dims

__all__ = [
    "StabilityReport",
    "MuInterval",
    "SCHUR_MARGIN",
    "jury_stable",
    "spectral_radius",
    "spectral_radii",
    "analyze",
    "gains_uniform",
    "gains_dk2013",
    "SCHEMES",
    "make_gains",
    "gamma_t1",
    "stable_mu_interval",
    "reach",
    "merged_contacts",
    "min_N_to_stabilize",
    "pipeline_stabilize",
]

SCHUR_MARGIN = 1e-9
MARGINAL_BAND = 1e-6
MU_FLOOR = -1e6  # reach reports no lower endpoint below this
# min_N_to_stabilize trusts a reach-table row only this far (relative) from
# the row's ends; nearer, the Jury table decides.
END_BAND = 1e-6
# jury_stable keeps a table row of at most this many entries as a list of
# Python floats, a longer one as a numpy array. One derived row (products,
# max modulus, checks, division) took 6.7-7.2 us as an array at any length
# from 4 to 126 entries, and as a list 1.8 us at 4, 7.2 us at 44, 8.4 us at
# 52, 9.9 us at 64 and 19 us at 126 entries (best of 15 x 2000 calls,
# Python 3.11, numpy 2.4, one 2-core x86_64 host): the two cross near 44.
JURY_LIST_ROW = 44


@dataclass(frozen=True)
class StabilityReport:
    """Verdict for one polynomial: root moduli plus the Jury cross-check.

    ``schur_stable`` is spectral_radius < 1 - SCHUR_MARGIN; ``marginal`` flags
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
    """

    lo: float
    hi: float
    scheme: str
    N: int
    T: int

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise ValueError(f"interval requires lo < hi, got ({self.lo}, {self.hi})")
        if self.hi > 1.0 + 1e-9:
            raise ValueError(f"hi must be <= 1, got {self.hi}")


def spectral_radius(p: Polynomial) -> float:
    """Max root modulus of p."""
    return float(np.max(np.abs(poly_roots(p))))


def spectral_radii(N: int, T: int, a: GainVector, mus) -> np.ndarray:
    """Spectral radius of ``char_poly_closed(N, T, a, mu)`` for every mu in mus.

    p is affine in mu, so every row is p(0) - mu q^T with q^T = p(0) - p(1),
    exact in floats; the rows are the coefficients ``char_poly_closed`` gives
    bit for bit, and all are solved by one ``poly_roots_stack`` call. Every
    mu must be finite.
    """
    e_M, p_1 = (char_poly_closed(N, T, a, mu).coeffs for mu in (0.0, 1.0))
    mus = np.asarray(mus, dtype=float).reshape(-1, 1)
    if not np.isfinite(mus).all():
        raise ValueError(f"mu must be finite, got {float(mus[~np.isfinite(mus)][0])!r}")
    rows = e_M - mus * (e_M - p_1)
    return np.max(np.abs(poly_roots_stack(rows)), axis=1)


def jury_stable(p: Polynomial, margin: float = 0.0) -> bool:
    """Jury table test: True iff every root has modulus below r = 1 - margin.

    The table runs on p(r z): coefficient k times r^k (times 1.0 at margin 0).
    Conditions: p(1) > 0, (-1)^n p(-1) > 0, |a_0| < a_n, then |first| >
    |last| at every derived row. The leading coefficient is made positive
    (sign flips preserve roots) and scaled by the power of two 2^-e, e the
    ``math.frexp`` exponent of its largest modulus, so that every modulus
    is below 1 and no product in the table can overflow; unscaled, the
    products of coefficients past ~1e154 gave inf - inf = NaN, on which
    every check passes. Each derived row is divided by its largest modulus.
    A power of two is exact, so the verdict is that of the unscaled table
    wherever that one neither overflows nor underflows and no coefficient
    falls below 2^-1021 times the largest (which the scaling would make
    subnormal). A near-zero pivot makes the table degenerate; that marginal
    case, and coefficients of p(r z) that overflow (r > 1), fall back to
    spectral_radius(p) < r. Non-finite coefficients are rejected: every
    comparison with NaN is False, so the table would otherwise say stable.

    p(1) and p(-1) take one pass over the coefficients as Python floats,
    making the additions of Horner's rule. Rows of at most
    ``JURY_LIST_ROW`` entries are lists of floats, longer ones numpy
    arrays; both make the same IEEE operations, so the switch changes no
    verdict.
    """
    n = p.degree
    if n < 1:
        raise ValueError("Jury test requires degree >= 1")
    r = 1.0 - margin
    a = p.coeffs
    if margin != 0.0:
        with np.errstate(over="ignore"):  # p(r z) that overflows falls back below
            a = a * r ** np.arange(n + 1)
    top = float(np.abs(a).max())
    if not math.isfinite(top):
        if not np.isfinite(p.coeffs).all():
            raise ValueError(f"Jury test requires finite coefficients, got {p.coeffs.tolist()}")
        return spectral_radius(p) < r
    a = np.ldexp(a, -math.frexp(top)[1])
    if a[-1] < 0:
        a = -a
    coeffs = a.tolist()

    at_one = at_minus_one = 0.0  # Horner's rule at 1 and -1
    for c in reversed(coeffs):
        at_one = at_one + c
        at_minus_one = c - at_minus_one
    if at_one <= 0.0:
        return False
    if ((-1.0) ** n) * at_minus_one <= 0.0:
        return False
    if abs(coeffs[0]) >= coeffs[-1]:
        return False

    # Table reduction: each derived row (lengths n, n-1, ..., 3) must satisfy
    # |first| > |last|. Degree <= 2 needs no derived rows: the three base
    # conditions above are already necessary and sufficient.
    row = a if a.size > JURY_LIST_ROW else coeffs
    while len(row) > 3:
        m = len(row) - 1
        if m < JURY_LIST_ROW:
            first, last = row[0], row[m]
            nxt = [first * x - last * y for x, y in zip(row, row[:0:-1])]
            row_scale = max(map(abs, nxt))
        else:
            nxt = row[0] * row[:m] - row[m] * row[m:0:-1]
            row_scale = np.abs(nxt).max()
        if row_scale == 0.0 or abs(nxt[0]) <= 1e-14 * row_scale:
            # Degenerate pivot: marginal table, resolved by root moduli.
            return spectral_radius(p) < r
        if abs(nxt[0]) <= abs(nxt[-1]):
            return False
        row = [x / row_scale for x in nxt] if m < JURY_LIST_ROW else nxt / row_scale
        if m == JURY_LIST_ROW:  # the first short row
            row = row.tolist()
    return True


def analyze(p: Polynomial) -> StabilityReport:
    """Build a StabilityReport from roots and the unmargined Jury table."""
    roots = poly_roots(p)
    radius = float(np.abs(roots).max())
    return StabilityReport(
        polynomial=p,
        spectral_radius=radius,
        schur_stable=radius < 1.0 - SCHUR_MARGIN,
        jury_verdict=jury_stable(p),
        marginal=abs(radius - 1.0) <= MARGINAL_BAND,
        roots=tuple(roots.tolist()),
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


# The named gain schemes, each a function of N.
SCHEMES = {"uniform": gains_uniform, "dk2013": gains_dk2013}


def make_gains(scheme: str, N: int, custom: list[float] | None = None) -> GainVector:
    """Gain vector for a named scheme (``SCHEMES``) or custom (explicit gains)."""
    if scheme in SCHEMES:
        if custom is not None:
            raise ValueError(f"explicit gains need the custom scheme, not {scheme!r}")
        return SCHEMES[scheme](N)
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


@np.errstate(all="ignore")  # w and v are NaN or inf at a zero of q
def _contacts(a: GainVector, T: int) -> np.ndarray:
    """Sorted real multipliers at which a root of p touches the unit circle.

    For real mu, p(e^{i theta}) = 0 exactly when mu = e^{iM theta} / q^T with
    q = q(e^{i theta}), so the contacts are where that curve is real: the
    zeros on [0, pi] (conjugate symmetry covers the rest) of sin(phi),
    phi = M theta - T arg q, on one grid of max(2048, 16 (M + (N-1)T))
    points. theta = 0 (mu = 1) and pi always count, so a sign change in
    either end cell is taken for rounding at them. With w = z q'(z) / q(z)
    and v = z^2 q''(z) / q(z), z = e^{i theta}: phi' = M - T Re(w) and
    phi'' = T Im(w + v - w^2).

    Crossings are the grid sign changes of h = |q|^(T mod 2) sin(phi), with
    h' = |q|^(T mod 2) (cos(phi) phi' - (T mod 2) Im(w) sin(phi)).
    Tangencies, the double zeros optimized gains can place, are the zeros of
    phi' (grid nodes where it is 0.0, and its grid sign changes) at which
    |sin(phi)| <= 1e-10. Both are refined to 1e-13 by
    ``cycles.newton_brackets``, h with h' and phi' with phi'', which ends at
    a few rounding errors from the zero once Newton converges. Where
    rounding splits a tangency into sign changes of h in the two cells
    beside the grid node nearest it (dk2013 at T = 1 and N = 5, 13, 15, 21,
    23, 25, 29 and 31), neither cell is refined, for h there is rounding
    noise that Newton cannot follow; the tangency is returned in their place.

    A zero of q on the circle (|q| <= 1e-9 times the sum of |c_j|, q(z) =
    sum c_j z^j) is a pole, not a contact: phi jumps there by T pi. For odd
    T sin(phi) changes sign there, and the factor |q| makes that jump a
    simple zero of h, which Newton reaches in a few passes. A probe at a
    pole drops its bracket, and so does a grid node at one, whose values are
    rounding noise. The grid takes q, z q' and z^2 q'' from one real FFT of
    length 2 grid; each set of probes, from one product of the powers z^j
    with the columns c_j, j c_j and j (j-1) c_j.
    """
    N = len(a)
    M = (N - 1) * T + 1
    grid = max(2048, 16 * (M + (N - 1) * T))
    c = np.asarray(a.coeffs[::-1], dtype=float)  # q, ascending
    j = np.arange(N)
    cols = np.stack([c, j * c, j * (j - 1) * c], axis=1)  # q, z q', z^2 q''
    pole = 1e-9 * float(np.sum(np.abs(c)))
    odd = T % 2

    def curve(theta, series):  # e^{i phi}, |q|, w, v, the mask of poles
        q, zq, zzq = series.T
        mod = np.abs(q)
        return np.exp(1j * M * theta) * (np.conj(q) / mod) ** T, mod, zq / q, zzq / q, mod <= pole

    def at(theta):
        return curve(theta, np.exp(1j * np.multiply.outer(theta, j)) @ cols)

    def crossing(e, mod, w, v):  # h = |q|^(T mod 2) sin(phi), h'
        scale = mod**odd
        return scale * e.imag, scale * (e.real * (M - T * w.real) - odd * w.imag * e.imag)

    def turning(e, mod, w, v):  # phi', phi''
        return M - T * w.real, T * (w + v - w * w).imag

    def changes(vals):  # the mask of the inner grid cells where vals changes sign
        # The end cells hold the contacts at theta = 0 and pi, which always
        # count; a sign change there is rounding at that contact.
        cell = (np.sign(vals[:-1]) * np.sign(vals[1:]) < 0.0) & ~(err[:-1] | err[1:])
        cell[[0, -1]] = False
        return cell

    def refine(f, vals, cell):
        def g(theta):
            e, mod, w, v, bad = at(theta)
            return (*f(e, mod, w, v), bad)

        i = np.flatnonzero(cell)
        return newton_brackets(g, theta[i], theta[i + 1], vals[i], vals[i + 1], 1e-13)

    theta = np.linspace(0.0, np.pi, grid + 1)
    nodes = curve(theta, np.fft.rfft(cols, 2 * grid, axis=0).conj())
    err = nodes[-1]
    vals, d1 = crossing(*nodes[:4])[0], turning(*nodes[:4])[0]
    turns = np.concatenate([theta[(d1 == 0.0) & ~err], refine(turning, d1, changes(d1))])
    tangents = turns[np.abs(at(turns)[0].imag) <= 1e-10]
    # Sign changes of h in both cells beside the grid node nearest a
    # tangency are that tangency split by rounding: it stands for both. The
    # clip keeps the cells in range; an end cell never holds a sign change.
    cell = changes(vals)
    node = np.clip(np.rint(tangents * (grid / np.pi)).astype(int), 1, grid - 1)
    node = node[cell[node - 1] & cell[node]]
    cell[node - 1] = cell[node] = False
    crossings = refine(crossing, vals, cell)
    zeros = np.concatenate([theta[[0, -1]], theta[(vals == 0.0) & ~err], crossings, tangents])

    e, mod, _, _, err = at(zeros)
    mu = e.real[~err] / mod[~err] ** T
    return np.sort(mu[np.isfinite(mu)])


def gamma_t1(a: GainVector) -> float:
    """Most negative multiplier before any root first reaches the unit circle (T = 1).

    The largest negative value of ``_contacts(a, 1)``, or -inf when there is
    none. At a tangency it is the zero of phi' that ``newton_brackets``
    places, exact to a few rounding errors (``TestGamma`` pins 1e-12). Tangencies count: a root may
    touch the circle and return inside, so gamma can sit strictly inside the
    interval of ``stable_mu_interval``, which steps over such contacts; the
    two agree when every contact is a crossing (uniform gains in particular).
    """
    mu = _contacts(a, 1)
    neg = mu[mu < 0.0]
    return float(neg[-1]) if neg.size else float("-inf")


def merged_contacts(a: GainVector, T: int) -> list[float]:
    """``_contacts(a, T)`` with each run of contacts within 1e-6 (1 + |mu|)
    of its first merged into that first, as a tangency often shows as two
    sign changes a hair apart. mu = 1 is always a contact (p(1) = 1 - mu),
    so a run that comes within 2e-6 of it is merged into 1.0 exactly rather
    than into a rounding copy such as 0.9999999999999998. T < 1 raises
    ValueError, since no period below one has contacts."""
    if T < 1:
        raise ValueError("T must be a positive integer")
    merged: list[float] = []
    first = -math.inf
    for c in _contacts(a, T).tolist():
        if c - first > 1e-6 * (1.0 + abs(c)):
            merged.append(c)
            first = c
        if abs(c - 1.0) <= 2e-6:
            merged[-1] = 1.0
    return merged


def _stable(N: int, T: int, a: GainVector, mu: float) -> bool:
    """The margined Jury verdict on p at mu: every probe of ``reach`` and
    each N that ``min_N_to_stabilize`` cannot read from the reach table."""
    return jury_stable(char_poly_closed(N, T, a, mu), SCHUR_MARGIN)


def reach(a: GainVector, T: int) -> tuple[float, float, bool]:
    """The reach row (lo, hi, clear) of gains a at period T.

    (lo, hi) is the stable interval of multipliers around mu = 0. mu = 0
    gives lambda^M, always stable, and the verdict changes only at a
    contact (``merged_contacts``). Walking out from 0, one Jury-table probe
    per gap (its midpoint, or 2c beyond the last contact c) settles it; each
    endpoint is the nearest contact whose far side probes unstable, so
    tangencies inside are stepped over. ``lo`` is -inf when no such contact
    lies above the fixed floor ``MU_FLOOR``; ``hi`` is 1 when none lies
    below it (p(1) = 1 - mu). ``clear`` is True when no merged contact lies
    strictly inside (lo, hi), the rows where ``_reach_verdict`` may say
    stable without the Jury table. T < 1 raises ValueError.

    Each call makes one contact pass and never reads ``reach_table.ROWS``:
    ``scripts/reach_table.py`` writes that table from it, and
    ``stable_mu_interval`` reads the table in its place for the gains it holds.
    """
    N = len(a)
    merged = merged_contacts(a, T)
    down = [c for c in reversed(merged) if c < 0.0]
    lo = float("-inf")
    for k, c in enumerate(down):
        if c < MU_FLOOR:
            break
        probe = 0.5 * (c + down[k + 1]) if k + 1 < len(down) else 2.0 * c
        if not _stable(N, T, a, probe):
            lo = c
            break

    up = [c for c in merged if 0.0 < c < 1.0] + [1.0]
    hi = 1.0
    for c, nxt in zip(up, up[1:]):
        if not _stable(N, T, a, 0.5 * (c + nxt)):
            hi = c
            break

    return lo, hi, not any(lo < c < hi for c in merged)


def stable_mu_interval(N: int, T: int, a: GainVector, scheme: str = "custom") -> MuInterval:
    """The stable interval of multipliers around mu = 0: (lo, hi) of ``reach``.

    Gains equal, float for float, to those of a named scheme at N
    (``SCHEMES``, T <= 4, N <= 32) take (lo, hi) from their
    ``reach_table.ROWS`` row, which holds ``reach``'s answer bit for bit;
    any other gain vector runs ``reach``. The gains decide, never ``scheme``,
    which only labels the result.
    """
    check_dims(N, T, a)
    lo, hi, _ = _table_row(a, T) or reach(a, T)
    return MuInterval(lo=lo, hi=hi, scheme=scheme, N=N, T=T)


def _rows() -> dict:
    """``reach_table.ROWS``, imported on first use: compiling the table's
    ~500 float literals takes milliseconds that ``import dfclab`` should not pay."""
    from .reach_table import ROWS

    return ROWS


@functools.cache
def _table_schemes() -> dict:
    """The scheme name of each table row's gains, keyed by their floats:
    ``SCHEMES`` builds each (scheme, N) of the ``reach_table.ROWS`` keys once
    per process. (1.0,), the one vector two schemes share (N = 1), has equal
    uniform and dk2013 rows at every T, so either name finds its row."""
    return {SCHEMES[s](N).coeffs: s for s, N in dict.fromkeys((s, N) for s, _, N in _rows())}


def _table_row(a: GainVector, T: int) -> tuple | None:
    """The table row of gains a at period T, or None unless a equals a named
    scheme's gains at N = len(a) float for float. The gains' floats give the
    scheme (``_table_schemes``, built once), and (scheme, T, N) the row;
    ``_rows()`` is read on every call, so a patched table is seen."""
    return _rows().get((_table_schemes().get(a.coeffs), T, len(a)))


def min_N_to_stabilize(
    T: int, mu: float, scheme: str = "uniform", N_max: int = 32
) -> int | None:
    """Smallest N <= N_max whose scheme gains make the cycle stable, else None.

    Each N gets the verdict of the Jury table with ``SCHUR_MARGIN``, solving
    no root. Where ``reach_table.ROWS`` has the row of ``scheme`` (uniform
    and dk2013, T <= 4, N <= 32), its interval (lo, hi) and whether it is clear of
    contacts inside: mu <= lo - d or mu >= hi + d, d = ``END_BAND``
    (1 + |mu|), is unstable; lo + d < mu < hi - d is stable in a clear row.
    The Jury table runs only in between, inside a row with a contact (a
    tangency, beside which the margined table can say unstable), and for
    every row the reach table lacks. Rows are read by the scheme's name,
    since the gains tested at N are that scheme's, the gains each row was
    built from. mu >= 1 is rejected at once: p(1) = 1 - mu
    <= 0 for every valid gain vector, so no N can work. A non-finite mu
    raises ValueError.
    """
    if T < 1 or N_max < 1:
        raise ValueError("T and N_max must be positive integers")
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu!r}")
    if mu >= 1.0:
        return None
    rows = _rows()
    for N in range(1, N_max + 1):
        stable = _reach_verdict(rows.get((scheme, T, N)), mu)
        if stable is None:
            stable = _stable(N, T, make_gains(scheme, N), mu)
        if stable:
            return N
    return None


def _reach_verdict(row: tuple | None, mu: float) -> bool | None:
    """A ``reach`` row's verdict on mu, or None where the Jury table must
    decide (see ``min_N_to_stabilize``)."""
    if row is None:
        return None
    lo, hi, clear = row
    band = END_BAND * (1.0 + abs(mu))
    if mu <= lo - band or mu >= hi + band:
        return False
    if clear and lo + band < mu < hi - band:
        return True
    return None


def pipeline_stabilize(
    m: MapSpec, T: int, scheme: str, n_max: int, steps: int, tol: float, grid: int
) -> list[dict]:
    """End-to-end pipeline: find cycles, pick N, confirm by simulation.

    For each period-T cycle: compute the multiplier product, search the
    smallest stabilizing N (``min_N_to_stabilize``), solve roots once at it,
    then simulate from a slightly perturbed on-orbit history. The reported
    ``predicted_stable`` is that spectral radius < 1 - ``SCHUR_MARGIN``.
    """
    cycles = find_cycles(m, T, grid)
    entries = []
    for cyc in cycles:
        mu = cyc.multiplier_product
        entry: dict = {
            "points": list(cyc.points),
            "multipliers": list(cyc.multipliers),
            "mu": mu,
        }
        n_found = min_N_to_stabilize(T, mu, scheme, n_max)
        if n_found is None:
            entry["stabilizable"] = False
            entry["note"] = (
                "not stabilizable by this control (mu >= 1)" if mu >= 1.0
                else f"no N <= {n_max} stabilizes this cycle"
            )
            entries.append(entry)
            continue
        gains = make_gains(scheme, n_found)
        radius = spectral_radius(char_poly_closed(n_found, T, gains, mu))
        M = (n_found - 1) * T + 1
        history = [cyc.points[i % T] + 1e-4 for i in range(M)]
        traj = simulate(m, gains, T, history, steps, cyc, tol)
        predicted = bool(radius < 1.0 - SCHUR_MARGIN)
        entry.update(
            {
                "stabilizable": True,
                "min_N": n_found,
                "gains": list(gains.coeffs),
                "spectral_radius": radius,
                "predicted_stable": predicted,
                "converged": traj.converged,
                "settle_step": traj.settle_step,
                "agreement": traj.converged == predicted,
            }
        )
        entries.append(entry)
    return entries
