"""Seeded self-check suites for the core spectral identities.

Each suite draws random configurations and compares two independent routes
to the same object (closed form vs trace recursion, entry table vs chain
product, ...). These back the CLI ``verify`` subcommand and the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectrum import (
    GainVector,
    build_jacobian,
    char_poly_closed,
    char_poly_faddeev,
    jacobian_via_chain,
    morgul_char_poly,
    morgul_jacobian_product,
)

__all__ = [
    "CheckResult",
    "random_simplex_gains",
    "SUITES",
    "run_suite",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    trials: int
    max_err: float
    tolerance: float


def random_simplex_gains(rng: np.random.Generator, N: int) -> GainVector:
    """Uniform draw from the open gain simplex (positive entries, sum 1)."""
    raw = rng.exponential(1.0, N)
    raw = raw / raw.sum()
    # Nudge the largest entry so the sum is exactly 1 after rounding.
    raw[np.argmax(raw)] += 1.0 - raw.sum()
    return GainVector(raw)


def _rel_err(found: np.ndarray, expected: np.ndarray) -> float:
    # Every suite compares the coefficients of monic polynomials of one
    # degree, so the two arrays have one length.
    return float(np.max(np.abs(found - expected)) / max(1.0, np.max(np.abs(expected))))


def _random_tuple(rng: np.random.Generator, n_max: int = 4, t_max: int = 4):
    N = int(rng.integers(1, n_max + 1))
    T = int(rng.integers(1, t_max + 1))
    gains = random_simplex_gains(rng, N)
    mus = rng.uniform(-3.0, 3.0, T)
    return N, T, gains, mus


def _closed_form_error(rng: np.random.Generator) -> float:
    """Closed-form characteristic polynomial vs trace recursion on the Jacobian."""
    N, T, gains, mus = _random_tuple(rng)
    via_matrix = char_poly_faddeev(build_jacobian(N, T, gains, mus))
    closed = char_poly_closed(N, T, gains, float(np.prod(mus)))
    return _rel_err(via_matrix.coeffs, closed.coeffs)


def _chain_error(rng: np.random.Generator) -> float:
    """Entry-table Jacobian vs chain-rule product, elementwise."""
    N, T, gains, mus = _random_tuple(rng)
    table = build_jacobian(N, T, gains, mus)
    chain = jacobian_via_chain(N, T, gains, mus)
    return float(np.max(np.abs(table - chain)))


def _rotation_error(rng: np.random.Generator) -> float:
    """Characteristic polynomial is unchanged under cyclic multiplier rotation."""
    N = int(rng.integers(2, 5))
    T = 3
    gains = random_simplex_gains(rng, N)
    mus = rng.uniform(-3.0, 3.0, T)
    ref, *rots = (char_poly_faddeev(jacobian_via_chain(N, T, gains, np.roll(mus, k))).coeffs
                  for k in (0, 1, 2))
    errs = [_rel_err(rot, ref) for rot in rots]
    return max(0.0, *errs)  # from 0.0, a NaN error is skipped as run_suite skips one


def _morgul_error(rng: np.random.Generator) -> float:
    """Explicit single-gain coefficients vs the chain-rule Jacobian product."""
    T = int(rng.integers(1, 4))
    mus = rng.uniform(-3.0, 3.0, T)
    K = float(rng.uniform(-2.0, 2.0))
    explicit = morgul_char_poly(T, mus, K)
    via_matrix = char_poly_faddeev(morgul_jacobian_product(T, mus, K))
    return _rel_err(via_matrix.coeffs, explicit.coeffs)


# Each suite is a tolerance and a trial, which draws one configuration from
# the rng and returns its error; a suite passes when its largest error is at
# most its tolerance.
SUITES = {
    "lemma1": (1e-8, _closed_form_error),
    "chain": (1e-12, _chain_error),
    "rotation": (1e-8, _rotation_error),
    "morgul": (1e-10, _morgul_error),
}


def run_suite(name: str, trials: int = 100, seed: int = 0) -> list[CheckResult]:
    """Run one named suite, or all of them, each on its own rng from seed."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    results = []
    for suite in SUITES if name == "all" else [name]:
        tolerance, trial = SUITES[suite]
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(trials):
            worst = max(worst, trial(rng))  # a NaN error is skipped
        results.append(CheckResult(suite, worst <= tolerance, trials, worst, tolerance))
    return results
