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
    "check_closed_form",
    "check_chain_vs_table",
    "check_rotation_invariance",
    "check_morgul_baseline",
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


def _rel_err(found, expected) -> float:
    found = np.asarray(found, dtype=float)
    expected = np.asarray(expected, dtype=float)
    n = max(found.size, expected.size)
    f = np.zeros(n)
    e = np.zeros(n)
    f[: found.size] = found
    e[: expected.size] = expected
    return float(np.max(np.abs(f - e)) / max(1.0, np.max(np.abs(e))))


def _random_tuple(rng: np.random.Generator, n_max: int = 4, t_max: int = 4):
    N = int(rng.integers(1, n_max + 1))
    T = int(rng.integers(1, t_max + 1))
    gains = random_simplex_gains(rng, N)
    mus = rng.uniform(-3.0, 3.0, T)
    return N, T, gains, mus


# Each suite passes when its largest error is at most its tolerance.
LEMMA1_TOL = 1e-8
CHAIN_TOL = 1e-12
ROTATION_TOL = 1e-8
MORGUL_TOL = 1e-10


def check_closed_form(trials: int = 500, seed: int = 0) -> CheckResult:
    """Closed-form characteristic polynomial vs trace recursion on the Jacobian."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        N, T, gains, mus = _random_tuple(rng)
        via_matrix = char_poly_faddeev(build_jacobian(N, T, gains, mus))
        closed = char_poly_closed(N, T, gains, float(np.prod(mus)))
        worst = max(worst, _rel_err(via_matrix.coeffs, closed.coeffs))
    return CheckResult("lemma1", worst <= LEMMA1_TOL, trials, worst, LEMMA1_TOL)


def check_chain_vs_table(trials: int = 500, seed: int = 0) -> CheckResult:
    """Entry-table Jacobian vs chain-rule product, elementwise."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        N, T, gains, mus = _random_tuple(rng)
        table = build_jacobian(N, T, gains, mus)
        chain = jacobian_via_chain(N, T, gains, mus)
        worst = max(worst, float(np.max(np.abs(table - chain))))
    return CheckResult("chain", worst <= CHAIN_TOL, trials, worst, CHAIN_TOL)


def check_rotation_invariance(trials: int = 100, seed: int = 0) -> CheckResult:
    """Characteristic polynomial is unchanged under cyclic multiplier rotation."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        N = int(rng.integers(2, 5))
        T = 3
        gains = random_simplex_gains(rng, N)
        mus = rng.uniform(-3.0, 3.0, T)
        ref = char_poly_faddeev(jacobian_via_chain(N, T, gains, mus))
        for shift in (1, 2):
            rolled = np.roll(mus, shift)
            rot = char_poly_faddeev(jacobian_via_chain(N, T, gains, rolled))
            worst = max(worst, _rel_err(rot.coeffs, ref.coeffs))
    return CheckResult("rotation", worst <= ROTATION_TOL, trials, worst, ROTATION_TOL)


def check_morgul_baseline(trials: int = 100, seed: int = 0) -> CheckResult:
    """Explicit single-gain coefficients vs the chain-rule Jacobian product."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        T = int(rng.integers(1, 4))
        mus = rng.uniform(-3.0, 3.0, T)
        K = float(rng.uniform(-2.0, 2.0))
        explicit = morgul_char_poly(T, mus, K)
        via_matrix = char_poly_faddeev(morgul_jacobian_product(T, mus, K))
        worst = max(worst, _rel_err(via_matrix.coeffs, explicit.coeffs))
    return CheckResult("morgul", worst <= MORGUL_TOL, trials, worst, MORGUL_TOL)


SUITES = {
    "lemma1": check_closed_form,
    "chain": check_chain_vs_table,
    "rotation": check_rotation_invariance,
    "morgul": check_morgul_baseline,
}


def run_suite(name: str, trials: int = 100, seed: int = 0) -> list[CheckResult]:
    """Run one named suite, or all of them."""
    if name == "all":
        return [fn(trials=trials, seed=seed) for fn in SUITES.values()]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return [SUITES[name](trials=trials, seed=seed)]
