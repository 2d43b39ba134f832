"""Tests for Schur stability, gain schemes, and multiplier-interval scans."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dfclab.polynomials import Polynomial, poly_roots
from dfclab.spectrum import GainVector, char_poly_closed
import dfclab.stability
from dfclab.stability import (
    SCHUR_MARGIN,
    analyze,
    gains_dk2013,
    gains_uniform,
    gamma_t1,
    jury_stable,
    min_N_to_stabilize,
    spectral_radius,
    stable_mu_interval,
)
from dfclab.verify import random_simplex_gains


class TestJury:
    def test_stable_linear(self):
        assert jury_stable(Polynomial([-0.5, 1.0]))

    def test_unit_circle_roots_fail(self):
        assert not jury_stable(Polynomial([1.0, 1.0, 1.0]))

    def test_mu_above_one_fails_at_plus_one(self):
        # lambda - 1.5: p(1) = -0.5 <= 0
        assert not jury_stable(Polynomial([-1.5, 1.0]))

    def test_negative_leading_coefficient_normalized(self):
        assert jury_stable(Polynomial([0.5, -1.0]))

    def test_cubic_with_known_roots(self):
        assert jury_stable(Polynomial.from_roots([0.9, 0.5, -0.8]))
        assert not jury_stable(Polynomial.from_roots([1.1, 0.5, -0.8]))

    def test_agrees_with_root_moduli_on_random_polynomials(self):
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 1000:
            deg = int(rng.integers(1, 13))
            coeffs = rng.normal(0, 1, deg + 1)
            p = Polynomial(coeffs)
            if p.degree < 1:
                continue
            radius = spectral_radius(p)
            if abs(radius - 1.0) <= 1e-6:
                continue  # marginal band: boolean not meaningful
            assert jury_stable(p) == (radius < 1.0), f"coeffs={coeffs}"
            checked += 1

    def test_stable_t2_table_needs_no_root_solve(self, monkeypatch):
        # Radius 0.9516. Unscaled derived rows underflow into the degenerate
        # branch, which then solves roots.
        p = char_poly_closed(13, 2, gains_uniform(13), -1.0)

        def no_roots(p):
            raise AssertionError("Jury table fell back to a root solve")

        monkeypatch.setattr(dfclab.stability, "spectral_radius", no_roots)
        assert jury_stable(p)

    def test_margin_shrinks_the_disc(self):
        # Radius 1 - 5e-10 lies inside the unit disc but not below 1 - SCHUR_MARGIN.
        p = Polynomial([-(1 - 5e-10), 1.0])
        assert jury_stable(p)
        assert not jury_stable(p, SCHUR_MARGIN)
        p = Polynomial([-(1 - 2e-9), 1.0])
        assert jury_stable(p)
        assert jury_stable(p, SCHUR_MARGIN)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        N=st.integers(1, 32),
        T=st.integers(1, 4),
        scheme=st.sampled_from(["uniform", "dk2013", "simplex"]),
        share=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_system_polynomials_agree_with_root_moduli(self, N, T, scheme, share, seed):
        if scheme == "simplex":
            a = random_simplex_gains(np.random.default_rng(seed), N)
        else:
            a = gains_uniform(N) if scheme == "uniform" else gains_dk2013(N)
        mu = 0.99 - share * (0.99 + 1.5 * 2**T)
        radius = _np_radius(N, T, a, mu)
        assume(abs(radius - 1.0) >= 1e-6)
        assume(abs(radius - (1.0 - SCHUR_MARGIN)) >= 1e-6)
        p = char_poly_closed(N, T, a, mu)
        assert jury_stable(p) == (radius < 1.0)
        assert jury_stable(p, SCHUR_MARGIN) == (radius < 1.0 - SCHUR_MARGIN)

    # (N, T, gains, endpoint, radius minus (1 - SCHUR_MARGIN)): every case
    # lies within 1e-8 of the margined threshold, on both sides of it.
    NEAR_MARGIN = [
        (1, 1, "uniform", "lo", 1e-9),
        (2, 1, "uniform", "lo", -2e-9),
        (5, 1, "dk2013", "lo", 3e-9),
        (3, 2, "uniform", "lo", -4e-9),
        (4, 3, "dk2013", "lo", 5e-9),
        (6, 2, "simplex", "lo", -6e-9),
        (8, 1, "uniform", "hi", -7e-9),
        (3, 4, "uniform", "lo", -8e-9),
        (10, 2, "dk2013", "lo", 9e-9),
        (12, 1, "dk2013", "lo", -1e-9),
        (4, 2, "simplex", "hi", 2e-9),
        (7, 3, "uniform", "lo", 3e-9),
    ]

    @pytest.mark.parametrize("N, T, scheme, end, offset", NEAR_MARGIN)
    def test_margined_verdict_near_the_threshold_matches_mpmath(self, N, T, scheme, end, offset):
        if scheme == "simplex":
            a = random_simplex_gains(np.random.default_rng(N), N)
        else:
            a = gains_uniform(N) if scheme == "uniform" else gains_dk2013(N)
        iv = stable_mu_interval(N, T, a)
        threshold = 1.0 - SCHUR_MARGIN
        p = char_poly_closed(N, T, a, _mu_at_radius(N, T, a, getattr(iv, end), threshold + offset))
        with mpmath.workdps(40):
            roots = mpmath.polyroots(
                [mpmath.mpf(c) for c in p.coeffs[::-1]], maxsteps=200, extraprec=200
            )
            gap = float(max(abs(r) for r in roots) - mpmath.mpf(threshold))
        assert abs(gap - offset) < 1e-11
        assert jury_stable(p, SCHUR_MARGIN) == (gap < 0.0)


class TestSpectralRadius:
    def test_examples(self):
        assert spectral_radius(Polynomial([-0.25, 0.0, 1.0])) == pytest.approx(0.5)
        assert spectral_radius(Polynomial([1.0, 1.0, 1.0])) == pytest.approx(1.0)
        for mu in (-3.0, 0.4, 2.0):
            assert spectral_radius(Polynomial([-mu, 1.0])) == pytest.approx(abs(mu))

    # (N, T, gains, mu): system polynomials of degree <= 25. At N = 8, T = 2
    # and tiny |mu| the 15 roots crowd near the origin.
    MPMATH_CASES = [
        (8, 2, "uniform", 1e-12),
        (8, 2, "uniform", -1e-16),
        (2, 1, "uniform", -1.5),
        (3, 1, "dk2013", -5.0),
        (5, 2, "uniform", -3.0),
        (4, 3, "dk2013", -6.0),
        (6, 4, "simplex", -10.0),
        (13, 2, "dk2013", -2.5),
        (9, 3, "simplex", 0.5),
        (3, 4, "uniform", -20.0),
        (20, 1, "uniform", -19.0),
        (7, 4, "dk2013", -1e-6),
    ]

    @pytest.mark.parametrize("N, T, scheme, mu", MPMATH_CASES)
    def test_system_polynomials_match_mpmath(self, N, T, scheme, mu):
        if scheme == "simplex":
            a = random_simplex_gains(np.random.default_rng(N), N)
        else:
            a = gains_uniform(N) if scheme == "uniform" else gains_dk2013(N)
        p = char_poly_closed(N, T, a, mu)
        with mpmath.workdps(50):
            roots = mpmath.polyroots(
                [mpmath.mpf(c) for c in p.coeffs[::-1]], maxsteps=200, extraprec=200
            )
            want = float(max(abs(r) for r in roots))
        assert abs(spectral_radius(p) - want) <= 1e-12 * want


class TestGainSchemes:
    def test_uniform(self):
        assert gains_uniform(1).coeffs == (1.0,)
        assert gains_uniform(3).coeffs == pytest.approx([1 / 3] * 3)
        for N in range(1, 20):
            assert sum(gains_uniform(N).coeffs) == pytest.approx(1.0, abs=1e-12)

    def test_dk2013_single(self):
        # 2 tan(pi/4) * (1/2) * sin(pi/2) = 1
        assert gains_dk2013(1).coeffs[0] == pytest.approx(1.0, abs=1e-12)

    def test_dk2013_pair(self):
        a = gains_dk2013(2)
        assert a.coeffs[0] == pytest.approx(2 / 3, abs=1e-12)
        assert a.coeffs[1] == pytest.approx(1 / 3, abs=1e-12)

    def test_dk2013_sums_to_one(self):
        for N in range(1, 51):
            vals = gains_dk2013(N).coeffs
            assert abs(sum(vals) - 1.0) <= 1e-9

    def test_dk2013_positive_and_decaying_tail(self):
        a = gains_dk2013(8).coeffs
        assert all(v > 0 for v in a)
        assert a[-1] < a[0]


class TestGamma:
    def test_uniform_n3(self):
        assert gamma_t1(gains_uniform(3)) == pytest.approx(-3.0, abs=1e-6)

    def test_uniform_n1(self):
        assert gamma_t1(gains_uniform(1)) == pytest.approx(-1.0, abs=1e-9)

    def test_uniform_matches_interval_lower_endpoint(self):
        # nearest negative contact vs the root-probed interval endpoint
        for N in (2, 3, 4, 5):
            g = gains_uniform(N)
            scan = gamma_t1(g)
            interval = stable_mu_interval(N, 1, g, scheme="uniform")
            assert scan == pytest.approx(interval.lo, abs=1e-4)
            assert scan == pytest.approx(-N, abs=1e-6)

    def test_dk2013_n3_strictly_below_uniform(self):
        val = gamma_t1(gains_dk2013(3))
        assert val < -3.0

    def test_grid_floor_enforced(self):
        with pytest.raises(ValueError):
            gamma_t1(gains_uniform(3), theta_grid=100)

    def test_deadbeat_gains(self):
        # a = (0, ..., 0, 1): p = lambda^N - mu, stable iff |mu| < 1
        assert gamma_t1(GainVector([0.0, 0.0, 1.0])) == pytest.approx(-1.0, abs=1e-6)


class TestStableMuInterval:
    def test_uniform_n4_t1(self):
        iv = stable_mu_interval(4, 1, gains_uniform(4), scheme="uniform")
        assert iv.lo == pytest.approx(-4.0, abs=1e-4)
        assert iv.hi == pytest.approx(1.0, abs=1e-4)

    def test_single_gain(self):
        iv = stable_mu_interval(1, 1, GainVector([1.0]))
        assert iv.lo == pytest.approx(-1.0, abs=1e-4)
        assert iv.hi == pytest.approx(1.0, abs=1e-4)

    def test_uniform_n2_t2_endpoints_verified_by_dense_scan(self):
        g = gains_uniform(2)
        iv = stable_mu_interval(2, 2, g, scheme="uniform")
        assert iv.lo < 0 < iv.hi <= 1.0
        # independent check: radius brackets the endpoint on both sides
        delta = 1e-3
        for mu, expect_stable in [
            (iv.lo + delta, True),
            (iv.lo - delta, False),
            (iv.hi - delta, True),
        ]:
            radius = spectral_radius(char_poly_closed(2, 2, g, mu))
            assert (radius < 1.0) == expect_stable

    def test_connectivity_scan(self):
        iv = stable_mu_interval(3, 1, gains_uniform(3), scheme="uniform", scan_grid=40)
        assert iv.connected is True

    def test_uniform_boundary_exactness(self):
        for N in range(1, 9):
            g = gains_uniform(N)
            at_boundary = spectral_radius(char_poly_closed(N, 1, g, float(-N)))
            assert abs(at_boundary - 1.0) <= 1e-9
            inside = spectral_radius(char_poly_closed(N, 1, g, -N + 0.05))
            outside = spectral_radius(char_poly_closed(N, 1, g, -N - 0.05))
            assert inside < 1.0
            assert outside > 1.0

    def test_boundary_roots_form_roots_of_unity_pattern(self):
        # at mu = -N, (lambda - 1) p(lambda) = lambda^(N+1) - 1, so the roots
        # are the (N+1)-st roots of unity except 1
        N = 5
        p = char_poly_closed(N, 1, gains_uniform(N), float(-N))
        roots = poly_roots(p)
        targets = [np.exp(2j * np.pi * k / (N + 1)) for k in range(1, N + 1)]
        for r in roots:
            assert min(abs(r - t) for t in targets) < 1e-9


def _np_radius(N, T, a, mu):
    """Spectral radius by ``np.roots``: independent of the Jury table, not of poly_roots."""
    p = char_poly_closed(N, T, a, mu)
    return float(np.max(np.abs(np.roots(p.coeffs[::-1]))))


def _mu_at_radius(N, T, a, mu, target):
    """Secant search, from an interval endpoint mu, for the mu where _np_radius is target."""
    x0, x1 = mu, mu - 1e-7 * max(1.0, abs(mu))
    f0, f1 = (_np_radius(N, T, a, x) - target for x in (x0, x1))
    for _ in range(30):
        if f1 == f0 or abs(f1) < 1e-14:
            break
        x0, x1, f0 = x1, x1 - f1 * (x1 - x0) / (f1 - f0), f1
        f1 = _np_radius(N, T, a, x1) - target
    return x1


class TestBoundaryEngine:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(N=st.integers(1, 12), T=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_endpoints_separate_stable_from_unstable(self, N, T, seed):
        a = random_simplex_gains(np.random.default_rng(seed), N)
        iv = stable_mu_interval(N, T, a)
        for x, inward in ((iv.lo, 1.0), (iv.hi, -1.0)):
            if not math.isfinite(x):
                continue
            delta = 1e-5 * (1.0 + abs(x))
            assert _np_radius(N, T, a, x + inward * delta) < 1.0
            assert _np_radius(N, T, a, x - inward * delta) > 1.0

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(N=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_gamma_puts_a_root_on_the_circle(self, N, seed):
        a = random_simplex_gains(np.random.default_rng(seed), N)
        gamma = gamma_t1(a)
        assert -math.inf < gamma < 0.0
        assert _np_radius(N, 1, a, gamma) == pytest.approx(1.0, abs=1e-8)
        assert _np_radius(N, 1, a, 0.5 * gamma) < 1.0

    @pytest.mark.parametrize("N, tangency", [(5, -6.464), (13, -38.885)])
    def test_interval_steps_over_dk2013_tangencies(self, N, tangency):
        # A root touches the circle at the tangency and returns inside, so the
        # stable interval runs on to the crossing at -cot^2(pi/(2(N+1))).
        a = gains_dk2013(N)
        iv = stable_mu_interval(N, 1, a, scheme="dk2013")
        want = -1.0 / math.tan(math.pi / (2 * (N + 1))) ** 2
        assert iv.lo == pytest.approx(want, abs=1e-6)
        assert iv.lo < tangency
        assert _np_radius(N, 1, a, tangency) < 1.0

    def test_dk2013_gamma_is_the_tangency(self):
        assert gamma_t1(gains_dk2013(8)) == pytest.approx(-7.29086, abs=1e-6)
        assert gamma_t1(gains_dk2013(5)) == pytest.approx(-6.464, abs=1e-3)


class TestMuAboveOne:
    def test_unstable_for_all_gain_vectors(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            N = int(rng.integers(1, 7))
            T = int(rng.integers(1, 4))
            a = random_simplex_gains(rng, N)
            mu = float(rng.uniform(1.0, 5.0))
            report = analyze(char_poly_closed(N, T, a, mu))
            assert not report.schur_stable
            value_at_one = complex(report.polynomial(1.0)).real
            assert abs(value_at_one - (1.0 - mu)) <= 1e-12
            assert value_at_one <= 0.0


class TestDk2013Dominance:
    def test_lower_endpoint_strictly_below_uniform(self):
        for N in range(2, 11):
            iv = stable_mu_interval(N, 1, gains_dk2013(N), scheme="dk2013")
            assert iv.lo < -N, f"N={N}: dk2013 lo={iv.lo}"


class TestMinN:
    def test_mu_minus_two_needs_three(self):
        # the uniform interval (-N, 1) is open: N=2 leaves mu=-2 marginal
        assert min_N_to_stabilize(1, -2.0, "uniform", 10) == 3

    def test_small_mu_needs_one(self):
        assert min_N_to_stabilize(1, 0.5, "uniform", 10) == 1

    def test_mu_at_least_one_unstabilizable(self):
        assert min_N_to_stabilize(1, 1.0, "uniform", 50) is None
        assert min_N_to_stabilize(2, 2.5, "dk2013", 50) is None

    def test_floor_rule_for_uniform(self):
        for mu in (-1.5, -2.5, -7.5):
            expected = math.floor(abs(mu)) + 1
            assert min_N_to_stabilize(1, mu, "uniform", 32) == expected

    def test_dk2013_beats_uniform_at_mu_minus_ten(self):
        n_uniform = min_N_to_stabilize(1, -10.0, "uniform", 32)
        n_dk = min_N_to_stabilize(1, -10.0, "dk2013", 32)
        assert n_uniform == 11
        assert n_dk is not None and n_dk <= n_uniform

    def test_exhausted_search_returns_none(self):
        assert min_N_to_stabilize(1, -50.0, "uniform", 5) is None


class TestOneVerdict:
    def test_verdicts_solve_no_roots(self, monkeypatch):
        def no_roots(p):
            raise AssertionError("a stability verdict solved roots")

        monkeypatch.setattr(dfclab.stability, "poly_roots", no_roots)
        assert min_N_to_stabilize(4, -18.4, "uniform", 32) is None
        iv = stable_mu_interval(8, 2, gains_dk2013(8))
        assert iv.lo < 0.0 < iv.hi


class TestAnalyze:
    def test_marginal_flag(self):
        report = analyze(Polynomial([1.0, 1.0, 1.0]))
        assert report.marginal
        assert not report.schur_stable

    def test_jury_agrees_when_not_marginal(self):
        report = analyze(char_poly_closed(3, 1, gains_uniform(3), -2.0))
        assert report.schur_stable
        assert report.jury_verdict
        assert not report.marginal

    def test_report_roots_match_polynomial(self):
        p = char_poly_closed(2, 1, GainVector([0.5, 0.5]), -1.2)
        report = analyze(p)
        for r in report.roots:
            assert abs(complex(p(r))) < 1e-9
