"""Tests for Schur stability, gain schemes, and multiplier-interval scans."""

import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dfclab.polynomials import Polynomial, poly_roots
from dfclab.reach_table import ROWS
from dfclab.spectrum import GAIN_SUM_TOL, GainVector, char_poly_closed
import dfclab.stability
from dfclab.stability import (
    MU_FLOOR,
    SCHEMES,
    SCHUR_MARGIN,
    analyze,
    gains_dk2013,
    gains_uniform,
    gamma_t1,
    jury_stable,
    make_gains,
    merged_contacts,
    min_N_to_stabilize,
    reach,
    spectral_radius,
    stable_mu_interval,
)
from dfclab.verify import random_simplex_gains

from bisection import bisection_engine


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficients_are_rejected(self, bad):
        # Every comparison with NaN is False: the table would fall through to stable.
        with pytest.raises(ValueError, match="finite coefficients"):
            jury_stable(char_poly_closed(3, 1, gains_uniform(3), bad))
        with pytest.raises(ValueError, match="finite coefficients"):
            jury_stable(Polynomial([0.5, bad, 1.0]), SCHUR_MARGIN)

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

    # The first contact of the dk2013 gains is a tangency: a double zero of
    # Im(mu(theta)), mu(theta) = e^{iN theta} / q(e^{i theta}). Closed forms
    # for N = 3 and 5; the rest are Re(mu) at the zero of d/dtheta Im(mu)
    # solved by mpmath.findroot at 40 digits with the gains in mpmath (the
    # zero lies at theta = 3 pi / (N + 1), where Im(mu) < 1e-39).
    @pytest.mark.parametrize(
        "N, tangency",
        [
            (3, -(2.0 + 2.0 * math.sqrt(2.0))),
            (5, -(3.0 + 2.0 * math.sqrt(3.0))),
            (8, -7.2908593693815896066),
            (13, -7.7016493845321326805),
            (15, -7.7709001866354953088),
            (24, -7.9056251275151735632),
        ],
    )
    def test_dk2013_gamma_at_the_tangency(self, N, tangency):
        # The tangency is the bisected zero of phi', exact to rounding. At
        # N = 5 and 15 rounding also splits it into two sign changes of
        # Im(mu), 1e-8 to 5e-8 to either side; gamma is still the tangency.
        assert gamma_t1(gains_dk2013(N)) == pytest.approx(tangency, rel=1e-12, abs=0.0)

    def test_deadbeat_gains(self):
        # a = (0, ..., 0, 1): p = lambda^N - mu, stable iff |mu| < 1
        assert gamma_t1(GainVector([0.0, 0.0, 1.0])) == pytest.approx(-1.0, abs=1e-6)


class TestStableMuInterval:
    @pytest.mark.parametrize("scheme, T, N", [("uniform", 1, 9), ("uniform", 3, 25), ("dk2013", 2, 20)])
    def test_the_contact_at_one_is_merged_into_one_exactly(self, scheme, T, N):
        # These rows' contacts at mu = 1 (p(1) = 1 - mu) come back as rounding
        # copies such as 0.9999999999999998.
        near_one = [c for c in dfclab.stability._contacts(make_gains(scheme, N), T).tolist()
                    if abs(c - 1.0) <= 2e-6]
        assert near_one and 1.0 not in near_one
        merged = dfclab.stability.merged_contacts(make_gains(scheme, N), T)
        assert 1.0 in merged and not any(0.0 < abs(c - 1.0) <= 2e-6 for c in merged)

    @pytest.mark.parametrize("T", [0, -1])
    def test_merged_contacts_rejects_a_period_below_one(self, T):
        with pytest.raises(ValueError, match="T must be a positive integer"):
            merged_contacts(gains_uniform(3), T)

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

    @pytest.mark.parametrize("scheme", ["uniform", "dk2013"])
    @pytest.mark.parametrize("T", [1, 2, 3])
    @pytest.mark.parametrize("N", [2, 4, 7])
    def test_interior_root_moduli_below_one(self, N, T, scheme):
        # Every root modulus on a dense grid strictly inside the interval is
        # below 1, tangencies stepped over by the interval included.
        a = gains_uniform(N) if scheme == "uniform" else gains_dk2013(N)
        iv = stable_mu_interval(N, T, a, scheme=scheme)
        assert math.isfinite(iv.lo)
        for k in range(1, 201):
            mu = iv.lo + (iv.hi - iv.lo) * k / 201
            assert spectral_radius(char_poly_closed(N, T, a, mu)) < 1.0

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

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(N=st.integers(1, 12), T=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_every_contact_puts_a_root_on_the_circle(self, N, T, seed):
        # np.roots is only about sqrt(eps) accurate at the multiple roots of
        # some crossings, hence 1e-6 rather than the contacts' own accuracy.
        a = random_simplex_gains(np.random.default_rng(seed), N)
        for c in dfclab.stability._contacts(a, T):
            if abs(c) <= 1e6:
                p = char_poly_closed(N, T, a, float(c))
                moduli = np.abs(np.roots(p.coeffs[::-1]))
                assert np.min(np.abs(moduli - 1.0)) <= 1e-6

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


SCHEME_T = [(scheme, T) for scheme in ("uniform", "dk2013") for T in range(1, 5)]


def _boundary_contacts(a, T):
    return [c for c in merged_contacts(a, T) if MU_FLOOR <= c <= 1.0]


def _random_gains(seed, count):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        N, T = int(rng.integers(1, 25)), int(rng.integers(1, 5))
        out.append((random_simplex_gains(rng, N), T))
    return out


class TestContactsAgainstBisection:
    # The oracle: the same contact search with every bracket bisected on the
    # values of h or phi' alone, to 1e-15 so that its own error stays far
    # below the tolerance.
    def assert_same_contacts(self, monkeypatch, cases):
        got = [_boundary_contacts(a, T) for a, T in cases]
        monkeypatch.setattr(dfclab.stability, "newton_brackets", bisection_engine(1e-15))
        for (a, T), mine in zip(cases, got):
            want = _boundary_contacts(a, T)
            assert len(mine) == len(want), (a.coeffs, T, mine, want)
            assert np.allclose(mine, want, rtol=1e-11, atol=0.0), (a.coeffs, T, mine, want)

    @pytest.mark.parametrize("scheme, T", SCHEME_T)
    def test_reach_table_rows(self, monkeypatch, scheme, T):
        self.assert_same_contacts(monkeypatch, [(make_gains(scheme, N), T) for N in range(1, 33)])

    @pytest.mark.parametrize("seed", range(4))
    def test_random_simplex_gains(self, monkeypatch, seed):
        self.assert_same_contacts(monkeypatch, _random_gains(seed, 75))

    # (T, N, scheme) of the benchmark's stable_mu_interval and gamma_t1 jobs.
    BENCHMARK = [(1, 8, "uniform"), (1, 16, "dk2013"), (2, 8, "dk2013"), (2, 16, "uniform"),
                 (3, 10, "uniform"), (4, 8, "dk2013"), (4, 24, "uniform"), (1, 8, "dk2013"),
                 (1, 24, "dk2013")]

    @staticmethod
    def count_passes(monkeypatch):
        """The passes of every ``newton_brackets`` call from ``_contacts``
        from now on, one entry per call."""
        passes = []
        real = dfclab.stability.newton_brackets

        def counted(g, *bracket):
            passes.append(0)

            def g_counted(x):
                passes[-1] += 1
                return g(x)

            return real(g_counted, *bracket)

        monkeypatch.setattr(dfclab.stability, "newton_brackets", counted)
        return passes

    @pytest.mark.parametrize("T, N, scheme", BENCHMARK)
    def test_few_passes(self, monkeypatch, T, N, scheme):
        # Bisection from a grid step of at most pi/2048 to 1e-13 took 34
        # passes for the crossings and 34 for the turning points.
        passes = self.count_passes(monkeypatch)
        dfclab.stability._contacts(make_gains(scheme, N), T)
        assert len(passes) == 2 and max(passes) <= 10

    @pytest.mark.parametrize("scheme, T", SCHEME_T)
    def test_no_reach_row_refines_for_more_than_20_passes(self, monkeypatch, scheme, T):
        # Where rounding splits a tangency on a grid node into two crossings
        # (dk2013, T = 1, N = 5, 13, 15, 21, 23, 25, 29 and 31), h is noise
        # that Newton cannot follow: refining them took 34-36 passes.
        passes = self.count_passes(monkeypatch)
        for N in range(1, 33):
            dfclab.stability._contacts(make_gains(scheme, N), T)
        assert len(passes) == 64 and max(passes) <= 20

    # dk2013 tangencies on a node of the contact grid, at theta = 3 pi / 8,
    # pi / 2 and 7 pi / 32: Re(mu) there, by mpmath at 40 digits, where
    # Im(mu) < 1e-38. N = 31's was missed, the others placed 4e-9 and 4e-8 off.
    @pytest.mark.parametrize(
        "N, tangency",
        [(7, -7.1097316924182420733), (13, -38.884991120485575490), (31, -46.139493687022569175)],
    )
    def test_dk2013_tangencies_on_grid_nodes(self, N, tangency):
        contacts = merged_contacts(gains_dk2013(N), 1)
        assert min(abs(c / tangency - 1.0) for c in contacts) <= 1e-12


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

    @pytest.mark.parametrize("scheme", ["uniform", "dk2013"])
    @pytest.mark.parametrize("T", [1, 2, 5])
    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_non_finite_mu_is_rejected(self, mu, T, scheme):
        with pytest.raises(ValueError, match="mu must be finite"):
            min_N_to_stabilize(T, mu, scheme)


def min_N_by_jury(T, mu, scheme, N_max):
    """The oracle: min_N_to_stabilize as it was before the reach table, a Jury
    table for every N in turn."""
    if mu >= 1.0:
        return None
    for N in range(1, N_max + 1):
        if jury_stable(char_poly_closed(N, T, make_gains(scheme, N), mu), SCHUR_MARGIN):
            return N
    return None


class TestReach:
    @staticmethod
    def assert_row(a, T):
        with mock.patch.object(dfclab.stability, "_contacts", wraps=dfclab.stability._contacts) as spy:
            lo, hi, clear = reach(a, T)
        assert spy.call_count == 1
        iv = stable_mu_interval(len(a), T, a)
        assert (lo, hi) == (iv.lo, iv.hi)
        assert clear == (not any(lo < c < hi for c in merged_contacts(a, T)))
        return clear

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(N=st.integers(1, 8), T=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_is_the_interval_and_its_clear_flag_from_one_contact_pass(self, N, T, seed):
        self.assert_row(random_simplex_gains(np.random.default_rng(seed), N), T)

    def test_a_tangency_inside_makes_the_row_not_clear(self):
        assert not self.assert_row(gains_dk2013(4), 1)

    def test_rejects_a_period_below_one(self):
        with pytest.raises(ValueError, match="T must be a positive integer"):
            reach(gains_uniform(2), 0)


def spy_contacts():
    return mock.patch.object(dfclab.stability, "_contacts", wraps=dfclab.stability._contacts)


class TestIntervalFromTheTable:
    @pytest.mark.parametrize("label", [None, "custom", "uniform", "dk2013"])
    def test_every_row_is_read_without_a_contact_pass(self, label):
        # The gains pick the row; the label only names the result.
        with spy_contacts() as spy:
            for (scheme, T, N), (lo, hi, _) in ROWS.items():
                iv = stable_mu_interval(N, T, SCHEMES[scheme](N), label or scheme)
                assert (iv.lo, iv.hi, iv.scheme) == (lo, hi, label or scheme), (scheme, T, N)
        assert spy.call_count == 0

    @staticmethod
    def assert_computed(a, T, scheme):
        with spy_contacts() as spy:
            iv = stable_mu_interval(len(a), T, a, scheme)
        assert spy.call_count == 1
        assert (iv.lo, iv.hi) == reach(a, T)[:2]

    @pytest.mark.parametrize("scheme, T, N", [("uniform", 1, 9), ("uniform", 3, 4),
                                              ("dk2013", 1, 4), ("dk2013", 2, 7)])
    def test_gains_one_ulp_off_a_row_run_the_contact_pass(self, scheme, T, N):
        c = list(SCHEMES[scheme](N).coeffs)
        c[0], c[1] = np.nextafter(c[0], 1.0), np.nextafter(c[1], 0.0)
        assert abs(math.fsum(c) - 1.0) <= GAIN_SUM_TOL
        a = GainVector(c)
        assert a.coeffs != SCHEMES[scheme](N).coeffs
        self.assert_computed(a, T, scheme)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_gains_labelled_uniform_run_the_contact_pass(self, seed):
        rng = np.random.default_rng(seed)
        a = random_simplex_gains(rng, int(rng.integers(2, 9)))
        self.assert_computed(a, int(rng.integers(1, 5)), "uniform")

    @pytest.mark.parametrize("scheme", ["uniform", "dk2013"])
    @pytest.mark.parametrize("T, N", [(1, 33), (5, 4)])
    def test_scheme_gains_past_the_table_run_the_contact_pass(self, scheme, T, N):
        assert (scheme, T, N) not in ROWS
        self.assert_computed(SCHEMES[scheme](N), T, scheme)


class TestReachTableEquivalence:
    def test_tangency_window_inside_an_interval(self):
        # -5.854... is a tangency of the dk2013 N = 4 row at T = 1. Next to it
        # the margined Jury table says unstable, though mu lies well inside
        # that row's interval, so a lookup on lo and hi alone would say 4.
        mu = -5.854101966249948 * (1 + 1e-5)
        lo, hi, _ = ROWS[("dk2013", 1, 4)]
        interior = [c for c in merged_contacts(gains_dk2013(4), 1) if lo < c < hi]
        assert lo < mu < hi and min(abs(mu - c) for c in interior) < 1e-4
        assert min_N_to_stabilize(1, mu, "dk2013") == 5
        assert min_N_by_jury(1, mu, "dk2013", 32) == 5

    @pytest.mark.parametrize("T,mu,N_max,answer", [(1, -500.0, 40, 35), (5, -1.5, 32, 2)])
    def test_rows_past_the_table_take_the_jury_table(self, T, mu, N_max, answer):
        assert min_N_to_stabilize(T, mu, "dk2013", N_max) == answer
        assert min_N_by_jury(T, mu, "dk2013", N_max) == answer

    @pytest.mark.parametrize("scheme,T", SCHEME_T)
    def test_random_mu(self, scheme, T):
        lo_min = min(ROWS[(scheme, T, N)][0] for N in range(1, 33))
        rng = np.random.default_rng(T)
        for mu in rng.uniform(1.2 * lo_min, 1.0, 100).tolist():
            assert min_N_to_stabilize(T, mu, scheme) == min_N_by_jury(T, mu, scheme, 32), mu

    @pytest.mark.parametrize("scheme,T", SCHEME_T)
    def test_mu_next_to_every_end_and_interior_contact(self, scheme, T):
        # Queries near a point of row N0 stop the search at N0: every row up
        # to it is still looked up, at a fraction of the oracle's cost.
        for N0 in range(1, 33):
            lo, hi, _ = ROWS[(scheme, T, N0)]
            interior = [c for c in merged_contacts(make_gains(scheme, N0), T) if lo < c < hi]
            for c in (lo, *interior):
                for k in range(2, 12):
                    for mu in (c * (1 - 10.0**-k), c * (1 + 10.0**-k)):
                        expected = min_N_by_jury(T, mu, scheme, N0)
                        assert min_N_to_stabilize(T, mu, scheme, N0) == expected, (N0, c, mu)


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


class TestSpectralRadiiRejectNonFiniteMu:
    @pytest.mark.parametrize("mus, bad", [([math.inf, 0.5], "inf"), ([0.5, -math.inf], "-inf"),
                                          ([0.1, math.nan, 0.2], "nan")])
    def test_names_the_first_non_finite_mu(self, mus, bad):
        with pytest.raises(ValueError, match=f"^mu must be finite, got {bad}$"):
            dfclab.stability.spectral_radii(2, 2, gains_uniform(2), mus)
