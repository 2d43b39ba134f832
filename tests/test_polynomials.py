"""Tests for polynomial arithmetic, root finding, and resultants."""

import numpy as np
import pytest

from dfclab.polynomials import (
    Polynomial,
    has_repeated_roots,
    poly_roots,
    resultant,
    sylvester_matrix,
)


class TestArithmetic:
    def test_trailing_zero_trim(self):
        p = Polynomial([1.0, 2.0, 0.0, 0.0])
        assert p.degree == 1
        assert list(p.coeffs) == [1.0, 2.0]

    def test_zero_polynomial(self):
        p = Polynomial([0.0])
        assert p.is_zero
        assert p.degree == 0

    def test_mul_is_convolution(self):
        p = Polynomial([1.0, 1.0])  # 1 + x
        q = Polynomial([-1.0, 1.0])  # -1 + x
        assert p * q == Polynomial([-1.0, 0.0, 1.0])

    def test_pow_repeated_convolution(self):
        p = Polynomial([1.0, 1.0])
        assert p**3 == Polynomial([1.0, 3.0, 3.0, 1.0])
        assert p**0 == Polynomial([1.0])

    def test_add_sub_scalar_ops(self):
        p = Polynomial([1.0, 2.0])
        assert p + 1 == Polynomial([2.0, 2.0])
        assert 2 * p == Polynomial([2.0, 4.0])
        assert p - p == Polynomial([0.0])

    def test_call_horner_complex(self):
        p = Polynomial([1.0, 1.0, 1.0])
        w = complex(-0.5, np.sqrt(3) / 2)  # primitive cube root of unity
        assert abs(p(w)) < 1e-14

    def test_derivative(self):
        p = Polynomial([5.0, 0.0, 3.0, 1.0])  # 5 + 3x^2 + x^3
        assert p.derivative() == Polynomial([0.0, 6.0, 3.0])

    def test_from_roots(self):
        p = Polynomial.from_roots([1.0, -1.0])
        assert p == Polynomial([-1.0, 0.0, 1.0])


class TestRoots:
    def test_unit_circle_pair(self):
        roots = poly_roots(Polynomial([1.0, 1.0, 1.0]))
        assert sorted(np.round(np.abs(roots), 12)) == [1.0, 1.0]
        expected = {np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3)}
        for r in roots:
            assert min(abs(r - e) for e in expected) < 1e-12

    def test_linear(self):
        for mu in (-2.0, 0.5, 3.7):
            roots = poly_roots(Polynomial([-mu, 1.0]))
            assert roots[0] == pytest.approx(mu, abs=1e-14)

    def test_cube_roots_of_unity(self):
        roots = poly_roots(Polynomial([-1.0, 0.0, 0.0, 1.0]))
        assert len(roots) == 3
        for k in range(3):
            target = np.exp(2j * np.pi * k / 3)
            assert min(abs(r - target) for r in roots) < 1e-12

    def test_zero_roots_deflated(self):
        # x^2 (x + 1)
        roots = poly_roots(Polynomial([0.0, 0.0, 1.0, 1.0]))
        assert sorted(abs(r) for r in roots) == pytest.approx([0.0, 0.0, 1.0])

    def test_residuals_on_random_polynomials(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            deg = int(rng.integers(1, 13))
            c = rng.normal(0, 1, deg + 1)
            p = Polynomial(c)
            if p.degree < 1:
                continue
            roots = poly_roots(p)
            assert len(roots) == p.degree
            scale = np.sum(np.abs(p.coeffs))
            resid = np.abs(p(roots)) / (scale * np.maximum(1.0, np.abs(roots)) ** p.degree)
            assert np.max(resid) <= 1e-10

    def test_double_root_cluster(self):
        p = Polynomial.from_roots([0.5, 0.5, -1.2])
        roots = poly_roots(p)
        dists = [abs(r - 0.5) for r in roots]
        assert sorted(dists)[1] < 1e-6  # two roots land on the cluster

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_roots(Polynomial([3.0]))

    def test_real_roots_come_back_complex(self):
        roots = poly_roots(Polynomial([0.0, -1.0, 0.0, 1.0]))  # x (x - 1) (x + 1)
        assert roots.dtype == complex
        assert sorted(roots.real) == pytest.approx([-1.0, 0.0, 1.0])
        assert 0.0 in roots  # the origin root is exact

    def test_residual_bound_warns(self, monkeypatch):
        real = np.roots
        monkeypatch.setattr(np, "roots", lambda c: real(c) + 1e-6)
        with pytest.warns(RuntimeWarning, match="residual bound"):
            roots = poly_roots(Polynomial.from_roots([0.5, -0.25, 2.0]))
        assert len(roots) == 3


class TestSylvester:
    def test_layout_quadratic_linear(self):
        f = Polynomial([-1.0, 0.0, 1.0])  # x^2 - 1
        g = Polynomial([0.0, 2.0])  # 2x
        S = sylvester_matrix(f, g)
        assert S.tolist() == [[1, 0, -1], [2, 0, 0], [0, 2, 0]]

    def test_layout_two_linears(self):
        a0, b0 = 1.7, -0.4
        f = Polynomial([a0, 1.0])
        g = Polynomial([b0, 1.0])
        S = sylvester_matrix(f, g)
        assert S.tolist() == [[1.0, a0], [1.0, b0]]

    def test_dimensions(self):
        f = Polynomial([1.0, 0.0, 0.0, 1.0])  # degree 3
        g = Polynomial([1.0, 2.0, 1.0])  # degree 2
        assert sylvester_matrix(f, g).shape == (5, 5)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            sylvester_matrix(Polynomial([0.0]), Polynomial([1.0, 1.0]))


class TestResultant:
    def test_double_root_gives_zero(self):
        f = Polynomial([1.0, -2.0, 1.0])  # (x-1)^2
        assert resultant(f, f.derivative()) == pytest.approx(0.0, abs=1e-12)

    def test_known_value(self):
        # direct 3x3 determinant expansion of the layout gives -4
        f = Polynomial([-1.0, 0.0, 1.0])
        g = Polynomial([0.0, 2.0])
        assert resultant(f, g) == pytest.approx(-4.0, abs=1e-12)

    def test_two_linears_sign_convention(self):
        # layout yields a - b; standard up to the documented sign convention
        a, b = 2.5, -0.75
        r = resultant(Polynomial([-a, 1.0]), Polynomial([-b, 1.0]))
        assert r == pytest.approx(a - b, abs=1e-12)


class TestRepeatedRoots:
    def test_exact_double_root(self):
        assert has_repeated_roots(Polynomial([1.0, -2.0, 1.0]))

    def test_unit_circle_pair_distinct(self):
        assert not has_repeated_roots(Polynomial([1.0, 1.0, 1.0]))

    @pytest.mark.parametrize("M", [4, 7, 13])
    def test_roots_of_unity_distinct(self, M):
        # lambda^M - 1 has M distinct roots
        coeffs = [0.0] * (M + 1)
        coeffs[0], coeffs[M] = -1.0, 1.0
        assert not has_repeated_roots(Polynomial(coeffs))

    def test_scale_invariance(self):
        p = Polynomial([1.0, -2.0, 1.0])
        q = Polynomial([1e6, -2e6, 1e6])
        assert has_repeated_roots(p) == has_repeated_roots(q) is True
        r = Polynomial([1e-6, 1e-6, 1e-6])
        assert not has_repeated_roots(r)

    def test_agrees_with_root_clustering_on_random_draws(self):
        # Unit-scale version of the acceptance check: random-coefficient
        # polynomials (distinct) vs s(x)*(x-r)^2 constructions (repeated),
        # scored only outside the ambiguous root-distance band.
        rng = np.random.default_rng(21)
        scored = 0
        while scored < 150:
            if rng.random() < 0.5:
                p = Polynomial(rng.normal(0, 1, int(rng.integers(3, 11)) + 1))
                expect = False
            else:
                while True:
                    s = Polynomial(rng.normal(0, 1, int(rng.integers(1, 9)) + 1))
                    r = float(rng.uniform(-1.5, 1.5))
                    if abs(s(r)) >= 0.3 * np.linalg.norm(s.coeffs):
                        break
                lin = Polynomial([-r, 1.0])
                p = s * lin * lin
                expect = True
            if p.degree < 2:
                continue
            roots = poly_roots(p)
            dmin = min(
                abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1 :]
            )
            oracle = dmin < 1e-5
            if 1e-6 < dmin < 1e-3:
                continue  # ambiguous band excluded
            assert oracle == expect
            assert has_repeated_roots(p, tol=3e-16) == oracle
            scored += 1
