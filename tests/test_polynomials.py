"""Tests for polynomial arithmetic, root finding, and resultants."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dfclab.polynomials
from dfclab.polynomials import (
    Polynomial,
    has_repeated_roots,
    poly_roots,
    poly_roots_stack,
    resultant,
    sylvester_matrix,
)
from dfclab.spectrum import char_poly_closed
from dfclab.stability import gains_uniform


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
        real = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda A: real(A) + 1e-6)
        with pytest.warns(RuntimeWarning, match="residual bound"):
            roots = poly_roots(Polynomial.from_roots([0.5, -0.25, 2.0]))
        assert len(roots) == 3


def _np_roots(row):
    """One ascending row's roots by ``np.roots``, as complex."""
    return np.roots(row[::-1]).astype(complex)


@st.composite
def root_stacks(draw):
    """Rows of one degree 1-125, some with their low-order coefficients zeroed.

    Zeroing all but the leading coefficient gives the mu = 0 row lambda^deg.
    """
    deg = draw(st.integers(1, 125))
    n_rows = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.standard_normal((n_rows, deg + 1))
    for r in range(n_rows):
        rows[r, : min(deg, draw(st.sampled_from([0, 0, 1, 2, deg // 2, deg])))] = 0.0
    return rows


class TestRootsStack:
    @settings(max_examples=60, deadline=None)
    @given(rows=root_stacks(), budget=st.sampled_from([1, 3000, 1 << 24]))
    def test_equals_np_roots_per_row(self, rows, budget):
        # A budget of 1 byte solves every row as its own chunk, 3000 bytes
        # cuts a small-degree stack into chunks of several rows.
        with mock.patch.object(dfclab.polynomials, "STACK_BYTES", budget):
            got = poly_roots_stack(rows)
        assert got.dtype == complex and got.shape == (rows.shape[0], rows.shape[1] - 1)
        for r, row in enumerate(rows):
            assert got[r].tobytes() == _np_roots(row).tobytes()

    @pytest.mark.parametrize("budget", [1, 1 << 24])  # one chunk per row, or one in all
    @pytest.mark.parametrize("N, T", [(1, 1), (1, 3), (2, 1), (5, 2), (4, 3)])
    def test_char_poly_rows(self, N, T, budget):
        # Stacks of closed-form rows, mu = 0 (lambda^M) among them.
        a = gains_uniform(N)
        rows = np.array(
            [char_poly_closed(N, T, a, mu).coeffs for mu in (-3.0, -0.5, 0.0, 0.7, 2.0)]
        )
        with mock.patch.object(dfclab.polynomials, "STACK_BYTES", budget):
            got = poly_roots_stack(rows)
        for r, row in enumerate(rows):
            assert got[r].tobytes() == _np_roots(row).tobytes()
        assert np.all(got[2] == 0.0)

    def test_single_polynomial_is_a_stack_of_one(self):
        p = char_poly_closed(3, 2, gains_uniform(3), -1.3)
        assert poly_roots(p).tobytes() == poly_roots_stack(p.coeffs[None, :])[0].tobytes()
        assert poly_roots(p).tobytes() == _np_roots(p.coeffs).tobytes()

    def test_one_bad_row_warns_once(self, monkeypatch):
        real = np.linalg.eigvals

        def second_matrix_off(A):
            w = real(A).astype(complex)
            w[1] += 1e-6
            return w

        monkeypatch.setattr(np.linalg, "eigvals", second_matrix_off)
        rows = np.array([Polynomial.from_roots(z).coeffs for z in
                         ([0.5, -0.25, 2.0], [0.1, 0.2, 0.3], [-1.0, 0.4, 0.9])])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            poly_roots_stack(rows)
        assert [str(w.message) for w in caught] == ["polynomial roots miss the residual bound"]
        assert all(w.category is RuntimeWarning for w in caught)

    def test_rejects_rows_of_unequal_degree(self):
        with pytest.raises(ValueError, match="leading coefficient"):
            poly_roots_stack([[1.0, 2.0, 1.0], [1.0, 2.0, 0.0]])
        with pytest.raises(ValueError, match="degree >= 1"):
            poly_roots_stack([[1.0], [2.0]])

    def test_empty_stack(self):
        assert poly_roots_stack(np.empty((0, 4))).shape == (0, 3)


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

    @pytest.mark.parametrize("tol", [1e-9, 3e-16])
    def test_system_polynomial_with_distinct_roots(self, tol):
        # N=8, T=2, mu=-1.5: degree 15, closest roots 0.286 apart.
        p = char_poly_closed(8, 2, gains_uniform(8), -1.5)
        assert not has_repeated_roots(p, tol=tol)

    def test_evenly_spaced_roots_are_distinct(self):
        assert not has_repeated_roots(Polynomial.from_roots(np.linspace(-0.95, 0.95, 6)))

    @pytest.mark.parametrize("N, T, N_cofactor", [(125, 2, 124), (249, 1, 247)])
    def test_degree_249(self, N, T, N_cofactor):
        # Distinct roots about 0.024 apart; a resultant scale overflows here.
        p = char_poly_closed(N, T, gains_uniform(N), -1.5)
        assert p.degree == 249
        assert not has_repeated_roots(p, tol=3e-16)
        # A double root at 0.3 on a degree-247 system polynomial is found.
        s = char_poly_closed(N_cofactor, T, gains_uniform(N_cofactor), -1.5)
        lin = Polynomial([-0.3, 1.0])
        assert (s * lin * lin).degree == 249
        assert has_repeated_roots(s * lin * lin, tol=3e-16)

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
