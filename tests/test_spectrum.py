"""Tests for Jacobian constructions and characteristic polynomials."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfclab.polynomials import Polynomial
from dfclab.spectrum import (
    GainVector,
    build_jacobian,
    char_poly_closed,
    char_poly_faddeev,
    jacobian_via_chain,
    morgul_char_poly,
    morgul_jacobian_product,
    step_jacobian,
)
from dfclab.verify import random_simplex_gains


def seven_by_seven_pattern(a1, a2, a3, m1, m2, m3):
    """The known 7x7 Jacobian layout for three gains and period three."""
    return np.array(
        [
            [0, 0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 0, 1],
            [a3 * m1, 0, 0, a2 * m1, 0, 0, a1 * m1],
            [a1 * a3 * m1 * m2, a3 * m2, 0, a1 * a2 * m1 * m2, a2 * m2, 0, a1**2 * m1 * m2],
            [
                a1**2 * a3 * m1 * m2 * m3,
                a1 * a3 * m2 * m3,
                a3 * m3,
                a1**2 * a2 * m1 * m2 * m3,
                a1 * a2 * m2 * m3,
                a2 * m3,
                a1**3 * m1 * m2 * m3,
            ],
        ]
    )


class TestGainVector:
    def test_sum_enforced(self):
        with pytest.raises(ValueError, match="sum to 1"):
            GainVector([0.5, 0.6])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GainVector([])

    @pytest.mark.parametrize(
        "coeffs", [[math.nan, math.nan], [math.inf, -math.inf], [1.0, math.nan]]
    )
    def test_non_finite_rejected(self, coeffs):
        with pytest.raises(ValueError, match="finite"):
            GainVector(coeffs)

    def test_q_polynomial_order(self):
        a = GainVector([0.5, 0.3, 0.2])
        # q(x) = a1 x^2 + a2 x + a3, ascending storage (a3, a2, a1)
        assert list(a.q_polynomial().coeffs) == [0.2, 0.3, 0.5]


class TestStepJacobian:
    def test_two_gains_single_period(self):
        a = GainVector([0.7, 0.3])
        S = step_jacobian(2, 1, a, -2.0)
        assert S.tolist() == [[0.0, 1.0], [0.3 * -2.0, 0.7 * -2.0]]

    def test_three_gains_period_three_row(self):
        a = GainVector([0.5, 0.3, 0.2])
        S = step_jacobian(3, 3, a, 1.7)
        assert S.shape == (7, 7)
        for i in range(6):
            row = np.zeros(7)
            row[i + 1] = 1.0
            assert S[i].tolist() == row.tolist()
        expected_last = [0.2 * 1.7, 0, 0, 0.3 * 1.7, 0, 0, 0.5 * 1.7]
        assert S[6] == pytest.approx(expected_last, abs=0)

    def test_single_active_gain_is_companion_like(self):
        a = GainVector([1.0, 0.0, 0.0])
        S = step_jacobian(3, 1, a, 2.0)
        assert S[2].tolist() == [0.0, 0.0, 2.0]


class TestChainJacobian:
    def test_single_period_equals_step(self):
        a = GainVector([0.4, 0.6])
        assert np.array_equal(
            jacobian_via_chain(2, 1, a, [1.3]), step_jacobian(2, 1, a, 1.3)
        )

    def test_seven_by_seven_pattern(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            a = random_simplex_gains(rng, 3)
            mus = rng.uniform(-3, 3, 3)
            J = jacobian_via_chain(3, 3, a, mus)
            expected = seven_by_seven_pattern(*a.coeffs, *mus)
            assert np.max(np.abs(J - expected)) <= 1e-12

    def test_zero_multipliers_nilpotent(self):
        a = GainVector([0.5, 0.5])
        J = jacobian_via_chain(2, 2, a, [0.0, 0.0])
        p = char_poly_faddeev(J)
        # spectrum {0}: characteristic polynomial is lambda^M
        expected = np.zeros(4)
        expected[3] = 1.0
        assert p.coeffs == pytest.approx(expected, abs=1e-14)


class TestBuildJacobian:
    def test_matches_chain_on_random_tuples(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            N = int(rng.integers(1, 5))
            T = int(rng.integers(1, 5))
            a = random_simplex_gains(rng, N)
            mus = rng.uniform(-3, 3, T)
            table = build_jacobian(N, T, a, mus)
            chain = jacobian_via_chain(N, T, a, mus)
            assert np.max(np.abs(table - chain)) <= 1e-12

    def test_companion_form_for_single_period(self):
        a = GainVector([0.5, 0.3, 0.2])
        mu = -1.5
        J = build_jacobian(3, 1, a, [mu])
        assert J.tolist() == [
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.2 * mu, 0.3 * mu, 0.5 * mu],
        ]

    def test_single_gain_degenerate_case(self):
        # N=1: the state space is one-dimensional and the Jacobian is the
        # bare multiplier product, matching the chain-rule ground truth.
        a = GainVector([1.0])
        J = build_jacobian(1, 2, a, [3.0, 5.0])
        assert J.shape == (1, 1)
        assert J[0, 0] == pytest.approx(15.0, abs=0)
        assert np.array_equal(J, jacobian_via_chain(1, 2, a, [3.0, 5.0]))
        p = char_poly_faddeev(J)
        assert p.coeffs == pytest.approx(char_poly_closed(1, 2, a, 15.0).coeffs)


class TestClosedForm:
    def test_two_gains_mu_minus_two(self):
        p = char_poly_closed(2, 1, GainVector([0.5, 0.5]), -2.0)
        assert p.coeffs == pytest.approx([1.0, 1.0, 1.0], abs=0)

    def test_single_gain_is_linear(self):
        for mu in (-2.0, 0.3, 4.0):
            p = char_poly_closed(1, 1, GainVector([1.0]), mu)
            assert p.coeffs == pytest.approx([-mu, 1.0], abs=0)

    def test_three_gains_period_two_against_matrix_oracle(self):
        a = GainVector([1 / 3, 1 / 3, 1 / 3])
        mu = 0.16
        closed = char_poly_closed(3, 2, a, mu)
        # independent route: trace recursion on the chain-rule Jacobian of
        # any multiplier pair with product mu
        via_matrix = char_poly_faddeev(jacobian_via_chain(3, 2, a, [0.4, 0.4]))
        assert np.max(np.abs(closed.coeffs - via_matrix.coeffs)) <= 1e-8
        # and the explicit formula: lambda^5 - mu ((lambda^2+lambda+1)/3)^2
        q2 = (Polynomial([1.0, 1.0, 1.0]) * (1 / 3)) ** 2
        explicit = Polynomial([0, 0, 0, 0, 0, 1.0]) - mu * q2
        assert closed.coeffs == pytest.approx(explicit.coeffs, abs=1e-15)

    def test_one_at_one_is_one_minus_mu(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            N = int(rng.integers(1, 6))
            T = int(rng.integers(1, 4))
            a = random_simplex_gains(rng, N)
            mu = float(rng.uniform(-4, 4))
            p = char_poly_closed(N, T, a, mu)
            assert complex(p(1.0)).real == pytest.approx(1.0 - mu, abs=1e-12)


def char_poly_by_polynomials(N, T, a, mu):
    """``char_poly_closed`` as it was built before its q^T became a chain of
    array convolutions: a product of ``Polynomial`` factors."""
    M = (N - 1) * T + 1
    q_pow = a.q_polynomial() ** T
    coeffs = np.zeros(M + 1)
    coeffs[M] = 1.0
    coeffs[: q_pow.coeffs.size] -= mu * q_pow.coeffs
    return Polynomial(coeffs)


@st.composite
def gain_vectors(draw):
    """Gains that sum to 1: a random simplex, with a_1 = 0 (and a_2 = 0), with
    negative entries, or with a_1 so small that its powers underflow to 0."""
    N = draw(st.integers(1, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["simplex", "leading zeros", "negative", "tiny leading"]))
    if kind == "simplex" or N == 1:
        return random_simplex_gains(rng, N)
    c = rng.uniform(0.0, 1.0, N) if kind != "negative" else rng.normal(0.0, 1.0, N)
    if kind == "leading zeros":
        c[: draw(st.integers(1, min(2, N - 1)))] = draw(st.sampled_from([0.0, -0.0]))
    if kind == "tiny leading":
        c[0] = 10.0 ** draw(st.integers(-200, -100))
    c[-1] = 0.0
    c[-1] = 1.0 - math.fsum(c)
    return GainVector(c)


class TestClosedFormBuild:
    @settings(max_examples=300, deadline=None)
    @given(a=gain_vectors(), T=st.integers(1, 6),
           mu=st.sampled_from([0.0, -0.0, 1.0]) | st.floats(-1e6, 1e6))
    def test_bytes_equal_the_polynomial_product(self, a, T, mu):
        N = len(a)
        got = char_poly_closed(N, T, a, mu).coeffs
        assert got.tobytes() == char_poly_by_polynomials(N, T, a, mu).coeffs.tobytes()

    def test_a_zero_leading_gain_leaves_positive_zeros(self):
        p = char_poly_closed(3, 3, GainVector([0.0, 0.25, 0.75]), -2.0)
        # q = 0.25 lambda + 0.75 after its zero leading gain, so q^3 stops at lambda^3.
        assert p.degree == 7
        assert p.coeffs[4:7].tolist() == [0.0] * 3
        assert [math.copysign(1.0, c) for c in p.coeffs[4:7]] == [1.0] * 3


class TestFaddeev:
    def test_identity_two_by_two(self):
        p = char_poly_faddeev(np.eye(2))
        assert p.coeffs == pytest.approx([1.0, -2.0, 1.0], abs=0)

    def test_companion_two_by_two(self):
        a1, a2, mu = 0.6, 0.4, -1.7
        p = char_poly_faddeev(np.array([[0.0, 1.0], [a2 * mu, a1 * mu]]))
        assert p.coeffs == pytest.approx([-a2 * mu, -a1 * mu, 1.0], abs=1e-14)

    def test_uniform_negative_one_multipliers(self):
        a = GainVector([1 / 3, 1 / 3, 1 / 3])
        J = build_jacobian(3, 3, a, [-1.0, -1.0, -1.0])
        assert np.max(
            np.abs(char_poly_faddeev(J).coeffs - char_poly_closed(3, 3, a, -1.0).coeffs)
        ) <= 1e-8

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="cap"):
            char_poly_faddeev(np.eye(65))


class TestMorgulBaseline:
    def test_single_period_structure(self):
        K, mu = 0.8, -2.0
        J = morgul_jacobian_product(1, [mu], K)
        assert J.tolist() == [[0.0, 1.0], [-K, mu + K]]
        p = morgul_char_poly(1, [mu], K)
        assert p.coeffs == pytest.approx([K, -(mu + K), 1.0], abs=1e-14)

    def test_k_zero_single_period_is_uncontrolled(self):
        p = morgul_char_poly(1, [-2.0], 0.0)
        assert p.coeffs == pytest.approx([0.0, 2.0, 1.0], abs=0)  # lambda^2 + 2 lambda

    def test_k_zero_period_two_spectrum(self):
        from dfclab.polynomials import poly_roots

        mus = [1.3, -0.7]
        J = morgul_jacobian_product(2, mus, 0.0)
        roots = sorted(poly_roots(char_poly_faddeev(J)), key=abs)
        assert abs(roots[0]) == pytest.approx(0.0, abs=1e-9)
        assert abs(roots[1]) == pytest.approx(0.0, abs=1e-9)
        assert roots[2].real == pytest.approx(1.3 * -0.7, abs=1e-9)

    def test_matches_matrix_oracle_random(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            T = int(rng.integers(1, 4))
            mus = rng.uniform(-3, 3, T)
            K = float(rng.uniform(-2, 2))
            explicit = morgul_char_poly(T, mus, K)
            via_matrix = char_poly_faddeev(morgul_jacobian_product(T, mus, K))
            scale = max(1.0, np.max(np.abs(explicit.coeffs)))
            assert np.max(np.abs(explicit.coeffs - via_matrix.coeffs)) <= 1e-10 * scale


class TestRotationInvariance:
    def test_char_poly_invariant_under_cyclic_rotation(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            N = int(rng.integers(2, 5))
            a = random_simplex_gains(rng, N)
            mus = rng.uniform(-3, 3, 3)
            ref = char_poly_faddeev(jacobian_via_chain(N, 3, a, mus))
            for shift in (1, 2):
                rot = char_poly_faddeev(
                    jacobian_via_chain(N, 3, a, np.roll(mus, shift))
                )
                scale = max(1.0, np.max(np.abs(ref.coeffs)))
                assert np.max(np.abs(rot.coeffs - ref.coeffs)) <= 1e-8 * scale


class TestNonFiniteMu:
    @pytest.mark.parametrize("mu", [math.inf, -math.inf, math.nan])
    def test_char_poly_closed_names_mu(self, mu):
        with pytest.raises(ValueError, match=f"^mu must be finite, got {mu!r}"):
            char_poly_closed(2, 2, GainVector([0.5, 0.5]), mu)
