"""Spectra of the controlled system: Jacobians and characteristic polynomials.

The delayed feedback control with gains a_1..a_N (sum 1) applied to a T-cycle
of f turns the dynamics into a single-step map G on R^M, M = (N-1)T + 1,
whose T-fold composition has the cycle as a fixed point. This module builds:

* the single-step Jacobian of G at a cycle point (``step_jacobian``),
* the full Jacobian of the T-fold composition, both as an ordered chain-rule
  product (``jacobian_via_chain``, the definitional ground truth) and from
  the explicit per-entry formula (``build_jacobian``),
* the closed-form characteristic polynomial
  p(lambda) = lambda^M - mu * q(lambda)^T,  q(lambda) = a_1 lambda^(N-1) + ... + a_N,
  where mu is the product of the cycle multipliers (``char_poly_closed``),
* characteristic polynomials of arbitrary matrices by the Faddeev-LeVerrier
  trace recursion (``char_poly_faddeev``), used as the independent oracle,
* the classic single-gain baseline control u(k) = K(x(k) - x(k-T)) with its
  explicit coefficients (``morgul_char_poly``) and chain-rule Jacobian
  product (``morgul_jacobian_product``).

Matrices are plain float64 numpy arrays. All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polynomials import Polynomial, trimmed

__all__ = [
    "GainVector",
    "GAIN_SUM_TOL",
    "step_jacobian",
    "jacobian_via_chain",
    "build_jacobian",
    "char_poly_closed",
    "check_dims",
    "char_poly_faddeev",
    "morgul_jacobian_product",
    "morgul_char_poly",
]

GAIN_SUM_TOL = 1e-12
FADDEEV_DIM_CAP = 64


@dataclass(frozen=True)
class GainVector:
    """Control gains a_1..a_N with sum(a_j) = 1, enforced at construction.

    ``coeffs[0]`` is a_1 (the weight on the most recent output value).
    """

    coeffs: tuple[float, ...]

    def __init__(self, coeffs):
        vals = tuple(float(c) for c in coeffs)
        if len(vals) < 1:
            raise ValueError("gain vector needs N >= 1 entries")
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"gains must be finite (got {vals!r})")
        total = sum(vals)
        if abs(total - 1.0) > GAIN_SUM_TOL:
            raise ValueError(f"gains must sum to 1 (got {total!r})")
        object.__setattr__(self, "coeffs", vals)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def q_polynomial(self) -> Polynomial:
        """q(lambda) = a_1 lambda^(N-1) + ... + a_N in ascending storage."""
        return Polynomial(list(reversed(self.coeffs)))


def check_dims(N: int, T: int, a: GainVector, n_mult: int | None = None) -> int:
    """M = (N-1)T + 1, the dimension of the controlled system, after checking
    that N and T are positive, that a has N gains and, when n_mult is given,
    that there are T multipliers; ValueError otherwise."""
    if N < 1 or T < 1:
        raise ValueError("N and T must be positive integers")
    if len(a) != N:
        raise ValueError(f"gain vector has {len(a)} entries, expected N={N}")
    if n_mult is not None and n_mult != T:
        raise ValueError(f"need {T} multipliers, got {n_mult}")
    return (N - 1) * T + 1


def step_jacobian(N: int, T: int, a: GainVector, mu_at_step: float) -> np.ndarray:
    """Jacobian of the single-step map G at a cycle point with f' = mu_at_step.

    Shift structure: entry (i, i+1) = 1 for i < M; the last row carries
    a_k * mu at column M - (k-1)T for k = 1..N, zeros elsewhere.
    """
    M = check_dims(N, T, a)
    S = np.zeros((M, M))
    for i in range(M - 1):
        S[i, i + 1] = 1.0
    for k in range(1, N + 1):
        col = M - (k - 1) * T  # 1-indexed
        S[M - 1, col - 1] += a.coeffs[k - 1] * mu_at_step
    return S


def jacobian_via_chain(N: int, T: int, a: GainVector, multipliers) -> np.ndarray:
    """Chain-rule Jacobian of the T-fold composition along the orbit.

    Ordered product step(mu_T) @ ... @ step(mu_1): the earliest step is
    applied first. This is the definitional ground truth that
    ``build_jacobian`` must reproduce.
    """
    mus = [float(m) for m in multipliers]
    M = check_dims(N, T, a, len(mus))
    J = np.eye(M)
    for mu in mus:
        J = step_jacobian(N, T, a, mu) @ J
    return J


def build_jacobian(N: int, T: int, a: GainVector, multipliers) -> np.ndarray:
    """Jacobian of the T-fold composition from the explicit per-entry formula.

    Entry (i, j), 1-indexed, with M = (N-1)T + 1 and s in {1..T} the residue
    of j mod T (s = T when j = 0 mod T):

    * 1 when j = i + T,
    * a_{N - floor((j-1)/T)} * a_1^(i - (N-2)T - (s+1)) * prod_{k=s}^{i-(N-2)T-1} mu_k
      when i >= (N-2)T + 2 and (j-1) mod T <= i - ((N-2)T + 2),
    * 0 otherwise.

    Matches ``jacobian_via_chain`` elementwise.
    """
    mus = [float(m) for m in multipliers]
    M = check_dims(N, T, a, len(mus))
    J = np.zeros((M, M))
    base = (N - 2) * T
    av = a.coeffs
    for i in range(1, M + 1):
        j_shift = i + T
        if j_shift <= M:
            J[i - 1, j_shift - 1] = 1.0
        if i < base + 2:
            continue
        for j in range(1, M + 1):
            rem = (j - 1) % T
            if rem > i - (base + 2):
                continue
            s = rem + 1
            gain_idx = N - (j - 1) // T  # 1-indexed into a
            exponent = i - base - (s + 1)
            prod_mu = 1.0
            for k in range(s, i - base):  # k = s .. i-(N-2)T-1
                prod_mu *= mus[k - 1]
            J[i - 1, j - 1] = av[gain_idx - 1] * av[0] ** exponent * prod_mu
    return J


def char_poly_closed(N: int, T: int, a: GainVector, mu: float) -> Polynomial:
    """Closed-form characteristic polynomial of the controlled system.

    p(lambda) = lambda^((N-1)T+1) - mu * q(lambda)^T with q the gain
    polynomial; q^T is computed by repeated ``np.convolve`` of coefficient
    arrays, each cut after its last nonzero entry (``trimmed``) as a
    ``Polynomial`` would be, so p's coefficients are those of
    ``a.q_polynomial() ** T`` bit for bit: a zero of either sign in q^T
    gives +0.0 in p. Depends on the multipliers only through their product
    mu, which must be finite.
    """
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu!r}: p would have non-finite coefficients")
    M = check_dims(N, T, a)
    q = trimmed(np.array(a.coeffs[::-1]))
    q_pow = q
    for _ in range(T - 1):
        q_pow = trimmed(np.convolve(q_pow, q))
    coeffs = np.zeros(M + 1)
    coeffs[M] = 1.0
    coeffs[: q_pow.size] -= mu * q_pow
    return Polynomial(coeffs)


def char_poly_faddeev(matrix: np.ndarray) -> Polynomial:
    """Characteristic polynomial det(lambda I - M) by Faddeev-LeVerrier.

    Monic, ascending storage. The trace recursion produces coefficients
    directly (no eigenvalue ordering ambiguity), which makes it the natural
    oracle against the closed form. Dimension capped at 64.
    """
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    n = A.shape[0]
    if n > FADDEEV_DIM_CAP:
        raise ValueError(f"dimension {n} exceeds cap {FADDEEV_DIM_CAP}")
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    Mk = np.zeros_like(A)
    eye = np.eye(n)
    for k in range(1, n + 1):
        Mk = A @ Mk + coeffs[n - k + 1] * eye
        coeffs[n - k] = -np.trace(A @ Mk) / k
    return Polynomial(coeffs)


# ---------------------------------------------------------------------------
# Classic single-gain baseline: u(k) = K (x(k) - x(k-T))
# ---------------------------------------------------------------------------


def _morgul_multipliers(T: int, multipliers) -> list[float]:
    mus = [float(m) for m in multipliers]
    if T < 1:
        raise ValueError("T must be a positive integer")
    if len(mus) != T:
        raise ValueError(f"need {T} multipliers, got {len(mus)}")
    return mus


def _morgul_step(T: int, mu: float, K: float) -> np.ndarray:
    S = np.zeros((T + 1, T + 1))
    for i in range(T):
        S[i, i + 1] = 1.0
    S[T, 0] = -K
    S[T, T] = mu + K
    return S


def morgul_jacobian_product(T: int, multipliers, K: float) -> np.ndarray:
    """Chain-rule Jacobian of the single-gain scheme along the orbit.

    Product of T single-step (T+1)x(T+1) Jacobians (shift rows; last row
    has -K at column 1 and mu_j + K at column T+1), earliest step first.
    """
    mus = _morgul_multipliers(T, multipliers)
    J = np.eye(T + 1)
    for mu in mus:
        J = _morgul_step(T, mu, K) @ J
    return J


def morgul_char_poly(T: int, multipliers, K: float) -> Polynomial:
    """Explicit characteristic polynomial of the single-gain scheme.

    lambda^(T+1) + c_T lambda^T + ... + c_0 with
    c_{T-l} = -(-1)^l K^l e_{T-l}(mu_1 + K, ..., mu_T + K), where e_k is the
    elementary symmetric polynomial; in particular c_0 = -(-1)^T K^T and
    c_T = -prod_i (mu_i + K). Equals the characteristic polynomial of
    ``morgul_jacobian_product``.
    """
    mus = _morgul_multipliers(T, multipliers)
    shifted = [m + K for m in mus]
    # elem[k] = e_k(shifted), from prod_i (x + v_i)
    elem = np.array([1.0])
    for v in shifted:
        elem = np.convolve(elem, np.array([1.0, v]))
    coeffs = np.zeros(T + 2)
    coeffs[T + 1] = 1.0
    for j in range(T + 1):
        ell = T - j
        coeffs[j] = -((-1.0) ** ell) * K**ell * elem[j]
    return Polynomial(coeffs)
