"""Real-coefficient polynomials: arithmetic, root finding, resultants.

Coefficients are stored in ascending degree order (``coeffs[k]`` multiplies
``lambda**k``). Roots are computed by Aberth-Ehrlich simultaneous iteration
with a companion-matrix fallback; repeated roots are detected through the
resultant of p and p'.
"""

from __future__ import annotations

import warnings

import numpy as np

__all__ = [
    "Polynomial",
    "horner",
    "poly_roots",
    "sylvester_matrix",
    "resultant",
    "has_repeated_roots",
]


def horner(coeffs: np.ndarray, x):
    """Value at x of the polynomial with ascending ``coeffs``, by Horner's rule.

    x may be a real or complex scalar or array; a scalar gives a scalar.
    """
    acc = np.zeros_like(np.asarray(x), dtype=np.result_type(x, coeffs))
    for c in coeffs[::-1]:
        acc = acc * x + c
    return acc if acc.shape else acc[()]


class Polynomial:
    """Polynomial with real coefficients in ascending degree order."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=float))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must be a non-empty 1-D sequence")
        # Trim exact trailing zeros so the leading coefficient is nonzero
        # (identically-zero polynomial keeps one entry).
        last = arr.size - 1
        while last > 0 and arr[last] == 0.0:
            last -= 1
        arr = arr[: last + 1].copy()
        arr.flags.writeable = False
        self._coeffs = arr

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    @property
    def degree(self) -> int:
        return self._coeffs.size - 1

    @property
    def is_zero(self) -> bool:
        return self._coeffs.size == 1 and self._coeffs[0] == 0.0

    @classmethod
    def from_roots(cls, roots) -> "Polynomial":
        """Monic polynomial with the given (real or complex) roots.

        Complex roots must come in conjugate pairs for the coefficients to be
        real; tiny imaginary residue is discarded.
        """
        coeffs = np.array([1.0 + 0.0j])
        for r in roots:
            coeffs = np.convolve(coeffs, np.array([-r, 1.0]))
        return cls(coeffs.real)

    def __call__(self, x):
        """Evaluate by Horner's rule; accepts real or complex scalars/arrays."""
        return horner(self._coeffs, x)

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial([0.0])
        k = np.arange(1, self._coeffs.size)
        return Polynomial(self._coeffs[1:] * k)

    def monic(self) -> "Polynomial":
        lead = self._coeffs[-1]
        if lead == 0.0:
            raise ValueError("cannot normalize the zero polynomial")
        return Polynomial(self._coeffs / lead)

    def __add__(self, other):
        other = self._coerce(other)
        n = max(self._coeffs.size, other._coeffs.size)
        a = np.zeros(n)
        a[: self._coeffs.size] = self._coeffs
        a[: other._coeffs.size] += other._coeffs
        return Polynomial(a)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return Polynomial(-self._coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Polynomial(self._coeffs * float(other))
        other = self._coerce(other)
        return Polynomial(np.convolve(self._coeffs, other._coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial power requires a non-negative integer")
        out = Polynomial([1.0])
        for _ in range(n):
            out = out * self
        return out

    @staticmethod
    def _coerce(other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, float)):
            return Polynomial([float(other)])
        raise TypeError(f"cannot combine Polynomial with {type(other).__name__}")

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return np.array_equal(self._coeffs, other._coeffs)

    def __repr__(self):
        return f"Polynomial({self._coeffs.tolist()})"


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------


def _aberth(coeffs: np.ndarray, tol: float, max_sweeps: int):
    """Aberth-Ehrlich simultaneous iteration on a monic ascending polynomial.

    Returns (roots, converged). Initial guesses sit on a slightly perturbed
    circle whose radius comes from the Cauchy bound.
    """
    n = coeffs.size - 1
    deriv = coeffs[1:] * np.arange(1, coeffs.size)

    radius = 1.0 + np.max(np.abs(coeffs[:-1]))  # Cauchy bound, coeffs monic
    k = np.arange(n)
    # Deterministic perturbation breaks symmetry traps (e.g. real-only polys).
    angles = 2.0 * np.pi * k / n + 0.7 + 0.12 * np.sin(3.0 * k + 1.0)
    z = radius * 0.5 * np.exp(1j * angles) * (1.0 + 0.05 * np.cos(5.0 * k))

    scale = np.sum(np.abs(coeffs))
    p = horner(coeffs, z)
    for _ in range(max_sweeps):
        dp = horner(deriv, z)
        w = np.where(dp != 0, p / np.where(dp != 0, dp, 1.0), 0.1 + 0.1j)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        s = np.sum(1.0 / diff, axis=1) - 1.0  # remove diagonal contribution
        denom = 1.0 - w * s
        denom = np.where(denom == 0, 1e-30, denom)
        step = w / denom
        z = z - step
        # A root counts as converged when its update is tiny or its residual
        # reaches the noise floor; the latter matters for multiple roots,
        # where Aberth steps stall at the cluster radius.
        small_step = np.abs(step) <= tol * (1.0 + np.abs(z))
        floor = 1e-13 * scale * np.maximum(1.0, np.abs(z)) ** n
        p = horner(coeffs, z)  # also the next sweep's residual
        at_floor = np.abs(p) <= floor
        if np.all(small_step | at_floor):
            return z, True
    return z, False


def poly_roots(
    p: Polynomial, tol: float = 1e-12, max_sweeps: int = 500
) -> np.ndarray:
    """All complex roots of p with multiplicity.

    Primary path: Aberth-Ehrlich iteration. If the iteration fails to
    converge or the residual check fails, falls back to companion-matrix
    eigenvalues and warns about reduced precision.
    """
    if p.degree < 1:
        raise ValueError("root finding requires degree >= 1")
    coeffs = p.coeffs.astype(complex)

    # Deflate exact roots at the origin.
    n_zero = 0
    while coeffs[n_zero] == 0.0 and n_zero < coeffs.size - 1:
        n_zero += 1
    coeffs = coeffs[n_zero:]
    zero_roots = np.zeros(n_zero, dtype=complex)
    if coeffs.size == 1:
        return zero_roots

    coeffs = coeffs / coeffs[-1]
    if coeffs.size == 2:  # linear
        return np.concatenate([zero_roots, [-coeffs[0]]])

    roots, converged = _aberth(coeffs, tol, max_sweeps)

    scale = np.sum(np.abs(coeffs))
    deg = coeffs.size - 1
    resid = np.abs(horner(coeffs, roots))
    bound = 1e-10 * scale * np.maximum(1.0, np.abs(roots)) ** deg
    if not converged or np.any(resid > bound):
        warnings.warn(
            "Aberth iteration did not meet the residual target; "
            "falling back to companion-matrix eigenvalues (reduced precision)",
            RuntimeWarning,
            stacklevel=2,
        )
        roots = np.roots(coeffs[::-1])

    return np.concatenate([zero_roots, roots])


# ---------------------------------------------------------------------------
# Sylvester matrix / resultant
# ---------------------------------------------------------------------------


def sylvester_matrix(f: Polynomial, g: Polynomial) -> np.ndarray:
    """(n+m) x (n+m) Sylvester matrix of f (degree n) and g (degree m).

    Rows hold the descending coefficients of f (m rows, shifting right one
    column per row) followed by those of g (n rows).
    """
    n, m = f.degree, g.degree
    if n < 1 or m < 1:
        raise ValueError("sylvester_matrix requires both degrees >= 1")
    if f.is_zero or g.is_zero:
        raise ValueError("zero polynomial has no Sylvester matrix")
    size = n + m
    S = np.zeros((size, size))
    fd = f.coeffs[::-1]  # descending
    gd = g.coeffs[::-1]
    for i in range(m):
        S[i, i : i + n + 1] = fd
    for i in range(n):
        S[m + i, i : i + m + 1] = gd
    return S


def resultant(f: Polynomial, g: Polynomial) -> float:
    """Resultant of f and g: determinant of the Sylvester matrix (LU based)."""
    return float(np.linalg.det(sylvester_matrix(f, g)))


def has_repeated_roots(p: Polynomial, tol: float = 1e-9) -> bool:
    """True iff p has a repeated root, via |R(p, p')| against a scale factor.

    The scale is the Hadamard-style product of coefficient norms,
    ||p||^deg(p') * ||p'||^deg(p), making the test invariant under rescaling
    of p. Cross-checkable against root clustering from poly_roots.
    """
    if p.degree < 2:
        return False
    dp = p.derivative()
    scale = np.linalg.norm(p.coeffs) ** dp.degree * np.linalg.norm(dp.coeffs) ** p.degree
    if scale == 0.0:
        return True
    return bool(abs(resultant(p, dp)) <= tol * scale)
