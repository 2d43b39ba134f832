"""Real-coefficient polynomials: arithmetic, root finding, resultants.

Coefficients are stored in ascending degree order (``coeffs[k]`` multiplies
``lambda**k``). Roots are the eigenvalues of the companion matrix, built as
``numpy.roots`` builds it and solved for a whole stack of rows of one degree
in one eigenvalue call, with a residual check; repeated roots are detected
by comparing the distances between roots with their Newton inclusion radii.
"""

from __future__ import annotations

import warnings

import numpy as np

__all__ = [
    "Polynomial",
    "horner",
    "poly_roots",
    "poly_roots_stack",
    "STACK_BYTES",
    "sylvester_matrix",
    "resultant",
    "has_repeated_roots",
]

# Companion matrices of one stacked eigenvalue call take at most this many
# bytes; a longer stack is solved in chunks of this size.
STACK_BYTES = 1 << 24


def horner(coeffs: np.ndarray, x):
    """Value at x of the polynomial with ascending ``coeffs``, by Horner's rule.

    x may be a real or complex scalar or array; a scalar gives a scalar.
    Axes of ``coeffs`` after the first broadcast against x: ``coeffs`` of
    shape (deg + 1, k) holds k polynomials, one per column of x.
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


def poly_roots(p: Polynomial) -> np.ndarray:
    """All complex roots of p with multiplicity, as companion-matrix eigenvalues.

    ``poly_roots_stack`` on the stack of one row ``p.coeffs``.
    """
    if p.degree < 1:
        raise ValueError("root finding requires degree >= 1")
    return _checked_roots(p.coeffs[None, :])[0]


def poly_roots_stack(rows) -> np.ndarray:
    """Roots of every ascending coefficient row of a 2-D stack, one row of roots each.

    The rows share one degree: every leading coefficient (last column) is
    nonzero. Each row's roots are the eigenvalues of its companion matrix,
    built as ``numpy.roots`` builds it (A[0, :] = -p[1:] / p[0] over the
    descending coefficients, ones on the subdiagonal), so they equal
    ``numpy.roots`` bit for bit and in its order; companion eigenvalues are
    backward stable (Edelman & Murakami, Math. Comp. 64, 1995). As in
    ``numpy.roots``, a row whose k lowest coefficients are exactly zero gets k
    exact zero roots, last, and a companion matrix of size degree - k.
    Companion matrices of one size go to ``np.linalg.eigvals`` as one stack,
    cut into chunks of at most ``STACK_BYTES``. A root whose residual exceeds
    1e-10 * sum|c_k| * max(1, |z|)^deg, in any row, raises one RuntimeWarning.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] < 2:
        raise ValueError("root finding requires a 2-D stack of rows of degree >= 1")
    if np.any(rows[:, -1] == 0.0):
        raise ValueError("every row needs a nonzero leading coefficient")
    return _checked_roots(rows)


def _checked_roots(rows: np.ndarray) -> np.ndarray:
    """Companion-matrix roots of a stack of rows, with the residual check."""
    n_rows, deg = rows.shape[0], rows.shape[1] - 1
    roots = np.zeros((n_rows, deg), dtype=complex)
    low_zeros = np.argmax(rows != 0.0, axis=1)  # leading coefficients are nonzero
    for k in set(low_zeros.tolist()):
        n = deg - k  # companion size
        if n == 0:  # c * lambda^deg: every root is 0
            continue
        sel = np.flatnonzero(low_zeros == k)
        per_chunk = max(1, STACK_BYTES // (8 * n * n))
        for start in range(0, sel.size, per_chunk):
            r = sel[start : start + per_chunk]
            desc = rows[r, k:][:, ::-1]
            A = np.zeros((r.size, n, n))
            A[:, 0, :] = -desc[:, 1:] / desc[:, :1]
            A.reshape(r.size, n * n)[:, n :: n + 1] = 1.0  # the subdiagonal
            w = np.linalg.eigvals(A)
            if w.dtype == complex:  # numpy.roots gives a real array for a row of real roots
                real = (w.imag == 0.0).all(axis=1)
                w[real] = w[real].real
            roots[r, :n] = w
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is no verdict
        z = roots.T  # one column per row, so each coefficient broadcasts along it
        resid = np.abs(horner(rows.T, z))
        bound = 1e-10 * np.abs(rows).sum(axis=1) * np.maximum(1.0, np.abs(z)) ** deg
    if (resid > bound).any():
        warnings.warn(
            "polynomial roots miss the residual bound", RuntimeWarning, stacklevel=3
        )
    return roots


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
    """True iff two roots of p cannot be told apart at coefficient precision tol.

    Each root z from poly_roots gets the radius
    deg(p) * (|p(z)| + tol * sum_k |c_k| |z|^k) / |p'(z)|: Newton's
    inclusion disc, which holds a root of p, widened so it also holds a root
    of every polynomial whose coefficients differ from p's by a relative tol
    (to first order). Pairwise disjoint discs hold one root each, so p has
    deg(p) distinct roots; two discs that meet report a repeated root. The
    test is invariant under rescaling p and never overflows at large degree
    while the roots stay within |z|^deg < 1e308.
    """
    if p.degree < 2:
        return False
    z = poly_roots(p)
    with np.errstate(all="ignore"):  # p'(z) = 0 gives an infinite radius
        slack = np.abs(p(z)) + tol * horner(np.abs(p.coeffs), np.abs(z))
        radius = p.degree * slack / np.abs(p.derivative()(z))
    apart = np.abs(z[:, None] - z[None, :]) > radius[:, None] + radius[None, :]
    np.fill_diagonal(apart, True)
    return not bool(apart.all())
