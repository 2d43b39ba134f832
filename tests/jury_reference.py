"""The Jury table as it ran before its short rows moved to Python floats and
its first row was scaled by a power of two: the oracle of the verdict tests
of ``dfclab.stability.jury_stable``, which must give the same verdict on
every input on which this table neither overflows nor underflows."""

import numpy as np

from dfclab.polynomials import Polynomial, horner
from dfclab.stability import spectral_radius


def jury_stable(p: Polynomial, margin: float = 0.0) -> bool:
    """``dfclab.stability.jury_stable`` with every row a numpy array, p(1)
    and p(-1) by two ``horner`` calls, and the coefficients of p(r z) as
    they are: a table whose products overflow gives NaN rows, which pass
    every check."""
    if p.degree < 1:
        raise ValueError("Jury test requires degree >= 1")
    if not np.isfinite(p.coeffs).all():
        raise ValueError(f"Jury test requires finite coefficients, got {p.coeffs.tolist()}")
    r = 1.0 - margin
    a = p.coeffs * r ** np.arange(p.degree + 1)
    if a[-1] < 0:
        a = -a
    n = p.degree

    if horner(a, 1.0) <= 0.0:
        return False
    if ((-1.0) ** n) * horner(a, -1.0) <= 0.0:
        return False
    if abs(a[0]) >= a[-1]:
        return False

    row = a
    while row.size > 3:
        m = row.size - 1
        nxt = row[0] * row[:m] - row[m] * row[m:0:-1]
        row_scale = np.max(np.abs(nxt))
        if row_scale == 0.0 or abs(nxt[0]) <= 1e-14 * row_scale:
            return spectral_radius(p) < r
        if abs(nxt[0]) <= abs(nxt[-1]):
            return False
        row = nxt / row_scale
    return True
