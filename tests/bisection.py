"""Plain lockstep bisection of sign-change brackets: the oracle of the tests
of the bracketed Newton refinement (``dfclab.cycles.newton_brackets``),
which it was the library's refinement before."""

import numpy as np


def bisect_brackets(g, a, b, ga, width: float) -> np.ndarray:
    """Bisect every bracket [a[i], b[i]] of a sign change of g in lockstep.

    g maps an array of points to their values, NaN where g is undefined;
    ga[i] = g(a[i]) is nonzero and g(b[i]) has the other sign. Each halving
    is one call of g on the midpoints of the brackets still wider than
    width. A bracket stops at a midpoint where g is exactly 0.0, is dropped
    at a midpoint where g is NaN, and otherwise ends at the midpoint of its
    last bracket, within width / 2 of a sign change. The points come back
    in bracket order.
    """
    a, b, ga = (np.asarray(v, dtype=float) for v in (a, b, ga))
    ends = np.empty(a.size)  # per bracket: where it stopped, NaN if dropped
    rows = np.arange(a.size)
    while True:
        wide = b - a > width
        if not wide.all():
            ends[rows[~wide]] = 0.5 * (a[~wide] + b[~wide])
            rows, a, b, ga = rows[wide], a[wide], b[wide], ga[wide]
        if not rows.size:
            return ends[~np.isnan(ends)]
        mid = 0.5 * (a + b)
        gm = g(mid)
        live = np.abs(gm) > 0.0  # False on g(mid) == 0.0 and on NaN
        if not live.all():
            ends[rows[~live]] = np.where(gm[~live] == 0.0, mid[~live], np.nan)
            rows, a, b, ga, mid, gm = (v[live] for v in (rows, a, b, ga, mid, gm))
        left = (ga < 0.0) != (gm < 0.0)
        a, b, ga = np.where(left, a, mid), np.where(left, mid, b), np.where(left, ga, gm)


def bisection_engine(width: float):
    """A stand-in for ``newton_brackets`` that bisects every bracket to width
    on the values of g alone, NaN where g errs."""

    def engine(g, a, b, ga, gb, _width):
        def values(x):
            gx, _, err = g(x)
            return np.where(err, np.nan, gx)

        return bisect_brackets(values, a, b, ga, width)

    return engine
