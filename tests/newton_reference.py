"""The bracketed Newton refinement of sign-change brackets as it ran before
its per-pass bookkeeping was cut: the oracle of the probe-identity tests of
``dfclab.cycles.newton_brackets``, which must probe the same points on every
pass and return the same roots, bit for bit."""

import math

import numpy as np


@np.errstate(all="ignore")  # an error's values are unspecified
def newton_brackets(g, a, b, ga, gb, width: float) -> np.ndarray:
    """``dfclab.cycles.newton_brackets`` as its docstring describes it, with
    the per-pass bookkeeping it had before: four np.where updates of the
    ends, an int count of the passes without progress, np.divide with
    where= and out= for the Newton step, and a boolean mask per array at a
    drop."""
    a, b, ga, gb = (np.array(v, dtype=float) for v in (a, b, ga, gb))
    roots = np.full(a.size, np.nan)  # per bracket: where it ended, NaN if dropped
    rows = np.arange(a.size)
    start = np.maximum(np.abs(ga), np.abs(gb))
    w = b - a
    x = 0.5 * (a + b)
    moved = 0.5 * w  # the move from the last probe to x
    slow = np.zeros(a.size, dtype=int)  # passes in a row without progress
    budget = 2 * math.ceil(math.log2(max(np.max(w, initial=0.0), width) / width))
    while rows.size:
        gx, slope, err = g(x)
        left = (ga < 0.0) != (gx < 0.0)  # the sign change lies in [a, x]
        a, ga = np.where(left, a, x), np.where(left, ga, gx)
        b, gb = np.where(left, x, b), np.where(left, gx, gb)
        w, wide = b - a, w
        halved = w <= 0.5 * wide
        end = err | (gx == 0.0) | (w <= width)
        if np.count_nonzero(end):  # settle the brackets that end here, then drop them
            zero = (gx == 0.0) & ~err
            roots[rows[zero]] = x[zero]
            done = ~(err | zero) & (w <= width)
            pole = done & (np.minimum(np.abs(ga), np.abs(gb)) > start)
            done &= ~pole
            roots[rows[done]] = np.where(np.abs(ga) <= np.abs(gb), a, b)[done]
            live = ~end
            rows, a, b, ga, gb, w, x, gx, slope, moved, halved, slow, start = (
                v[live] for v in (rows, a, b, ga, gb, w, x, gx, slope, moved, halved, slow, start))
            if not rows.size:
                break
        step = np.divide(-gx, slope, out=np.full(x.size, np.nan),
                         where=np.isfinite(slope) & (slope != 0.0))
        slow = np.where(halved | (np.abs(step) <= 0.5 * moved), 0, slow + 1)
        step += np.where(np.abs(step) < 0.5 * width, np.copysign(0.5 * width, step), 0.0)
        # A target a hair past an end puts the root at that end: probe just inside.
        nxt, hair = x + step, 0.01 * w
        budget -= 1
        newton = (a - hair < nxt) & (nxt < b + hair) & (slow < 2) & (budget > 0)
        nxt = np.minimum(np.maximum(nxt, a + 0.5 * width), b - 0.5 * width)
        moved = np.where(newton, np.abs(nxt - x), 0.5 * w)
        x = np.where(newton, nxt, 0.5 * (a + b))
        slow[~newton] = 0
    return roots[~np.isnan(roots)]
