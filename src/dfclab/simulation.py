"""Simulation of the delayed feedback controlled dynamics.

The controlled update is x(k+1) = sum_j a_j f(x(k - (j-1)T)); the control
magnitude u(k) = x(k+1) - f(x(k)) is recorded per step. By construction the
control vanishes identically when the trajectory sits on the target orbit.
``simulate_nearest`` iterates once and picks, among candidate cycles, the
one the run approaches; ``simulate`` is the same with one given cycle.

The recursion evaluates f once per state: f(x(i)) is stored when a step
first needs it and reused by the N - 1 later steps that read x(i) again.
The sum over j runs left to right in both recursions below, so a run's
states do not depend on which one computed them.

``simulate`` iterates one trajectory in scalar Python: for a single run an
array's per-step overhead dominates. On logistic:r=3.9 with N = 2 and 3,000
steps, ``basin_fraction`` with one sample took 13.1-14.0 ms, about 4.5 us a
step, and ``simulate`` from x = 0.25 took 1.56-1.59 ms for the 2,051 steps
it computes before the recurrence exit below, about 0.8 us a step (best of 7
in one process, seven processes, 2-core x86_64, numpy 2.4; two processes
read 2.7 ms in the host's slow state). On cubic:b=2.8 with N = 3 the
one-sample run took 15.7-16.5 ms, and 64 samples over 500 steps 3.1-3.3 ms,
about 6.3 us a step (one process read 28.8 and 5.8 ms). The loop stops once
the window of the last M = (N-1)T + 1 states recurs bit for bit. x(k+1)
reads only that window, through the same float operations every time, so
from there on the run repeats with the period between the two windows, and
its remaining states and controls are copied. A Brent checkpoint (Brent,
BIT 20, 1980) finds the recurrence whatever its period, within about three
times the steps the run takes to recur; the windows are compared as lists,
and as bytes, in which -0.0 and 0.0 differ, only when the lists are equal.
The 11 runs of a benchmark ``pipeline`` round (seed 7) settle on
floating-point orbits of periods 1 to 7 and stop after 130-1,027 steps,
computing 4,506 of the 47,000 steps asked for. The run is returned as
float64 arrays: the computed states are converted once and the copied tail
is one ``np.tile`` of the period, so no later stage does Python work per
step asked for (``cli`` formats such an array once per distinct value). On
logistic:r=3.9 with N = 2 from x = 0.3 (period 3 from state 260),
``simulate`` took 0.39-0.45 / 2.7-4.0 ms at 3,000 / 30,000 steps with the
run as lists, and takes 0.24-0.38 / 0.53-0.94 ms with it as arrays (best
of 7 x 20 calls, three alternating pairs of processes, same host as above).

``basin_fraction`` runs all its samples as one array, one call of the
map's compiled one-step array form per step, inside one ``np.errstate``:
it calls ``m._fa(x, 1)`` directly rather than through
``maps.compose_map_array``, whose own ``np.errstate`` (2 us per enter
and exit, ``timeit``) would add about 1 ms to each 500-step basin job.
f of the last M states is a Python list of M rows, each the array an
f call returned, and the sum takes its N terms left to right from the
precomputed pairs (a_j, (j-1)T), with no numpy indexing per term. The
gains a_j and the sum's start, 0.0, are 0-d float64 arrays, for the
reason ``maps`` gives for its constants. A
sample leaves the array at the step where that call's mask flags it
(one ``np.count_nonzero`` of the mask per step, about a third of the
cost of ``.any()`` on 64 samples, ``timeit``): where f errs, and where the state is not
finite, since the mask covers the input. So a sum that is not finite
drops its sample one step later,
and one the last step leaves in the final window fails the tol test
there, as a diverged run is not converged in ``simulate``. It does not
stop early: in each benchmark basin job (seed 7) 11-28 of the 64 samples
do not recur within the 500 steps, so the array runs to the end, and at
64 columns its per-step cost is fixed overhead that dropping the
recurred columns would not cut. Only the recursion of ``simulate`` is
scalar: the convergence test is one array pass, every state's distance
to the orbit as min |x - p| over the orbit's points (the IEEE
subtraction and abs of ``Cycle.distance_to``, so the distances are the
same). ``simulate_nearest`` ranks its candidates from those same
distances: for each it takes their mean over the final 10*T states and the
settle step, and it builds the ``Trajectory`` of the chosen one only.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .cycles import Cycle
from .maps import MapEvalError, MapSpec, eval_map, eval_map_array
from .spectrum import GainVector

__all__ = ["Trajectory", "simulate", "simulate_nearest", "basin_fraction", "DEFAULT_SIM_TOL"]

DEFAULT_SIM_TOL = 1e-6


@dataclass(frozen=True)
class Trajectory:
    """Controlled time series with per-step control magnitudes.

    ``states`` holds x(0..K) including the initial history of length
    (N-1)T + 1; ``controls`` holds one u(k) per update step, so
    len(controls) = len(states) - history length. ``settle_step`` is the
    first index after which every state stays within tol of the target
    orbit set (None when the run did not converge).
    """

    states: np.ndarray
    controls: np.ndarray
    converged: bool
    settle_step: int | None
    target: Cycle
    diverged: bool = False


def simulate(
    m: MapSpec,
    a: GainVector,
    T: int,
    init_history,
    steps: int,
    target: Cycle,
    tol: float = DEFAULT_SIM_TOL,
) -> Trajectory:
    """Iterate the controlled system and test convergence to the target orbit.

    ``simulate_nearest`` with ``target`` as the one candidate.
    """
    return simulate_nearest(m, a, T, init_history, steps, [target], tol)


def simulate_nearest(
    m: MapSpec,
    a: GainVector,
    T: int,
    init_history,
    steps: int,
    candidates: Sequence[Cycle],
    tol: float = DEFAULT_SIM_TOL,
) -> Trajectory:
    """Iterate the controlled system; test convergence to the candidate it approaches.

    ``init_history`` must supply exactly (N-1)T + 1 states. Convergence means
    every state in the final window of length 10*T lies within tol of the
    orbit set (distance as a set; phase alignment is not required). A
    non-finite state truncates the run and flags divergence. A run that
    settles on a floating-point orbit costs about its time to recur, not
    ``steps``: the rest of it is copied as one tile of its period, and the
    ranking below is a few array passes over the states (see the module
    docstring).

    The recursion runs once. Candidates are ranked by (not converged, mean
    distance over the final 10*T states), so a candidate the run converges
    to comes first; the result is the Trajectory of the first in rank, the
    earliest in the given order on ties. Its ``target`` is the chosen cycle.
    """
    if not candidates:
        raise ValueError("simulate_nearest requires at least one candidate cycle")
    states, controls, diverged = _iterate(m, a, T, init_history, steps)
    ranked = []
    for cyc in candidates:
        # Distances and their mean among states near 1e308 may overflow: inf ranks last.
        with np.errstate(over="ignore"):
            dist = _distances(states, cyc)
            # states always holds the history, so the window is never empty.
            mean = float(np.mean(dist[-10 * T :]))
        settle = None if diverged else _settle_step(dist, T, tol)
        ranked.append((settle is None, mean, settle, cyc))
    _, _, settle, target = min(ranked, key=lambda r: r[:2])  # min keeps the earliest tie
    return Trajectory(states, controls, settle is not None, settle, target, diverged)


def _iterate(m: MapSpec, a: GainVector, T: int, init_history, steps: int):
    """Run the controlled recursion: (states, controls, diverged), the
    states and controls as float64 arrays.

    The trajectory does not depend on the target orbit, so one run serves
    every candidate that ``simulate_nearest`` ranks. Once the last M
    states equal, bit for bit, the M states ending at Brent's checkpoint,
    the run repeats with the period between the two, and its remaining
    states and controls are copied, not computed. The windows are compared
    as lists first: lists that differ under == differ in bytes too, as
    every state is finite, so only equal lists are compared as bytes.
    """
    N = len(a)
    M = (N - 1) * T + 1
    states = [float(v) for v in init_history]
    if len(states) != M:
        raise ValueError(f"init_history must have length {M}, got {len(states)}")
    if steps < 10 * T:
        raise ValueError(f"steps must be at least 10*T = {10 * T}")

    fx: list = [None] * M  # f(states[i]), evaluated when a step first needs it
    controls: list[float] = []
    diverged = False
    coeffs = a.coeffs
    end = M - 1 + steps  # index of the last state
    mark, span = M - 1, 1  # Brent's checkpoint and the distance at which it moves
    for k in range(M - 1, end):
        new = 0.0
        try:
            for j, c in enumerate(coeffs):
                i = k - j * T
                if fx[i] is None:
                    fx[i] = eval_map(m, states[i])
                new += c * fx[i]
        except MapEvalError:
            diverged = True
            break
        if not math.isfinite(new):
            diverged = True
            break
        controls.append(new - fx[k])
        states.append(new)
        fx.append(None)
        n = k + 1
        if (
            new == states[mark]
            and states[n - M + 1 :] == states[mark - M + 1 : mark + 1]
            and _window_bits(states, n, M) == _window_bits(states, mark, M)
        ):
            # Step n + i reads the window step mark + i read, so it repeats it.
            return _continued(states, n - mark, end + 1), _continued(controls, n - mark, steps), False
        if n - mark == span:
            mark, span = n, 2 * span
    return np.array(states), np.array(controls), diverged


def _continued(head: list[float], period: int, length: int) -> np.ndarray:
    """``head`` as a float64 array of ``length`` entries: its last ``period``
    entries repeated to fill the rest, by one tile of whole periods."""
    head = np.array(head)
    rest = length - head.size
    return np.concatenate([head, np.tile(head[-period:], -(-rest // period))[:rest]])


def _window_bits(states: list[float], last: int, M: int) -> bytes:
    """The M states ending at index ``last`` as bytes, in which -0.0 is not 0.0."""
    return np.array(states[last - M + 1 : last + 1]).tobytes()


def _distances(states: np.ndarray, target: Cycle) -> np.ndarray:
    """Each state's distance to the orbit as a set, ``Cycle.distance_to`` as
    one array of the shape of states."""
    return np.min(np.abs(states[..., None] - np.asarray(target.points)), axis=-1)


def _settle_step(dist: np.ndarray, T: int, tol: float) -> int | None:
    """The settle step of a run that did not diverge: one past the last state
    outside tol of the orbit, given each state's distance ``dist`` to it (NaN
    is outside). None when that state lies in the final 10*T, so the run did
    not converge; a diverged run has none either, which its caller decides.
    """
    outside = np.flatnonzero(~(dist <= tol))
    settle = int(outside[-1]) + 1 if outside.size else 0
    return settle if settle <= dist.size - 10 * T else None


def basin_fraction(
    m: MapSpec,
    a: GainVector,
    T: int,
    target: Cycle,
    samples: int,
    steps: int,
    tol: float = DEFAULT_SIM_TOL,
    seed: int = 0,
) -> float:
    """Monte Carlo fraction of constant initial histories that converge.

    Histories are constant sequences with the value drawn uniformly from the
    map's domain; results are deterministic for a given seed regardless of
    evaluation order (all draws are taken up front). The result equals the
    share of samples for which ``simulate`` reports convergence; all
    samples are iterated together as one array.
    """
    if samples < 1:
        raise ValueError("samples must be a positive integer")
    N = len(a)
    M = (N - 1) * T + 1
    if steps < 10 * T:
        raise ValueError(f"steps must be at least 10*T = {10 * T}")
    rng = np.random.default_rng(seed)
    lo, hi = m.domain
    f0, bad = eval_map_array(m, rng.uniform(lo, hi, samples))
    # One column per sample still running. rows holds f of its last M states,
    # state i in row i % M; all M states of a constant history share f0.
    rows = [f0[~bad]] * M
    terms = [(np.array(c), j * T) for j, c in enumerate(a.coeffs)]
    zero = np.array(0.0)
    window = np.empty((10 * T, rows[0].size))  # the final 10T states
    first = M + steps - 10 * T  # index of the first state in the window
    with np.errstate(all="ignore"):  # an erring f or a non-finite sum diverges
        for k in range(M - 1, M - 1 + steps):
            if k >= M:
                # f's mask covers a non-finite state, so it drops a sample
                # whose last sum was not finite too.
                rows[k % M], bad = m._fa(x, 1)
                if np.count_nonzero(bad):
                    keep = ~bad
                    rows, window = [row[keep] for row in rows], window[:, keep]
            x = zero
            for c, lag in terms:
                x = x + c * rows[(k - lag) % M]
            if k + 1 >= first:
                window[k + 1 - first] = x
        # A non-finite state the last step left in the window is no hit:
        # its distance to the orbit is not <= tol.
        hits = int(np.count_nonzero(np.all(_distances(window, target) <= tol, axis=0)))
    return hits / samples
