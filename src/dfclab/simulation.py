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
array's per-step overhead dominates (3,000 steps of logistic:r=3.9 with
N = 2 took about 60 ms as a batch of one against 5 ms in the scalar loop,
2-core Xeon, numpy 2.4). The loop stops once the window of the last
M = (N-1)T + 1 states recurs bit for bit. x(k+1) reads only that window,
through the same float operations every time, so from there on the run
repeats with the period between the two windows, and its remaining states
and controls are copied. A Brent checkpoint (Brent, BIT 20, 1980) finds
the recurrence whatever its period, within about three times the steps the
run takes to recur; the windows are compared as bytes, in which -0.0 and
0.0 differ. The 11 runs of a benchmark ``pipeline`` round (seed 7) settle
on floating-point orbits of periods 1 to 7 and stop after 130-1,027 steps,
computing 4,506 of the 47,000 steps asked for.

``basin_fraction`` runs all its samples as one array, one call of the
map's compiled one-step array form per step, inside one ``np.errstate``:
it calls ``m._fa(x, 1)`` directly rather than through
``maps.compose_map_array``, whose own ``np.errstate`` (2 us per enter
and exit, ``timeit``) would add about 1 ms to each 500-step basin job. A
sample leaves the array at the step where that call's mask flags it:
where f errs, and where the state is not finite, since the mask covers
the input. So a sum that is not finite drops its sample one step later,
and one the last step leaves in the final window fails the tol test
there, as a diverged run is not converged in ``simulate``. It does not
stop early: in each benchmark basin job (seed 7) 11-28 of the 64 samples
do not recur within the 500 steps, so the array runs to the end, and at
64 columns its per-step cost is fixed overhead that dropping the
recurred columns would not cut. Only the recursion of ``simulate`` is
scalar: the convergence test is one array pass, every state's distance
to the orbit as min |x - p| over the orbit's points (the IEEE
subtraction and abs of ``Cycle.distance_to``, so the distances are the
same), and ``simulate_nearest`` ranks its candidates from those same
distances.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import cycle, islice

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
    ``steps``: the rest of it is copied (see the module docstring).

    The recursion runs once. Candidates are ranked by (not converged, mean
    distance over the final 10*T states), so a candidate the run converges
    to comes first; the result is the Trajectory of the first in rank, the
    earliest in the given order on ties. Its ``target`` is the chosen cycle.
    """
    if not candidates:
        raise ValueError("simulate_nearest requires at least one candidate cycle")
    states, controls, diverged = _iterate(m, a, T, init_history, steps)
    states = np.asarray(states)
    best = None
    for cyc in candidates:
        dist = _distances(states, cyc)
        traj = _classify(states, controls, diverged, T, cyc, tol, dist)
        # states always holds the history, so the window is never empty.
        key = (not traj.converged, float(np.mean(dist[-10 * T :])))
        if best is None or key < best[0]:
            best = (key, traj)
    return best[1]


def _iterate(m: MapSpec, a: GainVector, T: int, init_history, steps: int):
    """Run the controlled recursion: (states, controls, diverged).

    The trajectory does not depend on the target orbit, so one run serves
    every candidate that ``_classify`` tests it against. Once the last M
    states equal, bit for bit, the M states ending at Brent's checkpoint,
    the run repeats with the period between the two, and its remaining
    states and controls are copied, not computed.
    """
    N = len(a)
    M = (N - 1) * T + 1
    history = [float(v) for v in init_history]
    if len(history) != M:
        raise ValueError(f"init_history must have length {M}, got {len(history)}")
    if steps < 10 * T:
        raise ValueError(f"steps must be at least 10*T = {10 * T}")

    states = list(history)
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
        if new == states[mark] and _window_bits(states, n, M) == _window_bits(states, mark, M):
            # Step n + i reads the window step mark + i read, so it repeats it.
            rest = end - n
            states.extend(islice(cycle(states[mark + 1 :]), rest))
            controls.extend(islice(cycle(controls[mark - n :]), rest))
            break
        if n - mark == span:
            mark, span = n, 2 * span
    return states, controls, diverged


def _window_bits(states: list[float], last: int, M: int) -> bytes:
    """The M states ending at index ``last`` as bytes, in which -0.0 is not 0.0."""
    return np.array(states[last - M + 1 : last + 1]).tobytes()


def _distances(states: np.ndarray, target: Cycle) -> np.ndarray:
    """Each state's distance to the orbit as a set, ``Cycle.distance_to`` as
    one array of the shape of states."""
    return np.min(np.abs(states[..., None] - np.asarray(target.points)), axis=-1)


def _classify(
    states: np.ndarray,
    controls: list[float],
    diverged: bool,
    T: int,
    target: Cycle,
    tol: float,
    dist: np.ndarray,
) -> Trajectory:
    """The Trajectory of an iterated run, with convergence to ``target`` tested.

    ``dist`` holds each state's distance to the target orbit. A run that did
    not diverge holds all its steps, at least 10*T beyond the history, so
    the final window always exists; it settles one past the last state
    outside the tol band.
    """
    converged = False
    settle: int | None = None
    if not diverged:
        outside = np.flatnonzero(~(dist <= tol))
        settle = int(outside[-1]) + 1 if outside.size else 0
        converged = settle <= dist.size - 10 * T
        if not converged:
            settle = None

    return Trajectory(
        states=states,
        controls=np.asarray(controls),
        converged=converged,
        settle_step=settle,
        target=target,
        diverged=diverged,
    )


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
    # One column per sample still running. fx holds f of its last M states,
    # state i in row i % M; all M states of a constant history share f0.
    fx = np.repeat(f0[None, ~bad], M, axis=0)
    window = np.empty((10 * T, fx.shape[1]))  # the final 10T states
    first = M + steps - 10 * T  # index of the first state in the window
    with np.errstate(all="ignore"):  # an erring f or a non-finite sum diverges
        for k in range(M - 1, M - 1 + steps):
            if k >= M:
                # f's mask covers a non-finite state, so it drops a sample
                # whose last sum was not finite too.
                fx[k % M], bad = m._fa(x, 1)
                if bad.any():
                    keep = ~bad
                    fx, window = fx[:, keep], window[:, keep]
            x = 0.0
            for j, c in enumerate(a.coeffs):
                x = x + c * fx[(k - j * T) % M]
            if k + 1 >= first:
                window[k + 1 - first] = x
        # A non-finite state the last step left in the window is no hit:
        # its distance to the orbit is not <= tol.
        hits = int(np.count_nonzero(np.all(_distances(window, target) <= tol, axis=0)))
    return hits / samples
