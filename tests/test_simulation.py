"""Tests for the controlled-dynamics simulator and basin sampling."""

import math

import numpy as np
import pytest

from dfclab import simulation
from dfclab.cycles import Cycle, find_cycles
from dfclab.maps import MapEvalError, eval_map, parse_map
from dfclab.simulation import (
    Trajectory,
    _distances,
    _iterate,
    _settle_step,
    basin_fraction,
    simulate,
    simulate_nearest,
)
from dfclab.spectrum import GainVector, char_poly_closed
from dfclab.stability import gains_uniform, spectral_radius


@pytest.fixture(scope="module")
def logistic4():
    return parse_map("logistic:r=4")


@pytest.fixture(scope="module")
def fixed_point(logistic4):
    # x* = 0.75 with multiplier -2
    return find_cycles(logistic4, 1, 1000)[1]


@pytest.fixture(scope="module")
def two_cycle():
    m = parse_map("logistic:r=3.2")
    return m, find_cycles(m, 2, 1000)[0]


class TestTrajectoryShape:
    def test_control_count_matches_update_steps(self, logistic4, fixed_point):
        a = gains_uniform(3)
        traj = simulate(logistic4, a, 1, [0.3, 0.3, 0.3], 100, fixed_point)
        assert len(traj.controls) == len(traj.states) - 3

    def test_history_length_enforced(self, logistic4, fixed_point):
        with pytest.raises(ValueError, match="length"):
            simulate(logistic4, gains_uniform(3), 1, [0.3, 0.3], 100, fixed_point)

    def test_steps_floor(self, logistic4, fixed_point):
        with pytest.raises(ValueError, match="steps"):
            simulate(logistic4, gains_uniform(3), 1, [0.3] * 3, 5, fixed_point)


class TestOnOrbitNullControl:
    def test_fixed_point_history_gives_zero_control(self, logistic4, fixed_point):
        a = gains_uniform(3)
        traj = simulate(logistic4, a, 1, [0.75] * 3, 200, fixed_point)
        assert np.max(np.abs(traj.controls)) <= 1e-12
        assert np.max(np.abs(traj.states - 0.75)) <= 1e-12

    def test_two_cycle_history_gives_zero_control(self, two_cycle):
        m, cyc = two_cycle
        a = gains_uniform(2)
        M = (len(a) - 1) * 2 + 1
        history = [cyc.points[i % 2] for i in range(M)]
        traj = simulate(m, a, 2, history, 100, cyc)
        assert np.max(np.abs(traj.controls)) <= 1e-12


class TestConvergence:
    def test_end_to_end_stabilization(self, logistic4, fixed_point):
        a = gains_uniform(3)
        traj = simulate(logistic4, a, 1, [0.3] * 3, 5000, fixed_point, tol=1e-6)
        assert traj.converged
        assert traj.settle_step is not None
        assert abs(traj.states[-1] - 0.75) <= 1e-6

    def test_uncontrolled_does_not_converge(self, logistic4, fixed_point):
        traj = simulate(logistic4, GainVector([1.0]), 1, [0.3], 5000, fixed_point, tol=1e-6)
        assert not traj.converged
        assert traj.settle_step is None

    def test_control_decay_in_converged_runs(self, logistic4, fixed_point, two_cycle):
        tol = 1e-6
        a3 = gains_uniform(3)
        runs = [
            simulate(logistic4, a3, 1, [0.3] * 3, 5000, fixed_point, tol=tol),
        ]
        m2, cyc2 = two_cycle
        runs.append(simulate(m2, GainVector([1.0]), 2, [0.4], 2000, cyc2, tol=tol))
        for traj in runs:
            assert traj.converged
            T = traj.target.period
            assert np.max(np.abs(traj.controls[-10 * T :])) <= 10 * tol

    def test_settle_step_marks_entry_into_tolerance(self, logistic4, fixed_point):
        a = gains_uniform(3)
        tol = 1e-6
        traj = simulate(logistic4, a, 1, [0.3] * 3, 5000, fixed_point, tol=tol)
        s = traj.settle_step
        dist = np.abs(traj.states - 0.75)
        assert np.all(dist[s:] <= tol)
        assert s == 0 or dist[s - 1] > tol


class TestLinearizationConsistency:
    # configurations with spectral radius < 0.95: a history within 1e-4 of
    # the orbit must converge to 1e-8 within 10^4 steps
    def test_contracting_configs_converge_from_nearby(self, logistic4, fixed_point, two_cycle):
        cases = []
        a3 = gains_uniform(3)
        assert spectral_radius(char_poly_closed(3, 1, a3, -2.0)) < 0.95
        cases.append((logistic4, a3, 1, fixed_point))
        m2, cyc2 = two_cycle
        a1 = GainVector([1.0])
        assert spectral_radius(char_poly_closed(1, 2, a1, cyc2.multiplier_product)) < 0.95
        cases.append((m2, a1, 2, cyc2))
        for m, a, T, target in cases:
            M = (len(a) - 1) * T + 1
            history = [target.points[i % T] + 1e-4 for i in range(M)]
            traj = simulate(m, a, T, history, 10_000, target, tol=1e-8)
            assert traj.converged

    def test_expanding_config_leaves_neighborhood(self, logistic4, fixed_point):
        # spectral radius 2 > 1.05: a nearby-but-off orbit point escapes 1e-2
        a = GainVector([1.0])
        assert spectral_radius(char_poly_closed(1, 1, a, -2.0)) > 1.05
        traj = simulate(logistic4, a, 1, [0.75 + 1e-5], 10_000, fixed_point, tol=1e-8)
        dist = np.abs(traj.states - 0.75)
        assert np.max(dist) > 1e-2


class TestDivergence:
    def test_overflow_truncates_and_flags(self, fixed_point):
        m = parse_map("logistic:r=4", domain=(-10.0, 10.0))
        traj = simulate(m, GainVector([1.0]), 1, [2.0], 100, fixed_point)
        assert traj.diverged
        assert not traj.converged
        assert len(traj.states) < 101

    def test_non_map_error_propagates(self, monkeypatch, logistic4, fixed_point):
        # Only map evaluation errors mean divergence; a bug must not be hidden.
        def broken(m, x):
            raise TypeError("broken evaluator")

        monkeypatch.setattr("dfclab.simulation.eval_map", broken)
        with pytest.raises(TypeError, match="broken evaluator"):
            simulate(logistic4, GainVector([1.0]), 1, [0.3], 100, fixed_point)


class TestBasinFraction:
    def test_stable_config_attracts_positive_fraction(self, logistic4, fixed_point):
        frac = basin_fraction(
            logistic4, gains_uniform(3), 1, fixed_point, samples=100, steps=2000, seed=42
        )
        assert frac > 0.0

    def test_deterministic_given_seed(self, logistic4, fixed_point):
        kwargs = dict(samples=40, steps=1500, seed=7)
        a = gains_uniform(3)
        f1 = basin_fraction(logistic4, a, 1, fixed_point, **kwargs)
        f2 = basin_fraction(logistic4, a, 1, fixed_point, **kwargs)
        assert f1 == f2

    def test_orbit_history_counts_as_converged(self, logistic4, fixed_point):
        traj = simulate(logistic4, gains_uniform(3), 1, [0.75] * 3, 100, fixed_point)
        assert traj.converged

    def test_unstable_config_reports_without_assertion(self, logistic4):
        # mu = 4 at x* = 0: fraction is reported, typically zero
        origin = find_cycles(logistic4, 1, 1000)[0]
        frac = basin_fraction(
            logistic4, gains_uniform(2), 1, origin, samples=30, steps=500, seed=3
        )
        assert 0.0 <= frac <= 1.0


class TestSimulateNearest:
    @pytest.mark.parametrize("init, diverges", [(0.3, False), (2.0, True)])
    def test_one_candidate_matches_simulate(self, fixed_point, init, diverges):
        m = parse_map("logistic:r=4", domain=(-10.0, 10.0))
        a = gains_uniform(3) if not diverges else GainVector([1.0])
        history = [init] * len(a)
        want = simulate(m, a, 1, history, 500, fixed_point)
        got = simulate_nearest(m, a, 1, history, 500, [fixed_point])
        assert want.diverged == diverges
        assert got.states.tobytes() == want.states.tobytes()
        assert got.controls.tobytes() == want.controls.tobytes()
        assert (got.converged, got.settle_step, got.diverged) == (
            want.converged, want.settle_step, want.diverged,
        )
        assert got.target is fixed_point

    # Uncontrolled (N = 1), these three starts end nearest to each of the
    # three period-4 cycles in turn.
    @pytest.mark.parametrize("N, init", [(1, 0.1), (1, 0.2), (1, 0.6), (2, 0.3)])
    def test_target_is_the_nearest_of_per_cycle_runs(self, logistic4, N, init):
        # One simulate per candidate, ranked by (not converged, mean distance
        # over the final 10*T states), first on ties.
        cycles = find_cycles(logistic4, 4, 1000)
        a = gains_uniform(N)
        history = [init] * ((N - 1) * 4 + 1)
        best = None
        for cyc in cycles:
            traj = simulate(logistic4, a, 4, history, 400, cyc)
            dist = np.mean([cyc.distance_to(x) for x in traj.states[-40:]])
            if best is None or (not traj.converged, dist) < best[0]:
                best = ((not traj.converged, dist), cyc)
        got = simulate_nearest(logistic4, a, 4, history, 400, cycles)
        assert len(cycles) == 3
        assert got.target is best[1]

    def test_no_candidate_is_an_error(self, logistic4):
        with pytest.raises(ValueError, match="candidate"):
            simulate_nearest(logistic4, gains_uniform(1), 1, [0.3], 100, [])

    def test_an_overflowing_mean_distance_ranks_last(self):
        # The run leaves for infinity from states near 1e308: the window's
        # distances to the first cycle sum past the largest float, and those
        # to the second overflow one by one. Neither may warn; both rank as
        # inf, behind the finite key of the third candidate.
        m = parse_map("5.617791046444737e+307*tanh(1 - abs(x))", domain=(-2, 2))
        a, history = GainVector([3.0, -2.0]), [0.5, 0.5]
        far = Cycle(1, (-5.617791046444737e307,), (0.0,), 0.0)
        farther = Cycle(1, (-1.7e308,), (0.0,), 0.0)
        near = Cycle(1, (0.0,), (0.0,), 0.0)
        traj = simulate(m, a, 1, history, 300, far)
        assert traj.diverged and not traj.converged
        assert simulate_nearest(m, a, 1, history, 300, [far, farther]).target is far
        assert simulate_nearest(m, a, 1, history, 300, [far, farther, near]).target is near


class TestSimulateNearestBuildsOneTrajectory:
    def test_three_candidates_build_one(self, logistic4, monkeypatch):
        built = []

        def counted(*args, **kwargs):
            built.append(args)
            return Trajectory(*args, **kwargs)

        monkeypatch.setattr(simulation, "Trajectory", counted)
        cycles = find_cycles(logistic4, 4, 1000)
        got = simulate_nearest(logistic4, gains_uniform(2), 4, [0.3] * 5, 400, cycles)
        assert len(cycles) == 3
        assert len(built) == 1 and isinstance(got, Trajectory)

    def test_settle_step_counts_nan_as_outside(self):
        dist = np.zeros(20)
        dist[9] = math.nan
        assert _settle_step(dist, 1, 1e-6) == 10
        dist[10] = math.nan
        assert _settle_step(dist, 1, 1e-6) is None


# (map, domain, T, N, index of the target among find_cycles' orbits). Some
# samples of most cases converge; the logistic map at r = 4.5 and cubic maps
# overflow, and near the pole of the 0.01/x map the run leaves for infinity.
# The cases at T = 2 and 3 with N = 3 and 4 keep more rows of f than terms
# (M = (N - 1)T + 1 > N) and drop samples during the run: logistic outside
# [0, 1], and a map of tanh steps whose 3-cycle 0 -> 1 -> 2 is flat and
# whose exp term sends samples near 3.5 to overflow.
TANH_STEPS = "1 + 0.5*(tanh(20*(x - 0.5)) + 1) - (tanh(20*(x - 1.5)) + 1) + 1e-4*exp(x^2)"
BASIN_CASES = [
    ("logistic:r=3.9", None, 1, 2, 1),
    ("logistic:r=4.5", None, 1, 1, 1),
    ("logistic:r=4.5", None, 1, 3, 1),
    ("cubic:b=2.8", None, 1, 3, 2),
    ("cubic:b=2.8", None, 1, 3, 0),
    ("logistic:r=3.5", None, 2, 2, 0),
    ("0.01/x + 3.2*x*(1-x)", (-0.3, 1.0), 1, 2, 0),
    ("0.01/x + 3.2*x*(1-x)", (-0.3, 1.0), 1, 1, 0),
    ("logistic:r=3.5", (-0.1, 1.1), 2, 3, 0),
    ("logistic:r=3.5", (-0.1, 1.1), 2, 4, 0),
    ("logistic:r=4.5", None, 3, 3, 0),
    (TANH_STEPS, (-0.5, 3.5), 3, 4, 0),
]


def _classified(states, T, target, diverged=False, tol=1e-6):
    xs = np.asarray(states, dtype=float)
    settle = None if diverged else _settle_step(_distances(xs, target), T, tol)
    return Trajectory(xs, np.array([]), settle is not None, settle, target, diverged)


class TestArrayConvergenceCheck:
    def test_distances_equal_distance_to(self):
        cyc = Cycle(3, (-0.3, 0.1, 0.7), (1.0, 1.0, 1.0), 1.0)
        xs = np.random.default_rng(3).uniform(-1.0, 1.0, 500)
        want = [cyc.distance_to(float(x)) for x in xs]
        assert _distances(xs, cyc).tolist() == want

    def test_settles_at_the_last_reentry(self):
        # In the band at 0-1, out at 2, in at 3-4, out at 5, in from 6 on.
        cyc = Cycle(2, (0.2, 0.6), (1.0, 1.0), 1.0)
        states = [0.2, 0.6, 0.3, 0.6, 0.2, 0.6 + 2e-6] + [0.2, 0.6] * 10
        traj = _classified(states, 2, cyc)
        assert traj.converged and traj.settle_step == 6

    def test_inside_from_state_zero(self):
        cyc = Cycle(1, (0.75,), (-2.0,), -2.0)
        traj = _classified([0.75 + 1e-7] * 12, 1, cyc)
        assert traj.converged and traj.settle_step == 0

    def test_band_edge_is_inside(self):
        cyc = Cycle(1, (0.5,), (0.5,), 0.5)
        traj = _classified([0.5 + 1.0, 0.5 + 0.25] + [0.5] * 10, 1, cyc, tol=0.25)
        assert traj.settle_step == 1

    def test_left_in_the_final_window_does_not_converge(self):
        cyc = Cycle(1, (0.75,), (-2.0,), -2.0)
        states = [0.75] * 20
        states[-10] = 0.8
        traj = _classified(states, 1, cyc)
        assert not traj.converged and traj.settle_step is None
        states[-10], states[-11] = 0.75, 0.8
        assert _classified(states, 1, cyc).settle_step == 10

    def test_diverged_run(self):
        cyc = Cycle(1, (0.75,), (-2.0,), -2.0)
        traj = _classified([0.75] * 3, 1, cyc, diverged=True)
        assert not traj.converged and traj.settle_step is None and traj.diverged


def _nearest_by_scalar_code(m, a, T, history, steps, candidates, tol=1e-6):
    """The candidate index simulate_nearest must pick, ranked in scalar Python."""
    states = [float(x) for x in simulate(m, a, T, history, steps, candidates[0]).states]
    best = None
    for i, cyc in enumerate(candidates):
        dist = [cyc.distance_to(x) for x in states]
        converged = all(d <= tol for d in dist[-10 * T :])
        key = (not converged, float(np.mean(dist[-10 * T :])))
        if best is None or key < best[0]:
            best = (key, i)
    return best[1]


class TestSimulateNearestOnNearTies:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("N, init", [(1, 0.3), (2, 0.74)])
    def test_same_pick_as_scalar_code(self, logistic4, seed, N, init):
        # Candidates one or a few ulps apart, duplicates among them: the mean
        # distances tie or differ in their last bits.
        rng = np.random.default_rng(seed)
        base = 0.75 if N == 2 else float(rng.uniform(0.2, 0.8))
        points = [base]
        for _ in range(7):
            points.append(float(np.nextafter(points[-1], 2.0 if rng.random() < 0.5 else -2.0)))
        points = [points[i] for i in rng.integers(0, len(points), 8)]
        candidates = [Cycle(1, (p,), (-2.0,), -2.0) for p in points]
        a = gains_uniform(N)
        history = [init] * N  # (N - 1) T + 1 states at T = 1
        want = _nearest_by_scalar_code(logistic4, a, 1, history, 300, candidates)
        got = simulate_nearest(logistic4, a, 1, history, 300, candidates)
        assert got.target is candidates[want]


class TestBasinFractionIsTheShareOfSimulations:
    @pytest.mark.parametrize("source, domain, T, N, index", BASIN_CASES)
    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_equals_per_sample_simulate(self, source, domain, T, N, index, seed):
        m = parse_map(source, domain=domain)
        target = find_cycles(m, T)[index]
        a, samples, steps = gains_uniform(N), 40, 300
        draws = np.random.default_rng(seed).uniform(*m.domain, samples)
        M = (N - 1) * T + 1
        runs = [simulate(m, a, T, [v] * M, steps, target) for v in draws.tolist()]
        want = sum(r.converged for r in runs) / samples
        assert basin_fraction(m, a, T, target, samples, steps, seed=seed) == want

    @pytest.mark.parametrize("N", [1, 2])
    def test_state_on_the_pole(self, N):
        # Iterates of 2x(1-x) land exactly on 0.5, the pole of the tanh term:
        # f raises there although the rest of its formula stays finite.
        m = parse_map("2*x*(1-x) + 1e-300*tanh(1/(x - 0.5))")
        target = Cycle(1, (0.5,), (0.0,), 0.0)
        a = gains_uniform(N)
        draws = np.random.default_rng(0).uniform(*m.domain, 40)
        runs = [simulate(m, a, 1, [v] * N, 300, target) for v in draws.tolist()]
        assert any(r.diverged for r in runs) and any(r.converged for r in runs)
        want = sum(r.converged for r in runs) / 40
        assert basin_fraction(m, a, 1, target, 40, 300, seed=0) == want

    def test_sum_that_overflows(self):
        # f stays finite but 2 f(x(k)) - f(x(k-1)) overflows on the first step.
        m = parse_map("1.5e308*tanh(x)", domain=(0.5, 1.0))
        a = GainVector([2.0, -1.0])
        target = Cycle(1, (0.7,), (0.0,), 0.0)
        assert simulate(m, a, 1, [0.7, 0.7], 50, target).diverged
        assert basin_fraction(m, a, 1, target, 10, 50) == 0.0

    # (map, domain, gains, target, steps): custom gains whose controlled sum
    # overflows while f stays finite.
    # - 7.0e306 tanh(2 - 2|x|) is finite at +-inf, so a sample whose sum
    #   overflows at step 2 (|x(0)| < about 0.6) is dropped only because
    #   f's array form flags its non-finite input; the rest settle on the
    #   fixed point -7.0e306 at step 3.
    # - x + |x| is 0 left of 0 and 2x right of it, where the sum grows about
    #   15-fold a step and overflows at step 263 or 264, inside the final
    #   window; at 264 the non-finite state is left in the window.
    # Each case ends with the steps at which its diverging runs first go
    # non-finite.
    OVERFLOW_CASES = [
        (f"{1.25 * 2.0**1019!r}*tanh(2 - 2*abs(x))", (-1.5, 1.5), [16.0, -15.0],
         Cycle(1, (-1.25 * 2.0**1019,), (0.0,), 0.0), 300, {2}),
        ("x + abs(x)", (-1.5, 1.5), [8.0, -7.0], Cycle(1, (0.0,), (2.0,), 2.0), 264, {263, 264}),
    ]

    @pytest.mark.parametrize("source, domain, gains, target, steps, overflow", OVERFLOW_CASES,
                             ids=["finite-at-inf", "in-the-window"])
    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_sum_that_overflows_equals_per_sample_simulate(self, source, domain, gains,
                                                           target, steps, overflow, seed):
        m, a = parse_map(source, domain=domain), GainVector(gains)
        draws = np.random.default_rng(seed).uniform(*m.domain, 40)
        runs = [simulate(m, a, 1, [v] * 2, steps, target) for v in draws.tolist()]
        # A diverged run holds the 2 states of its history and the steps
        # before its first non-finite state.
        assert {len(r.states) - 1 for r in runs if r.diverged} == overflow
        assert any(r.converged for r in runs)
        want = sum(r.converged for r in runs) / 40
        assert basin_fraction(m, a, 1, target, 40, steps, seed=seed) == want

    def test_cases_cover_convergence_and_divergence(self):
        converged = diverged = 0
        for source, domain, T, N, index in BASIN_CASES:
            m = parse_map(source, domain=domain)
            target = find_cycles(m, T)[index]
            M = (N - 1) * T + 1
            for v in np.random.default_rng(0).uniform(*m.domain, 40).tolist():
                run = simulate(m, gains_uniform(N), T, [v] * M, 300, target)
                converged += run.converged
                diverged += run.diverged
        assert converged > 40 and diverged > 10

    def test_steps_floor(self, logistic4, fixed_point):
        with pytest.raises(ValueError, match="10\\*T"):
            basin_fraction(logistic4, gains_uniform(2), 1, fixed_point, 10, 9)


def reference_run(m, a, T, history, steps):
    """The controlled recursion as written: all N terms of f at every step."""
    states, controls = list(history), []
    for k in range(len(history) - 1, len(history) - 1 + steps):
        try:
            fx = [eval_map(m, states[k - j * T]) for j in range(len(a))]
        except MapEvalError:
            return states, controls, True
        new = 0.0
        for c, v in zip(a.coeffs, fx):
            new = new + c * v
        if not math.isfinite(new):
            return states, controls, True
        controls.append(new - fx[0])
        states.append(new)
    return states, controls, False


class TestIterateStoresFOncePerState:
    @pytest.mark.parametrize(
        "source, domain",
        [("logistic:r=3.9", None), ("cubic:b=2.8", None), ("1/x - x", (-1.0, 1.0)),
         ("exp(2*x) - 1.5", (-1.0, 1.0))],
    )
    @pytest.mark.parametrize("N, T", [(1, 1), (2, 1), (3, 2), (4, 3), (6, 1)])
    def test_equals_the_reference_loop(self, source, domain, N, T):
        m = parse_map(source, domain=domain)
        rng = np.random.default_rng(N * 10 + T)
        M = (N - 1) * T + 1
        for trial in range(6):
            rest = rng.uniform(-0.6, 0.6, N - 1).tolist()
            a = GainVector([1.0 - sum(rest), *rest])
            history = rng.uniform(-1.5, 1.5, M).tolist()
            got = _iterate(m, a, T, history, 40 * T)
            want = reference_run(m, a, T, history, 40 * T)
            assert [x.hex() for x in got[0]] == [x.hex() for x in want[0]]
            assert [u.hex() for u in got[1]] == [u.hex() for u in want[1]]
            assert got[2] == want[2]

    @pytest.mark.parametrize("pole_at", range(5))
    def test_history_whose_f_raises(self, pole_at):
        # N = 3, T = 2: history state i is first read on step i % 2, so a pole
        # at an odd index ends the run one state later than one at an even index.
        m = parse_map("1/x - x", domain=(-1.0, 1.0))
        a = GainVector([0.5, 0.3, 0.2])
        history = [0.3, -0.4, 0.5, 0.7, -0.2]
        history[pole_at] = 0.0
        got = _iterate(m, a, 2, history, 20)
        want = reference_run(m, a, 2, history, 20)
        assert _hex(got) == _hex(want)
        assert got[2] and len(got[0]) == 5 + pole_at % 2


def _counted_evals(monkeypatch) -> list[int]:
    """Count the f evaluations of ``_iterate``: one entry, bumped per call."""
    calls = [0]

    def counted(m, x):
        calls[0] += 1
        return eval_map(m, x)

    monkeypatch.setattr("dfclab.simulation.eval_map", counted)
    return calls


def _hex(run):
    states, controls, diverged = run
    return [x.hex() for x in states], [u.hex() for u in controls], diverged


# 5,000-step runs: three controlled runs whose floating-point orbits recur
# with periods 3, 4 and 8 after about 260, 1,030 and 520 states, a chaotic
# run that does not recur within the run and one that overflows.
LONG_RUNS = [
    ("logistic:r=3.9", None, 2, 1, [0.3, 0.3], "recurs"),
    ("cubic:b=2.8", None, 3, 1, [0.41] * 3, "recurs"),
    ("quadratic:c=-1.3", None, 2, 2, [0.3] * 3, "recurs"),
    ("logistic:r=4", None, 1, 1, [0.3], "never"),
    ("logistic:r=4", (-10.0, 10.0), 1, 1, [2.0], "diverges"),
]


class TestRecurrenceExit:
    @pytest.mark.parametrize("source, domain, N, T, history, kind", LONG_RUNS)
    def test_long_run_equals_the_reference_loop(
        self, monkeypatch, source, domain, N, T, history, kind
    ):
        m, a, steps = parse_map(source, domain=domain), gains_uniform(N), 5000
        calls = _counted_evals(monkeypatch)
        got = _iterate(m, a, T, history, steps)
        assert _hex(got) == _hex(reference_run(m, a, T, history, steps))
        if kind == "recurs":
            assert calls[0] < steps // 4  # the periodic tail was copied
        elif kind == "never":
            assert calls[0] == steps
        else:
            assert got[2] and calls[0] < steps

    @pytest.mark.parametrize("source, domain, N, T, history, kind", LONG_RUNS)
    def test_runs_are_float64_arrays(self, source, domain, N, T, history, kind):
        # The computed prefix and the copied tail alike: one array a run.
        m, a, steps = parse_map(source, domain=domain), gains_uniform(N), 5000
        want = _hex(reference_run(m, a, T, history, steps))
        got = _iterate(m, a, T, history, steps)
        target = Cycle(T, (0.5,) * T, (0.0,) * T, 0.0)
        traj = simulate(m, a, T, history, steps, target)
        for states, controls, diverged in (got, (traj.states, traj.controls, traj.diverged)):
            assert isinstance(states, np.ndarray) and states.dtype == np.float64
            assert isinstance(controls, np.ndarray) and controls.dtype == np.float64
            assert _hex((states, controls, diverged)) == want

    @pytest.mark.parametrize(
        "source, N, T, period",
        [("logistic:r=3.9", 2, 1, 3), ("quadratic:c=-1.3", 2, 2, 8)],
    )
    def test_every_run_length_around_the_exit(self, monkeypatch, source, N, T, period):
        # With every history state read, a run evaluates f of x(0..n-1) when
        # its exit fires at x(n). Lengths from 2P before to 3P after that
        # include the exit on the last step and every remainder mod P.
        m, a = parse_map(source), gains_uniform(N)
        M = (N - 1) * T + 1
        history = [0.3] * M
        calls = _counted_evals(monkeypatch)
        full = _iterate(m, a, T, history, 5000)
        exit_at = calls[0]
        last, before = slice(-period, None), slice(-2 * period, -period)
        assert _hex((full[0][last], full[1][last], False)) == _hex(
            (full[0][before], full[1][before], False))
        for steps in range(exit_at - M + 1 - 2 * period, exit_at - M + 1 + 3 * period):
            calls[0] = 0
            got = _iterate(m, a, T, history, steps)
            assert _hex(got) == _hex(reference_run(m, a, T, history, steps))
            assert calls[0] == min(exit_at, M - 1 + steps)


class TestSignedZero:
    @pytest.mark.parametrize("start", [0.0, -0.0])
    def test_minus_x_from_zero(self, start):
        # Each step's sum starts at 0.0, and 0.0 + (-0.0) is 0.0: only a
        # history state can be -0.0, so -x holds at 0.0 after the history.
        m, a = parse_map("-x"), GainVector([1.0])
        got = _iterate(m, a, 1, [start], 5000)
        assert _hex(got) == _hex(reference_run(m, a, 1, [start], 5000))
        assert _hex(got)[0] == [start.hex()] + ["0x0.0p+0"] * 5000

    def test_windows_are_compared_by_bits(self, monkeypatch, logistic4):
        # f tells -0.0 from 0.0: 0.0 is not a fixed point although it equals
        # the history's -0.0, so the run must not repeat from there.
        def f(m, x):
            return 0.5 if math.copysign(1.0, x) > 0 else 0.0

        monkeypatch.setattr("dfclab.simulation.eval_map", f)
        got = _iterate(logistic4, GainVector([1.0]), 1, [-0.0], 100)
        assert _hex(got) == (["-0x0.0p+0", "0x0.0p+0"] + [(0.5).hex()] * 99,
                             [(0.0).hex()] * 100, False)
