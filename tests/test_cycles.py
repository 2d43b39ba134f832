"""Tests for periodic-orbit detection against brute-force and analytic oracles."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import dfclab.cycles
import dfclab.maps
from dfclab.cycles import (
    BRACKET_WIDTH,
    ORBIT_TOL,
    Cycle,
    _iterate_array,
    _newton_polish,
    _orbit_g,
    _seen,
    find_cycles,
    multiplier_of,
    newton_brackets,
)
from dfclab.maps import MapEvalError, eval_map, eval_map_array, parse_map

from bisection import bisect_brackets


def brute_force_roots(m, T, n_grid=200_000):
    """Independent oracle: dense-grid sign scan of f^T(x) - x with bisection only.

    Stays deliberately dumber than find_cycles (no Newton, no polish) so the
    two paths share no code beyond eval_map. A node where the map errors
    reads NaN and brackets no root.
    """

    def g(x):
        y = x
        try:
            for _ in range(T):
                y = eval_map(m, y)
        except MapEvalError:
            return math.nan
        return y - x

    lo, hi = m.domain
    xs = np.linspace(lo, hi, n_grid).tolist()
    gs = [g(x) for x in xs]
    roots = [float(x) for x, v in zip(xs, gs) if v == 0.0]
    for i in range(n_grid - 1):
        if gs[i] * gs[i + 1] < 0.0:
            a, b, fa = xs[i], xs[i + 1], gs[i]
            for _ in range(80):
                mid = 0.5 * (a + b)
                fm = g(mid)
                if fa * fm <= 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
            roots.append(0.5 * (a + b))
    return sorted(roots)


def fd_multiplier_product(m, points, h=1e-7):
    prod = 1.0
    for x in points:
        prod *= (eval_map(m, x + h) - eval_map(m, x - h)) / (2 * h)
    return prod


class TestLogisticFixedPoints:
    def test_r4_has_two_fixed_points(self):
        # analytic: 4x(1-x) = x  =>  x in {0, 3/4}; f'(x) = 4(1-2x)
        m = parse_map("logistic:r=4")
        cycles = find_cycles(m, 1, 1000)
        assert len(cycles) == 2
        assert cycles[0].points[0] == pytest.approx(0.0, abs=1e-10)
        assert cycles[0].multiplier_product == pytest.approx(4.0, abs=1e-8)
        assert cycles[1].points[0] == pytest.approx(0.75, abs=1e-10)
        assert cycles[1].multiplier_product == pytest.approx(-2.0, abs=1e-8)

    def test_fixed_point_count_matches_brute_force_across_r(self):
        for r in (1.5, 2.0, 2.5, 3.2, 3.9):
            m = parse_map(f"logistic:r={r}")
            found = find_cycles(m, 1, 1000)
            assert len(found) == 2, f"period-1 count for r={r}"
            oracle = brute_force_roots(m, 1, 20_000)
            # group oracle roots within 1e-6: should also give two
            grouped = []
            for x in oracle:
                if not grouped or x - grouped[-1] > 1e-6:
                    grouped.append(x)
            assert len(grouped) == 2


class TestLogisticTwoCycle:
    # analytic 2-cycle of the logistic map:
    # points ((r+1) +/- sqrt((r+1)(r-3)))/(2r), product mu = -r^2 + 2r + 4
    R = 3.2
    P_LO = ((R + 1) - math.sqrt((R + 1) * (R - 3))) / (2 * R)
    P_HI = ((R + 1) + math.sqrt((R + 1) * (R - 3))) / (2 * R)
    MU = -(R**2) + 2 * R + 4

    def test_two_cycle_points_and_multiplier(self):
        m = parse_map(f"logistic:r={self.R}")
        cycles = find_cycles(m, 2, 1000)
        assert len(cycles) == 1
        cyc = cycles[0]
        assert cyc.points[0] == pytest.approx(self.P_LO, abs=1e-9)
        assert cyc.points[1] == pytest.approx(self.P_HI, abs=1e-9)
        assert cyc.multiplier_product == pytest.approx(self.MU, abs=1e-6)
        assert cyc.multiplier_product == pytest.approx(0.16, abs=1e-6)

    def test_against_brute_force_and_finite_differences(self):
        m = parse_map(f"logistic:r={self.R}")
        cyc = find_cycles(m, 2, 1000)[0]
        oracle_roots = brute_force_roots(m, 2, 100_000)
        # the cycle's points must appear among the brute-force roots
        for p in cyc.points:
            assert min(abs(p - x) for x in oracle_roots) < 1e-7
        assert fd_multiplier_product(m, cyc.points) == pytest.approx(
            cyc.multiplier_product, abs=1e-5
        )

    def test_no_two_cycle_below_period_doubling(self):
        # r=2.5: f^2(x) - x has only period-1 roots
        m = parse_map("logistic:r=2.5")
        assert find_cycles(m, 2, 1000) == []
        # brute force agrees: every root of f^2 - x is a fixed point of f
        for x in brute_force_roots(m, 2, 20_000):
            assert abs(eval_map(m, x) - x) < 1e-5

    def test_no_four_cycle_below_its_bifurcation(self):
        m = parse_map("logistic:r=3.2")
        assert find_cycles(m, 4, 2000) == []


class TestCycleInvariants:
    @pytest.mark.parametrize("r,T", [(4.0, 1), (3.2, 2), (3.9, 2), (3.55, 4)])
    def test_returned_cycles_satisfy_invariants(self, r, T):
        m = parse_map(f"logistic:r={r}")
        for cyc in find_cycles(m, T, 3000):
            assert cyc.period == T
            for j in range(T):
                nxt = cyc.points[(j + 1) % T]
                err = abs(eval_map(m, cyc.points[j]) - nxt)
                assert err <= 1e-10 * (1.0 + abs(cyc.points[j]))
            prod = math.prod(cyc.multipliers)
            assert abs(prod - cyc.multiplier_product) <= 1e-12 * (1.0 + abs(prod))
            # minimal period: no proper divisor closes the orbit
            for d in range(1, T):
                if T % d == 0:
                    y = cyc.points[0]
                    for _ in range(d):
                        y = eval_map(m, y)
                    assert abs(y - cyc.points[0]) > 1e-8
            # anchored at the smallest point
            assert cyc.points[0] == min(cyc.points)

    def test_points_return_after_T_iterations(self):
        m = parse_map("logistic:r=3.9")
        for cyc in find_cycles(m, 2, 2000):
            for p in cyc.points:
                y = p
                for _ in range(cyc.period):
                    y = eval_map(m, y)
                assert abs(y - p) <= 1e-9


class TestMultiplierOf:
    def test_fixed_point_multiplier(self):
        m = parse_map("logistic:r=4")
        mus, prod = multiplier_of(m, [0.75])
        assert mus[0] == pytest.approx(-2.0, abs=1e-12)
        assert prod == pytest.approx(-2.0, abs=1e-12)

    def test_superstable_zero_multiplier(self):
        # logistic r=2 has fixed point 0.5 with f'(0.5) = 0
        m = parse_map("logistic:r=2")
        mus, prod = multiplier_of(m, [0.5])
        assert mus == (0.0,)
        assert prod == 0.0

    def test_two_cycle_product(self):
        m = parse_map("logistic:r=3.2")
        cyc = find_cycles(m, 2, 1000)[0]
        mus, prod = multiplier_of(m, cyc.points)
        assert prod == pytest.approx(0.16, abs=1e-6)

    def test_rejects_non_orbit(self):
        m = parse_map("logistic:r=4")
        with pytest.raises(ValueError, match="orbit"):
            multiplier_of(m, [0.3, 0.9])


class TestValidation:
    def test_period_must_be_positive(self):
        m = parse_map("logistic:r=4")
        with pytest.raises(ValueError):
            find_cycles(m, 0, 1000)

    def test_grid_floor(self):
        m = parse_map("logistic:r=4")
        with pytest.raises(ValueError):
            find_cycles(m, 1, 50)

    def test_cycle_consistency_enforced(self):
        with pytest.raises(ValueError):
            Cycle(period=2, points=(0.1, 0.2), multipliers=(1.0, 2.0), multiplier_product=5.0)

    def test_non_map_error_propagates(self, monkeypatch):
        # Only map evaluation errors become NaN grid nodes; a bug must not be hidden.
        def broken(m, x, n, deriv=False):
            raise TypeError("broken evaluator")

        monkeypatch.setattr("dfclab.cycles.compose_map_array", broken)
        with pytest.raises(TypeError, match="broken evaluator"):
            find_cycles(parse_map("logistic:r=4"), 1, 1000)


class TestArrayPath:
    @pytest.mark.parametrize(
        "source, domain, T",
        [("logistic:r=4", None, 5), ("cubic:b=2.8", None, 3), ("0.3/x - 1.6*x", (-1.0, 1.0), 3)],
    )
    def test_scalar_evaluators_are_not_called(self, monkeypatch, source, domain, T):
        m = parse_map(source, domain=domain)
        want = find_cycles(m, T, 1000)

        def scalar(m, x):
            raise AssertionError("find_cycles evaluated a point by itself")

        for name in ("eval_map", "eval_map_deriv"):
            monkeypatch.setattr(dfclab.maps, name, scalar)
            monkeypatch.setattr(dfclab.cycles, name, scalar, raising=False)
        assert want and find_cycles(m, T, 1000) == want

    def test_newton_points_stop_on_their_own_rules_in_one_call(self):
        # g(x) = f(x) - x = 3x - 4x^2 on [0, 1]. From 0.1 and 0.37 the first
        # step leaves the domain, and from 0.375 (g' = 0) none is taken,
        # while 0.7 and 0.9 converge to the fixed point 0.75.
        m = parse_map("logistic:r=4")
        got = _newton_polish(m, np.array([0.1, 0.37, 0.375, 0.7, 0.9]), 1, 0.0, 1.0)
        assert got.tolist() == [0.1, 0.37, 0.375, 0.75, 0.75]
        # A start whose path meets the pole keeps its place; 0.3 converges.
        pole = parse_map("0.3/x - 1.6*x", domain=(-1.0, 1.0))
        got = _newton_polish(pole, np.array([0.0, 0.3]), 1, -1.0, 1.0)
        assert got[0] == 0.0 and abs(got[1] - math.sqrt(0.3 / 2.6)) <= 1e-15


def minimal_period_points(m, T, n_grid):
    """The oracle's roots, merged within 1e-6, of minimal period T.

    A sign change of f^T(x) - x across a pole of f^T is not a root: points
    that f^T does not return within 1e-6 are dropped.
    """
    merged = []
    for x in brute_force_roots(m, T, n_grid):
        if not merged or x - merged[-1] > 1e-6:
            merged.append(x)

    def returns_after(x, d):
        y = x
        for _ in range(d):
            y = eval_map(m, y)
        return abs(y - x) <= 1e-6

    return [
        x for x in merged
        if returns_after(x, T) and not any(returns_after(x, d) for d in range(1, T) if T % d == 0)
    ]


class TestDomainErrors:
    # The pole at 0 is node 500 of the 1001-node grid (and node 10000 of the
    # oracle's). exp(x^2) - 2 overflows in f^2 on about 40% of its grid.
    @pytest.mark.parametrize(
        "source, domain, T, count",
        [
            ("0.3/x - 1.6*x", (-1.0, 1.0), 1, 2),
            ("0.3/x - 1.6*x", (-1.0, 1.0), 2, 1),
            ("0.3/x - 1.6*x", (-1.0, 1.0), 3, 2),
            ("2.5*x - 0.02/x - 3*x^3", (-1.0, 1.0), 1, 4),
            ("2.5*x - 0.02/x - 3*x^3", (-1.0, 1.0), 2, 5),
            ("exp(x^2) - 2", (-3.0, 3.0), 1, 2),
            ("exp(x^2) - 2", (-3.0, 3.0), 2, 1),
            ("exp(x^2) - 2", (-3.0, 3.0), 3, 0),
        ],
    )
    def test_error_nodes_are_skipped(self, source, domain, T, count):
        m = parse_map(source, domain=domain)
        cycles = find_cycles(m, T, 1001)
        assert len(cycles) == count
        found = sorted(p for c in cycles for p in c.points)
        want = minimal_period_points(m, T, 20_001)
        assert len(found) == len(want)
        assert all(abs(p - q) < 1e-7 for p, q in zip(found, want))

    @pytest.mark.parametrize(
        "source, T, grid, count, lower",
        [
            # the fixed point; the 2-cycle and both 3-cycles; the fixed point
            ("0.3/x - 1.6*x", 3, 1000, 2, (-0.339683,)),
            ("0.3/x - 1.6*x", 6, 1000, 8, (-0.707107, -0.628765, -0.528898)),
            ("2.5*x - 0.02/x - 3*x^3", 3, 1001, 8, (-0.117086,)),
        ],
    )
    def test_polished_orbit_of_lower_period_is_dropped(self, source, T, grid, count, lower):
        # The Newton polish of an anchor can land on an orbit of lower period,
        # so the divisor test runs again on the polished orbit.
        cycles = find_cycles(parse_map(source, domain=(-1.0, 1.0)), T, grid)
        assert len(cycles) == count
        for c in cycles:
            assert all(abs(c.points[d] - c.points[0]) > 1e-8 for d in range(1, T) if T % d == 0)
        assert not any(abs(c.points[0] - x) < 1e-5 for c in cycles for x in lower)

    def test_grid_nodes_with_errors_exist(self):
        pole = parse_map("0.3/x - 1.6*x", domain=(-1.0, 1.0))
        with pytest.raises(MapEvalError):
            eval_map(pole, -1.0 + 2.0 * 500 / 1000)
        overflow = parse_map("exp(x^2) - 2", domain=(-3.0, 3.0))
        with pytest.raises(MapEvalError):
            eval_map(overflow, eval_map(overflow, 3.0))

    def test_midpoint_error_drops_its_bracket(self):
        # A bisection midpoint lands on the pole at 0: that bracket is dropped,
        # as a grid node where the map errs is skipped.
        m = parse_map("abs(x) - 1/x", domain=(-2.0, 2.0))
        found = sorted(p for c in find_cycles(m, 2, 100) for p in c.points)
        assert found == minimal_period_points(m, 2, 20_001) == []


class TestOrbitsLeavingTheDomain:
    # Two period-3 orbits of this map pass through -1.05507 and 1.05507,
    # outside (-1, 1); their other points are roots the scan finds inside.
    SOURCE = "2.5*x - 0.02/x - 3*x^3"

    @pytest.mark.parametrize("grid", [1000, 1001, 4000])
    def test_reported_with_the_points_of_a_wider_scan(self, grid):
        found = find_cycles(parse_map(self.SOURCE, domain=(-1.0, 1.0)), 3, grid)
        wide = find_cycles(parse_map(self.SOURCE, domain=(-1.2, 1.2)), 3, grid)
        leaving = [c for c in found if any(abs(x) > 1.0 for x in c.points)]
        assert [round(max(c.points, key=abs), 5) for c in leaving] == [-1.05507, 1.05507]
        for c in leaving:
            match = min(wide, key=lambda w: abs(w.points[0] - c.points[0]))
            assert np.allclose(match.points, c.points, rtol=0.0, atol=1e-12)


class TestBisectBrackets:
    def test_exact_zero_stops_at_the_midpoint(self):
        calls = []

        def g(x):
            calls.append(x.copy())
            return x - 0.5

        got = bisect_brackets(g, [0.0], [1.0], [-0.5], 1e-12)
        assert got.tolist() == [0.5]
        assert len(calls) == 1

    def test_nan_midpoint_drops_only_its_bracket(self):
        def g(x):
            with np.errstate(divide="ignore"):
                return np.where(x == 0.0, np.nan, 1.0 / x - 0.5 * np.sign(x) - x)

        a, b = np.array([-1.0, 0.5, -2.0]), np.array([1.0, 2.0, -0.5])
        assert np.all(g(a) * g(b) < 0.0)
        got = bisect_brackets(g, a, b, g(a), 1e-12)
        # [-1, 1] meets the pole at its first midpoint; the others keep their
        # roots, in bracket order.
        want = [(-0.5 + math.sqrt(4.25)) / 2, (0.5 - math.sqrt(4.25)) / 2]
        assert got.tolist() == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("width", [1e-12, 1e-6, 1e-3])
    def test_every_point_is_within_width_of_a_sign_change(self, width):
        rng = np.random.default_rng(3)
        c = rng.uniform(-3.0, 3.0, 6)

        def g(x):
            return np.polynomial.polynomial.polyval(x, c) * np.cos(3.0 * x)

        xs = np.linspace(-4.0, 4.0, 401)
        gs = g(xs)
        i = np.flatnonzero(gs[:-1] * gs[1:] < 0.0)
        got = bisect_brackets(g, xs[i], xs[i + 1], gs[i], width)
        assert got.size == i.size
        assert np.all((xs[i] <= got) & (got <= xs[i + 1]))
        left, right = g(got - width / 2), g(got + width / 2)
        assert np.all((g(got) == 0.0) | (left * right <= 0.0))


class TestScanGrid:
    def test_a_domain_near_the_float_limit_scans_without_overflow(self, monkeypatch):
        # hi - lo is 1.6e308, so (hi - lo) * i overflows for every i >= 2;
        # those nodes scale i first. The nodes next to the fixed points -0.618 and 1.618
        # lie about 8e304 from them and overflow in x^2, so none is found.
        calls = spy_compose(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert find_cycles(parse_map("x^2 - 1", domain=(-8e307, 8e307)), 1) == []
        grid = calls[0][0]
        assert np.isfinite(grid).all() and (np.diff(grid) > 0).all()
        assert grid[0] == -8e307 and abs(grid[-1] - 8e307) <= 1e-15 * 8e307

    def test_ordinary_domains_keep_their_grid(self, monkeypatch):
        calls = spy_compose(monkeypatch)
        rng = np.random.default_rng(4)
        m = parse_map("x^2 - 1")
        for _ in range(200):
            # Widths up to 1e304, so (hi - lo) * (n - 1) stays finite.
            lo = rng.uniform(-10.0, 10.0) * 10.0 ** rng.integers(-5, 300)
            hi = lo + 10.0 ** rng.uniform(-12, 304)
            n = int(rng.integers(100, 2000))
            if not lo < hi:  # the width was lost to rounding
                continue
            calls.clear()
            find_cycles(dataclasses.replace(m, domain=(lo, hi)), 1, n)
            assert calls[0][0].tobytes() == (lo + (hi - lo) * np.arange(n) / (n - 1)).tobytes()


def g_of(m, T):
    """g = f^T - x over an array, NaN where f^T errs."""
    return lambda x: _iterate_array(m, np.asarray(x, dtype=float), T) - x


def spy_compose(monkeypatch) -> list:
    """(x, n, deriv) of every call of the compiled array forms from
    dfclab.cycles, x copied as it went in."""
    calls = []
    real = dfclab.cycles.compose_map_array

    def spy(m, x, n, deriv=False):
        calls.append((np.array(x, dtype=float), n, deriv))
        return real(m, x, n, deriv)

    monkeypatch.setattr(dfclab.cycles, "compose_map_array", spy)
    return calls


def probes_of(calls) -> list:
    """The probes of each pass of newton_brackets at T = 1: the argument of
    every call of the compiled (f, f') form."""
    return [x for x, _, deriv in calls if deriv]


def f_steps(calls) -> int:
    """The array calls of f or (f, f') that the calls stand for, one per
    step of f: an n-fold composition counts n."""
    return sum(n for _, n, _ in calls)


class TestNewtonBrackets:
    def test_exact_zero_ends_at_the_probe(self, monkeypatch):
        calls = spy_compose(monkeypatch)
        m = parse_map("2*x - 0.5")  # g = x - 0.5, 0.0 at the first probe
        got = newton_brackets(_orbit_g(m, 1), [0.0], [1.0], [-0.5], [0.5], BRACKET_WIDTH)
        assert got.tolist() == [0.5] and len(probes_of(calls)) == 1

    def test_an_erring_probe_drops_only_its_bracket(self):
        # g = 1/x - sign(x)/2 - x: the first probe of [-1, 1] is the pole.
        m = parse_map("1/x - 0.5*abs(x)/x", domain=(-2.0, 2.0))
        g = g_of(m, 1)
        a, b = np.array([-1.0, 0.5, -2.0]), np.array([1.0, 2.0, -0.5])
        assert np.all(g(a) * g(b) < 0.0)
        got = newton_brackets(_orbit_g(m, 1), a, b, g(a), g(b), BRACKET_WIDTH)
        want = [(-0.5 + math.sqrt(4.25)) / 2, (0.5 - math.sqrt(4.25)) / 2]
        assert got.tolist() == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("width", [1e-12, 1e-6, 1e-3])
    @pytest.mark.parametrize("T", [1, 2])
    def test_every_root_is_within_width_of_a_sign_change(self, width, T):
        rng = np.random.default_rng(3)
        poly = " + ".join(f"{c!r}*x^{k}" for k, c in enumerate(rng.uniform(-3.0, 3.0, 6).tolist()))
        m = parse_map(f"x + 0.2*({poly})*cos(7*x)", domain=(-1.5, 1.5))
        g = g_of(m, T)
        xs = np.linspace(-1.5, 1.5, 401)
        gs = g(xs)
        i = np.flatnonzero(gs[:-1] * gs[1:] < 0.0)
        got = newton_brackets(_orbit_g(m, T), xs[i], xs[i + 1], gs[i], gs[i + 1], width)
        assert i.size > 3 and got.size == i.size
        assert np.all((xs[i] <= got) & (got <= xs[i + 1]))
        at, left, right = g(got), g(got - width), g(got + width)
        assert np.all((at == 0.0) | (left * at <= 0.0) | (at * right <= 0.0))

    def test_roots_of_a_steep_g_are_close(self):
        # Each root ends a bracket no wider than BRACKET_WIDTH around a sign
        # change, and |g'| <= 4^6 + 1 for the logistic map at r = 4, T = 6.
        m = parse_map("logistic:r=4")
        g = g_of(m, 6)
        xs = np.linspace(0.0, 1.0, 1000)
        gs = g(xs)
        i = np.flatnonzero(gs[:-1] * gs[1:] < 0.0)
        got = newton_brackets(_orbit_g(m, 6), xs[i], xs[i + 1], gs[i], gs[i + 1], BRACKET_WIDTH)
        assert np.all(np.abs(g(got)) <= 4.0**6 * BRACKET_WIDTH)

    @pytest.mark.parametrize("a, b", [(0.299, 0.3023), (0.25, 0.3011), (0.0, 0.4)])
    def test_triple_root_takes_no_more_passes_than_bisection(self, monkeypatch, a, b):
        # g = (x - 0.3)^3: Newton alone closes in on 0.3 by a factor 2/3 a
        # pass, so two passes in a row fail to halve the bracket and a
        # midpoint probe follows.
        m = parse_map("x + (x - 0.3)^3")
        g = g_of(m, 1)
        calls = spy_compose(monkeypatch)
        got = newton_brackets(_orbit_g(m, 1), [a], [b], g([a]), g([b]), BRACKET_WIDTH)
        probes = [float(x[0]) for x in probes_of(calls)]
        assert len(probes) <= math.ceil(math.log2((b - a) / BRACKET_WIDTH))
        assert abs(got[0] - 0.3) <= 1e-5 and (g(got)[0] == 0.0 or len(probes) > 1)
        lo, hi, midpoints = a, b, 0
        for x in probes[1:]:
            midpoints += x == 0.5 * (lo + hi)
            lo, hi = (lo, x) if (g([lo])[0] < 0.0) != (g([x])[0] < 0.0) else (x, hi)
        assert midpoints >= 1

    def test_a_bracket_across_a_pole_is_dropped(self):
        # g = 1/(x - 0.3) - 2 changes sign across its pole at 0.3, where |g|
        # grows without bound, and at its root 0.8.
        m = parse_map("x + 1/(x - 0.3) - 2", domain=(0.0, 1.0))
        g = g_of(m, 1)
        a, b = np.array([0.0, 0.6]), np.array([0.5, 1.0])
        assert np.all(g(a) * g(b) < 0.0)
        got = newton_brackets(_orbit_g(m, 1), a, b, g(a), g(b), BRACKET_WIDTH)
        assert got.tolist() == pytest.approx([0.8], abs=1e-12)

    def test_pole_brackets_are_dropped_before_the_polish(self, monkeypatch):
        # 37 of the 75 grid brackets straddle a pole of f^6. Refined and then
        # polished as if they were roots, they took 335 array calls.
        calls = spy_compose(monkeypatch)
        cycles = find_cycles(parse_map("0.3/x - 1.6*x", domain=(-1.0, 1.0)), 6)
        assert len(cycles) == 8 and f_steps(calls) <= 240

    def test_logistic_period_nine_takes_at_most_200_array_calls(self, monkeypatch):
        # Bisection to a 1e-12 bracket, a Newton polish of its ends and the
        # re-evaluation of both took 512 (313 f, 199 f and f').
        calls = spy_compose(monkeypatch)
        cycles = find_cycles(parse_map("logistic:r=4"), 9)
        assert len(cycles) == 56 and f_steps(calls) <= 200

    def test_one_call_per_refinement_pass_and_polish_step(self, monkeypatch):
        # Each g call of newton_brackets and of the polish composes f^9 and
        # its slope in one call of the compiled form, not nine.
        calls, per_g = spy_compose(monkeypatch), []
        real = dfclab.cycles._orbit_g

        def orbit_g(m, T):
            g = real(m, T)

            def counted(x):
                before = len(calls)
                out = g(x)
                per_g.append([(n, deriv) for _, n, deriv in calls[before:]])
                return out

            return counted

        monkeypatch.setattr(dfclab.cycles, "_orbit_g", orbit_g)
        assert len(find_cycles(parse_map("logistic:r=4"), 9)) == 56
        assert len(per_g) > 5 and all(c == [(9, True)] for c in per_g)


def bisect_and_polish(m, T, a, b, ga, gb, width):
    """The root stage newton_brackets replaced, as the oracle: bisection of
    every bracket to width, a Newton polish of each end, kept unless it
    raises |g|."""
    lo, hi = m.domain
    g = g_of(m, T)
    ends = bisect_brackets(g, a, b, ga, width)
    polished = _newton_polish(m, ends, T, lo, hi)
    return np.where(np.abs(g(polished)) <= np.abs(g(ends)), polished, ends)


# The find_cycles jobs of the benchmark's dynamics workload, and maps with poles.
DYNAMICS = (
    [("logistic:r=4", None, T) for T in (5, 6, 7, 8, 9)]
    + [("r*x*(1-x)", None, T) for T in (5, 6, 7)]
    + [(f"cubic:b={b}", None, T) for b in (2.6, 2.8) for T in (1, 2, 3, 4, 5)]
    + [(f"quadratic:c={c}", None, T) for c in (-1.9, -1.3) for T in (1, 2, 3, 4)]
    + [(f"logistic:r={r}", None, T) for r in (3.7, 3.9) for T in (1, 2, 3, 4, 5)]
    + [("logistic:r=3.8284272", None, 3)]
)
POLES = (
    [("0.3/x - 1.6*x", (-1.0, 1.0), T) for T in (1, 2, 3, 6)]
    + [("2.5*x - 0.02/x - 3*x^3", (-1.0, 1.0), T) for T in (1, 2, 3)]
    + [("exp(x^2) - 2", (-3.0, 3.0), T) for T in (1, 2, 3)]
    + [("abs(x) - 1/x", (-2.0, 2.0), 2)]
)


class TestAgainstBisectionAndPolish:
    @pytest.mark.parametrize("source, domain, T", DYNAMICS + POLES)
    def test_same_orbits_to_rounding(self, monkeypatch, source, domain, T):
        m = parse_map(source, params={"r": 4.0} if source.startswith("r*") else None, domain=domain)
        got = find_cycles(m, T)
        monkeypatch.setattr(dfclab.cycles, "newton_brackets",
                            lambda g, *bracket: bisect_and_polish(m, T, *bracket))
        want = find_cycles(m, T)
        assert len(got) == len(want)
        for c, w in zip(got, want):
            for u, v in ((c.points, w.points), (c.multipliers, w.multipliers)):
                assert np.all(np.abs(np.subtract(u, v)) <= 1e-10 * (1.0 + np.abs(v)))


class TestSeenAnchors:
    def test_the_nearest_anchors_decide_as_a_scan_of_all_would(self):
        rng = np.random.default_rng(5)
        anchors = sorted(rng.uniform(-1.0, 1.0, 300).tolist())
        probes = rng.uniform(-1.1, 1.1, 2000).tolist() + [
            c + d for c in anchors[::7]
            for d in (ORBIT_TOL, -ORBIT_TOL, 1.5 * ORBIT_TOL, -0.5 * ORBIT_TOL)]
        for x in probes:
            assert _seen(anchors, x) == any(abs(x - c) <= ORBIT_TOL for c in anchors), x
        assert not _seen([], 0.0)
