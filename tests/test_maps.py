"""Tests for map parsing, evaluation, and forward-mode derivatives."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfclab.maps import (
    Bin,
    Call,
    MapError,
    MapEvalError,
    MapOverflowError,
    MapSpec,
    MapSyntaxError,
    Neg,
    Num,
    Pow,
    Var,
    eval_map,
    eval_map_array,
    eval_map_deriv,
    eval_map_deriv_array,
    format_ast,
    parse_map,
)


def central_diff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2 * h)


def assert_near_central_difference(m, x, exact, h=1e-6):
    """exact = f'(x), checked against central differences of eval_map where
    they resolve f (x and f(x) moderate, f(x + h) != f(x - h)), agree across
    step sizes and agree with both one-sided differences (no kink, pole or
    wild curvature near x)."""
    try:
        f = {k: eval_map(m, x + k * h) for k in (-10, -1, 0, 1, 10)}
    except MapError:
        return
    d6, d5 = (f[1] - f[-1]) / (2 * h), (f[10] - f[-10]) / (20 * h)
    up, down = (f[1] - f[0]) / h, (f[0] - f[-1]) / h
    spread = max(abs(d6 - d5), abs(up - down) / 1e3)
    resolved = abs(x) < 1e3 and abs(f[0]) < 1e3 and f[1] != f[-1]
    if not (resolved and spread <= 1e-6 * (1.0 + abs(d6))):
        return  # the oracle itself is unreliable here
    assert abs(exact - d6) <= 1e-5 * (1.0 + abs(exact)) + 10 * spread


class TestParse:
    def test_builtin_designator(self):
        m = parse_map("logistic:r=4")
        assert m.kind == "builtin"
        assert m.name == "logistic"
        assert m.params == {"r": 4.0}

    def test_expression_with_param(self):
        m = parse_map("r*x*(1-x)", params={"r": 4.0})
        assert m.kind == "expression"
        assert eval_map(m, 0.25) == pytest.approx(0.75, abs=1e-15)

    def test_dangling_power_reports_position(self):
        with pytest.raises(MapSyntaxError) as err:
            parse_map("x^")
        assert err.value.position == 2

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(MapSyntaxError, match="non-integer exponent"):
            parse_map("x^2.5")

    def test_identifier_exponent_rejected(self):
        with pytest.raises(MapSyntaxError):
            parse_map("x^y", params={"y": 2.0})

    def test_negative_integer_exponent(self):
        m = parse_map("x^-2", domain=(0.5, 3.0))
        assert eval_map(m, 2.0) == pytest.approx(0.25)

    def test_unknown_identifier(self):
        with pytest.raises(MapError, match="unknown identifier"):
            parse_map("a*x")

    def test_unknown_function(self):
        with pytest.raises(MapSyntaxError, match="unknown function"):
            parse_map("sinh(x)")

    def test_missing_builtin_parameter(self):
        with pytest.raises(MapError, match="missing parameter"):
            parse_map("logistic")

    def test_unknown_builtin_parameter(self):
        with pytest.raises(MapError, match="unknown parameter"):
            parse_map("logistic:r=4,q=1")

    def test_bad_domain(self):
        with pytest.raises(ValueError):
            parse_map("logistic:r=4", domain=(1.0, 0.0))

    def test_stray_token(self):
        with pytest.raises(MapSyntaxError):
            parse_map("x x")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_designator_value_reports_its_position(self, value):
        source = f"logistic: r={value}"
        with pytest.raises(MapSyntaxError, match="not finite") as err:
            parse_map(source)
        assert err.value.position == source.index(value)

    @pytest.mark.parametrize("source", ["r*x", "logistic"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_is_rejected(self, source, value):
        with pytest.raises(MapError, match="finite"):
            parse_map(source, params={"r": value})


class TestEval:
    def test_logistic_fixed_point(self):
        m = parse_map("logistic:r=4")
        assert eval_map(m, 0.75) == pytest.approx(0.75, abs=1e-15)

    def test_logistic_half(self):
        m = parse_map("logistic:r=3.2")
        assert eval_map(m, 0.5) == pytest.approx(0.8, abs=1e-15)

    def test_quadratic(self):
        m = parse_map("quadratic:c=-1")
        assert eval_map(m, 0.0) == pytest.approx(-1.0, abs=0)

    def test_cubic(self):
        # cubic(b): f(x) = b*x - x^3
        m = parse_map("cubic:b=2.5")
        assert eval_map(m, 1.0) == pytest.approx(1.5, abs=1e-15)

    def test_division_by_zero(self):
        m = parse_map("1/x", domain=(-1.0, 1.0))
        with pytest.raises(MapEvalError):
            eval_map(m, 0.0)

    def test_overflow_flagged(self):
        m = parse_map("exp(x)", domain=(0.0, 1e9))
        with pytest.raises(MapOverflowError):
            eval_map(m, 1e9)

    def test_power_overflow_flagged(self):
        m = parse_map("x^2", domain=(-1, 1))
        with pytest.raises(MapOverflowError):
            eval_map(m, 1e200)

    def test_derivative_overflow_flagged(self):
        with pytest.raises(MapOverflowError):
            eval_map_deriv(parse_map("exp(x)"), 1000.0)

    def test_non_finite_input_rejected(self):
        m = parse_map("logistic:r=4")
        with pytest.raises(MapEvalError):
            eval_map(m, float("inf"))


class TestDeriv:
    def test_logistic_slope_at_fixed_point(self):
        m = parse_map("logistic:r=4")
        d = eval_map_deriv(m, 0.75)
        assert d == pytest.approx(-2.0, abs=1e-12)
        oracle = central_diff(lambda x: eval_map(m, x), 0.75)
        assert abs(d - oracle) <= 1e-6

    def test_logistic_slope_at_zero_is_r(self):
        for r in (2.0, 3.2, 3.9):
            m = parse_map(f"logistic:r={r}")
            assert eval_map_deriv(m, 0.0) == pytest.approx(r, abs=1e-12)

    def test_sin_slope_at_zero(self):
        m = parse_map("sin(x)")
        assert eval_map_deriv(m, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_abs_right_derivative_at_zero(self):
        m = parse_map("abs(x)", domain=(-1.0, 1.0))
        assert eval_map_deriv(m, 0.0) == 1.0

    def test_deriv_matches_finite_difference_on_builtins(self):
        rng = np.random.default_rng(0)
        specs = [
            parse_map("logistic:r=3.7"),
            parse_map("quadratic:c=-1.2"),
            parse_map("cubic:b=2.3"),
        ]
        for _ in range(1000):
            m = specs[int(rng.integers(len(specs)))]
            lo, hi = m.domain
            x = float(rng.uniform(lo + 0.01, hi - 0.01))
            exact = eval_map_deriv(m, x)
            approx = central_diff(lambda t: eval_map(m, t), x)
            assert abs(exact - approx) <= 1e-5 * (1.0 + abs(exact))


def random_ast(rng, depth=3):
    """Random expression tree over x and parameter p."""
    if depth == 0 or rng.random() < 0.3:
        choice = rng.random()
        if choice < 0.4:
            return Num(round(float(rng.uniform(-3, 3)), 3))
        if choice < 0.8:
            return Var("x")
        return Var("p")
    kind = rng.random()
    if kind < 0.55:
        op = ["+", "-", "*", "/"][int(rng.integers(4))]
        return Bin(op, random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    if kind < 0.7:
        return Neg(random_ast(rng, depth - 1))
    if kind < 0.85:
        fn = ["sin", "cos", "exp", "tanh", "abs"][int(rng.integers(5))]
        return Call(fn, random_ast(rng, depth - 1))
    return Pow(random_ast(rng, depth - 1), int(rng.integers(0, 4)))


class TestRoundTrip:
    def test_print_parse_round_trip(self):
        rng = np.random.default_rng(42)
        trees = 0
        while trees < 100:
            ast = random_ast(rng)
            text = format_ast(ast)
            m1 = parse_map(text, params={"p": 1.3})
            m0 = MapSpec(kind="expression", domain=m1.domain, ast=ast, params={"p": 1.3})
            checked = 0
            for _ in range(100):
                x = float(rng.uniform(-2, 2))
                try:
                    y1 = eval_map(m1, x)
                except MapError:
                    continue
                y0 = eval_map(m0, x)
                assert abs(y1 - y0) <= 1e-12 * (1.0 + abs(y0))
                checked += 1
            if checked:
                trees += 1


class TestDualRules:
    def test_product_rule(self):
        # d/dx (2 + x)(3 + x/2) = (3 + x/2) + (2 + x)/2, which is 4 at x = 0
        assert eval_map_deriv(parse_map("(2 + x)*(3 + 0.5*x)"), 0.0) == 4.0

    def test_chain_rule_on_random_expressions(self):
        # abs() kinks invalidate finite differences, so trees here are smooth;
        # draws where the difference-quotient oracle is not self-consistent
        # across step sizes (wild curvature) are discarded before comparing.
        rng = np.random.default_rng(7)

        def smooth_ast(depth=3):
            node = random_ast(rng, depth)
            text = format_ast(node)
            return None if "abs" in text else node

        done = 0
        while done < 200:
            ast = smooth_ast()
            if ast is None:
                continue
            m = parse_map(format_ast(ast), params={"p": 0.7})
            x = float(rng.uniform(-1.5, 1.5))
            try:
                exact = eval_map_deriv(m, x)
                d6 = central_diff(lambda t: eval_map(m, t), x, h=1e-6)
                d5 = central_diff(lambda t: eval_map(m, t), x, h=1e-5)
            except MapError:
                continue
            if not all(math.isfinite(v) for v in (exact, d6, d5)):
                continue
            oracle_spread = abs(d6 - d5)
            if oracle_spread > 1e-6 * (1.0 + abs(d6)):
                continue  # oracle itself unreliable here
            assert abs(exact - d6) <= 1e-5 * (1.0 + abs(exact)) + 10 * oracle_spread
            done += 1

    def test_division_derivative(self):
        m = parse_map("x/(1+x)", domain=(0.0, 5.0))
        # d/dx x/(1+x) = 1/(1+x)^2
        assert eval_map_deriv(m, 1.0) == pytest.approx(0.25, abs=1e-12)

    def test_integer_power_derivative(self):
        m = parse_map("x^3", domain=(-2, 2))
        assert eval_map_deriv(m, 2.0) == pytest.approx(12.0, abs=1e-12)


# Each builtin next to the plain-Python formula it must reproduce exactly.
BUILTIN_FORMULAS = {
    "logistic": ("r", lambda x, r: r * x * (1 - x)),
    "quadratic": ("c", lambda x, c: x**2 + c),
    "cubic": ("b", lambda x, b: b * x - x**3),
}


class TestBuiltinFormulas:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        name=st.sampled_from(sorted(BUILTIN_FORMULAS)),
        x=st.floats(-1e3, 1e3),
        param=st.floats(-10.0, 10.0),
    )
    def test_eval_matches_formula_bit_for_bit(self, name, x, param):
        key, formula = BUILTIN_FORMULAS[name]
        m = parse_map(f"{name}:{key}={param!r}")
        assert eval_map(m, x).hex() == formula(x, param).hex()


# Values that reach each error of the scalar form: zero divisors (x = p,
# signed zeros), overflow of * and ^ (1e200), exp overflow (710), sin/cos of
# an infinity, NaN, and numbers whose powers underflow.
SPECIAL_FLOATS = [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 1.3, 1e-200, -1e-200,
                  1e200, -1e200, 710.0, -710.0, math.inf, -math.inf, math.nan]
_FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
_LEAVES = st.one_of(
    st.builds(Num, _FLOATS.filter(math.isfinite)), st.just(Var("x")), st.just(Var("p"))
)
ASTS = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(
        st.builds(Bin, st.sampled_from("+-*/"), kids, kids),
        st.builds(Neg, kids),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp", "tanh", "abs"]), kids),
        st.builds(Pow, kids, st.integers(-4, 4)),
    ),
    max_leaves=8,
)


class TestArrayForm:
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(
        ast=ASTS,
        p=st.sampled_from([1.3, 0.0, -2.5, 1e200]),
        xs=st.lists(_FLOATS, min_size=1, max_size=12),
    )
    def test_equals_eval_map_bit_for_bit_and_flags_its_errors(self, ast, p, xs):
        # The array f form, and the array (f, f') form whose mask also
        # covers the points where eval_map_deriv raises.
        m = MapSpec(kind="expression", domain=(0.0, 1.0), ast=ast, params={"p": p})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, bad = eval_map_array(m, np.array(xs))
            values_d, derivs, bad_d = eval_map_deriv_array(m, np.array(xs))
        assert values.shape == bad.shape == derivs.shape == bad_d.shape == (len(xs),)
        for i, x in enumerate(xs):
            try:
                want = eval_map(m, x)
            except MapEvalError:
                assert bad[i] and bad_d[i], f"{format_ast(ast)} raises at x={x!r}, unflagged"
                continue
            assert not bad[i], f"{format_ast(ast)} flagged at x={x!r} but returns {want!r}"
            assert values[i].hex() == want.hex(), f"{format_ast(ast)} at x={x!r}"
            try:
                slope = eval_map_deriv(m, x)
            except MapEvalError:
                assert bad_d[i], f"{format_ast(ast)}' raises at x={x!r} but is not flagged"
                continue
            assert not bad_d[i], f"{format_ast(ast)}' flagged at x={x!r} but returns {slope!r}"
            assert values_d[i].hex() == want.hex(), f"{format_ast(ast)} at x={x!r}"
            assert derivs[i].hex() == slope.hex(), f"{format_ast(ast)}' at x={x!r}"
            assert_near_central_difference(m, x, slope)

    def test_derivative_edge_cases(self):
        # u^n has derivative n u^(n-1) u' for every n: x^-3 at 1e200 gives
        # u^-4 = 0 (u^3 would overflow), and x^0 has derivative 0 at x = 0,
        # where u^-1 is not defined.
        for source, x, f, slope in (("x^-3", 1e200, 0.0, -0.0), ("x^0", 0.0, 1.0, 0.0)):
            values, derivs, bad = eval_map_deriv_array(parse_map(source), [x])
            assert (values[0], derivs[0].hex(), bad[0]) == (f, slope.hex(), False)
            assert eval_map_deriv(parse_map(source), x).hex() == slope.hex()

    def test_builtins_on_a_grid(self):
        xs = np.linspace(-3.0, 3.0, 2001)
        for source in ("logistic:r=3.9", "quadratic:c=-1.3", "cubic:b=2.8"):
            m = parse_map(source)
            values, bad = eval_map_array(m, xs)
            assert not bad.any()
            assert values.tolist() == [eval_map(m, x) for x in xs.tolist()]

    def test_root_is_a_new_array(self):
        xs = np.array([0.25, 0.5])
        for source, want in (("x", [0.25, 0.5]), ("2", [2.0, 2.0])):
            values, bad = eval_map_array(parse_map(source), xs)
            assert values is not xs and values.tolist() == want
            values[0] = 9.0
            assert xs.tolist() == [0.25, 0.5]
