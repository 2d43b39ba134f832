"""Tests for map parsing, evaluation, and forward-mode derivatives."""

import collections
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dfclab.maps
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
    compose_map_array,
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

    @pytest.mark.parametrize("source", ["logistic", "r*x"])
    def test_params_are_read_as_floats_on_both_paths(self, source):
        for value in (4, "4", " 4.0 "):
            params = parse_map(source, params={"r": value}).params
            assert params == {"r": 4.0} and type(params["r"]) is float, (source, value)
        with pytest.raises(ValueError, match="could not convert string to float: 'four'"):
            parse_map(source, params={"r": "four"})

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

    def test_designator_with_spaces_and_blank_items(self):
        m = parse_map("  cubic : , b = 2.8 ,, ")
        assert (m.name, m.params, m.source) == ("cubic", {"b": 2.8}, "cubic : , b = 2.8 ,,")


WHITESPACE = st.text(" \t\n", max_size=3)
VALID_EXPRESSIONS = ["x", "2.5*x", "sin(x) - x^2", "r*x*(1-x)", "abs(x)/3"]
# A token that may not follow a complete expression, and a bad operand of an operator.
STRAY_TOKENS = ["$", ")", "x", "sinh(x)", "1.2.3", ":", "=", ",", "?"]
BAD_ATOMS = ["sinh(x)", "$", ")", "^", "1.2.3", "1e+"]
BAD_VALUES = ["l", "x", "1.2.3", "4$", "nan", "inf", "-inf", "1e999", "4 5", "r", "1:2"]
BAD_ITEMS = ["r", "r 4", "4", "$"]


@st.composite
def faulty_sources(draw):
    """(source, offending text): a source whose first fault is a token
    starting with that text, amid random whitespace."""
    ws = [draw(WHITESPACE) for _ in range(4)]
    kind = draw(st.sampled_from(["stray", "atom", "value", "item"]))
    if kind in ("stray", "atom"):
        expr = draw(st.sampled_from(VALID_EXPRESSIONS))
        if kind == "stray":
            bad = draw(st.sampled_from(STRAY_TOKENS))
            body = f"{expr}{ws[1] or ' '}{bad}"
        else:
            bad = draw(st.sampled_from(BAD_ATOMS))
            body = f"{expr}{ws[1]}{draw(st.sampled_from('+-*/'))}{ws[2]}{bad}"
        return f"{ws[0]}{body}{ws[3]}", bad
    name, key = draw(st.sampled_from([("logistic", "r"), ("quadratic", "c"), ("cubic", "b")]))
    good = draw(st.sampled_from(["", f"{key}=1.5,{ws[2]}"]))
    if kind == "value":
        bad = draw(st.sampled_from(BAD_VALUES))
        item = f"{key}{ws[1]}={ws[2]}{bad}"
    else:
        bad = draw(st.sampled_from(BAD_ITEMS))
        item = bad
    return f"{ws[0]}{name}{ws[1]}:{ws[2]}{good}{item}{ws[3]}", bad


class TestErrorPositions:
    """A MapSyntaxError's position is a 0-based offset into the source as
    passed, leading whitespace included."""

    @pytest.mark.parametrize("source, position", [
        ("logistic:r=l", 11),
        ("logistic:r=4,i", 13),
        ("   x^", 5),
        ("  sinh(x)", 2),
    ])
    def test_pinned_positions(self, source, position):
        with pytest.raises(MapSyntaxError) as err:
            parse_map(source)
        assert err.value.position == position

    @given(faulty_sources())
    @settings(max_examples=300, deadline=None)
    @example(("logistic:r=l", "l"))
    @example(("   x^ $", "$"))
    def test_position_starts_the_offending_token(self, case):
        source, bad = case
        with pytest.raises(MapSyntaxError) as err:
            parse_map(source, params={"r": 2.0})
        assert source[err.value.position:].startswith(bad)


class TestDeepSources:
    @pytest.mark.parametrize("source", ["+".join(["x"] * 1000), "(" * 300 + "x" + ")" * 300],
                             ids=["1000-term sum", "300 parentheses"])
    def test_too_deep_a_source_is_a_map_error(self, source):
        with pytest.raises(MapError, match="nested too deeply"):
            parse_map(source)

    def test_a_900_term_sum_still_works(self):
        assert eval_map(parse_map("+".join(["x"] * 900)), 0.5) == 450.0


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

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        ast=ASTS,
        p=st.sampled_from([1.3, 0.0, -2.5, 1e200]),
        xs=st.lists(_FLOATS, min_size=1, max_size=12),
        n=st.integers(1, 4),
    )
    # 1/(x - 0.5) errs at the second step from 2.5, which the first maps to 0.5.
    @example(ast=Bin("/", Num(1.0), Bin("-", Var("x"), Num(0.5))), p=0.0, xs=[2.5, 1.0], n=3)
    def test_n_fold_forms_equal_n_one_step_calls(self, ast, p, xs, n):
        # Values, the slope product and the union of the masks, bit for bit,
        # erring elements included.
        m = MapSpec(kind="expression", domain=(0.0, 1.0), ast=ast, params={"p": p})
        x = np.array(xs)
        y, bad = x, np.zeros(x.shape, dtype=bool)
        yd, slope, bad_d = x, 1.0, np.zeros(x.shape, dtype=bool)
        with np.errstate(all="ignore"):  # the slope product may overflow
            for _ in range(n):
                y, b = eval_map_array(m, y)
                yd, d, b_d = eval_map_deriv_array(m, yd)
                bad, slope, bad_d = bad | b, slope * d, bad_d | b_d
            got, got_d = compose_map_array(m, x, n), compose_map_array(m, x, n, deriv=True)
        assert [v.tobytes() for v in got] == [y.tobytes(), bad.tobytes()]
        assert [v.tobytes() for v in got_d] == [yd.tobytes(), slope.tobytes(), bad_d.tobytes()]

    def test_power_rule_lowers_the_first_and_zeroth_powers(self, monkeypatch):
        # n u^(n-1) u' takes u for pow(u, 1) and 1.0 for pow(u, 0), which
        # pow returns for every u, so f' keeps its bits and calls pow only
        # for the value u^n.
        exponents = []
        float_power = dfclab.maps._CODE_GLOBALS["float_power"]
        monkeypatch.setitem(dfclab.maps._CODE_GLOBALS, "float_power",
                            lambda x, n: exponents.append(n) or float_power(x, n))
        edges = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.5, -3.0, 1e308, -1e308,
                 math.inf, -math.inf, math.nan]
        for source, n, u, du in (("x^2", 2, lambda x: x, 1.0), ("x^1", 1, lambda x: x, 1.0),
                                 ("(-x)^2", 2, lambda x: -x, -1.0),
                                 ("(-x)^1", 1, lambda x: -x, -1.0)):
            exponents.clear()
            _, derivs, _ = eval_map_deriv_array(parse_map(source), edges)
            want = [n * math.pow(u(x), n - 1) * du for x in edges]
            assert [d.hex() for d in derivs.tolist()] == [w.hex() for w in want], source
            assert exponents == [n], source

    @pytest.mark.parametrize("source", ["x", "2.0", "x + 1", "-x", "abs(x)", "x^1", "x^0"])
    @pytest.mark.parametrize("shape, n", [((4,), 1), ((4,), 3), ((2, 2), 1), ((2, 2), 3), ((), 1)])
    def test_forms_never_return_their_input(self, source, shape, n):
        # A step assigns what depends on x as it is and copies the rest: the
        # bare x and what is free of x. Either way every array is new. The
        # one-step public forms also take a 0-d x; compose_map_array does not.
        m = parse_map(source)
        x = np.array([0.25, -0.5, 1.5, -0.0])[: math.prod(shape)].reshape(shape)
        before, want = x.tobytes(), x.ravel().tolist()
        for _ in range(n):
            want = [eval_map(m, v) for v in want]
        forms = {"fa": lambda: compose_map_array(m, x, n),
                 "fda": lambda: compose_map_array(m, x, n, deriv=True)} if shape else {}
        if n == 1:
            forms.update(eval_map_array=lambda: eval_map_array(m, x),
                         eval_map_deriv_array=lambda: eval_map_deriv_array(m, x))
        for form, call in forms.items():
            outs = call()
            assert outs[0].ravel().tolist() == want, (source, form)
            for out in outs:
                assert isinstance(out, np.ndarray) and out.shape == shape, (source, form)
                assert not np.shares_memory(out, x), (source, form)
                out[...] = 1
                assert x.tobytes() == before, (source, form)

    def test_fresh_is_called_only_for_values_free_of_x(self, monkeypatch):
        # The builtins and x + 1 carry a non-finite x to a non-finite value,
        # so the value is checked once, after the n = 9 steps, and the input
        # not at all: 1 isfinite for fa. fda also checks the derivative
        # factor of each step: 9 + 1. No fresh where the step's value and
        # derivative depend on x.
        calls = collections.Counter()
        for name in ("fresh", "isfinite"):
            real = dfclab.maps._CODE_GLOBALS[name]
            monkeypatch.setitem(dfclab.maps._CODE_GLOBALS, name,
                                lambda *args, name=name, real=real: calls.update([name])
                                or real(*args))
        x = np.linspace(-0.5, 0.5, 5)
        for source in ("logistic:r=3.9", "quadratic:c=-1.3", "cubic:b=2.8"):
            m = parse_map(source)
            for deriv, checks in ((False, 1), (True, 9 + 1)):
                calls.clear()
                compose_map_array(m, x, 9, deriv=deriv)
                assert calls == {"isfinite": checks}, (source, deriv)
        # The derivative of x + 1 is the constant 1.0: fresh makes it an array.
        calls.clear()
        compose_map_array(parse_map("x + 1"), x, 9, deriv=True)
        assert calls == {"fresh": 9, "isfinite": 9 + 1}


def one_step_calls(m, x, n):
    """f^n and (f^n)' by n calls of the one-step public forms, the masks or'ed:
    (values, bad) and (values, slopes, bad)."""
    y, bad = x, np.zeros(x.shape, dtype=bool)
    yd, slope, bad_d = x, 1.0, np.zeros(x.shape, dtype=bool)
    with np.errstate(all="ignore"):  # the slope product may overflow
        for _ in range(n):
            y, b = eval_map_array(m, y)
            yd, d, b_d = eval_map_deriv_array(m, yd)
            bad, slope, bad_d = bad | b, slope * d, bad_d | b_d
    return (y, bad), (yd, slope, bad_d)


class TestFinitenessChecks:
    """A map that absorbs (has exp, tanh, a quotient, u^n with n <= 0 or a
    value free of x) checks its input and every step; any other carries a
    non-finite x to a non-finite value and checks its value once, after the
    last step. Either way the n-fold masks equal n one-step calls'."""

    @pytest.mark.parametrize("source, x0, n", [
        ("1e308/x", 0.5, 2),  # inf, then 1e308/inf = 0
        ("1e308*exp(-x)", -1.0, 2),  # inf, then 1e308*exp(-inf) = 0
        ("1e308*(1 - tanh(x))", -2.0, 2),  # inf, then 1 - tanh(inf) = 0
        ("1e308*x^-2", 0.5, 2),  # inf, then inf^-2 = 0
        ("x^0", math.inf, 3),  # a non-finite input, then 1.0
        ("x^0", math.nan, 3),
        ("2.5", math.inf, 3),  # free of x: the input is checked
        ("exp(1e308*(1 - x))", -10.0, 2),  # exp(inf) = inf, then exp(-inf) = 0
    ])
    def test_a_step_turned_finite_later_stays_flagged(self, source, x0, n):
        m = parse_map(source)
        x = np.array([x0, 0.25])
        (y, bad), (yd, slope, bad_d) = one_step_calls(m, x, n)
        assert bad[0] and bad_d[0] and np.isfinite(y[0]), source  # the case is exercised
        with np.errstate(all="ignore"):
            got, got_d = compose_map_array(m, x, n), compose_map_array(m, x, n, deriv=True)
        assert [v.tobytes() for v in got] == [y.tobytes(), bad.tobytes()], source
        assert [v.tobytes() for v in got_d] == [yd.tobytes(), slope.tobytes(),
                                                bad_d.tobytes()], source

    @pytest.mark.parametrize("source, x0", [
        ("quadratic:c=-1.3", 1e200),  # pow overflows and raises at the first step
        ("quadratic:c=-1.3", 1e100),  # ... at the second
        ("cubic:b=2.8", 1e120),
        ("logistic:r=3.9", 1e200),  # -inf from numpy's multiply, no raise
        ("logistic:r=3.9", -1e160),  # finite, then -inf
        ("x + exp(-x)", -800.0),  # exp raises, x + NaN stays NaN
    ])
    @pytest.mark.parametrize("n", [2, 5])
    def test_an_overflow_chain_is_flagged_once_at_the_end(self, source, x0, n):
        m = parse_map(source)
        x = np.array([x0, -x0, 0.25, math.inf, math.nan])
        (y, bad), (yd, slope, bad_d) = one_step_calls(m, x, n)
        with np.errstate(all="ignore"):
            got, got_d = compose_map_array(m, x, n), compose_map_array(m, x, n, deriv=True)
        assert [v.tobytes() for v in got] == [y.tobytes(), bad.tobytes()]
        assert [v.tobytes() for v in got_d] == [yd.tobytes(), slope.tobytes(), bad_d.tobytes()]
        assert bad[0] and bad[3:].all()

    # isfinite calls of fa over 4 steps: 1 after the loop where the map does
    # not absorb; else 1 for the input, 1 a step and 2 a step for each pow
    # mask (every pow but u^0 and u^1).
    @pytest.mark.parametrize("source, checks", [
        ("logistic:r=3.9", 1), ("sin(x)*abs(x) - x^3", 1), ("-cos(x)", 1),
        ("abs(x)", 1), ("sin(x)", 1), ("cos(x)", 1), ("x^3 - 2*x^2", 1),
        ("x + exp(-x)", 1 + 4), ("exp(x)", 1 + 4), ("tanh(x)", 1 + 4),
        ("x + tanh(x)", 1 + 4), ("1/x", 1 + 4), ("x/(1 + x*x)", 1 + 4),
        ("x^2/3", 1 + 4 + 2 * 4), ("x^0", 1 + 4), ("(x - 1)^0 * x", 1 + 4),
        ("x^-2", 1 + 4 + 2 * 4), ("x + x^-1", 1 + 4 + 2 * 4), ("2.5", 1 + 4),
        ("exp(-x^2) + x^3", 1 + 4 + 2 * 2 * 4),
    ])
    def test_where_the_value_is_checked(self, source, checks, monkeypatch):
        calls = []
        isfinite = dfclab.maps._CODE_GLOBALS["isfinite"]
        monkeypatch.setitem(dfclab.maps._CODE_GLOBALS, "isfinite",
                            lambda v: calls.append(v) or isfinite(v))
        compose_map_array(parse_map(source), np.array([0.25, 0.5]), 4)
        assert len(calls) == checks, source


class TestPowMasks:
    """pow raises where its base is finite and its value is not. In a map
    that does not absorb, its value reaches the checked value and flags
    itself there; a map that absorbs gives every pow but u^0 and u^1 a mask
    line of its own."""

    POINTS = [0.0, 0.5, -0.5, 1e103, -1e103, 1e155, -1e155, 1e200, -1e200]

    # x^3 overflows at +-1e103 and x^2 at +-1e155, where tanh, exp, abs' sign
    # and a divisor turn inf into a finite value: those maps absorb and mask
    # their pows. x^-2*x absorbs too and masks x^-2 (inf at 0). In 1e200^2 + x
    # the overflow reaches the value, so no mask is emitted and the check
    # after the last step flags it.
    @pytest.mark.parametrize("source", ["tanh(x^3)", "exp(-x^2)", "x + tanh(x^3)", "1/x^2 + x",
                                        "tanh(abs(x^3))", "x^-2*x", "1e200^2 + x"])
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("deriv", [False, True])
    def test_masks_and_values_equal_the_scalar_forms(self, source, n, deriv):
        m = parse_map(source)
        got = compose_map_array(m, np.array(self.POINTS), n, deriv=deriv)
        for i, x0 in enumerate(self.POINTS):
            x, slope = x0, 1.0
            try:
                for _ in range(n):
                    if deriv:
                        slope = slope * eval_map_deriv(m, x)
                    x = eval_map(m, x)
            except MapEvalError:
                assert got[-1][i], (source, x0)
                continue
            assert not got[-1][i] and got[0][i].hex() == x.hex(), (source, x0)
            if deriv:
                assert got[1][i].hex() == slope.hex(), (source, x0)

    @pytest.mark.parametrize("source", ["logistic:r=3.9", "quadratic:c=-1.3", "cubic:b=2.8",
                                        "r*x*(1-x)"])
    def test_the_builtins_emit_no_pow_mask(self, source):
        # x^2 + c, b*x - x^3 and the factor 3*x^2 of cubic' reach the
        # checked value or derivative factor. None of these maps absorbs, so
        # fa checks its value once, after the loop.
        m = parse_map(source, params={"r": 4.0} if source == "r*x*(1-x)" else None)
        for form in ("fa", "fda"):
            assert "~isfinite" not in dfclab.maps._lower(m.ast, m.params, {}, {}, form), form
        lines = dfclab.maps._lower(m.ast, m.params, {}, {}, "fa").splitlines()
        assert [line for line in lines if "isfinite" in line] == ["    good &= isfinite(x)"]
        assert lines[-2:] == ["    good &= isfinite(x)", "    return x, ~good"]

    @pytest.mark.parametrize("source", ["quadratic:c=-1.3", "cubic:b=2.8"])
    def test_a_builtin_step_makes_one_pow_call(self, source, monkeypatch):
        calls = collections.Counter()
        for name in ("float_power", "isfinite"):
            real = dfclab.maps._CODE_GLOBALS[name]
            monkeypatch.setitem(dfclab.maps._CODE_GLOBALS, name,
                                lambda *args, name=name, real=real: calls.update([name])
                                or real(*args))
        compose_map_array(parse_map(source), np.linspace(-0.5, 0.5, 5), 9)
        assert calls == {"float_power": 9, "isfinite": 1}


def _signed(lo, hi):
    return st.floats(lo, hi) | st.floats(-hi, -lo)


# Finite doubles, subnormals among them, and bases whose low powers overflow
# (x^3 past 5.6e102, x^2 past 1.3e154) or whose negative powers do, then the
# signed zeros, the infinities and NaN.
_POW_BASES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), _signed(1e102, 1e104),
    _signed(1e153, 1e155), _signed(1e307, 1.7976931348623157e308), _signed(5e-324, 1e-150),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
)


class TestLibmCalls:
    BASES = [1e200, -1e200, 2.0, -3.0, 1e-300, 0.0, -0.0, 1e154, math.inf, -math.inf, math.nan]

    @staticmethod
    def float_power(base, e):
        """The generated code's pow and its flags: where the base is finite and the value not."""
        with np.errstate(all="ignore"):
            got = dfclab.maps._CODE_GLOBALS["float_power"](base, e)
        return got, ~np.isfinite(got) & np.isfinite(base)

    @pytest.mark.parametrize("n", range(-6, 13))
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(bases=st.lists(_POW_BASES, min_size=1, max_size=40))
    def test_float_power_is_libm_pow(self, n, bases):
        # Every exponent the lowering emits for small n, over an array as the
        # array forms call it. numpy's float_power is its generic loop over
        # C pow: it equals math.pow and the scalar form's ** bit for bit, and
        # it is not finite at a finite base exactly where they raise. (A
        # signalling NaN to the power 0 gives NaN in C pow and 1.0 in
        # math.pow; no map form meets one unflagged.) A numpy build that
        # dispatched a SIMD loop for float_power would fail here.
        got, flagged = self.float_power(np.array(bases), float(n))
        for b, v, f in zip(bases, got.tolist(), flagged.tolist()):
            try:
                want = math.pow(b, float(n))
            except (ArithmeticError, ValueError):
                assert f, (b, n, v)
                with pytest.raises((ArithmeticError, ValueError)):
                    b ** n
                continue
            assert not f and v.hex() == want.hex() == (b ** n).hex(), (b, n)

    @pytest.mark.parametrize("e", [2.0, 3.0, -2.0, 0.0, 1.0])
    def test_pow_of_array_equals_math_pow_and_power_operator(self, e):
        # Values at flagged elements are unspecified.
        got, flagged = self.float_power(np.array(self.BASES).reshape(1, -1), e)
        assert got.shape == flagged.shape == (1, len(self.BASES))
        for b, v, f in zip(self.BASES, got[0].tolist(), flagged[0].tolist()):
            try:
                want = math.pow(b, e)
            except (ArithmeticError, ValueError):
                assert f, (b, e)
                with pytest.raises((ArithmeticError, ValueError)):
                    b ** int(e)
                continue
            assert not f and v.hex() == want.hex() == (b ** int(e)).hex(), (b, e)

    def test_pow_of_finite_bases_raises_nothing(self):
        got, flagged = self.float_power(np.array([2.0, -3.0, 0.5]), 3.0)
        assert not flagged.any() and got.tolist() == [8.0, -27.0, 0.125]

    @pytest.mark.parametrize("base, e", [(1.5, 3.0), (-2.0, 2.0), (1e200, 2.0), (0.0, -1.0)])
    def test_a_float_base_free_of_x(self, base, e):
        got, flagged = self.float_power(base, e)
        try:
            want = math.pow(base, e)
        except (ArithmeticError, ValueError):
            assert flagged
            return
        assert not flagged and float(got).hex() == want.hex() == (base ** int(e)).hex()

    def test_a_constant_power_in_a_map(self):
        m = parse_map("2^3*x + (-1.5)^2")
        xs = [0.25, -1.0, 3.0]
        values, bad = eval_map_array(m, xs)
        assert not bad.any() and values.tolist() == [eval_map(m, x) for x in xs]
        assert eval_map_array(parse_map("1e200^2 + x"), xs)[1].tolist() == [True] * 3

    def test_unary_call_keeps_the_shape(self):
        x = np.array([[0.5, -1.0], [math.inf, 2.0]])
        got, raised = dfclab.maps._CODE_GLOBALS["vsin"](x)
        assert raised.tolist() == [[False, False], [True, False]]
        assert got[0].tolist() == [math.sin(0.5), math.sin(-1.0)] and got[1, 1] == math.sin(2.0)


class TestDomainWidth:
    @pytest.mark.parametrize("domain", [(0.0, math.inf), (-math.inf, 0.0), (-1e308, 1e308),
                                        (-math.inf, math.inf)])
    def test_a_domain_whose_width_overflows_is_rejected(self, domain):
        # The fixed points of x^2 - 1 lie inside each, but hi - lo is inf.
        with pytest.raises(ValueError, match="finite width"):
            parse_map("x^2 - 1", domain=domain)

    def test_the_widest_finite_domain_is_accepted(self):
        assert parse_map("x^2 - 1", domain=(-8e307, 8e307)).domain == (-8e307, 8e307)


class TestDeepSpecsPrintAndCompare:
    def test_a_900_term_sum_prints_compares_and_hashes(self):
        source = "+".join(["x"] * 900)
        m, again = parse_map(source), parse_map(source)
        assert repr(m).count("Var(name='x')") == 900
        assert m == again and hash(m.ast) == hash(again.ast)
        assert m != parse_map("+".join(["x"] * 899 + ["1"]))

    def test_repr_reads_as_the_dataclass_fields(self):
        ast = Bin("+", Var("x"), Pow(Neg(Call("sin", Num(-0.5))), 2))
        assert repr(ast) == ("Bin(op='+', left=Var(name='x'), right=Pow(base=Neg(operand="
                             "Call(func='sin', arg=Num(value=-0.5))), exponent=2))")

    @pytest.mark.parametrize("other", [
        Bin("-", Var("x"), Num(1.0)),
        Bin("+", Num(1.0), Var("x")),
        Bin("+", Var("x"), Num(-1.0)),
        Bin("+", Var("y"), Num(1.0)),
        Call("cos", Var("x")),
    ])
    def test_different_trees_compare_unequal(self, other):
        ast = Bin("+", Var("x"), Num(1.0))
        assert ast == Bin("+", Var("x"), Num(1.0)) and ast != other
        spec = MapSpec(kind="expression", domain=(0.0, 1.0), ast=ast, params={"y": 0.0})
        assert spec != MapSpec(kind="expression", domain=(0.0, 1.0), ast=other, params={"y": 0.0})

    def test_constants_compare_to_the_bit(self):
        assert Num(0.0) != Num(-0.0) and Num(0.5) == Num(0.5)
        assert Num(0.5) != 0.5
