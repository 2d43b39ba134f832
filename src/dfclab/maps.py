"""Scalar 1-D maps f: R -> R with exact first derivatives.

Every map is an expression over the variable ``x`` with named parameters.
The builtins (``logistic``, ``quadratic``, ``cubic``) are stored expression
sources addressed by a designator such as ``"logistic:r=4"``. ``parse_map``
reads either from one list of tokens over the source, whitespace between
tokens ignored::

    source     = designator | expr
    designator = builtin [":" [item] {"," [item]}]
    item       = key "=" value
    expr       = term {("+" | "-") term}
    term       = factor {("*" | "/") factor}
    factor     = ("-" | "+") factor | atom {"^" ["+" | "-"] number}
    atom       = number | name | function "(" expr ")" | "(" expr ")"
    function   = "sin" | "cos" | "exp" | "tanh" | "abs"

A source is a designator when its first token is the name of a builtin
followed by ":" or by the end. Blank items are skipped. A key is the text
before an item's first "=", and a value the text from there to the item's
end, read by ``float()``; it must be finite. A number is digits and dots
with an optional exponent (e or E, then a sign or a digit, then digits and
dots), and must read as a float; an exponent after "^" must be an integer.
A name is a letter or "_", then letters, digits and "_"; ``x`` is the
variable, and any other name must be bound as a parameter. A
``MapSyntaxError``'s ``position`` is the 0-based offset of the fault in the
source as passed, leading whitespace included.

Each MapSpec compiles its parsed AST once into three Python functions, each
built from the straight-line code of one step of f:

- f at a float, behind ``eval_map``;
- f^n over a numpy array, behind ``eval_map_array`` (n = 1), which returns
  the values and a mask of the elements on which ``eval_map`` raises at some
  step;
- f^n and (f^n)' over a numpy array, behind ``eval_map_deriv_array`` (n = 1,
  and ``eval_map_deriv``, a call on one element), with f' exact to rounding
  by forward-mode differentiation rather than a finite-difference estimate,
  and (f^n)' the product of f' along the orbit.

The array forms loop over that step n times in one call, so a T-fold
composition pays the call's fixed cost once. For every n they equal n
successive calls at n = 1 bit for bit. ``compose_map_array`` calls them
under ``np.errstate(all="ignore")``; ``eval_map_array``,
``eval_map_deriv_array`` and ``cycles`` go through it. Only the step loop
of ``basin_fraction`` calls the one-step form directly, inside its own
``np.errstate``.

A step of an array form makes few numpy calls, since on small arrays
each call costs about as much as its arithmetic. Every constant it reads
is a read-only 0-d float64 array: the parameters, the numbers and the
pow exponents, which are bound per map, and the float literals of its
code (the 0.0 and 1.0 of the derivative rules, after Python's constant
folding), which ``_code`` swaps in once per map shape. numpy converts a
Python float operand on every call: on 64 elements with numpy 2.4 an op
with one cost 590 ns, and with a 0-d float64 array 390 ns, for the same
bits. The price is an op between two constants, such as 2*3, which
becomes a numpy call on two 0-d arrays that gives a numpy scalar; none
of the builtins has one. The scalar form keeps Python floats, on which
Python's own arithmetic is the fast path.

A step keeps one running mask of the good elements, and'ed with
``isfinite`` of each value it checks and inverted once at return, and
assigns its value and derivative as it made them wherever they depend on
x. Where the checks go is decided once per map. A map *absorbs* when it
has an exp or tanh call, a quotient, a power u^n with n <= 0, or a value
free of x: each may take a non-finite operand to a finite value
(exp(-inf) is 0.0, 1/inf is 0.0, inf^0 is 1.0). Every other operation
carries a non-finite operand to a non-finite value: ``+ - *``, unary
minus, abs and u^n with n >= 1 do, and sin and cos raise on +-inf. In a
map that does not absorb, all three builtins among them, a step that is
not finite leaves every later one not finite, and one ``isfinite`` of
the value after the last step stands for the input's and every step's.
Where the step of ``fa`` has no mask line (no sin or cos call, whose
raises it masks), that check is assigned as the mask rather than and'ed
into True, one call fewer. A map that absorbs checks the input and each
step's value. The derivative factor of every step is checked either way,
so the mask of (f^n)' is the union of the one-step masks even where the
product overflows. Only the bare x and a value or derivative free of x
are copied into a new array (``fresh``), so no form returns its input.
The derivative rules multiply in no factor that is exactly 1.0 (the
derivative of x, or u^0 in the power rule), since y * 1.0 is y.

``^`` raises in the scalar form exactly where its base is finite and its
value is not: an overflow, or 0 to a negative power. The array forms get
+-inf there. In a map that does not absorb, that value reaches the
checked one and is flagged there, at no extra line; the u^(n-1) of a
power rule overflows only where u^n does. A map that absorbs gives each
pow but u^0 and u^1 a mask line of its own in the step,
``isfinite(t) | ~isfinite(b)``.

The array forms equal ``eval_map`` bit for bit wherever their mask is clear.
``+ - * /`` and ``abs`` are correctly rounded IEEE operations in numpy as in
Python. ``^``, exp, tanh, sin and cos are not. The scalar form gets them
from libm (``**`` calls C ``pow``), and a numpy loop equals that only where
it calls libm once per element. ``np.float_power`` is numpy's generic
``dd->d`` loop over C ``pow``, so ``^`` lowers to it, with its exponent
bound as a 0-d float64 array. It matched ``math.pow`` bit for bit on 1.5
million bases for each exponent from -6 to 12 (given as floats). The bases
included +-0.0, subnormals, +-inf, NaN and overflowing values, and the
non-finite values at finite bases fell exactly where ``math.pow`` raises.
``tests/test_maps.py`` holds this as a property. ``np.power`` is not a
plain libm loop: on an AVX-512 host it differed from ``pow`` on 27,288 of
1,000,000 cubes on [-2, 2]. ``x*x`` differed from ``pow(x, 2)`` on 1,723
of 2,000,000 squares. numpy's exp and tanh differed from libm on 13,799
and 58,803 of 300,000 values on [-20, 20]. Its sin and cos matched there,
but numpy dispatches SIMD loops for them on other CPUs. So the array forms
call exp, tanh, sin and cos element by element, through ``math.exp``,
``math.tanh``, ``math.sin`` and ``math.cos`` (see ``_elementwise``). The
derivative of u^n is n u^(n-1) u' for every integer n, with u^1 lowered
to u and u^0 to 1.0, which is what ``pow`` returns for them at every u.
"""

from __future__ import annotations

import functools
import math
import re
import types
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple, Union

import numpy as np

__all__ = [
    "MapError",
    "MapSyntaxError",
    "MapEvalError",
    "MapOverflowError",
    "MapSpec",
    "parse_map",
    "eval_map",
    "eval_map_deriv",
    "eval_map_array",
    "eval_map_deriv_array",
    "compose_map_array",
    "format_ast",
    "BUILTIN_MAPS",
]


class MapError(Exception):
    """Base error for map parsing and evaluation."""


class MapSyntaxError(MapError):
    """Malformed map source; ``position`` is the 0-based offset of the fault
    in the source as passed to ``parse_map``, leading whitespace included."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class MapEvalError(MapError):
    """Domain error during evaluation (e.g. division by zero)."""


class MapOverflowError(MapEvalError):
    """Evaluation produced a non-finite value."""


# ---------------------------------------------------------------------------
# Expression AST
# ---------------------------------------------------------------------------


class _Node:
    """An AST node whose repr, == and hash walk the tree with a stack rather
    than recursion, so every tree that parse_map builds prints and compares,
    however deep. Nodes are equal when their reprs are: alike in shape and
    names, with constants alike to the bit (0.0 and -0.0 differ)."""

    def __repr__(self) -> str:
        out, todo = [], [self]
        while todo:
            item = todo.pop()
            if isinstance(item, str):  # text already rendered
                out.append(item)
                continue
            parts = [f"{type(item).__qualname__}("]
            for i, f in enumerate(fields(item)):
                v = getattr(item, f.name)
                parts += [", " * (i > 0) + f"{f.name}=", v if isinstance(v, _Node) else repr(v)]
            todo += reversed(parts + [")"])
        return "".join(out)

    def __eq__(self, other):
        return repr(self) == repr(other) if isinstance(other, _Node) else NotImplemented

    def __hash__(self) -> int:
        return hash(repr(self))


@dataclass(frozen=True, eq=False, repr=False)
class Num(_Node):
    value: float


@dataclass(frozen=True, eq=False, repr=False)
class Var(_Node):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Bin(_Node):
    op: str  # one of + - * /
    left: "Node"
    right: "Node"


@dataclass(frozen=True, eq=False, repr=False)
class Pow(_Node):
    base: "Node"
    exponent: int


@dataclass(frozen=True, eq=False, repr=False)
class Neg(_Node):
    operand: "Node"


@dataclass(frozen=True, eq=False, repr=False)
class Call(_Node):
    func: str
    arg: "Node"


Node = Union[Num, Var, Bin, Pow, Neg, Call]

_FUNCTIONS = ("sin", "cos", "exp", "tanh", "abs")


def format_ast(node: Node) -> str:
    """Render an AST back to parseable source text."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"-({format_ast(node.operand)})"
    if isinstance(node, Call):
        return f"{node.func}({format_ast(node.arg)})"
    if isinstance(node, Pow):
        base = format_ast(node.base)
        # A negative literal must keep its parens: -2^4 reparses as -(2^4).
        atomic = isinstance(node.base, (Var, Call)) or (
            isinstance(node.base, Num) and node.base.value >= 0
        )
        if not atomic:
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, Bin):
        lhs = format_ast(node.left)
        rhs = format_ast(node.right)
        return f"({lhs} {node.op} {rhs})"
    raise TypeError(f"unknown AST node {node!r}")


# ---------------------------------------------------------------------------
# Compilation to straight-line Python
# ---------------------------------------------------------------------------


def _elementwise(fn: Callable) -> Callable:
    """``fn`` of Python's math module applied element by element to an array
    x, or to a float free of x (a constant argument) read as a 0-d array.

    Returns the float results, shaped like x, and the mask of the elements
    on which fn raised, or None when none did. Errors are rare, so a call
    first runs unguarded and is repeated with a guard round each element
    (``_guarded``) only when some element raised.

    The array forms call exp, tanh, sin and cos this way, since numpy's
    loops for them are not libm's. Its exp and tanh round differently in the
    last bit on 13,799 and 58,803 of 300,000 values on [-20, 20]. Its sin and
    cos matched on that AVX-512 host, but numpy dispatches SIMD loops for
    them on other CPUs. ``^`` has a numpy loop that is libm's,
    ``np.float_power`` (see the module docstring).
    """

    def call(x):
        if type(x) is not np.ndarray:
            x = np.asarray(x, dtype=float)
        try:
            return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape), None
        except (ArithmeticError, ValueError):
            return _guarded(fn, x)

    return call


def _guarded(fn: Callable, x: np.ndarray):
    """fn of each element of x, NaN where it raises: the results shaped like
    x, and the mask of the elements on which fn raised."""

    def one(v):
        try:
            return fn(v)
        except (ArithmeticError, ValueError):
            return math.nan

    out = np.fromiter(map(one, x.ravel().tolist()), float, x.size)
    out = out.reshape(x.shape)
    # No call here returns NaN from a non-NaN argument without raising.
    return out, np.isnan(out) & ~np.isnan(x)


def _fresh(v, x):
    """v, which is x or free of x, as a new float array of x's shape."""
    return np.full(x.shape, v, dtype=float)


# Globals of the generated code, besides its bound constants c0, c1, ...
# The v-prefixed functions, divide, range and the rest serve the array forms.
_CODE_GLOBALS = {
    "__builtins__": {},
    "range": range,
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "tanh": math.tanh,
    "abs": abs,
    "vsin": _elementwise(math.sin),
    "vcos": _elementwise(math.cos),
    "vexp": _elementwise(math.exp),
    "vtanh": _elementwise(math.tanh),
    "float_power": np.float_power,
    "divide": np.divide,
    "where": np.where,
    "isfinite": np.isfinite,
    "fresh": _fresh,
}

# Forward-mode rules for the derivative of a node: the chain rule multiplies
# each function's derivative at {a} by the argument's derivative. {v} is the
# node's value, {a} the argument's value and {g} the named libm call on {a};
# l/ld and r/rd are the operands' values and derivatives, with "0.0" for the
# derivative of an operand free of x.
_CALL_DERIVS = {
    "sin": ("cos", "{g}"),
    "cos": ("sin", "-{g}"),
    "exp": (None, "{v}"),
    "tanh": (None, "(1.0 - {v} * {v})"),
    # At 0 the right-hand derivative (+1) is used, by convention.
    "abs": (None, "where({a} >= 0.0, 1.0, -1.0)"),
}
_BIN_DERIVS = {
    "+": lambda l, r, ld, rd: f"{ld} + {rd}",
    "-": lambda l, r, ld, rd: f"{ld} - {rd}",
    "*": lambda l, r, ld, rd: f"{_times(l, rd)} + {_times(ld, r)}",
    "/": lambda l, r, ld, rd: f"divide({_times(ld, r)} - {_times(l, rd)}, {r} * {r})",
}


def _times(a: str, b: str) -> str:
    """a * b, or the other factor where one is 1.0: y * 1.0 is y exactly."""
    return b if a == "1.0" else a if b == "1.0" else f"{a} * {b}"


def _lower(ast: Node, params: dict, ns: dict, bound: dict, form: str) -> str:
    """Return the source of the function ``form`` computing ast, one line per node.

    ``form`` is "f" for ``f(x)`` at a float x. The array forms take an array x
    and a step count n >= 1 and run the lines of one step of f n times: "fa"
    gives ``fa(x, n) -> (f^n(x), bad)``, with the mask of the elements on which
    some step of f raises, and "fda" gives ``fda(x, n) -> (f^n(x), (f^n)'(x),
    bad)``, with the mask of the elements on which f or f' is not finite at
    some step. (f^n)' is the product 1.0 * f'(x_0) * f'(x_1) * ... along the
    orbit, taken left to right. So the array forms equal n successive calls at
    n = 1 bit for bit, their masks or'ed. Each node yields the names of its
    value and derivative. The derivative is None for a node that does not
    depend on x: it enters the rules above as a constant with derivative 0.0;
    outside "fda" no node has one. The array forms spell f's operations with
    the same rounding and keep a running mask ``good``, inverted once at
    return. It is and'ed with the nonzero divisors, the elements where no exp,
    tanh, sin or cos call raised and, in "fda", the finite derivative factors
    of each step. Where f does not absorb (see the module docstring), it starts
    as True and is and'ed with the finite values after the last step, or, in
    an "fa" whose step has no mask line, is assigned them there. Otherwise
    it starts as the finite inputs and is and'ed with the finite values of each
    step and, for each pow but u^0 and u^1, with ``isfinite(t) | ~isfinite(b)``
    for its value t and base b: ``float_power`` returns +-inf where ``**``
    raises. Values at flagged elements are unspecified. A step's value and
    derivative are arrays of x's shape that the step made, and are assigned as
    they are, wherever they depend on x; the lowering tracks which names do as
    it emits them. ``fresh`` copies the others into a new array: the bare x,
    and a value or derivative free of x. A parameter named like the variable
    shadows it; any other name must be a parameter. Constants, the float
    exponents of ``pow`` among them, are bound in ``ns``, as floats for "f"
    and as read-only 0-d arrays (``_constant``) for the array forms, which
    read n of a power rule's factor n u^(n-1) from its exponent's; ``bound``
    keeps their names.
    """
    lines: list[str] = []
    dx = "1.0" if form == "fda" else None
    array = form != "f"
    shaped = {"x"}  # the names of arrays of x's shape: x and what depends on it
    pows: list[tuple[str, str]] = []  # the value and base of each pow that may raise
    absorbs = False  # set by a construct that may take a non-finite operand to a finite value

    def let(expr: str, *args) -> str:
        # args are the names expr reads: it has x's shape if one of them has.
        name = f"t{len(lines)}"
        lines.append(f"{name} = {expr}")
        if not shaped.isdisjoint(args):
            shaped.add(name)
        return name

    def libm(func: str, a: str) -> str:
        if not array:
            return let(f"{func}({a})")
        v = f"t{len(lines)}"
        lines.append(f"{v}, raised = v{func}({a})")
        lines.append("if raised is not None: good &= ~raised")
        if a in shaped:
            shaped.add(v)
        return v

    def power(b: str, n: int) -> str:
        if not array:
            return let(f"{b} ** {n}", b)
        v = let(f"float_power({b}, {const(('pow', n), float(n))})", b)
        if n not in (0, 1):  # pow(u, 0) is 1.0 and pow(u, 1) is u: neither raises
            pows.append((v, b))
        return v

    def const(key, value) -> str:
        if key not in bound:
            bound[key] = f"c{len(bound)}"
            ns[bound[key]] = _constant(value) if array else value
        return bound[key]

    def walk(node: Node) -> tuple[str, str | None]:
        nonlocal absorbs
        if isinstance(node, Num):
            return const(id(node), node.value), None
        if isinstance(node, Var):
            if node.name in params:
                return const(node.name, params[node.name]), None
            if node.name != "x":
                unbound.add(node.name)
            return "x", dx
        if isinstance(node, Neg):
            u, d = walk(node.operand)
            return let(f"-{u}", u), None if d is None else let(f"-{d}", d)
        if isinstance(node, Call):
            a, ad = walk(node.arg)
            v = let(f"abs({a})", a) if node.func == "abs" else libm(node.func, a)
            absorbs |= node.func in ("exp", "tanh")  # exp(-inf) is 0.0, tanh(inf) 1.0
            if ad is None:
                return v, None
            g, rule = _CALL_DERIVS[node.func]
            g = libm(g, a) if g else None
            d = _times(rule.format(a=a, v=v, g=g), ad)
            return v, d if d in (g, v) else let(d, a)  # g or v needs no line
        if isinstance(node, Pow):
            b, bd = walk(node.base)
            n = node.exponent
            v = power(b, n)
            absorbs |= n <= 0  # pow(inf, 0) is 1.0 and pow(inf, -n) is 0.0
            if bd is None:
                return v, None
            if n == 0:  # u^-1 would raise at u = 0
                return v, "0.0"
            if n == 1:  # 1 * pow(u, 0) * u' is u' exactly, for every u
                return v, bd
            # pow(u, 1) is u exactly, for every u.
            u = b if n == 2 else power(b, n - 1)
            return v, let(_times(f"{const(('pow', n), float(n))} * {u}", bd), u, bd)
        if isinstance(node, Bin):
            l, ld = walk(node.left)
            r, rd = walk(node.right)
            if array and node.op == "/":
                v = let(f"divide({l}, {r})", l, r)
                lines.append(f"good &= {r} != 0.0")
            else:
                v = let(f"{l} {node.op} {r}", l, r)
            absorbs |= node.op == "/"  # c / inf is 0.0
            if ld is None and rd is None:
                return v, None
            ld, rd = ld or "0.0", rd or "0.0"
            # The sum rules read only ld and rd, the others l and r too.
            if node.op in "+-":
                return v, let(_BIN_DERIVS[node.op](l, r, ld, rd), ld, rd)
            return v, let(_BIN_DERIVS[node.op](l, r, ld, rd), l, r)
        raise TypeError(f"unknown AST node {node!r}")

    unbound: set[str] = set()
    v, d = walk(ast)
    if unbound:
        raise MapError(
            f"unknown identifier(s) {sorted(unbound)}; bind parameters via params/--param"
        )
    if not array:
        return "\n    ".join(["def f(x):", *lines, f"return {v}"]) + "\n"
    # A map whose value is free of x absorbs too. One that does not absorb
    # carries a non-finite x or pow to a non-finite value, so a step that is
    # not finite leaves x_n not finite: one check after the loop covers the
    # input, every step and every pow. A map that absorbs checks the input
    # and every step, and masks each pow where it raises: where its base is
    # finite and its value is not.
    absorbs |= v not in shaped
    check = "good &= isfinite(x)"
    if absorbs:
        lines += [f"good &= isfinite({t}) | ~isfinite({b})" for t, b in pows]
    head, ret = [], "x, ~good"
    if dx is not None:
        d = d or "0.0"
        if d not in shaped:
            d = let(f"fresh({d}, x)")
        head.append("slope = 1.0")
        lines += [f"good &= isfinite({d})", f"slope = slope * {d}"]
        ret = "x, slope, ~good"
    if v == "x" or v not in shaped:
        v = f"fresh({v}, x)"
    lines.append(f"x = {v}")
    if absorbs:
        lines.append(check)
    loop = "for _ in range(n):\n        " + "\n        ".join(lines)
    if "good &=" in loop:
        head.insert(0, "good = isfinite(x)" if absorbs else "good = True")
        tail = [] if absorbs else [check]
    else:  # no mask line in the step: the one check after it is the mask
        tail = ["good = isfinite(x)"]
    return "\n    ".join([f"def {form}(x, n):", *head, loop, *tail, f"return {ret}"]) + "\n"


def _compile(ast: Node, params: dict) -> tuple[Callable, Callable, Callable]:
    """Compile ast into ``f(x) -> f`` at a float x, and over an array x into
    ``fa(x, n) -> (values, bad)`` and ``fda(x, n) -> (values, derivatives,
    bad)`` for f^n (see ``_lower``).

    Constants and parameter values are bound in the functions' namespaces,
    never formatted into their text, so every float keeps its exact value:
    as floats in the scalar form's, and as read-only 0-d arrays in the one
    the array forms share.
    """
    scalar, arrays = dict(_CODE_GLOBALS), dict(_CODE_GLOBALS)
    bound: dict = {}
    exec(_code(_lower(ast, params, scalar, {}, "f"), False), scalar)
    exec(_code(_lower(ast, params, arrays, bound, "fa")
               + _lower(ast, params, arrays, bound, "fda"), True), arrays)
    return scalar.pop("f"), arrays.pop("fa"), arrays.pop("fda")


@functools.lru_cache(maxsize=256)
def _code(src: str, arrays: bool):
    """src compiled; with ``arrays``, each float literal of its functions
    (after Python's constant folding) is a read-only 0-d float64 array
    (``_constant``). Maps of one shape (a builtin at any parameter value)
    share their text, and so this code and its literals."""
    code = compile(src, "<map>", "exec")
    if not arrays:
        return code
    forms = tuple(c.replace(co_consts=tuple(_constant(v) if type(v) is float else v
                                            for v in c.co_consts))
                  if isinstance(c, types.CodeType) else c
                  for c in code.co_consts)
    return code.replace(co_consts=forms)


def _constant(value: float) -> np.ndarray:
    """value as a read-only 0-d float64 array, as the array forms read their
    constants: numpy converts a Python float operand on every call."""
    c = np.array(float(value))
    c.setflags(write=False)
    return c


# ---------------------------------------------------------------------------
# Tokenizer / recursive-descent parser
# ---------------------------------------------------------------------------


# One token per match, after any whitespace: a number is digits and dots, with
# an exponent only where a digit or sign follows e/E; a name is a letter or _
# then letters, digits and _; every other non-space character is a token of
# its own, of kind "bad" where no rule reads it.
_TOKEN = re.compile(
    r"\s*(?:(?P<num>[\d.]+(?:[eE](?=[\d+-])[+-]?[\d.]*)?)|(?P<ident>[^\W\d]\w*)"
    r"|(?P<sym>[-+*/^(),:=])|(?P<bad>\S))"
)


class _Token(NamedTuple):
    kind: str  # num, ident, bad, end, or a symbol's own text
    text: str
    pos: int

    @property
    def end(self) -> int:
        return self.pos + len(self.text)


def _tokenize(source: str) -> list[_Token]:
    """The tokens of source at their offsets in it, then an "end" token where
    the last one ends (at 0 in a blank source)."""
    tokens = []
    for m in _TOKEN.finditer(source):
        kind, text = m.lastgroup, m[m.lastgroup]
        tokens.append(_Token(text if kind == "sym" else kind, text, m.start(kind)))
    return tokens + [_Token("end", "", tokens[-1].end if tokens else 0)]


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self, *kinds: str) -> _Token | None:
        """The next token, consumed, if its kind is one of kinds; else None."""
        tok = self.tokens[self.i]
        if tok.kind not in kinds:
            return None
        self.i += 1
        return tok

    def parse(self) -> Node:
        for tok in self.tokens:  # a token no rule reads is an error before any other
            if tok.kind == "num":
                try:
                    float(tok.text)
                except ValueError:
                    raise MapSyntaxError(f"bad number literal {tok.text!r}", tok.pos) from None
            elif tok.kind in ("bad", ":", "=", ","):
                raise MapSyntaxError(f"unexpected character {tok.text!r}", tok.pos)
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise MapSyntaxError(f"unexpected {tok.text!r}", tok.pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while op := self.take("+", "-"):
            node = Bin(op.text, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while op := self.take("*", "/"):
            node = Bin(op.text, node, self.factor())
        return node

    def factor(self) -> Node:
        if self.take("-"):
            return Neg(self.factor())
        if self.take("+"):
            return self.factor()
        node = self.atom()
        while self.take("^"):
            node = Pow(node, self.int_exponent())
        return node

    def int_exponent(self) -> int:
        sign = self.take("+", "-")
        tok = self.peek()
        if tok.kind != "num":
            raise MapSyntaxError("expected integer exponent", tok.pos)
        value = float(tok.text)
        if not value.is_integer():
            raise MapSyntaxError("non-integer exponent", tok.pos)
        self.i += 1
        return -int(value) if sign and sign.kind == "-" else int(value)

    def atom(self) -> Node:
        tok = self.peek()
        self.i += 1
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "ident" and not self.take("("):
            return Var(tok.text)
        if tok.kind == "ident":
            if tok.text not in _FUNCTIONS:
                raise MapSyntaxError(f"unknown function {tok.text!r}", tok.pos)
            node = Call(tok.text, self.expr())
        elif tok.kind == "(":
            node = self.expr()
        else:
            raise MapSyntaxError(f"unexpected {tok.text or 'end of input'!r}", tok.pos)
        if not self.take(")"):
            raise MapSyntaxError("expected 'rparen'", self.peek().pos)
        return node


# ---------------------------------------------------------------------------
# MapSpec and builtins
# ---------------------------------------------------------------------------

# name -> (parameter names, expression source, default domain)
BUILTIN_MAPS = {
    "logistic": (("r",), "r*x*(1-x)", (0.0, 1.0)),
    "quadratic": (("c",), "x^2 + c", (-2.0, 2.0)),
    "cubic": (("b",), "b*x - x^3", (-2.0, 2.0)),
}

_DEFAULT_EXPR_DOMAIN = (0.0, 1.0)


@dataclass(frozen=True)
class MapSpec:
    """Immutable description of a scalar map; all operations on it are pure.

    ``ast`` is the parsed expression and ``params`` binds its parameters to
    finite numbers (a non-finite one is a MapError).
    ``kind`` and ``name`` are descriptive: ``"builtin"`` with the builtin's
    name, or ``"expression"`` with name None. ``domain`` is the closed
    interval searched for cycles, lo < hi with a finite width hi - lo (a
    ValueError otherwise). The AST is compiled once, at construction, into
    the functions behind eval_map, eval_map_array and eval_map_deriv_array.
    """

    kind: str
    domain: tuple[float, float]
    name: str | None = None
    params: dict[str, float] = field(default_factory=dict)
    ast: Node | None = None
    source: str = ""
    _f: Callable = field(init=False, repr=False, compare=False)
    _fa: Callable = field(init=False, repr=False, compare=False)
    _fda: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo, hi = self.domain
        if not (lo < hi and math.isfinite(hi - lo)):
            raise ValueError(f"domain requires lo < hi and a finite width hi - lo, got [{lo}, {hi}]")
        if self.ast is None:
            raise ValueError("MapSpec requires a parsed ast (see parse_map)")
        bad = {k: v for k, v in self.params.items() if not math.isfinite(v)}
        if bad:
            raise MapError(f"parameters must be finite numbers, got {bad}")
        for name, fn in zip(("_f", "_fa", "_fda"), _compile(self.ast, self.params)):
            object.__setattr__(self, name, fn)


def parse_map(
    source: str,
    params: dict[str, float] | None = None,
    domain: tuple[float, float] | None = None,
) -> MapSpec:
    """Parse a builtin designator or an expression in x into a MapSpec (see
    the module docstring for the grammar).

    Free identifiers of an expression must be bound through ``params``; a
    designator's own values override them. Each value of ``params`` is read
    by ``float()``, on both paths, so one it cannot read is a ValueError.
    A source nested too deeply to
    parse or compile within Python's recursion limit is a MapError.
    """
    params = {k: float(v) for k, v in (params or {}).items()}
    tokens = _tokenize(source)
    head = tokens[0]
    if head.kind == "ident" and head.text in BUILTIN_MAPS and tokens[1].kind in (":", "end"):
        kind, name = "builtin", head.text
        required, expr, default_domain = BUILTIN_MAPS[name]
        params.update(_designator_params(source, tokens[2:]))
        missing = [p for p in required if p not in params]
        if missing:
            raise MapError(f"builtin {name!r} missing parameter(s): {missing}")
        extra = [p for p in params if p not in required]
        if extra:
            raise MapError(f"builtin {name!r} got unknown parameter(s): {extra}")
        tokens = _tokenize(expr)
    else:
        kind, name, default_domain = "expression", None, _DEFAULT_EXPR_DOMAIN
    try:
        ast = _Parser(tokens).parse()
        return MapSpec(kind=kind, domain=domain or default_domain, name=name, params=params,
                       ast=ast, source=source.strip())
    except RecursionError:
        raise MapError("map source is nested too deeply to parse and compile") from None


def _designator_params(source: str, tokens: list[_Token]) -> dict[str, float]:
    """The key=val items of a designator, from its tokens after the colon.

    Items are split at the "," tokens, and an item at its first "=" token;
    blank items are skipped. A value is the text of source from the "=" to
    the item's last token, read by float(), and must be finite.
    """
    params = {}
    item: list[_Token] = []
    for tok in tokens:
        if tok.kind not in (",", "end"):
            item.append(tok)
            continue
        if item:
            kinds = [t.kind for t in item]
            if "=" not in kinds:
                text = source[item[0].pos : item[-1].end]
                raise MapSyntaxError(f"expected key=val in designator, got {text!r}", item[0].pos)
            eq = kinds.index("=")
            val = source[item[eq].end : item[-1].end]
            at = (item + [tok])[eq + 1].pos  # the value's first token, or the item's end
            try:
                value = float(val)
            except ValueError:
                raise MapSyntaxError(f"bad parameter value {val!r}", at) from None
            if not math.isfinite(value):
                raise MapSyntaxError(f"parameter value {val!r} is not finite", at)
            params[source[item[0].pos : item[eq].pos].strip()] = value
        item = []
    return params


def eval_map(m: MapSpec, x: float) -> float:
    """Evaluate f(x).

    Raises MapEvalError on a domain error such as division by zero, and
    MapOverflowError on overflow or a non-finite result.
    """
    if not math.isfinite(x):
        raise MapEvalError(f"non-finite input x={x!r}")
    try:
        y = m._f(float(x))
    except ZeroDivisionError as exc:
        raise MapEvalError(f"at x={x!r}: {exc}") from exc
    except (OverflowError, ValueError) as exc:
        raise MapOverflowError(f"at x={x!r}: {exc}") from exc
    if not math.isfinite(y):
        raise MapOverflowError(f"f({x}) is not finite")
    return float(y)


def eval_map_deriv(m: MapSpec, x: float) -> float:
    """Evaluate f'(x) by forward-mode differentiation (exact to rounding).

    Raises as eval_map does where f(x) raises, and MapOverflowError where
    f'(x) is not finite.
    """
    eval_map(m, x)
    _, dy, bad = eval_map_deriv_array(m, [x])
    if bad[0]:
        raise MapOverflowError(f"f'({x}) is not finite")
    return float(dy[0])


def eval_map_array(m: MapSpec, x) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate f over an array: ``(values, bad)``, both shaped like x.

    ``bad`` marks exactly the elements on which eval_map raises: a
    non-finite input, a zero divisor, an overflowing or invalid ``^``, exp,
    sin or cos, and a non-finite result. Elsewhere ``values`` equals
    eval_map bit for bit; on bad elements it is unspecified. Both are new
    arrays, also for a 0-d x.
    """
    x = np.asarray(x, dtype=float)
    return tuple(map(np.asarray, compose_map_array(m, x, 1)))


def eval_map_deriv_array(m: MapSpec, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate f and f' over an array: ``(values, derivatives, bad)``.

    ``bad`` marks exactly the elements on which eval_map or eval_map_deriv
    raises. Elsewhere ``values`` equals eval_map bit for bit and
    ``derivatives`` is f' by forward-mode differentiation; on bad elements
    both are unspecified. All three are new arrays, also for a 0-d x.
    """
    x = np.asarray(x, dtype=float)
    return tuple(map(np.asarray, compose_map_array(m, x, 1, deriv=True)))


def compose_map_array(m: MapSpec, x: np.ndarray, n: int, deriv: bool = False):
    """f^n over a float ndarray x: ``(values, bad)``, or with ``deriv``
    ``(values, derivatives, bad)`` with (f^n)' = f'(x_0) f'(x_1) ...

    One call of the map's compiled n-fold array form, equal bit for bit to n
    successive calls of eval_map_array (or eval_map_deriv_array, whose
    derivatives multiply left to right from 1.0). ``bad`` marks the
    elements on which some step raises in eval_map (or eval_map_deriv).
    x is taken as it is, not converted, and must have at least one
    dimension: at a 0-d x numpy's operations return scalars, not arrays.
    """
    with np.errstate(all="ignore"):  # an error's values are unspecified
        return (m._fda if deriv else m._fa)(x, n)
