"""Scalar 1-D maps f: R -> R with exact first derivatives.

Every map is an expression over the variable ``x`` with named parameters.
The builtins (``logistic``, ``quadratic``, ``cubic``) are stored expression
sources addressed by a designator such as ``"logistic:r=4"``. Each MapSpec
compiles its parsed AST once into three straight-line Python functions:

- f at a float, behind ``eval_map``;
- f over a numpy array, behind ``eval_map_array``, which returns the values
  and a mask of the elements on which ``eval_map`` raises;
- f and f' over a numpy array, behind ``eval_map_deriv_array`` (and
  ``eval_map_deriv``, a call on one element), with f' exact to rounding by
  forward-mode differentiation rather than a finite-difference estimate.

The array forms equal ``eval_map`` bit for bit wherever their mask is clear.
``+ - * /`` and ``abs`` are correctly rounded IEEE operations in numpy as in
Python. ``^``, exp, tanh, sin and cos are not: the scalar form gets them
from libm (``**`` calls C ``pow``), and numpy's vectorised kernels round
differently in the last bit, as does ``x*x`` against ``pow(x, 2)``. So the
array forms call libm element by element too, through ``math.pow``,
``math.exp``, ``math.tanh``, ``math.sin`` and ``math.cos``. The derivative
of u^n is n u^(n-1) u' for every integer n.

The expression grammar supports real literals, ``x``, named parameters,
``+ - * /``, ``^`` with an integer-literal exponent, unary minus, and the
functions sin, cos, exp, tanh, abs.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Union

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
    "format_ast",
    "BUILTIN_MAPS",
]


class MapError(Exception):
    """Base error for map parsing and evaluation."""


class MapSyntaxError(MapError):
    """Malformed map source; ``position`` is the 0-based offset of the fault."""

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


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * /
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class Call:
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
    """``fn`` of Python's math module applied element by element to its first
    argument, an array or a float; any further arguments are scalars.

    Returns the float results, shaped like the first argument, and the mask
    of the elements on which fn raised, or None when none did. Errors are
    rare, so a call first runs unguarded and is repeated with a guard round
    each element only when some element raised.
    """

    def guarded(*args):
        try:
            return fn(*args)
        except (ArithmeticError, ValueError):
            return math.nan

    def call(x, *scalars):
        x = np.asarray(x, dtype=float)
        xs = x.ravel().tolist()
        try:
            out = np.fromiter(map(fn, xs, *map(itertools.repeat, scalars)), float, x.size)
            return out.reshape(x.shape), None
        except (ArithmeticError, ValueError):
            out = np.fromiter(map(guarded, xs, *map(itertools.repeat, scalars)), float, x.size)
            out = out.reshape(x.shape)
            # No call here returns NaN from a non-NaN argument without raising.
            return out, np.isnan(out) & ~np.isnan(x)

    return call


def _fresh(v, x):
    """The root value v as a new float array of x's shape (v may be x or a constant)."""
    if isinstance(v, np.ndarray) and v.shape == x.shape and v is not x:
        return v
    return np.full(x.shape, v, dtype=float)


# Globals of the generated code, besides its bound constants c0, c1, ...
# The v-prefixed functions, divide and the rest serve the array forms.
_CODE_GLOBALS = {
    "__builtins__": {},
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "tanh": math.tanh,
    "abs": abs,
    "vsin": _elementwise(math.sin),
    "vcos": _elementwise(math.cos),
    "vexp": _elementwise(math.exp),
    "vtanh": _elementwise(math.tanh),
    "vpow": _elementwise(math.pow),
    "divide": np.divide,
    "where": np.where,
    "isfinite": np.isfinite,
    "fresh": _fresh,
}

# Forward-mode rules for the derivative of a node: {v} is the node's value,
# {a}/{ad} the argument's value and derivative, {g} the named libm call on
# {a}, {l}/{ld} and {r}/{rd} those of the operands, with "0.0" for the
# derivative of an operand free of x.
_CALL_DERIVS = {
    "sin": ("cos", "{g} * {ad}"),
    "cos": ("sin", "-{g} * {ad}"),
    "exp": (None, "{v} * {ad}"),
    "tanh": (None, "(1.0 - {v} * {v}) * {ad}"),
    # At 0 the right-hand derivative (+1) is used, by convention.
    "abs": (None, "where({a} >= 0.0, 1.0, -1.0) * {ad}"),
}
_BIN_DERIVS = {
    "+": "{ld} + {rd}",
    "-": "{ld} - {rd}",
    "*": "{l} * {rd} + {ld} * {r}",
    "/": "divide({ld} * {r} - {l} * {rd}, {r} * {r})",
}


def _lower(ast: Node, params: dict, ns: dict, bound: dict, form: str) -> str:
    """Return the lines of a function body computing ast at x, one per node.

    ``form`` is "f" for f at a float x, "fa" for f over an array x with the
    mask ``bad`` of the elements on which f raises, and "fda" for f and f'
    over an array x with the mask of the elements on which either is not
    finite. Each node yields the names of its value and derivative. The
    derivative is None for a node that does not depend on x: it enters the
    rules above as a constant with derivative 0.0; outside "fda" no node has
    one. The array forms spell f's operations with the same rounding, and
    or into ``bad`` where the scalar form raises: a zero divisor, or a
    math-module call that raises. A parameter named like the variable
    shadows it; any other name must be a parameter. Constants are bound in
    ``ns``; ``bound`` keeps their names.
    """
    lines: list[str] = []
    dx = "1.0" if form == "fda" else None
    array = form != "f"

    def let(expr: str) -> str:
        name = f"t{len(lines)}"
        lines.append(f"    {name} = {expr}\n")
        return name

    def flag(cond: str) -> None:
        lines.append(f"    bad |= {cond}\n")

    def libm(func: str, *args) -> str:
        if not array:
            return let(f"{func}({', '.join(map(str, args))})")
        v = f"t{len(lines)}"
        lines.append(f"    {v}, raised = v{func}({', '.join(map(str, args))})\n")
        lines.append("    if raised is not None:\n        bad |= raised\n")
        return v

    def const(key, value) -> str:
        if key not in bound:
            bound[key] = f"c{len(bound)}"
            ns[bound[key]] = value
        return bound[key]

    def walk(node: Node) -> tuple[str, str | None]:
        if isinstance(node, Num):
            return const(id(node), node.value), None
        if isinstance(node, Var):
            if node.name in params:
                return const(node.name, params[node.name]), None
            if node.name != "x":
                unbound.add(node.name)
            return "x", dx
        if isinstance(node, Neg):
            v, d = walk(node.operand)
            return let(f"-{v}"), None if d is None else let(f"-{d}")
        if isinstance(node, Call):
            a, ad = walk(node.arg)
            v = let(f"abs({a})") if node.func == "abs" else libm(node.func, a)
            if ad is None:
                return v, None
            g, rule = _CALL_DERIVS[node.func]
            g = libm(g, a) if g else None
            return v, let(rule.format(a=a, ad=ad, v=v, g=g))
        if isinstance(node, Pow):
            b, bd = walk(node.base)
            n = node.exponent
            v = libm("pow", b, n) if array else let(f"{b} ** {n}")
            if bd is None:
                return v, None
            if n == 0:  # u^-1 would raise at u = 0
                return v, "0.0"
            return v, let(f"{n} * {libm('pow', b, n - 1)} * {bd}")
        if isinstance(node, Bin):
            l, ld = walk(node.left)
            r, rd = walk(node.right)
            if array and node.op == "/":
                v = let(f"divide({l}, {r})")
                flag(f"{r} == 0.0")
            else:
                v = let(f"{l} {node.op} {r}")
            if ld is None and rd is None:
                return v, None
            rule = _BIN_DERIVS[node.op]
            return v, let(rule.format(l=l, r=r, ld=ld or "0.0", rd=rd or "0.0"))
        raise TypeError(f"unknown AST node {node!r}")

    unbound: set[str] = set()
    if array:
        lines.append("    bad = ~isfinite(x)\n")
    v, d = walk(ast)
    if unbound:
        raise MapError(
            f"unknown identifier(s) {sorted(unbound)}; bind parameters via params/--param"
        )
    if not array:
        return "".join(lines) + f"    return {v}\n"
    ret = [let(f"fresh({v}, x)")]
    if dx is not None:
        ret.append(let(f"fresh({d or '0.0'}, x)"))
    for name in ret:
        flag(f"~isfinite({name})")
    return "".join(lines) + f"    return {', '.join(ret)}, bad\n"


def _compile(ast: Node, params: dict) -> tuple[Callable, Callable, Callable]:
    """Compile ast into ``f(x) -> f`` at a float x, and over an array x into
    ``fa(x) -> (values, bad)`` and ``fda(x) -> (values, derivatives, bad)``.

    Constants and parameter values are bound in the functions' namespace,
    never formatted into their text, so every float keeps its exact value.
    """
    ns = dict(_CODE_GLOBALS)
    bound: dict = {}
    forms = ("f", "fa", "fda")
    src = "".join(f"def {form}(x):\n" + _lower(ast, params, ns, bound, form) for form in forms)
    exec(_code(src), ns)
    return tuple(ns.pop(form) for form in forms)


@functools.lru_cache(maxsize=256)
def _code(src: str):
    # Maps of one shape (a builtin at any parameter value) share their text.
    return compile(src, "<map>", "exec")


# ---------------------------------------------------------------------------
# Tokenizer / recursive-descent parser
# ---------------------------------------------------------------------------


@dataclass
class _Token:
    kind: str  # num, ident, op, lparen, rparen, end
    text: str
    pos: int
    value: float = 0.0


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            seen_e = False
            while j < n:
                cj = source[j]
                if cj.isdigit() or cj == ".":
                    j += 1
                elif cj in "eE" and not seen_e and j + 1 < n and (
                    source[j + 1].isdigit() or source[j + 1] in "+-"
                ):
                    seen_e = True
                    j += 2 if source[j + 1] in "+-" else 1
                else:
                    break
            text = source[i:j]
            try:
                value = float(text)
            except ValueError:
                raise MapSyntaxError(f"bad number literal {text!r}", i) from None
            tokens.append(_Token("num", text, i, value))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("ident", source[i:j], i))
            i = j
        elif c in "+-*/^":
            tokens.append(_Token("op", c, i))
            i += 1
        elif c == "(":
            tokens.append(_Token("lparen", c, i))
            i += 1
        elif c == ")":
            tokens.append(_Token("rparen", c, i))
            i += 1
        else:
            raise MapSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            what = text or kind
            raise MapSyntaxError(f"expected {what!r}", tok.pos)
        return self.next()

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise MapSyntaxError(f"unexpected {tok.text!r}", tok.pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            node = Bin(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            node = Bin(op, node, self.factor())
        return node

    def factor(self) -> Node:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.next()
            return Neg(self.factor())
        if tok.kind == "op" and tok.text == "+":
            self.next()
            return self.factor()
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        while self.peek().kind == "op" and self.peek().text == "^":
            self.next()
            node = Pow(node, self.int_exponent())
        return node

    def int_exponent(self) -> int:
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.next()
            if tok.text == "-":
                sign = -1
            tok = self.peek()
        if tok.kind != "num":
            raise MapSyntaxError("expected integer exponent", tok.pos)
        if not float(tok.value).is_integer():
            raise MapSyntaxError("non-integer exponent", tok.pos)
        self.next()
        return sign * int(tok.value)

    def atom(self) -> Node:
        tok = self.next()
        if tok.kind == "num":
            return Num(tok.value)
        if tok.kind == "ident":
            if self.peek().kind == "lparen":
                if tok.text not in _FUNCTIONS:
                    raise MapSyntaxError(f"unknown function {tok.text!r}", tok.pos)
                self.next()
                arg = self.expr()
                self.expect("rparen")
                return Call(tok.text, arg)
            return Var(tok.text)
        if tok.kind == "lparen":
            node = self.expr()
            self.expect("rparen")
            return node
        raise MapSyntaxError(f"unexpected {tok.text or 'end of input'!r}", tok.pos)


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
    interval searched for cycles. The AST is compiled once, at construction,
    into the functions behind eval_map, eval_map_array and
    eval_map_deriv_array.
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
        if not (lo < hi):
            raise ValueError(f"domain requires lo < hi, got [{lo}, {hi}]")
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
    """Parse a map designator or expression into a MapSpec.

    Designator format for builtins: ``"name:key=val,key=val"`` (e.g.
    ``"logistic:r=4"``). Anything else is treated as an expression in ``x``;
    free identifiers must be bound through ``params``.
    """
    params = dict(params or {})
    text = source.strip()
    head = text.split(":", 1)[0].strip()
    if head in BUILTIN_MAPS:
        required, expr, default_domain = BUILTIN_MAPS[head]
        if ":" in text:
            for item in text.split(":", 1)[1].split(","):
                item = item.strip()
                if not item:
                    continue
                if "=" not in item:
                    raise MapSyntaxError(
                        f"expected key=val in designator, got {item!r}",
                        source.find(item),
                    )
                key, val = item.split("=", 1)
                try:
                    value = float(val)
                except ValueError:
                    raise MapSyntaxError(
                        f"bad parameter value {val!r}", source.find(val)
                    ) from None
                if not math.isfinite(value):
                    raise MapSyntaxError(
                        f"parameter value {val!r} is not finite", source.find(val)
                    )
                params[key.strip()] = value
        missing = [p for p in required if p not in params]
        if missing:
            raise MapError(f"builtin {head!r} missing parameter(s): {missing}")
        extra = [p for p in params if p not in required]
        if extra:
            raise MapError(f"builtin {head!r} got unknown parameter(s): {extra}")
        return MapSpec(
            kind="builtin",
            domain=domain or default_domain,
            name=head,
            params=params,
            ast=_Parser(expr).parse(),
            source=text,
        )

    return MapSpec(
        kind="expression",
        domain=domain or _DEFAULT_EXPR_DOMAIN,
        ast=_Parser(text).parse(),
        params={k: float(v) for k, v in params.items()},
        source=text,
    )


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
    eval_map bit for bit; on bad elements it is unspecified.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        return m._fa(x)


def eval_map_deriv_array(m: MapSpec, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate f and f' over an array: ``(values, derivatives, bad)``.

    ``bad`` marks exactly the elements on which eval_map or eval_map_deriv
    raises. Elsewhere ``values`` equals eval_map bit for bit and
    ``derivatives`` is f' by forward-mode differentiation; on bad elements
    both are unspecified.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        return m._fda(x)
