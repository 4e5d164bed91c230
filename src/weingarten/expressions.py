"""Expression trees and a recursive-descent parser for relation text.

Grammar (whitespace-insensitive)::

    equation := side '=' side
    side     := expr
    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := base ('^' number)?
    base     := number | 'r1' | 'r2' | 'k1' | 'k2' | 'H' | 'K'
              | '(' expr ')' | func '(' expr ')'
    func     := 'sin' | 'cos' | 'ln' | 'exp' | 'abs' | 'sqrt'

Numbers parsed from integer/decimal literals keep an exact Fraction so
that canonical-family detection ("r2 = 3*r1 - 5") is exact.  A tree is
evaluated by compiling it once into a numpy function (``compile_expr``)
that reports poles and domain exits as masks instead of returning NaN.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

import numpy as np

__all__ = [
    "ParseError",
    "EvalDomainError",
    "Expr",
    "Const",
    "Var",
    "BinOp",
    "Func",
    "parse_expression",
    "parse_equation",
]

_FUNCS = ("sin", "cos", "ln", "exp", "abs", "sqrt")
_VARS = ("r1", "r2", "k1", "k2", "H", "K")


class ParseError(ValueError):
    """Syntax error with the offending position in ``.position``."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalDomainError(ArithmeticError):
    """Evaluation left the domain of a subexpression (log of <=0, 0^-1, ...)."""


@dataclass(frozen=True)
class Const:
    value: Union[Fraction, float]

    def __repr__(self):
        return f"Const({self.value})"


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Func:
    name: str
    arg: "Expr"


Expr = Union[Const, Var, BinOp, Func]


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def next_token(self) -> Optional[tuple[str, object, int]]:
        """Return (kind, value, position) or None at end of input."""
        self._skip_ws()
        if self.pos >= len(self.text):
            return None
        start = self.pos
        ch = self.text[start]
        if ch in "+-*/^()=":
            self.pos += 1
            return ("op", ch, start)
        if ch.isdigit() or ch == ".":
            j = start
            seen_dot = False
            while j < len(self.text) and (self.text[j].isdigit() or (self.text[j] == "." and not seen_dot)):
                if self.text[j] == ".":
                    seen_dot = True
                j += 1
            # exponent part of a float literal (1e-3)
            if j < len(self.text) and self.text[j] in "eE":
                k = j + 1
                if k < len(self.text) and self.text[k] in "+-":
                    k += 1
                if k < len(self.text) and self.text[k].isdigit():
                    while k < len(self.text) and self.text[k].isdigit():
                        k += 1
                    lit = self.text[start:k]
                    self.pos = k
                    return ("number", float(lit), start)
            lit = self.text[start:j]
            self.pos = j
            return ("number", Fraction(lit), start)
        if ch.isalpha():
            j = start
            while j < len(self.text) and (self.text[j].isalnum() or self.text[j] == "_"):
                j += 1
            word = self.text[start:j]
            self.pos = j
            if word in _FUNCS:
                return ("func", word, start)
            if word in _VARS:
                return ("var", word, start)
            raise ParseError(f"unknown identifier {word!r}", start)
        raise ParseError(f"unexpected character {ch!r}", start)


class _Parser:
    def __init__(self, text: str):
        self.tok = _Tokenizer(text)
        self.current = self.tok.next_token()

    def _advance(self):
        self.current = self.tok.next_token()

    def _expect_op(self, op: str):
        if self.current is None or self.current[0] != "op" or self.current[1] != op:
            pos = self.current[2] if self.current else len(self.tok.text)
            raise ParseError(f"expected {op!r}", pos)
        self._advance()

    def parse_expr(self) -> Expr:
        # leading unary sign
        node = self.parse_term()
        while self.current is not None and self.current[0] == "op" and self.current[1] in "+-":
            op = self.current[1]
            self._advance()
            rhs = self.parse_term()
            node = BinOp(op, node, rhs)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.current is not None and self.current[0] == "op" and self.current[1] in "*/":
            op = self.current[1]
            self._advance()
            rhs = self.parse_factor()
            node = BinOp(op, node, rhs)
        return node

    def parse_factor(self) -> Expr:
        node = self.parse_base()
        if self.current is not None and self.current[0] == "op" and self.current[1] == "^":
            pos = self.current[2]
            self._advance()
            sign = 1
            while self.current is not None and self.current[0] == "op" and self.current[1] in "+-":
                if self.current[1] == "-":
                    sign = -sign
                self._advance()
            if self.current is None or self.current[0] != "number":
                raise ParseError("exponent must be a number literal", pos)
            expo = self.current[1]
            self._advance()
            node = BinOp("^", node, Const(expo if sign > 0 else -expo))
        return node

    def parse_base(self) -> Expr:
        cur = self.current
        if cur is None:
            raise ParseError("unexpected end of input", len(self.tok.text))
        kind, value, pos = cur
        if kind == "op" and value in "+-":
            # unary sign
            self._advance()
            inner = self.parse_factor()
            if value == "-":
                return BinOp("*", Const(Fraction(-1)), inner)
            return inner
        if kind == "number":
            self._advance()
            return Const(value)
        if kind == "var":
            self._advance()
            return Var(value)
        if kind == "func":
            self._advance()
            self._expect_op("(")
            arg = self.parse_expr()
            self._expect_op(")")
            return Func(value, arg)
        if kind == "op" and value == "(":
            self._advance()
            inner = self.parse_expr()
            self._expect_op(")")
            return inner
        raise ParseError(f"unexpected token {value!r}", pos)


def parse_expression(text: str) -> Expr:
    p = _Parser(text)
    node = p.parse_expr()
    if p.current is not None:
        raise ParseError(f"trailing input {p.current[1]!r}", p.current[2])
    return node


def parse_equation(text: str) -> tuple[Expr, Expr]:
    """Split ``lhs = rhs`` and parse both sides."""
    p = _Parser(text)
    lhs = p.parse_expr()
    if p.current is None or p.current[0] != "op" or p.current[1] != "=":
        pos = p.current[2] if p.current else len(text)
        raise ParseError("expected '=' between the two sides of the relation", pos)
    p._advance()
    rhs = p.parse_expr()
    if p.current is not None:
        raise ParseError(f"trailing input {p.current[1]!r}", p.current[2])
    return lhs, rhs


# ---------------------------------------------------------------------------
# evaluation / differentiation / rendering


_NUMPY_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.absolute,
                "ln": np.log, "sqrt": np.sqrt}
# the arguments outside each function's domain
_OUTSIDE = {"ln": lambda a: a <= 0.0, "sqrt": lambda a: a < 0.0}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def compile_expr(node: Expr, variables: tuple[str, ...] = ("r1",)) -> Callable:
    """Compile a tree once into one numpy function of ``variables``.

    The function takes one float array (any shape) or numpy scalar per
    variable and returns ``(value, pole, outside)``: the value, the mask
    where a denominator vanished, and the mask where ln, sqrt or a power
    left its domain (ln of <= 0, sqrt of < 0, 0 to a negative power, a
    negative base to a fractional power).  Values at masked points are
    meaningless.  Call it under ``np.errstate(all="ignore")``, so that
    overflow gives inf without warnings.  A variable outside
    ``variables`` raises EvalDomainError.
    """
    unbound = sorted(expr_variables(node) - set(variables))
    if unbound:
        raise EvalDomainError(f"variable {unbound[0]} not bound")

    # each node becomes a closure f(args, poles, outside) that returns its
    # value and appends the masks of its divisions and domain checks
    def build(n: Expr) -> Callable:
        if isinstance(n, Var):
            i = variables.index(n.name)
            return lambda args, poles, outside: args[i]
        if isinstance(n, Const):
            # a numpy scalar, so that constant subtrees follow numpy's rules too
            c = np.float64(n.value)
            return lambda args, poles, outside: c
        if isinstance(n, Func) and n.name in _NUMPY_FUNCS:
            f, arg, check = _NUMPY_FUNCS[n.name], build(n.arg), _OUTSIDE.get(n.name)
            if check is None:
                return lambda args, poles, outside: f(arg(args, poles, outside))

            def checked(args, poles, outside):
                a = arg(args, poles, outside)
                outside.append(check(a))
                return f(a)
            return checked
        if isinstance(n, BinOp) and n.op == "^":
            base, p = build(n.left), np.float64(n.right.value)  # type: ignore[union-attr]
            negative, fractional = bool(p < 0.0), bool(p != int(p))

            def power(args, poles, outside):
                a = base(args, poles, outside)
                if negative:
                    outside.append(a == 0.0)
                if fractional:
                    outside.append(a < 0.0)
                return np.power(a, p)
            return power
        if isinstance(n, BinOp) and n.op == "/":
            num, den = build(n.left), build(n.right)

            def divide(args, poles, outside):
                a, b = num(args, poles, outside), den(args, poles, outside)
                poles.append(b == 0.0)
                return a / b
            return divide
        if isinstance(n, BinOp) and n.op in _ARITHMETIC:
            op, left, right = _ARITHMETIC[n.op], build(n.left), build(n.right)
            return lambda args, poles, outside: op(left(args, poles, outside), right(args, poles, outside))
        raise ValueError(f"not an expression node: {n!r}")

    root = build(node)

    def compiled(*args):
        poles: list = []
        outside: list = []
        value = root(args, poles, outside)
        return value, functools.reduce(operator.or_, poles, np.False_), \
            functools.reduce(operator.or_, outside, np.False_)
    return compiled


def eval_expr(node: Expr, env: dict) -> float:
    """Evaluate at the point ``env`` through :func:`compile_expr`.

    Raises ZeroDivisionError at a pole and EvalDomainError outside the
    domain or for an unbound variable.  Compiles on every call.
    """
    fn = compile_expr(node, tuple(env))
    with np.errstate(all="ignore"):
        value, pole, outside = fn(*(np.asarray(v, dtype=float) for v in env.values()))
    if pole:
        raise ZeroDivisionError("division by zero in expression")
    if outside:
        raise EvalDomainError("expression left its domain")
    return float(value)


def diff_expr(node: Expr, var: str) -> Expr:
    """Symbolic derivative with respect to ``var`` (exact tree rules)."""
    zero = Const(Fraction(0))
    one = Const(Fraction(1))
    if isinstance(node, Const):
        return zero
    if isinstance(node, Var):
        return one if node.name == var else zero
    if isinstance(node, BinOp):
        f, g = node.left, node.right
        df, dg = diff_expr(f, var), (diff_expr(g, var) if node.op != "^" else zero)
        if node.op == "+":
            return BinOp("+", df, dg)
        if node.op == "-":
            return BinOp("-", df, dg)
        if node.op == "*":
            return BinOp("+", BinOp("*", df, g), BinOp("*", f, dg))
        if node.op == "/":
            num = BinOp("-", BinOp("*", df, g), BinOp("*", f, dg))
            return BinOp("/", num, BinOp("^", g, Const(Fraction(2))))
        if node.op == "^":
            n = g.value  # type: ignore[union-attr]
            coeff = Const(n)
            return BinOp("*", BinOp("*", coeff, BinOp("^", f, Const(n - 1))), df)
    if isinstance(node, Func):
        da = diff_expr(node.arg, var)
        a = node.arg
        if node.name == "sin":
            outer: Expr = Func("cos", a)
        elif node.name == "cos":
            outer = BinOp("*", Const(Fraction(-1)), Func("sin", a))
        elif node.name == "ln":
            outer = BinOp("/", one, a)
        elif node.name == "exp":
            outer = Func("exp", a)
        elif node.name == "sqrt":
            outer = BinOp("/", Const(Fraction(1, 2)), Func("sqrt", a))
        elif node.name == "abs":
            # d|a| = sign(a) da; representable as a/|a|
            outer = BinOp("/", a, Func("abs", a))
        else:
            raise ValueError(f"unknown function {node.name}")
        return BinOp("*", outer, da)
    raise TypeError(f"not an expression node: {node!r}")


def _is_negation(node: Expr) -> bool:
    """The parser's form of a unary minus: (-1) * x."""
    return (isinstance(node, BinOp) and node.op == "*"
            and isinstance(node.left, Const) and node.left.value == -1)


def _magnitude(v: Union[Fraction, float]) -> str:
    """A non-negative number literal; decimals where that is exact."""
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v.numerator)
        text = repr(float(v))
        if "e" not in text and Fraction(text) == v:
            return text
        return f"{v.numerator}/{v.denominator}"
    return repr(float(v))


def render_expr(node: Expr) -> str:
    """Pretty-print in grammar-compatible form.

    parse_expression(render_expr(t)) == t for the trees the parser builds
    from decimal literals; any other tree comes back with the same values.
    """
    def prec(n: Expr) -> int:
        if _is_negation(n):
            return 2
        if isinstance(n, BinOp):
            return {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}[n.op]
        return 4

    def wrap(child: Expr, parent_prec: int, right_side: bool = False) -> str:
        s = render_expr(child)
        p = prec(child)
        if p < parent_prec or (p == parent_prec and right_side):
            return f"({s})"
        return s

    if isinstance(node, Const):
        v = node.value
        return _magnitude(v) if v >= 0 else f"(0 - {_magnitude(-v)})"
    if isinstance(node, Var):
        return node.name
    if _is_negation(node):
        return f"-{wrap(node.right, 3)}"  # type: ignore[union-attr]
    if isinstance(node, BinOp):
        if node.op == "^":
            # the exponent is a signed number literal; any operator base needs parentheses
            expo = node.right.value  # type: ignore[union-attr]
            return f"{wrap(node.left, 4)} ^ {'-' if expo < 0 else ''}{_magnitude(abs(expo))}"
        p = prec(node)
        return f"{wrap(node.left, p)} {node.op} {wrap(node.right, p, right_side=True)}"
    if isinstance(node, Func):
        return f"{node.name}({render_expr(node.arg)})"
    raise TypeError(f"not an expression node: {node!r}")


def expr_variables(node: Expr) -> set[str]:
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, BinOp):
        return expr_variables(node.left) | expr_variables(node.right)
    if isinstance(node, Func):
        return expr_variables(node.arg)
    return set()


def substitute(node: Expr, mapping: dict[str, Expr]) -> Expr:
    if isinstance(node, Var) and node.name in mapping:
        return mapping[node.name]
    if isinstance(node, BinOp):
        return BinOp(node.op, substitute(node.left, mapping), substitute(node.right, mapping))
    if isinstance(node, Func):
        return Func(node.name, substitute(node.arg, mapping))
    return node


# ---------------------------------------------------------------------------
# multilinear polynomial extraction (for canonical-family detection)


class NotPolynomial(Exception):
    pass


def as_polynomial(node: Expr, variables: tuple[str, ...]) -> dict[tuple[int, ...], Fraction]:
    """Expand into a polynomial {exponent tuple: coefficient} over ``variables``.

    Coefficients stay exact Fractions; any float literal, division by a
    non-constant, or transcendental node raises NotPolynomial.
    """
    if isinstance(node, Const):
        # Fraction(float) is exact, so exponent-notation literals stay exact too
        coeff = node.value if isinstance(node.value, Fraction) else Fraction(node.value)
        return {tuple(0 for _ in variables): coeff} if coeff != 0 else {}
    if isinstance(node, Var):
        if node.name not in variables:
            raise NotPolynomial(f"foreign variable {node.name}")
        expo = tuple(1 if v == node.name else 0 for v in variables)
        return {expo: Fraction(1)}
    if isinstance(node, Func):
        raise NotPolynomial(f"function {node.name}")
    if isinstance(node, BinOp):
        if node.op in "+-":
            left = as_polynomial(node.left, variables)
            right = as_polynomial(node.right, variables)
            out = dict(left)
            sign = 1 if node.op == "+" else -1
            for e, c in right.items():
                out[e] = out.get(e, Fraction(0)) + sign * c
                if out[e] == 0:
                    del out[e]
            return out
        if node.op == "*":
            left = as_polynomial(node.left, variables)
            right = as_polynomial(node.right, variables)
            out: dict[tuple[int, ...], Fraction] = {}
            for e1, c1 in left.items():
                for e2, c2 in right.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, Fraction(0)) + c1 * c2
                    if out[e] == 0:
                        del out[e]
            return out
        if node.op == "/":
            right = as_polynomial(node.right, variables)
            if len(right) != 1 or any(e != tuple(0 for _ in variables) for e in right):
                raise NotPolynomial("division by a non-constant")
            (coeff,) = right.values()
            if coeff == 0:
                raise NotPolynomial("division by zero")
            left = as_polynomial(node.left, variables)
            return {e: c / coeff for e, c in left.items()}
        if node.op == "^":
            if not isinstance(node.right, Const):
                raise NotPolynomial("non-literal exponent")
            n = node.right.value if isinstance(node.right.value, Fraction) \
                else Fraction(node.right.value)
            if n.denominator != 1 or n < 0:
                raise NotPolynomial("non-natural exponent")
            out = {tuple(0 for _ in variables): Fraction(1)}
            base = as_polynomial(node.left, variables)
            for _ in range(int(n)):
                nxt: dict[tuple[int, ...], Fraction] = {}
                for e1, c1 in out.items():
                    for e2, c2 in base.items():
                        e = tuple(a + b for a, b in zip(e1, e2))
                        nxt[e] = nxt.get(e, Fraction(0)) + c1 * c2
                out = {e: c for e, c in nxt.items() if c != 0}
            return out
    raise NotPolynomial(f"unsupported node {node!r}")
