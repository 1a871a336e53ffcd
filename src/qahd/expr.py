"""Expression DSL: AST, parser, printer, evaluator and symbolic derivative.

The input language covers variables x1..xn, the radius r, log(r),
arithmetic, and literal (possibly complex) powers.  Division is sugar for
multiplication by the inverted divisor and is only accepted when the
divisor is a monomial in r and the variables.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .errors import (
    DimensionError,
    EvalOverflowError,
    ExprSyntaxError,
    NonLiteralExponentError,
    OriginError,
)

# ---------------------------------------------------------------------------
# AST nodes.  All nodes are frozen; trees are shared freely across threads.


@dataclass(frozen=True)
class Constant:
    value: complex


@dataclass(frozen=True)
class Variable:
    index: int  # 1-based


@dataclass(frozen=True)
class Radius:
    pass


@dataclass(frozen=True)
class LogRadius:
    pass


@dataclass(frozen=True)
class Sum:
    terms: Tuple["Expression", ...]


@dataclass(frozen=True)
class Product:
    factors: Tuple["Expression", ...]


@dataclass(frozen=True)
class Power:
    base: "Expression"
    exponent: complex  # literal only


@dataclass(frozen=True)
class Negate:
    child: "Expression"


Expression = Union[Constant, Variable, Radius, LogRadius, Sum, Product, Power, Negate]

RADIUS = Radius()
LOG_RADIUS = LogRadius()

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<var>x\d+)
  | (?P<log>log)
  | (?P<r>r)
  | (?P<i>i)
  | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the fixed grammar (precedence: ^, unary -, */, +-)."""

    def __init__(self, text, n):
        self.tokens = _tokenize(text)
        self.n = n
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value, expected):
        kind, text, start = self.peek()
        if text != value:
            raise ExprSyntaxError(
                f"expected {expected}, found {text or 'end of input'!r}",
                start,
                (expected,),
            )
        return self.advance()

    # expr := term (("+"|"-") term)*
    def parse_expr(self):
        terms = [self.parse_term()]
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            term = self.parse_term()
            terms.append(Negate(term) if op == "-" else term)
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    # term := factor (("*"|"/") factor)*
    def parse_term(self):
        factors = [self.parse_factor()]
        while self.peek()[1] in ("*", "/"):
            op, _, start = self.advance()[1], None, self.tokens[self.pos - 1][2]
            factor = self.parse_factor()
            if op == "/":
                factor = self._invert(factor, start)
            factors.append(factor)
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def _invert(self, e, pos):
        """Division sugar: u/v -> u * v^(-1) for monomial v only."""
        if isinstance(e, Negate):
            return Negate(self._invert(e.child, pos))
        if isinstance(e, Constant):
            if e.value == 0:
                raise ExprSyntaxError("division by zero literal", pos)
            return Constant(1 / e.value)
        if isinstance(e, (Radius, Variable)):
            return Power(e, complex(-1))
        if isinstance(e, LogRadius):
            # log(r) is not a monomial in r and the variables
            raise ExprSyntaxError("division by non-monomial divisor", pos)
        if isinstance(e, Power) and isinstance(e.base, (Radius, Variable)):
            return Power(e.base, -e.exponent)
        raise ExprSyntaxError("division by non-monomial divisor", pos)

    # factor := ("-")? base ("^" exponent)?
    def parse_factor(self):
        if self.peek()[1] == "-":
            self.advance()
            return Negate(self.parse_factor())
        base = self.parse_base()
        if self.peek()[1] == "^":
            self.advance()
            exponent = self.parse_exponent()
            return Power(base, exponent)
        return base

    def parse_base(self):
        kind, text, start = self.peek()
        if kind == "number":
            self.advance()
            return Constant(complex(float(text)))
        if kind == "r":
            self.advance()
            return RADIUS
        if kind == "log":
            self.advance()
            self.expect("(", "'('")
            self.expect("r", "'r'")
            self.expect(")", "')'")
            return LOG_RADIUS
        if kind == "var":
            self.advance()
            index = int(text[1:])
            if index < 1 or index > self.n:
                raise DimensionError(
                    f"variable {text} out of range for dimension n={self.n}"
                )
            return Variable(index)
        if text == "(":
            self.advance()
            value = self._try_complex_literal()
            if value is not None:
                return Constant(value)
            inner = self.parse_expr()
            self.expect(")", "')'")
            return inner
        raise ExprSyntaxError(
            f"expected a base expression, found {text or 'end of input'!r}",
            start,
            ("NUMBER", "r", "log(r)", "VAR", "("),
        )

    def _try_complex_literal(self):
        """Recognize '(a+bi)' after the opening paren was consumed; backtracks."""
        saved = self.pos
        try:
            re_part = self._signed_number()
            if self.peek()[1] not in ("+", "-"):
                raise NonLiteralExponentError("not a complex literal")
            sign = -1.0 if self.advance()[1] == "-" else 1.0
            if self.peek()[0] != "number":
                raise NonLiteralExponentError("not a complex literal")
            im_part = sign * float(self.advance()[1])
            if self.peek()[0] != "i":
                raise NonLiteralExponentError("not a complex literal")
            self.advance()
            if self.peek()[1] != ")":
                raise NonLiteralExponentError("not a complex literal")
            self.advance()
            return complex(re_part, im_part)
        except (NonLiteralExponentError, ExprSyntaxError):
            self.pos = saved
            return None

    # exponent := NUMBER | "(" SIGNED ( ("+"|"-") NUMBER "i" )? ")"
    def parse_exponent(self):
        kind, text, start = self.peek()
        if kind == "number":
            self.advance()
            return complex(float(text))
        if text == "(":
            self.advance()
            re_part = self._signed_number()
            kind, text, start = self.peek()
            if text == ")":
                self.advance()
                return complex(re_part)
            if text in ("+", "-"):
                sign = -1.0 if text == "-" else 1.0
                self.advance()
                kind, text, start = self.peek()
                if kind != "number":
                    raise NonLiteralExponentError(
                        f"exponent must be a numeric literal (position {start})"
                    )
                im_part = sign * float(self.advance()[1])
                self.expect("i", "'i'")
                self.expect(")", "')'")
                return complex(re_part, im_part)
            raise NonLiteralExponentError(
                f"exponent must be a numeric literal (position {start})"
            )
        raise NonLiteralExponentError(
            f"exponent must be a numeric literal (position {start})"
        )

    def _signed_number(self):
        sign = 1.0
        if self.peek()[1] in ("+", "-"):
            sign = -1.0 if self.advance()[1] == "-" else 1.0
        kind, text, start = self.peek()
        if kind != "number":
            raise NonLiteralExponentError(
                f"exponent must be a numeric literal (position {start})"
            )
        return sign * float(self.advance()[1])


def parse(text: str, n: int) -> Expression:
    """Parse `text` into an AST for ambient dimension `n` (n >= 1)."""
    if n < 1:
        raise DimensionError(f"dimension must be >= 1, got {n}")
    parser = _Parser(text, n)
    tree = parser.parse_expr()
    kind, tok, start = parser.peek()
    if kind != "eof":
        raise ExprSyntaxError(f"trailing input {tok!r}", start)
    return tree


# ---------------------------------------------------------------------------
# Rendering.  The printer is faithful: parse(render(e)) is structurally e for
# every tree the parser can produce.

_FMT_ATOM = 4
_FMT_POWER = 3
_FMT_UNARY = 2
_FMT_TERM = 1
_FMT_SUM = 0


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _fmt_signed_exponent(c: complex) -> str:
    if c.imag == 0:
        if c.real >= 0:
            return _fmt_num(c.real)
        return f"({_fmt_num(c.real)})"
    sign = "+" if c.imag >= 0 else "-"
    return f"({_fmt_num(c.real)}{sign}{_fmt_num(abs(c.imag))}i)"


def _prec(e) -> int:
    if isinstance(e, Sum):
        return _FMT_SUM
    if isinstance(e, Product):
        return _FMT_TERM
    if isinstance(e, Negate):
        return _FMT_UNARY
    if isinstance(e, Power):
        return _FMT_POWER
    if isinstance(e, Constant) and (e.value.imag != 0 or e.value.real < 0):
        return _FMT_UNARY
    return _FMT_ATOM


def _render(e, min_prec) -> str:
    if isinstance(e, Constant):
        v = e.value
        if v.imag == 0:
            s = _fmt_num(v.real) if v.real >= 0 else f"-{_fmt_num(-v.real)}"
        else:
            sign = "+" if v.imag >= 0 else "-"
            s = f"({_fmt_num(v.real)}{sign}{_fmt_num(abs(v.imag))}i)"
            return s
        return f"({s})" if _prec(e) < min_prec else s
    if isinstance(e, Variable):
        return f"x{e.index}"
    if isinstance(e, Radius):
        return "r"
    if isinstance(e, LogRadius):
        return "log(r)"
    if isinstance(e, Power):
        base = _render(e.base, _FMT_ATOM)
        s = f"{base}^{_fmt_signed_exponent(e.exponent)}"
        return f"({s})" if min_prec > _FMT_POWER else s
    if isinstance(e, Negate):
        inner = _render(e.child, _FMT_UNARY)
        s = f"-{inner}"
        return f"({s})" if min_prec > _FMT_UNARY else s
    if isinstance(e, Product):
        # nested products need parens so the flat reparse matches the tree
        parts = [_render(f, _FMT_TERM + 1) for f in e.factors]
        s = " * ".join(parts)
        return f"({s})" if min_prec > _FMT_TERM else s
    if isinstance(e, Sum):
        out = [_render(e.terms[0], _FMT_SUM + 1)]
        for t in e.terms[1:]:
            if isinstance(t, Negate):
                out.append(f" - {_render(t.child, _FMT_SUM + 1)}")
            else:
                out.append(f" + {_render(t, _FMT_SUM + 1)}")
        s = "".join(out)
        return f"({s})" if min_prec > _FMT_SUM else s
    raise TypeError(f"not an expression node: {e!r}")


def render(e: Expression) -> str:
    """Serialize an AST; output re-parses to a structurally equal tree."""
    return _render(e, _FMT_SUM)


# ---------------------------------------------------------------------------
# Evaluation, batched over points.


def radii(points: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an (m, n) array, summed in index order."""
    sq = points[:, 0] * points[:, 0]
    for i in range(1, points.shape[1]):
        sq = sq + points[:, i] * points[:, i]
    return np.sqrt(sq)


def eval_expr(e: Expression, x):
    """Evaluate at the rows of x (m, n), none of them 0, in one numpy pass.

    Powers of r use exp(c * ln r), r > 0.  A single point x (n,) gives a
    complex, a batch an array (m,).
    """
    points = np.atleast_2d(np.asarray(x, dtype=float))
    r = radii(points)
    if not r.all():
        raise OriginError("evaluation at the origin")
    with np.errstate(all="ignore"):
        value = _eval(e, points.astype(complex), r.astype(complex), np.log(r).astype(complex))
    values = value if isinstance(value, np.ndarray) else np.full(r.size, value)
    _check_finite(values)
    return complex(values[0]) if np.ndim(x) == 1 else values


def _check_finite(value) -> None:
    if not np.isfinite(value).all():
        raise EvalOverflowError("evaluation overflowed the floating-point range")


def _eval(e, cols, r, ln_r):
    """Value of e as a complex scalar (constant subtree) or an array (m,).

    Arithmetic is complex throughout, as in scalar evaluation, so that signed
    zeros, and with them the branch of log at a negative base, agree.
    """
    if isinstance(e, Constant):
        return e.value
    if isinstance(e, Variable):
        return cols[:, e.index - 1]
    if isinstance(e, Radius):
        return r
    if isinstance(e, LogRadius):
        return ln_r
    if isinstance(e, Negate):
        return -_eval(e.child, cols, r, ln_r)
    if isinstance(e, Sum):
        return sum((_eval(t, cols, r, ln_r) for t in e.terms), complex(0))
    if isinstance(e, Product):
        # the first factor makes acc a new array, so *= never writes to cols
        acc = complex(1)
        for f in e.factors:
            acc *= _eval(f, cols, r, ln_r)
        return acc
    if isinstance(e, Power):
        c = e.exponent
        if isinstance(e.base, Radius):
            return np.exp(c * ln_r)
        b = _eval(e.base, cols, r, ln_r)
        if c.real <= 0:
            # 1/inf and inf^0 are finite: an overflow in the base would vanish
            # here, while anywhere else it reaches the checked result
            _check_finite(b)
        integral = c.imag == 0 and c.real.is_integer()
        if integral and c.real < 0 and np.any(b == 0):
            raise EvalOverflowError("zero base with negative exponent")
        if not isinstance(b, np.ndarray):
            try:
                if integral:
                    return b ** int(c.real)
                return cmath.exp(c * cmath.log(b)) if b != 0 else complex(0)
            except OverflowError:
                raise EvalOverflowError(
                    "evaluation overflowed the floating-point range"
                ) from None
        if integral:
            return b ** int(c.real)
        zero = b == 0
        out = np.exp(c * np.log(np.where(zero, 1, b)))
        out[zero] = 0
        return out
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Symbolic differentiation.  dr/dxi = xi * r^-1, d(log r)/dxi = xi * r^-2.


def _mk_sum(terms):
    kept = [t for t in terms if not (isinstance(t, Constant) and t.value == 0)]
    if not kept:
        return Constant(complex(0))
    if len(kept) == 1:
        return kept[0]
    return Sum(tuple(kept))


def _mk_prod(factors):
    kept = []
    for f in factors:
        if isinstance(f, Constant):
            if f.value == 0:
                return Constant(complex(0))
            if f.value == 1:
                continue
        kept.append(f)
    if not kept:
        return Constant(complex(1))
    if len(kept) == 1:
        return kept[0]
    return Product(tuple(kept))


def differentiate(e: Expression, i: int) -> Expression:
    """Symbolic partial derivative with respect to x_i (1-based)."""
    if isinstance(e, Constant):
        return Constant(complex(0))
    if isinstance(e, Variable):
        return Constant(complex(1) if e.index == i else complex(0))
    if isinstance(e, Radius):
        return _mk_prod([Variable(i), Power(RADIUS, complex(-1))])
    if isinstance(e, LogRadius):
        return _mk_prod([Variable(i), Power(RADIUS, complex(-2))])
    if isinstance(e, Negate):
        return Negate(differentiate(e.child, i))
    if isinstance(e, Sum):
        return _mk_sum([differentiate(t, i) for t in e.terms])
    if isinstance(e, Product):
        terms = []
        for j, f in enumerate(e.factors):
            df = differentiate(f, i)
            rest = list(e.factors[:j]) + [df] + list(e.factors[j + 1:])
            terms.append(_mk_prod(rest))
        return _mk_sum(terms)
    if isinstance(e, Power):
        c = e.exponent
        if c == 0:
            return Constant(complex(0))
        db = differentiate(e.base, i)
        return _mk_prod([Constant(c), Power(e.base, c - 1), db])
    raise TypeError(f"not an expression node: {e!r}")
