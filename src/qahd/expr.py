"""Expression DSL: AST, parser, printer and evaluator.

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
    check_finite,
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

_NUMBER = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"

# A real or complex literal.  The DSL reads it between parentheses, as one
# token; the CLI reads --degree, --lambda and delta=A,LAMBDA with it.
_LITERAL = (
    rf"(?P<sign>[+-]?)\s*(?P<re>{_NUMBER})"
    rf"(?:\s*(?P<im_sign>[+-])\s*(?P<im>{_NUMBER})\s*i)?"
)

# One token per match, after the whitespace before it: (whitespace, token).
# The literal's groups lose their names, so findall gives plain pairs; a
# token's kind is read from its first character ('(' opens a literal when
# more follows it).  The alternatives start with distinct characters, except
# that the literal must come before '(', and are ordered by how often they
# occur.  Whitespace before a stray character is one match of its own,
# ("", ""): findall would otherwise retry the run from each of its
# characters, in time quadratic in its length.
_UNNAMED_LITERAL = re.sub(r"\(\?P<\w+>", "(?:", _LITERAL)
_TOKENS_RE = re.compile(
    rf"(\s*)([-+*/^)]|x\d+|r|\(\s*{_UNNAMED_LITERAL}\s*\)|{_NUMBER}|log|i|\()|\s+"
)

_PAREN_LITERAL_RE = re.compile(rf"\(\s*{_LITERAL}")

# how far the text after a '(' reads as a literal, to place an error; only
# malformed input needs it, so it is compiled on first use
_LITERAL_PREFIX = (
    rf"\(\s*(?:[+-]\s*)?(?:{_NUMBER}\s*(?:[+-]\s*(?:(?P<im>{_NUMBER})\s*(?P<i>i\s*)?)?)?)?"
)

_BARE_LITERAL_RE = re.compile(rf"\s*{_LITERAL}\s*")

_BASE_EXPECTED = ("NUMBER", "r", "log(r)", "VAR", "(")

# How deep '(' and unary '-' may nest, counted together: each level is a
# recursion in the parser and in every walk of the tree.
MAX_NESTING = 100


def _literal_value(m: re.Match) -> complex:
    """The value of a literal match; a part that overflows gives inf."""
    re_part = float(m["sign"] + m["re"])
    if m["im"] is None:
        return complex(re_part)
    return complex(re_part, float(m["im_sign"] + m["im"]))


def parse_complex(text: str) -> complex:
    """Read 'a', 'a+bi' or 'a-bi' with the DSL's literal grammar."""
    m = _BARE_LITERAL_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"cannot parse complex number {text!r} (use 'a' or 'a+bi')")
    value = _literal_value(m)
    if cmath.isinf(value):
        raise ValueError(f"complex number {text!r} is out of the floating-point range")
    return value


def _tokenize(text):
    """The (whitespace, token) pairs of text, and the token texts followed by
    "" for the end of input; a stray character raises.

    findall skips what no token matches, so the pairs cover the text up to
    its trailing whitespace, which is not scanned, exactly when no character
    was skipped.
    """
    end = len(text.rstrip())  # str.isspace is what \s matches
    pairs = _TOKENS_RE.findall(text, 0, end)
    toks = [tok for _, tok in pairs]
    if len("".join(toks)) + len("".join([space for space, _ in pairs])) != end:
        pos = 0
        for space, tok in pairs:
            if not text.startswith(space + tok, pos):
                break
            pos += len(space) + len(tok)
        pos += len(text[pos:]) - len(text[pos:].lstrip())
        raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
    toks.append("")
    return pairs, toks


class _Parser:
    """Recursive descent over the fixed grammar (precedence: ^, unary -, */, +-).

    `toks` is the token texts followed by "" for the end of input, `i` the
    index of the next token, and `depth` how many '(' and unary '-' enclose
    it.  `powers` maps (base token, exponent token) to the Power node read
    from them, for the bases r and x_i: a repeated power is read once.
    """

    def __init__(self, text, n):
        self.text = text
        self.pairs, self.toks = _tokenize(text)
        self.n = n
        self.i = 0
        self.depth = 0
        self.powers = {}

    def start(self, i):
        """Where token i starts in the text (the end of input at the end)."""
        if i == len(self.pairs):
            return len(self.text)
        before = sum(len(space) + len(tok) for space, tok in self.pairs[:i])
        return before + len(self.pairs[i][0])

    def nest(self, i):
        """Enter one more level at token i, a '(' or a unary '-'."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprSyntaxError(
                f"nesting of '(' and unary '-' deeper than {MAX_NESTING}", self.start(i)
            )

    def expect(self, value, expected):
        tok = self.toks[self.i]
        if tok != value:
            raise ExprSyntaxError(
                f"expected {expected}, found {tok or 'end of input'!r}",
                self.start(self.i),
                (expected,),
            )
        self.i += 1

    def literal(self, m=None) -> complex:
        """Consume a number or literal token and return its value, which is
        finite; m is the literal's match where the caller has made it."""
        i = self.i
        tok = self.toks[i]
        self.i = i + 1
        if tok[0] == "(":
            value = _literal_value(m or _PAREN_LITERAL_RE.match(tok))
        else:
            value = complex(float(tok))
        if cmath.isinf(value):
            raise ExprSyntaxError(
                f"literal {tok!r} is out of the floating-point range", self.start(i)
            )
        return value

    # expr := term (("+"|"-") term)*
    def parse_expr(self):
        terms = [self.parse_term()]
        toks = self.toks
        while (op := toks[self.i]) == "+" or op == "-":
            self.i += 1
            term = self.parse_term()
            terms.append(Negate(term) if op == "-" else term)
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    # term := factor (("*"|"/") factor)*
    def parse_term(self):
        factors = [self.parse_factor()]
        toks = self.toks
        while (op := toks[self.i]) == "*" or op == "/":
            i = self.i
            self.i = i + 1
            factor = self.parse_factor()
            if op == "/":
                factor = self._invert(factor, i)
            factors.append(factor)
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def _invert(self, e, i):
        """Division sugar: u/v -> u * v^(-1) for monomial v only; i is the '/'."""
        if isinstance(e, Negate):
            return Negate(self._invert(e.child, i))
        if isinstance(e, Constant):
            if e.value == 0:
                raise ExprSyntaxError("division by zero literal", self.start(i))
            return Constant(1 / e.value)
        if isinstance(e, (Radius, Variable)):
            return Power(e, complex(-1))
        if isinstance(e, LogRadius):
            # log(r) is not a monomial in r and the variables
            raise ExprSyntaxError("division by non-monomial divisor", self.start(i))
        if isinstance(e, Power) and isinstance(e.base, (Radius, Variable)):
            return Power(e.base, -e.exponent)
        raise ExprSyntaxError("division by non-monomial divisor", self.start(i))

    # factor := ("-")? base ("^" exponent)?
    def parse_factor(self):
        i = self.i
        toks = self.toks
        tok = toks[i]
        if tok == "-":
            self.nest(i)
            self.i = i + 1
            factor = Negate(self.parse_factor())
            self.depth -= 1
            return factor
        key = None
        if (tok == "r" or tok[:1] == "x") and toks[i + 1] == "^":
            key = (tok, toks[i + 2])
            power = self.powers.get(key)
            if power is not None:
                self.i = i + 3
                return power
        base = self.parse_base()
        if toks[self.i] == "^":
            self.i += 1
            power = Power(base, self.parse_exponent())
            if key is not None:
                self.powers[key] = power
            return power
        return base

    def parse_base(self):
        i = self.i
        tok = self.toks[i]
        head = tok[:1]
        if head == "r":
            self.i = i + 1
            return RADIUS
        if head == "x":
            self.i = i + 1
            index = int(tok[1:])
            if index < 1 or index > self.n:
                raise DimensionError(
                    f"variable {tok} out of range for dimension n={self.n}"
                )
            return Variable(index)
        if head == "." or head.isdecimal():  # what \d matches
            return Constant(self.literal())
        if head == "(":
            if len(tok) == 1:
                self.nest(i)
                self.i = i + 1
                inner = self.parse_expr()
                self.expect(")", "')'")
                self.depth -= 1
                return inner
            m = _PAREN_LITERAL_RE.match(tok)
            # a real '(-x)' or '(+x)' reads as '(' expr ')': the negation of x,
            # or an error at the '+', which starts no base
            sign = m["sign"] if m["im"] is None else ""
            if sign == "+":
                raise ExprSyntaxError(
                    "expected a base expression, found '+'",
                    self.start(i) + m.start("sign"),
                    _BASE_EXPECTED,
                )
            value = self.literal(m)
            return Negate(Constant(complex(-value.real))) if sign else Constant(value)
        if head == "l":
            self.i = i + 1
            nxt = self.toks[i + 1]
            if nxt[:1] == "(" and len(nxt) > 1:
                # in 'log(2)' the literal's '(' is log's own, and what it holds is no 'r'
                m = _PAREN_LITERAL_RE.match(nxt)
                raise ExprSyntaxError(
                    f"expected 'r', found {m['sign'] or m['re']!r}",
                    self.start(i + 1) + m.start("sign"),
                    ("'r'",),
                )
            self.expect("(", "'('")
            self.expect("r", "'r'")
            self.expect(")", "')'")
            return LOG_RADIUS
        raise ExprSyntaxError(
            f"expected a base expression, found {tok or 'end of input'!r}",
            self.start(i),
            _BASE_EXPECTED,
        )

    # exponent := NUMBER | LITERAL
    def parse_exponent(self):
        tok = self.toks[self.i]
        head = tok[:1]
        if head == "." or head.isdecimal() or (head == "(" and len(tok) > 1):
            return self.literal()
        pos = self.start(self.i)
        if tok == "(":
            prefix = re.compile(_LITERAL_PREFIX).match(self.text, pos)
            pos = prefix.end()
            if prefix["im"] is not None:
                want = "')'" if prefix["i"] else "'i'"
                raise ExprSyntaxError(
                    f"expected {want} to close the complex literal", pos, (want,)
                )
        raise NonLiteralExponentError(
            f"exponent must be a numeric literal (position {pos})"
        )


def parse(text: str, n: int) -> Expression:
    """Parse `text` into an AST for ambient dimension `n` (n >= 1)."""
    if n < 1:
        raise DimensionError(f"dimension must be >= 1, got {n}")
    parser = _Parser(text, n)
    tree = parser.parse_expr()
    tok = parser.toks[parser.i]
    if tok:
        raise ExprSyntaxError(f"trailing input {tok!r}", parser.start(parser.i))
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


def _fmt_complex(c: complex) -> str:
    sign = "+" if c.imag >= 0 else "-"
    return f"({_fmt_num(c.real)}{sign}{_fmt_num(abs(c.imag))}i)"


def _fmt_signed_exponent(c: complex) -> str:
    if c.imag == 0:
        if c.real >= 0:
            return _fmt_num(c.real)
        return f"({_fmt_num(c.real)})"
    return _fmt_complex(c)


def _render(e, min_prec) -> str:
    if isinstance(e, Constant):
        v = e.value
        if v.imag == 0 and v.real >= 0:
            return _fmt_num(v.real)
        # '-x' would read back as Negate(x): only the literal gives this constant
        return _fmt_complex(v)
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
    with np.errstate(over="ignore"):
        sq = points[:, 0] * points[:, 0]
        for i in range(1, points.shape[1]):
            sq = sq + points[:, i] * points[:, i]
    check_finite(sq, "evaluation")
    return np.sqrt(sq)


def const_power(b: complex, c: complex) -> complex:
    """b^c for constants: b ** m for an integral c, so that no digit changes,
    else exp(c log b), 0 at b = 0.  Out of range raises EvalOverflowError."""
    try:
        if c.imag == 0 and c.real.is_integer():
            value = b ** int(c.real)  # ZeroDivisionError where b^|m| underflows to 0
        else:
            value = cmath.exp(c * cmath.log(b)) if b != 0 else complex(0)
    except (OverflowError, ZeroDivisionError, ValueError):  # ValueError: c infinite
        value = complex(cmath.inf)
    check_finite(value, "constant power {}^{}", b, c)
    return value


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
    check_finite(values, "evaluation")
    return complex(values[0]) if np.ndim(x) == 1 else values


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
            check_finite(b, "evaluation")
        integral = c.imag == 0 and c.real.is_integer()
        if integral and c.real < 0 and np.any(b == 0):
            raise EvalOverflowError("zero base with negative exponent")
        if not isinstance(b, np.ndarray):
            return const_power(b, c)
        if integral:
            return b ** int(c.real)
        zero = b == 0
        out = np.exp(c * np.log(np.where(zero, 1, b)))
        out[zero] = 0
        return out
    raise TypeError(f"not an expression node: {e!r}")
