"""Parser, printer and evaluator of the expression DSL."""

import cmath
import math
import re
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qahd.errors import (
    DimensionError,
    ExprSyntaxError,
    NonLiteralExponentError,
    OriginError,
)
from qahd import expr
from qahd.expr import (
    MAX_NESTING,
    Constant,
    LogRadius,
    Negate,
    Power,
    Product,
    Radius,
    Sum,
    Variable,
    _Parser,
    eval_expr,
    parse,
    render,
)

from conftest import ExprGen, dsl, random_points


def test_parse_single_power():
    assert parse("r^2", 2) == Power(Radius(), complex(2))


def test_parse_division_and_products():
    tree = parse("x1^2/r^2 * r^(-1+0i) * log(r)^2", 2)
    assert tree == Product(
        (
            Power(Variable(1), complex(2)),
            Power(Radius(), complex(-2)),
            Power(Radius(), complex(-1)),
            Power(LogRadius(), complex(2)),
        )
    )


def test_parse_variable_out_of_range():
    with pytest.raises(DimensionError):
        parse("x3", 2)


def test_parse_syntax_error_carries_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("r + ", 1)
    assert err.value.position == 4


def test_parse_rejects_non_literal_exponent():
    with pytest.raises(NonLiteralExponentError):
        parse("r^(x1)", 1)
    with pytest.raises(NonLiteralExponentError):
        parse("r^x1", 1)


def test_parse_rejects_non_monomial_divisor():
    with pytest.raises(ExprSyntaxError):
        parse("r / (x1 + x2)", 2)
    with pytest.raises(ExprSyntaxError):
        parse("r / log(r)", 1)


def test_parse_rejects_log_of_non_radius():
    with pytest.raises(ExprSyntaxError):
        parse("log(x1)", 1)


def test_render_atoms_and_round_trip():
    assert render(Power(Radius(), complex(2))) == "r^2"
    assert render(parse("r^2", 2)) == "r^2"
    tree = parse("3 * log(r)", 1)
    assert render(tree) == "3 * log(r)"
    assert parse(render(tree), 1) == tree


def test_render_negative_and_complex_exponents():
    assert render(parse("r^(-2)", 1)) == "r^(-2)"
    assert render(parse("r^(1-2i)", 1)) == "r^(1-2i)"
    assert parse(render(parse("r^(1-2i)", 1)), 1) == parse("r^(1-2i)", 1)
    # a negative real constant only comes from a literal, and prints as one
    for text in ("(-1+0i)", "-(-1+0i)", "x1 * (-2-0i)", "(-3+0i)^2", "r / (-2+0i)"):
        tree = parse(text, 1)
        assert parse(render(tree), 1) == tree, text
    assert render(parse("(-1+0i)", 1)) == "(-1+0i)"


def test_eval_pythagorean_point():
    assert eval_expr(parse("r^2", 2), (3, 4)) == pytest.approx(25)


def test_eval_log_radius():
    assert eval_expr(parse("log(r)", 1), (math.e,)) == pytest.approx(1.0)


def test_eval_complex_power():
    # e^{i ln e} = cos 1 + i sin 1
    got = eval_expr(parse("r^(0+1i)", 1), (math.e,))
    assert got == pytest.approx(complex(math.cos(1), math.sin(1)), rel=1e-12)
    assert got == pytest.approx(cmath.exp(1j * math.log(math.e)))


def test_eval_at_origin_raises():
    with pytest.raises(OriginError):
        eval_expr(parse("r^2", 2), (0, 0))


def test_homogeneity_of_monomials():
    rng = np.random.default_rng(13)
    for text, degree in [("x1^2*r^(-3)", -1.0), ("x1*x2*r^2", 4.0), ("r^(-2)", -2.0)]:
        tree = parse(text, 2)
        for x in random_points(rng, 2, 10):
            base = eval_expr(tree, x)
            for a in (0.5, 2.0, 10.0):
                scaled = eval_expr(tree, tuple(a * c for c in x))
                assert scaled == pytest.approx(a ** degree * base, rel=1e-12)


def test_round_trip_random_sample():
    rng = np.random.default_rng(17)
    gen = ExprGen(rng, 3)
    for _ in range(200):
        text = gen.expr()
        tree = parse(text, 3)
        assert parse(render(tree), 3) == tree


# text -> the tree, or (the exception class, its position for syntax errors)
LITERAL_TABLE = [
    ("(1+2i)", Constant(complex(1, 2))),
    ("( 1 + 2 i )", Constant(complex(1, 2))),
    ("(-1.5)", Negate(Constant(complex(1.5)))),
    ("(+2)", (ExprSyntaxError, 1)),
    ("(2)^2", Power(Constant(complex(2)), complex(2))),
    ("r^(+2)", Power(Radius(), complex(2))),
    ("r^(1-2i)", Power(Radius(), complex(1, -2))),
    ("r^-1", (NonLiteralExponentError, None)),
    ("r^(x1)", (NonLiteralExponentError, None)),
    ("(1+2i", (ExprSyntaxError, 4)),
    ("2i", (ExprSyntaxError, 1)),
    ("r^x1 + 2i", (NonLiteralExponentError, None)),
    ("r^(1+2)", (ExprSyntaxError, 6)),
    ("r^(1+2i x1)", (ExprSyntaxError, 8)),
    # log's '(' opens no literal: the error is at what follows it
    ("log(2)", (ExprSyntaxError, 4)),
    ("log( -1.5)", (ExprSyntaxError, 5)),
    # a literal that overflows to inf is refused where it stands
    ("1e400", (ExprSyntaxError, 0)),
    ("r^1e400", (ExprSyntaxError, 2)),
    ("r^(1e400)", (ExprSyntaxError, 2)),
    ("r^(1-1e400i)", (ExprSyntaxError, 2)),
    ("x1*(1e400+1i)", (ExprSyntaxError, 3)),
    ("r/ (-1e400)", (ExprSyntaxError, 3)),
    # a stray character is placed after the whitespace before it, also after
    # the last token; trailing whitespace of any kind is no stray
    ("x1 $ x2", (ExprSyntaxError, 3)),
    ("r^2 $", (ExprSyntaxError, 4)),
    ("r \u3000", Radius()),
    # a digit is what \d matches, in any script
    ("r^\u0662", Power(Radius(), complex(2))),
]


@pytest.mark.parametrize("text, want", LITERAL_TABLE)
def test_literal_table(text, want):
    if not isinstance(want, tuple):
        # repr also tells the signed zeros apart, which evaluation can see
        assert repr(parse(text, 1)) == repr(want)
        return
    error, position = want
    with pytest.raises(error) as err:
        parse(text, 1)
    assert type(err.value) is error
    if position is not None:
        assert err.value.position == position


def test_long_whitespace_is_read_in_linear_time():
    # a whitespace run at the end, or before a stray character, is read once;
    # a scan that retried it from each of its characters would take hours here
    run = " \t" * 100_000
    start = time.perf_counter()
    assert parse("x1" + run, 1) == Variable(1)
    with pytest.raises(ExprSyntaxError) as err:
        parse("x1" + run + "$" + run + "+ r", 1)
    assert err.value.position == 2 + len(run)
    assert time.perf_counter() - start < 5.0


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(dsl())
def test_render_round_trip_property(text):
    tree = parse(text, 2)
    assert parse(render(tree), 2) == tree


# The one-match-at-a-time tokenizer the parser once used: the reference for
# the tokens and their start positions, and for where a stray character is.
_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_REFERENCE_TOKEN_RE = re.compile(
    rf"(?P<ws>\s+)|(?P<literal>\(\s*[+-]?\s*{_NUM}(?:\s*[+-]\s*{_NUM}\s*i)?\s*\))"
    rf"|(?P<number>{_NUM})|(?P<var>x\d+)|(?P<log>log)|(?P<r>r)|(?P<i>i)|(?P<op>[-+*/^()])"
)


def reference_tokens(text):
    """([(token, start), ...] ending with ("", len(text)), stray position or None)."""
    tokens, pos = [], 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            return tokens, pos
        if m.lastgroup != "ws":
            tokens.append((m.group(), pos))
        pos = m.end()
    return tokens + [("", len(text))], None


_FRAGMENTS = [
    "x1", "x23", "r", "log", "i", "(", ")", "+", "-", "*", "/", "^",
    "2", "1.5", ".5", "3.", "1e-3", "2E+2", "\u0663", "(1+2i)", "( - .5 )", "(2 - 3e1 i)",
    " ", "  ", "\t", "\n", "\u00a0", "\u2003", "\u3000", "\x1c", "\u2028",
]
_STRAYS = st.one_of(st.sampled_from(["$", "x", "lo", "e", "\u00e9", "j"]), st.characters())


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=20),
       st.one_of(st.none(), _STRAYS), st.integers(0, 20))
def test_tokens_and_positions_match_the_reference_scanner(fragments, stray, at):
    # DSL fragments and whitespace of several kinds, with at most one
    # inserted character or fragment that may be a stray
    if stray is not None:
        fragments.insert(at, stray)
    text = "".join(fragments)
    want, stray_at = reference_tokens(text)
    if stray_at is not None:
        with pytest.raises(ExprSyntaxError) as err:
            _Parser(text, 1)
        assert err.value.position == stray_at
        assert str(err.value).startswith(f"unexpected character {text[stray_at]!r}")
        return
    parser = _Parser(text, 1)
    assert [(tok, parser.start(i)) for i, tok in enumerate(parser.toks)] == want


# ---------------------------------------------------------------------------
# A power of r or x_i is read once per parse for each exponent text.


class _NoStore(dict):
    def __setitem__(self, key, value):
        pass


class _ForgetfulParser(_Parser):
    """The parser with a power table that keeps nothing."""

    def __init__(self, text, n):
        super().__init__(text, n)
        self.powers = _NoStore()


def parse_outcome(text, n):
    """repr of the tree (it tells signed zeros apart), or the error raised."""
    try:
        return repr(parse(text, n))
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.one_of(dsl(), st.lists(st.sampled_from(_FRAGMENTS), max_size=20).map("".join)))
@example("x1^2 + x2^2 - x1 ^ 2*r^2*r^(2)*r^2.0")
@example("x1^2*x3^2")
@example("r^(-1.5)*r^(-1.25)*x1^25*x1^2")
@example("r^(1-0i)*r^(1-0 i)/r^(1-0i)")
def test_power_table_changes_no_parse(text):
    want = parse_outcome(text, 2)
    with mock.patch.object(expr, "_Parser", _ForgetfulParser):
        assert parse_outcome(text, 2) == want


def test_repeated_power_is_read_once():
    text = " + ".join(["x1^2*r^(-1.5+0.2i)"] * 200)
    with mock.patch.object(_Parser, "literal", autospec=True, side_effect=_Parser.literal) as read:
        tree = parse(text, 1)
    assert read.call_count == 2  # '2' and '(-1.5+0.2i)'
    first, last = tree.terms[0].factors, tree.terms[-1].factors
    assert first[1] is last[1] and first[1] == Power(Radius(), complex(-1.5, 0.2))
    with mock.patch.object(expr, "_Parser", _ForgetfulParser):
        assert parse(text, 1) == tree


# ---------------------------------------------------------------------------
# '(' and unary '-' nest to MAX_NESTING levels, counted together.


def test_nesting_bound():
    nested_sum = "(r+" * (MAX_NESTING - 1) + "(r" + ")" * MAX_NESTING
    assert isinstance(parse(nested_sum, 1), Sum)
    assert isinstance(parse("r+" + "-" * MAX_NESTING + "r", 1), Sum)
    assert isinstance(parse("-(" * (MAX_NESTING // 2) + "r" + ")" * (MAX_NESTING // 2), 1), Negate)
    for text, position in [
        ("(" * (MAX_NESTING + 1) + "r" + ")" * (MAX_NESTING + 1), MAX_NESTING),
        ("r+" + "-" * (MAX_NESTING + 1) + "r", 2 + MAX_NESTING),
        ("-(" * (MAX_NESTING // 2) + "-r" + ")" * (MAX_NESTING // 2), MAX_NESTING),
        ("r+" + "-" * 1000 + "r", 2 + MAX_NESTING),
    ]:
        with pytest.raises(ExprSyntaxError) as err:
            parse(text, 1)
        assert err.value.position == position
