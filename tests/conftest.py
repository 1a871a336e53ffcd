"""Shared generators for the property and acceptance suites."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from qahd.logform import AngularPart, LogForm
from qahd.operators import random_points  # noqa: F401  (shared with the suites)
from qahd.pairing import TestFunction

# keep pytest from trying to collect the bump class by its name
TestFunction.__test__ = False


def random_form(rng, n=None, k=None, lam=None, max_alpha=4):
    """Random canonical form with the requested dimension, order and degree.

    Angular parts are 1..3 Laurent atoms with |alpha| <= max_alpha and
    coefficient magnitude in [0.5, 2]; retries until the syzygy-reduced
    order equals k.
    """
    if n is None:
        n = int(rng.integers(1, 4))
    if k is None:
        k = int(rng.integers(0, 5))
    if lam is None:
        lam = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
    while True:
        parts = []
        for _ in range(k + 1):
            atoms = {}
            for _ in range(int(rng.integers(1, 4))):
                weight = int(rng.integers(0, max_alpha + 1))
                alpha = tuple(int(v) for v in rng.multinomial(weight, [1.0 / n] * n))
                mag = rng.uniform(0.5, 2.0)
                phase = rng.uniform(0.0, 2.0 * math.pi)
                atoms[alpha] = atoms.get(alpha, 0) + mag * cmath.exp(1j * phase)
            parts.append(AngularPart(n, atoms))
        form = LogForm.make(n, lam, parts)
        if not form.is_zero and form.order == k:
            return form


class ExprGen:
    """Random grammar-conforming source strings."""

    def __init__(self, rng, n, max_num=10):
        self.rng = rng
        self.n = n
        self.max_num = max_num

    def number(self):
        if self.rng.random() < 0.5:
            return str(int(self.rng.integers(0, self.max_num)))
        return f"{self.rng.uniform(0, self.max_num):.3f}"

    def exponent(self):
        roll = self.rng.random()
        if roll < 0.4:
            return self.number()
        if roll < 0.7:
            return f"(-{self.number()})"
        sign = "-" if self.rng.random() < 0.5 else "+"
        lead = "-" if self.rng.random() < 0.3 else ""
        return f"({lead}{self.number()}{sign}{self.number()}i)"

    def base(self, depth):
        roll = self.rng.random()
        if roll < 0.2:
            return self.number()
        if roll < 0.45:
            return "r"
        if roll < 0.6:
            return "log(r)"
        if roll < 0.85 or depth > 3:
            return f"x{int(self.rng.integers(1, self.n + 1))}"
        return f"({self.expr(depth + 1)})"

    def factor(self, depth):
        s = self.base(depth)
        if self.rng.random() < 0.5:
            s = f"{s}^{self.exponent()}"
        if self.rng.random() < 0.2:
            s = f"-{s}"
        return s

    def term(self, depth):
        count = int(self.rng.integers(1, 4))
        parts = [self.factor(depth)]
        for _ in range(count - 1):
            # division only by monomial factors, per the grammar contract
            if self.rng.random() < 0.25:
                divisor = ["r", f"x{int(self.rng.integers(1, self.n + 1))}"][
                    int(self.rng.integers(0, 2))
                ]
                if self.rng.random() < 0.5:
                    divisor = f"{divisor}^{int(self.rng.integers(1, 4))}"
                parts.append(f"/ {divisor}")
            else:
                parts.append(f"* {self.factor(depth)}")
        return " ".join(parts)

    def expr(self, depth=0):
        count = int(self.rng.integers(1, 4))
        parts = [self.term(depth)]
        for _ in range(count - 1):
            op = "+" if self.rng.random() < 0.5 else "-"
            parts.append(f"{op} {self.term(depth)}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# DSL text for the hypothesis properties: one strategy, over ordinary
# literals by default and over extreme ones for the exit-code contract.

SPACE = st.sampled_from(["", " ", "  ", "\t"])
NUMBER = st.one_of(
    st.integers(0, 10**6).map(str),
    st.floats(0, 1e6).map(repr),
    st.sampled_from([".5", "1.", "2.50", "1e3", "1E-2", "0.0", "007", ".25e+2"]),
)
# literals at the edges of the float range: subnormal, huge, zero, and a
# complex one whose modulus is past the range though its parts are not
EXTREME_NUMBER = st.sampled_from(["0", "2", ".5", "1e-200", "1e-320", "1e308", "1.3e308"])
# exponents that take such constants past the range, or to a zero base
EXTREME_EXPONENT = st.sampled_from(["(-2)", "(-40)", "(-1)", "170", "0.5", "(1+2i)", "2"])
DIVISOR = st.sampled_from(["r", "x1", "x2^2", "r^(1-2i)", "x1^( - .5)"])


@st.composite
def literal(draw, numbers=NUMBER, real_sign=("", "-", "- ")):
    """A parenthesised literal; '+' leads only a complex one, as in a base."""
    imag = draw(st.booleans())
    sign = draw(st.sampled_from(("", "-", "+", "- ", "+ ") if imag else real_sign))
    body = sign + draw(numbers)
    if imag:
        body += "".join([
            draw(SPACE), draw(st.sampled_from("+-")), draw(SPACE),
            draw(numbers), draw(SPACE), "i",
        ])
    return f"({draw(SPACE)}{body}{draw(SPACE)})"


@st.composite
def dsl(draw, numbers=NUMBER, exponents=None, depth=0):
    """DSL text over x1, x2 rich in literals: paren literals, complex
    exponents, spaces.  `exponents` defaults to `numbers` and their literals."""
    if exponents is None:
        exponents = st.one_of(numbers, literal(numbers, real_sign=("", "-", "+", "- ")))
    bases = [numbers, literal(numbers), st.sampled_from(["r", "log(r)", "x1", "x2"])]
    if depth < 2:
        bases.append(dsl(numbers, exponents, depth + 1).map(lambda t: f"({t})"))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        factors = []
        for k in range(draw(st.integers(1, 3))):
            if k and draw(st.booleans()):
                factors.append("/" + draw(SPACE) + draw(DIVISOR))
                continue
            f = draw(st.one_of(*bases))
            if draw(st.booleans()):
                f += draw(SPACE) + "^" + draw(SPACE) + draw(exponents)
            if draw(st.integers(0, 4)) == 0:
                f = "-" + f
            factors.append(("*" + draw(SPACE) if k else "") + f)
        terms.append(draw(SPACE).join(factors))
    return "".join(
        t if k == 0 else draw(st.sampled_from([" + ", "-", " - ", "+"])) + t
        for k, t in enumerate(terms)
    )


@pytest.fixture(scope="session")
def form_corpus():
    """200 random canonical forms spanning n in 1..3, k in 0..4."""
    rng = np.random.default_rng(20260826)
    forms = []
    for i in range(200):
        n = 1 + i % 3
        k = i % 5
        forms.append(random_form(rng, n=n, k=k))
    return forms
