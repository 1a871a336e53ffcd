"""Seeded inputs for the three benchmark workloads.

Each workload is a fixed table of slots; one round runs every slot once,
with coefficients, degrees, scales and points drawn from a generator keyed
by (workload, seed, round).  The slot table fixes the sizes that drive
cost (p, k, n, atom count, node count), so every round costs about the
same whatever the seed.  Each round also holds one fixed fault input (F1,
F2 or F3) that the program answers wrongly today; it is the same under
every seed, and only its trailing whitespace changes from round to round
so that no input string repeats within a run.

This module is pure standard library: the worker process that times the
program imports it, and must not pull in numpy or sympy to do so.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

WORKLOADS = ("symbolic", "verify", "pairing")


@dataclass(frozen=True)
class Term:
    """c * x^alpha * r^mu * log(r)^j * (s.x + r)^p * (1 + log(r))^k."""

    c: complex
    alpha: Tuple[int, ...]
    mu: complex = 0j
    j: int = 0
    s: Optional[Tuple[float, ...]] = None
    p: int = 0
    k: int = 0

    @property
    def n(self) -> int:
        return len(self.alpha)

    @property
    def degree(self) -> complex:
        return complex(sum(self.alpha) + self.p) + self.mu

    @property
    def order(self) -> int:
        return self.j + self.k

    def value(self, x) -> complex:
        """The term at the point x != 0."""
        r = math.sqrt(sum(v * v for v in x))
        lr = math.log(r)
        out = complex(self.c) * cmath.exp(self.mu * lr) * lr ** self.j * (1 + lr) ** self.k
        for v, a in zip(x, self.alpha):
            out *= v ** a
        if self.p:
            out *= (sum(s * v for s, v in zip(self.s, x)) + r) ** self.p
        return out


@dataclass
class Op:
    """One CLI call and what the checker needs to judge its output."""

    workload: str
    slot: int
    verb: str
    argv: List[str]
    n: int
    terms: List[Term] = field(default_factory=list)
    fault: Optional[str] = None
    # verb-specific expectations
    op: Optional[tuple] = None  # apply: ("dilate", a) | ("euler",) | ...
    expect_code: int = 0
    lam: complex = 0j  # verify: asserted degree; identify: true degree
    order: int = 0  # verify: asserted order; identify: true order
    center: Tuple[float, ...] = ()
    width: float = 1.0
    nodes: int = 64


# ---------------------------------------------------------------------------
# Rendering in the CLI's expression language.


def num(v: float) -> str:
    """Shortest decimal that parses back to exactly v."""
    v = float(v)
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def cnum(z: complex) -> str:
    """Complex literal '(a+bi)' or a real number."""
    z = complex(z)
    if z.imag == 0:
        return num(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"({num(z.real)}{sign}{num(abs(z.imag))}i)"


def exponent(z: complex) -> str:
    z = complex(z)
    if z.imag == 0 and z.real >= 0:
        return num(z.real)
    return cnum(z) if z.imag != 0 else f"({num(z.real)})"


def arg_complex(z: complex) -> str:
    """Complex value in the CLI's option syntax 'a' or 'a+bi'."""
    z = complex(z)
    if z.imag == 0:
        return num(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{num(z.real)}{sign}{num(abs(z.imag))}i"


def render_term(t: Term, first: bool) -> str:
    """One term, with its sign; a sum reads 'a - b' rather than 'a + -b'."""
    c = complex(t.c)
    sign = " + "
    lead = None
    if c.imag == 0 and c.real < 0:
        if first:
            # a leading '-' would read as an option on the command line
            lead = f"({num(c.real)})"
        else:
            sign, c = " - ", -c
    factors = []
    if lead is not None:
        factors.append(lead)
    elif c != 1 or not any((any(t.alpha), t.mu, t.j, t.p, t.k)):
        factors.append(cnum(c))
    for i, a in enumerate(t.alpha):
        if a:
            factors.append(f"x{i + 1}" if a == 1 else f"x{i + 1}^{a}")
    if t.p:
        inner = "+".join(f"{num(si)}*x{i + 1}" for i, si in enumerate(t.s))
        factors.append(f"({inner.replace('+-', '-')}+r)^{t.p}")
    if t.k:
        factors.append(f"(1+log(r))^{t.k}")
    if t.mu:
        factors.append(f"r^{exponent(t.mu)}")
    if t.j:
        factors.append("log(r)" if t.j == 1 else f"log(r)^{t.j}")
    body = "*".join(factors)
    return body if first else sign + body


def render(terms: List[Term]) -> str:
    return "".join(render_term(t, idx == 0) for idx, t in enumerate(terms))


# ---------------------------------------------------------------------------
# Fixed fault inputs: the same under every seed.

F1_EXPR = "3.7*(x1+x2+r)^6*(x1^2+x2^2-r^2)*log(r)^2 + (x1+x2+r)^8*log(r)"
F2_EXPR = "(x1+x2+x3+r)^6*log(r)^2"
F3_EXPR = "r^(-1.5)*(1 + log(r))"

FAULTS = {
    "F1": "classify reports order 2 for an order-1 form: the syzygy "
    "reduction leaves 1.08e-12, above the absolute COEFF_ZERO_THRESHOLD",
    "F2": "verify rejects a true degree-6 order-2 assertion: _residual "
    "divides by 1+|lhs| and the expanded form cancels at the points",
    "F3": "pair ignores the r^(lam+n-1) endpoint singularity when the bump "
    "covers the origin: -4.364 instead of -4.7344363455",
}


def _f1(round_index: int) -> Op:
    # the x1^2+x2^2-r^2 factor is zero, so only the second term counts
    expr = F1_EXPR + " " * round_index
    return Op("symbolic", -1, "classify", ["classify", "-n", "2", expr], 2,
              terms=[Term(1.0, (0, 0), j=1, s=(1.0, 1.0), p=8)], fault="F1")


def _f2(round_index: int) -> Op:
    expr = F2_EXPR + " " * round_index
    return Op("verify", -1, "verify",
              ["verify", "-n", "3", expr, "--degree", "6", "--order", "2"], 3,
              terms=[Term(1.0, (0, 0, 0), j=2, s=(1.0, 1.0, 1.0), p=6)],
              fault="F2", expect_code=0, lam=6 + 0j, order=2)


def _f3(round_index: int) -> Op:
    expr = F3_EXPR + " " * round_index
    return Op("pairing", -1, "pair",
              ["pair", "-n", "2", expr, "--center", "0.3", "0", "--width", "1"], 2,
              terms=[Term(1.0, (0, 0), mu=-1.5), Term(1.0, (0, 0), mu=-1.5, j=1)],
              fault="F3", center=(0.3, 0.0), width=1.0, nodes=64)


# ---------------------------------------------------------------------------
# Random pieces.


def _rnd(rng: random.Random, lo: float, hi: float, digits: int = 4) -> float:
    return round(rng.uniform(lo, hi), digits)


def _signed(rng: random.Random, lo: float, hi: float, digits: int = 4) -> float:
    return _rnd(rng, lo, hi, digits) * rng.choice((-1.0, 1.0))


def _coef(rng: random.Random) -> complex:
    re = _signed(rng, 0.5, 2.0)
    if rng.random() < 0.3:
        return complex(re, _signed(rng, 0.1, 1.0))
    return complex(re)


def _alpha(rng: random.Random, n: int, weight: int, reduced: bool) -> Tuple[int, ...]:
    """Random multi-index of the given weight; x1 power <= 1 if reduced."""
    alpha = [0] * n
    for _ in range(weight):
        alpha[rng.randrange(n)] += 1
    if reduced and alpha[0] > 1:
        if n == 1:
            alpha[0] = alpha[0] % 2
        else:
            extra = alpha[0] - 1
            alpha[0] = 1
            alpha[1] += extra
    return tuple(alpha)


def _shift(lam: complex, alpha: Tuple[int, ...]) -> complex:
    """The r-power that gives x^alpha r^mu degree lam, as a short decimal."""
    return complex(round(lam.real - sum(alpha), 6), lam.imag)


def atom_terms(rng: random.Random, n: int, k: int, lam: complex, count: int,
               max_weight: int = 4) -> List[Term]:
    """An expanded form of degree lam and order k written as `count` monomials.

    The log^k part uses distinct multi-indices with x1-power <= 1: these
    atoms are independent on the sphere, so the order is exactly k.
    """
    top: dict = {}
    want_top = min(max(1, count // (k + 1)), 3)
    while len(top) < want_top:
        alpha = _alpha(rng, n, rng.randint(0, max_weight), reduced=True)
        if n == 1 and len(top) == 2:
            break
        top.setdefault(alpha, _coef(rng))
    terms = [Term(c, a, mu=_shift(lam, a), j=k) for a, c in top.items()]
    while len(terms) < count:
        alpha = _alpha(rng, n, rng.randint(0, max_weight), reduced=False)
        j = rng.randrange(k + 1) if k else 0
        terms.append(Term(_coef(rng), alpha, mu=_shift(lam, alpha), j=j))
    rng.shuffle(terms)
    return terms


# ---------------------------------------------------------------------------
# symbolic: classify / chain / apply on powers of sums.

# (verb, n, p, k); (n+1)^p * 2^k monomials before collection stays <= 16384.
# A negative p = -m stands for a sum of m terms of powers 3, 2, ... and
# distinct degrees, the first of them complex.
SYMBOLIC_SLOTS = [
    ("classify", 1, 8, 1), ("classify", 2, 5, 3), ("classify", 3, 7, 0),
    ("chain", 1, 5, 4), ("chain", 2, 4, 2), ("chain", 3, 5, 1),
    ("dilate", 1, 3, 2), ("dilate", 2, 7, 1), ("dilate", 3, 4, 3),
    ("euler", 1, 6, 3), ("euler", 2, 3, 4), ("euler", 3, 1, 2),
    ("delta", 1, 1, 0), ("delta", 2, 8, 0), ("delta", 3, 3, 1),
    ("power_e", 1, 2, 4), ("power_e", 2, 2, 1), ("power_e", 3, 6, 1),
    ("power_d", 1, 7, 2), ("power_d", 2, 6, 0), ("power_d", 3, 2, 4),
    ("classify", 3, -3, 2), ("chain", 2, -3, 3), ("power_e", 2, -2, 2),
]


def _mu(rng: random.Random) -> complex:
    kind = rng.random()
    if kind < 0.3:
        return 0j
    re = _signed(rng, 0.0, 2.0, 3)
    if kind > 0.65:
        return complex(re, _signed(rng, 0.1, 1.5, 3))
    return complex(re)


def _sum_term(rng: random.Random, n: int, p: int, k: int, mu: complex) -> Term:
    s = tuple(_signed(rng, 0.5, 1.5, 2) for _ in range(n))
    return Term(_coef(rng), (0,) * n, mu=mu, s=s, p=p, k=k)


def _symbolic_terms(rng: random.Random, n: int, p: int, k: int) -> List[Term]:
    if p > 0:
        return [_sum_term(rng, n, p, k, _mu(rng))]
    terms = []
    degrees: list = []
    for i in range(-p):
        while True:
            mu = _mu(rng) if i else complex(_signed(rng, 0.0, 2.0, 3), _signed(rng, 0.2, 1.5, 3))
            pi = 3 - i
            deg = pi + mu
            if all(abs(deg - d) > 0.1 for d in degrees):
                break
        degrees.append(deg)
        terms.append(_sum_term(rng, n, pi, rng.randint(0, k) if i else k, mu))
    return terms


def _symbolic_op(rng: random.Random, slot: int) -> Op:
    verb, n, p, k = SYMBOLIC_SLOTS[slot]
    terms = _symbolic_terms(rng, n, p, k)
    expr = render(terms)
    base = ["-n", str(n), expr]
    if verb in ("classify", "chain"):
        return Op("symbolic", slot, verb, [verb] + base, n, terms=terms)
    a = _rnd(rng, 0.3, 3.0)
    if verb == "dilate":
        op = ("dilate", a)
        extra = ["--op", f"dilate={num(a)}"]
    elif verb == "euler":
        op = ("euler",)
        extra = ["--op", "euler"]
    elif verb == "delta":
        # half the time the component's own degree, where the result cancels
        mu = terms[0].degree if rng.random() < 0.5 else complex(
            _signed(rng, 0.0, 4.0, 3), _signed(rng, 0.0, 1.0, 3))
        op = ("delta", a, mu)
        extra = ["--op", f"delta={num(a)},{arg_complex(mu)}"]
    elif verb == "power_e":
        m = rng.randint(1, max(t.order for t in terms) + 1)
        op = ("power", "euler_minus_lambda", m)
        extra = ["--op", f"power=euler_minus_lambda,{m}"]
    else:
        m = rng.randint(1, 3)
        op = ("power", "delta_a", m, a)
        extra = ["--op", f"power=delta_a,{m}", "--a", num(a)]
    return Op("symbolic", slot, "apply", ["apply"] + base + extra, n,
              terms=terms, op=op)


# ---------------------------------------------------------------------------
# verify: verify / identify on forms written as sums of atoms.

# (verb, n, k, atoms, assertion) with assertion one of
#   true | order+1 | order-1 | degree  (verify)   or   multi | x0 (identify)
VERIFY_SLOTS = [
    ("verify", 1, 0, 10, "true"), ("verify", 1, 2, 40, "degree"),
    ("verify", 1, 4, 80, "true"), ("verify", 2, 3, 120, "true"),
    ("verify", 2, 4, 200, "order-1"), ("verify", 3, 0, 60, "true"),
    ("verify", 3, 2, 150, "degree"), ("verify", 3, 3, 200, "true"),
    ("verify", 3, 1, 100, "order+1"),
    ("identify", 1, 3, 60, "x0"), ("identify", 2, 2, 40, "x0"),
    ("identify", 2, 4, 200, "multi"), ("identify", 3, 0, 80, "multi"),
    ("identify", 3, 3, 120, "x0"),
]


def _lam(rng: random.Random) -> complex:
    # Re lam <= 0: above it verify rejects true assertions of order >= 3
    # (dilation_nilpotency is not relative to a^(lam(k+1)); see README.md)
    re = _rnd(rng, -1.0, 0.0, 3)
    if rng.random() < 0.6:
        return complex(re, _signed(rng, 0.1, 1.0, 3))
    return complex(re)


def _verify_op(rng: random.Random, slot: int) -> Op:
    verb, n, k, count, how = VERIFY_SLOTS[slot]
    lam = _lam(rng)
    terms = atom_terms(rng, n, k, lam, count)
    expr = render(terms)
    if verb == "verify":
        asserted_lam, asserted_k, code = lam, k, 0
        if how == "order+1":
            asserted_k, code = k + 1, 1
        elif how == "order-1":
            asserted_k, code = k - 1, 1
        elif how == "degree":
            asserted_lam = lam + rng.choice((0.5, -0.5, 0.25j))
            code = 1
        argv = ["verify", "-n", str(n), expr, f"--degree={arg_complex(asserted_lam)}",
                "--order", str(asserted_k), "--seed", str(rng.randrange(1000))]
        return Op("verify", slot, "verify", argv, n, terms=terms,
                  expect_code=code, lam=asserted_lam, order=asserted_k)
    argv = ["identify", "-n", str(n), expr, "--kmax", "4"]
    if how == "x0":
        # a ray along which the log^k coefficient nearly vanishes makes the
        # (k+1)-fold root ill-posed: take the best of eight random rays
        top = [t for t in terms if t.j == k]

        def conditioning(x):
            return abs(sum(t.value(x) for t in top)) / sum(abs(t.value(x)) for t in top)

        candidates = []
        while len(candidates) < 8:
            x = [_signed(rng, 0.2, 1.0, 3) for _ in range(n)]
            if abs(sum(v * v for v in x) - 1.0) > 0.05:
                candidates.append(x)
        x0 = max(candidates, key=conditioning)
        argv += ["--x0"] + [num(v) for v in x0]
    else:
        argv += ["--seed", str(rng.randrange(1000))]
    return Op("verify", slot, "identify", argv, n, terms=terms, lam=lam, order=k)


# ---------------------------------------------------------------------------
# pairing: pair / pair-verify on polar quadrature grids.

# (verb, n, nodes, placement); "around" bumps contain the origin
PAIRING_SLOTS = [
    ("pair", 1, 64, "away"), ("pair", 1, 128, "around"),
    ("pair", 2, 64, "away"), ("pair", 2, 128, "away"),
    ("pair", 2, 64, "around"), ("pair", 3, 64, "away"),
    ("pair", 3, 128, "away"), ("pair", 3, 128, "around"),
    ("pair-verify", 1, 128, "away"), ("pair-verify", 1, 64, "around"),
    ("pair-verify", 2, 64, "around"),
    ("pair-verify", 2, 128, "away"), ("pair-verify", 3, 64, "away"),
    ("pair-verify", 3, 128, "around"),
]


def _bump(rng: random.Random, n: int, slot: int, placement: str):
    """Centre and width of the bump; distance/width is fixed per slot.

    The share of the polar grid inside the support, and with it the size of
    the program's temporaries, depends only on distance/width.
    """
    width = _rnd(rng, 0.5, 2.0, 3)
    step = (3 * slot) % 5 / 4  # 0, 0.25, ..., 1
    ratio = 1.2 + 0.4 * step if placement == "away" else 0.6 * step
    v = [rng.gauss(0.0, 1.0) for _ in range(n)]
    norm = sum(c * c for c in v) ** 0.5 or 1.0
    center = tuple(round(ratio * width * c / norm, 4) for c in v)
    return center, width


def _pairing_op(rng: random.Random, slot: int) -> Op:
    verb, n, nodes, placement = PAIRING_SLOTS[slot]
    center, width = _bump(rng, n, slot, placement)
    # order and atom count follow the slot, so that every round costs the same
    count = 4 + slot % 5
    if placement == "away":
        lam = complex(_rnd(rng, -2.0, 2.0, 3), _signed(rng, 0.0, 1.0, 3))
        terms = atom_terms(rng, n, slot % 3, lam, count, max_weight=3)
    else:
        # smooth radial integrand at the origin: integer lam > -n, no logs
        lam = complex(rng.randint(1 - n, 2))
        terms = atom_terms(rng, n, 0, lam, count, max_weight=2)
    argv = [verb, "-n", str(n), render(terms), "--center"] + [num(c) for c in center]
    argv += ["--width", num(width), "--kr", str(nodes), "--kw", str(nodes)]
    if verb == "pair-verify":
        argv += ["--scale", num(_rnd(rng, 0.4, 2.5, 3))]
    return Op("pairing", slot, verb, argv, n, terms=terms, center=center,
              width=width, nodes=nodes)


_SLOTS = {"symbolic": SYMBOLIC_SLOTS, "verify": VERIFY_SLOTS, "pairing": PAIRING_SLOTS}
_MAKE = {"symbolic": _symbolic_op, "verify": _verify_op, "pairing": _pairing_op}
_FAULT = {"symbolic": _f1, "verify": _f2, "pairing": _f3}


def round_ops(workload: str, seed: int, round_index: int) -> List[Op]:
    """Every slot of the workload once, then its fault input."""
    rng = random.Random(f"{workload}:{seed}:{round_index}")
    ops = [_MAKE[workload](rng, slot) for slot in range(len(_SLOTS[workload]))]
    ops.append(_FAULT[workload](round_index))
    return ops
