"""The coefficient-array core against the scalar loops it replaced.

The reference functions below are the per-point evaluators and the per-j
operator loops that the batched evaluators and the (k+1)x(k+1) matrix
operators replaced; they are kept here, unchanged in their arithmetic, as
the definition the new code must reproduce.  Tolerances are fixed in
advance: evaluation within 1e-12 of the sum of the terms' magnitudes, and
operators equal by `forms_equal` after scaling to unit coefficient norm.
"""

import cmath
import math

import numpy as np
import pytest

from qahd.errors import EvalOverflowError, OriginError
from qahd.expr import Constant, LogRadius, Negate, Power, Product, Radius, Sum, Variable
from qahd.expr import eval_expr, parse, render
from qahd.logform import AngularPart, LogForm, eval_form, forms_equal
from qahd.operators import delta, dilate, euler, op_power

from conftest import ExprGen, random_points

EVAL_TOLERANCE = 1e-12


# --- reference: scalar evaluation -------------------------------------------

def _radius(x):
    return math.sqrt(sum(float(c) * float(c) for c in x))


def _eval_direction_ref(h, omega):
    """(value, sum of |term|) of an angular part at a unit vector."""
    acc = complex(0)
    mag = 0.0
    for alpha, c in h.atoms.items():
        term = 1.0
        for i, a in enumerate(alpha):
            if a:
                term *= float(omega[i]) ** a
        acc += c * term
        mag += abs(c * term)
    return acc, mag


def eval_form_ref(form, x):
    """(value, sum of |term|) of exp(lam ln r) sum_j h_j(x/r) (ln r)^j."""
    r = _radius(x)
    if r == 0.0:
        raise OriginError("evaluation at the origin")
    if form.is_zero:
        return complex(0), 0.0
    ln_r = math.log(r)
    omega = [float(c) / r for c in x]
    acc = complex(0)
    mag = 0.0
    log_pow = 1.0
    for h in form.coeffs:
        value, size = _eval_direction_ref(h, omega)
        acc += value * log_pow
        mag += size * abs(log_pow)
        log_pow *= ln_r
    amp = cmath.exp(form._lam * ln_r)
    return amp * acc, abs(amp) * mag


def eval_expr_ref(e, x):
    """(value, magnitude) with sums bounded by the sum of their terms."""
    r = _radius(x)
    if r == 0.0:
        raise OriginError("evaluation at the origin")
    value, mag = _eval_ref(e, x, r, math.log(r))
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise EvalOverflowError("evaluation overflowed the floating-point range")
    return value, mag


def _eval_ref(e, x, r, ln_r):
    if isinstance(e, Constant):
        return e.value, abs(e.value)
    if isinstance(e, Variable):
        v = complex(x[e.index - 1])
        return v, abs(v)
    if isinstance(e, Radius):
        return complex(r), r
    if isinstance(e, LogRadius):
        return complex(ln_r), abs(ln_r)
    if isinstance(e, Negate):
        value, mag = _eval_ref(e.child, x, r, ln_r)
        return -value, mag
    if isinstance(e, Sum):
        acc, mag = complex(0), 0.0
        for t in e.terms:
            value, size = _eval_ref(t, x, r, ln_r)
            acc += value
            mag += size
        return acc, mag
    if isinstance(e, Product):
        acc, mag = complex(1), 1.0
        for f in e.factors:
            value, size = _eval_ref(f, x, r, ln_r)
            acc *= value
            mag *= size
        return acc, mag
    if isinstance(e, Power):
        c = e.exponent
        try:
            if isinstance(e.base, Radius):
                value = cmath.exp(c * ln_r)
                return value, abs(value)
            b, size = _eval_ref(e.base, x, r, ln_r)
            if c.imag == 0 and c.real == int(c.real):
                m = int(c.real)
                if b == 0 and m < 0:
                    raise EvalOverflowError("zero base with negative exponent")
                value = b ** m
            elif b == 0:
                value = complex(0)
            else:
                value = cmath.exp(c * cmath.log(b))
        except OverflowError:
            raise EvalOverflowError("evaluation overflowed the floating-point range") from None
        # a power amplifies its base's rounding by |c| relative to |b|
        scale = abs(value) * (1.0 + abs(c)) * (size / abs(b) if b != 0 else 1.0)
        return value, scale
    raise TypeError(f"not an expression node: {e!r}")


# --- reference: per-j operator loops ----------------------------------------

def _scale_power(a, lam):
    return cmath.exp(lam * math.log(a))


def dilate_ref(form, a):
    if form.is_zero:
        return form
    lam = form.degree
    la = math.log(a)
    amp = _scale_power(a, lam)
    k = form.order
    parts = []
    for i in range(k + 1):
        acc = AngularPart(form.n)
        for j in range(i, k + 1):
            w = math.comb(j, i) * la ** (j - i)
            acc = acc.add(form.coeffs[j].scale(w))
        parts.append(acc.scale(amp))
    return LogForm.make(form.n, lam, parts)


def euler_minus_ref(form, mu):
    if form.is_zero:
        return form
    lam = form.degree
    shift = lam - mu
    k = form.order
    parts = []
    for i in range(k + 1):
        acc = form.coeffs[i].scale(shift)
        if i + 1 <= k:
            acc = acc.add(form.coeffs[i + 1].scale(complex(i + 1)))
        parts.append(acc)
    return LogForm.make(form.n, lam, parts)


def delta_ref(form, a, mu):
    if form.is_zero:
        return form
    return dilate_ref(form, a).sub(form.scale(_scale_power(a, mu)))


def op_power_ref(kind, m, form, a=None, lam=None):
    if form.is_zero or m == 0:
        return form
    if kind == "euler_minus_lambda":
        own = form.degree
        target = own if lam is None else complex(lam)
        if target == own:
            k = form.order
            if m > k:
                return LogForm.zero(form.n)
            parts = [form.coeffs[i + m].scale(complex(math.perm(i + m, m)))
                     for i in range(k + 1 - m)]
            return LogForm.make(form.n, own, parts)
        out = form
        for _ in range(m):
            out = euler_minus_ref(out, target)
        return out
    target = form.degree if lam is None else complex(lam)
    out = form
    for _ in range(m):
        out = delta_ref(out, a, target)
    return out


# --- random inputs ----------------------------------------------------------

def big_form(rng, n, k, atoms, max_weight=6):
    """Form of order k with up to `atoms` atoms spread over its k+1 parts,
    scaled to unit coefficient norm."""
    lam = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
    while True:
        parts = []
        for _ in range(k + 1):
            table = {}
            for _ in range(int(rng.integers(1, max(2, atoms // (k + 1)) + 1))):
                weight = int(rng.integers(0, max_weight + 1))
                alpha = tuple(int(v) for v in rng.multinomial(weight, [1.0 / n] * n))
                table[alpha] = rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            parts.append(AngularPart(n, table))
        form = LogForm.make(n, lam, parts)
        if not form.is_zero and form.order == k:
            return form.scale(0.5 / form.coeff_norm())  # coeff_norm is half the modulus


def form_cases(seed, count):
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = 1 + i % 3
        k = i % 5
        atoms = int(rng.integers(1, 201))
        yield rng, big_form(rng, n, k, atoms)


def same_action(op, ref, form):
    """op(form) equals ref(form) by forms_equal, both scaled to unit norm.

    The operators are linear, so the input is first scaled to make the result
    of norm 1e6: the loops prune every intermediate coefficient below the
    absolute COEFF_ZERO_THRESHOLD, and on a result of norm 1e-8 that pruning,
    not the arithmetic, would decide the comparison.
    """
    norm = 2 * op(form).coeff_norm()  # coeff_norm is half the modulus
    if norm == 0.0:
        return 2 * ref(form).coeff_norm() <= 1e-12
    scaled = form.scale(1e6 / norm)
    got, want = op(scaled), ref(scaled)
    unit = 0.5 / want.coeff_norm()
    return forms_equal(got.scale(unit), want.scale(unit))


# --- evaluation -------------------------------------------------------------

def test_eval_form_matches_scalar_reference():
    for rng, form in form_cases(61, 60):
        points = random_points(rng, form.n, 25, r_min=0.2, r_max=5.0)
        got = eval_form(form, points)
        assert got.shape == (25,)
        for x, value in zip(points, got):
            want, mag = eval_form_ref(form, x)
            assert abs(value - want) <= EVAL_TOLERANCE * mag
            # a single point gives a complex, through the same batch path
            single = eval_form(form, tuple(x))
            assert isinstance(single, complex)
            assert abs(single - value) <= EVAL_TOLERANCE * mag


def test_eval_expr_matches_scalar_reference_on_atom_sums():
    # the rendered sum of a random form's atoms, as identify receives it
    for rng, form in form_cases(67, 30):
        n = form.n
        terms = []
        for j, h in enumerate(form.coeffs):
            for alpha, c in h.atoms.items():
                mono = "*".join(f"x{i + 1}^{a}" for i, a in enumerate(alpha) if a) or "1"
                mu = form.degree - sum(alpha)
                terms.append(f"({c.real!r}{c.imag:+.17g}i)*{mono}"
                             f"*r^({mu.real!r}{mu.imag:+.17g}i)*log(r)^{j}")
        tree = parse(" + ".join(terms), n)
        points = random_points(rng, n, 16)
        got = eval_expr(tree, points)
        for x, value in zip(points, got):
            want, mag = eval_expr_ref(tree, x)
            assert abs(value - want) <= EVAL_TOLERANCE * mag
            assert abs(value - eval_form(form, x)) <= 1e-10 * mag


def test_eval_expr_matches_scalar_reference_on_random_trees():
    rng = np.random.default_rng(71)
    compared = 0
    for trial in range(300):
        n = 1 + trial % 3
        tree = parse(ExprGen(rng, n).expr(), n)
        points = random_points(rng, n, 8)
        wants = []
        for x in points:
            try:
                wants.append(eval_expr_ref(tree, x))
            except EvalOverflowError:
                wants = None
                break
        if wants is None:
            with pytest.raises(EvalOverflowError):
                eval_expr(tree, points)
            continue
        got = eval_expr(tree, points)
        for value, (want, mag) in zip(got, wants):
            assert abs(value - want) <= EVAL_TOLERANCE * mag, render(tree)
        compared += 1
    assert compared >= 250


def test_batched_evaluators_reject_the_origin():
    form = big_form(np.random.default_rng(3), 2, 1, 10)
    points = np.array([[1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(OriginError):
        eval_form(form, points)
    with pytest.raises(OriginError):
        eval_expr(parse("r", 2), points)


def test_batched_evaluators_raise_on_overflow():
    # r^300 at r = 20 is 1e390; the exp must not come back as inf or NaN
    form = LogForm.make(1, complex(300), [AngularPart(1, {(0,): complex(1)})])
    with pytest.raises(EvalOverflowError):
        eval_form(form, np.array([[1.0], [20.0]]))
    with pytest.raises(EvalOverflowError):
        eval_expr(parse("r^300", 1), np.array([[1.0], [20.0]]))
    # an overflow that a later negative power would turn back into a finite
    # value: 1/(x1^400) is 0 in floating point
    with pytest.raises(EvalOverflowError):
        eval_expr(parse("(x1^400)^(-1)", 1), np.array([[20.0]]))
    with pytest.raises(EvalOverflowError):
        eval_expr(parse("(x1^400)^0", 1), np.array([[20.0]]))
    with pytest.raises(EvalOverflowError):
        eval_expr(parse("x1^(-1)", 2), np.array([[0.0, 1.0]]))


# --- operators --------------------------------------------------------------

def test_single_operators_match_loops():
    for rng, form in form_cases(73, 60):
        a = float(rng.choice([0.5, 2.0 / 3.0, math.e, math.pi, 10.0]))
        mu = form.degree + complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert same_action(lambda f: dilate(f, a), lambda f: dilate_ref(f, a), form)
        assert same_action(euler, lambda f: euler_minus_ref(f, complex(0)), form)
        assert same_action(lambda f: op_power("euler_minus_lambda", 1, f, lam=mu),
                           lambda f: euler_minus_ref(f, mu), form)
        assert same_action(lambda f: delta(f, a, mu), lambda f: delta_ref(f, a, mu), form)
        own = form.degree
        assert same_action(lambda f: delta(f, a, own), lambda f: delta_ref(f, a, own), form)


def test_op_power_matches_loops():
    for rng, form in form_cases(79, 60):
        k = form.order
        a = float(rng.choice([0.5, 2.0 / 3.0, math.e, math.pi, 10.0]))
        other = form.degree + complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        cases = [("euler_minus_lambda", {}), ("euler_minus_lambda", {"lam": other}),
                 ("delta_a", {"a": a, "lam": other})]
        for m in range(0, k + 3):
            # the exact nilpotent shift annihilates from m = k+1 on
            for kind, kw in cases:
                assert same_action(lambda f: op_power(kind, m, f, **kw),
                                   lambda f: op_power_ref(kind, m, f, **kw), form)
        # at the own degree Delta_a^m cancels to zero from m = k+1 on, where
        # only rounding is left to compare
        for m in range(1, k + 1):
            assert same_action(lambda f: op_power("delta_a", m, f, a=a),
                               lambda f: op_power_ref("delta_a", m, f, a=a), form)
