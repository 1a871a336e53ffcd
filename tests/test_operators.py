"""Dilation and Euler operators, their powers, and the four-way verifier."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qahd import _json
from qahd.errors import NonPositiveScaleError, ZeroInputError
from qahd.expr import eval_expr, parse
from qahd.logform import AngularPart, LogForm, canonicalize, eval_form, forms_equal
from qahd.operators import (
    DEFAULT_A_SAMPLES,
    VERDICT_TOLERANCE,
    chain,
    classify,
    delta,
    dilate,
    euler,
    op_power,
    verify_qahd,
)

from conftest import random_form, random_points


def atom(n, *alpha):
    return AngularPart(n, {tuple(alpha): complex(1)})


def const_form(lam, coeffs, n=2):
    """LogForm with constant angular parts (scalar per log power)."""
    parts = [AngularPart(n, {(0,) * n: complex(c)}) if c else AngularPart(n)
             for c in coeffs]
    return LogForm.make(n, complex(lam), parts)


# --- dilate ---------------------------------------------------------------

def test_dilate_homogeneous():
    f = const_form(2, [1])
    g = dilate(f, 3.0)
    assert forms_equal(g, const_form(2, [9]))


def test_dilate_log_pointwise():
    f = const_form(0, [0, 1])  # log r
    g = dilate(f, math.e)
    assert forms_equal(g, const_form(0, [1, 1]))
    rng = np.random.default_rng(5)
    for x in random_points(rng, 2, 20):
        want = eval_form(f, tuple(math.e * c for c in x))
        assert abs(eval_form(g, x) - want) <= 1e-12 * (1 + abs(want))


def test_dilate_identity_scale():
    f = random_form(np.random.default_rng(7), n=2, k=2)
    assert forms_equal(dilate(f, 1.0), f)


def test_dilate_rejects_nonpositive_scale():
    f = const_form(2, [1])
    with pytest.raises(NonPositiveScaleError):
        dilate(f, 0.0)
    with pytest.raises(NonPositiveScaleError):
        dilate(f, -2.0)


def test_dilate_pointwise_matches_scaled_argument():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = 1 + trial % 3
        f = random_form(rng, n=n, k=trial % 4, lam=complex(rng.uniform(-2, 2), rng.uniform(-1, 1)))
        a = float(rng.uniform(0.3, 3.0))
        g = dilate(f, a)
        for x in random_points(rng, n, 10):
            want = eval_form(f, tuple(a * c for c in x))
            got = eval_form(g, x)
            assert abs(got - want) <= 1e-10 * (1 + abs(want))


def test_dilate_group_law_on_coefficients():
    rng = np.random.default_rng(13)
    for trial in range(20):
        f = random_form(rng, n=2, k=trial % 4)
        a = float(rng.uniform(0.3, 3.0))
        b = float(rng.uniform(0.3, 3.0))
        lhs = dilate(dilate(f, a), b)
        rhs = dilate(f, a * b)
        diff = lhs.sub(rhs)
        assert diff.raw_norm() <= 1e-12 * (1 + rhs.raw_norm())


# --- euler ----------------------------------------------------------------

def test_euler_homogeneous():
    f = const_form(2.5, [1])
    assert forms_equal(euler(f), const_form(2.5, [2.5]))


def test_euler_log_squared_symbolic_oracle():
    f = const_form(0, [0, 0, 1], n=2)  # log^2 r
    g = euler(f)
    assert forms_equal(g, const_form(0, [0, 2], n=2))
    # oracle: sum_j xj d/dxj log^2 r = 2 log r, evaluated pointwise
    e = parse("2*log(r)", 2)
    rng = np.random.default_rng(17)
    for x in random_points(rng, 2, 20):
        want = eval_expr(e, x)
        assert abs(eval_form(g, x) - want) <= 1e-11 * (1 + abs(want))


def test_euler_mixed_coeffs_finite_difference_oracle():
    f = const_form(-1, [1, 1], n=2)  # r^-1 (1 + log r)
    g = euler(f)
    assert forms_equal(g, const_form(-1, [0, -1], n=2))
    # oracle: d/dt F(e^t x) at t = 0, central difference
    rng = np.random.default_rng(19)
    h = 1e-5
    for x in random_points(rng, 2, 20):
        up = eval_form(f, tuple(math.exp(h) * c for c in x))
        dn = eval_form(f, tuple(math.exp(-h) * c for c in x))
        want = (up - dn) / (2 * h)
        assert abs(eval_form(g, x) - want) <= 1e-7 * (1 + abs(want))


def test_euler_pointwise_random_forms():
    rng = np.random.default_rng(23)
    h = 1e-5
    for trial in range(20):
        n = 1 + trial % 3
        f = random_form(rng, n=n, k=trial % 4)
        g = euler(f)
        for x in random_points(rng, n, 5):
            up = eval_form(f, tuple(math.exp(h) * c for c in x))
            dn = eval_form(f, tuple(math.exp(-h) * c for c in x))
            want = (up - dn) / (2 * h)
            assert abs(eval_form(g, x) - want) <= 1e-6 * (1 + abs(want))


# --- delta ----------------------------------------------------------------

def test_delta_annihilates_homogeneous():
    f = const_form(2, [1])
    for a in (0.5, 2.0, math.e, math.pi):
        assert delta(f, a, complex(2)).is_zero


def test_delta_log_case():
    f = const_form(0, [0, 1])
    assert forms_equal(delta(f, math.e, complex(0)), const_form(0, [1]))


def test_delta_degree_mismatch():
    f = const_form(2, [1])
    g = delta(f, 2.0, complex(0))
    assert forms_equal(g, const_form(2, [3]))
    rng = np.random.default_rng(29)
    for x in random_points(rng, 2, 10):
        want = eval_form(f, tuple(2 * c for c in x)) - eval_form(f, x)
        assert abs(eval_form(g, x) - want) <= 1e-12 * (1 + abs(want))


def test_delta_drops_order():
    rng = np.random.default_rng(31)
    for trial in range(20):
        f = random_form(rng, n=2, k=1 + trial % 3)
        g = delta(f, float(rng.uniform(0.3, 3.0)), f.degree)
        assert g.is_zero or g.order < f.order


# --- op_power -------------------------------------------------------------

def test_op_power_annihilates_at_order_plus_one():
    rng = np.random.default_rng(37)
    for trial in range(30):
        f = random_form(rng, n=1 + trial % 3, k=trial % 5)
        k = f.order
        assert not op_power("euler_minus_lambda", k, f).is_zero
        assert op_power("euler_minus_lambda", k + 1, f).is_zero


def test_op_power_past_overflowing_partial_powers():
    # N^436 = 0 for the 201x201 shift N, but numpy's square-and-multiply
    # would pass through N^180, whose entries overflow to inf
    f = const_form(0, [0] * 200 + [1], n=1)
    assert op_power("euler_minus_lambda", 436, f).is_zero


def test_delta_power_at_own_degree_past_overflowing_partial_powers():
    # (B - a^0 I)^201 = 0 exactly for the 201x201 dilation matrix B, but its
    # partial products overflow at a = 10; the power is not formed
    f = const_form(0, [0] * 200 + [1], n=1)
    for m, a in ((201, 10.0), (436, 2.0)):
        assert op_power("delta_a", m, f, a=a).is_zero


def test_zero_form_takes_the_general_path():
    for n in (1, 2, 3):
        zero = LogForm.zero(n)
        f = const_form(0, [1], n)
        results = [dilate(zero, 2.0), euler(zero), delta(zero, 2.0, complex(1))]
        for m in (1, 2, 3):
            results.append(op_power("euler_minus_lambda", m, zero))
            results.append(op_power("delta_a", m, zero, a=2.0))
        assert all(g.is_zero and g.n == n for g in results)
        points = random_points(np.random.default_rng(n), n, 5)
        assert np.array_equal(eval_form(zero, np.asarray(points)), np.zeros(5))
        assert zero.coeff_norm() == 0.0 and zero.raw_norm() == 0.0
        assert zero.scale(0).is_zero and f.scale(0).is_zero
        assert forms_equal(zero, zero)
        assert not forms_equal(zero, f) and not forms_equal(f, zero)


def test_op_power_single_shift():
    f = const_form(1.5, [2, 3])
    g = op_power("euler_minus_lambda", 1, f)
    assert forms_equal(g, const_form(1.5, [3]))


def test_op_power_delta_squared_on_log_squared():
    f = const_form(0, [0, 0, 1])
    g = op_power("delta_a", 2, f, a=math.e, lam=complex(0))
    assert forms_equal(g, const_form(0, [2]))
    # (log r + 2)^2 - 2 (log r + 1)^2 + log^2 r = 2 at any point
    rng = np.random.default_rng(41)
    for x in random_points(rng, 2, 10):
        t = math.log(math.hypot(*x))
        want = (t + 2) ** 2 - 2 * (t + 1) ** 2 + t ** 2
        assert abs(eval_form(g, x) - want) <= 1e-12 * (1 + abs(want))


def test_op_power_zero_is_identity():
    f = const_form(1, [1, 2])
    assert op_power("euler_minus_lambda", 0, f) is f


def test_op_power_matches_repeated_application():
    rng = np.random.default_rng(43)
    for trial in range(10):
        f = random_form(rng, n=2, k=3)
        m = 1 + trial % 3
        fast = op_power("euler_minus_lambda", m, f)
        slow = f
        for _ in range(m):
            slow = op_power("euler_minus_lambda", 1, slow, lam=f.degree)
        assert fast.sub(slow).raw_norm() <= 1e-12 * (1 + slow.raw_norm())


# --- classify / chain -----------------------------------------------------

def test_classify_examples():
    assert classify(canonicalize(parse("r^2", 2), 2)) == [(complex(2), 0)]
    assert classify(
        canonicalize(parse("x1^2*r^(-3)*log(r)^2 + r^(-1)", 2), 2)
    ) == [(complex(-1), 2)]
    with pytest.raises(ZeroInputError):
        classify(canonicalize(parse("(x1^2+x2^2)*r^(-2)*log(r) - log(r)", 2), 2))


def test_chain_order_zero():
    f = const_form(2, [1])
    members = chain(f)
    assert len(members) == 1
    assert forms_equal(members[0], f)


def test_chain_log():
    members = chain(const_form(0, [0, 1]))
    assert len(members) == 2
    assert forms_equal(members[0], const_form(0, [0, 1]))
    assert forms_equal(members[1], const_form(0, [1]))


def test_chain_log_squared():
    members = chain(const_form(0, [0, 0, 1]))
    assert forms_equal(members[1], const_form(0, [0, 2]))
    assert forms_equal(members[2], const_form(0, [2]))


def test_chain_rejects_zero():
    with pytest.raises(ZeroInputError):
        chain(LogForm.zero(2))


def test_chain_satisfies_euler_system():
    # E f_{k-s} = lam f_{k-s} + f_{k-s-1} links consecutive members
    rng = np.random.default_rng(47)
    for trial in range(10):
        f = random_form(rng, n=2, k=1 + trial % 3)
        members = chain(f)
        lam = f.degree
        for s in range(len(members) - 1):
            lhs = euler(members[s])
            rhs = members[s].scale(lam).add(members[s + 1])
            assert lhs.sub(rhs).raw_norm() <= 1e-12 * (1 + rhs.raw_norm())
        tail = euler(members[-1])
        assert tail.sub(members[-1].scale(lam)).raw_norm() <= 1e-12


# --- verify_qahd ----------------------------------------------------------

def test_verify_homogeneous_exact():
    f = const_form(1.5, [1])
    report = verify_qahd(f, complex(1.5), 0)
    assert report.verdict
    # the pointwise check evaluates exp(lam log r) twice, so only
    # rounding noise survives; the coefficient checks are exact
    assert report.definitional < 1e-12
    assert report.dilation_nilpotency == 0.0
    assert report.euler_nilpotency == 0.0


def test_verify_log_order_one():
    report = verify_qahd(const_form(0, [0, 1]), complex(0), 1)
    assert report.verdict


def test_verify_wrong_order_fails_with_euler_residual():
    f = const_form(0, [0, 1])
    report = verify_qahd(f, complex(0), 0)
    assert not report.verdict
    assert not report.structural
    # (E - 0)^1 applied to log r leaves the constant 1
    want = const_form(0, [1]).coeff_norm() / f.coeff_norm()
    assert report.euler_nilpotency == pytest.approx(want)


def test_verify_report_json_shape():
    d = json.loads(_json.dumps(verify_qahd(const_form(2, [1]), complex(2), 0).to_dict()))
    assert d["degree"] == {"re": 2.0, "im": 0.0}
    assert d["order"] == 0
    assert set(d["criteria"]) == {
        "definitional", "dilation_nilpotency", "euler_nilpotency", "structural",
    }
    assert d["a_samples"] == list(DEFAULT_A_SAMPLES)
    assert d["verdict"] is True


def test_verify_random_forms_pass(form_corpus):
    for f in form_corpus[:60]:
        report = verify_qahd(f, f.degree, f.order)
        assert report.verdict, report.to_dict()


def test_verify_overflow_raises():
    # F, or a chain member, past the float range at the sample points
    # themselves raises rather than reaching the verdict
    from qahd.errors import EvalOverflowError

    with pytest.raises(EvalOverflowError):
        verify_qahd(const_form(300, [1e300], n=1), complex(300), 0)
    with pytest.raises(EvalOverflowError):
        verify_qahd(const_form(0, [0, 1e300], n=1), complex(-1e10), 1)


def test_verify_far_degree_is_a_verdict():
    """a^lam enters only as a^(lam - s) with |a^(lam - s)| <= 1, so neither
    a^lam F(x) nor F(a x) can overflow where F(x) does not."""
    report = verify_qahd(const_form(0, [1e10]), complex(300), 0, a_samples=[10.0])
    assert not report.verdict
    assert report.definitional == pytest.approx(1.0)
    assert verify_qahd(const_form(300, [1], n=1), complex(300), 0).verdict


def test_verify_rejects_nan_values(monkeypatch):
    # a NaN that reached the residuals would be dropped or reported, never
    # an error; the criterion checks its residuals itself
    from qahd import operators
    from qahd.errors import EvalOverflowError

    evaluate = operators.eval_form

    def leaky(form, points):
        values = evaluate(form, points)
        values[0] = complex("nan")
        return values

    monkeypatch.setattr(operators, "eval_form", leaky)
    with pytest.raises(EvalOverflowError):
        verify_qahd(const_form(1.5, [1]), complex(1.5), 0)


def test_verify_rejects_bad_a_samples():
    f = const_form(2, [1])
    with pytest.raises(ValueError):
        verify_qahd(f, complex(2), 0, a_samples=[])
    with pytest.raises(NonPositiveScaleError):
        verify_qahd(f, complex(2), 0, a_samples=[2.0, -1.0])


def test_verify_far_degree_does_not_overflow():
    """The dilation criterion divides by the larger of |a^lam| and
    |a^degree|, so a degree far below the form's leaves no a^(degree-lam)."""
    (form,) = canonicalize(parse("r", 1), 1).components()
    report = verify_qahd(form, complex(-1000), 0)
    assert not report.verdict
    assert report.dilation_nilpotency >= VERDICT_TOLERANCE


def test_verify_refuses_the_zero_form():
    with pytest.raises(ZeroInputError, match="verification of the zero form"):
        verify_qahd(LogForm.zero(2), complex(0), 0)


@st.composite
def _expanded_qahd(draw):
    """(s.x + r)^p (1 + log r)^k r^mu as text, with its degree written to 6
    decimals: the asserted degree is often a last bit away from the form's."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 5))
    p = draw(st.integers(2, 6))
    mu = draw(st.integers(-1000, 1000)) / 1000
    s = "+".join(f"({draw(st.integers(-100, 100)) / 100})*x{i + 1}" for i in range(n))
    return n, f"({s}+r)^{p}*(1+log(r))^{k}*r^({mu})", complex(f"{p + mu:.6f}"), k


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_expanded_qahd())
# F2 of the benchmark corpus, and an order-4 form whose atoms cancel at the
# points: a residual not relative to the terms it compares rejects both
@example((3, "(x1+x2+x3+r)^6*log(r)^2", complex(6), 2))
@example((3, "(x1-2*x2+0.5*x3+r)^6*log(r)^4", complex(6), 4))
def test_verify_dilation_criterion_at_a_rounded_degree(case):
    """Delta_a(lam)^(k+1) F is measured relative to |a^lam|^(k+1) ||F||, so a
    last-bit degree mismatch no longer leaves |a^lam log a|^k in it; the
    definitional residual is relative to the terms it compares, so neither
    criterion depends on the scale of F."""
    n, text, lam, k = case
    (form,) = canonicalize(parse(text, n), n).components()
    assert form.order == k
    true, below = verify_qahd(form, lam, k), verify_qahd(form, lam, k - 1)
    assert true.verdict
    assert true.dilation_nilpotency < 1e-9
    assert true.definitional < VERDICT_TOLERANCE
    # each criterion on its own still rejects the order below
    assert below.dilation_nilpotency >= VERDICT_TOLERANCE
    assert below.definitional >= 1e-2
    # c <= 1e-12 is left out: there the absolute COEFF_ZERO_THRESHOLD (ROADMAP
    # item 2) prunes the coefficients of c.F, all of them at c = 1e-100
    for c in (1e-8, 1e5, 1e100):
        scaled = form.scale(c)
        assert verify_qahd(scaled, lam, k).verdict, c
        assert not verify_qahd(scaled, lam, k - 1).verdict, c


# --- invariants -----------------------------------------------------------

def test_exponential_formula_exact_on_coefficients():
    # dilate(F, a) = a^lam sum_m (log a)^m / m! (E - lam)^m F on coefficients
    import cmath

    rng = np.random.default_rng(53)
    for trial in range(20):
        f = random_form(rng, n=2, k=trial % 4)
        lam, k = f.degree, f.order
        for a in (0.5, 2.0, math.e, 10.0):
            amp = cmath.exp(lam * math.log(a))
            acc = None
            for m in range(k + 1):
                term = op_power("euler_minus_lambda", m, f).scale(
                    amp * math.log(a) ** m / math.factorial(m)
                )
                acc = term if acc is None else acc.add(term)
            lhs = dilate(f, a)
            assert lhs.sub(acc).raw_norm() <= 1e-12 * (1 + lhs.raw_norm())


def test_commutation_with_radial_power():
    # Delta_a(lam)[r^lam g] = a^lam r^lam Delta_a(0)[g] pointwise
    import cmath

    rng = np.random.default_rng(59)
    for trial in range(10):
        k = trial % 3
        g = random_form(rng, n=2, k=k, lam=complex(0))
        lam = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        lifted = LogForm.make(2, lam, g.coeffs)
        for a in (0.5, 2.0, math.e, 10.0):
            lhs = delta(lifted, a, lam)
            rhs_form = delta(g, a, complex(0))
            amp = cmath.exp(lam * math.log(a))
            for x in random_points(rng, 2, 25):
                r = math.hypot(*x)
                want = amp * cmath.exp(lam * math.log(r)) * eval_form(rhs_form, x)
                got = eval_form(lhs, x)
                assert abs(got - want) <= 1e-10 * (1 + abs(want))


def test_iterated_commutation():
    import cmath

    rng = np.random.default_rng(61)
    for trial in range(6):
        k = trial % 3
        g = random_form(rng, n=2, k=k, lam=complex(0))
        lam = complex(rng.uniform(-2, 2))
        lifted = LogForm.make(2, lam, g.coeffs)
        for a in (0.5, 2.0):
            lhs = op_power("delta_a", k + 1, lifted, a=a, lam=lam)
            rhs_form = op_power("delta_a", k + 1, g, a=a, lam=complex(0))
            amp = cmath.exp(lam * (k + 1) * math.log(a))
            for x in random_points(rng, 2, 25):
                r = math.hypot(*x)
                want = amp * cmath.exp(lam * math.log(r)) * eval_form(rhs_form, x)
                got = eval_form(lhs, x)
                assert abs(got - want) <= 1e-10 * (1 + abs(want))


def test_order_one_defect_vanishes():
    # g1(a) = F(ax) - a^lam F(x) - a^lam log a f0(x) must be identically zero
    import cmath

    rng = np.random.default_rng(67)
    for _ in range(10):
        f = random_form(rng, n=2, k=1)
        lam = f.degree
        f0 = op_power("euler_minus_lambda", 1, f)
        for a in (0.5, 2.0, math.e, 10.0):
            amp = cmath.exp(lam * math.log(a))
            for x in random_points(rng, 2, 10):
                g1 = (
                    eval_form(f, tuple(a * c for c in x))
                    - amp * eval_form(f, x)
                    - amp * math.log(a) * eval_form(f0, x)
                )
                assert abs(g1) < 1e-10 * (1 + abs(eval_form(f, x)))


def test_order_k_remainder_formula():
    # g_k(a) = F(ax) - a^lam F(x) - a^lam log a f_{k-1}(x)
    #        = sum_{r=1}^{k-1} a^lam log^{r+1} a f_{k-1-r}(x) / (r+1)
    # with f_{k-s} = (E-lam)^s F / s!
    import cmath

    rng = np.random.default_rng(71)
    for trial in range(10):
        k = 2 + trial % 2
        f = random_form(rng, n=2, k=k)
        lam = f.degree
        members = [
            op_power("euler_minus_lambda", s, f).scale(1 / math.factorial(s))
            for s in range(k + 1)
        ]
        for a in (0.5, 2.0, math.e):
            amp = cmath.exp(lam * math.log(a))
            la = math.log(a)
            for x in random_points(rng, 2, 10):
                gk = (
                    eval_form(f, tuple(a * c for c in x))
                    - amp * eval_form(f, x)
                    - amp * la * eval_form(members[1], x)
                )
                want = sum(
                    amp * la ** (r + 1) * eval_form(members[r + 1], x)
                    for r in range(1, k)
                )
                assert abs(gk - want) <= 1e-9 * (1 + abs(gk))
