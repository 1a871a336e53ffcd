"""Canonical form construction, evaluation, and syzygy-aware comparisons."""

import cmath
import itertools
import math

import numpy as np
import pytest

from qahd.errors import ExpansionLimitError, NotInClassError, UndefinedDegreeError
from qahd.expr import parse
from qahd.logform import (
    AngularPart,
    CoeffArray,
    LogForm,
    angular_is_zero,
    canonicalize,
    eval_form,
    forms_equal,
)

from conftest import random_form, random_points


def atom(n, *alpha):
    return AngularPart(n, {tuple(alpha): complex(1)})


def test_canonicalize_already_canonical():
    m = canonicalize(parse("r^2", 2), 2)
    (form,) = m.components()
    assert form.degree == 2
    assert form.order == 0
    assert form.coeffs[0].atoms == {(0, 0): 1}


def test_canonicalize_mixed_log_powers():
    m = canonicalize(parse("x1^2*r^(-3)*log(r)^2 + r^(-1)", 2), 2)
    (form,) = m.components()
    assert form.degree == -1
    assert form.order == 2
    assert form.coeffs[0].atoms == {(0, 0): 1}
    assert form.coeffs[1].is_empty()
    assert form.coeffs[2].atoms == {(2, 0): 1}
    # hand rewrite x1^2 r^-3 = (x1^2/r^2) r^-1; pointwise agreement
    e = parse("x1^2*r^(-3)*log(r)^2 + r^(-1)", 2)
    rng = np.random.default_rng(3)
    from qahd.expr import eval_expr

    for x in random_points(rng, 2, 50):
        lhs = m.eval(x)
        rhs = eval_expr(e, x)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


def test_canonicalize_splits_distinct_degrees():
    m = canonicalize(parse("r^2 + r^3", 1), 1)
    assert [f.degree for f in m.components()] == [2, 3]


def test_canonicalize_rejects_out_of_class():
    with pytest.raises(NotInClassError):
        canonicalize(parse("log(r)^0.5", 1), 1)
    with pytest.raises(NotInClassError):
        canonicalize(parse("x1^1.5", 1), 1)
    with pytest.raises(NotInClassError):
        canonicalize(parse("r / x1", 1), 1)  # negative variable power


def test_eval_form_examples():
    f = LogForm.make(2, complex(2), [atom(2, 2, 0).add(atom(2, 0, 2))])
    # r^2 * (x1^2 + x2^2)/r^2 at (3,4): equals r^2 = 25
    assert eval_form(f, (3, 4)) == pytest.approx(25)
    g = LogForm.make(2, complex(0), [AngularPart(2), atom(2, 0, 0)])
    assert eval_form(g, (math.e, 0)) == pytest.approx(1.0)
    h = LogForm.make(3, complex(-1), [atom(3, 0, 0, 0), atom(3, 0, 0, 0).scale(2)])
    # e^-2 (1 + 2*2) = 5 e^-2
    assert eval_form(h, (math.e ** 2, 0, 0)) == pytest.approx(5 * math.exp(-2))


def test_angular_is_zero():
    assert angular_is_zero(AngularPart(2))
    pythagoras = atom(2, 2, 0).add(atom(2, 0, 2)).sub(atom(2, 0, 0))
    assert angular_is_zero(pythagoras)
    assert not angular_is_zero(atom(2, 1, 0))
    # sampling oracle: the reduced-to-zero part vanishes on the sphere
    rng = np.random.default_rng(9)
    for _ in range(100):
        v = rng.normal(size=2)
        omega = v / np.linalg.norm(v)
        assert abs(CoeffArray.of(2, [pythagoras]).angular(omega)[0, 0]) < 1e-12


def test_forms_equal():
    f = LogForm.make(2, complex(2), [atom(2, 0, 0)])
    assert forms_equal(f, f)
    g = LogForm.make(2, complex(0), [atom(2, 2, 0).add(atom(2, 0, 2))])
    h = LogForm.make(2, complex(0), [atom(2, 0, 0)])
    assert forms_equal(g, h)
    assert not forms_equal(
        LogForm.make(1, complex(2), [atom(1, 0)]),
        LogForm.make(1, complex(3), [atom(1, 0)]),
    )


def test_order_invariant_under_syzygy_shift():
    rng = np.random.default_rng(21)
    for _ in range(20):
        form = random_form(rng, n=3, k=2)
        relation = (
            atom(3, 2, 0, 0).add(atom(3, 0, 2, 0)).add(atom(3, 0, 0, 2)).sub(atom(3, 0, 0, 0))
        )
        j = int(rng.integers(0, 3))
        parts = list(form.coeffs)
        parts[j] = parts[j].add(relation.scale(complex(rng.uniform(-2, 2))))
        shifted = LogForm.make(3, form.degree, parts)
        assert shifted.order == form.order
        assert forms_equal(shifted, form)


def test_canonicalize_linearity():
    rng = np.random.default_rng(23)
    e1 = parse("x1^2*r^(-1)*log(r) + r^2", 2)
    e2 = parse("x2*r^(-2) - r^2*log(r)", 2)
    both = parse("x1^2*r^(-1)*log(r) + r^2 + x2*r^(-2) - r^2*log(r)", 2)
    lhs = canonicalize(both, 2)
    rhs = canonicalize(e1, 2).add(canonicalize(e2, 2))
    assert len(lhs.components()) == len(rhs.components())
    for f, g in zip(lhs.components(), rhs.components()):
        assert forms_equal(f, g)
    for x in random_points(rng, 2, 20):
        assert abs(lhs.eval(x) - rhs.eval(x)) <= 1e-12 * (1 + abs(lhs.eval(x)))


def test_zero_expression_normalizes_to_zero_form():
    m = canonicalize(parse("r^2 - r^2", 1), 1)
    assert m.is_zero
    m2 = canonicalize(parse("(x1^2 + x2^2)*r^(-2)*log(r) - log(r)", 2), 2)
    assert m2.is_zero


def test_zero_form_degree_queries_raise():
    z = LogForm.zero(2)
    assert z.is_zero
    with pytest.raises(UndefinedDegreeError):
        _ = z.degree
    with pytest.raises(UndefinedDegreeError):
        _ = z.order


def test_evaluation_fidelity_random_expressions():
    from conftest import ExprGen
    from qahd.expr import eval_expr

    rng = np.random.default_rng(29)
    gen = ExprGen(rng, 2, max_num=4)
    checked = 0
    while checked < 20:
        text = gen.expr()
        tree = parse(text, 2)
        try:
            m = canonicalize(tree, 2)
        except NotInClassError:
            continue
        for x in random_points(rng, 2, 10):
            want = eval_expr(tree, x)
            got = m.eval(x)
            assert abs(got - want) <= 1e-11 * (1 + abs(want)), text
        checked += 1


def test_json_encoding_matches_contract():
    m = canonicalize(parse("x1^2*r^(-3)*log(r)^2 + r^(-1)", 2), 2)
    (form,) = m.components()
    assert form.to_dict() == {
        "n": 2,
        "degree": {"re": -1.0, "im": 0.0},
        "coeffs": [
            [{"alpha": [0, 0], "re": 1.0, "im": 0.0}],
            [],
            [{"alpha": [2, 0], "re": 1.0, "im": 0.0}],
        ],
    }


# ---------------------------------------------------------------------------
# Expansion with like-term collection and level-ordered syzygy reduction,
# against uncollected references.


def _naive_power_of_sum(n, c, s, p, k):
    """c*(s1*x1+...+sn*xn+r)^p*(1+log(r))^k as a LogForm of degree p.

    Every one of the (n+1)^p 2^k monomials is formed separately; like terms
    meet only when the angular parts are built.
    """
    terms = [[] for _ in range(k + 1)]
    for picks in itertools.product(range(n + 1), repeat=p):
        alpha = [0] * n
        coef = complex(c)
        for i in picks:
            if i < n:
                alpha[i] += 1
                coef *= s[i]
        for logs in itertools.product((0, 1), repeat=k):
            terms[sum(logs)].append((tuple(alpha), coef))
    return LogForm.make(n, complex(p), [AngularPart.from_terms(n, t) for t in terms])


def _lifo_reduced(h):
    """Syzygy reduction by repeated rewriting of single atoms, in LIFO order."""
    work = dict(h.atoms)
    out = {}
    while work:
        alpha, c = work.popitem()
        if abs(c) == 0.0:
            continue
        if alpha[0] >= 2:
            base = (alpha[0] - 2,) + alpha[1:]
            work[base] = work.get(base, complex(0)) + c
            for i in range(1, h.n):
                up = base[:i] + (base[i] + 2,) + base[i + 1:]
                work[up] = work.get(up, complex(0)) - c
        else:
            out[alpha] = out.get(alpha, complex(0)) + c
    return AngularPart(h.n, out)


def _assert_atoms_close(got, want, rel=1e-12):
    scale = max(got.max_abs(), want.max_abs())
    for alpha in set(got.atoms) | set(want.atoms):
        diff = got.atoms.get(alpha, 0) - want.atoms.get(alpha, 0)
        assert abs(diff) <= rel * scale, (alpha, diff, scale)


def test_canonicalize_power_of_sum_matches_naive_expansion():
    rng = np.random.default_rng(31)
    for n, p in itertools.product((1, 2, 3), range(7)):
        for k in (int(rng.integers(0, 4)), 3):
            c = float(f"{rng.uniform(0.5, 2.0) * rng.choice((-1, 1)):.3f}")
            s = [float(f"{rng.uniform(0.5, 1.5) * rng.choice((-1, 1)):.3f}") for _ in range(n)]
            inner = " + ".join(f"{v}*x{i + 1}" for i, v in enumerate(s))
            text = f"{c}*({inner} + r)^{p}*(1 + log(r))^{k}"
            (got,) = canonicalize(parse(text, n), n).components()
            want = _naive_power_of_sum(n, c, s, p, k)
            assert got.degree == want.degree and got.order == want.order == k
            # the zero test behind forms_equal is absolute, so compare at unit scale
            unit = 1.0 / want.coeff_norm()
            assert forms_equal(got.scale(unit), want.scale(unit)), text
            for a, b in zip(got.coeffs, want.coeffs):
                _assert_atoms_close(a, b)
                _assert_atoms_close(a.reduced(), b.reduced())


def test_reduced_matches_lifo_reference():
    rng = np.random.default_rng(37)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        atoms = {}
        for _ in range(int(rng.integers(1, 9))):
            weight = int(rng.integers(0, 9))
            alpha = tuple(int(v) for v in rng.multinomial(weight, [1.0 / n] * n))
            atoms[alpha] = rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        h = AngularPart(n, atoms)
        got = h.reduced()
        assert all(alpha[0] <= 1 for alpha in got.atoms)
        _assert_atoms_close(got, _lifo_reduced(h))


def test_reduced_high_power_agrees_on_sphere():
    h = atom(3, 32, 0, 0)
    red = h.reduced()
    assert all(alpha[0] <= 1 for alpha in red.atoms)
    rng = np.random.default_rng(41)
    for x in random_points(rng, 3, 20):
        omega = np.asarray(x) / np.linalg.norm(x)
        terms = [c * np.prod(omega ** np.asarray(alpha)) for alpha, c in red.atoms.items()]
        scale = sum(abs(t) for t in terms)
        got, want = CoeffArray.of(3, [red, h]).angular(omega)[0]
        assert abs(got - want) <= 1e-12 * scale


def test_expansion_budget():
    # one product: 513 x 513 monomials of (1+r)^512 squared
    with pytest.raises(ExpansionLimitError):
        canonicalize(parse("(1+r)^100000", 1), 1)
    # one monomial: variable degree or log power above the limit
    with pytest.raises(ExpansionLimitError):
        canonicalize(parse("x1^100000", 3), 3)
    with pytest.raises(ExpansionLimitError):
        canonicalize(parse("(x1+r)^100000", 1), 1)
    with pytest.raises(ExpansionLimitError):
        canonicalize(parse("log(r)^201", 1), 1)
    (form,) = canonicalize(parse("log(r)^200", 1), 1).components()
    assert form.order == 200
    # its largest product is 35 x 969 monomials
    (form,) = canonicalize(parse("(x1+x2+x3+r)^20", 3), 3).components()
    assert (form.degree, form.order) == (20, 0)
