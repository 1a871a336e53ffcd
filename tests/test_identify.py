"""Degree/order recovery from ray samples."""

import cmath
import math

import numpy as np
import pytest

from qahd.errors import (
    InsufficientSamplesError,
    NoFitError,
    OriginError,
    RootSplitError,
)
from qahd.identify import (
    SampleSeries,
    annihilation_check,
    binomial_annihilation_weights,
    multi_probe_recover,
    prony_recover,
    sample_ray,
)
from qahd.logform import CoeffArray, eval_form

from conftest import random_form


def ray(values, delta=0.1):
    return SampleSeries((1.0,), float(delta), tuple(complex(v) for v in values))


# --- sample_ray -------------------------------------------------------------

def test_sample_ray_geometric():
    f = lambda X: X[:, 0] ** 2
    s = sample_ray(f, (1.0,), math.log(2), 3)
    assert s.values == (1, 4, 16)


def test_sample_ray_arithmetic():
    f = lambda X: np.log(np.abs(X[:, 0]))
    s = sample_ray(f, (1.0,), 1.0, 4)
    assert s.values == pytest.approx((0, 1, 2, 3))


def test_sample_ray_closed_form():
    f = lambda X: np.abs(X[:, 0]) ** 0.5 * (1 + np.log(np.abs(X[:, 0])))
    s = sample_ray(f, (1.0,), 0.1, 12)
    want = [math.exp(0.05 * m) * (1 + 0.1 * m) for m in range(12)]
    assert s.values == pytest.approx(want)


def test_sample_ray_validation():
    with pytest.raises(OriginError):
        sample_ray(lambda X: np.ones(len(X)), (0.0, 0.0), 0.1, 5)
    with pytest.raises(ValueError):
        sample_ray(lambda X: np.ones(len(X)), (1.0,), -0.1, 5)
    with pytest.raises(InsufficientSamplesError):
        sample_ray(lambda X: np.ones(len(X)), (1.0,), 0.1, 2)


def test_sample_ray_rejects_non_batch_result():
    # f must map the (count, n) ray points to an array of shape (count,)
    for f in (lambda X: 1.0, lambda X: X, lambda X: X[:-1, 0], lambda X: X[:, :1]):
        with pytest.raises(ValueError, match="shape"):
            sample_ray(f, (1.0, 2.0), 0.1, 5)


# --- annihilation_check -----------------------------------------------------

def test_binomial_weights():
    assert binomial_annihilation_weights(1) == (-1, 1)
    assert binomial_annihilation_weights(2) == (1, -2, 1)
    assert binomial_annihilation_weights(3) == (-1, 3, -3, 1)


def test_binomial_factorial_identity():
    # sum_m (-1)^(N-m) C(N,m) m^N = N!, exactly in integer arithmetic
    for order in range(1, 13):
        w = binomial_annihilation_weights(order)
        total = sum(w[m] * m ** order for m in range(order + 1))
        assert total == math.factorial(order)


def test_annihilation_constant():
    assert annihilation_check(ray([1.0] * 6), 0) == 0.0


def test_annihilation_linear():
    u = [0.1 * m for m in range(8)]  # log r along the ray from r = 1
    assert annihilation_check(ray(u), 1) < 1e-12
    assert annihilation_check(ray(u), 0) > 1e-3


def test_annihilation_quadratic():
    d = 0.1
    u = [(d * m) ** 2 for m in range(10)]
    s = ray(u, d)
    assert annihilation_check(s, 2) < 1e-10
    # the second difference of (d m)^2 is exactly 2 d^2
    want = 2 * d ** 2 / (1.0 + max(u))
    assert annihilation_check(s, 1) == pytest.approx(want)


def test_annihilation_with_degree_hint():
    lam = complex(0.7, -0.3)
    d = 0.1
    u = [cmath.exp(lam * d * m) * (1 + d * m) for m in range(10)]
    s = ray(u, d)
    assert annihilation_check(s, 1, lam_hint=lam) < 1e-12
    assert annihilation_check(s, 1) > 1e-4


def test_annihilation_needs_enough_samples():
    with pytest.raises(InsufficientSamplesError):
        annihilation_check(ray([1.0, 2.0, 3.0]), 2)


# --- prony_recover ----------------------------------------------------------

def test_prony_pure_geometric():
    s = ray([1, 4, 16, 64, 256], delta=math.log(2))
    lam, k, coeffs, residual = prony_recover(s, 1)
    assert lam == pytest.approx(2.0, abs=1e-9)
    assert k == 0
    assert coeffs[0] == pytest.approx(1.0)


def test_prony_order_one():
    d = 0.1
    u = [math.exp(0.5 * d * m) * (1 + d * m) for m in range(12)]
    lam, k, coeffs, residual = prony_recover(ray(u, d), 2)
    assert abs(lam - 0.5) < 1e-6
    assert k == 1
    assert coeffs[0] == pytest.approx(1.0, abs=1e-6)
    assert coeffs[1] == pytest.approx(1.0, abs=1e-6)


def test_prony_complex_degree():
    lam0 = complex(-1.25, 2.0)
    d = 0.1
    u = [cmath.exp(lam0 * d * m) * (2 - 0.3 * d * m + (d * m) ** 2)
         for m in range(16)]
    lam, k, coeffs, residual = prony_recover(ray(u, d), 3)
    assert abs(lam - lam0) < 1e-6
    assert k == 2


def test_prony_mixed_degrees_root_split():
    u = [math.exp(0.1 * m) * (0.1 * m) ** 2 + 3 * math.exp(0.2 * m)
         for m in range(16)]
    with pytest.raises(RootSplitError):
        prony_recover(ray(u), 4)


def test_prony_no_fit():
    rng = np.random.default_rng(89)
    u = rng.normal(size=12)
    with pytest.raises(NoFitError):
        prony_recover(ray(u), 2)
    with pytest.raises(NoFitError):
        prony_recover(ray([0.0] * 12), 2)


def test_prony_sample_count_check():
    with pytest.raises(InsufficientSamplesError):
        prony_recover(ray([1.0] * 6), 3)


def test_prony_consistency_with_forms():
    rng = np.random.default_rng(97)
    hits = 0
    for trial in range(20):
        n = 1 + trial % 3
        k = trial % 4
        f = random_form(rng, n=n, k=k)
        v = rng.normal(size=n)
        x0 = tuple(c / float(np.linalg.norm(v)) for c in v)
        omega = np.asarray(x0)
        values = CoeffArray.of(n, [h.reduced() for h in f.coeffs]).angular(omega)[0]
        top = values[-1]
        peak = max(abs(values))
        if abs(top) < 1e-2 * (1.0 + peak):
            continue  # near-degenerate probe direction; multi-probe covers it
        # searching up to order k_max = k+1 needs 2(k+2)+1 samples
        s = sample_ray(lambda x: eval_form(f, x), x0, 0.1, 2 * k + 5)
        lam, got_k, coeffs, residual = prony_recover(s, k + 1)
        assert abs(lam - f.degree) < 1e-6
        assert got_k == k
        hits += 1
    assert hits >= 15


def test_multi_probe_recovers_order():
    rng = np.random.default_rng(101)
    for trial in range(10):
        n = 1 + trial % 3
        k = trial % 4
        f = random_form(rng, n=n, k=k)
        lam, got_k, residual = multi_probe_recover(
            lambda x: eval_form(f, x), n, k_max=4
        )
        assert abs(lam - f.degree) < 1e-6
        assert got_k == k


def test_multi_probe_direction_degeneracy():
    # h_1 = x1 x2 / r^2 vanishes on both axes, so an axis-aligned single ray
    # sees order 0; random probes still find order 1
    from qahd.logform import AngularPart, LogForm

    f = LogForm.make(2, complex(1), [
        AngularPart(2, {(0, 0): complex(1)}),
        AngularPart(2, {(1, 1): complex(1)}),
    ])
    s = sample_ray(lambda x: eval_form(f, x), (1.0, 0.0), 0.1, 9)
    lam, k, _, _ = prony_recover(s, 3)
    assert k == 0
    lam, k, _ = multi_probe_recover(lambda x: eval_form(f, x), 2, k_max=3)
    assert abs(lam - 1.0) < 1e-6
    assert k == 1
