"""Degree and order recovery from samples along a dilation ray.

Sampling f at x_0, e^D x_0, e^(2D) x_0, ... turns membership in a single
spectral subspace into an exact linear recurrence whose characteristic
polynomial is (z - e^(lam D))^(k+1); the fit order gives k and the root
cluster gives lam.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import (
    AliasRiskError,
    InsufficientSamplesError,
    NoFitError,
    OriginError,
    RootSplitError,
)

FIT_RESIDUAL_FACTOR = 1e-9
CLUSTER_TOLERANCE = 1e-6
ALIAS_MARGIN = 0.9


@dataclass(frozen=True)
class SampleSeries:
    x0: Tuple[float, ...]
    delta: float
    values: Tuple[complex, ...]

    @property
    def count(self) -> int:
        return len(self.values)


def sample_ray(f: Callable, x0, delta: float, count: int) -> SampleSeries:
    """u_m = f(e^(m delta) x0) for m = 0..count-1, in one call of f.

    f is a batch callable: it takes the (count, n) array of ray points and
    returns their values as an array of shape (count,).
    """
    x0 = tuple(float(c) for c in x0)
    if all(c == 0.0 for c in x0):
        raise OriginError("ray base point must be nonzero")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if count < 3:
        raise InsufficientSamplesError("need at least 3 samples")
    scales = np.array([math.exp(m * delta) for m in range(count)])
    values = np.asarray(f(np.outer(scales, x0)))
    if values.shape != (count,):
        raise ValueError(
            f"ray function returned shape {values.shape}, expected ({count},)"
        )
    return SampleSeries(x0, float(delta), tuple(complex(v) for v in values.tolist()))


def binomial_annihilation_weights(order: int) -> Tuple[int, ...]:
    """Signed binomial weights of the order-th finite difference."""
    return tuple((-1) ** (order - m) * math.comb(order, m) for m in range(order + 1))


def annihilation_check(series: SampleSeries, k: int,
                       lam_hint: complex | None = None) -> float:
    """Max windowed (k+1)-st difference of the (optionally degree-normalized)
    samples, scaled by 1/(1 + max|u|); ~0 iff the ray lies in a k-th order
    log-polynomial envelope."""
    u = np.asarray(series.values, dtype=complex)
    if series.count < k + 2:
        raise InsufficientSamplesError(
            f"need at least {k + 2} samples for order {k}, have {series.count}"
        )
    if lam_hint is not None:
        m = np.arange(series.count)
        u = u * np.exp(-complex(lam_hint) * m * series.delta)
    weights = np.asarray(binomial_annihilation_weights(k + 1), dtype=complex)
    width = k + 2
    worst = 0.0
    for t in range(series.count - width + 1):
        worst = max(worst, abs(np.dot(weights, u[t:t + width])))
    return worst / (1.0 + float(np.max(np.abs(u))))


def _fit_recurrence(u: np.ndarray, p: int):
    """Least-squares coefficients c with u[t+p] = sum_s c[s] u[t+s]."""
    rows = u.size - p
    a = np.empty((rows, p), dtype=complex)
    for s in range(p):
        a[:, s] = u[s:s + rows]
    b = u[p:]
    c, *_ = np.linalg.lstsq(a, b, rcond=None)
    residual = float(np.max(np.abs(a @ c - b))) if rows else 0.0
    return c, residual


def prony_recover(series: SampleSeries, k_max: int):
    """Recover (lam, k, ray polynomial coefficients) from exact ray samples.

    Tries recurrence orders p = 1..k_max+1 and keeps the first that fits;
    requires the characteristic polynomial to be a single root cluster
    (z - zbar)^p, detected on coefficients for numerical stability.
    """
    u = np.asarray(series.values, dtype=complex)
    scale = float(np.max(np.abs(u)))
    if scale == 0.0:
        raise NoFitError("sample series is identically zero")
    if series.count < 2 * (k_max + 1) + 1:
        raise InsufficientSamplesError(
            f"need at least {2 * (k_max + 1) + 1} samples, have {series.count}"
        )
    # smallest order whose recurrence both fits and has a single root
    # cluster; a fitting order whose roots split can still be an
    # undershoot (small top term), so keep looking at higher orders and
    # report the split only if none of them clusters
    chosen = None
    split = None
    for p in range(1, k_max + 2):
        c, residual = _fit_recurrence(u, p)
        if residual > FIT_RESIDUAL_FACTOR * scale:
            continue
        # mean root of z^p - c[p-1] z^(p-1) - ... - c[0]
        zbar = c[p - 1] / p if p > 1 else c[0]
        # single cluster iff the polynomial is (z - zbar)^p
        expected = np.array(
            [-math.comb(p, s) * (-zbar) ** (p - s) for s in range(p)], dtype=complex
        )
        coeff_scale = max(1.0, float(np.max(np.abs(expected))))
        if float(np.max(np.abs(c - expected))) > CLUSTER_TOLERANCE * coeff_scale:
            split = np.roots(np.concatenate(([1.0], -c[::-1])))
            continue
        chosen = (p, c, zbar, residual)
        break
    if chosen is None:
        if split is not None:
            raise RootSplitError(
                f"characteristic roots do not cluster: {split.tolist()}"
            )
        raise NoFitError(f"no recurrence of order <= {k_max + 1} fits the samples")
    p, c, zbar, residual = chosen
    if abs(zbar) == 0.0:
        raise NoFitError("degenerate zero characteristic root")
    lam = cmath.log(zbar) / series.delta
    if abs(lam.imag) * series.delta >= ALIAS_MARGIN * math.pi:
        raise AliasRiskError(
            f"|Im lam| * delta = {abs(lam.imag) * series.delta:.3f} risks aliasing"
        )
    k = p - 1

    # polynomial in t of u(t) e^(-lam t), t = m delta
    m = np.arange(series.count)
    t = m * series.delta
    q = u * np.exp(-lam * t)
    vand = np.vander(t, k + 1, increasing=True)
    coeffs, *_ = np.linalg.lstsq(vand, q, rcond=None)
    return lam, k, tuple(complex(v) for v in coeffs), residual


def multi_probe_recover(f: Callable, n: int, k_max: int, *, delta: float = 0.1,
                        count: int | None = None, seed: int = 42):
    """Probe 3n random directions with the batch callable f; majority
    degree, max order.

    A single ray can undershoot the order when the top angular coefficient
    vanishes along it; the direction set makes that a measure-zero event.
    """
    rng = np.random.default_rng(seed)
    if count is None:
        count = 2 * (k_max + 1) + 2
    results = []
    for _ in range(3 * n):
        v = rng.normal(size=n)
        norm = float(np.linalg.norm(v))
        while norm < 1e-6:
            v = rng.normal(size=n)
            norm = float(np.linalg.norm(v))
        x0 = tuple(c / norm for c in v)
        try:
            lam, k, coeffs, residual = prony_recover(
                sample_ray(f, x0, delta, count), k_max
            )
        except (NoFitError, RootSplitError):
            continue
        results.append((lam, k, residual))
    if not results:
        raise NoFitError("no probe direction produced a fit")
    # majority degree by clustering
    clusters: list[list] = []
    for lam, k, residual in results:
        for cluster in clusters:
            if abs(cluster[0][0] - lam) < 1e-5:
                cluster.append((lam, k, residual))
                break
        else:
            clusters.append([(lam, k, residual)])
    best = max(clusters, key=len)
    lam = complex(np.mean([item[0] for item in best]))
    k = max(item[1] for item in best)
    residual = max(item[2] for item in best)
    return lam, k, residual
