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
    EvalOverflowError,
    InsufficientSamplesError,
    NoFitError,
    OriginError,
    RootSplitError,
    check_finite,
)

FIT_RESIDUAL_FACTOR = 1e-9
CLUSTER_TOLERANCE = 1e-6
ALIAS_MARGIN = 0.9
# The largest --M and --kmax of the CLI.  With no fitting order, kmax + 1 fits
# on each of 3n rays of M samples: at n = 3, M = 1024, 0.6 to 0.9 s for kmax =
# 48 on a 2-core host, and 1.3 to 2.9 s for kmax = 64.
MAX_SAMPLES = 1024
MAX_ORDER = 48


@dataclass(frozen=True)
class SampleSeries:
    x0: Tuple[float, ...]
    delta: float
    values: Tuple[complex, ...]

    @property
    def count(self) -> int:
        return len(self.values)


def sample_rays(f: Callable, x0s: Sequence, delta: float,
                count: int) -> list[SampleSeries]:
    """u_m = f(e^(m delta) x0) for m = 0..count-1 on each ray x0 of x0s, in
    one call of f.

    f is a batch callable: it takes the (len(x0s) * count, n) array of the
    rays' points, ray after ray, and returns their values as an array of
    shape (len(x0s) * count,).  Every ray is checked before f is called.
    """
    x0s = [tuple(float(c) for c in x0) for x0 in x0s]
    for x0 in x0s:
        if all(c == 0.0 for c in x0):
            raise OriginError("ray base point must be nonzero")
        if not all(math.isfinite(c) for c in x0):
            raise ValueError("ray base point must be finite")
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be positive and finite, got {delta}")
    if count < 3:
        raise InsufficientSamplesError("need at least 3 samples")
    try:
        scales = np.array([math.exp(m * delta) for m in range(count)])
    except OverflowError:
        raise EvalOverflowError("ray scale overflowed the floating-point range") from None
    with np.errstate(over="ignore"):
        points = np.concatenate([np.outer(scales, x0) for x0 in x0s])
    check_finite(points, "ray point")
    size = len(x0s) * count
    values = np.asarray(f(points))
    if values.shape != (size,):
        raise ValueError(
            f"ray function returned shape {values.shape}, expected ({size},)"
        )
    values = [complex(v) for v in values.tolist()]
    return [
        SampleSeries(x0, float(delta), tuple(values[j * count:(j + 1) * count]))
        for j, x0 in enumerate(x0s)
    ]


def sample_ray(f: Callable, x0, delta: float, count: int) -> SampleSeries:
    """u_m = f(e^(m delta) x0) for m = 0..count-1, in one call of f: the
    one-ray case of `sample_rays`, with f taking the (count, n) ray points."""
    return sample_rays(f, [x0], delta, count)[0]


def random_direction(rng: np.random.Generator, n: int) -> Tuple[np.ndarray, float]:
    """A standard normal draw v (n,) of norm at least 1e-6, and that norm;
    v / norm is uniform on the sphere."""
    v = rng.normal(size=n)
    norm = float(np.linalg.norm(v))
    while norm < 1e-6:
        v = rng.normal(size=n)
        norm = float(np.linalg.norm(v))
    return v, norm


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
    (z - zbar)^p, detected on coefficients for numerical stability.  The
    coefficients are not finite where e^(-lam t) overflows; lam and k do
    not depend on them.
    """
    u = np.asarray(series.values, dtype=complex)
    half = float(np.max(np.abs(u / 2)))  # max|u| can overflow, max|u/2| cannot
    if half == 0.0:
        raise NoFitError("sample series is identically zero")
    if series.count < 2 * (k_max + 1) + 1:
        raise InsufficientSamplesError(
            f"need at least {2 * (k_max + 1) + 1} samples, have {series.count}"
        )
    # fit u / 2^e, 2^e near max|u| (ldexp: u / tiny 2^e overflows in numpy)
    e = math.frexp(half)[1] - 1
    w = np.ldexp(u.view(float), -e).view(complex)
    scale = math.ldexp(half, 1 - e)
    # smallest order whose recurrence both fits and has a single root
    # cluster; a fitting order whose roots split can still be an
    # undershoot (small top term), so keep looking at higher orders and
    # report the split only if none of them clusters
    chosen = None
    split = None
    for p in range(1, k_max + 2):
        c, residual = _fit_recurrence(w, p)
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
    with np.errstate(all="ignore"):
        q = u * np.exp(-lam * t)
    vand = np.vander(t, k + 1, increasing=True)
    coeffs, *_ = np.linalg.lstsq(vand, q, rcond=None)
    return lam, k, tuple(complex(v) for v in coeffs), math.ldexp(residual, e)


def multi_probe_recover(f: Callable, n: int, k_max: int, *, delta: float = 0.1,
                        count: int | None = None, seed: int = 42):
    """Probe 3n random directions with the batch callable f, which receives
    all 3n rays in one call; majority degree, max order.

    A single ray can undershoot the order when the top angular coefficient
    vanishes along it; the direction set makes that a measure-zero event.
    """
    rng = np.random.default_rng(seed)
    if count is None:
        count = 2 * (k_max + 1) + 2
    x0s = []
    for _ in range(3 * n):
        v, norm = random_direction(rng, n)
        x0s.append(tuple(c / norm for c in v))
    results = []
    for series in sample_rays(f, x0s, delta, count):
        try:
            lam, k, coeffs, residual = prony_recover(series, k_max)
        except (NoFitError, RootSplitError):
            continue
        results.append((lam, k, residual))
    if not results:
        raise NoFitError("no probe direction produced a fit")
    # majority degree by clustering
    clusters: list[list] = []
    for item in results:
        for cluster in clusters:
            if abs(cluster[0][0] - item[0]) < 1e-5:
                cluster.append(item)
                break
        else:
            clusters.append([item])
    lams, ks, residuals = zip(*max(clusters, key=len))
    return complex(np.mean(lams)), max(ks), max(residuals)
