"""Distributional pairings <f, phi> by quadrature in polar coordinates.

The radial direction uses Gauss-Legendre on the support interval of the
bump; the angular direction uses the two-point rule (n=1), a uniform rule
on the circle (n=2), or Gauss-Legendre in cos(theta) times a uniform
azimuth rule (n=3).  `QuadratureSpec.rule` checks the dimension and the
grid size before it builds anything.  The Gauss-Legendre nodes of each
degree are computed once per process (`_gauss`), so the pairings of one
`verify_pairing_identity`, and all pairings at one node count, share them.

`pair` does only the work whose result is nonzero.  It evaluates the bump in
polar form, |r omega - c|^2 = (r - omega.c)^2 + |c - (omega.c) omega|^2, on
the (radius, direction) grid.  When the support does not contain the origin
it drops the directions whose ray never meets the ball (omega.c <= 0, or
distance from c to the ray's line >= width), on which the bump is exactly 0.
It sums over directions before radii: M = bump @ (w_omega h_j(omega)) is
(Kr, k+1), and the value is sum_i w_i r_i^(lam+n-1) sum_j (ln r_i)^j M[i, j].
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import (
    DimensionUnsupportedError,
    EvalOverflowError,
    IntegrabilityError,
    QuadratureLimitError,
    ZeroInputError,
    check_finite,
    check_scale,
)
from .logform import LogForm, power_table
from .operators import op_power
from .spectral import scale_power

DEFAULT_PAIR_TOLERANCE = 1e-6
# Largest (radius, direction) grid `pair` builds, checked before any array
# is: 4x the 128 x 8192 grid of n = 3 at 128 nodes.
MAX_QUADRATURE_VALUES = 4 * 128 * 8192
# Largest Gauss-Legendre degree `_gauss` computes: numpy's leggauss solves a
# dense degree x degree eigenproblem, about 0.6 s and 0.1 GiB at 2048.
MAX_GAUSS_NODES = 2048


def _bump(u2: np.ndarray) -> np.ndarray:
    """The bump profile u^2 -> exp(-1/(1-u^2)) for u^2 < 1, and 0 elsewhere."""
    out = np.zeros(u2.shape)
    inside = u2 < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u2[inside]))
    return out


@dataclass(frozen=True)
class TestFunction:
    """Radial bump phi(x) = exp(-1/(1-u^2)), u = |x - center|/width."""

    n: int
    center: Tuple[float, ...]
    width: float

    def __post_init__(self):
        check_scale(self.width, "bump width")
        if len(self.center) != self.n:
            raise ValueError("center dimension mismatch")
        if not all(math.isfinite(v) for v in self.center):
            raise ValueError("bump center must be finite")

    def values(self, points: np.ndarray) -> np.ndarray:
        """Vectorized evaluation; points has shape (n, ...)."""
        c = np.asarray(self.center).reshape((self.n,) + (1,) * (points.ndim - 1))
        # u = |x - c| / width divided before squaring, so no width^2 overflows
        with np.errstate(over="ignore"):
            u2 = np.sum(((points - c) / self.width) ** 2, axis=0)
        return _bump(u2)

    def scaled(self, a: float) -> "TestFunction":
        """The bump x -> phi(x/a)."""
        check_scale(a, "scale")
        center = tuple(a * c for c in self.center)
        check_finite(center + (a * self.width,), "bump scaled by {}", a)
        return TestFunction(self.n, center, a * self.width)

    def support_radii(self) -> Tuple[float, float]:
        c = math.sqrt(sum(v * v for v in self.center))
        return (max(0.0, c - self.width), c + self.width)

    def to_dict(self) -> dict:
        return {"n": self.n, "center": list(self.center), "width": self.width}


@functools.lru_cache(maxsize=None)
def _gauss(degree: int):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only, computed once
    per degree per process; a degree above `MAX_GAUSS_NODES` is refused."""
    if degree > MAX_GAUSS_NODES:
        raise QuadratureLimitError(
            f"{degree} Gauss-Legendre nodes exceed the limit {MAX_GAUSS_NODES}"
        )
    nodes, weights = np.polynomial.legendre.leggauss(degree)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts of the pairing quadrature."""

    radial: int = 64
    angular: int = 64

    def __post_init__(self):
        if self.radial < 4 or self.angular < 4:
            raise ValueError("node counts must be >= 4")

    def rule(self, n: int):
        """Gauss-Legendre nodes and weights on [-1, 1], each (Kr,), unit
        directions (Kd, n) and their weights (Kd,).

        The dimension, the grid size Kr * Kd and the Gauss degrees are
        checked before anything is built.
        """
        if n not in (1, 2, 3):
            raise DimensionUnsupportedError(f"pairing supports n in 1..3, got {n}")
        polar = max(4, self.angular // 2)  # Gauss nodes in cos(theta) at n = 3
        size = self.radial * (2, self.angular, polar * self.angular)[n - 1]
        if size > MAX_QUADRATURE_VALUES:
            raise QuadratureLimitError(
                f"quadrature grid of {size} (radius, direction) values exceeds the "
                f"limit {MAX_QUADRATURE_VALUES}"
            )
        return _gauss(self.radial) + _angular_rule(n, self.angular, polar)

    def to_dict(self) -> dict:
        return {"Kr": self.radial, "Kw": self.angular}


def _angular_rule(n: int, azimuth: int, polar: int):
    """Directions (Kd, n) and weights (Kd,) for the sphere integral: two at
    n = 1, `azimuth` on the circle, `polar` x `azimuth` on the sphere."""
    if n == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    phi = 2.0 * math.pi * np.arange(azimuth) / azimuth
    w_phi = np.full(azimuth, 2.0 * math.pi / azimuth)
    if n == 2:
        return np.column_stack([np.cos(phi), np.sin(phi)]), w_phi
    u, wu = _gauss(polar)
    sin_t = np.sqrt(1.0 - u ** 2)
    ox = np.outer(sin_t, np.cos(phi)).ravel()
    oy = np.outer(sin_t, np.sin(phi)).ravel()
    oz = np.outer(u, np.ones_like(phi)).ravel()
    return np.column_stack([ox, oy, oz]), np.outer(wu, w_phi).ravel()


def pair(form: LogForm, phi: TestFunction, spec: Optional[QuadratureSpec] = None) -> complex:
    """Quadrature value of the integral of F(x) phi(x) dx over R^n.

    `spec` defaults to `QuadratureSpec()`, a fresh one per call.
    """
    if spec is None:
        spec = QuadratureSpec()
    n = phi.n
    nodes, w_r, omega, w_a = spec.rule(n)
    if form.is_zero:
        return complex(0)
    if form.n != n:
        raise ValueError("form and test function dimensions differ")
    lam = form.degree
    r_lo, r_hi = phi.support_radii()  # r_lo == 0.0: the origin is in the support
    if lam.real <= -n and r_lo == 0.0:
        raise IntegrabilityError(
            f"degree {lam} is not locally integrable with the origin in the support"
        )
    with np.errstate(over="ignore"):
        w2 = np.float64(phi.width) ** 2
    # |c| and width^2 are taken in absolute units, so they can overflow
    check_finite((r_hi, w2), "pairing")
    if r_hi <= r_lo:  # |c| - width and |c| + width round to one float
        raise EvalOverflowError(
            f"bump width {phi.width} is below the float resolution of its "
            f"distance {r_hi} from the origin"
        )
    r = 0.5 * (r_hi - r_lo) * nodes + 0.5 * (r_hi + r_lo)
    w_r = 0.5 * (r_hi - r_lo) * w_r

    c = np.asarray(phi.center, dtype=float)
    with np.errstate(all="ignore"):
        p = omega @ c
        # squared distance from c to each direction's line, |c|^2 - p^2
        q2 = np.sum((c - p[:, None] * omega) ** 2, axis=1)
        if r_lo > 0.0:
            keep = (p > 0) & (q2 < w2)
            omega, w_a, p, q2 = omega[keep], w_a[keep], p[keep], q2[keep]
        u2 = np.subtract.outer(r, p)  # (Kr, Kd), built in place
        u2 *= u2
        u2 += q2
        u2 /= w2
        bump = _bump(u2)
        h = w_a[:, None] * form.arrays().angular(omega)  # (Kd, k+1), complex
        # a real matrix times the interleaved (re, im) columns of h: M as
        # (Kr, k+1) complex, without casting the bump to complex
        m = (bump @ h.view(float)).view(complex)
        radial = w_r * np.exp((lam + (n - 1)) * np.log(r.astype(complex)))  # w r^(lam+n-1)
        value = complex(radial @ np.sum(power_table(np.log(r), len(form.coeffs)) * m, axis=1))
    check_finite(value, "pairing")
    return value


def verify_pairing_identity(form: LogForm, phi: TestFunction, a: float,
                            spec: Optional[QuadratureSpec] = None) -> dict:
    """Residual of <F, phi(./a)> = a^n (a^lam <F, phi> + <Delta_a(lam) F, phi>).

    The right side is a^(lam+n) (<F, phi> + <(Delta_a(lam)/a^lam) F, phi>),
    whose shifted form never carries a^lam and is the zero form at order 0.
    The three pairings use `spec` (a fresh `QuadratureSpec()` by default)
    and so the same nodes.  The verdict is residual < `DEFAULT_PAIR_TOLERANCE`.
    """
    if form.is_zero:
        raise ZeroInputError("pairing identity needs a nonzero form")
    check_scale(a, "scale")
    if spec is None:
        spec = QuadratureSpec()
    lam = form.degree
    n = phi.n
    lhs = pair(form, phi.scaled(a), spec)
    shifted = pair(op_power("scaled_delta_a", 1, form, a=a), phi, spec)
    rhs = scale_power(a, lam + n) * (pair(form, phi, spec) + shifted)
    check_finite(rhs, "pairing identity")
    try:
        residual = abs(lhs - rhs) / (1.0 + abs(lhs))
    except OverflowError:  # |lhs| can leave the float range though its parts do not
        residual = math.inf
    check_finite(residual, "pairing identity residual")
    return {
        "degree": lam,
        "order": form.order,
        "a": float(a),
        "lhs": lhs,
        "rhs": rhs,
        "residual": residual,
        "quadrature": spec.to_dict(),
        "verdict": bool(residual < DEFAULT_PAIR_TOLERANCE),
    }
