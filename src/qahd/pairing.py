"""Distributional pairings <f, phi> by quadrature in polar coordinates.

The radial direction uses Gauss-Legendre on the support interval of the
bump; the angular direction uses the two-point rule (n=1), a uniform rule
on the circle (n=2), or Gauss-Legendre in cos(theta) times a uniform
azimuth rule (n=3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import (
    DimensionUnsupportedError,
    IntegrabilityError,
    NonPositiveScaleError,
    QuadratureLimitError,
)
from .logform import LogForm, power_table
from .operators import op_power

DEFAULT_PAIR_TOLERANCE = 1e-6
# Largest (radius, direction) grid `pair` builds, checked before any array
# is: 4x the 128 x 8192 grid of n = 3 at 128 nodes.
MAX_QUADRATURE_VALUES = 4 * 128 * 8192


@dataclass(frozen=True)
class TestFunction:
    """Radial bump phi(x) = exp(-1/(1-u^2)), u = |x - center|/width."""

    n: int
    center: Tuple[float, ...]
    width: float

    def __post_init__(self):
        if self.width <= 0:
            raise NonPositiveScaleError("bump width must be positive")
        if len(self.center) != self.n:
            raise ValueError("center dimension mismatch")

    def values(self, points: np.ndarray) -> np.ndarray:
        """Vectorized evaluation; points has shape (n, ...)."""
        c = np.asarray(self.center).reshape((self.n,) + (1,) * (points.ndim - 1))
        u2 = np.sum((points - c) ** 2, axis=0) / self.width ** 2
        out = np.zeros(u2.shape)
        inside = u2 < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - u2[inside]))
        return out

    def __call__(self, x) -> float:
        pts = np.asarray(x, dtype=float).reshape(self.n, 1)
        return float(self.values(pts)[0])

    def scaled(self, a: float) -> "TestFunction":
        """The bump x -> phi(x/a)."""
        if a <= 0:
            raise NonPositiveScaleError("scale must be positive")
        return TestFunction(self.n, tuple(a * c for c in self.center), a * self.width)

    def support_radii(self) -> Tuple[float, float]:
        c = math.sqrt(sum(v * v for v in self.center))
        return (max(0.0, c - self.width), c + self.width)

    def contains_origin(self) -> bool:
        c = math.sqrt(sum(v * v for v in self.center))
        return c <= self.width

    def to_dict(self) -> dict:
        return {"n": self.n, "center": list(self.center), "width": self.width}


@dataclass(frozen=True)
class QuadratureSpec:
    radial: int = 64
    angular: int = 64

    def __post_init__(self):
        if self.radial < 4 or self.angular < 4:
            raise ValueError("node counts must be >= 4")

    def doubled(self) -> "QuadratureSpec":
        return QuadratureSpec(2 * self.radial, 2 * self.angular)

    def to_dict(self) -> dict:
        return {"Kr": self.radial, "Kw": self.angular}


def _direction_count(n: int, spec: QuadratureSpec) -> int:
    """Number of directions `_angular_rule` returns."""
    if n == 1:
        return 2
    if n == 2:
        return spec.angular
    return max(4, spec.angular // 2) * spec.angular


def _angular_rule(n: int, spec: QuadratureSpec):
    """Directions (n, Kd) and weights (Kd,) for the sphere integral."""
    if n == 1:
        omega = np.array([[1.0, -1.0]])
        weights = np.array([1.0, 1.0])
    elif n == 2:
        theta = 2.0 * math.pi * np.arange(spec.angular) / spec.angular
        omega = np.vstack([np.cos(theta), np.sin(theta)])
        weights = np.full(spec.angular, 2.0 * math.pi / spec.angular)
    elif n == 3:
        k_polar = max(4, spec.angular // 2)
        u, wu = np.polynomial.legendre.leggauss(k_polar)
        phi = 2.0 * math.pi * np.arange(spec.angular) / spec.angular
        sin_t = np.sqrt(1.0 - u ** 2)
        ox = np.outer(sin_t, np.cos(phi)).ravel()
        oy = np.outer(sin_t, np.sin(phi)).ravel()
        oz = np.outer(u, np.ones_like(phi)).ravel()
        omega = np.vstack([ox, oy, oz])
        weights = np.outer(wu, np.full(spec.angular, 2.0 * math.pi / spec.angular)).ravel()
    else:
        raise DimensionUnsupportedError(f"pairing supports n in 1..3, got {n}")
    return omega, weights


def pair(form: LogForm, phi: TestFunction, spec: QuadratureSpec = QuadratureSpec()) -> complex:
    """Quadrature value of the integral of F(x) phi(x) dx over R^n."""
    n = phi.n
    if n not in (1, 2, 3):
        raise DimensionUnsupportedError(f"pairing supports n in 1..3, got {n}")
    size = spec.radial * _direction_count(n, spec)
    if size > MAX_QUADRATURE_VALUES:
        raise QuadratureLimitError(
            f"quadrature grid of {size} (radius, direction) values exceeds the "
            f"limit {MAX_QUADRATURE_VALUES}"
        )
    if form.is_zero:
        return complex(0)
    if form.n != n:
        raise ValueError("form and test function dimensions differ")
    lam = form.degree
    if lam.real <= -n and phi.contains_origin():
        raise IntegrabilityError(
            f"degree {lam} is not locally integrable with the origin in the support"
        )
    r_lo, r_hi = phi.support_radii()
    if r_hi <= r_lo:
        return complex(0)
    nodes, w_r = np.polynomial.legendre.leggauss(spec.radial)
    r = 0.5 * (r_hi - r_lo) * nodes + 0.5 * (r_hi + r_lo)
    w_r = 0.5 * (r_hi - r_lo) * w_r
    omega, w_a = _angular_rule(n, spec)

    radial = np.exp((lam + (n - 1)) * np.log(r.astype(complex)))  # r^(lam+n-1)
    # sum_j h_j(omega) (ln r)^j on the (radius, direction) grid; r^lam is
    # folded into the radial weight
    grid = power_table(np.log(r), len(form.coeffs)) @ form.arrays().angular(omega.T).T
    points = r[None, :, None] * omega[:, None, :]  # (n, Kr, Kd)
    bump = phi.values(points)  # (Kr, Kd)
    integrand = grid * bump
    return complex(np.einsum("i,j,ij->", w_r * radial, w_a, integrand))


def verify_pairing_identity(form: LogForm, phi: TestFunction, a: float,
                            spec: QuadratureSpec = QuadratureSpec(),
                            tolerance: float = DEFAULT_PAIR_TOLERANCE) -> dict:
    """Residual of <F, phi(./a)> = a^(lam+n) [<F,phi> + sum_r log^r a <f_r,phi>/r!].

    Chain members are the canonical ones, (E - lam)^r F / r!.
    """
    if a <= 0:
        raise NonPositiveScaleError("scale must be positive")
    if form.is_zero:
        raise ValueError("identity check needs a nonzero form")
    lam = form.degree
    k = form.order
    n = phi.n
    lhs = pair(form, phi.scaled(a), spec)
    la = math.log(a)
    amp = np.exp(complex(lam + n) * la)
    rhs = pair(form, phi, spec)
    pair_terms = [rhs]
    for r in range(1, k + 1):
        member = op_power("euler_minus_lambda", r, form).scale(1.0 / math.factorial(r))
        term = pair(member, phi, spec)
        pair_terms.append(term)
        rhs = rhs + la ** r * term
    rhs = amp * rhs
    residual = abs(lhs - rhs) / (1.0 + abs(lhs))
    return {
        "degree": {"re": lam.real, "im": lam.imag},
        "order": k,
        "a": float(a),
        "lhs": {"re": lhs.real, "im": lhs.imag},
        "rhs": {"re": complex(rhs).real, "im": complex(rhs).imag},
        "residual": float(residual),
        "quadrature": spec.to_dict(),
        "verdict": bool(residual < tolerance),
    }
