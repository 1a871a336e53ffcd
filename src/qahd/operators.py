"""Dilation and Euler operators on canonical forms, and the QAHD classifier.

Coefficient actions (degree lam, coefficients h_0..h_k in the log basis):

  dilate by a:      g_i = a^lam * sum_{j>=i} C(j,i) (log a)^(j-i) h_j
  euler:            g_i = lam h_i + (i+1) h_{i+1}
  (E - lam)^m:      g_i = ((i+m)!/i!) h_{i+m}        (exact shift)
  delta_a(mu):      dilate(., a) - a^mu * id
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .errors import EvalOverflowError, NonPositiveScaleError, ZeroInputError
from .logform import AngularPart, LogForm, MultiForm, eval_form

DEFAULT_A_SAMPLES: Tuple[float, ...] = (0.5, 2.0 / 3.0, math.e, math.pi, 10.0)
VERDICT_TOLERANCE = 1e-9
DEGREE_MATCH_TOLERANCE = 1e-10


def _scale_power(a: float, lam: complex) -> complex:
    """a^lam via exp(lam ln a); single valued for a > 0."""
    try:
        return cmath.exp(lam * math.log(a))
    except OverflowError:
        raise EvalOverflowError(f"{a}^{lam} overflowed the floating-point range") from None


def dilate(form: LogForm, a: float) -> LogForm:
    """Pointwise substitution x -> a*x, computed on coefficients."""
    if a <= 0:
        raise NonPositiveScaleError(f"dilation scale must be positive, got {a}")
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


def euler(form: LogForm) -> LogForm:
    """Coefficient action of E = sum_j x_j d/dx_j."""
    if form.is_zero:
        return form
    lam = form.degree
    k = form.order
    parts = []
    for i in range(k + 1):
        acc = form.coeffs[i].scale(lam)
        if i + 1 <= k:
            acc = acc.add(form.coeffs[i + 1].scale(complex(i + 1)))
        parts.append(acc)
    return LogForm.make(form.n, lam, parts)


def euler_minus(form: LogForm, mu: complex) -> LogForm:
    """Single application of (E - mu)."""
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


def delta(form: LogForm, a: float, mu: complex) -> LogForm:
    """Spectral difference Delta_a(mu) = U_a - a^mu I."""
    if a <= 0:
        raise NonPositiveScaleError(f"dilation scale must be positive, got {a}")
    if form.is_zero:
        return form
    return dilate(form, a).sub(form.scale(_scale_power(a, mu)))


def op_power(kind: str, m: int, form: LogForm, *, a: float | None = None,
             lam: complex | None = None) -> LogForm:
    """m-fold composition of (E - lam) or Delta_a(lam).

    `lam` defaults to the degree of `form`; in that case the Euler kind uses
    the exact nilpotent shift g_i = ((i+m)!/i!) h_{i+m}.
    """
    if m < 0:
        raise ValueError("power must be non-negative")
    if form.is_zero or m == 0:
        return form
    if kind == "euler_minus_lambda":
        own = form.degree
        target = own if lam is None else complex(lam)
        if target == own:
            k = form.order
            if m > k:
                return LogForm.zero(form.n)
            parts = []
            for i in range(k + 1 - m):
                factor = math.perm(i + m, m)  # (i+m)!/i!
                parts.append(form.coeffs[i + m].scale(complex(factor)))
            return LogForm.make(form.n, own, parts)
        out = form
        for _ in range(m):
            out = euler_minus(out, target)
        return out
    if kind == "delta_a":
        if a is None:
            raise ValueError("delta_a requires the scale a")
        target = form.degree if lam is None else complex(lam)
        out = form
        for _ in range(m):
            out = delta(out, a, target)
        return out
    raise ValueError(f"unknown operator kind {kind!r}")


def classify(m: MultiForm) -> List[Tuple[complex, int]]:
    """Per component: (degree, order) with order syzygy-reduced."""
    if m.is_zero:
        raise ZeroInputError("classification of the zero form")
    return [(f.degree, f.order) for f in m.components()]


def chain(form: LogForm) -> List[LogForm]:
    """[f_k, f_{k-1}, ..., f_0] with f_{k-s} = (E - lam)^s F; f_0 homogeneous."""
    if form.is_zero:
        raise ZeroInputError("chain of the zero form")
    return [op_power("euler_minus_lambda", s, form) for s in range(form.order + 1)]


def random_points(n: int, count: int, rng: np.random.Generator,
                  r_min: float = 0.5, r_max: float = 2.0) -> List[Tuple[float, ...]]:
    """Sample points away from the origin: uniform direction, radius in range."""
    points = []
    for _ in range(count):
        v = rng.normal(size=n)
        norm = float(np.linalg.norm(v))
        while norm < 1e-6:
            v = rng.normal(size=n)
            norm = float(np.linalg.norm(v))
        radius = float(rng.uniform(r_min, r_max))
        points.append(tuple(radius * c / norm for c in v))
    return points


def _residual(lhs: complex, rhs: complex) -> float:
    return abs(lhs - rhs) / (1.0 + abs(lhs))


@dataclass
class VerificationReport:
    degree: complex
    order: int
    definitional: float
    dilation_nilpotency: float
    euler_nilpotency: float
    structural: bool
    a_samples: Tuple[float, ...]
    verdict: bool = field(init=False)

    def __post_init__(self):
        self.verdict = bool(
            self.structural
            and self.definitional < VERDICT_TOLERANCE
            and self.dilation_nilpotency < VERDICT_TOLERANCE
            and self.euler_nilpotency < VERDICT_TOLERANCE
        )

    def to_dict(self) -> dict:
        return {
            "degree": {"re": self.degree.real, "im": self.degree.imag},
            "order": self.order,
            "criteria": {
                "definitional": self.definitional,
                "dilation_nilpotency": self.dilation_nilpotency,
                "euler_nilpotency": self.euler_nilpotency,
                "structural": self.structural,
            },
            "a_samples": list(self.a_samples),
            "verdict": self.verdict,
        }


def verify_qahd(form: LogForm, lam: complex, k: int,
                a_samples: Sequence[float] = DEFAULT_A_SAMPLES,
                *, n_points: int = 20, seed: int = 42) -> VerificationReport:
    """Check all four equivalent characterizations against asserted (lam, k).

    (i)   U_a F = a^lam F + sum_r a^lam log^r a (E-lam)^r F / r!, pointwise;
    (ii)  Delta_a(lam)^(k+1) F = 0 on coefficients;
    (iii) (E - lam)^(k+1) F = 0 on coefficients;
    (iv)  degree(F) = lam and order(F) = k.
    """
    if not a_samples:
        raise ValueError("a_samples must be nonempty")
    if any(a <= 0 for a in a_samples):
        raise NonPositiveScaleError("all a-samples must be positive")
    lam = complex(lam)
    rng = np.random.default_rng(seed)
    points = random_points(form.n, n_points, rng)

    members = [op_power("euler_minus_lambda", r, form, lam=lam) for r in range(k + 1)]
    definitional = 0.0
    for a in a_samples:
        amp = _scale_power(a, lam)
        la = math.log(a)
        for x in points:
            lhs = eval_form(form, tuple(a * c for c in x))
            rhs = complex(0)
            for r in range(k + 1):
                rhs += (la ** r / math.factorial(r)) * eval_form(members[r], x)
            rhs *= amp
            definitional = max(definitional, _residual(lhs, rhs))

    norm = form.coeff_norm()
    dilation_nilpotency = 0.0
    for a in a_samples:
        g = op_power("delta_a", k + 1, form, a=a, lam=lam)
        dilation_nilpotency = max(dilation_nilpotency, g.coeff_norm() / (1.0 + norm))

    g = op_power("euler_minus_lambda", k + 1, form, lam=lam)
    euler_nilpotency = g.coeff_norm() / (1.0 + norm)

    structural = (
        not form.is_zero
        and abs(form.degree - lam) <= DEGREE_MATCH_TOLERANCE
        and form.order == k
    )
    return VerificationReport(
        degree=lam,
        order=k,
        definitional=definitional,
        dilation_nilpotency=dilation_nilpotency,
        euler_nilpotency=euler_nilpotency,
        structural=structural,
        a_samples=tuple(float(a) for a in a_samples),
    )
