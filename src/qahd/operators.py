"""Dilation and Euler operators on canonical forms, and the QAHD classifier.

Every operator acts on the stacked log-power coefficients H = (h_0..h_k) of a
form of degree lam as one (k+1)x(k+1) matrix M, giving M @ H:

  dilate by a:      B[i][j] = a^lam C(j,i) (log a)^(j-i)      (dilation_coefficient_matrix)
  E - mu:           (lam - mu) I + N,  N[i][i+1] = i+1      (euler: mu = 0)
  (E - lam)^m:      N^m, N^m[i][i+m] = (i+m)!/i!            (exact shift)
  delta_a(mu):      B - a^mu I
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .errors import EvalOverflowError, NonPositiveScaleError, ZeroInputError
from .logform import LogForm, MultiForm, eval_form
from .spectral import dilation_coefficient_matrix, scale_power

DEFAULT_A_SAMPLES: Tuple[float, ...] = (0.5, 2.0 / 3.0, math.e, math.pi, 10.0)
VERDICT_TOLERANCE = 1e-9
DEGREE_MATCH_TOLERANCE = 1e-10


def _act(form: LogForm, matrix: np.ndarray, power: int = 1) -> LogForm:
    """The form whose coefficient matrix is matrix^power @ H, same degree."""
    arr = form.arrays()
    with np.errstate(all="ignore"):
        values = np.linalg.matrix_power(matrix, power) @ arr.values
    if not np.isfinite(values).all():
        raise EvalOverflowError("operator coefficients overflowed the floating-point range")
    return LogForm.make(form.n, form._lam, arr.parts(form.n, values))


def _check_scale(a: float) -> None:
    if a <= 0:
        raise NonPositiveScaleError(f"dilation scale must be positive, got {a}")


def _euler_matrix(size: int, shift: complex) -> np.ndarray:
    """shift * I + N, the action of E - (lam - shift)."""
    return shift * np.eye(size, dtype=complex) + np.diag(np.arange(1.0, size), 1)


def _delta_matrix(form: LogForm, a: float, mu: complex) -> np.ndarray:
    """B - a^mu I, the action of Delta_a(mu)."""
    size = len(form.coeffs)
    return (dilation_coefficient_matrix(a, form._lam, size)
            - scale_power(a, mu) * np.eye(size, dtype=complex))


def dilate(form: LogForm, a: float) -> LogForm:
    """Pointwise substitution x -> a*x, computed on coefficients."""
    _check_scale(a)
    if form.is_zero:
        return form
    return _act(form, dilation_coefficient_matrix(a, form._lam, len(form.coeffs)))


def euler(form: LogForm) -> LogForm:
    """Coefficient action of E = sum_j x_j d/dx_j."""
    return euler_minus(form, complex(0))


def euler_minus(form: LogForm, mu: complex) -> LogForm:
    """Single application of (E - mu)."""
    if form.is_zero:
        return form
    return _act(form, _euler_matrix(len(form.coeffs), form._lam - mu))


def delta(form: LogForm, a: float, mu: complex) -> LogForm:
    """Spectral difference Delta_a(mu) = U_a - a^mu I."""
    _check_scale(a)
    if form.is_zero:
        return form
    return _act(form, _delta_matrix(form, a, complex(mu)))


def op_power(kind: str, m: int, form: LogForm, *, a: float | None = None,
             lam: complex | None = None) -> LogForm:
    """m-fold composition of (E - lam) or Delta_a(lam), as one matrix power.

    `lam` defaults to the degree of `form`; at the form's own degree the
    Euler kind is the exact nilpotent shift g_i = ((i+m)!/i!) h_{i+m}.
    """
    if m < 0:
        raise ValueError("power must be non-negative")
    if form.is_zero or m == 0:
        return form
    target = form._lam if lam is None else complex(lam)
    size = len(form.coeffs)
    if kind == "euler_minus_lambda":
        if target == form._lam and m >= size:
            return LogForm.zero(form.n)
        return _act(form, _euler_matrix(size, form._lam - target), m)
    if kind == "delta_a":
        if a is None:
            raise ValueError("delta_a requires the scale a")
        _check_scale(a)
        return _act(form, _delta_matrix(form, a, target), m)
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


def random_points(rng: np.random.Generator, n: int, count: int,
                  r_min: float = 0.5, r_max: float = 2.0) -> np.ndarray:
    """Points away from the origin, an array (count, n): uniform direction,
    radius uniform in [r_min, r_max]."""
    points = np.empty((count, n))
    for p in range(count):
        v = rng.normal(size=n)
        norm = float(np.linalg.norm(v))
        while norm < 1e-6:
            v = rng.normal(size=n)
            norm = float(np.linalg.norm(v))
        points[p] = float(rng.uniform(r_min, r_max)) * v / norm
    return points


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
    points = random_points(np.random.default_rng(seed), form.n, n_points)

    # U_a F at the points a*x for every a at once, against the chain members
    # at the points x; rows are a-samples, columns points
    scales = np.asarray(a_samples, dtype=float)
    lhs = eval_form(form, (scales[:, None, None] * points).reshape(-1, form.n))
    lhs = lhs.reshape(scales.size, n_points)
    members = [eval_form(op_power("euler_minus_lambda", r, form, lam=lam), points)
               for r in range(k + 1)]
    amps = np.array([scale_power(a, lam) for a in a_samples])
    with np.errstate(all="ignore"):
        rhs = np.zeros_like(lhs)
        for r, values in enumerate(members):
            weights = np.array([math.log(a) ** r / math.factorial(r) for a in a_samples])
            rhs = rhs + weights[:, None] * values
        rhs = rhs * amps[:, None]
        residuals = np.abs(lhs - rhs) / (1.0 + np.abs(lhs))
    # an overflow raises rather than leaving inf or NaN in the criterion
    if not np.isfinite(residuals).all():
        raise EvalOverflowError("definitional residual overflowed the floating-point range")
    definitional = float(residuals.max(initial=0.0))

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
