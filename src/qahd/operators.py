"""Dilation and Euler operators on canonical forms, and the QAHD classifier.

Every operator acts on the stacked log-power coefficients H = (h_0..h_k) of a
form of degree lam as one (k+1)x(k+1) matrix M, giving M @ H:

  dilate by a:      B[i][j] = a^lam C(j,i) (log a)^(j-i)      (dilation_coefficient_matrix)
  E - mu:           (lam - mu) I + N,  N[i][i+1] = i+1      (euler: mu = 0)
  (E - lam)^m:      N^m, N^m[i][i+m] = (i+m)!/i!            (exact shift)
  delta_a(mu):      B - a^mu I
  delta_a(mu)/a^s:  a^(lam-s) C(j,i) (log a)^(j-i) - a^(mu-s) I   (scaled_delta_a)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .errors import ZeroInputError, check_finite, check_scale
from .identify import random_direction
from .logform import (DEGREE_TOLERANCE, MAX_MONOMIAL_DEGREE, LogForm, MultiForm,
                      eval_form, eval_terms)
from .spectral import dilation_coefficient_matrix, scale_power

DEFAULT_A_SAMPLES: Tuple[float, ...] = (0.5, 2.0 / 3.0, math.e, math.pi, 10.0)
VERDICT_TOLERANCE = 1e-9


def _act(form: LogForm, matrix: np.ndarray, power: int = 1) -> LogForm:
    """The form whose coefficient matrix is matrix^power @ H, same degree."""
    arr = form.arrays()
    if power >= len(matrix) and not matrix.diagonal().any():
        # strictly upper triangular: its power is exactly 0, while the partial
        # products of matrix_power can overflow
        values = np.zeros_like(arr.values)
    else:
        with np.errstate(all="ignore"):
            values = np.linalg.matrix_power(matrix, power) @ arr.values
    check_finite(values, "operator coefficients")
    return LogForm.make(form.n, form._lam, arr.parts(form.n, values))


def _euler_matrix(size: int, shift: complex) -> np.ndarray:
    """shift * I + N, the action of E - (lam - shift)."""
    return shift * np.eye(size, dtype=complex) + np.diag(np.arange(1.0, size), 1)


def _scale_exponent(a: float, lam: complex, mu: complex) -> complex:
    """The one of lam and mu with the larger |a^s|: |a^(lam-s)|, |a^(mu-s)| <= 1."""
    return max((lam, mu), key=lambda s: (s * math.log(a)).real)


def _delta_matrix(form: LogForm, a: float, mu: complex, per: complex = 0) -> np.ndarray:
    """The action of Delta_a(mu) / a^per; per = mu or lam keeps the diagonal
    exactly 0 at mu = lam without forming a^mu."""
    size = len(form.coeffs)
    return (dilation_coefficient_matrix(a, form._lam - per, size)
            - scale_power(a, mu - per) * np.eye(size, dtype=complex))


def dilate(form: LogForm, a: float) -> LogForm:
    """Pointwise substitution x -> a*x, computed on coefficients."""
    check_scale(a, "dilation scale")
    return _act(form, dilation_coefficient_matrix(a, form._lam, len(form.coeffs)))


def euler(form: LogForm) -> LogForm:
    """Coefficient action of E = sum_j x_j d/dx_j; (E - mu) is
    op_power("euler_minus_lambda", 1, form, lam=mu)."""
    return _act(form, _euler_matrix(len(form.coeffs), form._lam))


def delta(form: LogForm, a: float, mu: complex) -> LogForm:
    """Spectral difference Delta_a(mu) = U_a - a^mu I."""
    check_scale(a, "dilation scale")
    return _act(form, _delta_matrix(form, a, complex(mu)))


def op_power(kind: str, m: int, form: LogForm, *, a: float | None = None,
             lam: complex | None = None) -> LogForm:
    """m-fold composition of (E - lam) or Delta_a(lam), as one matrix power.

    `lam` defaults to the degree of `form`; at the form's own degree the
    Euler kind is the exact nilpotent shift g_i = ((i+m)!/i!) h_{i+m}.
    "scaled_delta_a" is Delta_a(lam) / a^s, s by `_scale_exponent`: its entries
    never carry a^lam, which could leave the float range or fall below the
    coefficient pruning threshold.
    """
    if m < 0:
        raise ValueError("power must be non-negative")
    if m == 0:
        return form
    target = form._lam if lam is None else complex(lam)
    if kind == "euler_minus_lambda":
        return _act(form, _euler_matrix(len(form.coeffs), form._lam - target), m)
    if kind in ("delta_a", "scaled_delta_a"):
        if a is None:
            raise ValueError(f"{kind} requires the scale a")
        check_scale(a, "dilation scale")
        per = 0 if kind == "delta_a" else _scale_exponent(a, form._lam, target)
        return _act(form, _delta_matrix(form, a, target, per), m)
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
        v, norm = random_direction(rng, n)
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
            "degree": self.degree,
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
                *, seed: int = 42) -> VerificationReport:
    """Check all four equivalent characterizations against asserted (lam, k).

    (i)   U_a F = a^lam sum_{r<=k} (log^r a / r!) (E-lam)^r F, pointwise, both
          sides over a^s and each difference over its terms' summed moduli;
    (ii)  (Delta_a(lam) / a^s)^(k+1) F = 0 on coefficients (scaled_delta_a);
    (iii) (E - lam)^(k+1) F = 0 on coefficients;
    (iv)  degree(F) = lam and order(F) = k.
    """
    if not 0 <= k <= MAX_MONOMIAL_DEGREE:  # the log-power bound of every form
        raise ValueError(f"order must be between 0 and {MAX_MONOMIAL_DEGREE}, got {k}")
    if form.is_zero:
        raise ZeroInputError("verification of the zero form")
    if not a_samples:
        raise ValueError("a_samples must be nonempty")
    for a in a_samples:
        check_scale(a, "a-sample")
    lam = complex(lam)
    points = random_points(np.random.default_rng(seed), form.n, 20)

    # rows are a-samples, columns points; lead a^(lam_F - s), w_r a^(lam - s) log^r(a) / r!
    log_a = np.log(np.asarray(a_samples, dtype=float))
    per = [_scale_exponent(a, form._lam, lam) for a in a_samples]
    lead = np.array([[scale_power(a, form._lam - s)] for a, s in zip(a_samples, per)])
    w = np.array([[scale_power(a, lam - s)] for a, s in zip(a_samples, per)])
    # U_a F / a^lam_F is F at log r + ln a; the last shift, 0, gives F's moduli at x
    lhs, moduli = eval_terms(form, points, np.append(log_a, 0.0))
    with np.errstate(all="ignore"):
        lhs, rhs = lead * lhs[:-1], w * eval_form(form, points)
        bound = np.abs(lead) * moduli[:-1] + np.abs(w) * moduli[-1]
        for r in range(1, k + 1):
            w = w * log_a[:, None] / r
            values, moduli = eval_terms(op_power("euler_minus_lambda", r, form, lam=lam), points)
            rhs, bound = rhs + w * values, bound + np.abs(w) * moduli
        diff = np.abs(lhs - rhs)
        residuals = np.divide(diff, bound, out=np.zeros_like(diff), where=diff != 0)
    # an overflow raises rather than leaving inf or NaN in the criterion
    check_finite(residuals, "definitional residual")
    definitional = float(residuals.max(initial=0.0))

    norm = form.coeff_norm()  # norms of halved coefficients: finite, ratios exact
    euler_nilpotency = op_power("euler_minus_lambda", k + 1, form, lam=lam).coeff_norm() / norm
    # the |a^s|^(k+1) that Delta_a(lam)^(k+1) carries is divided out
    dilation_nilpotency = max(op_power("scaled_delta_a", k + 1, form, a=a, lam=lam).coeff_norm()
                              for a in a_samples) / norm
    # a ratio overflows only where the operator's entries are near the float range
    check_finite(np.array([euler_nilpotency, dilation_nilpotency]), "nilpotency criteria")

    structural = abs(form.degree - lam) <= DEGREE_TOLERANCE and form.order == k
    return VerificationReport(
        degree=lam,
        order=k,
        definitional=definitional,
        dilation_nilpotency=dilation_nilpotency,
        euler_nilpotency=euler_nilpotency,
        structural=structural,
        a_samples=tuple(float(a) for a in a_samples),
    )
