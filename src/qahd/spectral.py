"""Finite truncations of the shift operator T and the dilation matrix R_a.

R_a is the upper-triangular Toeplitz matrix a^lam (1 - (log a) T)^(-1) with
entries a^lam (log a)^(j-i); T is the superdiagonal shift with T^N = 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import EvalOverflowError, check_finite, check_scale
from .logform import MAX_MONOMIAL_DEGREE


def scale_power(a: float, lam: complex) -> complex:
    """a^lam via exp(lam ln a); single valued for a > 0."""
    exponent = lam * math.log(a)
    try:
        value = cmath.exp(exponent)
    except (OverflowError, ValueError):  # ValueError: an infinite exponent
        value = complex(math.inf)  # reported below
    check_finite(value, "{}^{}", a, lam)
    return value


def shift_matrix(size: int) -> np.ndarray:
    """Superdiagonal nilpotent shift; (T f)_k picks component k+1."""
    t = np.zeros((size, size), dtype=complex)
    for i in range(size - 1):
        t[i, i + 1] = 1.0
    return t


@dataclass(frozen=True)
class DilationMatrix:
    size: int
    a: float
    lam: complex
    entries: np.ndarray

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "a": self.a,
            "lambda": self.lam,
            "entries": self.entries.ravel().tolist(),
        }


def build_R(a: float, lam: complex, size: int) -> DilationMatrix:
    """Toeplitz truncation: M[i][j] = a^lam (log a)^(j-i) for j >= i."""
    check_scale(a, "scale")
    if not 1 <= size <= MAX_MONOMIAL_DEGREE + 1:
        # the largest coefficient matrix an operator builds; refused before allocating
        raise ValueError(f"size must be between 1 and {MAX_MONOMIAL_DEGREE + 1}, got {size}")
    lam = complex(lam)
    amp = scale_power(a, lam)
    la = math.log(a)
    m = np.zeros((size, size), dtype=complex)
    try:
        for i in range(size):
            for j in range(i, size):
                m[i, j] = amp * la ** (j - i)
    except OverflowError:
        m[0, 0] = math.inf  # (log a)^(j-i) left the range: reported below
    check_finite(m, "dilation matrix of size {} at a={}", size, a)
    return DilationMatrix(size, float(a), lam, m)


def check_group_law(a: float, b: float, lam: complex, size: int) -> float:
    """Max-norm of R_a R_b - R_ab on the common truncation."""
    ra = build_R(a, lam, size).entries
    rb = build_R(b, lam, size).entries
    rab = build_R(a * b, lam, size).entries
    return float(np.max(np.abs(ra @ rb - rab)))


def nilpotent_action(size: int, a: float, lam: complex, k: int) -> float:
    """|k-th component of (R_a - a^lam I)^(k+1) e_k|; zero by band structure."""
    if k < 0 or k >= size:
        raise IndexError(f"k={k} out of range for size {size}")
    lam = complex(lam)
    r = build_R(a, lam, size).entries
    amp = scale_power(a, lam)
    d = r - amp * np.eye(size, dtype=complex)
    m = np.linalg.matrix_power(d, k + 1)
    v = np.zeros(size, dtype=complex)
    v[k] = 1.0
    return float(abs((m @ v)[k]))


def geometric_factor(a: float, lam: complex, size: int) -> np.ndarray:
    """The truncated series sum_s (log a)^s T^s (no a^lam prefactor)."""
    check_scale(a, "scale")
    la = math.log(a)
    t = shift_matrix(size)
    out = np.zeros((size, size), dtype=complex)
    power = np.eye(size, dtype=complex)
    for s in range(size):
        out += la ** s * power
        power = power @ t
    return out


def dilation_coefficient_matrix(a: float, lam: complex, size: int) -> np.ndarray:
    """Matrix of the dilate action in the log-power coefficient basis.

    g = B h with B[i][j] = a^lam C(j,i) (log a)^(j-i); this is the genuine
    one-parameter group a^lam exp((log a) T) conjugated by diag(j!).
    """
    check_scale(a, "scale")
    amp = scale_power(a, complex(lam))
    la = math.log(a)
    b = np.zeros((size, size), dtype=complex)
    try:
        for i in range(size):
            for j in range(i, size):
                b[i, j] = amp * math.comb(j, i) * la ** (j - i)
    except OverflowError:
        raise EvalOverflowError(
            f"dilation matrix of size {size} at a={a} overflowed the floating-point range"
        ) from None
    return b
