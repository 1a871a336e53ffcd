"""Shift and dilation matrices: structure, nilpotency, and composition.

The Toeplitz matrix R_a has entries a^lam (log a)^(j-i).  Entrywise,
(R_a R_b)[i][j] sums (log a)^s (log b)^(j-i-s) over s, which is not
(log a + log b)^(j-i) once j - i >= 2 — the binomial coefficients are
missing.  So R_a R_b != R_ab for any truncation size >= 3; the stated
composition contract only holds for sizes 1 and 2 or when one factor is
the identity.  The matrix that does compose is the binomial variant
B[i][j] = a^lam C(j,i) (log a)^(j-i), which is also the genuine action of
dilation on log-power coefficients.  The literal contracts are kept below
as strict expected failures.
"""

import cmath
import json
import math

import numpy as np
import pytest

from qahd import _json
from qahd.errors import NonPositiveScaleError
from qahd.logform import LogForm
from qahd.operators import dilate
from qahd.spectral import build_R, dilation_coefficient_matrix

from conftest import check_group_law, random_form


def test_build_R_unit_log():
    m = build_R(math.e, complex(0), 3)
    assert np.allclose(m.entries, [[1, 1, 1], [0, 1, 1], [0, 0, 1]], atol=1e-15)


def test_build_R_scale_one_is_identity():
    m = build_R(1.0, complex(-2 + 3j), 5)
    assert np.allclose(m.entries, np.eye(5), atol=0)


def test_build_R_two_by_two():
    m = build_R(2.0, complex(1), 2).entries
    assert np.allclose(m, [[2, 2 * math.log(2)], [0, 2]], atol=1e-15)
    # cross-check: inverse of (1 - ln2 T) / 2
    t = np.eye(2, k=1)  # the shift T
    inv = np.linalg.inv((np.eye(2) - math.log(2) * t) / 2)
    assert np.max(np.abs(m - inv)) < 1e-14


def test_build_R_matches_truncated_geometric_series():
    for a, lam, size in [(0.5, complex(2), 4), (math.pi, complex(-1, 2), 6)]:
        m = build_R(a, lam, size).entries
        amp = cmath.exp(lam * math.log(a))
        t = np.eye(size, k=1)
        series = amp * sum(math.log(a) ** s * np.linalg.matrix_power(t, s) for s in range(size))
        assert np.max(np.abs(m - series)) < 1e-12 * np.max(np.abs(m))


def test_build_R_rejects_bad_arguments():
    with pytest.raises(NonPositiveScaleError):
        build_R(0.0, complex(0), 3)
    with pytest.raises(ValueError):
        build_R(2.0, complex(0), 0)
    with pytest.raises(ValueError):
        build_R(2.0, complex(0), 202)


def test_group_law_identity_factor():
    assert check_group_law(1.0, 7.0, complex(3), 5) == 0.0


def test_group_law_small_sizes():
    # sizes 1 and 2 have no entries with j - i >= 2, so composition holds
    for size in (1, 2):
        assert check_group_law(math.e, math.e, complex(0), size) < 1e-14
        assert check_group_law(2.0, 0.5, complex(1), size) < 1e-14


@pytest.mark.xfail(
    strict=True,
    reason="R_a R_b != R_ab for size >= 3: the Toeplitz entries lack the "
    "binomial coefficients needed for (log a + log b)^(j-i); residual is "
    "exactly 1 here",
)
def test_group_law_e_times_e_size_three():
    assert check_group_law(math.e, math.e, complex(0), 3) < 1e-14


@pytest.mark.xfail(
    strict=True,
    reason="same composition defect: R_2 R_{1/2} != I in sizes >= 3",
)
def test_group_law_inverse_pair_size_four():
    assert check_group_law(2.0, 0.5, complex(1), 4) < 1e-14


def test_group_law_defect_value_is_structural():
    # entry (0,2) of R_e R_e is 1 + 1 + 1 = 3 while R_{e^2} has 2^2 = 4
    assert check_group_law(math.e, math.e, complex(0), 3) == pytest.approx(1.0)
    prod = build_R(math.e, complex(0), 3).entries @ build_R(math.e, complex(0), 3).entries
    assert prod[0, 2] == pytest.approx(3.0)
    assert build_R(math.e ** 2, complex(0), 3).entries[0, 2] == pytest.approx(4.0)


def test_binomial_matrix_satisfies_group_law():
    rng = np.random.default_rng(73)
    for _ in range(20):
        a = float(rng.uniform(0.2, 5.0))
        b = float(rng.uniform(0.2, 5.0))
        lam = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        size = int(rng.integers(1, 8))
        ba = dilation_coefficient_matrix(a, lam, size)
        bb = dilation_coefficient_matrix(b, lam, size)
        bab = dilation_coefficient_matrix(a * b, lam, size)
        scale = max(1.0, float(np.max(np.abs(bab))))
        assert np.max(np.abs(ba @ bb - bab)) < 1e-12 * scale


def test_band_structure_of_difference_powers():
    # (R_a - a^lam I)^(k+1) vanishes on all columns with index <= k
    for a, lam, size in [(2.0, complex(1), 6), (0.5, complex(-1, 1), 5)]:
        r = build_R(a, lam, size).entries
        amp = cmath.exp(lam * math.log(a))
        d = r - amp * np.eye(size)
        for k in range(size - 1):
            m = np.linalg.matrix_power(d, k + 1)
            assert np.max(np.abs(m[:, : k + 1])) == 0.0


def test_difference_factors_commute():
    # R_a - a^lam I = a^lam log a T G_a with T and G_a commuting
    for a, lam, size in [(2.0, complex(1), 5), (math.pi, complex(0, 1), 6)]:
        r = build_R(a, lam, size).entries
        amp = cmath.exp(lam * math.log(a))
        la = math.log(a)
        t = np.eye(size, k=1)
        g = sum(la ** s * np.linalg.matrix_power(t, s) for s in range(size))
        lhs = amp * la * (t @ g)
        rhs = amp * la * (g @ t)
        d = r - amp * np.eye(size)
        # T G and G T agree except where truncation clips the last column
        assert np.max(np.abs(lhs - d)) < 1e-13 * max(1.0, np.max(np.abs(d)))
        assert np.max(np.abs((t @ g - g @ t))[:, :-1]) < 1e-13


@pytest.mark.xfail(
    strict=True,
    reason="dilation acts on log-power coefficients by the binomial matrix, "
    "not by the transpose of the Toeplitz R_a; see module docstring",
)
def test_dilate_is_transpose_toeplitz_action():
    f = random_form(np.random.default_rng(79), n=2, k=3)
    a = 2.0
    g = dilate(f, a)
    r = build_R(a, f.degree, 4).entries
    for i in range(4):
        want = sum(r.T[i, j] * f.coeffs[j].atoms.get((0, 0), 0) for j in range(4))
        got = g.coeffs[i].atoms.get((0, 0), 0) if i < len(g.coeffs) else 0
        assert abs(got - want) < 1e-12


def test_dilate_matches_binomial_matrix_action():
    rng = np.random.default_rng(83)
    for trial in range(20):
        k = trial % 4
        f = random_form(rng, n=2, k=k)
        a = float(rng.uniform(0.3, 3.0))
        b = dilation_coefficient_matrix(a, f.degree, k + 1)
        g = dilate(f, a)
        for i in range(k + 1):
            want = None
            for j in range(i, k + 1):
                term = f.coeffs[j].scale(b[i, j])
                want = term if want is None else want.add(term)
            got = g.coeffs[i] if i < len(g.coeffs) else want.scale(0)
            # max_abs is half the largest modulus
            assert 2 * got.add(want.scale(-1)).max_abs() < 1e-12 * (1 + 2 * want.max_abs())


def test_matrix_json_shape():
    d = json.loads(_json.dumps(build_R(2.0, complex(1, -1), 2).to_dict()))
    assert d["size"] == 2
    assert d["a"] == 2.0
    assert d["lambda"] == {"re": 1.0, "im": -1.0}
    assert len(d["entries"]) == 4
    assert d["entries"][2] == {"re": 0.0, "im": 0.0}
