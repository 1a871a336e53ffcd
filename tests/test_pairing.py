"""Quadrature pairings against independent integration oracles."""

import math

import numpy as np
import pytest

from qahd import pairing
from qahd.errors import (
    DimensionUnsupportedError,
    IntegrabilityError,
    NonPositiveScaleError,
    QuadratureLimitError,
)
from qahd.logform import AngularPart, LogForm
from qahd.pairing import QuadratureSpec, TestFunction, pair, verify_pairing_identity


def const_form(lam, coeffs, n):
    parts = [AngularPart(n, {(0,) * n: complex(c)}) if c else AngularPart(n)
             for c in coeffs]
    return LogForm.make(n, complex(lam), parts)


# 2 * integral_0^1 exp(-1/(1-u^2)) du, computed once by high-resolution
# Gauss-Legendre; the unit-width bump integral on the line
def _bump_line_integral():
    u, w = np.polynomial.legendre.leggauss(400)
    vals = np.exp(-1.0 / (1.0 - u ** 2))
    return float(np.sum(w * vals))


BUMP_1D = _bump_line_integral()


def test_bump_profile_and_support():
    phi = TestFunction(1, (5.0,), 1.0)
    assert phi((5.0,)) == pytest.approx(math.exp(-1.0))
    assert phi((6.0,)) == 0.0
    assert phi((6.5,)) == 0.0
    assert phi.support_radii() == (4.0, 6.0)
    assert not phi.contains_origin()
    assert TestFunction(2, (0.5, 0.0), 1.0).contains_origin()


def test_test_function_validation():
    with pytest.raises(NonPositiveScaleError):
        TestFunction(1, (0.0,), 0.0)
    with pytest.raises(ValueError):
        TestFunction(2, (1.0,), 1.0)


def test_scaled_bump():
    phi = TestFunction(1, (5.0,), 1.0)
    psi = phi.scaled(2.0)
    assert psi.center == (10.0,)
    assert psi.width == 2.0
    for x in (8.5, 10.0, 11.9):
        assert psi((x,)) == pytest.approx(phi((x / 2.0,)))


def test_pair_zero_form():
    phi = TestFunction(2, (3.0, 0.0), 1.0)
    assert pair(LogForm.zero(2), phi) == 0


def test_pair_constant_one_dimension_one():
    # integral of the bump over [4, 6] is the unit bump integral
    phi = TestFunction(1, (5.0,), 1.0)
    f = const_form(0, [1], 1)
    assert pair(f, phi) == pytest.approx(BUMP_1D, rel=1e-10)
    assert BUMP_1D == pytest.approx(0.443994, abs=1e-6)
    # width scales linearly
    assert pair(f, TestFunction(1, (5.0,), 0.5)) == pytest.approx(0.5 * BUMP_1D, rel=1e-10)


def test_pair_constant_origin_bump_dimension_two():
    phi = TestFunction(2, (0.0, 0.0), 1.0)
    f = const_form(0, [1], 2)
    # radial-symmetry oracle: 2 pi * integral_0^1 exp(-1/(1-r^2)) r dr
    u, w = np.polynomial.legendre.leggauss(400)
    r = 0.5 * (u + 1.0)
    oracle = 2 * math.pi * 0.5 * float(np.sum(w * np.exp(-1.0 / (1.0 - r ** 2)) * r))
    assert pair(f, phi) == pytest.approx(oracle, rel=1e-9)
    # tensor-grid Riemann oracle on [-1,1]^2
    g = np.linspace(-1, 1, 801)
    xx, yy = np.meshgrid(g, g)
    u2 = xx ** 2 + yy ** 2
    vals = np.where(u2 < 1.0, np.exp(-1.0 / np.where(u2 < 1.0, 1.0 - u2, 1.0)), 0.0)
    riemann = float(np.sum(vals)) * (g[1] - g[0]) ** 2
    assert pair(f, phi) == pytest.approx(riemann, abs=1e-6)


def test_pair_log_factor_against_grid_oracle():
    phi = TestFunction(2, (3.0, 0.0), 1.0)
    f = const_form(-1, [1, 1], 2)  # r^-1 (1 + log r)
    g = np.linspace(2.0, 4.0, 1201)
    h = np.linspace(-1.0, 1.0, 1201)
    xx, yy = np.meshgrid(g, h)
    r = np.hypot(xx, yy)
    u2 = (xx - 3.0) ** 2 + yy ** 2
    bump = np.where(u2 < 1.0, np.exp(-1.0 / np.where(u2 < 1.0, 1.0 - u2, 1.0)), 0.0)
    vals = (1.0 + np.log(r)) / r * bump
    oracle = float(np.sum(vals)) * (g[1] - g[0]) * (h[1] - h[0])
    # the bump spans a small arc, so the uniform circle rule needs extra
    # nodes to resolve it
    got = complex(pair(f, phi, QuadratureSpec(64, 512))).real
    assert got == pytest.approx(oracle, abs=5e-6)


def test_pair_dimension_three_spherical_oracle():
    phi = TestFunction(3, (0.0, 0.0, 0.0), 1.0)
    f = const_form(0, [1], 3)
    u, w = np.polynomial.legendre.leggauss(400)
    r = 0.5 * (u + 1.0)
    oracle = 4 * math.pi * 0.5 * float(np.sum(w * np.exp(-1.0 / (1.0 - r ** 2)) * r ** 2))
    assert pair(f, phi) == pytest.approx(oracle, rel=1e-9)


def test_pair_angular_atom_odd_symmetry():
    # x1/r integrates to zero against a centered radial bump
    phi = TestFunction(2, (0.0, 0.0), 1.0)
    f = LogForm.make(2, complex(0), [AngularPart(2, {(1, 0): complex(1)})])
    assert abs(pair(f, phi)) < 1e-12


def test_pair_refuses_non_integrable_degree():
    phi = TestFunction(2, (0.0, 0.0), 1.0)
    with pytest.raises(IntegrabilityError):
        pair(const_form(-2, [1], 2), phi)
    # same degree away from the origin is fine
    off = TestFunction(2, (3.0, 0.0), 1.0)
    assert pair(const_form(-2, [1], 2), off) != 0


def test_pair_rejects_high_dimension():
    phi = TestFunction.__new__(TestFunction)
    object.__setattr__(phi, "n", 4)
    object.__setattr__(phi, "center", (0.0, 0.0, 0.0, 5.0))
    object.__setattr__(phi, "width", 1.0)
    with pytest.raises(DimensionUnsupportedError):
        pair(const_form(0, [1], 4), phi)


def test_quadrature_limit_checked_before_allocation(monkeypatch):
    class Built(Exception):
        pass

    def built(*args):
        raise Built

    # past the limit nothing is built; up to it, the nodes are (and raise here)
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", built)
    monkeypatch.setattr(pairing, "_angular_rule", built)
    form = const_form(0, [1], 3)
    phi = TestFunction(3, (3.0, 0.0, 0.0), 1.0)
    for spec in (QuadratureSpec(1024, 1024), QuadratureSpec(513, 128),
                 QuadratureSpec(4, 4097)):
        with pytest.raises(QuadratureLimitError):
            pair(form, phi, spec)
    with pytest.raises(QuadratureLimitError):
        verify_pairing_identity(form, phi, 2.0, QuadratureSpec(1024, 1024))
    # 4x the largest grid of the benchmark (n = 3 at 128 nodes) is admitted
    for spec in (QuadratureSpec(128, 128), QuadratureSpec(512, 128)):
        with pytest.raises(Built):
            pair(form, phi, spec)
    line = TestFunction(1, (3.0,), 1.0)
    with pytest.raises(QuadratureLimitError):
        pair(const_form(0, [1], 1), line, QuadratureSpec(pairing.MAX_QUADRATURE_VALUES, 4))


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(2, 64)
    assert QuadratureSpec().doubled() == QuadratureSpec(128, 128)


def test_quadrature_convergence():
    # doubling the node counts must not move the value: n=1 has an exact
    # angular rule and an origin-avoiding bump keeps the radial integrand
    # smooth; centered bumps in n >= 2 make the angular integrand a trig
    # polynomial, so the uniform rules are exact, provided the radial
    # factor r^(lam+n-1) stays smooth at 0 (integer lam >= 0, no logs).
    # (An off-center bump in n >= 2 spans a short arc and needs more
    # angular nodes than the defaults; see the grid-oracle test above.)
    cases = [
        (const_form(0, [0, 1], 1), TestFunction(1, (5.0,), 1.0)),
        (const_form(-2.5, [1, 1], 1), TestFunction(1, (5.0,), 1.0)),
        (const_form(complex(-1, 2), [1, 0, 1], 1), TestFunction(1, (5.0,), 1.0)),
        (const_form(1, [1], 2), TestFunction(2, (0.0, 0.0), 1.0)),
        (const_form(2, [1], 3), TestFunction(3, (0.0, 0.0, 0.0), 1.0)),
    ]
    spec = QuadratureSpec()
    for f, phi in cases:
        v1 = pair(f, phi, spec)
        v2 = pair(f, phi, spec.doubled())
        assert abs(v1 - v2) <= 1e-8 * (1 + abs(v2))


def test_pair_linearity():
    phi = TestFunction(2, (3.0, 0.0), 1.0)
    f = const_form(1, [1, 2], 2)
    g = const_form(1, [0, 1, 1], 2)
    lhs = pair(f.scale(complex(2.5)).add(g.scale(complex(-1, 1))), phi)
    rhs = 2.5 * pair(f, phi) + complex(-1, 1) * pair(g, phi)
    assert abs(lhs - rhs) < 1e-12 * (1 + abs(rhs))


def test_identity_homogeneous_constant():
    phi = TestFunction(1, (5.0,), 1.0)
    rep = verify_pairing_identity(const_form(0, [1], 1), phi, 2.0)
    assert rep["verdict"]
    assert rep["residual"] < 1e-8
    # substitution oracle: <1, phi(x/2)> = 2 <1, phi>
    assert rep["lhs"]["re"] == pytest.approx(2 * BUMP_1D, rel=1e-9)


def test_identity_log_order_one():
    phi = TestFunction(1, (5.0,), 1.0)
    rep = verify_pairing_identity(const_form(0, [0, 1], 1), phi, math.e)
    assert rep["verdict"]
    assert rep["residual"] < 1e-7


def test_identity_dimension_two_mixed():
    phi = TestFunction(2, (3.0, 0.0), 1.0)
    rep = verify_pairing_identity(const_form(-1, [1, 1], 2), phi, 0.5)
    assert rep["verdict"]
    assert rep["residual"] < 1e-6
    assert rep["quadrature"] == {"Kr": 64, "Kw": 64}


def test_change_of_variables_consistency():
    from qahd.operators import dilate

    phi = TestFunction(2, (3.0, 0.0), 1.0)
    f = const_form(-1, [1, 1], 2)
    for a in (0.5, 2.0, math.e):
        direct = pair(f, phi.scaled(a))
        via_dilate = a ** 2 * pair(dilate(f, a), phi)
        assert abs(direct - via_dilate) <= 1e-9 * (1 + abs(direct))


def test_identity_rejects_bad_inputs():
    phi = TestFunction(1, (5.0,), 1.0)
    with pytest.raises(NonPositiveScaleError):
        verify_pairing_identity(const_form(0, [1], 1), phi, -1.0)
    with pytest.raises(ValueError):
        verify_pairing_identity(LogForm.zero(1), phi, 2.0)


def test_identity_scaled_support_integrability():
    # scaling by a > 1 pulls the support of phi(./a) toward covering the
    # origin only if the original support did; here it never does
    phi = TestFunction(2, (3.0, 0.0), 1.0)
    f = const_form(-3, [1], 2)
    rep = verify_pairing_identity(f, phi, 1.25)
    assert rep["verdict"]
    # but a bump over the origin refuses
    with pytest.raises(IntegrabilityError):
        verify_pairing_identity(f, TestFunction(2, (0.0, 0.0), 1.0), 2.0)
