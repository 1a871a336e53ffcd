"""Quadrature pairings against independent integration oracles.

`dense_pair` below is the full-grid pairing that the support-restricted
`pair` replaced (Cartesian bump on every (radius, direction) node, complex
grid, one einsum); it is kept, unchanged in its arithmetic, as the
definition the new code must reproduce within 1e-12 of the integral of
|F| phi.
"""

import cmath
import math

import numpy as np
import pytest

from qahd import pairing
from qahd.errors import (
    DimensionUnsupportedError,
    EvalOverflowError,
    IntegrabilityError,
    NonPositiveScaleError,
    QuadratureLimitError,
    ZeroInputError,
)
from qahd.logform import AngularPart, CoeffArray, LogForm, power_table
from qahd.operators import op_power
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


def bump_value(phi, x):
    """The bump's value at one point x."""
    return float(phi.values(np.asarray(x, dtype=float).reshape(phi.n, 1))[0])


def test_bump_profile_and_support():
    phi = TestFunction(1, (5.0,), 1.0)
    assert bump_value(phi, (5.0,)) == pytest.approx(math.exp(-1.0))
    assert bump_value(phi, (6.0,)) == 0.0
    assert bump_value(phi, (6.5,)) == 0.0
    assert phi.support_radii() == (4.0, 6.0)
    assert TestFunction(2, (0.5, 0.0), 1.0).support_radii()[0] == 0.0
    # u is formed before it is squared: no width^2 overflow, and a point far
    # outside a tiny bump is 0 without a warning
    assert bump_value(TestFunction(1, (1.0,), 1e300), (1.0,)) == pytest.approx(math.exp(-1.0))
    assert bump_value(TestFunction(2, (1.0, 0.0), 1e300), (1e300 / 2, 0.0)) > 0.0
    assert bump_value(TestFunction(1, (1.0,), 1e-300), (2.0,)) == 0.0
    assert bump_value(TestFunction(3, (0.0, 0.0, 0.0), 1e-300), (1.0, 1.0, 1.0)) == 0.0


def test_test_function_validation():
    for width in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(NonPositiveScaleError):
            TestFunction(1, (0.0,), width)
    with pytest.raises(ValueError):
        TestFunction(2, (1.0,), 1.0)
    # a NaN centre would fail every cone test and pair to 0
    for center in ((math.nan, 0.0), (math.inf, 0.0), (0.0, -math.inf)):
        with pytest.raises(ValueError):
            TestFunction(2, center, 1.0)
    for a in (0.0, math.nan, math.inf):
        with pytest.raises(NonPositiveScaleError):
            TestFunction(1, (5.0,), 1.0).scaled(a)
    with pytest.raises(EvalOverflowError):
        TestFunction(1, (5.0,), 1.0).scaled(1e308)


def test_scaled_bump():
    phi = TestFunction(1, (5.0,), 1.0)
    psi = phi.scaled(2.0)
    assert psi.center == (10.0,)
    assert psi.width == 2.0
    for x in (8.5, 10.0, 11.9):
        assert bump_value(psi, (x,)) == pytest.approx(bump_value(phi, (x / 2.0,)))


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
    monkeypatch.setattr(pairing, "_gauss", built)
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


def test_gauss_degree_limit_checked_before_leggauss(monkeypatch):
    def refuse(*args):
        raise AssertionError("leggauss called past the degree limit")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    form = const_form(0, [1], 1)
    line = TestFunction(1, (3.0,), 1.0)
    # grids within MAX_QUADRATURE_VALUES whose radial degree is past the bound
    for spec in (QuadratureSpec(pairing.MAX_GAUSS_NODES + 1, 4), QuadratureSpec(100000, 4)):
        with pytest.raises(QuadratureLimitError, match="Gauss-Legendre nodes exceed"):
            pair(form, line, spec)
        with pytest.raises(QuadratureLimitError, match="Gauss-Legendre nodes exceed"):
            verify_pairing_identity(form, line, 2.0, spec)
    # the grid limit comes first, with its own message
    with pytest.raises(QuadratureLimitError, match="quadrature grid of"):
        pair(const_form(0, [1], 3), TestFunction(3, (3.0, 0.0, 0.0), 1.0),
             QuadratureSpec(4097, 1024))


def test_rule_nodes_are_read_only_and_shared():
    for n in (1, 2, 3):
        nodes, weights, omega, w_a = QuadratureSpec(32, 16).rule(n)
        assert not nodes.flags.writeable and not weights.flags.writeable
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        with pytest.raises(ValueError):
            weights[0] = 0.0
        assert omega.shape == (len(w_a), n)
    # equal specs, and equal degrees in any spec, share one pair of arrays
    assert QuadratureSpec(32, 16).rule(2)[0] is QuadratureSpec(32, 64).rule(3)[0]
    assert pairing._gauss(32) is pairing._gauss(32)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(2, 64)
    s = QuadratureSpec()
    assert QuadratureSpec(2 * s.radial, 2 * s.angular) == QuadratureSpec(128, 128)


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
        v2 = pair(f, phi, QuadratureSpec(2 * spec.radial, 2 * spec.angular))
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
    assert rep["lhs"].real == pytest.approx(2 * BUMP_1D, rel=1e-9)


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


def test_identity_when_a_lam_is_below_the_pruning_threshold():
    """|a^lam| near 1e-12, from a large degree with a < 1 or a large negative
    degree with a > 1: a^lam is multiplied in after pairing, so Delta_a(lam) F
    keeps its coefficients and the right side its log-a term."""
    for lam, center, width, a in ((40, 5.0, 1.0, 0.5), (-40, 0.5, 0.2, 2.0)):
        form = const_form(lam, [0, 1], 1)  # r^lam log r
        rep = verify_pairing_identity(form, TestFunction(1, (center,), width), a)
        assert abs(a ** lam) < 1e-11
        assert rep["verdict"] and rep["residual"] < 1e-12, lam


def test_identity_rejects_bad_inputs():
    phi = TestFunction(1, (5.0,), 1.0)
    for a in (-1.0, math.nan, math.inf):
        with pytest.raises(NonPositiveScaleError):
            verify_pairing_identity(const_form(0, [1], 1), phi, a)
    with pytest.raises(ZeroInputError):
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


def test_pair_overflow_raises():
    # 1e300 r^300 on [4, 6]: every term is finite until the radial factor
    f = const_form(300, [1e300], 1)
    with pytest.raises(EvalOverflowError):
        pair(f, TestFunction(1, (5.0,), 1.0))
    with pytest.raises(EvalOverflowError):
        verify_pairing_identity(const_form(300, [1], 1), TestFunction(1, (5.0,), 1.0), 1e3)
    # |c| - w and |c| + w round to one float: not a silent 0
    with pytest.raises(EvalOverflowError, match=r"width 1\.0 .* 1e\+16"):
        pair(const_form(1, [1], 1), TestFunction(1, (1e16,), 1.0))


# --- reference: the dense full-grid pairing ---------------------------------

def dense_pair(form, phi, spec):
    """(value, integral of |F| phi) on the full (radius, direction) grid."""
    n = phi.n
    r_lo, r_hi = phi.support_radii()
    nodes, w_r = np.polynomial.legendre.leggauss(spec.radial)
    r = 0.5 * (r_hi - r_lo) * nodes + 0.5 * (r_hi + r_lo)
    w_r = 0.5 * (r_hi - r_lo) * w_r
    omega, w_a = spec.rule(n)[2:]  # (Kd, n), (Kd,)

    radial = np.exp((form.degree + (n - 1)) * np.log(r.astype(complex)))
    grid = power_table(np.log(r), len(form.coeffs)) @ form.arrays().angular(omega).T
    points = r[None, :, None] * omega.T[:, None, :]  # (n, Kr, Kd)
    c = np.asarray(phi.center).reshape(n, 1, 1)
    u2 = np.sum((points - c) ** 2, axis=0) / phi.width ** 2
    bump = np.zeros(u2.shape)
    inside = u2 < 1.0
    bump[inside] = np.exp(-1.0 / (1.0 - u2[inside]))
    integrand = grid * bump
    value = complex(np.einsum("i,j,ij->", w_r * radial, w_a, integrand))
    size = float(np.einsum("i,j,ij->", np.abs(w_r * radial), w_a, np.abs(integrand)))
    return value, size


def dense_identity(form, phi, a, spec):
    """(lhs, lhs size, rhs, rhs size) of the pairing identity, densely."""
    lhs, lhs_size = dense_pair(form, phi.scaled(a), spec)
    la = math.log(a)
    amp = cmath.exp(complex(form.degree + phi.n) * la)
    rhs, rhs_size = dense_pair(form, phi, spec)
    for r in range(1, form.order + 1):
        member = op_power("euler_minus_lambda", r, form).scale(1.0 / math.factorial(r))
        term, size = dense_pair(member, phi, spec)
        rhs += la ** r * term
        rhs_size += abs(la) ** r * size
    return lhs, lhs_size, amp * rhs, abs(amp) * rhs_size


def atom_form(rng, n, k, lam, atoms):
    """A form of order <= k whose h_0..h_k hold `atoms` random atoms."""
    parts = [{} for _ in range(k + 1)]
    for i in range(atoms):
        alpha = tuple(int(v) for v in rng.multinomial(int(rng.integers(0, 5)), [1.0 / n] * n))
        c = rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        parts[i % (k + 1)][alpha] = parts[i % (k + 1)].get(alpha, 0) + c
    return LogForm.make(n, lam, [AngularPart(n, coeffs) for coeffs in parts])


def bump_at(rng, n, ratio, width):
    """A bump of the given width whose centre lies ratio * width from 0."""
    v = rng.normal(size=n)
    return TestFunction(n, tuple(ratio * width * v / np.linalg.norm(v)), width)


def pairing_cases():
    """(form, bump, spec): away, around and |c| = w bumps, n 1..3, 16-128 nodes."""
    rng = np.random.default_rng(20261018)
    cases = []
    for n in (1, 2, 3):
        for i, nodes in enumerate((16, 32, 64, 128)):
            spec = QuadratureSpec(nodes, nodes)
            k = i % 3
            atoms = int(rng.integers(4, 41))
            width = rng.uniform(0.5, 2.0)
            for ratio in (1.05, 1.6, 4.0, 20.0):
                lam = complex(rng.uniform(-3, 2), rng.uniform(-1, 1))
                cases.append((atom_form(rng, n, k, lam, atoms), bump_at(rng, n, ratio, width), spec))
            for ratio in (0.0, 0.5, 0.9):
                lam = complex(rng.uniform(1.3 - n, 2), rng.uniform(-1, 1))
                cases.append((atom_form(rng, n, k, lam, atoms), bump_at(rng, n, ratio, width), spec))
    # |c| = w exactly: the origin on the boundary of the support
    for center, width in (((1.5,), 1.5), ((3.0, 4.0), 5.0), ((2.0, 3.0, 6.0), 7.0)):
        n = len(center)
        phi = TestFunction(n, center, width)
        assert phi.support_radii()[0] == 0.0 and math.sqrt(sum(v * v for v in center)) == width
        cases.append((atom_form(rng, n, 2, complex(0.5, 0.3), 12), phi, QuadratureSpec(32, 32)))
    # a cone narrower than the direction spacing and between two directions
    angle = math.pi / 16
    phi = TestFunction(2, (20.0 * math.cos(angle), 20.0 * math.sin(angle)), 1.0)
    cases.append((atom_form(rng, 2, 1, complex(-1, 0), 10), phi, QuadratureSpec(16, 16)))
    return cases


def test_pair_matches_dense_reference():
    for form, phi, spec in pairing_cases():
        got = pair(form, phi, spec)
        want, size = dense_pair(form, phi, spec)
        assert abs(got - want) <= 1e-12 * size, (form.n, phi, spec)
    # the narrow cone meets no direction: both give exactly 0
    assert size == 0.0 and got == 0


def test_identity_matches_dense_reference():
    for form, phi, spec in pairing_cases()[::3]:
        a = 0.7 if phi.support_radii()[0] == 0.0 else 1.9
        rep = verify_pairing_identity(form, phi, a, spec)
        lhs, lhs_size, rhs, rhs_size = dense_identity(form, phi, a, spec)
        assert abs(rep["lhs"] - lhs) <= 1e-12 * lhs_size
        assert abs(rep["rhs"] - rhs) <= 1e-12 * rhs_size
        residual = abs(lhs - rhs) / (1.0 + abs(lhs))
        assert rep["verdict"] == bool(residual < pairing.DEFAULT_PAIR_TOLERANCE)


def test_pair_evaluates_only_directions_meeting_the_support(monkeypatch):
    seen = []
    angular = CoeffArray.angular

    def spy(self, omega):
        seen.append(np.array(omega))
        return angular(self, omega)

    monkeypatch.setattr(CoeffArray, "angular", spy)
    phi = TestFunction(3, (3.0, 0.0, 0.0), 1.0)
    spec = QuadratureSpec(128, 128)
    pair(const_form(0, [1, 1], 3), phi, spec)
    omega, _ = spec.rule(3)[2:]
    # the ray {t omega : t >= 0} meets the open ball iff omega points toward
    # the centre and its line passes closer to it than the width
    c = np.array(phi.center)
    meets = (omega @ c > 0) & (np.sum(np.cross(omega, c) ** 2, axis=1) < phi.width ** 2)
    (got,) = seen
    assert len(omega) == 8192
    assert np.array_equal(got, omega[meets])
    assert 0 < len(got) < 0.15 * len(omega)


def test_identity_builds_one_rule(monkeypatch):
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counted(deg):
        calls.append(deg)
        return leggauss(deg)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    pairing._gauss.cache_clear()
    form = const_form(0, [1, 1, 1], 3)  # k = 2: three pairings
    phi = TestFunction(3, (3.0, 0.0, 0.0), 1.0)
    assert verify_pairing_identity(form, phi, 2.0)["verdict"]
    assert sorted(calls) == [32, 64]  # polar and radial, once each
    # the nodes are kept per degree for the process, not per spec: two more
    # checks compute only degree 16, which radial and polar share
    spec = QuadratureSpec(16, 32)
    for a in (0.5, 2.0):
        verify_pairing_identity(form, phi, a, spec)
    assert sorted(calls[2:]) == [16]


def test_identity_pairs_delta_a_with_at_most_three_quadratures(monkeypatch):
    """The right side is a^n (a^lam <F, phi> + <Delta_a(lam) F, phi>): at most
    three quadratures at any order, two at k = 0, where Delta_a(lam) F is the
    zero form.  It equals the chain-member sum
    a^(lam+n) sum_r (log a)^r / r! <(E - lam)^r F, phi> of the same rule."""
    calls = []
    bump = pairing._bump

    def counted(u2):
        calls.append(u2.shape)
        return bump(u2)

    monkeypatch.setattr(pairing, "_bump", counted)
    rng = np.random.default_rng(20261019)
    spec = QuadratureSpec(32, 32)
    for n in (1, 2, 3):
        for k in range(5):
            form = atom_form(rng, n, k, complex(rng.uniform(-0.5, 1.5), rng.uniform(-1, 1)), 12)
            assert form.order == k
            phi = bump_at(rng, n, 2.5, 1.0)
            a = float(rng.uniform(0.4, 3.0))
            calls.clear()
            rep = verify_pairing_identity(form, phi, a, spec)
            assert len(calls) == (2 if k == 0 else 3), (n, k)
            la = math.log(a)
            terms = [la ** r / math.factorial(r)
                     * pair(op_power("euler_minus_lambda", r, form), phi, spec)
                     for r in range(k + 1)]
            amp = cmath.exp((form.degree + n) * la)
            oracle = amp * sum(terms)
            size = abs(amp) * sum(abs(t) for t in terms)
            assert abs(rep["rhs"] - oracle) <= 1e-12 * size, (n, k)
