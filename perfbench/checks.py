"""Independent checks of every CLI output.

Nothing here calls the program: expected values come from the generator's
own description of each input (`corpus.Term`), evaluated with numpy, from
derivatives taken by sympy, and from quadrature rules that share no code or
geometry with `qahd.pairing`.  Operator outputs are compared at seeded
points with a tolerance relative to the sum of the absolute values of the
terms, because the expanded outputs cancel at some points.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from typing import List, Sequence, Tuple

import numpy as np
import sympy

from corpus import Op, Term

# Operator outputs: coefficients come from exact binomial/shift rules applied
# to float coefficients, so the error is a few ulps of the term magnitudes;
# 1e-9 of the absolute term sum leaves room for 10^4 terms of rounding.
OPERATOR_RTOL = 1e-9
# Degrees are sums of at most a few parsed literals.
DEGREE_ATOL = 1e-9
# Prony recovery of a (k+1)-fold root from 16 samples: measured errors reach
# 1e-6 at k = 4 with multi-probe and 3e-9 on the well-conditioned --x0 rays.
IDENTIFY_RTOL = 1e-4
# Pairing values against the reference, relative to the integral of |F| phi,
# per dimension.  The largest errors over 50 seeds (130 rounds) were 1.1e-10
# (n = 1), 5.8e-5 (n = 2, where the uniform angular rule of qahd.pairing is
# slowest) and 7.9e-6 (n = 3); each tolerance leaves a margin of 12 or more.
PAIR_RTOL = {1: 1e-8, 2: 1e-3, 3: 1e-4}


# ---------------------------------------------------------------------------
# Evaluating the generator's terms.


def _polar(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    r = np.sqrt(np.sum(x * x, axis=1))
    return r, np.log(r)


def term_values(t: Term, x: np.ndarray, polar=None) -> Tuple[np.ndarray, np.ndarray]:
    """Value and magnitude (sum of the expanded terms' absolute values) of
    one term at points x of shape (N, n); `polar` is (r, log r) if known."""
    r, lr = polar or _polar(x)
    val = np.full(r.shape, complex(t.c))
    mag = np.full(r.shape, abs(t.c))
    for i, a in enumerate(t.alpha):
        if a:
            val = val * x[:, i] ** a
            mag = mag * np.abs(x[:, i]) ** a
    if t.mu:
        val = val * np.exp(t.mu * lr)
        mag = mag * np.exp(t.mu.real * lr)
    if t.j:
        val = val * lr ** t.j
        mag = mag * np.abs(lr) ** t.j
    # the magnitude of a power of a sum is that of its expanded terms, which
    # stays clear of zero where the sum itself cancels
    if t.p:
        val = val * (x @ np.asarray(t.s) + r) ** t.p
        mag = mag * (np.abs(x) @ np.abs(np.asarray(t.s)) + r) ** t.p
    if t.k:
        val = val * (1.0 + lr) ** t.k
        mag = mag * (1.0 + np.abs(lr)) ** t.k
    return val, mag


def terms_values(terms: Sequence[Term], x: np.ndarray):
    polar = _polar(x)
    val = np.zeros(len(x), dtype=complex)
    mag = np.zeros(len(x))
    for t in terms:
        v, m = term_values(t, x, polar)
        val += v
        mag += m
    return val, mag


def components(terms: Sequence[Term]) -> List[Tuple[complex, int, List[Term]]]:
    """(degree, order, terms) per degree, sorted as the CLI sorts them."""
    groups: List[Tuple[complex, List[Term]]] = []
    for t in terms:
        for lam, members in groups:
            if abs(lam - t.degree) <= DEGREE_ATOL:
                members.append(t)
                break
        else:
            groups.append((t.degree, [t]))
    out = [(lam, max(t.order for t in ts), ts) for lam, ts in groups]
    out.sort(key=lambda item: (item[0].real, item[0].imag))
    return out


def sample_points(key: str, n: int, count: int = 6) -> np.ndarray:
    """Seeded points with radius in [0.5, 2] in uniformly random directions."""
    rng = np.random.default_rng(list(key.encode()))
    v = rng.normal(size=(count, n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * rng.uniform(0.5, 2.0, size=(count, 1))


# ---------------------------------------------------------------------------
# Evaluating the program's output forms with our own evaluator.


def form_values(form: dict, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Value and absolute term sum of one output LogForm dict at points x."""
    if form.get("zero"):
        return np.zeros(len(x), dtype=complex), np.zeros(len(x))
    lam = complex(form["degree"]["re"], form["degree"]["im"])
    r = np.sqrt(np.sum(x * x, axis=1))
    lr = np.log(r)
    omega = x / r[:, None]
    val = np.zeros(len(x), dtype=complex)
    mag = np.zeros(len(x))
    for j, entries in enumerate(form["coeffs"]):
        if not entries:
            continue
        alpha = np.array([e["alpha"] for e in entries], dtype=float)  # (m, n)
        coef = np.array([complex(e["re"], e["im"]) for e in entries])
        atoms = np.prod(omega[:, None, :] ** alpha[None, :, :], axis=2)  # (N, m)
        val += (atoms @ coef) * lr ** j
        mag += (np.abs(atoms) @ np.abs(coef)) * np.abs(lr) ** j
    scale = np.exp(lam * lr)
    return val * scale, mag * np.abs(scale)


def forms_values(forms: Sequence[dict], x: np.ndarray):
    val = np.zeros(len(x), dtype=complex)
    mag = np.zeros(len(x))
    for f in forms:
        v, m = form_values(f, x)
        val += v
        mag += m
    return val, mag


def _close(got, got_mag, exp, exp_mag, rtol=OPERATOR_RTOL) -> bool:
    return bool(np.all(np.abs(got - exp) <= rtol * (got_mag + exp_mag)))


# ---------------------------------------------------------------------------
# Euler operator by sympy differentiation.


@functools.lru_cache(maxsize=None)
def _euler_power_fn(n: int, p: int, k: int, m: int, shift: bool):
    """Numeric (E - lam)^m (or E^m if not shift) of (s.x + r)^p (1+log r)^k r^mu.

    E = sum_j x_j d/dx_j is applied m times by sympy; lam is a free symbol.
    """
    xs = sympy.symbols(f"x1:{n + 1}")
    # no real=True: sympy would turn sqrt(x1**2) into Abs(x1) at n=1
    ss = sympy.symbols(f"s1:{n + 1}", real=True)
    mu, lam = sympy.symbols("mu lam")
    r = sympy.sqrt(sum(v ** 2 for v in xs))
    g = (sum(si * xi for si, xi in zip(ss, xs)) + r) ** p * (1 + sympy.log(r)) ** k * r ** mu
    for _ in range(m):
        eg = sum(xi * sympy.diff(g, xi) for xi in xs)
        g = eg - lam * g if shift else eg
    return sympy.lambdify((xs, ss, mu, lam), g, modules="numpy", cse=True)


def euler_power_values(t: Term, x: np.ndarray, m: int, lam: complex | None):
    """(E - lam)^m t at x, or E^m t when lam is None."""
    if t.alpha != (0,) * t.n or t.j:
        raise ValueError("symbolic terms are products of sums, logs and r^mu")
    fn = _euler_power_fn(t.n, t.p, t.k, m, lam is not None)
    cols = [x[:, i] for i in range(t.n)]
    out = fn(cols, list(t.s or (0.0,) * t.n), complex(t.mu), complex(lam or 0))
    return complex(t.c) * np.broadcast_to(np.asarray(out, dtype=complex), (len(x),))


# ---------------------------------------------------------------------------
# Per-verb checks.  Each returns (ok, detail).


def check_classify(op: Op, code: int, stdout: str):
    if code != 0:
        return False, f"exit {code}"
    got = json.loads(stdout)
    want = components(op.terms)
    if len(got) != len(want):
        return False, f"{len(got)} components, expected {len(want)}"
    for g, (lam, k, _) in zip(got, want):
        glam = complex(g["degree"]["re"], g["degree"]["im"])
        if abs(glam - lam) > DEGREE_ATOL * (1 + abs(lam)) or g["order"] != k:
            return False, f"got ({glam}, {g['order']}), expected ({lam}, {k})"
    return True, ""


def expected_apply(op: Op, x: np.ndarray):
    """Expected value and magnitude of the apply output at points x."""
    kind = op.op[0]
    if kind == "dilate":
        return terms_values(op.terms, op.op[1] * x)
    if kind == "euler":
        val = sum(euler_power_values(t, x, 1, None) for t in op.terms)
        _, mag = terms_values(op.terms, x)
        return val, np.abs(val) + mag
    if kind == "delta":
        _, a, mu = op.op
        v1, m1 = terms_values(op.terms, a * x)
        v0, m0 = terms_values(op.terms, x)
        amp = cmath.exp(mu * math.log(a))
        return v1 - amp * v0, m1 + abs(amp) * m0
    _, which, m = op.op[:3]
    val = np.zeros(len(x), dtype=complex)
    mag = np.zeros(len(x))
    for lam, _, ts in components(op.terms):
        if which == "euler_minus_lambda":
            v = sum(euler_power_values(t, x, m, lam) for t in ts)
            _, base = terms_values(ts, x)
            val += v
            mag += np.abs(v) + base * (1 + abs(lam)) ** m
        else:
            a = op.op[3]
            amp = cmath.exp(lam * math.log(a))
            for i in range(m + 1):
                w = math.comb(m, i) * (-amp) ** (m - i)
                v, mg = terms_values(ts, a ** i * x)
                val += w * v
                mag += abs(w) * mg
    return val, mag


def check_apply(op: Op, code: int, stdout: str):
    if code != 0:
        return False, f"exit {code}"
    x = sample_points(" ".join(op.argv), op.n)
    got, got_mag = forms_values(json.loads(stdout), x)
    exp, exp_mag = expected_apply(op, x)
    if not _close(got, got_mag, exp, exp_mag):
        err = np.max(np.abs(got - exp) / (got_mag + exp_mag))
        return False, f"{op.op[0]} output off by {err:.3g} of the term sum"
    return True, ""


CHAIN_SCALES = (0.45, 0.8, 1.3, 1.9, 2.6, 3.4, 4.1)


def check_chain(op: Op, code: int, stdout: str):
    """F(a x) = a^lam sum_s (log a)^s / s! f_s(x), f_s = (E - lam)^s F."""
    if code != 0:
        return False, f"exit {code}"
    got = json.loads(stdout)
    want = components(op.terms)
    if len(got) != len(want):
        return False, f"{len(got)} components, expected {len(want)}"
    x = sample_points(" ".join(op.argv), op.n)
    for g, (lam, k, ts) in zip(got, want):
        glam = complex(g["degree"]["re"], g["degree"]["im"])
        if abs(glam - lam) > DEGREE_ATOL * (1 + abs(lam)) or g["order"] != k:
            return False, f"component ({glam}, {g['order']}), expected ({lam}, {k})"
        if len(g["members"]) != k + 1:
            return False, f"{len(g['members'])} members for order {k}"
        members = [form_values(f, x) for f in g["members"]]
        for a in CHAIN_SCALES[: k + 2]:
            exp, exp_mag = terms_values(ts, a * x)
            amp = cmath.exp(lam * math.log(a))
            la = math.log(a)
            rhs = np.zeros(len(x), dtype=complex)
            rhs_mag = np.zeros(len(x))
            for s, (v, mg) in enumerate(members):
                w = la ** s / math.factorial(s)
                rhs += w * v
                rhs_mag += abs(w) * mg
            if not _close(amp * rhs, abs(amp) * rhs_mag, exp, exp_mag):
                return False, f"chain identity fails at a={a}"
    return True, ""


def check_verify(op: Op, code: int, stdout: str):
    if code != op.expect_code:
        return False, f"exit {code}, expected {op.expect_code}"
    report = json.loads(stdout)
    if report["verdict"] != (op.expect_code == 0):
        return False, f"verdict {report['verdict']}"
    got_lam = complex(report["degree"]["re"], report["degree"]["im"])
    if abs(got_lam - op.lam) > DEGREE_ATOL or report["order"] != op.order:
        return False, "report echoes a different assertion"
    return True, ""


def check_identify(op: Op, code: int, stdout: str):
    if code != 0:
        return False, f"exit {code}"
    report = json.loads(stdout)
    lam = complex(report["lambda"]["re"], report["lambda"]["im"])
    if report["k"] != op.order:
        return False, f"k={report['k']}, expected {op.order}"
    if abs(lam - op.lam) > IDENTIFY_RTOL * (1 + abs(op.lam)):
        return False, f"lambda={lam}, expected {op.lam}"
    return True, ""


# ---------------------------------------------------------------------------
# Reference quadrature for <F, phi>.


def bump_profile(u: np.ndarray) -> np.ndarray:
    """exp(-1/(1-u^2)) on |u| < 1, zero outside."""
    out = np.zeros(u.shape)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


@functools.lru_cache(maxsize=None)
def gauss01(k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1]."""
    t, w = np.polynomial.legendre.leggauss(k)
    return 0.5 * (t + 1.0), 0.5 * w


@functools.lru_cache(maxsize=None)
def sphere_rule(n: int, m: int) -> Tuple[np.ndarray, np.ndarray]:
    """Directions (K, n) and weights (K,) integrating over S^(n-1)."""
    if n == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    theta = 2.0 * math.pi * (np.arange(m) + 0.5) / m
    if n == 2:
        return np.stack([np.cos(theta), np.sin(theta)], axis=1), np.full(m, 2 * math.pi / m)
    z, wz = gauss01(m // 2)
    z, wz = 2.0 * z - 1.0, 2.0 * wz
    s = np.sqrt(1.0 - z ** 2)
    dirs = np.stack([np.outer(s, np.cos(theta)).ravel(),
                     np.outer(s, np.sin(theta)).ravel(),
                     np.repeat(z, m)], axis=1)
    return dirs, np.outer(wz, np.full(m, 2 * math.pi / m)).ravel()


def _integrate(terms, n, center, width, radial: int, angular: int):
    """(integral of F phi, integral of |F| phi) at the given resolution.

    A bump clear of the origin is integrated in polar coordinates about its
    own center, where F is analytic on the whole ball.  A bump around the
    origin is integrated in polar coordinates about the origin after the
    substitution r = R t^4, which smooths the r^(lam+n-1) endpoint factor.
    """
    c = np.asarray(center, dtype=float)
    dist = float(np.linalg.norm(c))
    dirs, w_dir = sphere_rule(n, angular)
    t, w_t = gauss01(radial)
    if dist > width:
        rho = width * t
        w_rho = width * w_t * rho ** (n - 1) * bump_profile(t)
        pts = c[None, None, :] + rho[:, None, None] * dirs[None, :, :]
        weights = np.outer(w_rho, w_dir)
    else:
        big_r = dist + width
        r = big_r * t ** 4
        w_r = 4.0 * big_r * t ** 3 * w_t * r ** (n - 1)
        pts = r[:, None, None] * dirs[None, :, :]
        u = np.linalg.norm(pts - c, axis=2) / width
        weights = w_r[:, None] * w_dir[None, :] * bump_profile(u)
    keep = weights != 0.0
    val, mag = terms_values(terms, pts[keep])
    return complex(np.sum(weights[keep] * val)), float(np.sum(weights[keep] * mag))


# (radial, angular) node pairs, coarse then fine, per n and placement
REFERENCE_GRIDS = {
    "away": {1: ((48, 2), (64, 2)), 2: ((64, 64), (96, 96)), 3: ((64, 48), (80, 64))},
    "around": {1: ((400, 2), (800, 2)), 2: ((200, 128), (300, 192)),
               3: ((100, 48), (160, 64))},
}


def reference_pairing(terms, n, center, width):
    """Reference <F, phi> and integral of |F| phi.

    The two resolutions must agree to a tenth of the pairing tolerance.
    """
    placement = "away" if math.dist(center, (0.0,) * n) > width else "around"
    (r1, a1), (r2, a2) = REFERENCE_GRIDS[placement][n]
    v1, m1 = _integrate(terms, n, center, width, r1, a1)
    v2, m2 = _integrate(terms, n, center, width, r2, a2)
    if abs(v1 - v2) > 0.1 * PAIR_RTOL[n] * m2:
        raise RuntimeError(
            f"reference quadrature unresolved: {v1} vs {v2} for {terms} at {center}"
        )
    return v2, m2


def pair_error(op: Op, stdout: str) -> float:
    """|got - reference| relative to the integral of |F| phi."""
    value = json.loads(stdout)["value"]
    got = complex(value["re"], value["im"])
    ref, mag = reference_pairing(op.terms, op.n, op.center, op.width)
    return abs(got - ref) / mag


def check_pair(op: Op, code: int, stdout: str):
    if code != 0:
        return False, f"exit {code}"
    err = pair_error(op, stdout)
    if err > PAIR_RTOL[op.n]:
        return False, f"pair off the reference by {err:.3g} of the |F| phi integral"
    return True, err


def check_pair_verify(op: Op, code: int, stdout: str):
    if code != 0 or not json.loads(stdout)["verdict"]:
        return False, f"exit {code}, identity verdict false"
    return True, ""


CHECKS = {
    "classify": check_classify,
    "apply": check_apply,
    "chain": check_chain,
    "verify": check_verify,
    "identify": check_identify,
    "pair": check_pair,
    "pair-verify": check_pair_verify,
}


def check(op: Op, code: int, stdout: str):
    """(ok, detail) for one operation; detail of a passing pair is its error."""
    try:
        return CHECKS[op.verb](op, code, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return False, f"unreadable output: {exc!r}"
