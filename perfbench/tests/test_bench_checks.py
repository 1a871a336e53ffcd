"""The checks: references reproduce closed forms, and every check accepts the
program's correct output and rejects a deliberately corrupted one."""

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import checks
import corpus
import run
from qahd import cli


def call(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


def first(workload, verb, pred=lambda op: True, seed=2):
    for round_index in range(20):
        for op in corpus.round_ops(workload, seed, round_index)[:-1]:
            if op.verb == verb and pred(op):
                return op
    raise LookupError(verb)


# ---------------------------------------------------------------------------
# References.


def bump_integral(n, width):
    """Integral of the bump over R^n from its 1-D radial profile."""
    sphere = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[n]
    profile, _ = quad(lambda u: u ** (n - 1) * math.exp(-1.0 / (1.0 - u * u)), 0, 1,
                      epsabs=1e-14, epsrel=1e-13)
    return sphere * width ** n * profile


@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("distance", (0.0, 0.4, 1.5))
def test_reference_reproduces_the_bump_integral(n, distance):
    width = 0.8
    center = (distance * width,) + (0.0,) * (n - 1)
    one = [corpus.Term(1.0, (0,) * n)]
    value, mag = checks.reference_pairing(one, n, center, width)
    exact = bump_integral(n, width)
    assert abs(value - exact) <= 1e-8 * exact
    assert abs(mag - exact) <= 1e-8 * exact


def test_reference_reproduces_a_radial_power_around_the_origin():
    # <r^lam, phi> for a bump centred at the origin is 1-D: 2 pi int r^(lam+1) phi
    lam, width = -1.5, 1.3
    exact, _ = quad(lambda r: 2 * math.pi * r ** (lam + 1)
                    * math.exp(-1 / (1 - (r / width) ** 2)), 0, width,
                    epsabs=1e-14, epsrel=1e-13, limit=200)
    value, _ = checks.reference_pairing([corpus.Term(1.0, (0, 0), mu=lam)], 2,
                                        (0.0, 0.0), width)
    assert abs(value - exact) <= 1e-8 * abs(exact)


def test_f3_reference_value():
    op = corpus.round_ops("pairing", 1, 0)[-1]
    value, _ = checks.reference_pairing(op.terms, op.n, op.center, op.width)
    assert abs(value - (-4.7344363455)) < 1e-8


def test_sympy_euler_matches_the_closed_form():
    # E(c S^p L^k r^mu) = (p + mu) F + c k S^p L^(k-1) r^mu, S = s.x + r, L = 1 + log r
    t = corpus.Term(1.3 - 0.2j, (0, 0, 0), mu=0.7 + 0.4j, s=(0.5, -1.2, 0.9), p=4, k=3)
    x = checks.sample_points("euler", 3)
    got = checks.euler_power_values(t, x, 1, None)
    lower = corpus.Term(t.c * t.k, t.alpha, mu=t.mu, s=t.s, p=t.p, k=t.k - 1)
    want = (t.p + t.mu) * checks.term_values(t, x)[0] + checks.term_values(lower, x)[0]
    assert np.allclose(got, want, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# Accept the real output, reject corrupted ones.


def perturb_coefficient(stdout):
    data = json.loads(stdout)
    forms = data if isinstance(data, list) else [data]
    for form in forms:
        for f in form.get("members", [form]):
            for entries in f.get("coeffs", []):
                if entries:
                    entries[len(entries) // 2]["re"] += 1e-3
                    return json.dumps(data)
    raise AssertionError("no coefficient to perturb")


APPLY_KINDS = ("dilate", "euler", "delta", "power_e", "power_d")


@pytest.mark.parametrize("kind", APPLY_KINDS)
def test_apply_check(kind):
    op = first("symbolic", "apply",
               lambda op: corpus.SYMBOLIC_SLOTS[op.slot][0] == kind
               and corpus.SYMBOLIC_SLOTS[op.slot][2] <= 4)
    code, out = call(op.argv)
    assert checks.check(op, code, out)[0]
    try:
        bad = perturb_coefficient(out)
    except AssertionError:  # the result is the zero form; expect a nonzero one
        assert not checks.check(op, code, json.dumps([json.loads(out)[0] | {
            "zero": False, "degree": {"re": 1.0, "im": 0.0},
            "coeffs": [[{"alpha": [0] * op.n, "re": 1.0, "im": 0.0}]]}]))[0]
        return
    assert not checks.check(op, code, bad)[0]


def test_chain_check():
    op = first("symbolic", "chain", lambda op: corpus.SYMBOLIC_SLOTS[op.slot][2] <= 4)
    code, out = call(op.argv)
    assert checks.check(op, code, out)[0]
    assert not checks.check(op, code, perturb_coefficient(out))[0]
    data = json.loads(out)
    data[0]["order"] += 1
    assert not checks.check(op, code, json.dumps(data))[0]


def test_classify_check():
    op = first("symbolic", "classify", lambda op: corpus.SYMBOLIC_SLOTS[op.slot][2] <= 4)
    code, out = call(op.argv)
    assert checks.check(op, code, out)[0]
    data = json.loads(out)
    data[0]["order"] += 1
    assert not checks.check(op, code, json.dumps(data))[0]
    data[0]["order"] -= 1
    data[0]["degree"]["re"] += 1e-6
    assert not checks.check(op, code, json.dumps(data))[0]


@pytest.mark.parametrize("expect_code", (0, 1))
def test_verify_check(expect_code):
    op = first("verify", "verify", lambda op: op.expect_code == expect_code
               and len(op.terms) <= 60)
    code, out = call(op.argv)
    assert checks.check(op, code, out)[0]
    data = json.loads(out)
    data["verdict"] = not data["verdict"]
    assert not checks.check(op, 1 - code, json.dumps(data))[0]
    assert not checks.check(op, 1 - code, out)[0]


def test_identify_check():
    op = first("verify", "identify", lambda op: len(op.terms) <= 60)
    code, out = call(op.argv)
    assert checks.check(op, code, out)[0]
    data = json.loads(out)
    data["k"] += 1
    assert not checks.check(op, code, json.dumps(data))[0]
    data["k"] -= 1
    data["lambda"]["im"] += 1e-2
    assert not checks.check(op, code, json.dumps(data))[0]


@pytest.mark.parametrize("n", (1, 2, 3))
def test_pair_check(n):
    op = first("pairing", "pair", lambda op: op.n == n and op.nodes == 64
               or op.n == n == 1)
    code, out = call(op.argv)
    ok, err = checks.check(op, code, out)
    assert ok and err < checks.PAIR_RTOL[n]
    data = json.loads(out)
    _, mag = checks.reference_pairing(op.terms, op.n, op.center, op.width)
    data["value"]["re"] += 10 * checks.PAIR_RTOL[n] * mag
    assert not checks.check(op, code, json.dumps(data))[0]


def test_pair_check_rejects_the_f3_value():
    op = corpus.round_ops("pairing", 1, 0)[-1]
    code, out = call(op.argv)
    assert code == 0 and not checks.check(op, code, out)[0]
    data = json.loads(out)
    data["value"]["re"] = -4.7344363455
    assert checks.check(op, code, json.dumps(data))[0]


def test_pair_verify_check():
    op = first("pairing", "pair-verify", lambda op: op.n == 2)
    code, out = call(op.argv)
    assert checks.check(op, code, out)[0]
    data = json.loads(out)
    data["verdict"] = False
    assert not checks.check(op, 1, json.dumps(data))[0]


# ---------------------------------------------------------------------------
# BENCHMARK.json names exactly the metrics run.py prints.


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _, _) in run.PER_LAYER.items()
    }
