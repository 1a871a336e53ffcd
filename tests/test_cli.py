"""Command-line surface: exit codes, report shapes, determinism."""

import contextlib
import importlib.util
import io
import json
import math
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qahd import _json, cli, errors, operators, pairing
from qahd.cli import parse_complex, run
from qahd.expr import MAX_NESTING

from conftest import EXTREME_EXPONENT, EXTREME_NUMBER, dsl


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def invoke_json(capsys, *argv):
    code, out = invoke(capsys, *argv)
    return code, json.loads(out)


def test_parse_complex():
    assert parse_complex("2") == 2
    assert parse_complex("-1.5") == -1.5
    assert parse_complex("2+3i") == complex(2, 3)
    assert parse_complex("0.5-2e-1i") == complex(0.5, -0.2)
    # the DSL's number rule and spacing
    assert parse_complex(".5") == 0.5
    assert parse_complex("1.") == 1
    assert parse_complex("2+3 i") == complex(2, 3)
    assert parse_complex(" -1 - 2.5i ") == complex(-1, -2.5)
    for text in ("2+3j", "1e400", "1-1e400i", "i", "2i", "(1+2i)", "1+i", ""):
        with pytest.raises(ValueError):
            parse_complex(text)


def test_non_finite_literal_exit_code(capsys):
    for argv in (
        ("parse", "1e400"),
        ("classify", "1e400"),
        ("classify", "r^(1e400)"),
        ("verify", "-n", "1", "r", "--degree", "1e400", "--order", "0"),
        ("matrix", "--a", "2", "--lambda", "1e400", "--size", "2"),
        ("apply", "log(r)", "--op", "delta=2,1-1e400i"),
    ):
        code, payload = invoke_json(capsys, *argv)
        assert code == 2, argv
        assert payload["error"] in ("ExprSyntaxError", "ValueError")


def test_parser_built_once(capsys):
    cli.build_parser.cache_clear()
    for _ in range(2):
        assert run(["parse", "r"]) == 0
    assert cli.build_parser.cache_info().misses == 1
    capsys.readouterr()


def test_reused_parser_keeps_defaults(capsys):
    argv = ["verify", "-n", "1", "log(r)", "--degree", "0", "--order", "1"]
    code, payload = invoke_json(capsys, *argv, "--a-samples", "2", "3")
    assert code == 0
    assert payload["a_samples"] == [2.0, 3.0]
    code, payload = invoke_json(capsys, *argv)
    assert code == 0
    assert payload["a_samples"] == pytest.approx([0.5, 2 / 3, np.e, np.pi, 10])


def test_parse_roundtrip(capsys):
    code, payload = invoke_json(capsys, "parse", "-n", "2", "x1^2*r^(-3)")
    assert code == 0
    assert payload["rendered"]
    code2, payload2 = invoke_json(capsys, "parse", "-n", "2", payload["rendered"])
    assert code2 == 0
    assert payload2["rendered"] == payload["rendered"]


def test_classify(capsys):
    code, payload = invoke_json(
        capsys, "classify", "-n", "2", "x1^2*r^(-3)*log(r)^2 + r^(-1)"
    )
    assert code == 0
    assert payload == [{"degree": {"re": -1.0, "im": 0.0}, "order": 2}]


def test_classify_syntax_error(capsys):
    code, payload = invoke_json(capsys, "classify", "-n", "2", "(x1")
    assert code == 2
    assert payload["error"] == "ExprSyntaxError"
    code, payload = invoke_json(capsys, "classify", "-n", "2", "x1^^2")
    assert code == 2
    assert payload["error"] == "NonLiteralExponentError"


def test_classify_dimension_error(capsys):
    code, payload = invoke_json(capsys, "classify", "-n", "2", "x3")
    assert code == 2
    assert payload["error"] == "DimensionError"


def test_parse_control_characters_give_valid_json(capsys):
    code, payload = invoke_json(capsys, "parse", "r\n+1\t")
    assert code == 0
    assert payload["input"] == "r\n+1\t"
    assert payload["rendered"] == "r + 1"


def test_expansion_limit_exit_code(capsys):
    for argv in (("-n", "1", "(x1+r)^100000"), ("-n", "3", "x1^100000")):
        code, payload = invoke_json(capsys, "classify", *argv)
        assert code == 2
        assert payload["error"] == "ExpansionLimitError"


def test_overflow_exit_code(capsys):
    for argv in (
        ("apply", "r^300", "--op", "dilate=1e300"),
        ("apply", "1e300*r", "--op", "dilate=1e10"),
        ("apply", "log(r)^200", "--op", "dilate=1e300"),
        ("identify", "r^(1000)"),
        ("classify", "10^400"),
        ("classify", "10^(400.5)"),
        # an infinite exponent gives inf, not an exception: not a silent zero form
        ("classify", "10^(1e308+1i)"),
        ("chain", "(1e308)^(1e308+1i)*log(r)"),
        ("matrix", "--a", "1e300", "--size", "200"),
        # a product, not a power, leaves the floating-point range
        ("matrix", "--a", "1e300", "--lambda", "1", "--size", "4"),
        ("pair", "-n", "1", "1e300*r^300", "--center", "5", "--width", "1"),
        ("pair-verify", "-n", "1", "r", "--center", "5", "--scale", "1e308"),
        ("pair-verify", "-n", "1", "log(r)^150", "--center", "5", "--scale", "1e300"),
        # |lhs| leaves the float range though its real and imaginary parts do not
        ("pair-verify", "-n", "1", "(1e308+1e308i)", "--center", "5", "--scale", "3"),
        # finite inputs whose floats leave the range: no traceback, no warning
        ("identify", "-n", "1", "r", "--delta", "1e300", "--x0", "1"),
        ("identify", "-n", "1", "r", "--x0", "1e300"),
        ("identify", "-n", "1", "r^(-700)", "--x0", "1", "--delta", "0.5", "--M", "6",
         "--kmax", "0"),
        ("pair", "-n", "1", "r", "--center", "1", "--width", "1e300"),
        ("pair-verify", "-n", "1", "r", "--center", "1", "--width", "1e300"),
        ("matrix", "--a", "1e308", "--lambda", "1e308", "--size", "2"),
        ("apply", "r", "--op", "delta=1e308,1e308"),
        ("apply", "r", "--op", "delta=1e308,1e308-1e308i"),
        # |c| overflows; the pairing is not silently 0
        ("pair", "-n", "1", "r^(-1)", "--center", "1e200", "--width", "1e199"),
        # |c| -+ width round to one float; the pairing is not silently 0
        ("pair", "-n", "1", "r", "--center", "1e16", "--width", "1"),
    ):
        code, payload = invoke_json(capsys, *argv)
        assert code == 3, argv
        assert payload["error"] == "EvalOverflowError"


def test_extreme_constant_exit_code(capsys):
    # a constant power past the float range exits 3 in every verb: Python's
    # complex b^(-m) divides by zero when b^m underflows to 0
    for argv in (
        ("classify", "(1e-200)^(-2)"),
        ("identify", "-n", "1", "(1e-200)^(-40)+r"),
        ("identify", "-n", "1", "(1e-200)^(-2)*r", "--x0", "1"),
    ):
        code, payload = invoke_json(capsys, *argv)
        assert code == 3, argv
        assert payload["error"] == "EvalOverflowError"
    # |c| is past the float range though its parts are not: c is kept, and
    # no verb ends in a traceback
    big = "(1.3e308+1.3e308i)"
    code, payload = invoke_json(capsys, "classify", big)
    assert (code, payload) == (0, [{"degree": {"re": 0.0, "im": 0.0}, "order": 0}])
    for argv in (
        ("chain", big),
        ("verify", big, "--degree", "0", "--order", "0"),
        ("pair-verify", "-n", "1", big, "--center", "5"),
    ):
        code, payload = invoke_json(capsys, *argv)
        assert code == 0, argv
    # identify fits samples of any scale: no overflow in the fit, no
    # non-finite residual reported as an input error
    for expr, k in (("log(r)*1e308", 1), (big, 0), ("log(r)*1e-300", 1)):
        code, payload = invoke_json(capsys, "identify", "-n", "1", expr)
        assert code == 0, expr
        assert payload["k"] == k
        assert abs(complex(payload["lambda"]["re"], payload["lambda"]["im"])) < 1e-12


def test_non_finite_bump_and_scale_exit_code(capsys, monkeypatch):
    # refused before any node is built
    def refuse(*args):
        raise AssertionError("quadrature nodes built for a non-finite input")

    monkeypatch.setattr(pairing, "_gauss", refuse)
    for argv, error in (
        (("pair", "-n", "2", "r", "--center", "3", "0", "--width", "nan"), "NonPositiveScaleError"),
        (("pair", "-n", "2", "r", "--center", "3", "0", "--width", "inf"), "NonPositiveScaleError"),
        (("pair", "-n", "2", "r", "--center", "inf", "0"), "ValueError"),
        (("pair", "-n", "2", "r", "--center", "nan", "0"), "ValueError"),
        (("pair-verify", "-n", "2", "r", "--center", "3", "0", "--scale", "nan"), "NonPositiveScaleError"),
        (("pair-verify", "-n", "2", "r", "--center", "3", "0", "--scale", "inf"), "NonPositiveScaleError"),
        (("apply", "r", "--op", "dilate=nan"), "NonPositiveScaleError"),
        (("apply", "r", "--op", "dilate=inf"), "NonPositiveScaleError"),
        (("apply", "r", "--op", "dilate=1e400"), "NonPositiveScaleError"),
        (("apply", "log(r)", "--op", "delta=nan,1"), "NonPositiveScaleError"),
        (("apply", "r", "--op", "power=delta_a,2", "--a", "nan"), "NonPositiveScaleError"),
        (("matrix", "--a", "nan", "--size", "2"), "NonPositiveScaleError"),
        (("verify", "-n", "1", "r", "--degree", "1", "--order", "0", "--a-samples", "nan"),
         "NonPositiveScaleError"),
        (("identify", "r", "--delta", "nan"), "ValueError"),
        (("identify", "r", "--x0", "nan"), "ValueError"),
    ):
        code, payload = invoke_json(capsys, *argv)
        assert code == 2, argv
        assert payload["error"] == error


def test_malformed_input_exit_code(capsys):
    for argv, error in (
        (("verify", "0", "--degree", "0", "--order", "0"), "ZeroInputError"),
        (("pair-verify", "0", "--center", "3"), "ZeroInputError"),
        (("apply", "r", "--op", "delta=2"), "ValueError"),
        (("apply", "r", "--op", "power=euler"), "ValueError"),
        (("apply", "r", "--op", "power=foo,2"), "ValueError"),
        (("pair", "-n", "2", "r", "--center", "3"), "ValueError"),
        (("identify", "-n", "2", "r", "--x0", "1"), "ValueError"),
        (("classify", "-n", "0", "r"), "DimensionError"),
        (("classify", "r/0"), "ExprSyntaxError"),
        # refused before the size x size matrix is allocated
        (("matrix", "--a", "2", "--size", "202"), "ValueError"),
        (("matrix", "--a", "2", "--size", "100000"), "ValueError"),
    ):
        code, payload = invoke_json(capsys, *argv)
        assert code == 2, argv
        assert payload["error"] == error


def test_quadrature_limit_exit_code(capsys, monkeypatch):
    # the limits are checked before any node or grid is built: a grid past
    # MAX_QUADRATURE_VALUES, and grids within it whose radial Gauss degree is
    # past MAX_GAUSS_NODES (numpy's dense degree x degree eigenproblem)
    def refuse(*args):
        raise AssertionError("quadrature nodes built past a limit")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    pairing._gauss.cache_clear()
    for argv in (
        ("pair", "-n", "3", "r", "--center", "3", "0", "0", "--kr", "1024", "--kw", "1024"),
        ("pair", "-n", "1", "r", "--center", "5", "--kr", "100000", "--kw", "4"),
        ("pair", "-n", "2", "r", "--center", "5", "0", "--kr", "2049", "--kw", "4"),
        ("pair-verify", "-n", "1", "r", "--center", "5", "--kr", "20000"),
    ):
        code, payload = invoke_json(capsys, *argv)
        assert code == 2, argv
        assert payload["error"] == "QuadratureLimitError"


def test_seed_only_on_seeded_verbs(capsys):
    for argv in (
        ("parse", "r"), ("classify", "r"), ("apply", "r", "--op", "euler"), ("chain", "r"),
        ("matrix", "--a", "2"), ("pair", "r", "--center", "5"),
        ("pair-verify", "r", "--center", "5"),
    ):
        code, _ = invoke(capsys, *argv, "--seed", "1")
        assert code == 2, argv
    for argv in (
        ("verify", "r", "--degree", "1", "--order", "0"),
        ("identify", "r"),
    ):
        code, _ = invoke(capsys, *argv, "--seed", "1")
        assert code == 0, argv


def test_readme_usage_examples_succeed(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = [shlex.split(line, comments=True)[1:]
                for line in readme.splitlines() if line.startswith("qahd ")]
    assert len(examples) == 9
    for argv in examples:
        code, _ = invoke(capsys, *argv)
        assert code == 0, argv


def test_classify_zero_input(capsys):
    code, payload = invoke_json(
        capsys, "classify", "-n", "2", "(x1^2+x2^2)*r^(-2)*log(r) - log(r)"
    )
    assert code == 2
    assert payload["error"] == "ZeroInputError"


def test_apply_euler(capsys):
    code, payload = invoke_json(
        capsys, "apply", "-n", "1", "log(r)^2", "--op", "euler"
    )
    assert code == 0
    (comp,) = payload
    assert comp["coeffs"][1] == [{"alpha": [0], "re": 2.0, "im": 0.0}]


def test_apply_dilate_and_delta(capsys):
    code, payload = invoke_json(
        capsys, "apply", "-n", "1", "r^2", "--op", "dilate=3"
    )
    assert code == 0
    assert payload[0]["coeffs"][0][0]["re"] == pytest.approx(9.0)
    code, payload = invoke_json(
        capsys, "apply", "-n", "1", "log(r)", "--op", "delta=2.718281828459045,0"
    )
    assert code == 0
    assert payload[0]["coeffs"][0][0]["re"] == pytest.approx(1.0)


def test_apply_power(capsys):
    code, payload = invoke_json(
        capsys, "apply", "-n", "1", "log(r)^2", "--op",
        "power=euler_minus_lambda,3",
    )
    assert code == 0
    assert payload == [{"n": 1, "zero": True, "coeffs": [[]]}]
    code, payload = invoke_json(
        capsys, "apply", "-n", "1", "log(r)^2", "--op", "power=delta_a,2",
        "--a", "2.718281828459045",
    )
    assert code == 0
    assert payload[0]["coeffs"][0][0]["re"] == pytest.approx(2.0)


def test_apply_power_delta_needs_a(capsys):
    code, payload = invoke_json(
        capsys, "apply", "-n", "1", "log(r)", "--op", "power=delta_a,1"
    )
    assert code == 2
    assert payload["error"] == "ValueError"
    assert "--a" in payload["message"]
    # the zero form has no component to apply it to
    code, payload = invoke_json(capsys, "apply", "0", "--op", "power=delta_a,2")
    assert code == 0
    assert payload == [{"n": 1, "zero": True, "coeffs": [[]]}]


def test_apply_bad_op(capsys):
    code, payload = invoke_json(capsys, "apply", "-n", "1", "r^2", "--op", "square")
    assert code == 2


def test_chain(capsys):
    code, payload = invoke_json(capsys, "chain", "-n", "1", "log(r)^2")
    assert code == 0
    (comp,) = payload
    assert comp["order"] == 2
    assert len(comp["members"]) == 3


def test_verify_true_false(capsys):
    code, payload = invoke_json(
        capsys, "verify", "-n", "1", "log(r)", "--degree", "0", "--order", "1"
    )
    assert code == 0
    assert payload["verdict"] is True
    code, payload = invoke_json(
        capsys, "verify", "-n", "1", "log(r)", "--degree", "0", "--order", "0"
    )
    assert code == 1
    assert payload["verdict"] is False
    assert payload["criteria"]["structural"] is False
    # the form's degree is 2.7439999999999998: the dilation criterion divides
    # out a^lam, so the last bit does not leave |a^lam log a|^4 in it
    code, payload = invoke_json(
        capsys, "verify", "-n", "3",
        "(0.80*x1-0.01*x2+0.85*x3+r)^3*(1+log(r))^4*r^(-0.256)",
        "--degree", "2.744", "--order", "4",
    )
    assert code == 0
    assert payload["criteria"]["dilation_nilpotency"] < 1e-11


def test_verify_verdict_does_not_depend_on_scale(capsys):
    # each residual is relative to the moduli of the terms it compares, so a
    # true assertion holds whatever the scale of F and the cancellation among
    # its atoms, and a^lam enters only as a^(lam - s) with |a^(lam - s)| <= 1
    f2 = "(x1+x2+x3+r)^6*log(r)^2"
    for argv in (
        ("-n", "3", f2, "--degree", "6", "--order", "2"),
        ("-n", "3", f"1e5*{f2}", "--degree", "6", "--order", "2"),
        ("-n", "3", "(x1-2*x2+0.5*x3+r)^6*log(r)^4", "--degree", "6", "--order", "4"),
        # (a x)^300 and 1e308 * x are never formed
        ("-n", "1", "r^300", "--degree", "300", "--order", "0"),
        ("-n", "1", "r", "--degree", "1", "--order", "0", "--a-samples", "1e308"),
        # no a^(-s) multiplies a value that has already underflowed
        ("-n", "1", "r^(-400)", "--degree", "-400", "--order", "0"),
        ("-n", "1", "r^(-300)*log(r)", "--degree", "-300", "--order", "1"),
    ):
        code, payload = invoke_json(capsys, "verify", *argv)
        assert code == 0, argv
        assert payload["criteria"]["definitional"] < 1e-14, argv
    # a false assertion is a verdict, not an overflow: a degree far from the
    # form's, and an order past 170 (whose r! leaves the float range)
    for argv in (
        ("-n", "1", "r", "--degree", "1000", "--order", "0"),
        ("-n", "1", "r", "--degree", "1", "--order", "171"),
    ):
        code, payload = invoke_json(capsys, "verify", *argv)
        assert code == 1, argv
        assert all(math.isfinite(v) for v in payload["criteria"].values()), argv


def test_verify_order_out_of_range_is_refused_at_once(capsys, monkeypatch):
    # 200 is the largest log power of any form; no chain member is built
    def refuse(*args, **kwargs):
        raise AssertionError("operator applied for an order out of range")

    monkeypatch.setattr(operators, "op_power", refuse)
    for order in ("10000000000", "-1", "201"):
        code, payload = invoke_json(capsys, "verify", "-n", "1", "r", "--degree", "1",
                                    "--order", order)
        assert code == 2, order
        assert payload["error"] == "ValueError"


def test_matrix(capsys):
    code, payload = invoke_json(
        capsys, "matrix", "--a", "2.718281828459045", "--lambda", "0", "--size", "3"
    )
    assert code == 0
    assert payload["size"] == 3
    got = [e["re"] for e in payload["entries"]]
    assert got == pytest.approx([1, 1, 1, 0, 1, 1, 0, 0, 1])


def test_matrix_bad_scale(capsys):
    code, payload = invoke_json(capsys, "matrix", "--a", "-1", "--size", "3")
    assert code == 2
    assert payload["error"] == "NonPositiveScaleError"


def test_pair(capsys):
    code, payload = invoke_json(
        capsys, "pair", "-n", "1", "1", "--center", "5", "--width", "1"
    )
    assert code == 0
    assert payload["value"]["re"] == pytest.approx(0.443994, abs=1e-6)
    # the zero form pairs to 0 without a quadrature
    code, payload = invoke_json(capsys, "pair", "-n", "2", "0", "--center", "3", "0")
    assert code == 0
    assert payload["value"] == {"re": 0.0, "im": 0.0}
    # but its dimension and grid are checked like any other form's
    for argv, error in (
        (("-n", "4", "0", "--center", "3", "0", "0", "0"), "DimensionUnsupportedError"),
        (("-n", "3", "0", "--center", "3", "0", "0", "--kr", "5000", "--kw", "5000"),
         "QuadratureLimitError"),
    ):
        code, payload = invoke_json(capsys, "pair", *argv)
        assert code == 2
        assert payload["error"] == error


def test_pair_integrability_refusal(capsys):
    code, payload = invoke_json(
        capsys, "pair", "-n", "2", "r^(-2)", "--center", "0", "0", "--width", "1"
    )
    assert code == 2
    assert payload["error"] == "IntegrabilityError"


def test_pair_verify(capsys):
    code, payload = invoke_json(
        capsys, "pair-verify", "-n", "1", "log(r)", "--center", "5",
        "--width", "1", "--scale", "2.718281828459045",
    )
    assert code == 0
    assert payload["verdict"] is True
    assert payload["residual"] < 1e-7
    # Delta_a(lam) F is one matrix action, with no chain member carrying
    # (i+r)!/i! before its 1/r! weight
    code, payload = invoke_json(
        capsys, "pair-verify", "-n", "1", "log(r)^200", "--center", "5",
        "--width", "1", "--scale", "10",
    )
    assert code == 0
    assert payload["residual"] < 1e-12
    # the verdict threshold is fixed: there is no --tolerance
    code, out = invoke(capsys, "pair-verify", "-n", "1", "log(r)", "--center", "5",
                       "--tolerance", "nan")
    assert code == 2 and out == ""


def test_identify_single_ray(capsys):
    code, payload = invoke_json(
        capsys, "identify", "-n", "1", "r^2", "--x0", "1", "--M", "12", "--kmax", "2"
    )
    assert code == 0
    assert payload["lambda"]["re"] == pytest.approx(2.0, abs=1e-9)
    assert payload["k"] == 0


def test_identify_multi_probe(capsys):
    code, payload = invoke_json(
        capsys, "identify", "-n", "2", "r^(0.5)*(1 + log(r))", "--kmax", "3"
    )
    assert code == 0
    assert payload["lambda"]["re"] == pytest.approx(0.5, abs=1e-6)
    assert payload["k"] == 1


def test_identify_root_split_exit_code(capsys):
    code, payload = invoke_json(
        capsys, "identify", "-n", "1", "r^2 + r^3", "--x0", "1", "--kmax", "4"
    )
    assert code == 3
    assert payload["error"] == "RootSplitError"


def test_identify_insufficient_samples(capsys):
    code, payload = invoke_json(
        capsys, "identify", "-n", "1", "r^2", "--x0", "1", "--M", "4", "--kmax", "4"
    )
    assert code == 2
    assert payload["error"] == "InsufficientSamplesError"


def test_usage_error_exit_code(capsys):
    assert run(["verify", "log(r)"]) == 2  # missing --degree/--order
    capsys.readouterr()
    assert run(["nonsense"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    for cmd in ("parse", "classify", "apply", "chain", "verify",
                "matrix", "pair", "pair-verify", "identify"):
        assert cmd in out


def test_subcommand_help_lists_defaults(capsys):
    assert run(["identify", "--help"]) == 0
    out = capsys.readouterr().out
    assert "default 0.1" in out and "default 16" in out and "default 42" in out


def test_json_determinism(capsys):
    argv = ["verify", "-n", "2", "x1*r^(-2)*log(r)", "--degree", "-1", "--order", "1"]
    code1, out1 = invoke(capsys, *argv)
    code2, out2 = invoke(capsys, *argv)
    assert (code1, out1) == (code2, out2)
    assert code1 == 0


_FINITE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308)),
)
_REPORT_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**64), 2**64) | st.integers(2**63, 2**200),
    _FINITE_FLOATS,
    _FINITE_FLOATS.map(np.float64),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.complex_numbers(allow_nan=False, allow_infinity=False).map(np.complex128),
    st.text(st.characters(exclude_categories=())),
)
_REPORTS = st.recursive(
    _REPORT_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(st.characters(exclude_categories=()), max_size=6),
                        children, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_REPORTS)
def test_report_writer_matches_stdlib_json(obj):
    expected = json.dumps(
        obj, indent=2, ensure_ascii=False, allow_nan=False,
        default=lambda z: {"re": z.real, "im": z.imag},
    )
    assert _json.dumps(obj) == expected


def test_report_writer_refuses_non_finite_and_unknown_types():
    for value in (math.nan, math.inf, -math.inf, complex(0, math.inf), np.float64("nan")):
        for obj in (value, [1, value], {"a": {"b": value}}):
            with pytest.raises(ValueError, match="^non-finite value in report$"):
                _json.dumps(obj)
    for value in (np.int64(1), object()):
        with pytest.raises(TypeError):
            _json.dumps({"a": [value]})


def test_text_format(capsys):
    code, out = invoke(
        capsys, "classify", "-n", "1", "log(r)", "--format", "text"
    )
    assert code == 0
    assert "order: 1" in out


# the input-error classes, exit 2; every other QahdError exits 3
INPUT_ERROR_NAMES = {
    "ExprSyntaxError", "DimensionError", "NonLiteralExponentError", "NotInClassError",
    "ExpansionLimitError", "ZeroInputError", "NonPositiveScaleError", "OriginError",
    "UndefinedDegreeError", "IntegrabilityError", "DimensionUnsupportedError",
    "QuadratureLimitError", "InsufficientSamplesError",
}
ERROR_CLASSES = [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.QahdError)
    and cls not in (errors.QahdError, errors.InputError)
]


def test_error_class_table_names_existing_classes():
    assert INPUT_ERROR_NAMES <= {cls.__name__ for cls in ERROR_CLASSES}


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_exit_code_by_error_class(capsys, monkeypatch, cls):
    exc = cls("boom", 0) if cls is errors.ExprSyntaxError else cls("boom")

    def fail(*args):
        raise exc

    monkeypatch.setattr(cli, "parse", fail)
    code, payload = invoke_json(capsys, "parse", "r")
    assert code == (2 if cls.__name__ in INPUT_ERROR_NAMES else 3)
    assert payload == {"error": cls.__name__, "message": str(exc)}


_EXPRESSIONS = (
    "r", "0", "log(r)", "r^(-1)", "r^(-3)*log(r)", "x1*r^(-2)*log(r)", "r^2 + r^3",
    "(x1 + r)^3", "1e300*r^300", "r^(0.5)*(1 + log(r))", "log(r)^3", "x1^2*r^(2+1i)",
)
_VALUES = st.sampled_from(
    ("nan", "inf", "-inf", "1e400", "1e308", "1e300", "-1", "0", "0.5", "2", "3+2i")
)


@st.composite
def _argv(draw):
    """A command line of any verb, with extreme, invalid and ordinary values."""
    verb = draw(st.sampled_from((
        "parse", "classify", "apply", "chain", "verify", "matrix", "pair",
        "pair-verify", "identify",
    )))

    def opt(name, values=_VALUES):
        return f"{name}={draw(values)}"

    if verb == "matrix":
        return [verb, opt("--a"), opt("--lambda"), opt("--size", st.integers(-1, 8))]
    n = draw(st.integers(1, 3))
    argv = [verb, draw(st.sampled_from(_EXPRESSIONS)), "-n", str(n)]
    if verb == "apply":
        a, b, m = draw(_VALUES), draw(_VALUES), draw(st.integers(0, 3))
        argv.append("--op=" + draw(st.sampled_from((
            "euler", f"dilate={a}", f"delta={a},{b}",
            f"power=euler_minus_lambda,{m}", f"power=delta_a,{m}",
        ))))
        if draw(st.booleans()):
            argv.append(opt("--a"))
    elif verb == "verify":
        argv += [opt("--degree"), opt("--order", st.integers(0, 3))]
        if draw(st.booleans()):
            argv += ["--a-samples", *draw(st.lists(_VALUES, min_size=1, max_size=3))]
    elif verb in ("pair", "pair-verify"):
        # node counts past MAX_GAUSS_NODES are refused, not computed
        nodes = st.one_of(st.integers(3, 32), st.sampled_from((2049, 100000)))
        argv += ["--center", *[draw(_VALUES) for _ in range(n)],
                 opt("--width"), opt("--kr", nodes), opt("--kw", nodes)]
        if verb == "pair-verify":
            argv.append(opt("--scale"))
    elif verb == "identify":
        if draw(st.booleans()):
            argv += ["--x0", *[draw(_VALUES) for _ in range(n)]]
        argv += [opt("--delta"), opt("--M", st.integers(3, 16)),
                 opt("--kmax", st.integers(0, 3))]
    return argv


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_argv())
# a valid pairing whose radial node count is past MAX_GAUSS_NODES, which the
# random draws above reach only with an invalid bump
@example(["pair", "r", "-n", "1", "--center", "5", "--kr=100000", "--kw=4"])
def test_exit_code_contract_property(argv):
    """Every command line ends in an exit code of the contract and valid JSON
    or nothing on stdout: no traceback and no floating-point warning."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    assert code in (0, 1, 2, 3)
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=_refuse_constant)


# the verbs that read an expression, with options that leave the outcome to it
_EXPRESSION_VERBS = {
    "parse": [], "classify": [], "chain": [], "identify": [],
    "apply": ["--op", "dilate=2"],
    "verify": ["--degree", "0", "--order", "0"],
    "pair": ["--center", "3", "1"],
    "pair-verify": ["--center", "3", "1"],
}


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(st.builds(
    lambda verb, text: [verb, text, "-n", "2", *_EXPRESSION_VERBS[verb]],
    st.sampled_from(sorted(_EXPRESSION_VERBS)),
    dsl(EXTREME_NUMBER, EXTREME_EXPONENT),
))
# one row per class of traceback found by fuzzing the expression text: |c|
# past the float range, a constant power that divides by zero in expansion
# and in evaluation, and an overflow inside identify's fit
@example(["classify", "(1.3e308+1.3e308i)", "-n", "2"])
@example(["classify", "(1e-200)^(-2)", "-n", "2"])
@example(["identify", "(1e-200)^(-40)+r", "-n", "2"])
@example(["identify", "log(r)*1e308", "-n", "1"])
def test_expression_text_contract_property(argv):
    """DSL text with extreme literals, through every verb that reads an
    expression: an exit code of the contract and valid JSON or nothing on
    stdout, no traceback and no floating-point warning."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(argv)
    assert code in (0, 1, 2, 3)
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=_refuse_constant)


def _nested_sum(depth):
    return "(r+" * (depth - 1) + "(r" + ")" * depth


def _minus_run(depth):
    return "r+" + "-" * depth + "r"


@pytest.mark.parametrize("verb", sorted(_EXPRESSION_VERBS))
def test_nesting_bound_on_every_verb(capsys, verb):
    """The deepest text the parser accepts goes through every verb that reads
    an expression; one level deeper exits 2 with the error envelope."""
    options = ["-n", "2", *_EXPRESSION_VERBS[verb]]
    for text in (_nested_sum, _minus_run):
        code, out = invoke(capsys, verb, text(MAX_NESTING), *options)
        assert code == (1 if verb == "verify" else 0)  # its degree is 1, not 0
        json.loads(out)
        code, payload = invoke_json(capsys, verb, text(MAX_NESTING + 1), *options)
        assert code == 2
        assert payload["error"] == "ExprSyntaxError"


def test_benchmark_tracer_bindings_exist_and_are_restored():
    """The benchmark's tracer wraps qahd functions by name; every binding it
    names must exist, be replaced while installed and be restored after."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    def bound(module_name, attr):
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        return owner

    bindings = [b for layer in tracing.LAYERS.values() for b in layer]
    originals = [bound(*b) for b in bindings]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(bound(*b) is not f for b, f in zip(bindings, originals))
    finally:
        tracer.uninstall()
    assert all(bound(*b) is f for b, f in zip(bindings, originals))
