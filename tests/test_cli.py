"""Command-line surface: exit codes, report shapes, determinism."""

import json

import numpy as np
import pytest

from qahd import cli
from qahd.cli import parse_complex, run


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
        # (a x)^300 overflows at a = 10: an error, not a NaN that max() drops
        # into "verdict": true
        ("verify", "-n", "1", "r^300", "--degree", "300", "--order", "0"),
        ("classify", "10^400"),
        ("classify", "10^(400.5)"),
        ("matrix", "--a", "1e300", "--size", "200"),
        # a product, not a power, leaves the floating-point range
        ("matrix", "--a", "1e300", "--lambda", "1", "--size", "4"),
        ("pair", "-n", "1", "1e300*r^300", "--center", "5", "--width", "1"),
        ("pair-verify", "-n", "1", "r", "--center", "5", "--scale", "1e308"),
        ("pair-verify", "-n", "1", "log(r)^150", "--center", "5", "--scale", "1e300"),
    ):
        code, payload = invoke_json(capsys, *argv)
        assert code == 3
        assert payload["error"] == "EvalOverflowError"


def test_non_finite_bump_and_scale_exit_code(capsys, monkeypatch):
    # refused before any node is built
    def refuse(*args):
        raise AssertionError("quadrature nodes built for a non-finite input")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    for argv, error in (
        (("pair", "-n", "2", "r", "--center", "3", "0", "--width", "nan"), "NonPositiveScaleError"),
        (("pair", "-n", "2", "r", "--center", "3", "0", "--width", "inf"), "NonPositiveScaleError"),
        (("pair", "-n", "2", "r", "--center", "inf", "0"), "ValueError"),
        (("pair", "-n", "2", "r", "--center", "nan", "0"), "ValueError"),
        (("pair-verify", "-n", "2", "r", "--center", "3", "0", "--scale", "nan"), "NonPositiveScaleError"),
        (("pair-verify", "-n", "2", "r", "--center", "3", "0", "--scale", "inf"), "NonPositiveScaleError"),
    ):
        code, payload = invoke_json(capsys, *argv)
        assert code == 2
        assert payload["error"] == error


def test_quadrature_limit_exit_code(capsys, monkeypatch):
    # the limit is checked before any node or grid is built
    def refuse(*args):
        raise AssertionError("quadrature nodes built past the grid limit")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    code, payload = invoke_json(
        capsys, "pair", "-n", "3", "r", "--center", "3", "0", "0",
        "--kr", "1024", "--kw", "1024",
    )
    assert code == 2
    assert payload["error"] == "QuadratureLimitError"


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


def test_text_format(capsys):
    code, out = invoke(
        capsys, "classify", "-n", "1", "log(r)", "--format", "text"
    )
    assert code == 0
    assert "order: 1" in out
