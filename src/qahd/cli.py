"""Command-line surface: one verb per operation, machine-readable reports.

Exit codes: 0 success / verified, 1 verification failure, 2 usage or input
errors, 3 numerical failures.  All randomness is seeded from --seed; there
is no environment-variable configuration.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import _json, identify, operators, pairing, spectral
from .errors import (
    AliasRiskError,
    DimensionError,
    DimensionUnsupportedError,
    ExpansionLimitError,
    ExprSyntaxError,
    InsufficientSamplesError,
    IntegrabilityError,
    NoFitError,
    NonLiteralExponentError,
    NonPositiveScaleError,
    NotInClassError,
    OriginError,
    QahdError,
    QuadratureLimitError,
    RootSplitError,
    UndefinedDegreeError,
    ZeroInputError,
)
from .expr import eval_expr, parse, render
from .logform import MultiForm, canonicalize

INPUT_ERRORS = (
    ExprSyntaxError,
    DimensionError,
    NonLiteralExponentError,
    NotInClassError,
    ExpansionLimitError,
    ZeroInputError,
    NonPositiveScaleError,
    OriginError,
    UndefinedDegreeError,
    IntegrabilityError,
    DimensionUnsupportedError,
    QuadratureLimitError,
    InsufficientSamplesError,
    ValueError,
)
NUMERIC_ERRORS = (NoFitError, RootSplitError, AliasRiskError)

_COMPLEX_RE = re.compile(
    r"^\s*([+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"(?:\s*([+-])\s*(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)i)?\s*$"
)


def parse_complex(text: str) -> complex:
    m = _COMPLEX_RE.match(text)
    if m is None:
        raise ValueError(f"cannot parse complex number {text!r} (use 'a' or 'a+bi')")
    re_part = float(m.group(1))
    if m.group(2) is None:
        return complex(re_part)
    sign = -1.0 if m.group(2) == "-" else 1.0
    return complex(re_part, sign * float(m.group(3)))


def _emit(args, payload) -> None:
    if args.format == "json":
        sys.stdout.write(_json.dumps(payload, indent=2) + "\n")
    else:
        _emit_text(payload, 0)


def _emit_text(obj, depth) -> None:
    pad = "  " * depth
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list, tuple)):
                sys.stdout.write(f"{pad}{k}:\n")
                _emit_text(v, depth + 1)
            else:
                sys.stdout.write(f"{pad}{k}: {v}\n")
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            _emit_text(v, depth)
    else:
        sys.stdout.write(f"{pad}{obj}\n")


def _canon(args) -> MultiForm:
    tree = parse(args.expr, args.n)
    return canonicalize(tree, args.n)


def _cmd_parse(args) -> int:
    tree = parse(args.expr, args.n)
    _emit(args, {"n": args.n, "input": args.expr, "rendered": render(tree)})
    return 0


def _cmd_classify(args) -> int:
    m = _canon(args)
    pairs = operators.classify(m)
    _emit(
        args,
        [
            {"degree": {"re": lam.real, "im": lam.imag}, "order": k}
            for lam, k in pairs
        ],
    )
    return 0


def _parse_op(text: str):
    if text == "euler":
        return ("euler",)
    if text.startswith("dilate="):
        return ("dilate", float(text[len("dilate="):]))
    if text.startswith("delta="):
        payload = text[len("delta="):].split(",")
        if len(payload) != 2:
            raise ValueError("expected delta=A,LAMBDA")
        return ("delta", float(payload[0]), parse_complex(payload[1]))
    if text.startswith("power="):
        payload = text[len("power="):].split(",")
        if len(payload) != 2:
            raise ValueError("expected power=KIND,M")
        kind, m = payload[0], int(payload[1])
        if kind not in ("euler_minus_lambda", "delta_a"):
            raise ValueError(f"unknown power kind {kind!r}")
        return ("power", kind, m)
    raise ValueError(f"unknown operation {text!r}")


def _cmd_apply(args) -> int:
    m = _canon(args)
    op = _parse_op(args.op)
    out = []
    for form in m.components() or (None,):
        if form is None:
            break
        if op[0] == "euler":
            out.append(operators.euler(form))
        elif op[0] == "dilate":
            out.append(operators.dilate(form, op[1]))
        elif op[0] == "delta":
            out.append(operators.delta(form, op[1], op[2]))
        else:
            _, kind, power = op
            if kind == "delta_a" and args.a is None:
                raise ValueError("power=delta_a,M needs --a")
            out.append(
                operators.op_power(kind, power, form, a=args.a)
            )
    result = MultiForm(args.n, out)
    _emit(args, result.to_dict())
    return 0


def _cmd_chain(args) -> int:
    m = _canon(args)
    if m.is_zero:
        raise ZeroInputError("chain of the zero form")
    payload = []
    for form in m.components():
        members = operators.chain(form)
        payload.append(
            {
                "degree": {"re": form.degree.real, "im": form.degree.imag},
                "order": form.order,
                "members": [g.to_dict() for g in members],
            }
        )
    _emit(args, payload)
    return 0


def _cmd_verify(args) -> int:
    m = _canon(args)
    if m.is_zero:
        raise ZeroInputError("verification of the zero form")
    if len(m.components()) != 1:
        raise ValueError("verify expects a single-degree expression")
    form = m.components()[0]
    lam = parse_complex(args.degree)
    report = operators.verify_qahd(
        form, lam, args.order, tuple(args.a_samples), seed=args.seed
    )
    _emit(args, report.to_dict())
    return 0 if report.verdict else 1


def _cmd_matrix(args) -> int:
    matrix = spectral.build_R(args.a, parse_complex(args.lam), args.size)
    _emit(args, matrix.to_dict())
    return 0


def _mk_testfn(args) -> pairing.TestFunction:
    center = tuple(args.center)
    if len(center) != args.n:
        raise ValueError(f"--center needs {args.n} components")
    return pairing.TestFunction(args.n, center, args.width)


def _single_form(args):
    m = _canon(args)
    if m.is_zero:
        return None
    if len(m.components()) != 1:
        raise ValueError("pairing expects a single-degree expression")
    return m.components()[0]


def _cmd_pair(args) -> int:
    phi = _mk_testfn(args)
    spec = pairing.QuadratureSpec(args.kr, args.kw)
    form = _single_form(args)
    value = complex(0) if form is None else pairing.pair(form, phi, spec)
    _emit(
        args,
        {
            "n": args.n,
            "test_function": phi.to_dict(),
            "quadrature": spec.to_dict(),
            "value": {"re": value.real, "im": value.imag},
        },
    )
    return 0


def _cmd_pair_verify(args) -> int:
    phi = _mk_testfn(args)
    spec = pairing.QuadratureSpec(args.kr, args.kw)
    form = _single_form(args)
    if form is None:
        raise ZeroInputError("pairing identity needs a nonzero form")
    report = pairing.verify_pairing_identity(
        form, phi, args.scale, spec, tolerance=args.tolerance
    )
    _emit(args, report)
    return 0 if report["verdict"] else 1


def _cmd_identify(args) -> int:
    tree = parse(args.expr, args.n)

    def f(points):
        return eval_expr(tree, points)

    if args.x0 is not None:
        if len(args.x0) != args.n:
            raise ValueError(f"--x0 needs {args.n} components")
        series = identify.sample_ray(f, tuple(args.x0), args.delta, args.M)
        lam, k, coeffs, residual = identify.prony_recover(series, args.kmax)
        payload = {
            "x0": list(series.x0),
            "delta": series.delta,
            "M": series.count,
            "lambda": {"re": lam.real, "im": lam.imag},
            "k": k,
            "fit_residual": residual,
            "ray_coefficients": [{"re": c.real, "im": c.imag} for c in coeffs],
        }
    else:
        lam, k, residual = identify.multi_probe_recover(
            f, args.n, args.kmax, delta=args.delta, count=args.M, seed=args.seed
        )
        payload = {
            "probes": 3 * args.n,
            "delta": args.delta,
            "M": args.M,
            "lambda": {"re": lam.real, "im": lam.imag},
            "k": k,
            "fit_residual": residual,
        }
    _emit(args, payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qahd",
        description="Symbolic-numeric engine for quasi-associated homogeneous "
        "distributions on R^n minus the origin.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, expr=True):
        if expr:
            p.add_argument("expr", help="expression in the input DSL")
            p.add_argument("-n", type=int, default=1, help="ambient dimension (default 1)")
        p.add_argument(
            "--format", choices=("json", "text"), default="json",
            help="output format (default json)",
        )
        p.add_argument("--seed", type=int, default=42,
                       help="RNG seed for sampled checks (default 42)")

    p = sub.add_parser("parse", help="parse and re-render an expression")
    common(p)
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("classify", help="degrees and orders of the canonical form")
    common(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("apply", help="apply an operator to the canonical form")
    common(p)
    p.add_argument(
        "--op", required=True,
        help="euler | dilate=A | delta=A,LAMBDA | power=KIND,M "
        "(KIND: euler_minus_lambda | delta_a)",
    )
    p.add_argument("--a", type=float, default=None,
                   help="scale for power=delta_a,M")
    p.set_defaults(fn=_cmd_apply)

    p = sub.add_parser("chain", help="Euler chain f_k, f_k-1, ..., f_0")
    common(p)
    p.set_defaults(fn=_cmd_chain)

    p = sub.add_parser("verify", help="check the four QAHD characterizations")
    common(p)
    p.add_argument("--degree", required=True, help="asserted degree (a or a+bi)")
    p.add_argument("--order", required=True, type=int, help="asserted order k")
    p.add_argument(
        "--a-samples", type=float, nargs="+",
        default=list(operators.DEFAULT_A_SAMPLES),
        help="dilation samples (default 0.5 2/3 e pi 10)",
    )
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("matrix", help="finite truncation of the dilation matrix R_a")
    common(p, expr=False)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--lambda", dest="lam", default="0", help="degree (a or a+bi)")
    p.add_argument("--size", type=int, default=4)
    p.set_defaults(fn=_cmd_matrix)

    def pairing_args(p):
        p.add_argument("--center", type=float, nargs="+", required=True)
        p.add_argument("--width", type=float, default=1.0)
        p.add_argument("--kr", type=int, default=64, help="radial nodes (default 64)")
        p.add_argument("--kw", type=int, default=64, help="angular nodes (default 64)")

    p = sub.add_parser("pair", help="distributional pairing <f, phi> by quadrature")
    common(p)
    pairing_args(p)
    p.set_defaults(fn=_cmd_pair)

    p = sub.add_parser("pair-verify", help="pairing form of the QAHD identity")
    common(p)
    pairing_args(p)
    p.add_argument("--scale", type=float, default=2.0, help="dilation a (default 2)")
    p.add_argument("--tolerance", type=float, default=pairing.DEFAULT_PAIR_TOLERANCE)
    p.set_defaults(fn=_cmd_pair_verify)

    p = sub.add_parser("identify", help="recover degree and order from ray samples")
    common(p)
    p.add_argument("--x0", type=float, nargs="+", default=None,
                   help="probe base point (default: multi-probe random directions)")
    p.add_argument("--delta", type=float, default=0.1, help="log step (default 0.1)")
    p.add_argument("--M", type=int, default=16, help="sample count (default 16)")
    p.add_argument("--kmax", type=int, default=4, help="largest order tried (default 4)")
    p.set_defaults(fn=_cmd_identify)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except NUMERIC_ERRORS as exc:
        return _fail(exc, 3)
    except INPUT_ERRORS as exc:
        return _fail(exc, 2)
    except QahdError as exc:
        return _fail(exc, 3)


def _fail(exc: Exception, code: int) -> int:
    """Write the JSON error envelope and return the exit code."""
    sys.stdout.write(
        _json.dumps({"error": type(exc).__name__, "message": str(exc)}, indent=2) + "\n"
    )
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
