"""Deterministic JSON writer: fixed field order, round-trip float repr, and
each complex z written as the object {"re": z.real, "im": z.imag}."""

from __future__ import annotations

import re

# JSON string escapes: backslash, quote and every control character below 0x20.
_NEEDS_ESCAPE = re.compile(r'[\x00-\x1f\\"]')
_ESCAPES = {i: f"\\u{i:04x}" for i in range(0x20)}
_ESCAPES.update({ord("\\"): "\\\\", ord('"'): '\\"', ord("\n"): "\\n",
                 ord("\r"): "\\r", ord("\t"): "\\t", ord("\b"): "\\b", ord("\f"): "\\f"})


def _fmt_float(v: float) -> str:
    if v != v or v in (float("inf"), float("-inf")):
        raise ValueError("non-finite value in report")
    return repr(float(v))


def dumps(obj, indent: int | None = None) -> str:
    out: list[str] = []
    _write(obj, out, indent, 0)
    return "".join(out)


def _write(obj, out, indent, level):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, complex):
        _write({"re": obj.real, "im": obj.imag}, out, indent, level)
    elif isinstance(obj, str):
        if _NEEDS_ESCAPE.search(obj):
            obj = obj.translate(_ESCAPES)
        out.append('"' + obj + '"')
    elif isinstance(obj, dict):
        _container(obj.items(), out, indent, level, "{}", key=True)
    elif isinstance(obj, (list, tuple)):
        _container(obj, out, indent, level, "[]", key=False)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _container(items, out, indent, level, braces, key):
    items = list(items)
    if not items:
        out.append(braces)
        return
    out.append(braces[0])
    sep_nl = "\n" + " " * (indent * (level + 1)) if indent else ""
    for idx, item in enumerate(items):
        if idx:
            out.append(",")
        out.append(sep_nl)
        if key:
            k, v = item
            _write(str(k), out, indent, level + 1)
            out.append(": " if indent else ":")
            _write(v, out, indent, level + 1)
        else:
            _write(item, out, indent, level + 1)
    if indent:
        out.append("\n" + " " * (indent * level))
    out.append(braces[1])
