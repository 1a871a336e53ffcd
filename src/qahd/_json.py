"""Deterministic JSON writer for the CLI's reports: a fixed two-space layout,
fixed field order, round-trip float repr, and each complex z written as the
object {"re": z.real, "im": z.imag}.

The bytes are those of `json.dumps(obj, indent=2, ensure_ascii=False,
allow_nan=False)`, which is slower here because its C encoder does not indent.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring


def dumps(obj) -> str:
    out: list[str] = []
    _write(obj, out, "\n")
    return "".join(out)


def _write(obj, out, nl):
    """Append obj to out; nl is the newline and indentation of obj's level."""
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError("non-finite value in report")
        out.append(float.__repr__(obj))  # numpy's repr names the type
    elif isinstance(obj, complex):
        _write({"re": obj.real, "im": obj.imag}, out, nl)
    elif isinstance(obj, str):
        out.append(encode_basestring(obj))
    elif isinstance(obj, dict):
        inner = nl + "  "
        opener = "{"
        for key, value in obj.items():
            out.append(opener + inner + encode_basestring(str(key)) + ": ")
            _write(value, out, inner)
            opener = ","
        out.append("{}" if not obj else nl + "}")
    elif isinstance(obj, (list, tuple)):
        inner = nl + "  "
        opener = "["
        for item in obj:
            out.append(opener + inner)
            _write(item, out, inner)
            opener = ","
        out.append("[]" if not obj else nl + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
