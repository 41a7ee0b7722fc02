"""Deterministic CSV/JSON serialization.

All floats are written with 17 significant digits so identical inputs give
byte-identical files; JSON objects are emitted with sorted keys, CSV with LF
line endings and '.' decimal separator.
"""

from __future__ import annotations

import math
from typing import Any


def format_float(x: float) -> str:
    if isinstance(x, float) and (math.isnan(x) or math.isinf(x)):
        raise ValueError("non-finite value in output")
    return format(x, ".17g")


def dumps_json(obj: Any) -> str:
    """Serialize to JSON with sorted keys, two-space indent and fixed float formatting."""
    out: list[str] = []
    _encode(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _encode(obj: Any, out: list[str], level: int) -> None:
    pad = "  " * (level + 1)
    close_pad = "  " * level
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(_escape(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj)
        for i, k in enumerate(keys):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {k!r}")
            out.append(pad + _escape(k) + ": ")
            _encode(obj[k], out, level + 1)
            out.append(",\n" if i < len(keys) - 1 else "\n")
        out.append(close_pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(obj):
            out.append(pad)
            _encode(item, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(close_pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _escape(s: str) -> str:
    # json.dumps(s, ensure_ascii=False) without its per-call set-up.  Imported
    # here so CSV output loads no json; a plain import statement, because a
    # from-import in a function costs three times as much per call.
    import json.encoder

    return json.encoder.encode_basestring(s)


def render_csv(header: list[str], rows: list[list]) -> str:
    """CSV text with LF endings; floats formatted, other cells stringified."""
    lines = [",".join(header)]
    for row in rows:
        cells = [format_float(c) if isinstance(c, float) else str(c) for c in row]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
