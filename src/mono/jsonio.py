"""Canonical JSON emission and atomic file writes.

Floats are rendered with %.17g (and a forced decimal point so they
round-trip as floats), keys are sorted, and separators are fixed, so
equal payloads serialize byte-identically and a serialize-parse-
serialize round trip is a fixed point.  Nesting indents by two spaces.
A complex number is written as the pair [re, im] of two such floats;
this module is the one place that knows that format.
"""

from __future__ import annotations

import json
import math
import os

from .errors import PreconditionError

_INDENT = "  "


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise PreconditionError(f"non-finite float {x!r} has no canonical form")
    s = "%.17g" % x
    # keep the value a float on re-parse
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def _emit(obj, out: list[str], level: int) -> None:
    pad = _INDENT * level
    pad_in = _INDENT * (level + 1)
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(repr(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, complex):
        _emit([obj.real, obj.imag], out, level)
    elif isinstance(obj, (dict, list, tuple)):
        if isinstance(obj, dict):
            if any(not isinstance(k, str) for k in obj):
                raise PreconditionError("canonical JSON requires string keys")
            brackets = "{}"
            items = [(json.dumps(k, ensure_ascii=True) + ": ", obj[k]) for k in sorted(obj)]
        else:
            brackets, items = "[]", [("", v) for v in obj]
        if not items:
            out.append(brackets)
            return
        out.append(brackets[0] + "\n")
        for i, (key, v) in enumerate(items):
            out.append(pad_in + key)
            _emit(v, out, level + 1)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + brackets[1])
    else:
        raise PreconditionError(f"cannot canonicalize {type(obj).__name__}")


def canonical_json(obj) -> str:
    out: list[str] = []
    _emit(obj, out, 0)
    out.append("\n")
    return "".join(out)


def atomic_write_text(path, text: str) -> str:
    """Write text to path via a same-directory temp file and os.replace.

    A failed write raises PreconditionError naming the path: an
    unwritable output path is bad input.
    """
    path = os.fspath(path)
    try:
        _replace(path, text)
    except OSError as exc:
        raise PreconditionError(f"cannot write {path}: {exc.strerror or exc}") from None
    return path


def _replace(path: str, text: str) -> None:
    import tempfile  # with random, a few ms of every start; only file output needs it

    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
