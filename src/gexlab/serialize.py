"""Byte-stable JSON and CSV writers.

Reports must be reproducible byte for byte across runs and platforms, so
floats are always rendered with repr-safe 17 significant digits, keys keep
insertion order, and line endings are LF regardless of platform.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import ValidationError

JSON_INDENT = 2


def fmt_float(x: float) -> str:
    """Render a finite float with 17 significant digits."""
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError(f"cannot serialize non-finite value {x!r}")
    if x == 0.0:
        x = 0.0  # normalize -0.0 so reports never show a signed zero
    return format(x, ".17g")


def _fmt_cell(x: Any) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return fmt_float(float(x))
    if isinstance(x, str):
        return x
    raise ValidationError(f"cannot serialize cell of type {type(x).__name__}")


def dumps_json(obj: Any) -> str:
    """Serialize to JSON text with deterministic float formatting."""
    out: list[str] = []
    _emit(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _emit(obj: Any, out: list[str], depth: int) -> None:
    pad = " " * (JSON_INDENT * depth)
    inner = " " * (JSON_INDENT * (depth + 1))
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for i, (k, v) in enumerate(items):
            if not isinstance(k, str):
                raise ValidationError(f"JSON keys must be strings, got {k!r}")
            out.append(inner)
            out.append(json.dumps(k, ensure_ascii=True))
            out.append(": ")
            _emit(v, out, depth + 1)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(inner)
            _emit(v, out, depth + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    else:
        raise ValidationError(f"cannot serialize object of type {type(obj).__name__}")


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically.

    The text goes to a fresh temp file beside the target (mode 0o666 less
    the umask, as a plain ``open`` would create), which is renamed over the
    target only once fully written.  A failed write leaves the previous
    report intact and removes the temp file.  Writing through a symlink
    replaces the file it points to and keeps the link.  An ``OSError``
    names ``path``, never the temp file.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        # a pipe or device (``--out /dev/stdout``) holds no report to keep,
        # and a rename would replace it with a plain file: write in place
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        return
    target = os.path.realpath(path)
    tmp = f"{target}.{os.urandom(6).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        # the temp file's random name would make the message differ per run
        raise OSError(exc.errno, exc.strerror, path) from exc


def write_json(path: str, obj: Any) -> None:
    # serialize first, so a report that cannot be written leaves no file
    _write_text(path, dumps_json(obj))


def dumps_csv(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Serialize rows to CSV text; no quoting, values must be comma-free."""
    lines = [",".join(header)]
    for row in rows:
        cells = [_fmt_cell(c) for c in row]
        for c in cells:
            if "," in c or "\n" in c:
                raise ValidationError(f"CSV cell {c!r} needs quoting, refusing")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    _write_text(path, dumps_csv(header, rows))
