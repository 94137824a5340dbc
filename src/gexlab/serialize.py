"""Byte-stable JSON and CSV reports and their one atomic file writer.

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


def _fmt_scalar(x: Any) -> str:
    """The one rendering of a bool, int or float, shared by JSON and CSV."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return fmt_float(x)
    raise ValidationError(f"cannot serialize object of type {type(x).__name__}")


def dumps_json(obj: Any) -> str:
    """Serialize to JSON text with deterministic float formatting."""
    return _json(obj, "") + "\n"


def _json_key(key: Any) -> str:
    if not isinstance(key, str):
        raise ValidationError(f"JSON keys must be strings, got {key!r}")
    return json.dumps(key, ensure_ascii=True)


def _json(obj: Any, pad: str) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if not isinstance(obj, (dict, list, tuple)):
        return _fmt_scalar(obj)
    inner = pad + " " * JSON_INDENT
    if isinstance(obj, dict):
        brackets, items = "{}", [f"{_json_key(k)}: {_json(v, inner)}" for k, v in obj.items()]
    else:
        brackets, items = "[]", [_json(v, inner) for v in obj]
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"


def dumps_csv(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Serialize rows to CSV text; no quoting, values must be comma-free."""
    lines = [",".join(header)] + [",".join(map(_csv_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _csv_cell(x: Any) -> str:
    if not isinstance(x, str):
        return _fmt_scalar(x)
    if "," in x or "\n" in x:
        raise ValidationError(f"CSV cell {x!r} needs quoting, refusing")
    return x


def write_text(path: str, text: str) -> None:
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
