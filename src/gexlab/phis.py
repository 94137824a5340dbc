"""Catalog of named test functions for expectations and terminal data.

Each entry carries the metadata the solvers need: a polynomial growth
exponent (|phi(x)| <= C*(1+|x|**p)), a convexity tag, and a margin that
widens PDE domains for shifted shapes like ramp and clamp.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import ValidationError, _Frozen


def _arg_text(a: float) -> str:
    """Short ``:g`` text when it parses back to ``a``, else the exact ``repr``."""
    text = f"{a:g}"
    return text if float(text) == a else repr(a)


class PhiSpec(_Frozen):
    """A named test function with solver-relevant metadata.

    ``convexity`` is "convex", "concave" or "neither".  Two specs are equal,
    and hash alike, when all but ``fn`` are, so reports that hold one
    compare by value.
    """

    __slots__ = ("name", "args", "growth_exponent", "convexity", "margin", "fn")

    def __init__(self, name: str, args: tuple[float, ...], growth_exponent: float,
                 convexity: str, margin: float, fn: Callable):
        self._set(name=name, args=args, growth_exponent=growth_exponent,
                  convexity=convexity, margin=margin, fn=fn)

    def _key(self) -> tuple:
        return self.name, self.args, self.growth_exponent, self.convexity, self.margin

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is PhiSpec else NotImplemented

    def __hash__(self):
        return hash(self._key())

    @property
    def label(self) -> str:
        """Round-trippable name; args joined with ';' so CSV cells stay comma-free."""
        if not self.args:
            return self.name
        return self.name + ":" + ";".join(_arg_text(a) for a in self.args)

    def to_dict(self) -> dict:
        """Report projection shared by every report that names its phi."""
        return {
            "name": self.name,
            "args": list(self.args),
            "growthExponent": self.growth_exponent,
            "convexityTag": self.convexity,
        }

    def __call__(self, x):
        return self.fn(x)


def _cube(x):
    x = np.asarray(x, dtype=np.float64)
    return x * x * x


def _quartic(x):
    x = np.asarray(x, dtype=np.float64)
    return np.square(np.square(x))


def _abspow(r):
    return (lambda x: np.abs(x) ** r), r, "convex" if r >= 1.0 else "neither", 0.0


def _ramp(a):
    return (lambda x: np.maximum(np.asarray(x, dtype=np.float64) - a, 0.0)), 1.0, "convex", abs(a)


def _clamp(a, b):
    fn = lambda x: np.clip(np.asarray(x, dtype=np.float64), a, b)
    return fn, 1.0, "neither", max(abs(a), abs(b))


def _indicator(a, b):
    def fn(x):
        x = np.asarray(x, dtype=np.float64)
        return ((x >= a) & (x <= b)).astype(np.float64)

    return fn, 0.0, "neither", max(abs(a), abs(b))


class _Shape(NamedTuple):
    """One catalog row."""

    build: Callable  # (*args) -> (fn, growth exponent, convexity, margin)
    arity: int = 0
    need: str = ""  # the condition on the finite arguments, as error text
    ok: Callable = lambda *args: True
    draw: tuple[float, float] = (0.0, 0.0)  # the fuzz suites draw each argument from this range


def _ordered(a, b):
    return a <= b


# In the order the fuzz suites draw from, which fixes their report bytes.
CATALOG = {
    "abs": _Shape(lambda: (np.abs, 1.0, "convex", 0.0)),
    "square": _Shape(lambda: (np.square, 2.0, "convex", 0.0)),
    "cube": _Shape(lambda: (_cube, 3.0, "neither", 0.0)),
    "quartic": _Shape(lambda: (_quartic, 4.0, "convex", 0.0)),
    "negsquare": _Shape(lambda: ((lambda x: -np.square(x)), 2.0, "concave", 0.0)),
    "negabs": _Shape(lambda: ((lambda x: -np.abs(x)), 1.0, "concave", 0.0)),
    "abspow": _Shape(_abspow, 1, "r > 0", lambda r: r > 0.0, (0.5, 4.0)),
    "ramp": _Shape(_ramp, 1, "a", draw=(-2.0, 2.0)),
    "clamp": _Shape(_clamp, 2, "a <= b", _ordered, (-2.0, 2.0)),
    "indicator": _Shape(_indicator, 2, "a <= b", _ordered, (-2.0, 2.0)),
}


def make_phi(name: str, *args: float) -> PhiSpec:
    """Build a catalog function by name; ``CATALOG`` lists each shape's arguments."""
    args = tuple(float(a) for a in args)
    shape = CATALOG.get(name)
    if shape is None:
        raise ValidationError(f"unknown phi name {name!r}")
    if len(args) != shape.arity:
        raise ValidationError(f"phi {name!r} takes {shape.arity} argument(s), got {args!r}")
    if not (all(map(math.isfinite, args)) and shape.ok(*args)):
        raise ValidationError(f"phi {name!r} needs finite {shape.need}, got {args!r}")
    fn, growth, convexity, margin = shape.build(*args)
    return PhiSpec(name, args, growth, convexity, margin, fn)


def parse_phi(text: str) -> PhiSpec:
    """Parse ``"name"`` or ``"name:a1,a2"`` (``;`` also separates args)."""
    text = text.strip()
    if not text:
        raise ValidationError("empty phi string")
    name, sep, tail = text.partition(":")
    name = name.strip()
    if not sep:
        return make_phi(name)
    parts = [s.strip() for s in tail.replace(";", ",").split(",")]
    try:
        args = [float(s) for s in parts]
    except ValueError:
        raise ValidationError(f"could not parse phi arguments in {text!r}") from None
    return make_phi(name, *args)
