"""Catalog of named test functions for expectations and terminal data.

Each entry carries the metadata the solvers need: a polynomial growth
exponent (|phi(x)| <= C*(1+|x|**p)), a convexity tag, and a margin that
widens PDE domains for shifted shapes like ramp and clamp.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class PhiSpec:
    """A named test function with solver-relevant metadata."""

    name: str
    args: tuple[float, ...]
    growth_exponent: float
    convexity: str  # "convex" | "concave" | "neither"
    margin: float
    fn: Callable = field(compare=False, repr=False)

    @property
    def label(self) -> str:
        """Round-trippable name; args joined with ';' so CSV cells stay comma-free."""
        if not self.args:
            return self.name
        return self.name + ":" + ";".join(f"{a:g}" for a in self.args)

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


def _abs(x):
    return np.abs(x)


def _square(x):
    return np.square(x)


def _cube(x):
    x = np.asarray(x, dtype=np.float64)
    return x * x * x


def _quartic(x):
    x = np.asarray(x, dtype=np.float64)
    return np.square(np.square(x))


def _negsquare(x):
    return -np.square(x)


def _negabs(x):
    return -np.abs(x)


def make_phi(name: str, *args: float) -> PhiSpec:
    """Build a catalog function by name.

    Parameterized shapes: abspow(r) with r > 0, ramp(a), clamp(a, b) with
    a <= b, indicator(a, b) with a <= b.  The rest take no arguments.
    """
    args = tuple(float(a) for a in args)
    plain = {
        "abs": (_abs, 1.0, "convex"),
        "square": (_square, 2.0, "convex"),
        "cube": (_cube, 3.0, "neither"),
        "quartic": (_quartic, 4.0, "convex"),
        "negsquare": (_negsquare, 2.0, "concave"),
        "negabs": (_negabs, 1.0, "concave"),
    }
    if name in plain:
        if args:
            raise ValidationError(f"phi {name!r} takes no arguments, got {args!r}")
        fn, p, conv = plain[name]
        return PhiSpec(name, (), p, conv, 0.0, fn)
    if name == "abspow":
        if len(args) != 1:
            raise ValidationError(f"abspow takes one exponent argument, got {args!r}")
        r = args[0]
        if not (np.isfinite(r) and r > 0.0):
            raise ValidationError(f"abspow exponent must be positive, got {r!r}")

        def f(x, r=r):
            return np.abs(x) ** r

        conv = "convex" if r >= 1.0 else "neither"
        return PhiSpec("abspow", (r,), r, conv, 0.0, f)
    if name == "ramp":
        if len(args) != 1:
            raise ValidationError(f"ramp takes one threshold argument, got {args!r}")
        a = args[0]
        if not np.isfinite(a):
            raise ValidationError(f"ramp threshold must be finite, got {a!r}")

        def f(x, a=a):
            return np.maximum(np.asarray(x, dtype=np.float64) - a, 0.0)

        return PhiSpec("ramp", (a,), 1.0, "convex", abs(a), f)
    if name == "clamp":
        if len(args) != 2:
            raise ValidationError(f"clamp takes two arguments, got {args!r}")
        a, b = args
        if not (np.isfinite(a) and np.isfinite(b) and a <= b):
            raise ValidationError(f"clamp needs finite a <= b, got {args!r}")

        def f(x, a=a, b=b):
            return np.clip(np.asarray(x, dtype=np.float64), a, b)

        return PhiSpec("clamp", (a, b), 1.0, "neither", max(abs(a), abs(b)), f)
    if name == "indicator":
        if len(args) != 2:
            raise ValidationError(f"indicator takes two arguments, got {args!r}")
        a, b = args
        if not (np.isfinite(a) and np.isfinite(b) and a <= b):
            raise ValidationError(f"indicator needs finite a <= b, got {args!r}")

        def f(x, a=a, b=b):
            x = np.asarray(x, dtype=np.float64)
            return ((x >= a) & (x <= b)).astype(np.float64)

        return PhiSpec("indicator", (a, b), 0.0, "neither", max(abs(a), abs(b)), f)
    raise ValidationError(f"unknown phi name {name!r}")


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


CATALOG_PLAIN = ("abs", "square", "cube", "quartic", "negsquare", "negabs")
