"""Admission: the count checks and the size and work limits every solver and suite applies first.

A run is refused before any compute if it needs more than MAX_GRID_POINTS
points or an estimated steps * terms * (points + _STEP_COST) above MAX_WORK
updates (terms: a sweep's atoms, the march's 1).  _STEP_COST prices a
step's fixed cost, which 1-point blocks and small grids do not amortise.
Measured (2-vCPU Xeon, NumPy 2.4): ~1-2 us per atom of a 1-point sweep
step, ~5-8 us per 3-node march step; so fixed-cost steps alone stop within
~40 s at the limit, and a full march within a minute.  The rule lives apart
from the kernels so that a command that runs none of them, such as the
axiom suite, does not load them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SizeError, ValidationError

MAX_GRID_POINTS = 1 << 26
MAX_WORK = 2 * 10**10
_STEP_COST = 4096  # updates that one step's fixed cost is priced at


def _check_n(n, what: str = "n", low: int = 1) -> int:
    """``n`` as an int, refusing non-integral, non-finite, boolean or too small values.

    ``int(n)`` alone would truncate 2.7 to 2 and answer for the wrong n.
    ``what`` names the quantity in the message and ``low`` is the least
    value accepted.
    """
    try:
        whole = int(n)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != n or isinstance(n, (bool, np.bool_)):
        raise ValidationError(f"need a whole number {what}, got {n!r}")
    if whole < low:
        raise ValidationError(f"need {what} >= {low}, got {whole}")
    return whole


def _admit(what, points, steps, terms, remedy):
    """Raise SizeError unless ``steps`` steps of ``terms`` per point on ``points`` points fit.

    In floats, a count past 1e308 or NaN read as inf; ``steps`` = 0 checks the points alone.
    """
    points, steps, terms = (float(v) if v < 1e308 else math.inf for v in (points, steps, terms))
    work = steps * terms * (points + _STEP_COST)
    for need, limit, unit in ((points, MAX_GRID_POINTS, "points"), (work, MAX_WORK, "updates")):
        if not need <= limit:
            # the fewest digits, 3 or more, at which the need reads above the limit (17 show any float)
            d = next(n for n in range(3, 18) if float(f"{need:.{n}g}") > float(f"{limit:.{n}g}"))
            raise SizeError(f"{what} would need about {need:.{d}g} {unit} (limit {limit:.{d}g}); {remedy}")
