"""Finite ambiguity sets of discrete laws and their sublinear expectations.

A law lives on a shared lattice ``h*Z`` and is stored as integer lattice
indices plus probabilities.  The upper expectation of a function is the
maximum of its per-law linear expectations; the lower expectation, the
capacity pair and the moment envelope all derive from it.  Functions are
evaluated once on a family's union support, so they must be pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import EvaluationError, ValidationError

PROB_TOL = 1e-12


def evaluate_on(f: Callable, *points: np.ndarray) -> np.ndarray:
    """Evaluate ``f`` on arrays of points, accepting scalar-only callables.

    ``f`` takes one argument per array (``x``, or ``x`` and ``y`` for a
    joint function); all arrays share one shape, which the result has too.
    Raises EvaluationError naming the first offending point if any value is
    non-finite.
    """
    points = tuple(np.asarray(p, dtype=np.float64) for p in points)
    shape = points[0].shape
    vals = None
    try:
        out = f(*points)
        arr = np.asarray(out, dtype=np.float64)
        if arr.shape == shape:
            vals = arr
    except (TypeError, ValueError):
        vals = None
    if vals is None:
        flat = zip(*(p.ravel() for p in points))
        vals = np.array([float(f(*at)) for at in flat], dtype=np.float64).reshape(shape)
    bad = ~np.isfinite(vals)
    if bad.any():
        where = int(np.argmax(bad))
        at = ", ".join(f"{name}={float(p.flat[where])!r}" for name, p in zip("xy", points))
        raise EvaluationError(
            f"function returned non-finite value {float(vals.flat[where])!r} "
            f"at support point {at}"
        )
    return vals


def indicator_of(event: Callable) -> Callable:
    """Turn a predicate into a 0/1-valued function usable as an integrand.

    Any truthy value counts as 1.  A predicate that only takes scalars is
    evaluated point by point by ``evaluate_on``.
    """

    def f(x):
        return np.asarray(event(x), dtype=bool).astype(np.float64)

    return f


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """One prior law: finite support on the lattice ``step*Z``.

    ``indices`` are strictly increasing integer lattice indices in
    ``[-2^53, 2^53]``, where ``indices * step`` converts them to floats
    exactly; support point j is ``indices[j] * step``.  Probabilities must
    be non-negative and sum to 1 within PROB_TOL; inputs that miss that
    are rejected rather than renormalized.
    """

    step: float
    indices: np.ndarray = field(repr=False)
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        step = float(self.step)
        span = "lattice indices must be integers in [-2^53, 2^53]"
        # converted through Python values, since numpy's float-array cast warns on NaN, inf or > int64
        raw = np.asarray(self.indices).tolist()
        try:
            indices = np.asarray(raw, dtype=np.int64)
        except (OverflowError, ValueError):  # an index past int64, NaN or infinite
            raise ValidationError(span) from None
        probs = np.asarray(self.probs, dtype=np.float64)
        if not (np.isfinite(step) and step > 0.0):
            raise ValidationError(f"lattice step must be positive, got {step!r}")
        if indices.ndim != 1 or indices.size == 0:
            raise ValidationError("atom list must be a non-empty 1-d sequence")
        if probs.shape != indices.shape:
            raise ValidationError(
                f"got {indices.size} lattice indices but {probs.size} probabilities"
            )
        # a fraction cut off, an index wrapped, or (if the order holds) an index past 2^53
        if indices.tolist() != raw or indices[0] < -(2**53) or indices[-1] > 2**53:
            raise ValidationError(span)
        if np.any(indices[1:] <= indices[:-1]):
            raise ValidationError("lattice indices must be strictly increasing")
        if np.any(probs < 0.0) or not np.isfinite(probs).all():
            raise ValidationError("probabilities must be finite and non-negative")
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError(
                f"probabilities sum to {total!r}, not 1 within {PROB_TOL:g} "
                "(renormalization is refused)"
            )
        indices.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def from_atoms(cls, step: float, atoms: Sequence[tuple[int, float]]) -> "DiscreteDistribution":
        """Build from ``(lattice index, probability)`` pairs."""
        return cls(step, [k for k, _ in atoms], [p for _, p in atoms])

    @property
    def atoms(self) -> list[tuple[int, float]]:
        return list(zip(self.indices.tolist(), self.probs.tolist()))

    @property
    def support(self) -> np.ndarray:
        """Support points ``indices * step``."""
        return self.indices * self.step

    def mean(self) -> float:
        return float(self.probs @ self.support)

    def expectation(self, f: Callable) -> float:
        """Classical linear expectation of ``f`` under this law."""
        return float(self.probs @ evaluate_on(f, self.support))


@dataclass(frozen=True, eq=False)
class AmbiguitySet:
    """A finite family of laws sharing one lattice step.

    ``indices`` is the sorted union of the laws' lattice indices, ``support``
    its points, and ``columns[i]`` the positions of law i's atoms in both.
    """

    laws: tuple[DiscreteDistribution, ...]
    labels: tuple[str, ...] | None = None
    indices: np.ndarray = field(init=False, repr=False)
    support: np.ndarray = field(init=False, repr=False)
    columns: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        laws = tuple(self.laws)
        if len(laws) == 0:
            raise ValidationError("ambiguity set needs at least one law")
        step = laws[0].step
        for i, law in enumerate(laws):
            if law.step != step:
                raise ValidationError(
                    f"law {i} has step {law.step!r}, expected common step {step!r}"
                )
        labels = self.labels
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != len(laws):
                raise ValidationError(
                    f"{len(labels)} labels for {len(laws)} laws"
                )
        # not np.unique: its first call imports numpy.ma, ~17 ms per CLI call
        indices = np.array(sorted({k for law in laws for k in law.indices.tolist()}))
        support = indices * step
        columns = tuple(np.searchsorted(indices, law.indices) for law in laws)
        for arr in (indices, support, *columns):
            arr.setflags(write=False)
        object.__setattr__(self, "laws", laws)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "columns", columns)

    @property
    def step(self) -> float:
        return self.laws[0].step

    def label_of(self, i: int) -> str:
        if self.labels is not None:
            return self.labels[i]
        return f"law {i}"

    def expectations(self, values: np.ndarray) -> np.ndarray:
        """Per-law expectations of ``values`` on ``support``, bit-equal to ``law.expectation``."""
        return np.array([law.probs @ values[cols] for law, cols in zip(self.laws, self.columns)])


@dataclass(frozen=True)
class MomentEnvelope:
    """Mean and second-raw-moment bounds of an ambiguity set."""

    mean_lower: float
    mean_upper: float
    var_lower: float
    var_upper: float

    def __post_init__(self):
        if not self.mean_lower <= self.mean_upper:
            raise ValidationError("mean_lower must not exceed mean_upper")
        if not 0.0 <= self.var_lower <= self.var_upper:
            raise ValidationError("need 0 <= var_lower <= var_upper")


def per_law_expectations(aset: AmbiguitySet, f: Callable) -> np.ndarray:
    """Vector of classical expectations of ``f``, one entry per law.

    ``f`` is evaluated once, on ``aset.support``, so it must be pointwise.
    """
    return aset.expectations(evaluate_on(f, aset.support))


def upper_expectation(aset: AmbiguitySet, f: Callable) -> float:
    """Sublinear (upper) expectation: max of the per-law expectations."""
    return float(per_law_expectations(aset, f).max())


def _upper(aset: AmbiguitySet, values: np.ndarray) -> float:
    """Upper expectation of ``values`` sampled on ``aset.support``."""
    return float(aset.expectations(values).max())


def _lower(aset: AmbiguitySet, values: np.ndarray) -> float:
    """Lower expectation ``-upper(-values)``, sign of zero included."""
    return -_upper(aset, -values)


def lower_expectation(aset: AmbiguitySet, f: Callable) -> float:
    """Lower expectation, defined as ``-upper_expectation(set, -f)``."""
    return _lower(aset, evaluate_on(f, aset.support))


def capacity_pair(aset: AmbiguitySet, event: Callable) -> tuple[float, float]:
    """Upper and lower capacity ``(V, v)`` of an event predicate."""
    ind = evaluate_on(indicator_of(event), aset.support)
    return _upper(aset, ind), _lower(aset, ind)


def moment_envelope(aset: AmbiguitySet) -> MomentEnvelope:
    """Envelope of means and second raw moments over the family.

    The variance bounds are raw second moments; callers needing centered
    variances must check the mean-zero property first.
    """
    x = evaluate_on(np.positive, aset.support)
    x2 = evaluate_on(np.square, aset.support)
    return MomentEnvelope(_lower(aset, x), _upper(aset, x), _lower(aset, x2), _upper(aset, x2))
