"""Exact dynamic programming for sums of lattice variables under ambiguity.

The n-fold upper expectation of phi(S_n) is computed by backward induction:
one application of the one-step operator per summand, on the integer lattice,
so the only floating error is in the arithmetic itself.  A brute-force
oracle enumerates every adapted law-choice strategy for cross-checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import _kernels
from .ambiguity import AmbiguitySet, evaluate_on, indicator_of, upper_expectation
from .errors import CapacityError, DomainError, SizeError, ValidationError

MAX_GRID_POINTS = 1 << 26
DEFAULT_STRATEGY_CEILING = 10**6


@dataclass(frozen=True)
class LatticeGrid:
    """Contiguous block of lattice indices ``[min_index, max_index]``."""

    step: float
    min_index: int
    max_index: int

    def __post_init__(self):
        if not (np.isfinite(self.step) and self.step > 0.0):
            raise ValidationError(f"lattice step must be positive, got {self.step!r}")
        if self.max_index < self.min_index:
            raise ValidationError(
                f"empty lattice grid: [{self.min_index}, {self.max_index}]"
            )

    @property
    def size(self) -> int:
        return self.max_index - self.min_index + 1

    @property
    def points(self) -> np.ndarray:
        return np.arange(self.min_index, self.max_index + 1, dtype=np.int64) * self.step


@dataclass(frozen=True)
class GridFunction:
    """Function sampled on every point of a lattice grid."""

    grid: LatticeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (self.grid.size,):
            raise ValidationError(
                f"grid has {self.grid.size} points but got {values.shape} values"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def sample(cls, grid: LatticeGrid, f: Callable) -> "GridFunction":
        return cls(grid, evaluate_on(f, grid.points))

    def value_at_index(self, index: int) -> float:
        if not self.grid.min_index <= index <= self.grid.max_index:
            raise DomainError(
                f"lattice index {index} outside [{self.grid.min_index}, "
                f"{self.grid.max_index}]"
            )
        return float(self.values[index - self.grid.min_index])


def _sweep(aset: AmbiguitySet, values: np.ndarray, lo: int, hi: int, n_steps: int):
    """Apply the one-step operator ``n_steps`` times to ``values`` on ``[lo, hi]``.

    Each sweep keeps the largest index block on which every law's shifted
    support stays inside the previous block.  Yields ``(values, lo, hi)``
    for the block after each sweep.
    """
    k_lo, k_hi = aset.min_index(), aset.max_index()
    if hi - lo < n_steps * (k_hi - k_lo):
        raise DomainError(
            f"input domain [{lo}, {hi}] is too narrow: one step consumes "
            f"{-k_lo} indices on the left and {k_hi} on the right"
        )
    sizes = [law.indices.size for law in aset.laws]
    ptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=ptr[1:])
    ks = np.concatenate([law.indices for law in aset.laws]).astype(np.int64)
    ps = np.concatenate([law.probs for law in aset.laws]).astype(np.float64)
    plan = _kernels.dp_plan(ptr, ks, ps, -k_lo)
    for _ in range(n_steps):
        lo, hi = lo - k_lo, hi - k_hi
        values = _kernels.dp_step(values, ptr, ks, ps, -k_lo, hi - lo + 1, plan=plan)
        yield values, lo, hi


def one_step_operator(aset: AmbiguitySet, f: GridFunction) -> GridFunction:
    """Apply ``(Tf)(x) = max over laws of E[f(x + X)]`` on the lattice.

    The output domain is the largest index block on which every law's
    shifted support stays inside the input domain.
    """
    if f.grid.step != aset.step:
        raise ValidationError(
            f"grid step {f.grid.step!r} differs from law step {aset.step!r}"
        )
    values, lo, hi = next(_sweep(aset, f.values, f.grid.min_index, f.grid.max_index, 1))
    return GridFunction(LatticeGrid(aset.step, lo, hi), values)


def sum_expectations(aset: AmbiguitySet, ns: Sequence[int], phi: Callable) -> list[float]:
    """Upper expectations of ``phi(S_n)`` for every n in ``ns``, in order.

    ``W_m = T^m phi`` is the same for every n >= m, so one backward sweep
    on the block ``[-N*K, N*K]`` (N the largest n, K the largest absolute
    atom index) passes every n on its way and reads ``W_n`` at the origin.
    Each output node depends only on its own inputs, so every entry equals
    ``sum_expectation(aset, n, phi)`` bit for bit.
    """
    ns = [int(n) for n in ns]
    if not ns:
        raise ValidationError("need at least one n")
    if min(ns) < 1:
        raise ValidationError(f"need n >= 1, got {min(ns)}")
    n_max = max(ns)
    K = aset.max_abs_index
    size = 2 * n_max * K + 1
    if size > MAX_GRID_POINTS:
        raise SizeError(
            f"lattice block would need {size} points "
            f"(limit {MAX_GRID_POINTS}); reduce n or the atom span"
        )
    grid = LatticeGrid(aset.step, -n_max * K, n_max * K)
    wanted = set(ns)
    at_origin = {}
    sweeps = _sweep(aset, evaluate_on(phi, grid.points), grid.min_index, grid.max_index, n_max)
    for m, (values, lo, _) in enumerate(sweeps, start=1):
        if m in wanted:
            # every block of the sweep contains index 0
            at_origin[m] = float(values[-lo])
    return [at_origin[n] for n in ns]


def sum_expectation(aset: AmbiguitySet, n: int, phi: Callable) -> float:
    """Upper expectation of ``phi(S_n)`` for the n-fold independent sum.

    Backward induction on the lattice block ``[-n*K, n*K]`` with K the
    largest absolute atom index, finishing at the origin.
    """
    return sum_expectations(aset, [n], phi)[0]


def normalized_sum_expectation(aset: AmbiguitySet, n: int, phi: Callable) -> float:
    """Upper expectation of ``phi(S_n / sqrt(n))``."""
    scale = 1.0 / np.sqrt(float(n))

    def scaled(x):
        return phi(np.asarray(x, dtype=np.float64) * scale)

    return sum_expectation(aset, n, scaled)


def reachable_index_sets(aset: AmbiguitySet, n: int) -> list[np.ndarray]:
    """Sorted lattice-index sets reachable by the partial sums S_0 .. S_n."""
    atoms = np.unique(np.concatenate([law.indices for law in aset.laws]))
    sets = [np.zeros(1, dtype=np.int64)]
    for _ in range(n):
        nxt = np.unique((sets[-1][:, None] + atoms[None, :]).ravel())
        sets.append(nxt)
    return sets


def _reachable_state_count(aset: AmbiguitySet, n: int) -> int:
    """Total size of the reachable index sets of S_0 .. S_{n-1}.

    One level is kept at a time, as maximal runs ``[starts[i], ends[i]]`` of
    consecutive indices: the next level is the union of the runs shifted by
    every atom, merged where they overlap or touch.  A level never has more
    runs than points, and once a walk fills its span it is a single run, so
    this costs far less than listing the sets.
    """
    atoms = np.unique(np.concatenate([law.indices for law in aset.laws]))
    starts = ends = np.zeros(1, dtype=np.int64)
    total = 0
    for _ in range(n):
        total += int((ends - starts).sum()) + starts.size
        s = (starts[:, None] + atoms).ravel()
        e = (ends[:, None] + atoms).ravel()
        order = np.argsort(s)
        s = s[order]
        reach = np.maximum.accumulate(e[order])
        head = np.flatnonzero(s[1:] > reach[:-1] + 1) + 1
        starts = np.concatenate((s[:1], s[head]))
        ends = np.append(reach[head - 1], reach[-1])
    return total


def count_adapted_strategies(aset: AmbiguitySet, n: int) -> int:
    """Number of adapted law-choice strategies for an n-step sum.

    A strategy picks one law per (step, current partial sum) pair, so the
    count is the product over steps of laws ** reachable_states.
    """
    n = int(n)
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    return len(aset.laws) ** _reachable_state_count(aset, n)


def _transition_tensor(aset: AmbiguitySet, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """T[l, i, j] = P(law l steps from src[i] to dst[j])."""
    T = np.zeros((len(aset.laws), src.size, dst.size))
    rows = np.arange(src.size)
    for l, law in enumerate(aset.laws):
        for k, p in zip(law.indices, law.probs):
            cols = np.searchsorted(dst, src + k)
            T[l, rows, cols] += p
    return T


def _enumerate_strategy_distributions(aset: AmbiguitySet, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Terminal distributions of every adapted strategy.

    Returns ``(dists, terminal_indices)`` with one row of ``dists`` per
    strategy, in the lexicographic order of the per-state law choices.
    """
    n_laws = len(aset.laws)
    sets = reachable_index_sets(aset, n)
    dists = np.ones((1, 1))
    for level in range(n):
        src, dst = sets[level], sets[level + 1]
        T = _transition_tensor(aset, src, dst)
        rows = np.arange(src.size)
        blocks = [
            dists @ T[np.asarray(m, dtype=np.intp), rows, :]
            for m in itertools.product(range(n_laws), repeat=src.size)
        ]
        dists = np.vstack(blocks)
    return dists, sets[-1]


def _count_text(n_laws: int, n_states: int) -> str:
    """``n_laws ** n_states`` in digits below 10^18, else a power-of-ten bound.

    ``L ** S >= 2**60 > 10**18`` once S reaches 60 with L >= 2.  The bound
    uses ``floor(S * log2 L)``, the bit length of ``L ** S`` less one, so a
    count of millions of digits is never built.
    """
    if n_laws ** min(n_states, 60) < 10**18:
        return str(n_laws**n_states)
    bits = math.floor(n_states * math.log2(n_laws))
    return f"at least 10^{int(bits * math.log10(2.0))}"


def brute_force_adapted_oracle(
    aset: AmbiguitySet,
    n: int,
    phi: Callable,
    ceiling: int = DEFAULT_STRATEGY_CEILING,
) -> float:
    """Max of ``E[phi(S_n)]`` over every adapted law-choice strategy.

    Exponential in the reachable state counts; refuses to start when the
    strategy count exceeds ``ceiling``.
    """
    vals = brute_force_adapted_oracle_many(aset, n, [phi], ceiling)
    return vals[0]


def brute_force_adapted_oracle_many(
    aset: AmbiguitySet,
    n: int,
    phis: Sequence[Callable],
    ceiling: int = DEFAULT_STRATEGY_CEILING,
) -> list[float]:
    """One enumeration shared across several payoff functions."""
    n = int(n)
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    n_laws = len(aset.laws)
    n_states = _reachable_state_count(aset, n)
    # With L >= 2 laws, L ** S exceeds the ceiling as soon as S exceeds its
    # bit length, so capping S there keeps the comparison exact and the
    # power small.
    if n_laws ** min(n_states, int(ceiling).bit_length() + 1) > ceiling:
        raise CapacityError(
            f"{_count_text(n_laws, n_states)} adapted strategies exceed the ceiling {ceiling}; "
            "the brute-force oracle refuses to enumerate"
        )
    dists, terminal = _enumerate_strategy_distributions(aset, n)
    points = terminal * aset.step
    return [float((dists @ evaluate_on(phi, points)).max()) for phi in phis]


def joint_expectation(xset: AmbiguitySet, yset: AmbiguitySet, f: Callable) -> float:
    """Upper expectation of ``f(X, Y)`` with Y independent of X.

    Computed by the iterated construction: integrate out Y at each fixed x,
    then take the upper expectation of the resulting function of x.  ``f``
    is evaluated once on the grid of X-support by Y-support points; each
    law's expectation is the same 1-D ``probs @ values`` dot on a contiguous
    row that ``upper_expectation`` would take, so the bits match it.
    """
    xs = np.unique(np.concatenate([law.support for law in xset.laws]))
    ys = np.unique(np.concatenate([law.support for law in yset.laws]))
    grid = evaluate_on(f, *np.meshgrid(xs, ys, indexing="ij"))
    inner = np.full(xs.size, -np.inf)
    for law in yset.laws:
        # np.take keeps rows C-contiguous; a strided dot may sum in another order
        cols = np.take(grid, np.searchsorted(ys, law.support), axis=1)
        for i in range(xs.size):
            inner[i] = max(inner[i], float(law.probs @ cols[i]))
    return max(
        float(law.probs @ inner[np.searchsorted(xs, law.support)]) for law in xset.laws
    )


@dataclass(frozen=True)
class IndependenceCheck:
    """Joint-vs-product capacities for a pair of marginal events."""

    joint_upper: float
    product_upper: float
    joint_lower: float
    product_lower: float
    tol: float

    @property
    def upper_gap(self) -> float:
        return abs(self.joint_upper - self.product_upper)

    @property
    def lower_gap(self) -> float:
        return abs(self.joint_lower - self.product_lower)

    @property
    def passed(self) -> bool:
        return self.upper_gap <= self.tol and self.lower_gap <= self.tol


def pairwise_independence_check(
    xset: AmbiguitySet,
    yset: AmbiguitySet,
    event_x: Callable,
    event_y: Callable,
    tol: float = 1e-12,
) -> IndependenceCheck:
    """Check the product rule for both capacities on a rectangle event.

    For events D and G the upper capacity of {X in D, Y in G} must equal
    the product of the marginal upper capacities, and likewise for the
    lower capacities.
    """
    ind_x = indicator_of(event_x)
    ind_y = indicator_of(event_y)

    def rect(x, y):
        return ind_x(x) * ind_y(y)

    def neg_rect(x, y):
        return -(ind_x(x) * ind_y(y))

    joint_upper = joint_expectation(xset, yset, rect)
    product_upper = upper_expectation(xset, ind_x) * upper_expectation(yset, ind_y)
    joint_lower = -joint_expectation(xset, yset, neg_rect)
    low_x = -upper_expectation(xset, lambda x: -ind_x(x))
    low_y = -upper_expectation(yset, lambda y: -ind_y(y))
    product_lower = low_x * low_y
    return IndependenceCheck(joint_upper, product_upper, joint_lower, product_lower, tol)
