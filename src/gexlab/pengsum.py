"""Exact dynamic programming for sums of lattice variables under ambiguity.

The n-fold upper expectation of phi(S_n) is computed by backward induction:
one application of the one-step operator per summand, on the integer lattice,
so the only floating error is in the arithmetic itself.  A brute-force
oracle enumerates every adapted law-choice strategy for cross-checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _kernels
from .ambiguity import AmbiguitySet, _lower, _upper, evaluate_on, indicator_of
from .errors import CapacityError, ValidationError

STRATEGY_CEILING = 10**6
INDEPENDENCE_TOL = 1e-12


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


def _sweep(aset: AmbiguitySet, values: np.ndarray, lo: int, hi: int, n_steps: int):
    """Apply the one-step operator ``n_steps`` times to ``values`` on ``[lo, hi]``.

    Each sweep keeps the largest index block on which every law's shifted
    support stays inside the previous block.  Yields ``(values, lo, hi)``
    for the block after each sweep.  The last block is non-empty only if
    ``hi - lo >= n_steps * (k_hi - k_lo)``, which ``[-n*K, n*K]`` meets.
    Each yielded array lives in the sweep's plan and is valid only until
    the next step: read what you need before resuming, or copy it.  It
    equals the per-atom loop's values, but may hold -0.0 where the loop
    holds +0.0; add 0.0 to what you read to get the loop's bits.
    """
    k_lo, k_hi = int(aset.indices[0]), int(aset.indices[-1])
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


def _admit_sweep(aset: AmbiguitySet, n: int) -> int:
    """Refuse, by ``_kernels``' rule, a sweep of ``n`` steps on ``[-n*K, n*K]``; returns K."""
    K = int(np.abs(aset.indices).max())
    atoms = sum(law.indices.size for law in aset.laws)
    _kernels._admit("lattice sweep", 2 * n * K + 1, n, atoms, "reduce n or the atom span")
    return K


def sum_expectations(aset: AmbiguitySet, ns: Sequence[int], phi: Callable) -> list[float]:
    """Upper expectations of ``phi(S_n)`` for every n in ``ns``, in order.

    ``W_m = T^m phi`` is the same for every n >= m, so one backward sweep
    on the block ``[-N*K, N*K]`` (N the largest n, K the largest absolute
    atom index) passes every n on its way and reads ``W_n`` at the origin.
    Each output node depends only on its own inputs, so every entry equals
    ``sum_expectation(aset, n, phi)`` bit for bit.  The sweep's arrays may
    hold -0.0 where the per-atom loop holds +0.0, so each value read at
    the origin gets + 0.0, which gives the loop's bits.  Raises SizeError,
    before any step, when ``_kernels`` refuses the block's points or the
    sweep's work.
    """
    ns = [_check_n(n) for n in ns]
    if not ns:
        raise ValidationError("need at least one n")
    n_max = max(ns)
    K = _admit_sweep(aset, n_max)
    points = np.arange(-n_max * K, n_max * K + 1, dtype=np.int64) * aset.step
    wanted = set(ns)
    at_origin = {}
    sweeps = _sweep(aset, evaluate_on(phi, points), -n_max * K, n_max * K, n_max)
    for m, (values, lo, _) in enumerate(sweeps, start=1):
        if m in wanted:
            # every block of the sweep contains index 0; + 0.0 turns a
            # -0.0 the kernel may leave there into the per-atom loop's +0.0
            at_origin[m] = float(values[-lo]) + 0.0
    return [at_origin[n] for n in ns]


def sum_expectation(aset: AmbiguitySet, n: int, phi: Callable) -> float:
    """Upper expectation of ``phi(S_n)`` for the n-fold independent sum.

    Backward induction on the lattice block ``[-n*K, n*K]`` with K the
    largest absolute atom index, finishing at the origin.
    """
    return sum_expectations(aset, [n], phi)[0]


def normalized_sum_expectation(aset: AmbiguitySet, n: int, phi: Callable) -> float:
    """Upper expectation of ``phi(S_n / sqrt(n))``."""
    n = _check_n(n)
    scale = 1.0 / np.sqrt(float(n))

    def scaled(x):
        return phi(np.asarray(x, dtype=np.float64) * scale)

    return sum_expectation(aset, n, scaled)


def _reachable_runs(aset: AmbiguitySet, n: int):
    """Yield the reachable index sets of S_0 .. S_n as maximal runs.

    A level is the pair ``(starts, ends)`` of its runs ``[starts[i], ends[i]]``
    of consecutive indices: the next level is the union of the runs shifted
    by every atom, merged where they overlap or touch.  A level never has
    more runs than points, and once a walk fills its span it is a single
    run, so this costs far less than listing the sets.
    """
    starts = ends = np.zeros(1, dtype=np.int64)
    yield starts, ends
    for _ in range(n):
        s = (starts[:, None] + aset.indices).ravel()
        e = (ends[:, None] + aset.indices).ravel()
        order = np.argsort(s)
        s = s[order]
        reach = np.maximum.accumulate(e[order])
        head = np.flatnonzero(s[1:] > reach[:-1] + 1) + 1
        starts = np.concatenate((s[:1], s[head]))
        ends = np.append(reach[head - 1], reach[-1])
        yield starts, ends


def reachable_index_sets(aset: AmbiguitySet, n: int) -> list[np.ndarray]:
    """Sorted lattice-index sets reachable by the partial sums S_0 .. S_n."""
    sets = []
    for starts, ends in _reachable_runs(aset, n):
        lengths = ends - starts + 1
        # run i's points are starts[i] + 0 .. lengths[i] - 1, laid end to end
        offsets = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        sets.append(offsets + np.arange(offsets.size))
    return sets


def _reachable_state_count(aset: AmbiguitySet, n: int) -> int:
    """Total size of the reachable index sets of S_0 .. S_{n-1}."""
    runs = _reachable_runs(aset, n - 1)
    return sum(int((ends - starts).sum()) + starts.size for starts, ends in runs)


def count_adapted_strategies(aset: AmbiguitySet, n: int) -> int:
    """Number of adapted law-choice strategies for an n-step sum.

    A strategy picks one law per (step, current partial sum) pair, so the
    count is the product over steps of laws ** reachable_states.
    """
    n = _check_n(n)
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


def brute_force_adapted_oracle(aset: AmbiguitySet, n: int, phi: Callable) -> float:
    """Max of ``E[phi(S_n)]`` over every adapted law-choice strategy.

    Exponential in the reachable state counts; refuses to start when the
    strategy count exceeds ``STRATEGY_CEILING``.
    """
    return brute_force_adapted_oracle_many(aset, n, [phi])[0]


def brute_force_adapted_oracle_many(
    aset: AmbiguitySet, n: int, phis: Sequence[Callable]
) -> list[float]:
    """One enumeration shared across several payoff functions."""
    n = _check_n(n)
    n_laws = len(aset.laws)
    n_states = _reachable_state_count(aset, n)
    # With L >= 2 laws, L ** S exceeds the ceiling as soon as S exceeds its
    # bit length, so capping S there keeps the comparison exact and the
    # power small.
    if n_laws ** min(n_states, STRATEGY_CEILING.bit_length() + 1) > STRATEGY_CEILING:
        raise CapacityError(
            f"{_count_text(n_laws, n_states)} adapted strategies exceed the ceiling "
            f"{STRATEGY_CEILING}; the brute-force oracle refuses to enumerate"
        )
    dists, terminal = _enumerate_strategy_distributions(aset, n)
    points = terminal * aset.step
    return [float((dists @ evaluate_on(phi, points)).max()) for phi in phis]


def joint_expectation(xset: AmbiguitySet, yset: AmbiguitySet, f: Callable) -> float:
    """Upper expectation of ``f(X, Y)`` with Y independent of X.

    Computed by the iterated construction: integrate out Y at each fixed x,
    then take the upper expectation of the resulting function of x.  ``f``
    is evaluated once on the grid of ``xset.support`` by ``yset.support``
    points, so it must be pointwise.
    """
    grid = evaluate_on(f, *np.meshgrid(xset.support, yset.support, indexing="ij"))
    return _iterated_upper(xset, yset, grid)


def _iterated_upper(xset: AmbiguitySet, yset: AmbiguitySet, grid: np.ndarray) -> float:
    """``joint_expectation`` of ``grid[i, j] = f(xset.support[i], yset.support[j])``."""
    return _upper(xset, np.array([_upper(yset, row) for row in grid]))


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
) -> IndependenceCheck:
    """Check the product rule for both capacities on a rectangle event.

    For events D and G the upper capacity of {X in D, Y in G} must equal
    the product of the marginal upper capacities, and likewise for the
    lower capacities; the check passes within INDEPENDENCE_TOL.
    """
    ind_x = evaluate_on(indicator_of(event_x), xset.support)
    ind_y = evaluate_on(indicator_of(event_y), yset.support)
    rect = np.multiply.outer(ind_x, ind_y)
    return IndependenceCheck(
        joint_upper=_iterated_upper(xset, yset, rect),
        product_upper=_upper(xset, ind_x) * _upper(yset, ind_y),
        joint_lower=-_iterated_upper(xset, yset, -rect),
        product_lower=_lower(xset, ind_x) * _lower(yset, ind_y),
        tol=INDEPENDENCE_TOL,
    )
