"""Experiment drivers: moment growth, variance subadditivity, robust CLT.

Each driver validates the mean-zero hypothesis, runs the exact dynamic
program over a sorted list of n values, and returns a report object with
deterministic dict/CSV projections.  Every driver reads all n off one
backward sweep, except a normalized-sum driver whose payoff is not
positively homogeneous.  ``uniform_moment_check``'s payoff ``|x|^q`` is,
so ``E|S_n / sqrt n|^q = n^(-q/2) E|S_n|^q`` and one sweep serves every n;
``clt_convergence`` takes any payoff, so it sweeps once per n.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from ._admission import _check_n
from .ambiguity import (
    AmbiguitySet,
    DiscreteDistribution,
    MomentEnvelope,
    moment_envelope,
    upper_expectation,
)
from .errors import ConfigurationError, HypothesisError, ValidationError
from .pengsum import _admit_sweep, normalized_sum_expectation, sum_expectations
from .phis import PhiSpec, make_phi
# sum_expectation stays bound here: gexbench traces calls made through this
# module's names and its tests look it up on this module.
from .pengsum import sum_expectation  # noqa: F401

MEAN_ZERO_TOL = 1e-12
SUBADDITIVITY_TOL = 1e-9
SLOPE_TOL = 0.1


def reference_set() -> AmbiguitySet:
    """Two-law benchmark family: fair coins on +-1 and on +-0.5.

    Mean zero with second-moment envelope [0.25, 1], so the limiting
    volatility band is [0.5, 1].
    """
    unit = DiscreteDistribution.from_atoms(0.5, [(-2, 0.5), (2, 0.5)])
    half = DiscreteDistribution.from_atoms(0.5, [(-1, 0.5), (1, 0.5)])
    return AmbiguitySet((unit, half), labels=("coin +-1", "coin +-0.5"))


def _check_n_list(n_list: Sequence[int]) -> list[int]:
    ns = sorted({_check_n(n, what="nList entries") for n in n_list})
    if not ns:
        raise ValidationError("nList must be non-empty")
    return ns


def require_mean_zero(aset: AmbiguitySet) -> None:
    """Raise HypothesisError unless every law has mean zero within MEAN_ZERO_TOL."""
    bad = []
    for i, law in enumerate(aset.laws):
        m = law.mean()
        if abs(m) > MEAN_ZERO_TOL:
            bad.append(f"{aset.label_of(i)} (mean {m:.3e})")
    if bad:
        raise HypothesisError(
            "mean-zero hypothesis violated by " + ", ".join(bad)
        )


def _loglog_slope(pairs: Sequence[tuple[int, float]]) -> float:
    """Least-squares slope of log(value) vs log(n) over the upper half."""
    upper = list(pairs)[len(pairs) // 2 :]
    pts = [(n, v) for n, v in upper if v > 0.0]
    if len(pts) < 2:
        raise ConfigurationError(
            f"degenerate fit: only {len(pts)} positive points in the upper half"
        )
    xs = np.log([float(n) for n, _ in pts])
    ys = np.log([v for _, v in pts])
    return float(np.polyfit(xs, ys, 1)[0])


class MomentScanReport(NamedTuple):
    """Growth of a_n = upper expectation of |S_n|^r against n^{r/2}."""

    r: float
    entries: tuple[tuple[int, float], ...]
    fitted_slope: float
    fitted_k: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "r": self.r,
            "entries": [{"n": n, "aN": a} for n, a in self.entries],
            "fittedSlope": self.fitted_slope,
            "fittedK": self.fitted_k,
            "pass": self.passed,
        }

    CSV_HEADER = ("n", "a_n", "n_pow_r_half", "ratio")

    def csv_rows(self) -> list[tuple]:
        half = self.r / 2.0
        return [(n, a, float(n) ** half, a / float(n) ** half) for n, a in self.entries]


def moment_scan(aset: AmbiguitySet, r: float, n_list: Sequence[int]) -> MomentScanReport:
    """Scan a_n over a dyadic n list and fit its growth exponent.

    Requires mean-zero laws and a power-of-two n list with at least four
    entries; passes iff the fitted slope is at most r/2 + 0.1.
    """
    require_mean_zero(aset)
    r = float(r)
    if not (np.isfinite(r) and r > 2.0):
        raise ValidationError(f"need r > 2, got {r!r}")
    ns = _check_n_list(n_list)
    if any(n & (n - 1) for n in ns):
        raise ConfigurationError(f"nList must contain powers of two, got {ns}")
    if len(ns) < 4:
        raise ConfigurationError(f"nList needs at least 4 entries, got {len(ns)}")
    phi = make_phi("abspow", r)
    entries = list(zip(ns, sum_expectations(aset, ns, phi)))
    slope = _loglog_slope(entries)
    half = r / 2.0
    fitted_k = max(a / float(n) ** half for n, a in entries)
    return MomentScanReport(
        r=r,
        entries=tuple(entries),
        fitted_slope=slope,
        fitted_k=fitted_k,
        passed=slope <= half + SLOPE_TOL,
    )


class SubadditivityRow(NamedTuple):
    n: int
    lhs: float
    rhs: float
    passed: bool

    def to_dict(self) -> dict:
        return {"n": self.n, "lhs": self.lhs, "rhs": self.rhs, "pass": self.passed}


def variance_subadditivity_check(aset: AmbiguitySet, n_max: int) -> list[SubadditivityRow]:
    """Check the n-step second moment against n times the one-step bound."""
    require_mean_zero(aset)
    n_max = _check_n(n_max, what="n_max")
    one_step = upper_expectation(aset, np.square)
    ns = range(1, n_max + 1)
    rows = []
    for n, lhs in zip(ns, sum_expectations(aset, ns, np.square)):
        rhs = n * one_step
        rows.append(SubadditivityRow(n, lhs, rhs, lhs <= rhs + SUBADDITIVITY_TOL))
    return rows


class CltReport(NamedTuple):
    """Normalized-sum expectations against the PDE limit value.

    ``errors_decreasing`` compares only the ends: it holds when the error at
    the largest n is at most the error at the smallest n, even if the errors
    in between rise and fall.
    """

    phi: PhiSpec
    envelope: MomentEnvelope
    pde_value: float
    entries: tuple[tuple[int, float, float], ...]  # (n, dpValue, absError)
    errors_decreasing: bool
    final_error: float

    def to_dict(self) -> dict:
        return {
            "phi": self.phi.to_dict(),
            "envelope": {
                "meanLower": self.envelope.mean_lower,
                "meanUpper": self.envelope.mean_upper,
                "varLower": self.envelope.var_lower,
                "varUpper": self.envelope.var_upper,
            },
            "pdeValue": self.pde_value,
            "entries": [
                {"n": n, "dpValue": dp, "absError": err}
                for n, dp, err in self.entries
            ],
            "errorsDecreasing": self.errors_decreasing,
            "finalError": self.final_error,
        }

    CSV_HEADER = ("n", "dpValue", "pdeValue", "absError")

    def csv_rows(self) -> list[tuple]:
        return [(n, dp, self.pde_value, err) for n, dp, err in self.entries]


def clt_convergence(
    aset: AmbiguitySet, phi: PhiSpec, n_list: Sequence[int], dx: float | None = None
) -> CltReport:
    """Compare normalized-sum expectations with the limiting PDE value.

    The volatility band comes from the set's second-moment envelope and the
    PDE domain from ``g_normal_solution``, so the comparison needs no extra
    parameter beyond the PDE space step ``dx``, ``gheat.DEFAULT_DX`` if None.
    The sweep for the largest n is admitted before any compute, so a refused
    n costs no PDE solve.
    """
    from .gheat import g_normal_expectation, params_from_envelope

    require_mean_zero(aset)
    ns = _check_n_list(n_list)
    _admit_sweep(aset, ns[-1])
    envelope = moment_envelope(aset)
    params = params_from_envelope(envelope)
    pde_value = g_normal_expectation(params, phi, dx=dx)
    pairs = [(n, normalized_sum_expectation(aset, n, phi)) for n in ns]
    entries = tuple((n, dp, abs(dp - pde_value)) for n, dp in pairs)
    return CltReport(
        phi=phi,
        envelope=envelope,
        pde_value=pde_value,
        entries=entries,
        errors_decreasing=entries[-1][2] <= entries[0][2],
        final_error=entries[-1][2],
    )


class UniformMomentReport(NamedTuple):
    """Boundedness of b_n = normalized |S_n|^{p+1} expectations."""

    p: float
    entries: tuple[tuple[int, float], ...]
    max_value: float
    slope: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "entries": [{"n": n, "bN": b} for n, b in self.entries],
            "maxValue": self.max_value,
            "slope": self.slope,
            "pass": self.passed,
        }


def uniform_moment_check(
    aset: AmbiguitySet, p: float, n_list: Sequence[int]
) -> UniformMomentReport:
    """Check that normalized (p+1)-th moments stay bounded in n.

    ``b_n = a_n / n^((p+1)/2)`` with ``a_n`` the upper expectation of
    ``|S_n|^(p+1)``, all read off one sweep as in ``moment_scan``.
    """
    require_mean_zero(aset)
    p = float(p)
    if not (np.isfinite(p) and p >= 1.0):
        raise ValidationError(f"need p >= 1, got {p!r}")
    ns = _check_n_list(n_list)
    half = (p + 1.0) / 2.0
    a_ns = sum_expectations(aset, ns, make_phi("abspow", p + 1.0))
    entries = [(n, a / float(n) ** half) for n, a in zip(ns, a_ns)]
    slope = _loglog_slope(entries)
    return UniformMomentReport(
        p=p,
        entries=tuple(entries),
        max_value=max(b for _, b in entries),
        slope=slope,
        passed=slope <= SLOPE_TOL,
    )
