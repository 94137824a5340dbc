"""Explicit monotone finite differences for the nonlinear heat equation
``du/dt = G(d2u/dx2)`` with ``G(a) = (hi^2 * max(a,0) - lo^2 * max(-a,0))/2``.

Marching the terminal profile phi for unit time at x = 0 yields the
sublinear expectation of phi under the limiting law with volatility band
``[lo, hi]``, in the grid's whole number of equal steps.  The march always
ends at t = 1: G is positively homogeneous, so ``u(tau, .)`` for the band
``[lo, hi]`` is the t = 1 solution for ``[lo * sqrt(tau), hi * sqrt(tau)]``.
A Gaussian quadrature oracle covers the classical corner ``lo == hi``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _kernels
from .ambiguity import MomentEnvelope, evaluate_on
from .errors import ConfigurationError, DivergenceError, DomainError, ValidationError

CFL_LIMIT = 0.5
PAD_FACTOR = 6.0  # g_normal_solution's half width is PAD_FACTOR * sigma_hi + phi's margin
DEFAULT_DX = 0.02
QUAD_Z_MAX = 10.0
QUAD_NODES = 10001  # odd, as the 1/3 rule needs


@dataclass(frozen=True)
class GParams:
    """Volatility band ``0 <= sigma_lo <= sigma_hi`` with ``sigma_hi > 0``."""

    sigma_lo: float
    sigma_hi: float

    def __post_init__(self):
        lo, hi = float(self.sigma_lo), float(self.sigma_hi)
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValidationError(f"volatilities must be finite, got {lo!r}, {hi!r}")
        if not 0.0 <= lo <= hi:
            raise ValidationError(f"need 0 <= sigma_lo <= sigma_hi, got {lo!r}, {hi!r}")
        if hi <= 0.0:
            raise ValidationError("sigma_hi must be positive")
        object.__setattr__(self, "sigma_lo", lo)
        object.__setattr__(self, "sigma_hi", hi)


def params_from_envelope(env: MomentEnvelope) -> GParams:
    """Volatility band from second-raw-moment bounds."""
    return GParams(math.sqrt(env.var_lower), math.sqrt(env.var_upper))


def g_function(params: GParams, a):
    """The generator ``G(a) = (hi^2 a+ - lo^2 a-)/2``, elementwise."""
    a = np.asarray(a, dtype=np.float64)
    pos = np.maximum(a, 0.0)
    neg = np.maximum(-a, 0.0)
    out = 0.5 * (params.sigma_hi**2 * pos - params.sigma_lo**2 * neg)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PdeGrid:
    """Uniform space-time grid for the explicit scheme.

    Its ``n_cells + 1`` nodes are ``x_min + j * dx``, j = 0 .. n_cells, and
    its ``n_steps`` steps of ``dt = 1 / n_steps`` end at t = 1.  Both counts
    are given, never recovered from floats, and ``_kernels`` admits them.
    """

    x_min: float
    dx: float
    n_cells: int
    n_steps: int

    def __post_init__(self):
        for name in ("n_cells", "n_steps"):
            n = getattr(self, name)
            if isinstance(n, (bool, np.bool_)) or not isinstance(n, (int, np.integer)) or n < 1:
                raise ValidationError(f"{name} must be an integer >= 1, got {n!r}")
            object.__setattr__(self, name, int(n))
        if not (np.isfinite(self.dx) and self.dx > 0.0):
            raise ValidationError(f"dx must be positive, got {self.dx!r}")
        _kernels._admit("PDE grid", self.n_cells + 1, self.n_steps, 1.0, "reduce n_cells or n_steps")
        last = self.x_min + self.n_cells * self.dx
        if not np.isfinite(last):  # finite only if x_min is, and then so is every node between
            raise ValidationError(f"nodes must be finite, got x_min {self.x_min!r}, last node {last!r}")

    @property
    def dt(self) -> float:
        return 1.0 / self.n_steps

    @property
    def xs(self) -> np.ndarray:
        return self.x_min + np.arange(self.n_cells + 1) * self.dx


@dataclass(frozen=True, eq=False)
class PdeSolution:
    """Terminal-value problem solution marched back to time 0."""

    grid: PdeGrid
    u: np.ndarray = field(repr=False)

    @property
    def steps_taken(self) -> int:
        return self.grid.n_steps

    @property
    def xs(self) -> np.ndarray:
        return self.grid.xs

    def value_at(self, x: float) -> float:
        """Value of u(1, x) at a grid node."""
        pos = (x - self.grid.x_min) / self.grid.dx
        idx = int(round(pos)) if math.isfinite(pos) else -1  # nan and inf are no node
        if not (0 <= idx <= self.grid.n_cells) or abs(pos - idx) > 1e-6:
            raise DomainError(f"x={x!r} is not a grid node of {self.grid}")
        return float(self.u[idx]) + 0.0  # the march may leave -0.0 where the two-max update has +0.0


def _square_ratio(a: float, b: float) -> float:
    """``(a / b)**2`` that saturates to inf or 0 instead of raising."""
    r = a / b
    return r * r


def solve_g_heat(params: GParams, phi: Callable, grid: PdeGrid) -> PdeSolution:
    """Explicit monotone march of the terminal profile to t = 1 in ``grid.n_steps`` steps.

    The second difference is frozen to zero at both boundaries, so the
    domain must be wide enough that the boundary error stays negligible.
    Raises ConfigurationError when the parabolic step bound
    ``sigma_hi^2 * dt / dx^2 <= 1/2`` fails (the grid admitted the work).
    """
    # The squares of dx and sigma_hi can overflow or underflow a float on
    # their own; the scheme needs only their ratio.
    r2 = _square_ratio(grid.dx, params.sigma_hi)
    cfl = grid.dt / r2 if r2 > 0.0 else math.inf
    if cfl > CFL_LIMIT * (1.0 + 1e-12):
        raise ConfigurationError(
            f"unstable step: sigma_hi^2*dt/dx^2 = {cfl:.6g} exceeds {CFL_LIMIT}"
        )
    u = evaluate_on(phi, grid.xs)
    cu = 0.5 * grid.dt / r2
    cd = 0.5 * grid.dt * _square_ratio(params.sigma_lo, params.sigma_hi) / r2
    bad, u = _kernels.gheat_march(u, cu, cd, grid.n_steps)
    if bad >= 0:
        raise DivergenceError(f"solution became non-finite at time step {bad}")
    return PdeSolution(grid, u)


def g_normal_solution(params: GParams, phi: Callable, dx: float | None = None) -> PdeSolution:
    """Solve to t = 1 on a symmetric domain sized from the volatility band.

    The space step is ``dx``, DEFAULT_DX if None.  The half width is
    ``PAD_FACTOR * sigma_hi`` plus any shift margin the test function
    declares, rounded up to a whole number of cells.  The step count is
    the least with ``dt <= 0.4 * (dx / sigma_hi)^2``.  For ``u`` at
    another time tau, solve with the band scaled by ``sqrt(tau)``:
    ``GParams(lo * sqrt(tau), hi * sqrt(tau))``.
    """
    dx = DEFAULT_DX if dx is None else dx
    if not (np.isfinite(dx) and dx > 0.0):
        raise ValidationError(f"dx must be positive, got {dx!r}")
    margin = float(getattr(phi, "margin", 0.0))
    half_width = PAD_FACTOR * params.sigma_hi + margin
    half_cells = half_width / dx
    dt = min(0.4 * _square_ratio(dx, params.sigma_hi), 1.0)
    steps = 1.0 / dt if dt else math.inf
    # the counts the grid gets; an inf one is refused here, before ceil would raise on it
    n_half = max(1, math.ceil(half_cells - 1e-9)) if half_cells < math.inf else math.inf
    n_steps = math.ceil(steps) if steps < math.inf else math.inf
    _kernels._admit("PDE march", 2 * n_half + 1, n_steps, 1.0, "increase dx")
    return solve_g_heat(params, phi, PdeGrid(-n_half * dx, dx, 2 * n_half, n_steps))


def g_normal_expectation(params: GParams, phi: Callable, dx: float | None = None) -> float:
    """Sublinear expectation of ``phi`` under the limit law of the band."""
    sol = g_normal_solution(params, phi, dx=dx)
    return sol.value_at(0.0)


def gaussian_quadrature_oracle(sigma: float, phi: Callable) -> float:
    """Classical E[phi(sigma * Z)], Z standard normal, by composite Simpson.

    Uses the 1/3 rule with weights 1, 4, 2, ..., 4, 1 on QUAD_NODES equally
    spaced points of ``[-QUAD_Z_MAX, QUAD_Z_MAX]``.  Independent of the PDE
    route; exact enough for unit tests when sigma_lo equals sigma_hi.
    """
    sigma = float(sigma)
    if not (np.isfinite(sigma) and sigma >= 0.0):
        raise ValidationError(f"sigma must be non-negative, got {sigma!r}")
    if sigma == 0.0:
        return float(evaluate_on(phi, np.zeros(1))[0])
    z = np.linspace(-QUAD_Z_MAX, QUAD_Z_MAX, QUAD_NODES)
    vals = evaluate_on(phi, sigma * z) * (np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi))
    h = 2.0 * QUAD_Z_MAX / (QUAD_NODES - 1)
    odd, even = vals[1:-1:2].sum(), vals[2:-1:2].sum()
    value = float(h / 3.0 * (vals[0] + vals[-1] + 4.0 * odd + 2.0 * even))
    if not math.isfinite(value):
        raise DivergenceError(
            f"quadrature oracle overflowed: the Simpson sum of phi(sigma*z) "
            f"at sigma={sigma!r} is {value!r}"
        )
    return value
