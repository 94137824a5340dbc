import math
import re

import numpy as np
import pytest

from gexlab import _admission, gheat
from gexlab.ambiguity import MomentEnvelope
from gexlab.errors import (
    ConfigurationError,
    DivergenceError,
    DomainError,
    EvaluationError,
    SizeError,
    ValidationError,
)
from gexlab.gheat import (
    DEFAULT_DX,
    PAD_FACTOR,
    GParams,
    PdeGrid,
    g_function,
    g_normal_expectation,
    g_normal_solution,
    gaussian_quadrature_oracle,
    params_from_envelope,
    solve_g_heat,
)
from gexlab.phis import make_phi

BAND = GParams(0.5, 1.0)


class TestGParams:
    @pytest.mark.parametrize("lo,hi", [(-0.1, 1.0), (1.0, 0.5), (0.0, 0.0), (0.0, np.nan)])
    def test_rejects(self, lo, hi):
        with pytest.raises(ValidationError):
            GParams(lo, hi)

    def test_degenerate_band_ok(self):
        p = GParams(1.0, 1.0)
        assert p.sigma_lo == p.sigma_hi == 1.0

    def test_from_envelope(self):
        env = MomentEnvelope(0.0, 0.0, 0.25, 1.0)
        p = params_from_envelope(env)
        assert p.sigma_lo == 0.5
        assert p.sigma_hi == 1.0


class TestGFunction:
    def test_hand_values(self):
        assert g_function(BAND, 2.0) == 1.0
        assert g_function(BAND, -2.0) == -0.25
        assert g_function(BAND, 0.0) == 0.0

    def test_array_input(self):
        out = g_function(BAND, np.array([-2.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out, [-0.25, 0.0, 1.0])

    def test_positive_homogeneity(self):
        for a in (-3.0, -1.0, 2.0, 5.0):
            assert g_function(BAND, 2.0 * a) == pytest.approx(2.0 * g_function(BAND, a))


class TestPdeGrid:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(x_min=0.0, dx=-0.1, n_cells=10, n_steps=1000),
            dict(x_min=0.0, dx=math.inf, n_cells=10, n_steps=1000),
            *(dict(x_min=0.0, dx=0.5, n_cells=n, n_steps=1000)
              for n in (True, np.bool_(True), 2.0, 2.5, "2", 0, -1, np.int64(0))),
            *(dict(x_min=0.0, dx=0.5, n_cells=4, n_steps=n)
              for n in (True, np.bool_(True), 1000.0, 1e-3, 0.0, "2", 0, -1, np.int64(0))),
            *(dict(x_min=x, dx=dx, n_cells=4, n_steps=1000)
              for x, dx in ((math.nan, 0.5), (-math.inf, 0.5), (1e308, 1e308))),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValidationError, match="^(dx|n_cells|n_steps|nodes) must be"):
            PdeGrid(**kwargs)

    @pytest.mark.parametrize(
        "dx, n_cells",
        [
            pytest.param(1e-30, 12 * 10**30, id="1e-30"),  # [-6, 6] at dx = 1e-30
            pytest.param(12.0 / (1 << 26), 1 << 26, id="2^26"),  # one node past the limit
            pytest.param(1e-30, 10**400, id="1e400"),  # past a float: counted as inf
        ],
    )
    def test_rejects_oversized_grid(self, dx, n_cells):
        with pytest.raises(SizeError, match=r"^PDE grid would need about .* points .*; reduce n_cells or n_steps$"):
            PdeGrid(-6.0, dx, n_cells, 1000)

    def test_xs(self):
        grid = PdeGrid(-1.0, 0.5, 4, 100)
        assert (grid.n_cells, grid.n_steps, grid.dt) == (4, 100, 0.01)
        np.testing.assert_allclose(grid.xs, [-1.0, -0.5, 0.0, 0.5, 1.0])
        grid = PdeGrid(-1.0, 0.5, np.int64(4), np.int64(100))
        assert type(grid.n_cells) is type(grid.n_steps) is int

    def test_wide_g_normal_grid_cell_count(self, monkeypatch):
        # g_normal_solution's grid for ramp:16848015.730609644 at this dx, taken
        # before any march (solving it would need ~1 GB): 2 * 13 365 844 cells
        dx = 1.260528116265396
        monkeypatch.setattr(gheat, "solve_g_heat", lambda params, phi, grid: grid)
        grid = g_normal_solution(BAND, make_phi("ramp", 16848015.730609644), dx=dx)
        assert (grid.n_cells, grid.x_min, grid.dx) == (26731688, -13365844 * dx, dx)


class TestSolver:
    def test_cfl_guard(self):
        grid = PdeGrid(-1.0, 0.1, 20, 196)  # sigma^2 dt/dx^2 = 0.5102
        with pytest.raises(ConfigurationError, match="dx"):
            solve_g_heat(GParams(1.0, 1.0), np.square, grid)

    def test_cfl_guard_when_dx_squared_underflows(self):
        # (dx / sigma_hi)**2 rounds to 0 here; the step is refused, not divided by
        grid = PdeGrid(-1e-160, 1e-162, 200, 1)
        with pytest.raises(ConfigurationError, match="unstable"):
            solve_g_heat(GParams(1.0, 1.0), np.abs, grid)

    def test_divergence_reported(self, monkeypatch):
        calls = {}

        def exploding(u, cu, cd, n_steps):
            calls["n"] = n_steps
            return 3, u

        monkeypatch.setattr(gheat._kernels, "gheat_march", exploding)
        grid = PdeGrid(-1.0, 0.1, 20, 1000)
        with pytest.raises(DivergenceError, match="step 3"):
            solve_g_heat(GParams(1.0, 1.0), np.square, grid)
        assert calls["n"] > 0

    def test_overflow_reported(self):
        # the real kernel overflows: the spike's second difference is -inf
        grid = PdeGrid(-1.0, 0.1, 20, 1000)

        def spike(x):
            return np.where(np.abs(x) < 1e-9, 1.7e308, 0.0)

        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="step 0"):
                solve_g_heat(GParams(1.0, 1.0), spike, grid)

    def test_work_limit_refused_before_any_step(self, monkeypatch):
        # 1000 steps times (21 nodes + the per-step cost); the grid admits them when built
        work = 1000 * (21 + _admission._STEP_COST)
        monkeypatch.setattr(_admission, "MAX_WORK", work)
        assert solve_g_heat(GParams(1.0, 1.0), np.square, PdeGrid(-1.0, 0.1, 20, 1000)).steps_taken == 1000
        monkeypatch.setattr(_admission, "MAX_WORK", work - 1)
        # the need reads above its limit, to as many digits as that takes
        with pytest.raises(SizeError, match=r"^PDE grid would need about 4117000 updates \(limit 4116999\); reduce n_cells or n_steps$"):
            PdeGrid(-1.0, 0.1, 20, 1000)

    @pytest.mark.parametrize(
        "n_steps, need",
        [pytest.param(10**9, r"4\.1e\+12", id="1e9"), pytest.param(10**400, "inf", id="1e400")],
    )
    def test_fixed_cost_steps_refused(self, n_steps, need, no_compute):
        # 3 nodes: only the per-step cost makes the steps unfinishable; 10**400 is past a float.
        # The grid refuses them when it is built, so no solve can evaluate phi.
        with pytest.raises(SizeError, match=rf"^PDE grid would need about {need} updates \(limit 2e\+10\)"):
            solve_g_heat(GParams(1.0, 1.0), no_compute, PdeGrid(-1.0, 1.0, 2, n_steps))

    def test_boundaries_frozen(self):
        grid = PdeGrid(-2.0, 0.1, 40, 1000)
        sol = solve_g_heat(GParams(1.0, 1.0), np.square, grid)
        assert sol.u[0] == 4.0
        assert sol.u[-1] == 4.0

    def test_value_at_checks_nodes(self):
        grid = PdeGrid(-1.0, 0.5, 4, 100)
        sol = solve_g_heat(GParams(1.0, 1.0), np.abs, grid)
        assert sol.value_at(-1.0) == 1.0
        for x in (0.3, float("nan"), float("inf"), -float("inf")):
            text = f"x={x!r} is not a grid node of PdeGrid(x_min=-1.0, dx=0.5, n_cells=4, n_steps=100)"
            with pytest.raises(DomainError, match="^" + re.escape(text) + "$"):
                sol.value_at(x)


class TestGNormal:
    @pytest.mark.parametrize("dx", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_dx(self, dx):
        with pytest.raises(ValidationError, match="dx must be positive"):
            g_normal_solution(BAND, make_phi("square"), dx=dx)

    def test_none_dx_is_the_default(self):
        phi = make_phi("abs")
        default = g_normal_solution(BAND, phi, dx=DEFAULT_DX)
        for sol in (g_normal_solution(BAND, phi), g_normal_solution(BAND, phi, dx=None)):
            assert sol.grid == default.grid
            assert sol.u.tobytes() == default.u.tobytes()
        assert g_normal_expectation(BAND, phi, dx=None) == default.value_at(0.0)

    @pytest.mark.parametrize("dx, n_steps", [(0.04, 1563), (0.02, 6250), (0.01, 25000), (0.005, 100000)])
    def test_one_march_of_whole_steps(self, monkeypatch, dx, n_steps):
        # the least count with dt <= 0.4 (dx / sigma_hi)^2, marched in one kernel call
        calls = []

        def recording(u, cu, cd, steps):
            calls.append(steps)
            return -1, u

        monkeypatch.setattr(gheat._kernels, "gheat_march", recording)
        sol = g_normal_solution(BAND, make_phi("abs"), dx=dx)
        assert calls == [sol.steps_taken] == [sol.grid.n_steps] == [n_steps]
        assert sol.grid.dt <= 0.4 * dx * dx < 1.0 / (n_steps - 1)

    def test_margin_widens_domain(self):
        margin, dx = 3.0, 0.1
        sol = g_normal_solution(BAND, make_phi("ramp", margin), dx=dx)
        half_cells = math.ceil((PAD_FACTOR * BAND.sigma_hi + margin) / dx)
        assert (sol.grid.x_min, sol.grid.n_cells) == (-half_cells * dx, 2 * half_cells)
        np.testing.assert_array_equal(sol.xs, sol.grid.xs)

    def test_degenerate_square_exact(self):
        # classical heat equation: E[(sigma Z)^2] = sigma^2
        v = g_normal_expectation(GParams(1.0, 1.0), make_phi("square"), dx=0.05)
        assert abs(v - 1.0) < 1e-6

    def test_degenerate_matches_quadrature(self):
        params = GParams(1.0, 1.0)
        for name in ("abs", "quartic"):
            phi = make_phi(name)
            v = g_normal_expectation(params, phi, dx=0.02)
            q = gaussian_quadrature_oracle(1.0, phi)
            assert v == pytest.approx(q, abs=1e-2)

    def test_band_moment_identities(self):
        # convex data sees the upper volatility, concave the lower
        assert g_normal_expectation(BAND, make_phi("square")) == pytest.approx(1.0, abs=2e-2)
        assert g_normal_expectation(BAND, make_phi("negsquare")) == pytest.approx(-0.25, abs=2e-2)

    def test_band_convex_equals_upper_gaussian(self):
        for name in ("abs", "quartic"):
            phi = make_phi(name)
            v = g_normal_expectation(BAND, phi)
            q = gaussian_quadrature_oracle(1.0, phi)
            assert v == pytest.approx(q, abs=1e-2)

    def test_band_concave_equals_lower_gaussian(self):
        v = g_normal_expectation(BAND, make_phi("negabs"))
        q = gaussian_quadrature_oracle(0.5, make_phi("negabs"))
        assert v == pytest.approx(q, abs=1e-2)

    def test_band_ramp_matches_upper_gaussian(self):
        # convex shifted shape; margin keeps the kink away from the boundary
        phi = make_phi("ramp", 1.0)
        v = g_normal_expectation(BAND, phi, dx=0.02)
        q = gaussian_quadrature_oracle(1.0, phi)
        assert v == pytest.approx(q, abs=1e-2)

    def test_band_scaling_gives_other_times(self):
        # G is positively homogeneous: u(tau, 0) for [lo, hi] is the t = 1
        # value for [lo*sqrt(tau), hi*sqrt(tau)]; here tau = 0.5
        r = math.sqrt(0.5)
        heat = g_normal_expectation(GParams(r, r), make_phi("square"), dx=0.05)
        assert heat == pytest.approx(0.5, abs=1e-9)
        concave = g_normal_expectation(GParams(0.5 * r, r), make_phi("negsquare"), dx=0.05)
        assert concave == pytest.approx(-0.125, abs=1e-9)

    def test_odd_data_degenerate_band_is_centered(self):
        # equal volatilities make the solution antisymmetric
        v = g_normal_expectation(GParams(1.0, 1.0), make_phi("cube"), dx=0.05)
        assert abs(v) <= 1e-9

    def test_odd_data_strict_band_is_skewed(self):
        # with genuine uncertainty the cube expectation is strictly positive
        v = g_normal_expectation(BAND, make_phi("cube"), dx=0.05)
        assert v > 0.1


    def test_huge_scale_matches_unit_scale(self):
        # dx**2 and sigma_hi**2 overflow on their own; the scheme uses their ratio
        big = g_normal_expectation(GParams(1e200, 1e200), make_phi("abs"), dx=1e200)
        unit = g_normal_expectation(GParams(1.0, 1.0), make_phi("abs"), dx=1.0)
        assert big == pytest.approx(1e200 * unit, rel=1e-12)

    def test_tiny_band_keeps_terminal_value(self):
        # sigma_hi**2 underflows to 0; at dx >> sigma the march moves nothing
        assert g_normal_expectation(GParams(1e-170, 1e-170), make_phi("square")) == 0.0

    def test_wide_grid_refused_before_it_is_built(self, no_compute):
        # at 15 573 287 nodes dx no longer divides the rounded domain within 1e-9,
        # so the work must be refused before the grid is built
        with pytest.raises(SizeError, match=r"^PDE march would need about 6\.56e\+19 updates"):
            g_normal_solution(GParams(0.0, 1.981585593553972), no_compute, dx=1.5269113998379529e-06)

    def test_rounded_node_count_refused_with_its_remedy(self, no_compute):
        # 2 * half_cells + 1 is 67108863.8, under the limit; the grid's
        # 2 * ceil(half_cells) + 1 nodes are one past it, and the caller sets dx
        with pytest.raises(SizeError, match=r"^PDE march would need about 67108865 points \(limit 67108864\); increase dx$"):
            g_normal_solution(GParams(1e-6, 1e-6), make_phi("ramp", 1000.0), dx=2.9802323099416312e-05)

    def test_unbounded_domain_refused(self):
        with pytest.raises(SizeError, match="PDE march would need about .* points"):
            g_normal_solution(GParams(1.0, 1e300), make_phi("abs"))


class TestHalfLineCapacity:
    """V(X >= 0) = sigma_hi / (sigma_hi + sigma_lo) for the G-normal X."""

    @pytest.mark.parametrize("lo", [0.5, 0.25, 0.8])
    def test_closed_form(self, lo):
        # the indicator is discontinuous, so the march converges at first order
        # and 2 v(dx) - v(2 dx) extrapolates; the capacity of X > 8 is about 1e-15
        band, phi = GParams(lo, 1.0), make_phi("indicator", 0.0, 8.0)
        v = {dx: g_normal_expectation(band, phi, dx=dx) for dx in (0.04, 0.02, 0.01)}
        assert 1.9 <= (v[0.04] - v[0.02]) / (v[0.02] - v[0.01]) <= 2.1
        assert 2.0 * v[0.01] - v[0.02] == pytest.approx(1.0 / (1.0 + lo), abs=2e-6, rel=0.0)


class TestQuadratureOracle:
    def test_validation(self):
        with pytest.raises(ValidationError):
            gaussian_quadrature_oracle(-1.0, np.abs)

    def test_sigma_zero(self):
        assert gaussian_quadrature_oracle(0.0, lambda x: x + 3.0) == 3.0

    def test_sigma_zero_nonfinite_named(self):
        with np.errstate(divide="ignore"), pytest.raises(EvaluationError, match=r"x=0\.0"):
            gaussian_quadrature_oracle(0.0, lambda x: np.log(x - x))

    def test_overflowing_sum_refused(self):
        # each weighted node is finite, but the Simpson sum exceeds the float range
        with np.errstate(over="ignore"):
            with pytest.raises(DivergenceError, match="quadrature oracle overflowed.*sigma=1e\\+307"):
                gaussian_quadrature_oracle(1e307, np.abs)
        assert gaussian_quadrature_oracle(1e300, np.abs) == pytest.approx(
            1e300 * math.sqrt(2.0 / math.pi), rel=1e-9
        )

    def test_classical_moments(self):
        assert gaussian_quadrature_oracle(1.0, np.abs) == pytest.approx(
            math.sqrt(2.0 / math.pi), abs=1e-9
        )
        assert gaussian_quadrature_oracle(1.0, np.square) == pytest.approx(1.0, abs=1e-9)
        assert gaussian_quadrature_oracle(1.0, make_phi("quartic")) == pytest.approx(3.0, abs=1e-9)
        assert gaussian_quadrature_oracle(2.0, np.abs) == pytest.approx(
            2.0 * math.sqrt(2.0 / math.pi), abs=1e-9
        )
        for sigma in (0.5, 2.0):
            assert gaussian_quadrature_oracle(sigma, np.square) == pytest.approx(
                sigma**2, abs=1e-12
            )
            assert gaussian_quadrature_oracle(sigma, make_phi("quartic")) == pytest.approx(
                3.0 * sigma**4, abs=1e-12
            )

    def test_fractional_moment_gamma_formula(self):
        # E|Z|^r = 2^(r/2) Gamma((r+1)/2) / sqrt(pi)
        r = 2.5
        exact = 2.0 ** (r / 2.0) * math.gamma((r + 1.0) / 2.0) / math.sqrt(math.pi)
        got = gaussian_quadrature_oracle(1.0, make_phi("abspow", r))
        assert got == pytest.approx(exact, abs=1e-9)
