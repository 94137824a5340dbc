import math

import numpy as np
import pytest

from gexlab import _kernels, gheat
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
    def test_rejects_non_integer_cell_count(self):
        with pytest.raises(ValidationError, match="integer"):
            PdeGrid(0.0, 1.0, 0.3, 1e-3)
        with pytest.raises(ValidationError, match="integer"):
            PdeGrid(0.0, 10.0, 3.0, 1e-3)

    def test_wide_grid_within_relative_tolerance(self):
        # g_normal_solution's grid for ramp:16848015.730609644 at this dx: the
        # rounding of 2L leaves the ratio 4e-9 short of 26 731 688 (not solved: ~1 GB)
        dx = 1.260528116265396
        half = 13365844 * dx
        assert 13365844 == math.ceil((PAD_FACTOR + 16848015.730609644) / dx - 1e-9)
        assert abs(2 * half / dx - 26731688) > 1e-9
        assert PdeGrid(-half, half, dx, 1.0).n_cells == 26731688

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(x_min=1.0, x_max=0.0, dx=0.1, dt=1e-3),
            dict(x_min=0.0, x_max=1.0, dx=-0.1, dt=1e-3),
            dict(x_min=0.0, x_max=1.0, dx=0.1, dt=0.0),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValidationError):
            PdeGrid(**kwargs)

    @pytest.mark.parametrize("dx", [1e-30, 5e-324])
    def test_rejects_oversized_grid(self, dx):
        with pytest.raises(SizeError, match="PDE grid would need about .* points"):
            PdeGrid(-6.0, 6.0, dx, 1e-3)

    def test_xs(self):
        grid = PdeGrid(-1.0, 1.0, 0.5, 1e-2)
        assert grid.n_cells == 4
        np.testing.assert_allclose(grid.xs, [-1.0, -0.5, 0.0, 0.5, 1.0])


class TestSolver:
    def test_cfl_guard(self):
        grid = PdeGrid(-1.0, 1.0, 0.1, 0.0051)  # sigma^2 dt/dx^2 = 0.51
        with pytest.raises(ConfigurationError, match="dx"):
            solve_g_heat(GParams(1.0, 1.0), np.square, grid)

    def test_cfl_guard_when_dx_squared_underflows(self):
        # (dx / sigma_hi)**2 rounds to 0 here; the step is refused, not divided by
        grid = PdeGrid(-1e-160, 1e-160, 1e-162, 1.0)
        with pytest.raises(ConfigurationError, match="unstable"):
            solve_g_heat(GParams(1.0, 1.0), np.abs, grid)

    def test_divergence_reported(self, monkeypatch):
        calls = {}

        def exploding(u, cu, cd, n_steps):
            calls["n"] = n_steps
            return 3, u

        monkeypatch.setattr(gheat._kernels, "gheat_march", exploding)
        grid = PdeGrid(-1.0, 1.0, 0.1, 0.001)
        with pytest.raises(DivergenceError, match="step 3"):
            solve_g_heat(GParams(1.0, 1.0), np.square, grid)
        assert calls["n"] > 0

    def test_divergence_on_remainder_step_reported(self, monkeypatch):
        # 909 whole steps of dt = 0.0011, then one step scaled to the remainder
        march = gheat._kernels.gheat_march
        calls = []

        def remainder_explodes(u, cu, cd, n_steps):
            calls.append(n_steps)
            return (0, u) if n_steps == 1 else march(u, cu, cd, n_steps)

        monkeypatch.setattr(gheat._kernels, "gheat_march", remainder_explodes)
        grid = PdeGrid(-1.0, 1.0, 0.1, 0.0011)
        with pytest.raises(DivergenceError, match="step 909"):
            solve_g_heat(GParams(1.0, 1.0), np.square, grid)
        assert calls == [909, 1]

    def test_overflow_reported(self):
        # the real kernel overflows: the spike's second difference is -inf
        grid = PdeGrid(-1.0, 1.0, 0.1, 0.001)

        def spike(x):
            return np.where(np.abs(x) < 1e-9, 1.7e308, 0.0)

        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="step 0"):
                solve_g_heat(GParams(1.0, 1.0), spike, grid)

    def test_work_limit_refused_before_any_step(self, monkeypatch):
        # 1000 steps times (21 nodes + the per-step cost)
        grid = PdeGrid(-1.0, 1.0, 0.1, 0.001)
        work = 1000 * (21 + _kernels._STEP_COST)
        monkeypatch.setattr(_kernels, "MAX_WORK", work)
        assert solve_g_heat(GParams(1.0, 1.0), np.square, grid).steps_taken == 1000
        monkeypatch.setattr(_kernels, "MAX_WORK", work - 1)

        def unread(x):
            raise AssertionError("phi must not be evaluated")

        with pytest.raises(SizeError, match=r"^PDE march would need about 4\.12e\+06 updates \(limit 4\.12e\+06\); increase dx$"):
            solve_g_heat(GParams(1.0, 1.0), unread, grid)

    @pytest.mark.parametrize("dt, need", [(1e-9, r"4\.1e\+12"), (5e-324, "inf")])
    def test_fixed_cost_steps_refused(self, dt, need, no_compute):
        # 3 nodes: only the per-step cost makes 1/dt steps unfinishable; 1/5e-324 is inf
        grid = PdeGrid(-1.0, 1.0, 1.0, dt)
        with pytest.raises(SizeError, match=rf"^PDE march would need about {need} updates \(limit 2e\+10\)"):
            solve_g_heat(GParams(1.0, 1.0), no_compute, grid)

    def test_boundaries_frozen(self):
        grid = PdeGrid(-2.0, 2.0, 0.1, 0.001)
        sol = solve_g_heat(GParams(1.0, 1.0), np.square, grid)
        assert sol.u[0] == 4.0
        assert sol.u[-1] == 4.0

    def test_value_at_checks_nodes(self):
        grid = PdeGrid(-1.0, 1.0, 0.5, 0.01)
        sol = solve_g_heat(GParams(1.0, 1.0), np.abs, grid)
        assert sol.value_at(-1.0) == 1.0
        for x in (0.3, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(DomainError):
                sol.value_at(x)


class TestGNormal:
    @pytest.mark.parametrize("dx", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_dx(self, dx):
        with pytest.raises(ValidationError, match="dx must be positive"):
            g_normal_solution(BAND, make_phi("square"), dx=dx)

    def test_margin_widens_domain(self):
        margin, dx = 3.0, 0.1
        sol = g_normal_solution(BAND, make_phi("ramp", margin), dx=dx)
        half_width = math.ceil((PAD_FACTOR * BAND.sigma_hi + margin) / dx) * dx
        assert sol.grid.x_max == half_width
        assert sol.grid.x_min == -sol.grid.x_max
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
