import numpy as np
import pytest

from gexlab import _kernels, gheat, pengsum
from gexlab.gheat import GParams, PdeGrid, g_normal_solution, solve_g_heat
from gexlab.pengsum import sum_expectations
from gexlab.phis import make_phi


def random_dp_inputs(rng):
    values = rng.normal(size=24)
    law_ptr = np.array([0, 2, 5, 6], dtype=np.int64)
    law_k = rng.integers(-2, 3, size=6).astype(np.int64)
    law_p = rng.uniform(0.1, 1.0, size=6)
    return values, law_ptr, law_k, law_p, 2, 12


def shared_dp_inputs(rng):
    """Laws whose probabilities come from a small pool, so atoms share products.

    The pool holds +-0.0 and a subnormal; atom indices repeat within and
    across laws; values include signed zeros and subnormals, and now and then
    an infinity (a zero probability times it gives NaN).
    """
    sizes = rng.integers(1, 5, size=int(rng.integers(1, 5)))
    law_ptr = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    n_atoms = int(law_ptr[-1])
    law_k = rng.integers(-3, 4, size=n_atoms).astype(np.int64)
    pool = np.array([0.5, 0.25, -0.0, 0.0, 5e-324, rng.uniform(0.05, 1.0)])
    law_p = rng.choice(pool[: int(rng.integers(1, pool.size + 1))], size=n_atoms)
    out_len = int(rng.integers(1, 20))
    values = rng.normal(size=out_len + 6) * 10.0 ** float(rng.choice([-310, 0, 300]))
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308])
    mask = rng.random(values.size) < 0.3
    values[mask] = rng.choice(special, size=int(mask.sum()))
    if rng.random() < 0.1:
        values[rng.integers(values.size)] = rng.choice([np.inf, -np.inf])
    return values, law_ptr, law_k, law_p, 3, out_len


def dp_step_loop_reference(values, law_ptr, law_k, law_p, base, out_len):
    """The per-atom loop: one multiply and one add per atom, max over laws."""
    out = np.full(out_len, -np.inf)
    acc = np.empty(out_len)
    for l in range(law_ptr.shape[0] - 1):
        acc[:] = 0.0
        for a in range(law_ptr[l], law_ptr[l + 1]):
            start = base + law_k[a]
            acc += law_p[a] * values[start : start + out_len]
        np.maximum(out, acc, out=out)
    return out


def dp_step_reference(values, law_ptr, law_k, law_p, base, out_len):
    out = []
    for i in range(out_len):
        best = -np.inf
        for l in range(len(law_ptr) - 1):
            acc = 0.0
            for a in range(law_ptr[l], law_ptr[l + 1]):
                acc += law_p[a] * values[i + base + law_k[a]]
            best = max(best, acc)
        out.append(best)
    return np.array(out)


def gheat_march_reference(u, cu, cd, n_steps):
    u = u.copy()
    for _ in range(n_steps):
        prev = u.copy()
        for i in range(1, len(u) - 1):
            d2 = prev[i - 1] - 2.0 * prev[i] + prev[i + 1]
            u[i] = prev[i] + (cu * d2 if d2 > 0.0 else cd * d2)
    return u


def gheat_march_formula(u, cu, cd, n_steps):
    """The two-max update on whole slices, checked after every step."""
    u = u.copy()
    for step in range(n_steps):
        d2 = u[:-2] - 2.0 * u[1:-1] + u[2:]
        u[1:-1] += cu * np.maximum(d2, 0.0) - cd * np.maximum(-d2, 0.0)
        if not np.isfinite(u).all():
            return step, u
    return -1, u


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


CATALOG = [
    make_phi("abs"), make_phi("square"), make_phi("cube"), make_phi("quartic"),
    make_phi("negsquare"), make_phi("negabs"), make_phi("abspow", 2.5),
    make_phi("ramp", 0.3), make_phi("clamp", -1.0, 0.5), make_phi("indicator", -0.5, 1.0),
]


class TestDpStep:
    def test_numpy_matches_reference(self, rng):
        for _ in range(20):
            args = random_dp_inputs(rng)
            np.testing.assert_array_equal(_kernels.dp_step(*args), dp_step_reference(*args))

    @pytest.mark.parametrize("make_inputs", [random_dp_inputs, shared_dp_inputs])
    def test_matches_loop_bits(self, rng, make_inputs):
        for _ in range(500):
            args = make_inputs(rng)
            with np.errstate(invalid="ignore", over="ignore"):
                got = _kernels.dp_step(*args)
                planned = _kernels.dp_step(*args, plan=_kernels.dp_plan(*args[1:5]))
                want = dp_step_loop_reference(*args)
            assert same_bits(got, want)
            assert same_bits(planned, want)

    def test_first_term_negative_zero_becomes_positive(self):
        # the loop adds onto a zero-filled accumulator: 0.0 + -0.0 = +0.0
        values = np.array([-0.0, 1.0, 0.0])
        ptr = np.array([0, 1], dtype=np.int64)
        ks = np.array([0], dtype=np.int64)
        assert same_bits(_kernels.dp_step(values, ptr, ks, np.array([1.0]), 0, 3), [0.0, 1.0, 0.0])
        assert same_bits(_kernels.dp_step(values, ptr, ks, np.array([-0.0]), 0, 3), np.zeros(3))

    def test_signed_zero_probabilities_share_a_product(self):
        # p = +0.0 and p = -0.0 give zero products of opposite sign (NaN at
        # inf); the loop's sums do not see the difference
        values = np.array([2.0, -3.0, 0.5, np.inf])
        ks = np.array([0, 1, 1, 0, 2], dtype=np.int64)
        for ps in ([0.0, -0.0, 0.0, -0.0, 1.0], [-0.0, 0.0, 1.0, 0.0, -0.0]):
            args = (values, np.array([0, 2, 5], dtype=np.int64), ks, np.array(ps), 0, 2)
            with np.errstate(invalid="ignore"):
                assert same_bits(_kernels.dp_step(*args), dp_step_loop_reference(*args))

    def test_single_law_is_plain_convolution(self):
        values = np.arange(10.0)
        ptr = np.array([0, 2], dtype=np.int64)
        ks = np.array([-1, 1], dtype=np.int64)
        ps = np.array([0.5, 0.5])
        out = _kernels.dp_step(values, ptr, ks, ps, 1, 8)
        np.testing.assert_array_equal(out, np.arange(1.0, 9.0))


class TestSweepBits:
    """Whole backward sweeps against the same sweeps through the per-atom loop."""

    @pytest.mark.parametrize("phi", CATALOG, ids=lambda p: p.label)
    def test_reference_family_n256(self, monkeypatch, ref_set, phi):
        ns = [1, 2, 17, 128, 256]
        got = sum_expectations(ref_set, ns, phi)

        def loop_step(*args, plan):
            return dp_step_loop_reference(*args)

        monkeypatch.setattr(pengsum._kernels, "dp_step", loop_step)
        want = sum_expectations(ref_set, ns, phi)
        assert same_bits(got, want)

    def test_one_plan_per_sweep(self, monkeypatch, ref_set):
        built = []
        plan = _kernels.dp_plan

        def counting(*args):
            built.append(args)
            return plan(*args)

        monkeypatch.setattr(pengsum._kernels, "dp_plan", counting)
        sum_expectations(ref_set, [1, 17, 256], make_phi("abs"))
        assert len(built) == 1


class TestGheatMarch:
    def test_numpy_matches_reference(self, rng):
        u = rng.normal(size=16)
        bad, got = _kernels.gheat_march(u, 0.2, 0.05, 25)
        assert bad == -1
        np.testing.assert_array_equal(got, gheat_march_reference(u, 0.2, 0.05, 25))

    def test_boundaries_never_move(self, rng):
        u = rng.normal(size=12)
        _, got = _kernels.gheat_march(u, 0.2, 0.2, 10)
        assert got[0] == u[0]
        assert got[-1] == u[-1]

    def test_input_array_untouched(self, rng):
        u = rng.normal(size=12)
        keep = u.copy()
        _kernels.gheat_march(u, 0.2, 0.2, 5)
        np.testing.assert_array_equal(u, keep)

    def test_poisoned_input_reported_at_step_zero(self):
        u = np.zeros(9)
        u[4] = np.inf
        with np.errstate(invalid="ignore"):
            bad, _ = _kernels.gheat_march(u, 0.2, 0.1, 10)
        assert bad == 0

    def test_zero_steps_is_identity(self, rng):
        u = rng.normal(size=7)
        bad, got = _kernels.gheat_march(u, 0.2, 0.1, 0)
        assert bad == -1
        np.testing.assert_array_equal(got, u)


class TestGheatMarchBits:
    """The in-place march against the two-max update, compared as int64 bits."""

    @pytest.mark.parametrize("sigma_lo", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("phi", CATALOG, ids=lambda p: p.label)
    def test_solve_matches_formula(self, monkeypatch, phi, sigma_lo):
        # 1 / 0.0011 is not whole: 909 steps, then a remainder step
        grid = PdeGrid(-3.0, 3.0, 0.05, 0.0011)
        params = GParams(sigma_lo, 1.0)
        got = solve_g_heat(params, phi, grid)
        monkeypatch.setattr(gheat._kernels, "gheat_march", gheat_march_formula)
        want = solve_g_heat(params, phi, grid)
        assert got.steps_taken == want.steps_taken == 910
        assert same_bits(got.u, want.u)

    def test_negabs_keeps_signed_zero_as_before(self):
        # phi(0) = -0.0; with cd == 0 the old update turns it into +0.0
        u = make_phi("negabs")(np.linspace(-1.0, 1.0, 11))
        for cd in (0.0, 0.1):
            _, got = _kernels.gheat_march(u, 0.4, cd, 7)
            _, want = gheat_march_formula(u, 0.4, cd, 7)
            assert same_bits(got, want)

    @pytest.mark.parametrize("cd_share", [0.0, 0.25, 1.0])
    def test_random_profiles(self, rng, cd_share):
        for _ in range(20):
            u = rng.normal(size=int(rng.integers(3, 40)))
            cu = float(rng.uniform(0.05, 0.5))
            _, got = _kernels.gheat_march(u, cu, cu * cd_share, 30)
            _, want = gheat_march_formula(u, cu, cu * cd_share, 30)
            assert same_bits(got, want)

    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_overflow_at_step_k_reported_as_k(self, k):
        # a checkerboard grows threefold per step with cu = cd = 1, so step k
        # is the first to leave the float range
        u = np.array([0.0] + [(-1.0) ** i for i in range(9)] + [0.0]) * (1e308 / 3.0**k)
        with np.errstate(over="ignore", invalid="ignore"):
            bad, _ = _kernels.gheat_march(u, 1.0, 1.0, 10)
            want_bad, _ = gheat_march_formula(u, 1.0, 1.0, 10)
        assert bad == want_bad == k

    def test_overflowing_difference_fails_with_zero_cd(self):
        # 2 * 1.7e308 overflows, so d2 = -inf; the update gives NaN as before
        u = np.array([0.0, 1.7e308, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            assert _kernels.gheat_march(u, 0.5, 0.0, 3)[0] == 0

    def test_solver_passes_cd_at_most_cu(self, monkeypatch):
        seen = []
        march = _kernels.gheat_march

        def recording(u, cu, cd, n_steps):
            seen.append((cu, cd))
            return march(u, cu, cd, n_steps)

        monkeypatch.setattr(gheat._kernels, "gheat_march", recording)
        phi = make_phi("abs")
        for lo, hi in [(0.0, 1.0), (0.3, 0.7), (1.0, 1.0), (1e-170, 1e-170), (0.9999, 1.0)]:
            g_normal_solution(GParams(lo, hi), phi, dx=0.1 * hi)
            grid = PdeGrid(-6.0 * hi, 6.0 * hi, 0.1 * hi, 0.0031)
            solve_g_heat(GParams(lo, hi), phi, grid)
        assert len(seen) > 10
        assert all(0.0 <= cd <= cu for cu, cd in seen)
