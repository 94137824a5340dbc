import numpy as np

from gexlab import _kernels


def random_dp_inputs(rng):
    values = rng.normal(size=24)
    law_ptr = np.array([0, 2, 5, 6], dtype=np.int64)
    law_k = rng.integers(-2, 3, size=6).astype(np.int64)
    law_p = rng.uniform(0.1, 1.0, size=6)
    return values, law_ptr, law_k, law_p, 2, 12


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


class TestDpStep:
    def test_numpy_matches_reference(self, rng):
        for _ in range(20):
            args = random_dp_inputs(rng)
            np.testing.assert_array_equal(_kernels.dp_step(*args), dp_step_reference(*args))

    def test_single_law_is_plain_convolution(self):
        values = np.arange(10.0)
        ptr = np.array([0, 2], dtype=np.int64)
        ks = np.array([-1, 1], dtype=np.int64)
        ps = np.array([0.5, 0.5])
        out = _kernels.dp_step(values, ptr, ks, ps, 1, 8)
        np.testing.assert_array_equal(out, np.arange(1.0, 9.0))


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
