import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from gexlab import _admission, _kernels, cli, gheat, pengsum
from gexlab.ambiguity import AmbiguitySet, DiscreteDistribution, evaluate_on
from gexlab.errors import SizeError
from gexlab.experiments import uniform_moment_check
from gexlab.fuzz import random_ambiguity_set
from gexlab.gheat import GParams, PdeGrid, g_normal_solution, solve_g_heat
from gexlab.pengsum import sum_expectations
from gexlab.phis import make_phi


def random_dp_inputs(rng):
    values = rng.normal(size=24)
    law_ptr = np.array([0, 2, 5, 6], dtype=np.int64)
    law_k = rng.integers(-2, 3, size=6).astype(np.int64)
    law_p = rng.uniform(0.1, 1.0, size=6)
    return values, law_ptr, law_k, law_p, 2, 12


def sprinkled(rng, values):
    """``values`` with about 30% of its entries set to signed zeros and subnormals."""
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308])
    mask = rng.random(values.size) < 0.3
    values[mask] = rng.choice(special, size=int(mask.sum()))
    return values


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
    values = sprinkled(rng, rng.normal(size=out_len + 6) * 10.0 ** float(rng.choice([-310, 0, 300])))
    if rng.random() < 0.1:
        values[rng.integers(values.size)] = rng.choice([np.inf, -np.inf])
    return values, law_ptr, law_k, law_p, 3, out_len


def three_law_inputs(rng, n_in):
    """Three laws on {-2..2}: each has a probability only it uses and one
    that two of its atoms share, so both the scratch and the shared path run."""
    law_ptr = np.array([0, 3, 6, 9], dtype=np.int64)
    law_k = np.array([-2, 0, 2, -1, 0, 1, -2, 1, 2], dtype=np.int64)
    law_p = []
    for _ in range(3):
        a = float(rng.uniform(0.1, 0.9))
        law_p += [a / 2, 1.0 - a, a / 2]
    values = rng.normal(size=n_in)
    return values, law_ptr, law_k, np.array(law_p), 2, n_in - 4


def at_offset(a, offset):
    """A copy of ``a`` whose data starts ``offset`` bytes past a 64-byte boundary."""
    raw = np.empty(a.size + 8)
    skip = (offset - raw.ctypes.data) % 64 // 8
    out = raw[skip : skip + a.size]
    out[:] = a
    return out


def line_offset(a):
    return a.ctypes.data % 64


def counting_step_calls(monkeypatch):
    """Record the number of outputs of every call list ``dp_step`` builds."""
    built = []
    step_calls = _kernels._step_calls

    def counting(plan, values, out, n):
        built.append(n)
        return step_calls(plan, values, out, n)

    monkeypatch.setattr(_kernels, "_step_calls", counting)
    return built


def run_held_chain(values, law_ptr, law_k, law_p, base, out_len, n_steps):
    """A sweep of ``n_steps`` held steps whose window is the origin's cone
    from step 1, on the block ``values`` centred on the origin, checked
    against the per-atom loop on the whole block after every step.

    The family's atoms span ``[-base, base]``, so the cone keeps the
    loop's output but ``pad`` points at each end.
    """
    K = base
    laws = [(law_k[a:b], law_p[a:b]) for a, b in zip(law_ptr[:-1], law_ptr[1:])]
    half = (len(values) - 1) // 2
    pad = half - n_steps * K
    sweep = _kernels._sweep(laws, values, -half, n_steps, [(1, (n_steps - 1) * K)])
    want = values.copy()
    for m, got in enumerate(sweep, start=1):
        want = dp_step_loop_reference(want, law_ptr, law_k, law_p, base, out_len)
        assert len(got) == 2 * (n_steps - m) * K + 1
        assert_loop_values(got, want[pad : len(want) - pad])
        out_len -= 2 * K


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


def exact_sum_expectations(aset, ns, phi):
    """``sum_expectations``' sweep replayed in exact arithmetic, as Fractions.

    Every float sample of phi and every float probability is a dyadic
    rational, so after m steps the block holds integers over the one
    denominator ``2^(e + m*b)``: 2^-e is the finest bit of the samples and
    2^-b that of the probabilities.  Laws compare on the shared denominator,
    so the maximum is exact too.
    """
    n_max = max(ns)
    K = int(np.abs(aset.indices).max())
    samples = evaluate_on(phi, np.arange(-n_max * K, n_max * K + 1, dtype=np.int64) * aset.step)
    ratios = [float(v).as_integer_ratio() for v in samples]
    den = max(d for _, d in ratios)
    values = np.array([num * (den // d) for num, d in ratios], dtype=object)
    probs = [[(int(k), *float(p).as_integer_ratio()) for k, p in zip(law.indices, law.probs)]
             for law in aset.laws]
    p_den = max(d for law in probs for _, _, d in law)
    k_lo, k_hi = int(aset.indices[0]), int(aset.indices[-1])
    lo, exact = -n_max * K, {}
    for m in range(1, n_max + 1):
        out_len = values.size - (k_hi - k_lo)
        values = functools.reduce(np.maximum, [
            sum(num * (p_den // d) * values[k - k_lo : k - k_lo + out_len] for k, num, d in law)
            for law in probs
        ])
        den *= p_den
        lo -= k_lo
        if m in ns:
            exact[m] = Fraction(int(values[-lo]), den)
    return [exact[n] for n in ns]


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


def assert_loop_values(got, want):
    """``got`` holds the per-atom loop's ``want`` with zeros of either sign.

    NaN in the same places and ``==`` everywhere else, and ``got + 0.0``
    has the loop's bits.
    """
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan], want[~nan])
    assert same_bits(got + 0.0, want)


CATALOG = [
    make_phi("abs"), make_phi("square"), make_phi("cube"), make_phi("quartic"),
    make_phi("negsquare"), make_phi("negabs"), make_phi("abspow", 2.5),
    make_phi("ramp", 0.3), make_phi("clamp", -1.0, 0.5), make_phi("indicator", -0.5, 1.0),
]

# Families that take every branch of dp_step, each with the multiply, add and
# maximum calls of one step, and the calls of the step that ended with an add
# of 0.0 wherever some law had several atoms or an unshared one, and copied a
# one-atom law's shared product with an add of 0.0.
BRANCH_FAMILIES = {
    # dp-scan's seeded shape: outer probabilities shared, centre ones not
    "dp-scan": ([[(-2, 0.4), (0, 0.2), (2, 0.4)], [(-1, 0.25), (0, 0.5), (1, 0.25)]], 9, 10),
    "one-atom-unshared": ([[(0, 1.0)], [(-1, 0.5), (1, 0.5)]], 4, 5),
    # a one-atom law multiplies its own term, so the two laws at 1.0 share no product
    "one-atom-shared": ([[(-1, 1.0)], [(1, 1.0)], [(-2, 0.25), (0, 0.5), (2, 0.25)]], 8, 10),
    "all-dirac": ([[(-1, 1.0)], [(1, 1.0)]], 3, 4),
    "unshared-first": ([[(-1, 0.3), (1, 0.7)], [(-2, 0.5), (2, 0.5)]], 6, 7),
}


def branch_family(name):
    laws = BRANCH_FAMILIES[name][0]
    return AmbiguitySet(tuple(DiscreteDistribution.from_atoms(0.5, atoms) for atoms in laws))


class CountingNumpy:
    """numpy with calls to multiply, add and maximum counted."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in ("multiply", "add", "maximum"):
            return attr

        def counted(*args, **kwargs):
            self.calls += 1
            return attr(*args, **kwargs)

        return counted


class TestDpStep:
    def test_numpy_matches_reference(self, rng):
        for _ in range(20):
            args = random_dp_inputs(rng)
            np.testing.assert_array_equal(_kernels.dp_step(*args), dp_step_reference(*args))

    @pytest.mark.parametrize("make_inputs", [random_dp_inputs, shared_dp_inputs])
    def test_matches_loop_bits(self, rng, make_inputs):
        for i in range(500):
            args = make_inputs(rng)
            # NumPy's aligned and unaligned loops must agree: vary the input's offset
            args = (at_offset(args[0], 8 * (i % 8)),) + args[1:]
            with np.errstate(invalid="ignore", over="ignore"):
                got = _kernels.dp_step(*args)
                planned = _kernels.dp_step(*args, plan=_kernels.dp_plan(*args[1:5], len(args[0]), args[5]))
                want = dp_step_loop_reference(*args)
            assert_loop_values(got, want)
            assert_loop_values(planned, want)

    def test_first_term_negative_zero_becomes_positive(self):
        # the loop adds onto a zero-filled accumulator: 0.0 + -0.0 = +0.0;
        # the kernel may keep -0.0, and + 0.0 where a value is read gives +0.0
        values = np.array([-0.0, 1.0, 0.0])
        ptr = np.array([0, 1], dtype=np.int64)
        ks = np.array([0], dtype=np.int64)
        assert_loop_values(_kernels.dp_step(values, ptr, ks, np.array([1.0]), 0, 3), [0.0, 1.0, 0.0])
        assert_loop_values(_kernels.dp_step(values, ptr, ks, np.array([-0.0]), 0, 3), np.zeros(3))

    def test_negative_zero_law_sums_end_positive(self):
        # no law's sum starts from 0.0, so on a window of -0.0 each sum is
        # -0.0 + -0.0; the loop's +0.0 comes back with + 0.0 at the read,
        # after the maximum of the two laws
        values = np.array([-0.0, -0.0, -0.0, -0.0, 3.0])
        ptr = np.array([0, 2, 4], dtype=np.int64)
        ks = np.array([0, 1, 0, 2], dtype=np.int64)
        ps = np.array([0.5, 0.5, 0.25, 0.75])
        want = dp_step_loop_reference(values, ptr, ks, ps, 0, 3)
        assert same_bits(want, [0.0, 0.0, 2.25])
        assert_loop_values(_kernels.dp_step(values, ptr, ks, ps, 0, 3), want)
        plan = _kernels.dp_plan(ptr, ks, ps, 0, len(values), 3)
        assert_loop_values(_kernels.dp_step(values, ptr, ks, ps, 0, 3, plan=plan), want)
        one_law = (values, ptr[:2], ks[:2], ps[:2], 0, 3)
        assert_loop_values(_kernels.dp_step(*one_law), np.zeros(3))

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


class TestBufferContract:
    """Where the kernels' work buffers live: aligned, reused, never aliased."""

    def test_buffers_start_on_a_line(self, rng):
        args = three_law_inputs(rng, 301)
        plan = _kernels.dp_plan(*args[1:5], 301, args[5])
        out = _kernels.dp_step(*args, plan=plan)
        buffers = [*(row[plan.margin :] for row in plan.rows), plan.acc, plan.scratch, *plan.shared]
        assert len(plan.shared) == 3
        assert [line_offset(b) for b in buffers + [out]] == [0] * (len(buffers) + 1)
        for n in (3, 9, 1201):
            u, d2, tmp = _kernels._march_rows(n)
            assert [line_offset(a) for a in (u[1:-1], d2, tmp)] == [0, 0, 0]
            assert not any(np.shares_memory(a, b) for a, b in [(u, d2), (u, tmp), (d2, tmp)])
        _, got = _kernels.gheat_march(np.abs(np.linspace(-1.0, 1.0, 301)), 0.2, 0.1, 3)
        assert line_offset(got[1:-1]) == 0

    @pytest.mark.parametrize("offset", range(0, 64, 8))
    def test_plan_chain_matches_loop(self, rng, offset):
        # each step reads the previous step's output, as a sweep does; the
        # plan's two outputs take turns, so no step writes over its input
        values, law_ptr, law_k, law_p, base, out_len = three_law_inputs(rng, 301)
        plan = _kernels.dp_plan(law_ptr, law_k, law_p, base, len(values), out_len)
        got, want = at_offset(values, offset), values
        for _ in range(5):
            prev, prev_bits = got, got.copy()
            got = _kernels.dp_step(got, law_ptr, law_k, law_p, base, out_len, plan=plan)
            want = dp_step_loop_reference(want, law_ptr, law_k, law_p, base, out_len)
            assert same_bits(got, want)
            assert same_bits(prev, prev_bits)  # valid until the next-but-one call
            out_len -= 4


CHAIN_STEPS = 130  # reach 4: 541 points down to 21
COIN = (np.array([0, 2]), np.array([-1, 1]), np.array([0.5, 0.5]), 1)  # one law on +-1, reach 2
DIRAC = (np.array([0, 1]), np.array([0]), np.array([1.0]), 0)  # one law at 0, reach 0


class TestCallLists:
    """Kept call lists of held steps: one per direction and stage, the cone's stages included."""

    @pytest.mark.parametrize("offset", range(0, 64, 8))
    def test_long_chain_matches_loop(self, monkeypatch, rng, offset):
        # the sweep copies its block into the plan's rows, wherever the block lies
        built = counting_step_calls(monkeypatch)
        values, *family, out_len = three_law_inputs(rng, 4 * CHAIN_STEPS + 21)
        values = at_offset(sprinkled(rng, values), offset)
        run_held_chain(values, *family, out_len, CHAIN_STEPS)
        # the chain follows the cone from step 1, so each direction loses 4K
        # outputs per step it takes and keeps a list for 1 + _SLACK // 4K of
        # them: the lists are built at the chain's first two steps and every
        # 2 + 2 _SLACK // 4K steps after, at 2 (CHAIN_STEPS - m) K + 1 outputs
        K = 2
        period = 2 + 2 * _kernels._SLACK // (4 * K)
        firsts = [m for m in range(1, CHAIN_STEPS + 1) if (m - 1) % period < 2]
        assert built == [2 * (CHAIN_STEPS - m) * K + 1 for m in firsts]
        assert firsts == [1, 2, 67, 68]

    def test_new_plan_zeroes_both_output_rows(self):
        plan = _kernels.dp_plan(*COIN, 40, 38)
        assert all(same_bits(row, np.zeros(40)) for row in plan.rows)

    @pytest.mark.parametrize("family, n_in", [(COIN, 41), (COIN, 40), (DIRAC, 1)], ids=["coin41", "coin40", "dirac1"])
    def test_step_longer_than_plan_is_refused(self, rng, family, n_in):
        # a plan is sized once, for its sweep: a step with more outputs is
        # refused, also where NumPy would broadcast a 1-point input into the
        # plan's shorter rows without complaint, and nothing regrows
        plan = _kernels.dp_plan(*family, 40, 38)
        with pytest.raises(ValueError, match="^a step of 39 outputs exceeds its plan's 38$"):
            _kernels.dp_step(rng.normal(size=n_in), *family, 39, plan=plan)
        assert len(plan.rows[0]) == len(plan.rows[1]) == 40 and len(plan.acc) == 38

    def test_dont_care_slots_raise_no_flag(self, rng):
        values, *family, out_len = three_law_inputs(rng, 4 * CHAIN_STEPS + 21)
        with np.errstate(all="raise"):
            run_held_chain(values, *family, out_len, CHAIN_STEPS)


def assert_sweeps_match_loop(monkeypatch, aset, phi, ns=(1, 2, 17, 128, 256)):
    got = sum_expectations(aset, ns, phi)

    def loop_step(*args, plan):
        return dp_step_loop_reference(*args)

    monkeypatch.setattr(pengsum._kernels, "dp_step", loop_step)
    want = sum_expectations(aset, ns, phi)
    assert same_bits(got, want)


class TestSweepBits:
    """Whole backward sweeps against the same sweeps through the per-atom loop."""

    @pytest.mark.parametrize("phi", CATALOG, ids=lambda p: p.label)
    def test_reference_family_n256(self, monkeypatch, ref_set, phi):
        assert_sweeps_match_loop(monkeypatch, ref_set, phi)

    @pytest.mark.parametrize("phi", CATALOG, ids=lambda p: p.label)
    @pytest.mark.parametrize("name", list(BRANCH_FAMILIES))
    def test_branch_families_n256(self, monkeypatch, name, phi):
        assert_sweeps_match_loop(monkeypatch, branch_family(name), phi)

    @pytest.mark.parametrize("phi", [make_phi("square"), make_phi("negabs")], ids=lambda p: p.label)
    @pytest.mark.parametrize("name", ["reference", "dp-scan"])
    def test_n4096(self, monkeypatch, ref_set, name, phi):
        # 16 385-point blocks: each direction's call list is reused and rebuilt
        aset = ref_set if name == "reference" else branch_family(name)
        assert_sweeps_match_loop(monkeypatch, aset, phi, ns=(1, 17, 256, 4095, 4096))

    def test_origin_zero_is_positive(self, monkeypatch):
        # negabs is -0.0 at 0 and the Dirac law at 0 keeps that zero at the
        # origin, where the loop's 0.0 + makes it +0.0; the read's + 0.0 must
        aset = AmbiguitySet((
            DiscreteDistribution.from_atoms(1.0, [(0, 1.0)]),
            DiscreteDistribution.from_atoms(1.0, [(-1, 0.5), (1, 0.5)]),
        ))
        got = sum_expectations(aset, [1, 2, 17], make_phi("negabs"))
        assert same_bits(got, [0.0, 0.0, 0.0])
        assert_sweeps_match_loop(monkeypatch, aset, make_phi("negabs"), ns=(1, 2, 17))

    @pytest.mark.parametrize("name", ["reference", *BRANCH_FAMILIES])
    def test_ufunc_calls_per_step(self, monkeypatch, ref_set, name):
        # the reference family: one shared multiply, one add per law and one
        # maximum; the step that ended with an add of 0.0 made one more
        if name == "reference":
            aset, calls, before = ref_set, 4, 5
        else:
            aset, (_, calls, before) = branch_family(name), BRANCH_FAMILIES[name]
        counting = CountingNumpy()
        monkeypatch.setattr(_kernels, "np", counting)
        sum_expectations(aset, [4], make_phi("abs"))
        assert counting.calls == 4 * calls
        assert calls <= before

    def test_one_plan_per_sweep(self, monkeypatch, ref_set):
        built = []
        plan = _kernels.dp_plan

        def counting(*args):
            built.append(args)
            return plan(*args)

        monkeypatch.setattr(pengsum._kernels, "dp_plan", counting)
        sum_expectations(ref_set, [1, 17, 256], make_phi("abs"))
        assert len(built) == 1
        uniform_moment_check(ref_set, 1.0, [2, 4, 8, 16])
        assert len(built) == 2

    def test_call_lists_per_sweep(self, monkeypatch, ref_set):
        # one list per direction and stage, the cone's stages included; the
        # one-sided family has no window, so its sweep follows the cone throughout
        built = counting_step_calls(monkeypatch)
        for aset, n, count in ((ref_set, 64, 2), (ref_set, 256, 6), (ref_set, 1000, 16), (ref_set, 4096, 36),
                               (one_sided("coin-1-3"), 300, 14), (one_sided("coin-1-3"), 4096, 188)):
            built.clear()
            sum_expectations(aset, [n], make_phi("abs"))
            assert built == stage_lists(aset, n)
            assert len(built) == count


# Families whose atoms all have one sign: no window, and strips on one side only
ONE_SIDED = {
    # k_lo > 0: base = 0 and no strip on the left
    "dirac-at-1": (1.0, [[(1, 1.0)]]),
    "coin-1-3": (1.0, [[(1, 0.5), (3, 0.5)]]),
    # k_hi < 0: base = -k_lo and no strip on the right
    "negative": (0.5, [[(-3, 0.5), (-1, 0.5)], [(-2, 1.0)]]),
}
ONE_SIDED_NS = (1, 2, 17, 300)


def one_sided(name):
    step, laws = ONE_SIDED[name]
    return AmbiguitySet(tuple(DiscreteDistribution.from_atoms(step, atoms) for atoms in laws))


class TestOneSidedSweep:
    """Sweeps of one-sided families against the per-atom loop and closed forms."""

    @pytest.mark.parametrize("phi", CATALOG, ids=lambda p: p.label)
    @pytest.mark.parametrize("name", list(ONE_SIDED))
    def test_matches_loop(self, monkeypatch, name, phi):
        assert_sweeps_match_loop(monkeypatch, one_sided(name), phi, ns=ONE_SIDED_NS)

    @pytest.mark.parametrize("phi", CATALOG, ids=lambda p: p.label)
    def test_dirac_is_phi_at_its_end(self, phi):
        # S_n = n * k * step; a product by 1.0 and a one-law maximum are exact
        got = sum_expectations(one_sided("dirac-at-1"), ONE_SIDED_NS, phi)
        assert same_bits(got, evaluate_on(phi, np.array(ONE_SIDED_NS, dtype=np.float64)) + 0.0)

    def test_moments_closed_forms(self):
        # each step has mean 2 and variance 1 in lattice points (the negative
        # family's coin: mean -2, and it beats the Dirac law for x^2 and loses
        # for -x^2); every value is a multiple of 1/4 well below 2^53, so exact
        n = np.array(ONE_SIDED_NS, dtype=np.float64)
        coin, negative = one_sided("coin-1-3"), one_sided("negative")
        assert sum_expectations(coin, ONE_SIDED_NS, make_phi("abs")) == (2 * n).tolist()
        assert sum_expectations(coin, ONE_SIDED_NS, make_phi("square")) == (n + 4 * n**2).tolist()
        assert sum_expectations(negative, ONE_SIDED_NS, make_phi("square")) == (0.25 * (n + 4 * n**2)).tolist()
        assert sum_expectations(negative, ONE_SIDED_NS, make_phi("negsquare")) == (-(n**2)).tolist()


class TestExactRoute:
    """The float sweep against its exact replay, at the defaults of the CLI."""

    @staticmethod
    def assert_within_rounding_bound(aset, ns, phi):
        # one rounding per product and per add of each atom, none in the maximum,
        # and probabilities summing to 1: at most n * atoms * 2^-53 * max|phi| on the block
        atoms = sum(law.indices.size for law in aset.laws)
        K = int(np.abs(aset.indices).max())
        floats, exact = sum_expectations(aset, ns, phi), exact_sum_expectations(aset, ns, phi)
        for n, got, want in zip(ns, floats, exact):
            phi_max = np.abs(evaluate_on(phi, np.arange(-n * K, n * K + 1) * aset.step)).max()
            assert abs(Fraction(got) - want) <= Fraction(n * atoms, 2**53) * Fraction(phi_max), n

    def test_moments_defaults(self, ref_set):
        phi = make_phi("abspow", cli._OPTIONS["r"].defaults["moments"])
        self.assert_within_rounding_bound(ref_set, cli._OPTIONS["n"].defaults["moments"], phi)

    @pytest.mark.parametrize("phi", cli._OPTIONS["phi"].defaults["oracle"], ids=lambda p: p.label)
    def test_oracle_defaults(self, ref_set, phi):
        self.assert_within_rounding_bound(ref_set, cli._OPTIONS["n"].defaults["oracle"], phi)

    def test_half_line_capacity_is_the_closed_form(self, ref_set):
        # sup P(S_n >= 0), past n = 48 where the float sweep stops hitting it bit for bit
        ns = range(1, 65)
        got = exact_sum_expectations(ref_set, ns, make_phi("indicator", 0.0, 100.0))
        assert got == [Fraction(2, 3) + Fraction((-1) ** n, 3 * 2**n) for n in ns]


def no_window(aset, n):
    """``_hold_stages`` with no window: one uncut stage, the origin's cone at step 1."""
    return 1, [(1, (n - 1) * int(np.abs(aset.indices).max()))]


def full_block_sweep(aset, ns, phi):
    """``sum_expectations`` with no window: every value the whole block's."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pengsum, "_hold_stages", no_window)
        return sum_expectations(aset, ns, phi)


def scheduled_windows(aset, n):
    """Per step of a sweep of ``n`` steps, its window's radius: the least of its stage's and the cone's."""
    K = int(np.abs(aset.indices).max())
    stages, radius, windows = dict(pengsum._hold_stages(aset, n)[1]), None, []
    for m in range(1, n + 1):
        radius = stages.get(m, radius)
        windows.append(min(radius, (n - m) * K))
    return windows


def stage_lists(aset, n):
    """The outputs of each call list a sweep of ``n`` steps builds, in order.

    A direction (odd or even steps) builds a list at its first step after
    a cut, and, as the cone narrows the window, at its first step whose
    list is more than ``_SLACK`` points longer than its outputs.
    """
    cuts = {step for step, _ in pengsum._hold_stages(aset, n)[1]}
    kept, built = [None, None], []
    for m, radius in enumerate(scheduled_windows(aset, n), start=1):
        if m in cuts:
            kept = [None, None]
        out = 2 * radius + 1
        if kept[m % 2] is None or kept[m % 2] > out + _kernels._SLACK:
            kept[m % 2] = out
            built.append(out)
    return built


def recorded_sweep(monkeypatch, aset, ns, phi):
    """``sum_expectations``' values and, per step, its outputs, whether it
    was held (read a whole plan row) and the line offsets of the plan's outputs."""
    steps = []
    step = _kernels.dp_step

    def recording(*args, plan):
        steps.append((args[5], args[0] is plan.rows[plan.turn], [line_offset(row[plan.margin :]) for row in plan.rows]))
        return step(*args, plan=plan)

    monkeypatch.setattr(pengsum._kernels, "dp_step", recording)
    got = sum_expectations(aset, ns, phi)
    monkeypatch.setattr(pengsum._kernels, "dp_step", step)
    return got, steps


def held_sweep(monkeypatch, aset, ns, phi):
    """``sum_expectations``' values and the outputs of its first step."""
    got, steps = recorded_sweep(monkeypatch, aset, ns, phi)
    return got, steps[0][0]


def held_stages(steps, K):
    """``(first step, radius)`` per stage of a recorded sweep that cut its window:
    each window narrower than the one before and than the origin's cone."""
    stages, last = [], math.inf
    for m, (out_len, _, _) in enumerate(steps, start=1):
        radius = (out_len - 1) // 2
        if radius < last and radius < (len(steps) - m) * K:
            stages.append((m, radius))
        last = radius
    return stages


def dp_scan_families(seed):
    """gexbench's dp-scan families for ``seed``: the first six draws of its generator."""
    rng = np.random.default_rng(seed)
    families = []
    for _ in range(3):
        a, b = float(rng.uniform(0.55, 1.0)), float(rng.uniform(0.2, 1.0))
        families.append(AmbiguitySet((
            DiscreteDistribution.from_atoms(0.5, [(-2, a / 2), (0, 1.0 - a), (2, a / 2)]),
            DiscreteDistribution.from_atoms(0.5, [(-1, b / 2), (0, 1.0 - b), (1, b / 2)]),
        )))
    return families


def drifting_family():
    """The +-1 coin beside a law of mean 1/2 in lattice points, as in ``test_drift_widens_the_window``."""
    return AmbiguitySet((
        DiscreteDistribution.from_atoms(0.5, [(-2, 0.5), (2, 0.5)]),
        DiscreteDistribution.from_atoms(0.5, [(-1, 0.5), (2, 0.5)]),
    ))


def skewed_family():
    """An asymmetric mean-zero law beside the +-1 coin, as in ``test_cli.SKEWED_AND_COIN``."""
    return AmbiguitySet((
        DiscreteDistribution.from_atoms(0.5, [(-3, 0.25), (1, 0.75)]),
        DiscreteDistribution.from_atoms(0.5, [(-1, 0.5), (1, 0.5)]),
    ))


def stopped_game(aset, ns, phi, radii):
    """The game stopped where the sum leaves step m's window ``[-radii[m - 1], radii[m - 1]]``,
    by the per-atom loop on the whole block.

    After every step each point outside its window gets back the value it
    had when it left: its value after the last step it was inside, or
    phi's if it never was.
    """
    n_max, K = max(ns), int(np.abs(aset.indices).max())
    k_lo, k_hi = int(aset.indices[0]), int(aset.indices[-1])
    ptr = np.cumsum([0] + [law.indices.size for law in aset.laws])
    ks = np.concatenate([law.indices for law in aset.laws])
    ps = np.concatenate([law.probs for law in aset.laws])
    lo, hi = -n_max * K, n_max * K
    values, at_origin = evaluate_on(phi, np.arange(lo, hi + 1) * aset.step), {}
    left = values.copy()  # per point of the first block, its value when it left
    for m in range(1, n_max + 1):
        values = dp_step_loop_reference(values, ptr, ks, ps, -k_lo, hi - lo + 1 - (k_hi - k_lo))
        lo, hi = lo - k_lo, hi - k_hi
        inside = np.abs(np.arange(lo, hi + 1)) <= radii[m - 1]
        kept = left[lo + n_max * K : hi + n_max * K + 1]
        values[~inside] = kept[~inside]
        kept[inside] = values[inside]
        at_origin[m] = values[-lo] + 0.0
    return [at_origin[n] for n in ns]


DP_SCAN_NS = (256, 512, 1024, 2048, 4096)


class TestHeldSweep:
    """Sweeps held at the certified window against sweeps of the whole block."""

    @pytest.mark.parametrize("seed", ["reference", 5, 7, 21])
    def test_dp_scan_families_bit_equal(self, monkeypatch, ref_set, seed):
        sets = [ref_set] if seed == "reference" else dp_scan_families(seed)
        for aset in sets:
            for r in (2.0, 2.5, 3.0, 4.0):
                phi = make_phi("abspow", r)
                got, first = held_sweep(monkeypatch, aset, DP_SCAN_NS, phi)
                assert first < 2 * 4096 * 2 + 1 - 4  # held: the window is narrower than the block
                assert same_bits(got, full_block_sweep(aset, DP_SCAN_NS, phi)), r

    @pytest.mark.parametrize("phi", CATALOG, ids=lambda p: p.label)
    @pytest.mark.parametrize("name", ["reference", "dp-scan"])
    def test_catalog_bit_equal(self, ref_set, name, phi):
        aset = ref_set if name == "reference" else branch_family(name)
        ns = (256, 1024, 4096)
        assert same_bits(sum_expectations(aset, ns, phi), full_block_sweep(aset, ns, phi))

    @pytest.mark.parametrize("phi", [make_phi("abs"), make_phi("cube"), make_phi("indicator", 0.0, 1.0)],
                             ids=lambda p: p.label)
    def test_azuma_hoeffding_bound(self, monkeypatch, ref_set, phi):
        # with tol at 2^-3 of max|phi| the window is narrow enough to move the
        # values, and over n = 1024 it narrows twice; each value is the game
        # stopped where the sum leaves its stage's window, and moves by at most
        # osc * P(the sum leaves a stage's window by the stage's last step),
        # summed over the stages, plus the two sweeps' rounding
        monkeypatch.setattr(pengsum, "_HOLD_TOL", 2.0**-3)
        ns, K, atoms = (256, 512, 1024), 2, 4
        got, steps = recorded_sweep(monkeypatch, ref_set, ns, phi)
        want = full_block_sweep(ref_set, ns, phi)
        stages = held_stages(steps, K)
        assert len(stages) >= 3 and stages[0][1] < 1024 * K // 4
        radii = [(out_len - 1) // 2 for out_len, _, _ in steps]
        assert same_bits(got, stopped_game(ref_set, ns, phi, radii))
        values = evaluate_on(phi, np.arange(-1024 * K, 1024 * K + 1) * ref_set.step)
        osc, top = values.max() - values.min(), np.abs(values).max()
        for n, held, full in zip(ns, got, want):
            # stage j holds steps m_j.. and reads states the sum reaches in at most n - m_j + 1 steps
            leave = sum(2.0 * math.exp(-B * B / (2 * (n - m + 1) * K * K)) for m, B in stages if m <= n)
            rounding = 2 * n * atoms * 2.0**-53 * top
            assert abs(held - full) <= osc * leave + rounding, n
        assert got[-1] != want[-1]

    @pytest.mark.parametrize("r", [12.0, 20.0, 40.0])
    def test_fast_growing_phi_within_tol(self, ref_set, r):
        # the certificate is tol = 2^-60 max|phi| on the block, plus both
        # sweeps' rounding; for fast-growing phi it is far above the value
        # (at n = 4096 and r = 20, 1.5e54 against 8.6e44), and the window
        # moves the value at n = 4096 by 2.1e-15, 6.0e-12 and 2.0e-6 of it
        ns, K, atoms = DP_SCAN_NS[1:], 2, 4
        phi = make_phi("abspow", r)
        got, want = sum_expectations(ref_set, ns, phi), full_block_sweep(ref_set, ns, phi)
        top = np.abs(evaluate_on(phi, np.arange(-ns[-1] * K, ns[-1] * K + 1) * ref_set.step)).max()
        for n, held, full in zip(ns, got, want):
            rounding = 2 * n * atoms * 2.0**-53 * top
            assert abs(held - full) <= 2.0**-60 * top + rounding, n
        if r == 40.0:
            assert got[-1] != want[-1]

    def test_drift_widens_the_window(self, monkeypatch):
        # the laws' means add n * max|mean| to the window: at n = 256 a law of
        # mean 1 (in lattice points) pushes it past the block, one of mean 1/2 does not
        n, phi = 256, make_phi("abs")
        coin = DiscreteDistribution.from_atoms(0.5, [(-2, 0.5), (2, 0.5)])
        for atoms, whole_block in (([(0, 0.5), (2, 0.5)], True), ([(-1, 0.5), (2, 0.5)], False)):
            aset = AmbiguitySet((coin, DiscreteDistribution.from_atoms(0.5, atoms)))
            got, first = held_sweep(monkeypatch, aset, [64, n], phi)
            assert (first == 2 * n * 2 + 1 - 4) == whole_block
            assert same_bits(got, full_block_sweep(aset, [64, n], phi))

    def test_sweep_holds_the_admitted_window(self, monkeypatch, ref_set):
        # phi is 0 on the whole block, so every window is exact; the sweep
        # still runs at the width admission priced, never the whole block
        admitted, admit = [], _admission._admit

        def recording(what, points, steps, terms, remedy):
            if steps:
                admitted.append(points)
            return admit(what, points, steps, terms, remedy)

        monkeypatch.setattr(pengsum._admission, "_admit", recording)
        n = 4096
        got, first = held_sweep(monkeypatch, ref_set, [n], make_phi("indicator", 1e6, 2e6))
        assert got == [0.0]
        assert admitted == [first] and first < 2 * n * 2 + 1 - 4

    @pytest.mark.parametrize("n", [256, 4096, 65536])
    @pytest.mark.parametrize("name", ["reference", "dp-scan", "drift"])
    def test_window_narrows_in_stages(self, monkeypatch, ref_set, name, n):
        # step m reads states the sum reaches in t = n - m + 1 steps, so its
        # window is at least rho(t) = ceil(K sqrt(2 t L) + t drift) + 1, with
        # L = ln(4J / 2^-60) and J at least the count of stages; the window
        # narrows by whole multiples of 64 slots and keeps its rows on lines
        aset = {"reference": ref_set, "dp-scan": dp_scan_families(21)[0], "drift": drifting_family()}[name]
        K = int(np.abs(aset.indices).max())
        drift = max(abs(float(law.probs @ law.indices)) for law in aset.laws)
        J, stages = pengsum._hold_stages(aset, n)
        L = math.log(4.0 * J / 2.0**-60)

        def rho(t):
            return math.ceil(K * math.sqrt(2.0 * t * L) + t * drift) + 1

        assert len(stages) <= J
        assert stages[0] == (1, rho(n))
        for (_, radius), (_, narrower) in zip(stages, stages[1:]):
            assert narrower < radius and (radius - narrower) % 64 == 0
        assert all(radius >= rho(n - m + 1) for m, radius in stages)
        if name == "drift" and n == 65536:
            # admission refuses this sweep (about 2.09e10 updates), not its schedule
            with pytest.raises(SizeError, match="updates"):
                pengsum._admit_sweep(aset, n)
            return
        assert pengsum._admit_sweep(aset, n) == (K, stages)
        _, steps = recorded_sweep(monkeypatch, aset, [n], make_phi("abs"))
        # the sweep cuts its window at exactly the schedule's stages, the
        # first at the admitted width; the cone takes over from the last
        assert held_stages(steps, K) == stages
        for m, (out_len, _, offsets) in enumerate(steps, start=1):
            if out_len < 2 * (n - m) * K + 1:
                assert out_len >= 2 * rho(n - m + 1) + 1 and offsets == [0, 0], m

    def test_point_updates_per_sweep(self, monkeypatch, ref_set):
        # the reference family's n = 4096 sweep: 9.03e6 output points at one
        # window over its held steps, 6.94e6 with the window narrowing in stages
        _, steps = recorded_sweep(monkeypatch, ref_set, [4096], make_phi("abs"))
        assert sum(out_len for out_len, _, _ in steps) <= 7.3e6

    def test_output_lengths_with_no_window(self, monkeypatch, ref_set):
        # n = 8 has no window: the cone from step 1, 2 (8 - m) K + 1 outputs at step m
        _, steps = recorded_sweep(monkeypatch, ref_set, [8], make_phi("abs"))
        assert [out_len for out_len, _, _ in steps] == [29, 25, 21, 17, 13, 9, 5, 1]

    @pytest.mark.parametrize("name", ["reference", "dp-scan", "skewed", "coin-1-3", "dirac-at-0"])
    def test_output_lengths_follow_stage_and_cone(self, monkeypatch, ref_set, name):
        # every step reads a whole plan row and writes 2 min(stage radius, (N - m) K) + 1 outputs,
        # and returns exactly the plan's view of them: the skewed family's radii are no
        # multiples of K = 3, the {1, 3} coin has no window and the Dirac law at 0 has K = 0
        aset = {"reference": ref_set, "dp-scan": dp_scan_families(21)[0], "skewed": skewed_family(),
                "coin-1-3": one_sided("coin-1-3"),
                "dirac-at-0": AmbiguitySet((DiscreteDistribution.from_atoms(1.0, [(0, 1.0)]),))}[name]
        n, step, views = 4096, _kernels.dp_step, []

        def viewing(*args, plan):
            out = step(*args, plan=plan)
            want = plan.rows[plan.turn][plan.margin : plan.margin + args[5]]
            views.append(out.base is want.base and (out.ctypes.data, out.shape, out.strides)
                         == (want.ctypes.data, want.shape, want.strides))
            return out

        monkeypatch.setattr(_kernels, "dp_step", viewing)
        _, steps = recorded_sweep(monkeypatch, aset, [n], make_phi("abs"))
        assert [out_len for out_len, _, _ in steps] == [2 * w + 1 for w in scheduled_windows(aset, n)]
        assert all(held for _, held, _ in steps)
        assert len(views) == n and all(views)

    @pytest.mark.parametrize("phi", CATALOG, ids=lambda p: p.label)
    @pytest.mark.parametrize("n", [88, 89, 90, 91])
    def test_hand_off_boundary(self, monkeypatch, ref_set, phi, n):
        # where a window first holds: 88 has none and 89's is exactly the
        # cone at step 1, so both follow the cone from step 1; 90 holds its
        # window one step, then narrows to the cone; 91 holds one step,
        # then the cone is as wide as the window
        ns, cone = (1, n - 1, n), 2 * (n - 1) * 2 + 1
        got, first = held_sweep(monkeypatch, ref_set, ns, phi)
        assert (first < cone) == (n >= 90)
        if n >= 90:
            assert first == 2 * pengsum._hold_stages(ref_set, n)[1][0][1] + 1
        assert same_bits(got, full_block_sweep(ref_set, ns, phi))
        assert_sweeps_match_loop(monkeypatch, ref_set, phi, ns=ns)

    def test_reference_family_admitted_at_65536(self, ref_set):
        # the whole block is refused (about 7e10 updates), the window is not;
        # E|S_n| takes the +-1 coin at every step, so it is n C(n, n/2) / 2^n,
        # within TestExactRoute's rounding bound
        n, atoms, K = 65536, 4, 2
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pengsum, "_hold_stages", no_window)
            with pytest.raises(SizeError, match="updates"):
                pengsum._admit_sweep(ref_set, n)
        got = sum_expectations(ref_set, [n], make_phi("abs"))[0]
        want = Fraction(n * math.comb(n, n // 2), 2**n)
        assert abs(Fraction(got) - want) <= Fraction(n * atoms, 2**53) * Fraction(n * K * ref_set.step)


SCHEDULE_NS = (64, 100, 256, 1000, 4096)


def schedule_families(ref_set):
    """The reference, dp-scan, skewed and drifting families and 40 seeded draws, every other one mean-zero."""
    rng = np.random.default_rng(32)
    draws = {f"draw-{i}": random_ambiguity_set(rng, mean_zero=bool(i % 2)) for i in range(40)}
    named = {"reference": ref_set, "dp-scan": dp_scan_families(21)[0], "skewed": skewed_family(),
             "drift": drifting_family()}
    return {**named, **draws}


def scanned_stages(aset, n):
    """``_hold_stages`` with its stage search as a linear scan over the steps.

    Each later stage starts at the first step m whose rho(n - m + 1) is
    ``_STAGE`` or more below the radius before it; the rest of the
    schedule (J, the radii and where the list ends) is ``_hold_stages``'.
    """
    K, k_lo, k_hi = int(np.abs(aset.indices).max()), int(aset.indices[0]), int(aset.indices[-1])
    drift = max(abs(float(law.probs @ law.indices)) for law in aset.laws)
    J, stage = 1, pengsum._STAGE
    while True:
        L = math.log(4.0 * J / pengsum._HOLD_TOL)

        def rho(t):
            return math.ceil(K * math.sqrt(2.0 * t * L) + t * drift) + 1

        if not (k_lo <= 0 <= k_hi and rho(n) <= (n - 1) * K):
            return J, [(1, (n - 1) * K)]
        stages = [(1, rho(n))]
        while True:
            first, radius = stages[-1]
            step = next((m for m in range(first + 1, n + 1) if rho(n - m + 1) <= radius - stage), None)
            if step is None:
                break
            narrower = radius - (radius - rho(n - step + 1)) // stage * stage
            if (n - step + 1) * K <= radius or (n - step) * K <= narrower:
                break
            stages.append((step, narrower))
        if len(stages) <= J:
            return J, stages
        J = len(stages)


class TestSchedule:
    """The window's schedule ends at the origin's cone: every stage after the first cuts the game."""

    @pytest.mark.parametrize("n", SCHEDULE_NS)
    def test_every_later_stage_cuts(self, monkeypatch, ref_set, n):
        # a later stage lies below the radius before it and below the cone at
        # its first step, and the sweep narrows its plan with a cut at each
        # such stage and at no other step
        cuts, narrow = [], _kernels._DpPlan.narrow

        def spying(plan, d, cut):
            cuts[-1] += cut
            return narrow(plan, d, cut)

        monkeypatch.setattr(_kernels._DpPlan, "narrow", spying)
        for name, aset in schedule_families(ref_set).items():
            K = int(np.abs(aset.indices).max())
            stages = pengsum._hold_stages(aset, n)[1]
            for (_, radius), (step, narrower) in zip(stages, stages[1:]):
                assert narrower < min(radius, (n - step) * K), (name, step)
            cuts.append(0)
            sum_expectations(aset, [n], make_phi("abs"))
            assert cuts[-1] == len(stages) - 1, name

    @pytest.mark.parametrize("n", SCHEDULE_NS)
    def test_stage_search_matches_linear_scan(self, ref_set, n):
        for name, aset in schedule_families(ref_set).items():
            assert pengsum._hold_stages(aset, n) == scanned_stages(aset, n), name

    @pytest.mark.parametrize("name, counts", [("reference", [2, 16, 75]), ("skewed", [3, 24, 112])])
    def test_stage_counts_pinned(self, ref_set, name, counts):
        # the skewed family's block loses 1 slot a step at its nearer end and
        # the cone 3, so the cone, well before the block, ends its schedule
        aset = ref_set if name == "reference" else skewed_family()
        assert [len(pengsum._hold_stages(aset, n)[1]) for n in (256, 4096, 65536)] == counts

    def test_skewed_first_radius(self):
        # 24 stages at n = 4096 give L = ln(96 / 2^-60), so rho(4096) = 1 846
        assert pengsum._hold_stages(skewed_family(), 4096)[1][0] == (1, 1846)


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
        grid = PdeGrid(-3.0, 0.05, 120, 910)
        params = GParams(sigma_lo, 1.0)
        got = solve_g_heat(params, phi, grid)
        monkeypatch.setattr(gheat._kernels, "gheat_march", gheat_march_formula)
        want = solve_g_heat(params, phi, grid)
        assert got.steps_taken == want.steps_taken == 910
        u0 = evaluate_on(phi, grid.xs)
        # with cd == 0 a node where phi is -0.0 (x = 0 for negabs and negsquare)
        # keeps it; the two-max update makes it +0.0
        kept = (u0 == 0.0) & np.signbit(u0) & (sigma_lo == 0.0)
        assert np.count_nonzero(kept) == (phi.label in ("negabs", "negsquare") and sigma_lo == 0.0)
        assert same_bits(got.u, np.where(kept, -0.0, want.u))

    def test_negabs_keeps_signed_zero_as_before(self):
        # phi(0) = -0.0; with cd == 0 the march keeps it where the two-max
        # update makes +0.0, and value_at's + 0.0 reads +0.0
        u = make_phi("negabs")(np.linspace(-1.0, 1.0, 11))
        for cd in (0.0, 0.1):
            _, got = _kernels.gheat_march(u, 0.4, cd, 7)
            _, want = gheat_march_formula(u, 0.4, cd, 7)
            if cd == 0.0:
                assert same_bits(got[5], -0.0) and same_bits(want[5], 0.0)
                want[5] = -0.0
            assert same_bits(got, want)
        sol = solve_g_heat(GParams(0.0, 1.0), make_phi("negabs"), PdeGrid(-1.0, 0.2, 10, 50))
        assert same_bits(sol.u[5], -0.0) and same_bits(sol.value_at(0.0), 0.0)

    @pytest.mark.parametrize("cd_share", [0.0, 0.25, 1.0])
    def test_random_profiles(self, rng, cd_share):
        for i in range(24):
            u = at_offset(rng.normal(size=int(rng.integers(3, 300))), 8 * (i % 8))
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
            grid = PdeGrid(-6.0 * hi, 0.1 * hi, 120, 323)
            solve_g_heat(GParams(lo, hi), phi, grid)
        assert len(seen) == 10  # one march per solve
        assert all(0.0 <= cd <= cu for cu, cd in seen)
