"""Independent checks for every benchmark operation.

Each checker takes a value the program produced plus the operation's
inputs, and returns ``None`` when the value passes or a one-line message
when it does not.  No checker imports gexlab: the references come from
closed forms, exact integer arithmetic and plain ``np.convolve``.
"""

from __future__ import annotations

import math

import numpy as np

SQUARE_RTOL = 1e-9
COIN_RTOL = 1e-10
CONVOLVE_RTOL = 1e-10
# The explicit scheme's error at a kink of the terminal data grows like
# dx^2 / sigma, where sigma is the volatility the closed form is read at.
# The constant |err| * max(sigma, dx) / dx^2 measured 0.06-0.20 over every
# catalog shape and sigma in [0.005, 1] at dx = 0.01.
PDE_ERR_CONST = 0.5

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / max(abs(ref), 1e-300)


def check_square(value: float, second_moments) -> str | None:
    """``E[|S_n / sqrt n|^2]`` of a mean-zero family is exactly the largest
    one-law second moment ``max_l E_l[X^2]``."""
    ref = max(second_moments)
    err = _rel(value, ref)
    if err <= SQUARE_RTOL:
        return None
    return f"normalized second moment {value!r} != max E[X^2] {ref!r} (rel {err:.2e})"


def coin_abs_moment(n: int, r: float) -> float:
    """``E|S_n|^r`` for a sum of n fair +-1 coins, from exact binomial weights.

    ``comb(n, k) / 2**n`` is an exact integer ratio, rounded once by Python's
    true division, so the only rounding is in the powers and the final fsum.
    """
    total = 1 << n
    c = 1
    terms = []
    for k in range(n + 1):
        if 2 * k != n:
            terms.append(c / total * float(abs(2 * k - n)) ** r)
        c = c * (n - k) // (k + 1)
    return math.fsum(terms)


def check_coin(value: float, n: int, r: float) -> str | None:
    """The reference family's value equals that of its widest law, the
    fair +-1 coin, because ``|x|^r`` is convex for r >= 1."""
    ref = coin_abs_moment(n, r)
    err = _rel(value, ref)
    if err <= COIN_RTOL:
        return None
    return f"E|S_{n}|^{r:g} = {value!r} != binomial {ref!r} (rel {err:.2e})"


def law_sum_pmfs(indices, probs, ns) -> dict:
    """Distribution of the n-fold sum of one lattice law, for each n in ns.

    Returns ``{n: (pmf, first_index)}``; ``pmf[j]`` is the probability of
    lattice index ``first_index + j``.
    """
    indices = np.asarray(indices, dtype=np.int64)
    lo = int(indices.min())
    kernel = np.zeros(int(indices.max()) - lo + 1)
    kernel[indices - lo] = probs
    pmf = np.ones(1)
    out = {}
    done = 0
    for n in sorted(ns):
        for _ in range(n - done):
            pmf = np.convolve(pmf, kernel)
        done = n
        out[n] = (pmf.copy(), n * lo)
    return out


def single_law_moment(pmf_entry, step: float, r: float) -> float:
    pmf, first = pmf_entry
    xs = (first + np.arange(pmf.size)) * step
    return float(pmf @ np.abs(xs) ** r)


def check_convolve(value: float, law_values) -> str | None:
    """The adaptive value is at least every single law's value; for a
    family ordered in convex order and a convex payoff it equals the top
    law's value, so the check is two-sided."""
    for i, ref in enumerate(law_values):
        if value < ref * (1.0 - CONVOLVE_RTOL):
            return f"value {value!r} below law {i}'s n-fold convolution {ref!r}"
    top = max(law_values)
    err = _rel(value, top)
    if err <= CONVOLVE_RTOL:
        return None
    return f"value {value!r} != top law's n-fold convolution {top!r} (rel {err:.2e})"


def _norm_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def gaussian_value(shape: str, arg: float, sigma: float) -> float:
    """``E[phi(sigma * Z)]`` for Z standard normal, in closed form."""
    if shape == "abs":
        return sigma * SQRT_2_OVER_PI
    if shape == "negabs":
        return -sigma * SQRT_2_OVER_PI
    if shape == "square":
        return sigma * sigma
    if shape == "negsquare":
        return -sigma * sigma
    if shape == "abspow":
        if sigma == 0.0:
            return 0.0
        return sigma**arg * 2.0 ** (arg / 2.0) * math.exp(math.lgamma((arg + 1.0) / 2.0)) / math.sqrt(math.pi)
    if shape == "ramp":
        if sigma == 0.0:
            return max(-arg, 0.0)
        a = arg / sigma
        pdf = math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
        return sigma * pdf - arg * (1.0 - _norm_cdf(a))
    raise ValueError(f"no closed form for shape {shape!r}")


CONCAVE_SHAPES = ("negabs", "negsquare")


def pde_reference(shape: str, arg: float, sigma_lo: float, sigma_hi: float) -> tuple[float, float]:
    """(closed form, volatility it is read at): convex shapes read sigma_hi,
    concave shapes read sigma_lo (G-normal theory)."""
    sigma = sigma_lo if shape in CONCAVE_SHAPES else sigma_hi
    return gaussian_value(shape, arg, sigma), sigma


def pde_error_constant(err: float, sigma: float, dx: float) -> float:
    return err * max(sigma, dx) / (dx * dx)


def check_pde(value: float, shape: str, arg: float, sigma_lo: float, sigma_hi: float, dx: float) -> str | None:
    ref, sigma = pde_reference(shape, arg, sigma_lo, sigma_hi)
    const = pde_error_constant(abs(value - ref), sigma, dx)
    if const <= PDE_ERR_CONST:
        return None
    return (
        f"{shape}({arg:g}) at sigma={sigma:.4g}: value {value!r} vs closed form {ref!r}, "
        f"error constant {const:.3g} > {PDE_ERR_CONST}"
    )


def check_cli(code: int, expected_code: int, output: bytes, first_output: bytes) -> str | None:
    """Exit code as expected and report bytes identical to the first call."""
    if code != expected_code:
        return f"exit code {code}, expected {expected_code}"
    if output != first_output:
        return f"report bytes differ from the first call ({len(output)} vs {len(first_output)} bytes)"
    return None
