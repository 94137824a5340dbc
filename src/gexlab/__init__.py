"""gexlab: a numerical laboratory for sublinear expectations.

Exact upper/lower expectations over finite families of lattice laws, exact
backward dynamic programming for independent sums, an explicit monotone
solver for the nonlinear heat equation governing the limit law, and batch
experiment drivers with byte-stable reports.

``import gexlab`` loads no submodule and not numpy: each name below loads
its defining module on first use, and so does a submodule name such as
``gexlab.pengsum``.  A name is looked up on every access, never cached, so
``gexlab.X is gexlab.<module>.X`` holds even after ``<module>.X`` is
re-pointed.  The CLI likewise loads only the modules its subcommand runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> its defining module
_HOMES = {
    name: module
    for module, names in {
        "ambiguity": "AmbiguitySet DiscreteDistribution MomentEnvelope capacity_pair"
        " lower_expectation moment_envelope upper_expectation",
        "errors": "CapacityError ConfigurationError DivergenceError DomainError EvaluationError"
        " GexlabError HypothesisError SizeError ValidationError",
        "experiments": "CltReport MomentScanReport UniformMomentReport clt_convergence moment_scan"
        " reference_set require_mean_zero uniform_moment_check variance_subadditivity_check",
        "gheat": "GParams PdeGrid PdeSolution g_function g_normal_expectation g_normal_solution"
        " gaussian_quadrature_oracle params_from_envelope solve_g_heat",
        "pengsum": "brute_force_adapted_oracle brute_force_adapted_oracle_many count_adapted_strategies"
        " joint_expectation normalized_sum_expectation pairwise_independence_check sum_expectation",
        "phis": "PhiSpec make_phi parse_phi",
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    if name in _HOMES:
        return getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    if not name.startswith("__"):
        try:
            return import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOMES})
