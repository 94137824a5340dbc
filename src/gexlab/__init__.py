"""gexlab: a numerical laboratory for sublinear expectations.

Exact upper/lower expectations over finite families of lattice laws, exact
backward dynamic programming for independent sums, an explicit monotone
solver for the nonlinear heat equation governing the limit law, and batch
experiment drivers with byte-stable reports.
"""

from .ambiguity import (
    AmbiguitySet,
    DiscreteDistribution,
    MomentEnvelope,
    capacity_pair,
    lower_expectation,
    moment_envelope,
    upper_expectation,
)
from .errors import (
    CapacityError,
    ConfigurationError,
    DivergenceError,
    DomainError,
    EvaluationError,
    GexlabError,
    HypothesisError,
    SizeError,
    ValidationError,
)
from .experiments import (
    CltReport,
    MomentScanReport,
    UniformMomentReport,
    clt_convergence,
    moment_scan,
    reference_set,
    require_mean_zero,
    uniform_moment_check,
    variance_subadditivity_check,
)
from .gheat import (
    GParams,
    PdeGrid,
    PdeSolution,
    g_function,
    g_normal_expectation,
    g_normal_solution,
    gaussian_quadrature_oracle,
    params_from_envelope,
    solve_g_heat,
)
from .pengsum import (
    brute_force_adapted_oracle,
    brute_force_adapted_oracle_many,
    count_adapted_strategies,
    joint_expectation,
    normalized_sum_expectation,
    pairwise_independence_check,
    sum_expectation,
)
from .phis import PhiSpec, make_phi, parse_phi

__version__ = "0.1.0"

__all__ = [
    "AmbiguitySet",
    "CapacityError",
    "CltReport",
    "ConfigurationError",
    "DiscreteDistribution",
    "DivergenceError",
    "DomainError",
    "EvaluationError",
    "GParams",
    "GexlabError",
    "HypothesisError",
    "MomentEnvelope",
    "MomentScanReport",
    "PdeGrid",
    "PdeSolution",
    "PhiSpec",
    "SizeError",
    "UniformMomentReport",
    "ValidationError",
    "brute_force_adapted_oracle",
    "brute_force_adapted_oracle_many",
    "capacity_pair",
    "clt_convergence",
    "count_adapted_strategies",
    "g_function",
    "g_normal_expectation",
    "g_normal_solution",
    "gaussian_quadrature_oracle",
    "joint_expectation",
    "lower_expectation",
    "make_phi",
    "moment_envelope",
    "moment_scan",
    "normalized_sum_expectation",
    "pairwise_independence_check",
    "params_from_envelope",
    "parse_phi",
    "reference_set",
    "require_mean_zero",
    "solve_g_heat",
    "sum_expectation",
    "uniform_moment_check",
    "upper_expectation",
    "variance_subadditivity_check",
]
