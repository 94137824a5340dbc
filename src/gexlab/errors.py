"""Exception hierarchy shared by all gexlab modules."""


class GexlabError(Exception):
    """Base class for all errors raised by gexlab."""


class ValidationError(GexlabError, ValueError):
    """A constructed object or parsed config violates an invariant."""


class EvaluationError(GexlabError):
    """A user-supplied function returned a non-finite value."""


class DomainError(GexlabError):
    """A point is not a node of a PDE grid; raised by ``PdeSolution.value_at``."""


class SizeError(GexlabError):
    """Requested lattice is too large for index arithmetic or memory."""


class CapacityError(GexlabError):
    """Brute-force enumeration would exceed the configured ceiling."""


class ConfigurationError(GexlabError, ValueError):
    """Solver or experiment parameters are unusable (CFL, degenerate fit)."""


class DivergenceError(GexlabError):
    """A PDE time step or a quadrature sum produced a non-finite value."""


class HypothesisError(GexlabError):
    """An experiment hypothesis (mean-zero laws) does not hold."""
