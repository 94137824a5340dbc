"""Exception hierarchy shared by all gexlab modules, and the base of its frozen values."""


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
    """Brute-force enumeration would exceed the fixed strategy ceiling."""


class ConfigurationError(GexlabError, ValueError):
    """Solver or experiment parameters are unusable (CFL, degenerate fit)."""


class DivergenceError(GexlabError):
    """A PDE time step or a quadrature sum produced a non-finite value."""


class HypothesisError(GexlabError):
    """An experiment hypothesis (mean-zero laws) does not hold."""


class _Frozen:
    """Base of the slotted values: ``__init__`` sets each slot once through ``_set``.

    Assigning or deleting an attribute afterwards raises AttributeError.
    """

    __slots__ = ()

    def _set(self, **values):
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__
