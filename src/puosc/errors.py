"""Exception hierarchy for puosc.

Every error raised by the library derives from :class:`PuError`, so callers
(notably the CLI) can distinguish domain failures from programming errors.
"""


class PuError(Exception):
    """Base class for all puosc errors."""


class InvalidInputError(PuError):
    """Malformed input: non-finite entries, wrong shape, asymmetric matrix."""


class SingularMatrixError(PuError):
    """A pivot fell below tolerance while inverting a matrix."""


class ParameterDomainError(PuError):
    """Model parameters outside the domain of the requested construction."""


class RecursionBreakdownError(PuError):
    """The charge recursion produced an asymmetric (non-integrable) step."""


class DegenerateCombinationError(PuError):
    """Combined-structure coefficients hit a vanishing denominator."""


class DecompositionUndefinedError(PuError):
    """Positive-definite decomposition requested at degenerate frequencies."""


class InvalidRegimeError(PuError):
    """Requested flow regime inconsistent with the model parameters."""


class ConstructionError(PuError):
    """A transformation was built with excluded parameter values."""


class ComplexBranchError(PuError):
    """A square-root radicand went negative; the real branch does not exist."""


class NonInvertibleTransformError(PuError):
    """The phase-space transformation cannot be inverted."""


class SingularStructureError(PuError):
    """Flow-preserving tensor coefficients are singular for this Hamiltonian."""


class DegenerateLegendreError(PuError):
    """Legendre transform undefined because a kinetic coefficient vanishes."""


class DivergenceError(PuError):
    """Numerical integration produced non-finite values.

    ``t_reached`` is the time of the first non-finite step and ``states``
    the (k, 4) array of the finite states before it, from t = 0 on.
    """

    def __init__(self, message: str, t_reached: float, states):
        super().__init__(message)
        self.t_reached = t_reached
        self.states = states


class InconclusiveTestError(PuError):
    """A structural test was run with degenerate (trivial) input."""
