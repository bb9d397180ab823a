"""Exception types shared across the package."""


class PlapError(Exception):
    """Base class for package-specific failures."""


class PoleSingularityError(PlapError, ValueError):
    """Derivative data requested at (or too close to) a pole location."""


class DegenerateDirectionError(PlapError, ValueError):
    """A direction vector required to be nonzero was zero."""


class UndefinedOperatorError(PlapError, ValueError):
    """An operator is not defined for this input: the p-Laplacian for p < 2
    at a vanishing gradient, where no continuous extension exists, or the
    Barenblatt time derivative at the edge of its support."""


class KinkError(PlapError, ValueError):
    """Derivatives requested at a non-differentiable point of a piecewise
    function (tie between affine pieces)."""


class UnsupportedConfigurationError(PlapError, ValueError):
    """Operation called with a configuration outside its contract."""


class SolverFailureError(PlapError, RuntimeError):
    """Iterative solver failed to reach its tolerance.  Carries the last
    residual in ``residual``."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual
