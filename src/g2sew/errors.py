"""Exception hierarchy shared by all pipelines."""


class SewingError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(SewingError, ValueError):
    """Argument outside the documented range (wrong parity, sign, ...)."""


class ToleranceError(SewingError):
    """A series failed to certify the requested tail bound.

    The bound actually achieved is carried in ``achieved``.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class PoleError(SewingError):
    """Evaluation requested at (or numerically on) a pole."""


class RangeOverflowError(SewingError):
    """Combinatorial factor exceeds the supported floating-point range."""


class DomainError(SewingError):
    """Point rejected by a sewing-domain membership test."""


class NearDegenerateError(SewingError):
    """A truncated (I - M) system is numerically singular.

    ``smallest_singular_value`` reports how close to singular.
    """

    def __init__(self, message, smallest_singular_value=None):
        super().__init__(message)
        self.smallest_singular_value = smallest_singular_value


class TruncationError(SewingError):
    """A truncated evaluation is not trustworthy: determinant and trace-log
    evaluations failed to reconcile, or a truncated period matrix left the
    Siegel upper half-space (Im Omega not positive definite)."""


class ConvergenceError(SewingError):
    """Newton iteration did not converge; carries the last residual and, in
    ``steps``, the residual and damping factor lam of each accepted step."""

    def __init__(self, message, last_residual=None, steps=()):
        super().__init__(message)
        self.last_residual = last_residual
        self.steps = list(steps)


class ActionSingularError(SewingError):
    """C*Omega + D is singular for the requested symplectic action."""


class UnassignedGeneratorError(SewingError, KeyError):
    """Series evaluation met a generator with no assigned value."""
