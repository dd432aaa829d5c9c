"""Exception types shared across the package."""


class CuspLabError(Exception):
    """Base class for all package errors."""


class DomainError(CuspLabError):
    """An evaluation point lies outside the operation's domain (on the rod,
    outside the region, outside a declared sector, ...)."""


class InputError(CuspLabError):
    """Arguments violate a documented precondition."""


class RangeError(CuspLabError):
    """A bracketing search exhausted its configured search radius."""


class AccuracyError(CuspLabError):
    """A numerical procedure failed to reach its tolerance.

    Carries the best available estimate in ``best_estimate``.
    """

    def __init__(self, message, best_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate


class MeshError(CuspLabError):
    """Mesh construction produced a degenerate or inconsistent cell."""


class ConvergenceError(CuspLabError):
    """A solve missed its residual certificate.

    ``stats`` holds the solver's diagnostics, such as the relative
    ``residual`` it reached.
    """

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats


class ReliabilityError(CuspLabError):
    """Too many Monte Carlo walks were discarded for the estimate to be trusted."""
