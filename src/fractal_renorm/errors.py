"""Exceptions shared across the workbench."""


class WorkbenchError(Exception):
    """Base class for domain errors raised by this package."""


class InvalidMsError(WorkbenchError):
    """The forward orbit of the critical angles meets the critical angles."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class DepthCapError(WorkbenchError):
    """A refinement level beyond the configured depth cap was requested."""


class NotInvariantError(WorkbenchError):
    """An object is not closed under the rotation action that was assumed."""


class DisconnectedError(WorkbenchError):
    """Two vertices lie in different support components of a network."""


class CapExceededError(WorkbenchError):
    """An enumeration would exceed the configured size cap."""


class KappaUndefinedError(WorkbenchError):
    """The cell-return permutation needed by a construction is undefined."""


class KernelMismatchError(WorkbenchError):
    """A degenerate form's support components do not match the given blocks."""


class NonConvergenceError(WorkbenchError):
    """Fixed-point iteration failed to meet tolerance within the budget.

    Carries diagnostics: the iteration count, the best residual seen and
    the last few normalized iterates.
    """

    def __init__(self, message, *, iterations=0, residual=None,
                 last_iterates=()):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.last_iterates = tuple(last_iterates)
