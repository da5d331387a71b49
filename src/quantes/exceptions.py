"""Exception hierarchy.

Validation failures (bad shapes, out-of-range inputs, malformed files,
text that does not decode) and numeric failures (degenerate points,
recursion blow-ups, infeasible optimizations) are kept on separate branches
so callers, in particular the command line layer, can map them to distinct
exit codes. A file that cannot be opened, read, written or created is not
wrapped: the ``OSError`` itself surfaces, its message naming the path.
"""


class QuantesError(Exception):
    """Base class for all package errors."""


class ValidationError(QuantesError, ValueError):
    """Malformed or out-of-contract input."""


class NumericError(QuantesError, RuntimeError):
    """A numeric procedure failed or reached an undefined point."""


class DegeneratePointError(NumericError):
    """Density or weight evaluation requested exactly at the location point."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class PathError(NumericError):
    """A recursion produced an invalid value (non-finite, wrong sign, blow-up)."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class InfeasibleAllocationError(NumericError):
    """The allocator could not satisfy its constraints to tolerance.

    ``residual`` is the level gap: how far the target level lies below the
    lowest level any budget-line portfolio reaches (0 when the target is
    only approached, never attained), or, if a computed solution missed its
    tolerances, the larger of its level and budget errors.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual
