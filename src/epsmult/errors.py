"""Exception types shared across the package.

The CLI maps these onto exit codes: syntax errors exit 4, inconclusive
stabilization exits 2, every other precondition violation exits 3.
"""

from __future__ import annotations


class EpsmultError(Exception):
    """Base class for all errors raised by this package on bad input."""


class DimensionMismatchError(EpsmultError):
    """Operands live in a different number of variables."""


class ZeroIdealError(EpsmultError):
    """An operation that requires a nonzero (or non-unit) ideal got one."""


class InfiniteColengthError(EpsmultError):
    """The quotient has infinite length; there is no number to report."""


class SizeLimitError(EpsmultError):
    """An input is past a fixed bound of the int64 kernels.

    Raised for a ring in more than ``ideals.DIM_LIMIT`` (64) variables, for
    a minimal generator of degree above ``ideals.DEGREE_LIMIT``
    (in an input, or in any ideal an operation forms), for a height grid
    with more than ``ideals.MAX_GRID_CELLS`` cells (every staircase count
    and every saturation reads one), for a semigroup level raster with
    more than ``semigroups._RASTER_CELL_CAP`` cells, and for a k-fold
    sumset coordinate past the int64 range.
    """


class InconclusiveError(EpsmultError):
    """A finite-difference tail, or a beta-doubling sweep, did not stabilize.

    ``tail`` holds the last d-th differences a length sequence compared,
    oldest first, so a report can say how far from stable the run was; it
    is empty for a beta sweep, whose message names the last beta it tried.
    """

    def __init__(self, message: str, tail: tuple[int, ...] = ()):
        super().__init__(message)
        self.tail = tuple(tail)


class InsufficientDataError(EpsmultError):
    """No semigroup point or level to read, or a sequence too short for leading_difference."""


class IdealSyntaxError(EpsmultError):
    """Unparseable ideal text; carries a 1-based line/column position."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(message)
        self.line = line
        self.column = column
