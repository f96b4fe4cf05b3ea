"""Exact lengths of quotients J/I of monomial ideals (I inside J).

The length of (J/I) as a module over the local ring at the origin is the
number of monomials lying in J but not in I.  Every count here reads one
height grid.  Over each column of the last d-1 coordinates, a staircase is
a height: the least first coordinate at which the column enters the ideal.
The height changes only at generator coordinates, so cutting each column
axis at 0 and at every generator coordinate of the ideals involved gives a
compressed grid with one height per cell and ideal; the last cell of each
axis is unbounded.  Containment, finiteness, the length and the deepest
degree of the difference are array expressions over those cells, and the
final sums are taken in Python integers, so results past 2^63 stay exact.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EpsmultError, InfiniteColengthError, SizeLimitError
from .ideals import DEGREE_LIMIT, MonomialIdeal

# Largest number of cells of one height grid (32 MiB as int64).
MAX_GRID_CELLS = 1 << 22

# Height of a column that never enters the ideal.  It lies above every
# exponent the int64 paths accept, so it never equals a real height.
_NEVER = 2 * DEGREE_LIMIT


def _height_grids(ideals) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Heights of ideals in one ring on their shared compressed grid.

    Returns (cuts, grids).  cuts[k] holds 0 and every generator's
    coordinate k+1, sorted: cell i of that axis spans
    [cuts[k][i], cuts[k][i+1]), and the last cell is unbounded.  grids[j]
    holds the height of ideals[j] on every cell, _NEVER where it is
    infinite.  Raises SizeLimitError above MAX_GRID_CELLS cells.
    """
    dim = ideals[0].dim
    rows = [ideal._array() for ideal in ideals]
    cuts = [
        np.unique(np.concatenate([[0], *(r[:, k] for r in rows)]))
        for k in range(1, dim)
    ]
    shape = tuple(len(c) for c in cuts)
    cells = math.prod(shape)
    if cells > MAX_GRID_CELLS:
        raise SizeLimitError(
            f"a height grid of {cells} cells exceeds the limit of {MAX_GRID_CELLS}"
        )
    grids = []
    for r in rows:
        flat = np.zeros(len(r), dtype=np.int64)
        for k, c in enumerate(cuts, start=1):
            flat = flat * len(c) + np.searchsorted(c, r[:, k])
        grid = np.full(cells, _NEVER, dtype=np.int64)
        np.minimum.at(grid, flat, r[:, 0])
        grid = grid.reshape(shape)
        for axis in range(dim - 1):
            np.minimum.accumulate(grid, axis=axis, out=grid)
        grids.append(grid)
    return cuts, grids


def _cell_corners(cuts, mask: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per column axis, the lower corner and the width of each masked cell.

    Both come as arrays of Python ints, in the order of grid[mask]; the
    width is 0 where the cell is unbounded.
    """

    def on_cells(values: np.ndarray, axis: int) -> np.ndarray:
        view = [1] * mask.ndim
        view[axis] = -1
        return np.broadcast_to(values.reshape(view), mask.shape)[mask].astype(object)

    lows = [on_cells(c, axis) for axis, c in enumerate(cuts)]
    widths = [on_cells(np.diff(c, append=c[-1]), axis) for axis, c in enumerate(cuts)]
    return lows, widths


def _difference_cells(inner: MonomialIdeal, outer: MonomialIdeal):
    """The cells where outer/inner is nonempty, as exact arrays.

    Returns (lows, widths, h_in, h_out): each column of such a cell holds
    the h_in - h_out monomials of outer/inner whose first coordinate is at
    least h_out.  Raises EpsmultError unless inner <= outer, and
    InfiniteColengthError when the difference is infinite: some column
    enters outer but never inner, or an unbounded cell is nonempty.
    """
    inner._check_same_dim(outer)
    cuts, (h_in, h_out) = _height_grids((inner, outer))
    if bool((h_in < h_out).any()):
        raise EpsmultError("inner not contained in outer")
    mask = h_in > h_out
    if bool(((h_in == _NEVER) & mask).any()) or any(
        bool(mask.take(-1, axis=axis).any()) for axis in range(mask.ndim)
    ):
        raise InfiniteColengthError(
            "outer/inner has infinite length (outer exceeds the saturation of inner)"
        )
    lows, widths = _cell_corners(cuts, mask)
    return lows, widths, h_in[mask].astype(object), h_out[mask].astype(object)


def is_finite_colength(inner: MonomialIdeal, outer: MonomialIdeal) -> bool:
    """Whether outer/inner has finite length.  Requires inner <= outer.

    Finiteness is equivalent to outer lying inside the saturation of
    inner: the quotient is then killed by a power of the maximal ideal.
    """
    try:
        _difference_cells(inner, outer)
    except InfiniteColengthError:
        return False
    return True


def colength(inner: MonomialIdeal, outer: MonomialIdeal) -> int:
    """Exact length of outer/inner; raises InfiniteColengthError when infinite."""
    _, widths, h_in, h_out = _difference_cells(inner, outer)
    count = h_in - h_out
    for width in widths:
        count = count * width
    return int(count.sum())


def difference_max_degree(inner: MonomialIdeal, outer: MonomialIdeal) -> int | None:
    """Largest total degree of a monomial in outer but not in inner.

    Returns None when the difference is empty (the ideals coincide) and
    raises InfiniteColengthError when it is infinite.  This is the degree
    past which truncations of the two ideals by powers of the maximal
    ideal agree.  In each cell the deepest point sits at the upper corner,
    one step below the inner height.
    """
    lows, widths, h_in, _ = _difference_cells(inner, outer)
    degree = h_in - 1
    for low, width in zip(lows, widths):
        degree = degree + low + width - 1
    return int(degree.max()) if len(degree) else None


def length_sequence(
    family_inner, family_outer, n_max: int
) -> list[int]:
    """[length(family_outer(n) / family_inner(n)) for n = 1..n_max], exactly.

    Errors from a single index are re-raised with that index attached.
    """
    out: list[int] = []
    for n in range(1, int(n_max) + 1):
        try:
            out.append(colength(family_inner(n), family_outer(n)))
        except EpsmultError as exc:
            raise type(exc)(f"{exc} (at family index n={n})") from exc
    return out
