"""Exact lengths of quotients J/I of monomial ideals (I inside J).

The length of (J/I) as a module over the local ring at the origin is the
number of monomials lying in J but not in I.  Every count here reads one
height grid.  Over each column of the last d-1 coordinates, a staircase is
a height: the least first coordinate at which the column enters the ideal.
The height changes only at generator coordinates, so cutting each column
axis at 0 and at every generator coordinate of the ideals involved gives a
compressed grid with one height per cell and ideal; the last cell of each
axis is unbounded.  An equal pair (the same ideal, or two with equal
generators, as a saturated ideal and its saturation are) has an empty
difference and reads no grid.  colength(I, None) and
difference_max_degree(I, None) read sat(I) off I's own grid without
forming the saturation ideal; there the containment and finiteness checks
hold by construction and are skipped.  Any other pair gets a fresh grid
from ideals._height_grids.  For P <= J, the finiteness of J/P is the
containment J <= sat(P), and is_finite_colength is the package's one test
of it.  The truncation search reads a list of ideals, each on its own
grid, in one stacked fill per chunk from their rows (ideals._height_grids,
stacked) that fills no memo: saturation_max_degrees gives
difference_max_degree(I, None) for each.  One masked maximum,
_stacked_max_degrees, gives every deepest degree, of a stack or of a
single difference.  Containment, finiteness, the length and the deepest
degree of the difference are array expressions over those cells.  A
length or degree runs in int64 while a bound on its partial sums (the
largest depth times the product of the axes' last cuts; the largest
height plus their sum) stays below _INT64_BOUND = 2^63, and in Python
integers past it, exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EpsmultError, InfiniteColengthError
from .ideals import _NEVER, MonomialIdeal, _height_grids, _saturation_heights

# A length or degree is summed in int64 below this bound on its partial sums.
_INT64_BOUND = 1 << 63


def _difference_cells(inner: MonomialIdeal, outer: MonomialIdeal | None):
    """The cells where outer/inner is nonempty, or None when outer equals inner.

    Returns (cuts, mask, h_in, h_out): each column of a cell in mask holds
    the h_in - h_out monomials of outer/inner whose first coordinate is at
    least h_out.  Raises EpsmultError unless inner <= outer, and
    InfiniteColengthError when the difference is infinite: some column
    enters outer but never inner, or an unbounded cell is nonempty.
    Outer None stands for sat(inner): its heights on inner's grid never
    exceed h, equal h on every last cell and are _NEVER wherever h is, so
    no check is run.  The zero ideal is its own saturation.
    """
    if outer is inner or outer == inner or (outer is None and inner.is_zero):
        return None
    if outer is None:
        cuts, h_in = inner._grid()
        h_out = _saturation_heights(h_in[None])[0]
        return cuts, h_in > h_out, h_in, h_out
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
    return cuts, mask, h_in, h_out


def is_finite_colength(inner: MonomialIdeal, outer: MonomialIdeal) -> bool:
    """Whether outer/inner has finite length.  Requires inner <= outer.

    Finiteness is equivalent to outer lying inside the saturation of
    inner: the quotient is then killed by a power of the maximal ideal.
    This is the package's one test of J <= sat(P) for P <= J, read off
    the pair's grid with no saturation ideal formed.
    """
    try:
        _difference_cells(inner, outer)
    except InfiniteColengthError:
        return False
    return True


def colength(inner: MonomialIdeal, outer: MonomialIdeal | None) -> int:
    """Exact length of outer/inner; raises InfiniteColengthError when infinite.

    Outer None stands for sat(inner), read off inner's own grid without
    forming the saturation ideal.
    """
    cells = _difference_cells(inner, outer)
    if cells is None:
        return 0
    cuts, _, h_in, h_out = cells
    # h_in >= h_out on every cell, with equality off the difference
    count = h_in - h_out
    # width 0 for the unbounded last cell, which a finite difference leaves empty
    widths = [np.append(np.diff(c), 0) for c in cuts]
    if int(count.max()) * math.prod(int(c[-1]) for c in cuts) >= _INT64_BOUND:
        count = count.astype(object)
        widths = [w.astype(object) for w in widths]
    for width in reversed(widths):
        count = count @ width
    return int(count)


def difference_max_degree(inner: MonomialIdeal, outer: MonomialIdeal | None) -> int | None:
    """Largest total degree of a monomial in outer but not in inner.

    Returns None when the difference is empty (the ideals coincide) and
    raises InfiniteColengthError when it is infinite.  Outer None stands
    for sat(inner), as in colength.  This is the degree past which
    truncations of the two ideals by powers of the maximal ideal agree.
    The difference's cells are read as a stack of one grid by
    _stacked_max_degrees.
    """
    cells = _difference_cells(inner, outer)
    if cells is None:
        return None
    cuts, mask, h_in, _ = cells
    tops = [np.append(c[1:], 0)[None] for c in cuts]
    return _stacked_max_degrees(tops, h_in[None], mask[None])[0]


def saturation_max_degrees(ideals) -> list[int | None]:
    """difference_max_degree(I, None) for each nonzero ideal I, in stacked passes.

    The ideals' grids are filled from their rows, a stack within
    MAX_GRID_CELLS cells at a time (ideals._height_grids, stacked), and no
    grid memo is filled.  A stack's padding repeats each grid's last
    cells, where sat(I)'s heights equal I's, as on every last cell: a
    padded cell holds an empty difference.
    """
    degrees: list[int | None] = []
    for tops, heights in _height_grids(ideals, stacked=True):
        degrees += _stacked_max_degrees(tops, heights, heights > _saturation_heights(heights))
    return degrees


def _stacked_max_degrees(tops, heights: np.ndarray, mask: np.ndarray) -> list[int | None]:
    """The deepest degree of the masked cells of each grid of a stack, or None.

    heights and mask stack the grids on a leading axis, and tops[k][j]
    holds grid j's upper cuts on column axis k+1, zero-padded.  Each
    masked cell, never an unbounded last one, holds the columns of a
    finite difference below its height: its deepest point sits one step
    below the height and each upper cut, so one masked max of the height
    plus the upper cuts, less d, reads each grid.
    """
    if int(heights.max()) + sum(int(top.max()) for top in tops) >= _INT64_BOUND:
        heights, tops = heights.astype(object), [top.astype(object) for top in tops]
    for axis, top in enumerate(tops, 1):
        others = tuple(a for a in range(1, heights.ndim) if a != axis)
        heights = heights + np.expand_dims(top, others)
    deepest = np.where(mask, heights, -1).reshape(len(heights), -1).max(axis=1)
    return [None if top < 0 else int(top) - len(tops) - 1 for top in deepest]

