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
from ideals._height_grids.  inside_saturation(J, I) reads J <= sat(I)
off I's own grid too, and so do okounkov.simplex_counts and
MonomialIdeal.saturate: all of them share the saturation's heights that
MonomialIdeal._saturation_grid memoizes on I.
Containment, finiteness, the length and the deepest degree of the
difference are array expressions over those cells.  A length or degree
runs in int64 while a bound on its partial sums (the largest depth times
the product of the axes' last cuts; the largest height plus their sum)
stays below _INT64_BOUND = 2^63, and in Python integers past it, exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EpsmultError, InfiniteColengthError
from .ideals import _NEVER, MonomialIdeal, _height_grids

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
        # epsilon_sequence reads each power of its kept chain here once
        h_out = inner._saturation_grid(keep=False)
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
    A finite difference leaves every unbounded last cell empty; in each
    other cell the deepest point sits one step below the inner height and
    each upper cut.
    """
    cells = _difference_cells(inner, outer)
    if cells is None:
        return None
    cuts, mask, h_in, _ = cells
    bounded = (slice(-1),) * mask.ndim + (...,)  # ... keeps a 0-d grid an array
    mask, h_in, tops = mask[bounded], h_in[bounded], [c[1:] for c in cuts]
    if not mask.any():
        return None
    # an object array of Python ints takes in the int64 cuts as Python ints
    bound = int(h_in.max()) + sum(int(top[-1]) for top in tops)
    degree = sum(np.ix_(*tops), h_in if bound < _INT64_BOUND else h_in.astype(object))
    return int(degree[mask].max()) - inner.dim


def inside_saturation(ideal: MonomialIdeal, power: MonomialIdeal) -> bool:
    """Whether ideal <= sat(power), read off power's own grid.

    A generator g = (g_1, g') lies in the saturation iff g_1 reaches the
    saturation's height over the cell holding the column g'.  The zero
    ideal lies in every saturation, and only it lies in sat(0) = 0.
    """
    ideal._check_same_dim(power)
    if ideal.is_zero or power.is_zero:
        return ideal.is_zero
    cuts, rows = power._grid()[0], ideal._rows
    cell = [np.searchsorted(c, rows[:, k], side="right") - 1 for k, c in enumerate(cuts, 1)]
    return bool((power._saturation_grid()[tuple(cell)] <= rows[:, 0]).all())
