"""Exact arithmetic for monomial ideals in a polynomial ring k[x_1..x_d].

A monomial ideal is stored by its unique minimal generating set of
exponent vectors (an antichain under the componentwise order), sorted,
both as tuples and as the rows of an int64 array, which the numpy paths
read.  Every constructor and every operation normalizes eagerly, so two
ideals are equal as values exactly when they are equal as ideals.  The
unit ideal is generated by the zero vector; the zero ideal has none.

All arithmetic is exact integer arithmetic, and exponents must be ints
(or numpy integers).  Every ideal is formed in one place (_make, or the
constructor for raw input), which refuses a minimal generator of degree
above DEGREE_LIMIT = 2^61 with SizeLimitError, so that no int64 sum or
maximum of two generators can wrap.  The constructor also refuses a ring
in more than DIM_LIMIT = 64 variables, past the axes of a numpy 2 array.
Every nonzero ideal has a compressed height grid (see _height_grids),
memoized on the instance by MonomialIdeal._grid; the saturation and the
simplex counts of the okounkov module read it.  A product of large ideals
is a min-plus shift of the larger factor's grid.  It reads its generators
off the new grid's corners, as the saturation does, and keeps the grid
for the next link of a power chain.  Below 64 candidates a pure-Python
antichain filter minimalizes; above, a vectorized one (_minimal_rows).

Instances are immutable and hashable; operations return new ideals.
Each instance memoizes what it derives: its height grid, its saturation
and its chain of powers I^2, I^3, .. (see MonomialIdeal.power).  So
every caller that asks one ideal for I^n or sat(I^n) reads the same
objects, and a report builds each once.  No memo refers back to the
ideal that holds it, so an ideal and all it derived are freed together
by reference counting.  Operations are safe to call from multiple
threads: a memo, or a member of a chain, is stored only once complete
and under its own key, so a race between threads can repeat work but
never store a wrong value.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import DimensionMismatchError, SizeLimitError, ZeroIdealError

Exponent = tuple[int, ...]

# Below this many candidate vectors (for a product: pairs of generators)
# the plain-Python antichain filter wins.
_NUMPY_CUTOVER = 64
_BLOCK = 512

# Largest degree (coordinate sum) of a minimal generator of any ideal.  So
# every coordinate, the sum or maximum of two generators, and the degree
# of either stay at most 2^62, and no int64 arithmetic on them can wrap.
DEGREE_LIMIT = 1 << 61

# Most variables of a ring.  A grid product gathers an array with one axis
# per generator and column axis, and a numpy 2 array has at most 64 axes
# (numpy 1 had 32, hence numpy>=2 in pyproject.toml).
DIM_LIMIT = 64


def _exact_int(value, what: str, low: int | None = None) -> int:
    """value as a Python int, at least low if given: the package's one integer check.

    Every count, bound, index, window, slope, dimension and exponent that
    enters the library passes here once.  Only int and numpy integers pass,
    never bool: anything else raises TypeError, and a value below low
    raises ValueError.  Both messages name the argument as `what`.
    """
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{what} must be at least {low}, got {value}")
    return int(value)


def _as_vector(vec: Iterable[int], dim: int) -> Exponent:
    v = tuple(_exact_int(c, "an exponent", 0) for c in vec)
    if len(v) != dim:
        raise DimensionMismatchError(
            f"exponent vector {v} has length {len(v)}, expected {dim}"
        )
    return v


def _dominates(small: Exponent, big: Exponent) -> bool:
    return all(s <= b for s, b in zip(small, big))


def _minimal_python(cands: set[Exponent]) -> list[Exponent]:
    out: list[Exponent] = []
    for c in sorted(cands, key=lambda t: (sum(t), t)):
        if not any(_dominates(g, c) for g in out):
            out.append(c)
    return out


def _check_degree(vectors) -> None:
    """The degree rule, summed in Python ints: no vector past DEGREE_LIMIT."""
    if max(map(sum, vectors), default=0) > DEGREE_LIMIT:
        raise SizeLimitError(
            f"a generator has degree above {DEGREE_LIMIT} (2^61), "
            "past the exact int64 range"
        )


def _int64_rows(vectors, dim: int) -> np.ndarray:
    """Exponent vectors as an (n, dim) int64 array, within DEGREE_LIMIT."""
    _check_degree(vectors)
    return np.asarray(vectors, dtype=np.int64).reshape(len(vectors), dim)


# Largest number of cells of one height grid (32 MiB as int64).
MAX_GRID_CELLS = 1 << 22

# Height of a column that never enters the ideal.  A finite height is a
# first coordinate g_1 <= 2^61, or in a grid product a sum g_1 + h <= 2^62,
# so _NEVER lies above it; and a product's g_1 + _NEVER <= 2^61 + 2^62 + 1
# < 2^63 stays in int64.
_NEVER = 2 * DEGREE_LIMIT + 1


def _column_cuts(rows: np.ndarray) -> list[np.ndarray]:
    """0 and every row's coordinate k, sorted, for each column axis k = 1..d-1."""
    return [np.unique(np.concatenate(([0], rows[:, k]))) for k in range(1, rows.shape[1])]


def _height_grids(ideals) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Heights of ideals in one ring on their shared compressed grid.

    Over each column of the last d-1 coordinates, an ideal's height is the
    least first coordinate at which the column enters it.  Returns (cuts,
    grids).  cuts[k] holds 0 and every generator's coordinate k+1, sorted:
    cell i of that axis spans [cuts[k][i], cuts[k][i+1]), and the last cell
    is unbounded.  grids[j] holds the height of ideals[j] on every cell,
    _NEVER where it is infinite.  Raises SizeLimitError above
    MAX_GRID_CELLS cells.
    """
    dim = ideals[0].dim
    rows = [ideal._rows for ideal in ideals]
    cuts = _column_cuts(np.concatenate(rows))
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


def _corners(cuts, heights: np.ndarray) -> np.ndarray:
    """The minimal generators of a height grid, as int64 rows in sorted order.

    The heights must be nonincreasing along every axis.  A cell holds a
    minimal generator, (height, lower corner), where its height is finite
    and lies below the height one step back along every axis.
    """
    corner = heights < _NEVER
    for axis in range(heights.ndim):
        lead = (slice(None),) * axis
        after, before = lead + (slice(1, None),), lead + (slice(None, -1),)
        corner[after] &= heights[after] < heights[before]
    at = np.nonzero(corner) if corner.ndim else ()
    rows = np.column_stack([heights[corner], *(c[i] for c, i in zip(cuts, at))])
    # np.nonzero lists the cells in lexicographic order of their corners, so
    # a stable sort by height sorts the rows lexicographically
    return rows[np.argsort(rows[:, 0], kind="stable")]


def _cell_corners(cuts, mask: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per column axis, the lower corner and the width of each masked cell.

    Both come as arrays of Python ints, in the order of grid[mask]; the
    width is 0 where the cell is unbounded.
    """
    at = np.nonzero(mask) if mask.ndim else ()
    lows = [c[i].astype(object) for c, i in zip(cuts, at)]
    widths = [
        (np.concatenate((c[1:], c[-1:])) - c)[i].astype(object) for c, i in zip(cuts, at)
    ]
    return lows, widths


def _saturation_on_grid(ideal: "MonomialIdeal") -> "MonomialIdeal":
    """The saturation of a nonzero ideal, read off its height grid.

    The largest finite height is the largest first coordinate of a
    generator, T_1 in MonomialIdeal.saturate.
    """
    cuts, height = ideal._grid()
    finite = height < _NEVER
    sat = np.maximum(height - height[finite].max(), 0)
    for axis in range(height.ndim):
        sat = np.maximum(sat, height.take([-1], axis=axis))
    return _make(ideal.dim, rows=_corners(cuts, np.where(finite, sat, _NEVER)))


def _shifted_heights(padded: np.ndarray, cuts, union, shifts: np.ndarray) -> np.ndarray:
    """For each row g of shifts, g_1 + h(y - g') on every cell y of the union grid.

    h is read from padded, the heights with one extra _NEVER cell at the
    end of every axis: a column y - g' before the origin finds no cut at
    or below it, so its index is -1, which lands there.  Returns an array
    of shape (len(shifts), *union shape).
    """
    n, ndim = len(shifts), len(cuts)
    index = []
    for k, (c, u) in enumerate(zip(cuts, union)):
        at = np.searchsorted(c, u[None, :] - shifts[:, k + 1, None], side="right") - 1
        index.append(at.reshape((n,) + (1,) * k + (-1,) + (1,) * (ndim - 1 - k)))
    out = padded[tuple(index)]
    out += shifts[:, 0].reshape((n,) + (1,) * ndim)
    return out


def _union_cuts(big: "MonomialIdeal", small: "MonomialIdeal") -> list[np.ndarray]:
    """The cuts of the grid _product_on_grid evaluates big * small on.

    0, and big's cuts shifted by the column part g' of every generator of
    small.  Read off the generators, so big's grid need not exist yet.
    """
    grid = getattr(big, "_heights", None)
    cuts = grid[0] if grid is not None else _column_cuts(big._rows)
    shifts = small._rows
    return [
        np.unique(np.concatenate(([0], (c[None, :] + shifts[:, k + 1, None]).ravel())))
        for k, c in enumerate(cuts)
    ]


def _product_on_grid(big: "MonomialIdeal", small: "MonomialIdeal", union) -> "MonomialIdeal":
    """big * small as a min-plus shift of big's height grid.

    A column y enters big * small at the least g_1 + h(y - g'), over the
    generators g = (g_1, g') of small with g' <= y, where h is big's
    height.  h changes only at big's cuts, so this does too only at 0 and
    at big's cuts shifted by each g': union must be these cuts, as
    _union_cuts returns them.  The caller keeps the union grid padded by
    one cell per axis within MAX_GRID_CELLS cells, and so big's padded
    grid, which has no more cuts on any axis; the shifts are gathered a
    chunk of generators at a time, with at most MAX_GRID_CELLS cells in a
    chunk.
    """
    shifts = small._rows
    cuts, heights = big._grid()
    shape = tuple(map(len, union))
    cells = math.prod(shape)
    padded = np.full([s + 1 for s in heights.shape], _NEVER, dtype=np.int64)
    padded[tuple(map(slice, heights.shape))] = heights
    out = np.full(shape, _NEVER, dtype=np.int64)
    chunk = max(1, MAX_GRID_CELLS // cells)
    for start in range(0, len(shifts), chunk):
        part = _shifted_heights(padded, cuts, union, shifts[start : start + chunk])
        np.minimum(out, part.min(axis=0), out=out)
    # g_1 + _NEVER still marks a column that never enters
    np.minimum(out, _NEVER, out=out)
    rows = _corners(union, out)
    # The heights change only at 0 and at generator coordinates.  Keeping
    # just those cuts leaves the product's own grid, as _height_grids would
    # build it, which the product keeps.
    own = list(union)
    for axis in range(out.ndim):
        keep = np.isin(own[axis], rows[:, axis + 1])
        keep[0] = True
        own[axis] = own[axis][keep]
        out = out.compress(keep, axis=axis)
    ideal = _make(big.dim, rows=rows)
    ideal._set_grid(own, out)
    return ideal


def _minimal_rows(rows: np.ndarray) -> np.ndarray:
    """The minimal rows of an int64 array, distinct and sorted lexicographically.

    Rows are compared a block at a time in order of degree, which must fit
    in int64: a row can be dominated only by one of no larger degree.
    """
    rows = np.unique(rows, axis=0)
    order = np.argsort(rows.sum(axis=1), kind="stable")
    keep = np.zeros(len(rows), dtype=bool)
    for start in range(0, len(rows), _BLOCK):
        at = order[start : start + _BLOCK]
        block = rows[at]
        if start:
            free = ~(rows[keep][None, :, :] <= block[:, None, :]).all(2).any(1)
            at, block = at[free], block[free]
        # Survivors can still dominate each other within the block.  The
        # rows are distinct, so a row dominated by any other survivor is
        # dominated by a minimal one, and the diagonal is the only self-match.
        inner = (block[None, :, :] <= block[:, None, :]).all(2)
        np.fill_diagonal(inner, False)
        keep[at[~inner.any(1)]] = True
    # the mask keeps the lexicographic order np.unique gave
    return rows[keep]


def minimal_vectors(vectors: Iterable[Exponent]) -> tuple[Exponent, ...]:
    """Minimal elements of a set of exponent vectors, sorted lexicographically."""
    cands = set(vectors)
    # a vector past DEGREE_LIMIT may not fit in int64; the Python filter takes it
    if len(cands) < _NUMPY_CUTOVER or max(map(sum, cands)) > DEGREE_LIMIT:
        return tuple(sorted(_minimal_python(cands)))
    rows = np.array(list(cands), dtype=np.int64)
    return tuple(map(tuple, _minimal_rows(rows).tolist()))


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal, normalized to its minimal sorted generating set."""

    dim: int
    generators: tuple[Exponent, ...]

    def __init__(self, dim: int, generators: Iterable[Iterable[int]] = ()):
        dim = _exact_int(dim, "dim", 1)
        if dim > DIM_LIMIT:
            raise SizeLimitError(
                f"a ring in {dim} variables is past the limit of {DIM_LIMIT}, "
                "the most axes a numpy array has"
            )
        gens = minimal_vectors(_as_vector(g, dim) for g in generators)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "_rows", _int64_rows(gens, dim))

    # -- basic queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_unit(self) -> bool:
        return len(self.generators) == 1 and not any(self.generators[0])

    def _grid(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """(cuts, heights) of this ideal's own height grid, read-only.

        Memoized on the instance.  A product above the cutover keeps the
        grid it was computed on, so a chain of powers builds each grid once.
        """
        grid = getattr(self, "_heights", None)
        if grid is None:
            cuts, (heights,) = _height_grids((self,))
            grid = self._set_grid(cuts, heights)
        return grid

    def _set_grid(self, cuts, heights: np.ndarray):
        for arr in (*cuts, heights):
            arr.flags.writeable = False
        grid = (tuple(cuts), heights)
        object.__setattr__(self, "_heights", grid)
        return grid

    def max_exponents(self) -> Exponent:
        """Componentwise maximum over the generators (zeros for the zero ideal)."""
        if self.is_zero:
            return (0,) * self.dim
        return tuple(int(v) for v in self._rows.max(axis=0))

    def contains(self, vec: Iterable[int]) -> bool:
        """Membership of the monomial x^vec."""
        e = _as_vector(vec, self.dim)
        return any(_dominates(g, e) for g in self.generators)

    def __iter__(self) -> Iterator[Exponent]:
        return iter(self.generators)

    def _check_same_dim(self, other: "MonomialIdeal") -> None:
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"ideals live in {self.dim} and {other.dim} variables"
            )

    # -- ideal arithmetic ----------------------------------------------

    def sum(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Ideal sum I + J."""
        self._check_same_dim(other)
        return _make(self.dim, minimal_vectors(self.generators + other.generators))

    def product(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Ideal product I * J.

        Below _NUMPY_CUTOVER pairs of generators, the pairwise sums,
        minimalized by the Python filter.  At or above it, a min-plus shift
        of the larger factor's height grid (see _product_on_grid), or the
        pairwise sums, minimalized by _minimal_rows, when that grid would
        be too large.  Either way the product is refused with
        SizeLimitError when one of its minimal generators has degree above
        DEGREE_LIMIT; a larger pairwise sum that is not minimal is not.
        """
        self._check_same_dim(other)
        if self.is_zero or other.is_zero:
            return zero_ideal(self.dim)
        big, small = self, other
        if len(big.generators) < len(small.generators):
            big, small = small, big
        n_big, n_small = len(big.generators), len(small.generators)
        if n_big * n_small < _NUMPY_CUTOVER:
            sums = (tuple(map(operator.add, g, h)) for g in big for h in small)
            return _make(self.dim, minimal_vectors(sums))
        # The grid path gathers one union grid per generator of small; the
        # numpy filter compares each of the n_big * n_small sums with the
        # generators kept, of which a product has about n_big or more.  So
        # the grid path is taken while the union grid has at most n_big^2
        # cells.  Powers, whose exponents coincide, stay far below that;
        # generic ideals with large exponents pass it.  The path also pads
        # big's grid by one cell per axis, and each union axis has at least
        # as many cuts as big's: the padded union grid must fit
        # MAX_GRID_CELLS, as an axis with no cut but 0 doubles it.
        union = _union_cuts(big, small)
        padded = math.prod(len(u) + 1 for u in union)
        if math.prod(map(len, union)) <= n_big * n_big and padded <= MAX_GRID_CELLS:
            return _product_on_grid(big, small, union)
        sums = big._rows[:, None, :] + small._rows[None, :, :]
        return _make(self.dim, rows=_minimal_rows(sums.reshape(-1, self.dim)))

    def power(self, n: int) -> "MonomialIdeal":
        """I^n; I^0 is the unit ideal and I^1 is I.

        The chain I^2, I^3, .. is memoized on the instance, keyed by n.  A
        missing member is built bottom-up from the highest one below it,
        I^(k+1) = I^k * I, so each link is one product.  The chain leaves
        out I itself, so that no ideal is reachable from itself.
        """
        n = _exact_int(n, "a power", 0)
        if n < 2:
            return self if n else unit_ideal(self.dim)
        chain = getattr(self, "_powers", None)
        if chain is None:
            chain = {}
            object.__setattr__(self, "_powers", chain)
        got = chain.get(n)
        if got is None:
            top = next((k for k in range(n - 1, 1, -1) if k in chain), 1)
            got = chain.get(top, self)
            for k in range(top + 1, n + 1):
                got = got.product(self)
                chain[k] = got
        return got

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Ideal intersection via componentwise maxima of generator pairs."""
        self._check_same_dim(other)
        if self.is_zero or other.is_zero:
            return zero_ideal(self.dim)
        maxes = np.maximum(self._rows[:, None, :], other._rows[None, :, :])
        return _make(self.dim, rows=_minimal_rows(maxes.reshape(-1, self.dim)))

    def colon(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Colon ideal I : J, for J nonzero: the intersection of I : x^g over its generators g."""
        self._check_same_dim(other)
        if other.is_zero:
            raise ZeroIdealError("colon by the zero ideal is undefined")
        parts = (
            _make(self.dim, rows=_minimal_rows(np.maximum(self._rows - g, 0)))
            for g in other._rows
        )
        return functools.reduce(MonomialIdeal.intersect, parts)

    def saturate(self) -> "MonomialIdeal":
        """Saturation I : m^infinity with respect to m = (x_1, .., x_d).

        x^e lies in the saturation iff x_j^(T_j) * x^e lies in I for every
        j, with T_j the largest exponent of x_j over the generators.  On
        the height grid h of I, multiplying by x_1^(T_1) lowers a height by
        T_1, and multiplying by x_j^(T_j), j > 1, moves a column into the
        unbounded last cell of axis j.  So the saturation has height
        max(h - T_1, 0, h with any one axis at its last cell) on every cell
        where h is finite.  Memoized on the instance.
        """
        if self.is_zero or self.is_unit:
            return self
        sat = getattr(self, "_sat", None)
        if sat is None:
            sat = _saturation_on_grid(self)
            object.__setattr__(self, "_sat", sat)
        return sat

    def is_subideal_of(self, other: "MonomialIdeal") -> bool:
        """Containment I <= J: each generator of I is a multiple of one of J."""
        self._check_same_dim(other)
        return all(any(_dominates(g, e) for g in other.generators) for e in self.generators)

    # -- operator sugar --------------------------------------------------

    __add__ = sum
    __mul__ = product
    __pow__ = power
    __and__ = intersect

    def __repr__(self) -> str:
        return f"MonomialIdeal(dim={self.dim}, generators={list(self.generators)})"


def _make(dim: int, gens=None, rows=None) -> MonomialIdeal:
    """Form an ideal from its sorted minimal generators, as tuples or as int64 rows.

    Derives the other form; raises SizeLimitError past DEGREE_LIMIT.
    """
    if rows is None:
        rows = _int64_rows(gens, dim)
    else:
        gens = tuple(map(tuple, rows.tolist()))
        _check_degree(gens)
    ideal = object.__new__(MonomialIdeal)
    object.__setattr__(ideal, "dim", dim)
    object.__setattr__(ideal, "generators", gens)
    object.__setattr__(ideal, "_rows", rows)
    return ideal


def zero_ideal(dim: int) -> MonomialIdeal:
    return MonomialIdeal(dim, ())


def unit_ideal(dim: int) -> MonomialIdeal:
    return MonomialIdeal(dim, ((0,) * dim,))


def maximal_ideal(dim: int) -> MonomialIdeal:
    """The irrelevant maximal ideal m = (x_1, .., x_d)."""
    gens = []
    for j in range(dim):
        gens.append(tuple(1 if i == j else 0 for i in range(dim)))
    return MonomialIdeal(dim, gens)


# -- serialization ------------------------------------------------------


def to_json_dict(ideal: MonomialIdeal) -> dict:
    """JSON-ready form: {"dim": d, "generators": [[..], ..]}, minimal and sorted."""
    return {"dim": ideal.dim, "generators": [list(g) for g in ideal.generators]}


def from_json_dict(data: dict) -> MonomialIdeal:
    if not isinstance(data, dict):
        raise ValueError("ideal JSON must be an object")
    try:
        dim = data["dim"]
        gens = data["generators"]
    except (KeyError, TypeError) as exc:
        raise ValueError('ideal JSON needs "dim" and "generators" keys') from exc
    if not isinstance(gens, list):
        raise ValueError('"generators" must be a list of exponent vectors')
    return MonomialIdeal(dim, gens)
