"""Exact arithmetic for monomial ideals in a polynomial ring k[x_1..x_d].

A monomial ideal is stored by its unique minimal generating set of
exponent vectors (an antichain under the componentwise order), sorted,
as int64 rows; .generators builds their tuples on first read.  Every
constructor and every operation normalizes eagerly, so two ideals are
equal (and hash equal) exactly when their row bytes are.  The unit ideal
is generated by the zero vector; the zero ideal has none.

All arithmetic is exact integer arithmetic, and exponents must be ints
(or numpy integers).  Every ideal is formed in one place (_make, or the
constructor for raw input), which refuses a minimal generator of degree
above DEGREE_LIMIT = 2^61 with SizeLimitError, so that no int64 sum or
maximum of two generators can wrap; rows with no coordinate above
DEGREE_LIMIT // d pass it unread.  The constructor also refuses a ring in
more than DIM_LIMIT = 64 variables, past the axes of a numpy 2 array.
Every nonzero ideal has a compressed height grid (see _height_grids),
memoized on the instance by MonomialIdeal._grid.  The saturation, the
length of sat(I)/I and okounkov's simplex counts read the saturation's
heights off it on each call (_saturation_heights).  The truncation
search, the deepest degree of sat(I)/I over a chain of powers, fills a
stack of grids from their rows at once instead (_height_grids, stacked),
with no memo.  A product of large ideals is a min-plus shift of the
larger factor's grid, trimmed to its own grid and kept for the next link
of a power chain.
Every other ideal is minimalized by one bitset filter on Python ints
(minimal_vectors), exact at any degree, in about N^2 / 2 bits of memory
for N candidates.

Instances are immutable and hashable; operations return new ideals.
Each instance memoizes what it derives: its generator tuples, height
grid and chain of powers I^2, I^3, .. (see .power).  So every caller
that asks one ideal for I^n reads the same object, and a report builds
each once.  A saturated ideal is its own saturation, so the chain of
sat(I) is I's own.  No memo refers back to the ideal that holds it, so
an ideal and all it derived are freed together by reference counting.
Operations are safe to call from multiple threads: a memo, or a member
of a chain, is stored only once complete and under its own key, so a
race between threads can repeat work but never store a wrong value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DimensionMismatchError, SizeLimitError, ZeroIdealError

Exponent = tuple[int, ...]

# From this many pairs of generators up, a product takes the grid when its
# union grid fits (see MonomialIdeal.product); below, pairwise sums win.
_GRID_CUTOVER = 64

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


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """0 and the values, sorted, each once: np.unique would import numpy.ma."""
    s = np.sort(np.concatenate(([0], values), axis=None))
    return s[np.concatenate(([True], s[1:] != s[:-1]))]


def _column_cuts(rows: np.ndarray) -> list[np.ndarray]:
    """0 and every row's coordinate k, sorted, for each column axis k = 1..d-1."""
    return [_sorted_distinct(rows[:, k]) for k in range(1, rows.shape[1])]


def _check_grid_cells(shape) -> None:
    cells = math.prod(shape)
    if cells > MAX_GRID_CELLS:
        raise SizeLimitError(
            f"a height grid of {cells} cells exceeds the limit of {MAX_GRID_CELLS}"
        )


def _height_grids(ideals, stacked: bool = False):
    """Heights of ideals in one ring, on their shared grid or each on its own.

    Over each column of the last d-1 coordinates, an ideal's height is the
    least first coordinate at which the column enters it, _NEVER where it
    never does.  A grid cuts each column axis at 0 and at generator
    coordinates: cell i of an axis spans [cuts[i], cuts[i+1]), and the last
    cell is unbounded.  Every grid or stack of grids takes one
    np.minimum.at and one np.minimum.accumulate per column axis.  Raises
    SizeLimitError when one grid passes MAX_GRID_CELLS cells.

    Shared (the default): returns (cuts, grids), where cuts[k] holds 0 and
    every generator's coordinate k+1, sorted, and grids[j] the heights of
    ideals[j] on every cell.

    Stacked: each ideal sits on its own cuts (a zero ideal's grid is one
    cell of _NEVER).  Returns an iterator over chunks (tops, heights), in
    the order of the ideals: one stack, or one per grid past MAX_GRID_CELLS.
    heights stacks a run of the ideals' grids on a leading axis, each
    padded along every column axis with copies of its last cells.
    tops[k][j] holds the upper cuts of the run's j-th grid on axis k+1,
    cuts[1:], then zeros: the unbounded last cell and the padding read 0.
    One lexsort per axis over all the ideals' rows gives every ideal's
    cuts and every row's cell; a chunk is filled only when the iterator
    reaches it.
    """

    def fill(firsts, flat, shape):
        heights = np.full(math.prod(shape), _NEVER, dtype=np.int64)
        np.minimum.at(heights, flat, firsts)
        heights = heights.reshape(shape)
        for axis in range(1, len(shape)):
            np.minimum.accumulate(heights, axis=axis, out=heights)
        return heights

    n = len(ideals)
    if not stacked:
        rows = np.concatenate([ideal._rows for ideal in ideals]) if n > 1 else ideals[0]._rows
        cuts = _column_cuts(rows)
        shape = tuple(map(len, cuts))
        _check_grid_cells(shape)
        flat = np.zeros(len(rows), dtype=np.intp)
        for k, c in enumerate(cuts, start=1):
            flat = flat * len(c) + np.searchsorted(c, rows[:, k])
        if n > 1:
            sizes = [len(ideal._rows) for ideal in ideals]
            flat += np.repeat(np.arange(n) * math.prod(shape), sizes)
        heights = fill(rows[:, 0], flat, (n, *shape))
        return cuts, [heights[j, ...] for j in range(n)]
    if not n:
        return iter(())
    # each ideal's rows follow a row (_NEVER, 0, .., 0): it puts 0 among the
    # ideal's cuts on every axis and lowers no height
    dim = ideals[0].dim
    lead = np.zeros((1, dim), dtype=np.int64)
    lead[0, 0] = _NEVER
    rows = np.concatenate([part for ideal in ideals for part in (lead, ideal._rows)])
    sizes = [len(ideal._rows) + 1 for ideal in ideals]
    owner = np.repeat(np.arange(n), sizes)
    ends = np.cumsum([0, *sizes])
    starts = ends[:-1]
    tops, cells, lengths, wide = [], [], [], []
    for k in range(1, dim):
        # sorted by ideal, then value: each ideal's rows keep their places
        order = np.lexsort((rows[:, k], owner))
        value = rows[order, k]
        new = np.empty(len(value), dtype=bool)
        np.not_equal(value[1:], value[:-1], out=new[1:])
        new[starts] = True
        rank = np.cumsum(new)
        # the place of each sorted value's cut among its own ideal's cuts
        at = rank - rank[starts][owner]
        cell = np.empty_like(at)
        cell[order] = at
        count = at[ends[1:] - 1] + 1
        widest = int(count.max())
        cut = np.zeros((n, widest + 1), dtype=np.int64)
        cut[owner[new], at[new]] = value[new]
        tops.append(cut[:, 1:])
        cells.append(cell)
        lengths.append(count)
        wide.append(widest)
    # one stack, unless the padded grids pass MAX_GRID_CELLS: then one
    # chunk per grid, each checked before any is filled
    runs = [(0, n, wide)]
    if n * math.prod(wide) > MAX_GRID_CELLS:
        shapes = np.reshape(lengths, (dim - 1, n)).T.tolist()
        for shape in shapes:
            _check_grid_cells(shape)
        runs = [(j, j + 1, shape) for j, shape in enumerate(shapes)]

    def chunk(a, b, wide):
        lo, hi = ends[a], ends[b]
        flat = owner[lo:hi] - a
        for cell, length in zip(cells, wide):
            flat = flat * length + cell[lo:hi]
        part = [top[a:b, :length] for top, length in zip(tops, wide)]
        return part, fill(rows[lo:hi, 0], flat, (b - a, *wide))

    return (chunk(*run) for run in runs)


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


def _saturation_heights(heights: np.ndarray) -> np.ndarray:
    """The saturations' heights on a stack of nonzero ideals' grids (see MonomialIdeal.saturate).

    The leading axis indexes the grids.  A grid's largest finite height is
    its T_1, the largest first coordinate of a generator.  A grid padded
    along a column axis with copies of its last cells keeps its own cells'
    saturation heights, and on the copies they equal its heights.
    """
    finite = heights < _NEVER
    columns = tuple(range(1, heights.ndim))
    sat = heights - heights.max(axis=columns, where=finite, initial=0, keepdims=True)
    np.maximum(sat, 0, out=sat)
    for axis in columns:
        np.maximum(sat, heights.take([-1], axis=axis), out=sat)
    sat[~finite] = _NEVER
    return sat


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
    shifts = small._rows
    return [
        _sorted_distinct(c[None, :] + shifts[:, k + 1, None])
        for k, c in enumerate(_column_cuts(big._rows))
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
    # A cut holds a generator coordinate iff the heights change across it (a
    # lower cell walks back along the other axes to a corner).  Keeping 0 and
    # those cuts leaves the product's own grid, which the product keeps.
    own = list(union)
    for axis in range(out.ndim):
        others = tuple(a for a in range(out.ndim) if a != axis)
        keep = np.concatenate(([True], (np.diff(out, axis=axis) != 0).any(axis=others)))
        own[axis] = own[axis][keep]
        out = out.compress(keep, axis=axis)
    ideal = _make(big.dim, rows=_corners(own, out))
    ideal._set_grid(own, out)
    return ideal


def minimal_vectors(vectors: Iterable[Exponent]) -> tuple[Exponent, ...]:
    """Minimal elements of a set of exponent vectors, sorted lexicographically.

    The package's one minimalization filter: one sort per axis, exact at
    any size.  Each candidate ANDs, over the axes, the bitset of the
    candidates no larger on that axis.  The candidates are made distinct,
    so one is minimal when that leaves its own bit alone.  In
    lexicographic order only an earlier candidate can divide a later one,
    so each bitset starts as its own bit and those before it.  The bitsets
    take memory quadratic in the N distinct candidates: about N^2 / 2
    bits, and twice that while one axis's masks replace the last.  A
    40,000-vector antichain in three variables takes about 320 MB.
    """
    vecs = sorted(set(vectors))
    bits = [1 << i for i in range(len(vecs))]
    masks = [(bit << 1) - 1 for bit in bits]
    for column in zip(*vecs):
        below: dict[int, int] = {}
        for c, bit in zip(column, bits):
            below[c] = below.get(c, 0) | bit
        seen = 0
        for c in sorted(below):
            seen |= below[c]
            below[c] = seen
        masks = [m & below[c] for m, c in zip(masks, column)]
    # a list, not a generator: tuple() over-allocates and shrinks a tuple of
    # unknown length, which left the heap about 2 MB larger after 40 lemmas passes
    return tuple([v for v, m, bit in zip(vecs, masks, bits) if m == bit])


def _minimal_ideal(dim: int, rows: np.ndarray) -> "MonomialIdeal":
    """The ideal generated by int64 rows (not necessarily minimal or distinct)."""
    return _make(dim, minimal_vectors(map(tuple, rows.reshape(-1, dim).tolist())))


@dataclass(frozen=True, eq=False)
class MonomialIdeal:
    """A monomial ideal, normalized to its minimal sorted generating set."""

    dim: int

    def __init__(self, dim: int, generators: Iterable[Iterable[int]] = ()):
        dim = _exact_int(dim, "dim", 1)
        if dim > DIM_LIMIT:
            raise SizeLimitError(
                f"a ring in {dim} variables is past the limit of {DIM_LIMIT}, "
                "the most axes a numpy array has"
            )
        gens = minimal_vectors(_as_vector(g, dim) for g in generators)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_gens", gens)
        object.__setattr__(self, "_rows", _int64_rows(gens, dim))

    # -- basic queries -------------------------------------------------

    @property
    def generators(self) -> tuple[Exponent, ...]:
        if self._gens is None:
            object.__setattr__(self, "_gens", tuple(map(tuple, self._rows.tolist())))
        return self._gens

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.dim == other.dim and self._rows.tobytes() == other._rows.tobytes()

    def __hash__(self) -> int:
        return hash((self.dim, self._rows.tobytes()))

    @property
    def is_zero(self) -> bool:
        return not len(self._rows)

    @property
    def is_unit(self) -> bool:
        return len(self._rows) == 1 and not self._rows.any()

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

    def _check_same_dim(self, other: "MonomialIdeal") -> None:
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"ideals live in {self.dim} and {other.dim} variables"
            )

    # -- ideal arithmetic ----------------------------------------------

    def product(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Ideal product I * J.

        From _GRID_CUTOVER pairs of generators up, a min-plus shift of the
        larger factor's height grid (see _product_on_grid) while that grid
        fits; otherwise the pairwise sums, minimalized by minimal_vectors
        in about N^2 / 2 bits for N = n_big * n_small sums.  Either way the product is refused with SizeLimitError when one of
        its minimal generators has degree above DEGREE_LIMIT; a larger
        pairwise sum that is not minimal is not.
        """
        self._check_same_dim(other)
        if self.is_zero or other.is_zero:
            return zero_ideal(self.dim)
        big, small = self, other
        if len(big._rows) < len(small._rows):
            big, small = small, big
        n_big = len(big._rows)
        if n_big * len(small._rows) >= _GRID_CUTOVER:
            # The grid path gathers one union grid per generator of small; the
            # filter ANDs bitsets of up to n_big * n_small bits per sum.  So the
            # grid is taken while it has at most n_big^2 cells: powers stay far
            # below that, generic ideals with large exponents pass it.  big's
            # grid is padded by one cell per axis, and each union axis has at
            # least as many cuts: the padded union grid must fit MAX_GRID_CELLS
            # (an axis cut only at 0 doubles).
            union = _union_cuts(big, small)
            padded = math.prod(len(u) + 1 for u in union)
            if math.prod(map(len, union)) <= n_big * n_big and padded <= MAX_GRID_CELLS:
                return _product_on_grid(big, small, union)
        return _minimal_ideal(self.dim, big._rows[:, None, :] + small._rows[None, :, :])

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
        return _minimal_ideal(self.dim, np.maximum(self._rows[:, None, :], other._rows[None, :, :]))

    def colon(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Colon ideal I : J, for J nonzero: the intersection of I : x^g over its generators g."""
        self._check_same_dim(other)
        if other.is_zero:
            raise ZeroIdealError("colon by the zero ideal is undefined")
        parts = (_minimal_ideal(self.dim, np.maximum(self._rows - g, 0)) for g in other._rows)
        return functools.reduce(MonomialIdeal.intersect, parts)

    def saturate(self) -> "MonomialIdeal":
        """Saturation I : m^infinity with respect to m = (x_1, .., x_d).

        x^e lies in the saturation iff x_j^(T_j) * x^e lies in I for every
        j, with T_j the largest exponent of x_j over the generators.  On
        the height grid h of I, multiplying by x_1^(T_1) lowers a height by
        T_1, and multiplying by x_j^(T_j), j > 1, moves a column into the
        unbounded last cell of axis j.  So the saturation has height
        max(h - T_1, 0, h with any one axis at its last cell) on every cell
        where h is finite (_saturation_heights).  A saturated ideal is
        returned itself, so every chain and count over sat(I) reads its memos.
        """
        if self.is_zero or self.is_unit:
            return self
        cuts, heights = self._grid()
        rows = _corners(cuts, _saturation_heights(heights[None])[0])
        if np.array_equal(rows, self._rows):
            return self
        return _make(self.dim, rows=rows)

    # -- operator sugar --------------------------------------------------

    __mul__ = product
    __pow__ = power
    __and__ = intersect

    def __repr__(self) -> str:
        return f"MonomialIdeal(dim={self.dim}, generators={list(self.generators)})"


def _make(dim: int, gens=None, rows=None) -> MonomialIdeal:
    """Form an ideal from its sorted minimal generators, as tuples or as int64 rows.

    Derives rows from tuples; tuples wait for .generators.  Raises
    SizeLimitError past DEGREE_LIMIT.
    """
    if rows is None:
        rows = _int64_rows(gens, dim)
    elif len(rows) and rows.max() > DEGREE_LIMIT // dim:
        # below that bound no row's degree can pass the limit
        _check_degree(rows.tolist())
    ideal = object.__new__(MonomialIdeal)
    object.__setattr__(ideal, "dim", dim)
    object.__setattr__(ideal, "_gens", gens)
    object.__setattr__(ideal, "_rows", rows)
    return ideal


def zero_ideal(dim: int) -> MonomialIdeal:
    return MonomialIdeal(dim, ())


def unit_ideal(dim: int) -> MonomialIdeal:
    return MonomialIdeal(dim, ((0,) * dim,))


def maximal_ideal(dim: int) -> MonomialIdeal:
    """The irrelevant maximal ideal m = (x_1, .., x_d)."""
    return MonomialIdeal(dim, (tuple(int(i == j) for i in range(dim)) for j in range(dim)))


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
