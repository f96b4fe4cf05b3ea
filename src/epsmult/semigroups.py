"""Graded subsemigroups of N^(d+1) and their level counts.

Points carry their grading in the last coordinate.  A semigroup is
known from exactly one source: finitely many generators or explicitly
given levels.

A Semigroup is immutable.  A generated one answers each query from its
generators alone, by one dynamic program over generator sums that keeps
only a window of levels alive.  `counts(n)` runs it once on level sets
rasterized into big-integer bitmasks, so million-point levels stay cheap,
and counts every level up to n; a run of generators with consecutive last
coordinates moves a mask by a few doubling shifts.  `level` runs the same
program on point sets.  Neither reads what the other computed.
`exact_volume` reads the limit body's volume off the generators when they
all lie in level 1.
"""

from __future__ import annotations

import collections
import functools
import math
import operator
import re
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from .errors import InsufficientDataError, SizeLimitError
from .ideals import _exact_int
from .okounkov import hull_volume

# Refuse to rasterize level grids beyond this many cells (bits).
_RASTER_CELL_CAP = 200_000_000

# Every k-fold sumset key lies below the product of the radices, so a
# product up to 2^63 keeps every key formed inside int64.
_KEY_LIMIT = 1 << 63


def _as_point(p, length: int, what: str) -> tuple[int, ...]:
    t = tuple(_exact_int(x, f"a {what} coordinate", 0) for x in p)
    if len(t) != length:
        raise ValueError(f"{what} must have {length} coordinates, got {len(t)}")
    return t


def _generator_sums(n: int, origin, move, steps):
    """Yield levels 1..n of a generated semigroup, each from the levels below it.

    steps holds (level, v) pairs, a generator vector or several.  Level j
    is the union over them of move(level j - level, v), starting from
    level 0 = origin.  Only the last max-level levels are kept alive.
    """
    window = max((lvl for lvl, _ in steps), default=1)
    alive = {0: origin}
    for j in range(1, n + 1):
        level = type(origin)()
        for lvl, v in steps:
            if lvl <= j:
                level |= move(alive[j - lvl], v)  # in place on a set
        alive[j] = level
        alive.pop(j - window, None)
        yield level


def _move_by_runs(mask: int, step) -> int:
    """mask moved by runs of consecutive shifts: step = (length, first shifts).

    Doubling shift-ORs spread the mask over one run's length, shared by
    every run in the step; one shift per run then places it.
    """
    length, starts = step
    width = 1
    while width < length:  # mask holds its shifts by 0..width-1
        more = min(width, length - width)
        mask |= mask << more
        width += more
    return functools.reduce(operator.or_, (mask << s for s in starts))


class Semigroup:
    """A graded subsemigroup of N^(d+1), queried level by level.

    S_n is the set of N^d points appearing at level n; S_0 is always the
    origin alone.  Instances are immutable.
    """

    def __init__(
        self,
        dim: int,
        *,
        generators: Iterable[Iterable[int]] | None = None,
        levels: Mapping[int, Iterable[Iterable[int]]] | None = None,
    ):
        dim = _exact_int(dim, "dim", 1)
        # with two sources, each query would read whichever it checks first
        sources = (generators is not None) + bool(levels)
        if sources != 1:
            how = "only one of " if sources else ""
            raise ValueError(f"a semigroup needs {how}generators or levels")
        self.dim = dim
        self.generators: tuple[tuple[int, ...], ...] | None = None
        if generators is not None:
            pts = sorted({_as_point(p, dim + 1, "generator") for p in generators})
            for p in pts:
                if p[-1] < 1:
                    raise ValueError(
                        f"generator {p} has level {p[-1]}; levels must be >= 1"
                    )
            self.generators = tuple(pts)
        given = {}  # only levels given as input
        for i, pts in (levels or {}).items():
            i = _exact_int(i, "a level index", 0)
            given[i] = frozenset(_as_point(p, dim, f"level-{i} point") for p in pts)
            if i == 0 and given[i] != {(0,) * dim}:
                raise ValueError("level 0 must be exactly the origin")
        self._levels = dict(sorted(given.items()))  # in level order, as counts lists them

    def known_points(self) -> list[tuple[int, ...]]:
        """All points (v, i) this semigroup is known to contain, level >= 1."""
        if self.generators is not None:
            return list(self.generators)
        return [(*v, i) for i, pts in self._levels.items() if i >= 1 for v in sorted(pts)]

    def counts(self, n_max: int) -> dict[int, int]:
        """{level: size} for the known levels 1..n_max, in increasing order.

        A generated semigroup counts every such level on one raster: a
        level set is a bitmask over a fixed grid big enough for level
        n_max, so moving it by a generator vector is a single shift.  The
        last axis has stride 1, so the generators of one level fall into
        runs of consecutive shifts, and a run of length L moves a mask by
        ceil(log2 L) doubling shift-ORs, shared by every run of that level
        and length, and one shift to its start (see _move_by_runs).  A
        levels-form semigroup gives its listed levels in that range.
        """
        n_max = _exact_int(n_max, "n_max", 1)
        if self.generators is None:
            return {i: len(pts) for i, pts in self._levels.items() if 1 <= i <= n_max}
        dims = [
            n_max * max((g[a] for g in self.generators), default=0) + 1
            for a in range(self.dim)
        ]
        cells = math.prod(dims)
        if cells > _RASTER_CELL_CAP:
            raise SizeLimitError(
                f"level grid needs {cells} cells, above the limit of "
                f"{_RASTER_CELL_CAP}; count smaller levels"
            )
        strides = [math.prod(dims[a + 1 :]) for a in range(self.dim)]
        shifts = sorted(
            (g[-1], sum(map(operator.mul, g[:-1], strides))) for g in self.generators
        )
        runs = collections.defaultdict(list)  # (level, length) -> first shift of each run
        start = 0
        for k, (lvl, s) in enumerate(shifts, 1):
            if k == len(shifts) or shifts[k] != (lvl, s + 1):  # a run ends at s
                runs[lvl, k - start].append(shifts[start][1])
                start = k
        steps = [(lvl, (length, starts)) for (lvl, length), starts in runs.items()]
        masks = _generator_sums(n_max, 1, _move_by_runs, steps)
        return {j: mask.bit_count() for j, mask in enumerate(masks, 1)}

    def level(self, n: int) -> frozenset[tuple[int, ...]]:
        n = _exact_int(n, "a level", 0)
        if n == 0:
            return frozenset({(0,) * self.dim})
        if n in self._levels:
            return self._levels[n]
        if self.generators is None:
            raise InsufficientDataError(
                f"level {n} is not materialized and no generating set is known"
            )
        sums = _generator_sums(
            n,
            {(0,) * self.dim},
            lambda pts, v: {tuple(map(operator.add, p, v)) for p in pts},
            [(g[-1], g[:-1]) for g in self.generators],
        )
        return frozenset(collections.deque(sums, maxlen=1).pop())

    def exact_volume(self) -> Fraction | None:
        """The limit body's exact volume, or None when it is not reachable.

        It is reachable iff the semigroup is generated in level 1: the body
        is then the convex hull of the level-1 points, whose volume
        hull_volume gives up to dimension 4 (and None beyond).
        """
        if self.generators is None or any(g[-1] != 1 for g in self.generators):
            return None
        return hull_volume([g[:-1] for g in self.generators], self.dim)


def k_fold_sum_count(sg: Semigroup, p: int, k: int) -> int:
    """Size of the k-fold sumset of level p, by iterated sums with dedup.

    Each point is one mixed-radix int64 key with radix k*max+1 on every
    axis, so no coordinate of a k-fold sum carries into the next and the
    sum of two keys is the key of the sum.  Where the product of the
    radices passes 2^63 the points stay int64 rows instead.  Raises
    SizeLimitError when a coordinate of a k-fold sum passes the int64 range.
    """
    p, k = _exact_int(p, "p", 1), _exact_int(k, "k", 1)
    base = sg.level(p)
    if k == 1 or not base:
        return len(base)
    top = [k * max(v[a] for v in base) for a in range(sg.dim)]
    if max(top) >= 1 << 63:
        raise SizeLimitError(
            f"the {k}-fold sums of level {p} reach coordinate {max(top)}, "
            "past the int64 range"
        )
    points = np.array(list(base), dtype=np.int64)
    radices = [t + 1 for t in top]
    if math.prod(radices) <= _KEY_LIMIT:
        strides = [math.prod(radices[a + 1 :]) for a in range(sg.dim)]
        points = points @ np.array(strides, dtype=np.int64)
        dedup = np.unique
    else:
        dedup = functools.partial(np.unique, axis=0)
    acc = points
    for _ in range(k - 1):
        sums = acc[:, None] + points[None, :]
        acc = dedup(sums.reshape(-1, *points.shape[1:]))
    return int(acc.shape[0])


def _lattice_spans_everything(points: list[tuple[int, ...]], width: int) -> bool:
    """Whether the integer row span of the points is all of Z^width.

    Euclid elimination, column by column: the row with the least nonzero
    entry reduces the others until one is left, which must be +-1; rows
    whose entry became 0 pass on to the next column.
    """
    rows = [list(p) for p in points]
    for col in range(width):
        live = [r for r in rows if r[col]]
        rows = [r for r in rows if not r[col]]
        while len(live) > 1:  # the least nonzero entry falls each round
            pivot = min(live, key=lambda r: abs(r[col]))
            reduced = [
                [a - r[col] // pivot[col] * b for a, b in zip(r, pivot)]
                for r in live
                if r is not pivot
            ]
            rows += [r for r in reduced if not r[col]]
            live = [pivot] + [r for r in reduced if r[col]]
        if not live or abs(live[0][col]) != 1:
            return False
    return True


def check_cone_conditions(sg: Semigroup, beta: int) -> dict[str, bool]:
    """The two cone hypotheses on the known points of a semigroup.

    cone2: every known point (v, i) has coordinate sum of v at most
    beta*i, so the semigroup sits inside the beta-slope cone.  cone3: the
    known points generate all of Z^(d+1) as a group, decided exactly by
    Euclid elimination on their rows.  It is an error to ask with no
    points at all.
    """
    beta = _exact_int(beta, "beta", 1)
    points = sg.known_points()
    if not points:
        raise InsufficientDataError(
            "cone conditions need at least one known point"
        )
    d = sg.dim
    cone2 = all(sum(p[:-1]) <= beta * p[-1] for p in points)
    cone3 = _lattice_spans_everything(points, d + 1)
    return {"cone2": cone2, "cone3": cone3}


def semigroup_from_json_dict(data: dict) -> Semigroup:
    if not isinstance(data, dict) or "dim" not in data:
        raise ValueError("semigroup JSON needs a 'dim' key")
    # one source, as Semigroup takes: with both keys, one would be silently ignored
    if "generators" in data and "levels" in data:
        raise ValueError("semigroup JSON takes 'generators' or 'levels', not both")
    if data.get("generators") is not None:
        return Semigroup(data["dim"], generators=data["generators"])
    if data.get("levels"):
        levels = {}
        for key, points in dict(data["levels"]).items():
            # int() would also take "1_0", " 1", "+1" and non-ASCII digits
            if not (isinstance(key, str) and re.fullmatch(r"[0-9]+", key)):
                raise ValueError(f"level key {key!r} is not a plain decimal number")
            if int(key) in levels:
                raise ValueError(f"level {int(key)} is given twice")
            levels[int(key)] = points
        return Semigroup(data["dim"], levels=levels)
    raise ValueError("semigroup JSON needs 'generators' or 'levels'")
