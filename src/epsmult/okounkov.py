"""Truncated value semigroups and volumes of their limit bodies.

For a graded family of monomial ideals, level i of the beta-truncated
value semigroup collects the exponent vectors of monomials in the i-th
ideal whose coordinate sum is at most beta*i.  The volume route needs
only the sizes of those levels, for the powers I^n and the saturated
powers sat(I^n): simplex_counts(I^n, beta*n) reads both off the height
grid of I^n, with no saturation ideal formed.  Normalizing a count by n^d
estimates the volume of the limit body; the epsilon multiplicity appears
as d! times the volume difference between the saturated and plain power
families.  hull_volume gives the exact volume of a convex hull of integer
points for d <= 4; Semigroup.exact_volume reads the limit body of a
semigroup generated in level 1 through it.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatchError, InconclusiveError, ZeroIdealError
from .ideals import _NEVER, MonomialIdeal, _cell_corners, _exact_int


def simplex_counts(ideal: MonomialIdeal, cap: int) -> tuple[int, int]:
    """Staircase points of sat(I) and of I with coordinate sum <= cap.

    Returns (saturated, plain), both read off I's own height grid: the
    saturation's heights on it (MonomialIdeal._saturation_grid) are the
    step function sat(I)'s own grid holds, cut finer, and a count adds up
    over cells; they are _NEVER exactly where I's are, so both counts walk
    the same cells.  The zero ideal is its own saturation and has no points.

    On a cell with height h, lower corner c and widths w_k, the points are
    (h + t, c + u) with t >= 0, 0 <= u_k < w_k and t + |u| <= N = cap -
    h - |c|.  Inclusion-exclusion over the bounded widths counts them as
    the sum over sets S of those axes of (-1)^|S| * C(N - sum of w_k over
    S + d, d), terms with a negative first argument being zero.
    """
    cap = _exact_int(cap, "cap")  # no bound: a negative cap is the empty simplex
    if ideal.is_zero:
        return 0, 0
    cuts, heights = ideal._grid()
    cells = heights < _NEVER
    lows, widths = _cell_corners(cuts, cells)
    budget = cap - sum(lows)
    return tuple(
        _simplex_walk(budget - h[cells].astype(object), widths, ideal.dim)
        for h in (ideal._saturation_grid(), heights)
    )


def _simplex_walk(budget, widths, d: int) -> int:
    """The inclusion-exclusion sum of simplex_counts over cells with these budgets N.

    The sets S are walked depth first, each with the cells where its m is
    >= 0 in an object array of Python ints, so every count is exact and no
    term is formed for a cell it cannot count: a set's cells are a subset
    of its parent's, and at most d sets are alive at once.
    """
    at = np.flatnonzero(budget >= 0)
    total = 0
    sets = [(0, budget[at], at, 1)]  # (first axis S may still take, m, cells, sign)
    while sets:
        first, m, at, sign = sets.pop()
        total += sign * sum(map(math.comb, (m + d).tolist(), itertools.repeat(d)))
        for k in range(first, len(widths)):
            w = widths[k][at]
            keep = (w > 0) & (m >= w)  # width 0: unbounded, nothing to exclude
            if keep.any():
                sets.append((k + 1, m[keep] - w[keep], at[keep], -sign))
    return total


# -- exact hull volumes in dimensions 1..4 ---------------------------------


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _det(rows) -> int:
    """Determinant of a square integer matrix, by cofactor expansion."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * a * _det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j, a in enumerate(rows[0])
        if a
    )


def _facet(verts, pts, inside):
    """(verts, normal, offset) of the hyperplane through the points verts.

    The normal is the cofactor vector of the edge vectors, signed so that
    inside, d + 1 times an interior point, lies strictly beneath it.
    """
    v0 = pts[verts[0]]
    edges = [[a - b for a, b in zip(pts[i], v0)] for i in verts[1:]]
    normal = [(-1) ** k * _det([e[:k] + e[k + 1 :] for e in edges]) for k in range(len(v0))]
    offset = _dot(normal, v0)
    if _dot(normal, inside) > (len(v0) + 1) * offset:
        normal, offset = [-a for a in normal], -offset
    return verts, normal, offset


def hull_volume(points, dim: int) -> Fraction | None:
    """Exact volume of the convex hull of integer points for dim <= 4; None beyond.

    Beneath-beyond from a full-dimensional simplex of the points (volume 0
    if there is none).  Every facet is a simplex with an integer normal.
    A point beyond some facets (normal . p > offset) replaces them by the
    cones from it over their horizon ridges, those only one of them holds.
    Coning the facets from one point sums dim! times the volume in integers.
    """
    dim = _exact_int(dim, "dim", 1)
    pts = [tuple(p) for p in points]
    if not pts:
        return Fraction(0)
    if any(len(p) != dim for p in pts):
        raise DimensionMismatchError("hull points disagree with the stated dimension")
    pts = sorted({tuple(_exact_int(c, "a hull coordinate") for c in p) for p in pts})
    if dim > 4:
        return None
    # farthest from the centroid first, so that most later points fall inside
    n, sums = len(pts), [sum(c) for c in zip(*pts)]
    pts.sort(key=lambda q: -sum((n * x - s) ** 2 for x, s in zip(q, sums)))
    simplex = [0]
    for i in range(1, n):  # keep points whose edges from pts[0] have a nonzero Gram det
        edges = [[a - b for a, b in zip(pts[j], pts[0])] for j in simplex[1:] + [i]]
        if _det([[_dot(u, v) for v in edges] for u in edges]):
            simplex.append(i)
            if len(simplex) > dim:
                break
    else:
        return Fraction(0)
    inside = [sum(c) for c in zip(*(pts[i] for i in simplex))]
    facets = [_facet([i for i in simplex if i != skip], pts, inside) for skip in simplex]
    for k, p in enumerate(pts):
        kept, seen = [], []
        for f in facets:
            (seen if _dot(f[1], p) > f[2] else kept).append(f)
        ridges = Counter(frozenset(vs) - {v} for vs, _, _ in seen for v in vs)
        kept += (_facet([k, *r], pts, inside) for r, m in ridges.items() if m == 1)
        facets = kept
    return Fraction(sum(off - _dot(nv, pts[0]) for _, nv, off in facets), math.factorial(dim))


@dataclass(frozen=True)
class EpsilonViaVolumes:
    """d! times the truncated-semigroup volume difference at a probe level."""

    value: Fraction
    count_saturated: int
    count_powers: int


def epsilon_via_volumes(
    ideal: MonomialIdeal,
    beta: int,
    n_probe: int,
) -> EpsilonViaVolumes:
    """Volume-difference estimate of the epsilon multiplicity.

    Level n = n_probe of the beta-truncated value semigroups of the
    saturated-power and plain-power families: the staircase points of
    sat(I^n) and of I^n with coordinate sum at most beta*n, both counted
    on I^n's own height grid by simplex_counts, with no saturation ideal
    formed.  Their difference is normalized by n^d / d!.  Beta
    must already be in the stable regime for the number to mean anything;
    beta_stability probes for that.
    """
    beta = _exact_int(beta, "beta", 1)
    if ideal.is_zero or ideal.is_unit:
        raise ZeroIdealError(
            "the volume comparison needs an ideal that is neither zero nor the ring"
        )
    n = _exact_int(n_probe, "n_probe", 1)
    count_sat, count_pow = simplex_counts(ideal.power(n), beta * n)
    d = ideal.dim
    value = Fraction(math.factorial(d) * (count_sat - count_pow), n**d)
    return EpsilonViaVolumes(value, count_sat, count_pow)


@dataclass(frozen=True)
class BetaStability:
    """Trace of the beta-doubling diagnostic."""

    history: tuple[tuple[int, Fraction], ...]  # (beta, value) pairs
    stabilized_beta: int
    value: Fraction


def beta_stability(
    ideal: MonomialIdeal,
    beta0: int,
    n_probe: int,
    tolerance: Fraction,
    max_doublings: int = 8,
) -> BetaStability:
    """Double beta until two successive volume differences agree.

    Stops at the first beta whose value is within the tolerance of the
    previous one; raises InconclusiveError when max_doublings betas never
    settle.  Agreement is evidence the truncation stopped biting, not a
    proof that beta dominates the theoretical threshold.
    """
    beta = _exact_int(beta0, "beta0", 1)
    max_doublings = _exact_int(max_doublings, "max_doublings", 0)
    tol = Fraction(tolerance)
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    # every beta reads the one chain of powers memoized on the ideal
    prev = epsilon_via_volumes(ideal, beta, n_probe).value
    history = [(beta, prev)]
    for _ in range(max_doublings):
        beta *= 2
        cur = epsilon_via_volumes(ideal, beta, n_probe).value
        history.append((beta, cur))
        if abs(cur - prev) <= tol:
            return BetaStability(tuple(history), beta, cur)
        prev = cur
    raise InconclusiveError(
        f"volume difference did not stabilize within {max_doublings} doublings of beta, "
        f"up to beta = {beta}"
    )
