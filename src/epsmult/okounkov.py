"""Truncated value semigroups and volumes of their limit bodies.

For a graded family of monomial ideals, level i of the beta-truncated
value semigroup collects the exponent vectors of monomials in the i-th
ideal whose coordinate sum is at most beta*i.  The volume route needs
only the sizes of those levels, so gamma_beta keeps counts alone, each
read off the height grid of the i-th ideal.  Normalizing a count by n^d
estimates the volume of the limit body; the epsilon multiplicity appears
as d! times the volume difference between the saturated and plain power
families.  A semigroup generated in level 1 also has an exact volume, the
volume of the convex hull of its level-1 points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .colength import _cell_corners
from .errors import DimensionMismatchError, InconclusiveError, ZeroIdealError
from .families import GradedFamilySpec
from .ideals import _NEVER, MonomialIdeal
from .semigroups import Semigroup


def count_staircase_in_simplex(ideal: MonomialIdeal, cap: int) -> int:
    """Number of staircase points of the ideal with coordinate sum <= cap.

    On a cell of the ideal's height grid with height h, lower corner c and
    widths w_k, the points are (h + t, c + u) with t >= 0, 0 <= u_k < w_k
    and t + |u| <= N = cap - h - |c|.  Inclusion-exclusion over the
    bounded widths counts them as the sum over sets S of those axes of
    (-1)^|S| * C(N - sum of w_k over S + d, d), terms with a negative
    first argument being zero.
    """
    d = ideal.dim
    cuts, heights = ideal._grid()
    cells = heights < _NEVER
    lows, widths = _cell_corners(cuts, cells)
    budget = cap - heights[cells].astype(object) - sum(lows)
    total = 0
    for n, *ws in zip(budget.tolist(), *(w.tolist() for w in widths)):
        terms = [(n, 1)] if n >= 0 else []
        for w in ws:
            if w:  # width 0: unbounded along this axis, nothing to exclude
                terms += [(m - w, -sign) for m, sign in terms if m >= w]
        total += sum(sign * math.comb(m + d, d) for m, sign in terms)
    return total


def gamma_beta(fam: GradedFamilySpec, beta: int) -> Semigroup:
    """The beta-truncated value semigroup of a graded monomial family.

    Level i holds the exponent vectors of monomials in fam(i) with
    coordinate sum at most beta*i.  Only the level counts are kept: the
    semigroup materializes no level and counts level i, on demand, on the
    height grid of fam(i).
    """
    if beta < 1:
        raise ValueError("beta must be a positive integer")
    if fam(1).is_zero:
        raise ZeroIdealError("the family is zero at level 1")
    return Semigroup(
        fam.dim,
        count_rule=lambda i: count_staircase_in_simplex(fam(i), beta * i),
    )


# -- exact hull volumes in dimensions 1..3 ---------------------------------


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_2d(points):
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _polygon_area(hull) -> Fraction:
    if len(hull) < 3:
        return Fraction(0)
    twice = Fraction(0)
    for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]):
        twice += x0 * y1 - x1 * y0
    return abs(twice) / 2


def _slice_area(points, z) -> Fraction:
    cut = [(Fraction(p[0]), Fraction(p[1])) for p in points if p[2] == z]
    for p, q in combinations(points, 2):
        if (p[2] - z) * (q[2] - z) < 0:
            t = Fraction(z - p[2], q[2] - p[2])
            cut.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return _polygon_area(_hull_2d(cut))


def _volume_3d(points) -> Fraction:
    zs = sorted({p[2] for p in points})
    if len(zs) < 2:
        return Fraction(0)
    total = Fraction(0)
    for z0, z1 in zip(zs, zs[1:]):
        mid = Fraction(z0 + z1, 2)
        a0 = _slice_area(points, z0)
        am = _slice_area(points, mid)
        a1 = _slice_area(points, z1)
        # the slice area is quadratic between consecutive vertex heights,
        # so Simpson's rule integrates the slab exactly
        total += Fraction(z1 - z0) * (a0 + 4 * am + a1) / 6
    return total


def hull_volume(points, dim: int) -> Fraction | None:
    """Exact volume of the convex hull for dim <= 3; None beyond that."""
    pts = [tuple(p) for p in points]
    if not pts:
        return Fraction(0)
    if any(len(p) != dim for p in pts):
        raise DimensionMismatchError("hull points disagree with the stated dimension")
    if dim == 1:
        vals = [p[0] for p in pts]
        return Fraction(max(vals) - min(vals))
    if dim == 2:
        return _polygon_area(_hull_2d(pts))
    if dim == 3:
        return _volume_3d(pts)
    return None


@dataclass(frozen=True)
class VolumeResult:
    """Volume data for the limit body of a graded semigroup."""

    exact: Fraction | None
    estimate: Fraction
    n_used: int
    count: int


def delta_volume(sg: Semigroup, n_probe: int) -> VolumeResult:
    """Count-based volume estimate, with the exact value when reachable.

    The exact volume is computed only when the semigroup is generated
    entirely in level 1 (the limit body is then the plain convex hull of
    the level-1 points) and the dimension is at most 3.
    """
    if n_probe < 1:
        raise ValueError("n_probe must be positive")
    count = sg.count(n_probe)
    estimate = Fraction(count, n_probe**sg.dim)
    return VolumeResult(_exact_volume(sg), estimate, n_probe, count)


def _exact_volume(sg: Semigroup) -> Fraction | None:
    """The limit body's exact volume, or None when it is not reachable.

    It is reachable iff the semigroup is generated in level 1: the body is
    then the convex hull of the level-1 points, whose volume hull_volume
    gives up to dimension 3 (and None beyond).
    """
    if sg.generators is None or any(g[-1] != 1 for g in sg.generators):
        return None
    return hull_volume([g[:-1] for g in sg.generators], sg.dim)


@dataclass(frozen=True)
class EpsilonViaVolumes:
    """d! times the truncated-semigroup volume difference at a probe level."""

    value: Fraction
    count_saturated: int
    count_powers: int
    beta: int
    n_probe: int


def epsilon_via_volumes(
    ideal: MonomialIdeal,
    beta: int,
    n_probe: int,
) -> EpsilonViaVolumes:
    """Volume-difference estimate of the epsilon multiplicity.

    Counts the beta-truncated value semigroups of the saturated-power and
    plain-power families at level n_probe and normalizes the difference
    by n_probe^d / d!.  Beta must already be in the stable regime for the
    number to mean anything; beta_stability probes for that.
    """
    _require_volume_probe(ideal, n_probe)
    count_sat = gamma_beta(GradedFamilySpec.saturated_powers(ideal), beta).count(n_probe)
    count_pow = gamma_beta(GradedFamilySpec.powers(ideal), beta).count(n_probe)
    d = ideal.dim
    value = Fraction(math.factorial(d) * (count_sat - count_pow), n_probe**d)
    return EpsilonViaVolumes(value, count_sat, count_pow, beta, n_probe)


def _require_volume_probe(ideal: MonomialIdeal, n_probe: int) -> None:
    if ideal.is_zero or ideal.is_unit:
        raise ZeroIdealError(
            "the volume comparison needs an ideal that is neither zero nor the ring"
        )
    if n_probe < 1:
        raise ValueError("n_probe must be positive")


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
    if beta0 < 1:
        raise ValueError("beta0 must be positive")
    tol = Fraction(tolerance)
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    # every beta reads the one chain of powers memoized on the ideal
    beta = beta0
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
        f"volume difference did not stabilize within {max_doublings} doublings of beta",
        k_max=beta,
    )
