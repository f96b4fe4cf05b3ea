"""Definition-level reference implementations used to cross-check the library.

Everything here works on raw generator tuples and enumerates boxes of
exponent vectors, taking the textbook definitions at face value: a point
is in the product if it splits as a sum of members, in the colon if every
shift by a divisor generator lands inside, and so on.  Slow on purpose --
these exist to disagree with the fast code, not to race it.  Eight helpers
take `MonomialIdeal` values instead: containment by `member`; the product
by pairwise sums, the oracle of the grid product; the colon-iteration
saturation, an independent route to the grid saturation; a batched
membership test; the staircase points in a simplex, the oracle of the
simplex count; the literal truncation statement and the full (m, k)
truncation grid, the oracles of the truncation search and of its
diagonal; and the K-polynomial length, which reads generator lists only
and so checks `colength` at exponents no box can hold.  The slicing hull
volume, in dimensions 1 to 4, is the oracle of `okounkov.hull_volume`,
and the quadratic `brute_minimal` that of the package's antichain filters.
`lemma_pool` draws the 168 ideals of the lemmas_corpus benchmark workload.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, product as iproduct

import numpy as np

from epsmult.colength import difference_max_degree
from epsmult.ideals import MonomialIdeal, maximal_ideal

Vec = tuple[int, ...]


def member(gens: frozenset[Vec] | tuple[Vec, ...], e: Vec) -> bool:
    """Is the monomial with exponent e in the ideal generated by gens?"""
    return any(all(x >= g for x, g in zip(e, gen)) for gen in gens)


def subideal(a, b) -> bool:
    """Is the ideal a contained in the ideal b: each generator of a a member of b?"""
    return all(member(b.generators, g) for g in a.generators)


def box_points(bounds: tuple[int, ...]):
    """All exponent vectors with e_j < bounds_j."""
    return iproduct(*(range(b) for b in bounds))


def _coord_maxes(gens, dim: int) -> list[int]:
    return [max((g[j] for g in gens), default=0) for j in range(dim)]


def staircase_in_box(gens, bounds) -> frozenset:
    return frozenset(e for e in box_points(bounds) if member(gens, e))


def brute_product(gens_a, gens_b, dim: int) -> frozenset:
    """Membership set of the product ideal, inside a box that determines it.

    e is a product monomial iff it splits as a + b with a in the first
    ideal and b in the second; the box bound T_j(A) + T_j(B) + 1 covers
    every minimal generator either side could produce.
    """
    bounds = tuple(
        ta + tb + 1
        for ta, tb in zip(_coord_maxes(gens_a, dim), _coord_maxes(gens_b, dim))
    )
    out = set()
    for e in box_points(bounds):
        ranges = [range(x + 1) for x in e]
        for a in iproduct(*ranges):
            if member(gens_a, a) and member(gens_b, tuple(x - y for x, y in zip(e, a))):
                out.add(e)
                break
    return frozenset(out)


def brute_minimal(cands) -> list[Vec]:
    """The minimal vectors of a set, sorted: each checked against those kept.

    Visited in order of degree, a vector can be dominated only by one
    visited before it.  Quadratic, and exact in Python integers at any
    size: the oracle of the package's antichain filters.
    """
    out: list[Vec] = []
    for c in sorted(set(cands), key=lambda t: (sum(t), t)):
        if not any(all(x <= y for x, y in zip(g, c)) for g in out):
            out.append(c)
    return sorted(out)


def product_by_sums(a, b):
    """Generators of a * b: the pairwise sums, minimalized by `brute_minimal`.

    The generator-list product, the oracle of the grid product of
    `MonomialIdeal.product`.  Exact in Python integers at any size.
    """
    sums = {tuple(x + y for x, y in zip(g, h)) for g in a.generators for h in b.generators}
    return tuple(brute_minimal(sums))


def brute_intersect(gens_a, gens_b, dim: int) -> frozenset:
    bounds = tuple(
        max(ta, tb) + 1
        for ta, tb in zip(_coord_maxes(gens_a, dim), _coord_maxes(gens_b, dim))
    )
    return frozenset(
        e for e in box_points(bounds) if member(gens_a, e) and member(gens_b, e)
    )


def brute_colon(gens_a, gens_b, dim: int) -> frozenset:
    """(A : B) inside the box that determines it: shift by every B-generator."""
    bounds = tuple(t + 1 for t in _coord_maxes(gens_a, dim))
    return frozenset(
        e
        for e in box_points(bounds)
        if all(member(gens_a, tuple(x + y for x, y in zip(e, g))) for g in gens_b)
    )


def brute_saturate(gens, dim: int) -> frozenset:
    """Saturation by the maximal ideal, from the definition.

    e saturates in iff some power of every variable pushes it inside; a
    shift by T_j (the largest j-exponent among the generators) decides
    coordinate j, because deeper shifts cannot change membership.
    """
    maxes = _coord_maxes(gens, dim)
    bounds = tuple(t + 1 for t in maxes)

    def in_sat(e: Vec) -> bool:
        for j, t in enumerate(maxes):
            shifted = tuple(x + (t if i == j else 0) for i, x in enumerate(e))
            if not member(gens, shifted):
                return False
        return True

    return frozenset(e for e in box_points(bounds) if in_sat(e))


def saturate_by_colon_iteration(ideal, max_steps: int = 10_000):
    """Saturation by iterating J <- J : m until a fixed point.

    The chain is ascending and stabilizes exactly at the saturation.  An
    independent route to the grid saturation of `MonomialIdeal.saturate`,
    through the generator arithmetic of `colon` and `intersect`; raises
    RuntimeError if the cap is ever hit.
    """
    m = maximal_ideal(ideal.dim)
    current = ideal
    for _ in range(max_steps):
        nxt = current.colon(m)
        if nxt == current:
            return current
        current = nxt
    raise RuntimeError(f"saturation did not stabilize within {max_steps} colon steps")


def contains_many(ideal, points) -> np.ndarray:
    """Membership of each row of an (n, dim) array of exponent vectors."""
    pts = np.asarray(points, dtype=np.int64).reshape(-1, ideal.dim)
    if ideal.is_zero or not len(pts):
        return np.zeros(len(pts), dtype=bool)
    gens = np.asarray(ideal.generators, dtype=np.int64)
    return (gens[None, :, :] <= pts[:, None, :]).all(2).any(1)


def brute_colength(inner_gens, outer_gens, dim: int) -> int | None:
    """Points of outer \\ inner counted by enumeration; None if infinite.

    Past C_j = max of the two generator maxima in coordinate j, membership
    on either side is unchanged by growing that coordinate, so a
    difference point on the C-shell replicates forever (infinite) and
    otherwise the open C-box holds the whole difference.
    """
    maxes = [
        max(ti, to)
        for ti, to in zip(_coord_maxes(inner_gens, dim), _coord_maxes(outer_gens, dim))
    ]
    count = 0
    for e in box_points(tuple(c + 1 for c in maxes)):
        if member(outer_gens, e) and not member(inner_gens, e):
            if any(x >= c for x, c in zip(e, maxes)):
                return None
            count += 1
    return count


def brute_difference_max_degree(inner_gens, outer_gens, dim: int) -> int | None:
    """Largest coordinate sum over outer \\ inner, by enumeration.

    Returns None when the difference is empty; the caller guarantees the
    difference is finite (use brute_colength to screen).
    """
    maxes = [
        max(ti, to)
        for ti, to in zip(_coord_maxes(inner_gens, dim), _coord_maxes(outer_gens, dim))
    ]
    best: int | None = None
    for e in box_points(tuple(c + 1 for c in maxes)):
        if member(outer_gens, e) and not member(inner_gens, e):
            if best is None or sum(e) > best:
                best = sum(e)
    return best


def _k_sum(gens) -> int:
    """K(G): the sum over nonempty S of G of (-1)^|S| * prod_i lcm(S)_i.

    The subsets are folded in one generator at a time, keyed by their
    lcm, so subsets with a common lcm share one signed count.
    """
    terms: dict[Vec, int] = {}
    for g in gens:
        step = {tuple(g): -1}
        for m, c in terms.items():
            key = tuple(map(max, m, g))
            step[key] = step.get(key, 0) - c
        for key, c in step.items():
            terms[key] = terms.get(key, 0) + c
        terms = {m: c for m, c in terms.items() if c}
    return sum(c * math.prod(m) for m, c in terms.items())


def kpoly_length(inner, outer) -> int:
    """length(outer/inner) from the generators alone, where it is finite.

    The multigraded K-polynomial of S/I is sum over subsets S of the
    generators of (-1)^|S| t^lcm(S), so the Hilbert series difference of
    S/inner and S/outer is a polynomial P(t) = (K_inner - K_outer) /
    prod_i (1 - t_i) whose value at t = 1 is the length.  Taking the mixed
    d-th derivative at t = 1 of P(t) * prod_i (1 - t_i) gives
    (-1)^d * (K(gens inner) - K(gens outer)), with t^m contributing
    prod_i m_i (Miller-Sturmfels, chapters 2 and 5).  No grid, no box.
    """
    return (-1) ** inner.dim * (_k_sum(inner.generators) - _k_sum(outer.generators))


def lattice_contains_all_units(points) -> bool:
    """Does the group generated by the points contain every unit vector?

    Decided exactly with Hermite normal forms: a vector lies in the span
    iff appending it leaves the canonical column-lattice form unchanged.
    """
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form

    pts = [list(p) for p in points]
    if not pts:
        return False
    width = len(pts[0])
    base = hermite_normal_form(Matrix(pts).T)
    for idx in range(width):
        unit = [1 if i == idx else 0 for i in range(width)]
        if hermite_normal_form(Matrix(pts + [unit]).T) != base:
            return False
    return True


def brute_level(generators, dim: int, n: int) -> frozenset:
    """Level n of a generated semigroup: the sum of every multiset of
    generators (v, level) whose levels add up to n, listed by multiplicities."""
    found = set()

    def walk(i: int, left: int, acc: Vec) -> None:
        if left == 0:
            found.add(acc)
        elif i < len(generators):
            g = generators[i]
            for c in range(left // g[-1] + 1):
                walk(i + 1, left - c * g[-1], tuple(a + c * b for a, b in zip(acc, g)))

    walk(0, n, (0,) * dim)
    return frozenset(found)


def brute_k_fold_sums(level_points, k: int) -> frozenset:
    """The k-fold sumset of a finite point set, folded one addend at a time."""
    acc = frozenset(tuple(p) for p in level_points)
    base = list(acc)
    for _ in range(k - 1):
        acc = frozenset(
            tuple(x + y for x, y in zip(a, b)) for a in acc for b in base
        )
    return acc


def enumerate_staircase_in_simplex(ideal, cap: int) -> frozenset:
    """Staircase points of the ideal with coordinate sum <= cap, listed.

    Walks the coordinates in order, keeping only the generators that can
    still divide a point with the prefix chosen so far; the last
    coordinate runs from the least exponent they leave up to the budget.
    The oracle of `okounkov.simplex_counts`, listed for I.saturate() and
    for I: the level sets of the truncated value semigroups, whose sizes
    are all the library keeps.
    """
    if cap < 0 or ideal.is_zero:
        return frozenset()
    d = ideal.dim
    out: set[Vec] = set()

    def rec(j: int, prefix: Vec, budget: int, alive) -> None:
        if j == d - 1:
            h = min(g[j] for g in alive)
            out.update(prefix + (c,) for c in range(h, budget + 1))
            return
        for c in range(budget + 1):
            nxt = [g for g in alive if g[j] <= c]
            if nxt:
                rec(j + 1, prefix + (c,), budget - c, nxt)

    rec(0, (), cap, list(ideal.generators))
    return frozenset(out)


def lemma_pool() -> list:
    """The 168 ideals of the lemmas_corpus benchmark workload, drawn from its seed."""
    rng = random.Random(20240412)
    pool = []
    for dim in (1, 2, 3):
        for count in range(1, 6 if dim < 3 else 5):
            for scale in range(1, 7):
                for _ in range(2):
                    gens = []
                    while len(gens) < count:
                        v = tuple(rng.randint(0, scale) for _ in range(dim))
                        if any(v):
                            gens.append(v)
                    pool.append(MonomialIdeal(dim, gens))
    return pool


def swanson_grid(ideal, mk_bound: int) -> list[tuple[int, int, int | None, int]]:
    """(m, k, D, least c) for every pair (m, k) with m*k <= mk_bound.

    D is the deepest degree of sat(I^m)^k outside I^(mk) (None when they
    agree) and c = floor(D/(m*k)) + 1.  Every pair is formed: sat(I^m) as a
    separate ideal and its powers on a copy of I, so no pair reads
    `swanson_c_search`'s memos or its bound by the pair (mk, 1).
    """
    d, copy = ideal.dim, MonomialIdeal(ideal.dim, ideal.generators)
    out = []
    for m in range(1, mk_bound + 1):
        sat = MonomialIdeal(d, copy.power(m).saturate().generators)
        for k in range(1, mk_bound // m + 1):
            deepest = difference_max_degree(copy.power(m * k), sat.power(k))
            out.append((m, k, deepest, 1 if deepest is None else deepest // (m * k) + 1))
    return out


def swanson_truncation_agrees(ideal, m: int, k: int, c: int) -> bool:
    """Literal truncation test at a single (m, k, c).

    Compares I^(mk) and (saturation(I^m))^k after intersecting both with
    the (c*m*k)-th power of the maximal ideal: the direct transcription of
    the statement that `swanson_c_search` decides by a degree bound.
    """
    lhs = ideal.power(m * k)
    rhs = ideal.power(m).saturate().power(k)
    cutoff = maximal_ideal(ideal.dim).power(c * m * k)
    return lhs.intersect(cutoff) == rhs.intersect(cutoff)


# -- hull volumes by slicing, the oracle of okounkov.hull_volume ------------


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


def _slice_volume(points, w) -> Fraction:
    cut = [p[:3] for p in points if p[3] == w]
    for p, q in combinations(points, 2):
        if (p[3] - w) * (q[3] - w) < 0:
            t = Fraction(w - p[3], q[3] - p[3])
            cut.append(tuple(a + t * (b - a) for a, b in zip(p[:3], q[:3])))
    return _volume_3d(cut)


def _volume_4d(points) -> Fraction:
    ws = sorted({p[3] for p in points})
    total = Fraction(0)
    for w0, w1 in zip(ws, ws[1:]):
        mid = Fraction(w0 + w1, 2)
        v0, vm, v1 = (_slice_volume(points, w) for w in (w0, mid, w1))
        # the slice volume is cubic between consecutive vertex heights,
        # and Simpson's rule is exact on cubics
        total += Fraction(w1 - w0) * (v0 + 4 * vm + v1) / 6
    return total


def slicing_volume(points, dim: int) -> Fraction:
    """Volume of the convex hull of points in dimension 1..4, by slicing.

    An interval in d = 1; a monotone-chain hull and the shoelace formula in
    d = 2; in d = 3 and 4, Simpson's rule over slabs between consecutive
    vertex heights of the last coordinate, each slice the hull of the
    points on it and of the crossings of every point pair.  Exact in
    Fractions and O(n^2) pairs per slice.
    """
    if dim == 1:
        return Fraction(max(p[0] for p in points) - min(p[0] for p in points))
    if dim == 2:
        return _polygon_area(_hull_2d(points))
    return _volume_3d(points) if dim == 3 else _volume_4d(points)
