"""Definition-level reference implementations used to cross-check the library.

Everything here works on raw generator tuples and enumerates boxes of
exponent vectors, taking the textbook definitions at face value: a point
is in the product if it splits as a sum of members, in the colon if every
shift by a divisor generator lands inside, and so on.  Slow on purpose --
these exist to disagree with the fast code, not to race it.  Five helpers
take `MonomialIdeal` values instead: the product by pairwise sums, the
oracle of the grid product; the colon-iteration saturation, an
independent route to the grid saturation; a batched membership test; the
staircase points in a simplex, the oracle of the simplex count; and the
literal truncation statement, the oracle of the truncation search.
"""

from __future__ import annotations

from itertools import product as iproduct

import numpy as np

from epsmult.ideals import _minimal_python, maximal_ideal

Vec = tuple[int, ...]


def member(gens: frozenset[Vec] | tuple[Vec, ...], e: Vec) -> bool:
    """Is the monomial with exponent e in the ideal generated by gens?"""
    return any(all(x >= g for x, g in zip(e, gen)) for gen in gens)


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


def product_by_sums(a, b):
    """Generators of a * b: the pairwise sums, minimalized by the Python filter.

    The generator-list product, the oracle of the grid product of
    `MonomialIdeal.product`.  Exact in Python integers at any size.
    """
    sums = {tuple(x + y for x, y in zip(g, h)) for g in a.generators for h in b.generators}
    return tuple(sorted(_minimal_python(sums)))


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
    The oracle of `okounkov.count_staircase_in_simplex` and the level sets
    of `gamma_beta`, which keeps only their sizes.
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
