import dataclasses
import gc
import json
import math
import random
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from epsmult import ideals as ideals_mod
from epsmult import (
    DimensionMismatchError,
    InfiniteColengthError,
    MonomialIdeal,
    SizeLimitError,
    ZeroIdealError,
    colength,
    corpus,
    from_json_dict,
    maximal_ideal,
    theorem_a_table,
    to_json_dict,
    unit_ideal,
    zero_ideal,
)
from epsmult.ideals import (
    DEGREE_LIMIT,
    minimal_vectors,
)

from oracle_utils import (
    _coord_maxes,
    brute_colon,
    brute_intersect,
    brute_minimal,
    brute_product,
    brute_saturate,
    contains_many,
    lemma_pool,
    member,
    product_by_sums,
    saturate_by_colon_iteration,
    staircase_in_box,
    subideal,
)


def box_for(*ideals, pad=1):
    d = ideals[0].dim
    return tuple(
        sum(max((g[j] for g in I.generators), default=0) for I in ideals) + pad
        for j in range(d)
    )


class TestConstruction:
    def test_minimalizes_and_sorts(self):
        ideal = MonomialIdeal(2, [(3, 0), (2, 0), (1, 1), (2, 2)])
        assert ideal.generators == ((1, 1), (2, 0))

    def test_duplicates_collapse(self):
        ideal = MonomialIdeal(2, [(1, 1), (1, 1)])
        assert ideal.generators == ((1, 1),)

    def test_zero_and_unit(self):
        assert zero_ideal(3).is_zero
        assert unit_ideal(3).is_unit
        assert not unit_ideal(3).is_zero
        assert MonomialIdeal(2, [(0, 0), (1, 0)]).is_unit

    def test_dim_must_be_positive(self):
        with pytest.raises(ValueError):
            MonomialIdeal(0, [])

    def test_vector_length_checked(self):
        with pytest.raises(DimensionMismatchError):
            MonomialIdeal(2, [(1, 2, 3)])

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            MonomialIdeal(2, [(1, -1)])

    @pytest.mark.parametrize(
        "gens",
        [[(1.5, 0)], [(0, True)], [(2.0, 1)], [("1", 0)], [(1, None)]],
        ids=["float", "bool", "integral-float", "str", "none"],
    )
    def test_non_integer_exponents_rejected(self, gens):
        # int() would truncate 1.5 to 1 and turn True into 1
        with pytest.raises(TypeError, match="exponent must be an integer"):
            MonomialIdeal(2, gens)

    @pytest.mark.parametrize("dim", [2.9, 2.0, True, "2"])
    def test_non_integer_dim_rejected(self, dim):
        with pytest.raises(TypeError, match="dim must be an integer"):
            MonomialIdeal(dim, [(1, 0)])

    def test_numpy_integers_accepted(self):
        ideal = MonomialIdeal(np.int64(2), [np.array([2, 0]), (np.uint8(1), np.int32(1))])
        assert ideal == MonomialIdeal(2, [(2, 0), (1, 1)])
        assert all(type(c) is int for g in ideal.generators for c in g)
        assert type(ideal.dim) is int

    def test_equality_is_canonical(self):
        a = MonomialIdeal(2, [(2, 0), (1, 1)])
        b = MonomialIdeal(2, [(1, 1), (2, 0), (3, 0), (2, 5)])
        assert a == b
        assert hash(a) == hash(b)

    def test_minimal_vectors_antichain(self):
        vecs = minimal_vectors({(1, 2), (2, 2), (0, 5), (1, 3)})
        assert vecs == ((0, 5), (1, 2))

    @pytest.mark.parametrize(
        "dim, gens",
        [(65, []), (70, [(1,) * 70]), (2**62, [])],
        ids=["65", "70", "2^62"],
    )
    def test_ring_past_the_dimension_limit_raises(self, dim, gens):
        # numpy's ValueError ("maximum supported dimension", "array is too
        # big") would surface at the first array of the ring
        with pytest.raises(SizeLimitError, match="variables is past the limit of 64"):
            MonomialIdeal(dim, gens)
        with pytest.raises(SizeLimitError, match="variables"):
            from_json_dict({"dim": dim, "generators": gens})

    def test_largest_ring_saturates_and_measures(self):
        # (x^2, xy) among 64 variables is saturated: x_3^k * x lies outside it
        d = ideals_mod.DIM_LIMIT
        pad = (0,) * (d - 2)
        ideal = MonomialIdeal(d, [(2, 0) + pad, (1, 1) + pad])
        assert ideal.saturate() == ideal
        assert colength(ideal, ideal) == 0
        with pytest.raises(InfiniteColengthError):
            colength(ideal * ideal, ideal)

    def test_degree_rule_reads_the_minimal_generators(self):
        with pytest.raises(SizeLimitError, match="degree above"):
            MonomialIdeal(1, [(2**70,)])
        assert MonomialIdeal(1, [(1,), (2**70,)]) == MonomialIdeal(1, [(1,)])
        # among many candidates too: the filter is exact past int64
        many = [(1, 2**70 + k) for k in range(70)]
        assert MonomialIdeal(2, [(1, 0)] + many).generators == ((1, 0),)


def _candidate_sets(rng):
    """Sets of 65-2000 vectors in dims 1-4.

    In dims 2-4 a quarter of the vectors lie on one degree layer, where no
    vector dominates another, and the rest are nudged up from it, so the
    filter keeps many vectors and drops many.
    """
    sizes_by_dim = {1: (65, 600, 2000), 2: (65, 513, 1200), 3: (65, 513, 2000), 4: (65, 700, 2000)}
    for dim, sizes in sizes_by_dim.items():
        for size in sizes:
            if dim == 1:
                yield {(x,) for x in rng.sample(range(3 * size), size)}
                continue
            degree = 1
            while math.comb(degree + dim - 1, dim - 1) < size:
                degree += 1
            cands = set()
            while len(cands) < size:
                cuts = sorted(rng.randint(0, degree) for _ in range(dim - 1))
                bounds = [0, *cuts, degree]
                nudge = rng.random() < 0.75
                cands.add(
                    tuple(
                        b - a + (rng.randint(0, 2) if nudge else 0)
                        for a, b in zip(bounds, bounds[1:])
                    )
                )
            yield cands


def _tied_sets(rng, offset: int):
    """Sets of 0-63 vectors in dims 1-4, offset + 0..3 on every coordinate.

    Four values per axis make ties on every axis of most sets in dims 2-4.
    """
    for dim in range(1, 5):
        for size in range(64):
            yield {tuple(offset + rng.randint(0, 3) for _ in range(dim)) for _ in range(size)}


class TestMinimalization:
    @pytest.mark.parametrize("offset", [0, 1 << 64])
    def test_bitset_filter_matches_the_quadratic_oracle(self, offset):
        tied = 0
        for cands in _tied_sets(random.Random(98), offset):
            assert list(minimal_vectors(cands)) == brute_minimal(cands)
            axes = zip(*cands)
            tied += len(cands) > 1 and all(len(set(a)) < len(cands) for a in axes)
        # distinct vectors in one variable never tie; in two to four, most sets do
        assert tied >= 150

    def test_past_the_degree_limit_the_bitset_filter_takes_many(self):
        rng = random.Random(99)
        for dim in range(1, 5):
            for draws in (200, 600):
                # each coordinate small or just past DEGREE_LIMIT
                cands = {
                    tuple(rng.randint(0, 99) + DEGREE_LIMIT * rng.randint(0, 1) for _ in range(dim))
                    for _ in range(draws)
                }
                assert len(cands) > 64 and max(map(sum, cands)) > DEGREE_LIMIT
                assert list(minimal_vectors(cands)) == brute_minimal(cands)

    def test_large_sets_match_the_quadratic_oracle(self):
        for cands in _candidate_sets(random.Random(97)):
            assert list(minimal_vectors(cands)) == brute_minimal(cands)

    @pytest.mark.parametrize("shape", ["random", "antichain"])
    def test_twenty_thousand_points_in_the_plane(self, shape):
        # an independent O(N log N) oracle: sorted by x, a point is minimal
        # when its y lies strictly below every y before it
        rng = random.Random(96)
        if shape == "random":
            cands = {(rng.randrange(3000), rng.randrange(3000)) for _ in range(20_000)}
        else:
            xs = rng.sample(range(10**6), 20_000)
            cands = set(zip(sorted(xs), sorted(rng.sample(range(10**6), 20_000), reverse=True)))
        assert len(cands) >= 19_900
        expected, low = [], math.inf
        for x, y in sorted(cands):
            if y < low:
                expected.append((x, y))
                low = y
        assert list(minimal_vectors(cands)) == expected
        assert shape == "random" or len(expected) == 20_000

    def test_every_operation_minimalizes_through_one_filter(self, monkeypatch):
        calls = []
        filtered = ideals_mod.minimal_vectors

        def recorded(vectors):
            calls.append(True)
            return filtered(vectors)

        monkeypatch.setattr(ideals_mod, "minimal_vectors", recorded)
        a = MonomialIdeal(3, [(2, 1, 0), (0, 2, 1), (1, 0, 2)])
        b = MonomialIdeal(3, [(1, 1, 0), (0, 0, 3)])
        # generic: 12 x 9 generators whose union grid is past 12^2 cells
        rng = random.Random(7)
        big, small = (
            MonomialIdeal(3, [tuple(rng.randrange(1000) for _ in "xyz") for _ in range(n)])
            for n in (40, 12)
        )
        assert len(big.generators) * len(small.generators) >= ideals_mod._GRID_CUTOVER
        operations = {
            "constructor": lambda: MonomialIdeal(3, [(1, 1, 0), (2, 1, 0)]),
            "small product": lambda: a * b,
            "large product by pairwise sums": lambda: big * small,
            "intersect": lambda: a & b,
            "colon": lambda: a.colon(b),
        }
        for name, operation in operations.items():
            calls.clear()
            operation()
            assert calls, name
        assert getattr(big * small, "_heights", None) is None


class TestQueries:
    def test_contains_many_matches_scalar(self):
        ideal = MonomialIdeal(3, [(2, 0, 1), (0, 3, 0)])
        pts = [(i, j, k) for i in range(4) for j in range(4) for k in range(3)]
        flags = contains_many(ideal, pts)
        assert [bool(f) for f in flags] == [member(ideal.generators, p) for p in pts]

    def test_subideal(self):
        small = MonomialIdeal(2, [(2, 0), (1, 1)])
        big = MonomialIdeal(2, [(1, 0)])
        assert subideal(small, big)
        assert not subideal(big, small)
        assert subideal(zero_ideal(2), small)

    def test_repr_lists_the_minimal_generators(self):
        ideal = MonomialIdeal(2, [(2, 0), (1, 1), (3, 3)])
        assert repr(ideal) == "MonomialIdeal(dim=2, generators=[(1, 1), (2, 0)])"


class TestArithmetic:
    def test_product_example(self):
        I = MonomialIdeal(2, [(2, 0), (1, 1)])
        assert (I * I).generators == ((2, 2), (3, 1), (4, 0))

    def test_power_binary_vs_repeated(self):
        I = MonomialIdeal(2, [(2, 0), (1, 1)])
        by_products = unit_ideal(2)
        for _ in range(5):
            by_products = by_products * I
        assert I.power(5) == by_products
        assert I.power(0) == unit_ideal(2)
        assert I.power(1) == I

    def test_power_negative_rejected(self):
        with pytest.raises(ValueError):
            MonomialIdeal(1, [(1,)]).power(-1)

    def test_power_past_the_degree_limit_raises(self):
        # the square has the minimal generator x^(2^62)
        ideal = MonomialIdeal(2, [(2**61, 0), (1, 1)])
        with pytest.raises(SizeLimitError, match="degree above"):
            ideal.power(2)

    def test_intersection_past_the_degree_limit_raises(self):
        # lcm(x^(2^61), y) = x^(2^61) y
        with pytest.raises(SizeLimitError, match="degree above"):
            MonomialIdeal(2, [(2**61, 0)]).intersect(MonomialIdeal(2, [(0, 1)]))

    def test_intersect_example(self):
        a = MonomialIdeal(2, [(2, 0)])
        b = MonomialIdeal(2, [(0, 3)])
        assert a.intersect(b).generators == ((2, 3),)

    def test_colon_example(self):
        I = MonomialIdeal(2, [(2, 0), (1, 1)])
        x = MonomialIdeal(2, [(1, 0)])
        assert I.colon(x).generators == ((0, 1), (1, 0))

    def test_colon_by_zero_rejected(self):
        with pytest.raises(ZeroIdealError):
            MonomialIdeal(2, [(1, 0)]).colon(zero_ideal(2))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            MonomialIdeal(2, [(1, 0)]).product(MonomialIdeal(3, [(1, 0, 0)]))

    def test_zero_absorbs(self):
        I = MonomialIdeal(2, [(1, 1)])
        assert (I * zero_ideal(2)).is_zero
        assert I.intersect(zero_ideal(2)).is_zero

    def test_operator_sugar(self):
        I = MonomialIdeal(2, [(2, 0), (1, 1)])
        J = MonomialIdeal(2, [(0, 2)])
        assert I * J == I.product(J)
        assert (I & J) == I.intersect(J)
        assert I**3 == I.power(3)


class TestPowerChain:
    def test_chain_resumes_from_its_highest_member(self, products):
        I = MonomialIdeal(2, [(2, 0), (1, 1)])
        I.power(3)
        assert len(products) == 2
        assert I.power(7) == MonomialIdeal(2, [(2, 0), (1, 1)]).power(7)
        products.clear()
        I.power(7)
        I.power(9)
        I.power(6)
        assert len(products) == 2
        assert I.power(9) is I.power(9)

    def test_operator_products_are_counted(self, products):
        I, J = MonomialIdeal(2, [(2, 0), (1, 1)]), MonomialIdeal(2, [(0, 1)])
        assert I * J == MonomialIdeal(2, [(2, 1), (1, 2)])
        assert products == [J]

    def test_each_link_is_one_product_by_the_base(self, products):
        I = MonomialIdeal(3, [(2, 1, 0), (0, 1, 3), (1, 1, 1)])
        I.power(5)
        assert products == [I] * 4

    @pytest.mark.parametrize("n", [2.5, 2.9, 2.0, True, "2"])
    def test_exponent_must_be_an_integer(self, n):
        I = MonomialIdeal(2, [(2, 0), (1, 1)])
        with pytest.raises(TypeError, match="power must be an integer"):
            I.power(n)
        with pytest.raises(TypeError, match="power must be an integer"):
            I**n

    def test_numpy_integer_exponent(self):
        I = MonomialIdeal(2, [(2, 0), (1, 1)])
        assert I.power(np.int64(3)) == I * I * I

    def test_dropped_ideal_is_freed_without_the_collector(self):
        # no memo may refer back to the ideal, saturated or not
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for gens, saturated in (
                ([(2, 1, 0), (0, 1, 3), (1, 1, 1)], True),
                ([(2, 1, 0), (0, 2, 1), (1, 0, 2)], False),
            ):
                I = MonomialIdeal(3, gens)
                ref = weakref.ref(I)
                I.power(6)
                assert (I.saturate() is I) == saturated
                I._grid()
                theorem_a_table(I, m_max=2, k_max=6)
                del I
                assert ref() is None, gens
        finally:
            if was_enabled:
                gc.enable()

    def test_racing_threads_store_every_member_at_its_index(self):
        # a race may build a link twice, but never file it under another n
        want = {n: MonomialIdeal(2, [(3, 0), (1, 2), (0, 4)]).power(n) for n in range(2, 25)}
        asked = [24, 9, 17, 24, 3, 12, 20, 6]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                I = MonomialIdeal(2, [(3, 0), (1, 2), (0, 4)])
                with ThreadPoolExecutor(max_workers=4) as pool:
                    got = list(pool.map(I.power, asked, timeout=60))
                assert got == [want[n] for n in asked]
                assert all(I.power(n) == want[n] for n in range(2, 25))
        finally:
            sys.setswitchinterval(interval)


class TestSaturation:
    def test_worked_example(self):
        I = MonomialIdeal(2, [(2, 0), (1, 1)])
        assert I.saturate().generators == ((1, 0),)

    def test_m_primary_saturates_to_unit(self):
        I = MonomialIdeal(2, [(3, 0), (0, 2)])
        assert I.saturate().is_unit
        # every nonzero ideal of k[x] is primary to the maximal ideal
        for e in (1, 7, 2**61):
            assert MonomialIdeal(1, [(e,)]).saturate().is_unit

    def test_already_saturated(self):
        # a prime that misses one variable, and a principal ideal
        P = MonomialIdeal(3, [(1, 0, 0), (0, 1, 0)])
        assert P.saturate() == P
        Q = MonomialIdeal(2, [(2, 0)])
        assert Q.saturate() == Q
        for ideal in (
            MonomialIdeal(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)]),  # three lines
            MonomialIdeal(4, [(2, 0, 1, 0)]),
            MonomialIdeal(4, [(1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 3, 0)]),
        ):
            assert ideal.saturate() == ideal
            assert saturate_by_colon_iteration(ideal) == ideal

    def test_zero_and_unit_fixed(self):
        for dim in (1, 2, 3, 4):
            assert zero_ideal(dim).saturate().is_zero
            assert unit_ideal(dim).saturate().is_unit

    def test_idempotent_on_corpus(self):
        for I in corpus(11, 30) + [J.power(2) for J in corpus(44, 30, max_dim=4)]:
            S = I.saturate()
            assert S.saturate() == S
            assert subideal(I, S)

    def test_matches_colon_iteration_on_corpus(self):
        for I in corpus(12, 30):
            assert I.saturate() == saturate_by_colon_iteration(I)

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_corpus_powers_in_dims_1_to_4(self, seed):
        # the grid route against colon iteration and, where the box is
        # small enough to enumerate, against the pointwise definition
        dims = set()
        for base in corpus(seed, 40, max_dim=4):
            for n in (1, 2, 3):
                I = base.power(n)
                S = I.saturate()
                dims.add(I.dim)
                assert S == saturate_by_colon_iteration(I)
                bounds = tuple(t + 1 for t in _coord_maxes(I.generators, I.dim))
                if math.prod(bounds) <= 20_000:
                    assert staircase_in_box(S.generators, bounds) == brute_saturate(
                        I.generators, I.dim
                    )
        assert dims == {1, 2, 3, 4}

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_monomial_times_primary_near_the_degree_limit(self, dim):
        # x^a * (x^b, x_2^b, .., x_d^b) saturates to (x^a): the primary
        # factor is killed.  Every generator stays below 2^61 in degree.
        a = (1 << 60) - 3
        b = (1 << 59) // dim + 5
        lead = [(a + b,) + (0,) * (dim - 1)]
        others = [
            (a,) + tuple(b if i == j else 0 for i in range(dim - 1)) for j in range(dim - 1)
        ]
        ideal = MonomialIdeal(dim, lead + others)
        assert ideal.saturate() == MonomialIdeal(dim, [(a,) + (0,) * (dim - 1)])

    def test_embedded_component_near_the_degree_limit(self):
        # (x^2a, x^a y^b, x^a z^c) = (x^a) meets (x^2a, y^b, z^c): sat = (x^a)
        a, b, c = 1 << 59, (1 << 60) - 1, (1 << 59) + 7
        ideal = MonomialIdeal(3, [(2 * a, 0, 0), (a, b, 0), (a, 0, c)])
        assert ideal.saturate() == MonomialIdeal(3, [(a, 0, 0)])
        # the columns beyond every cut stay unbounded: x^(a-1) * y^big is out
        assert not member(ideal.saturate().generators, (a - 1, 1 << 60, 1 << 60))

    def test_saturation_past_the_degree_limit_raises(self):
        # sat(y^N z^(N-1), x^(N-1) z^N, x^N y^(N-1) z) has the generator
        # (x y z)^(N-1), of degree 3N - 3 against at most 2N for the ideal
        small = MonomialIdeal(3, [(0, 6, 5), (5, 0, 6), (6, 5, 1)])
        assert (5, 5, 5) in small.saturate().generators
        n = 1 << 60
        big = MonomialIdeal(3, [(0, n, n - 1), (n - 1, 0, n), (n, n - 1, 1)])
        with pytest.raises(SizeLimitError, match="degree above"):
            big.saturate()

    def test_past_the_cell_limit_raises(self):
        # 2101 generators cut both column axes into 2101 cells: 4.4M > 2^22
        wide = MonomialIdeal(3, [(0, i, 2100 - i) for i in range(2101)])
        with pytest.raises(SizeLimitError, match="cells exceeds the limit"):
            wide.saturate()

    def test_each_call_reads_the_ideal_s_own_grid(self, monkeypatch):
        # nothing is memoized: each call takes one saturation-height pass on
        # the ideal's own grid, and a saturated ideal is returned itself
        passes = []
        heights = ideals_mod._saturation_heights

        def counted(grid):
            passes.append(grid)
            return heights(grid)

        monkeypatch.setattr(ideals_mod, "_saturation_heights", counted)
        I = MonomialIdeal(2, [(2, 0), (1, 1)]).power(3)
        assert I.saturate() == I.saturate() != I
        J = MonomialIdeal(3, [(2, 1, 0), (0, 1, 3), (1, 1, 1)])
        assert J.saturate() is J.saturate() is J
        grids = I._grid()[1], J._grid()[1]
        on = [[np.shares_memory(g, grid) for grid in grids] for g in passes]
        assert on == [[True, False]] * 2 + [[False, True]] * 2

    def test_a_saturated_ideal_is_its_own_saturation(self):
        pool = corpus(84, 300, max_dim=4) + lemma_pool()
        saturated = 0
        for I in pool:
            S = I.saturate()
            assert (S is I) == (MonomialIdeal(I.dim, S.generators) == I), I
            saturated += S is I
        assert 100 < saturated < len(pool) - 100


def _same_grid(got, want) -> bool:
    (cuts_a, heights_a), (cuts_b, heights_b) = got, want
    return (
        len(cuts_a) == len(cuts_b)
        and all(np.array_equal(x, y) for x, y in zip(cuts_a, cuts_b))
        and np.array_equal(heights_a, heights_b)
    )


def _fresh_grid(ideal):
    """(cuts, heights) of ideal as _height_grids builds them, memo aside."""
    cuts, (heights,) = ideals_mod._height_grids((ideal,))
    return cuts, heights


def _on_grid(big, small):
    """big * small on the grid, whatever the size switch in product says."""
    return ideals_mod._product_on_grid(big, small, ideals_mod._union_cuts(big, small))


class TestGridProduct:
    """Products above the cutover: min-plus shifts of a memoized height grid."""

    def test_chains_match_the_pairwise_sums(self):
        # chains to n = 12 of 1-4 generators cross the cutover on the way
        dims, crossed = set(), 0
        for seed in (61, 62, 63):
            for base in corpus(seed, 14, max_dim=4, max_gens=4):
                dims.add(base.dim)
                power = base
                for _ in range(2, 13):
                    want = product_by_sums(power, base)
                    if len(power.generators) * len(base.generators) >= ideals_mod._GRID_CUTOVER:
                        crossed += 1
                    got = power.product(base)
                    assert got.generators == want
                    assert _on_grid(power, base).generators == want
                    assert _on_grid(base, power).generators == want
                    power = got
        assert dims == {1, 2, 3, 4}
        assert crossed >= 20

    def test_grid_product_against_brute_force(self, pairs):
        for a, b in pairs:
            got = _on_grid(a, b)
            assert staircase_in_box(got.generators, box_for(a, b)) == brute_product(
                a.generators, b.generators, a.dim
            )

    def test_kept_grid_is_the_products_own(self):
        for base in corpus(64, 30, max_dim=4):
            for n in (2, 3, 5):
                power = base.power(n)
                fresh = ideals_mod._make(power.dim, power.generators)
                assert _same_grid(power._grid(), fresh._grid())

    def test_kept_grid_on_degenerate_axes(self):
        # column axes cut at 0 alone (factors free of z, or of y and z), a
        # single column axis, and no column axis at all
        def ideal(*gens):
            return MonomialIdeal(len(gens[0]), gens)

        prime = ideal((1, 0, 0), (0, 1, 0))
        cases = [
            (prime.power(6), prime),
            (ideal((3, 0, 0), (2, 1, 0), (0, 4, 0)), ideal((1, 1, 0), (0, 2, 0))),
            (ideal((2, 0, 0, 1), (0, 0, 0, 3)), ideal((1, 0, 0, 1), (4, 0, 0, 0))),
            (ideal((4, 0), (1, 2), (0, 5)), ideal((1, 1), (2, 0))),
            (ideal((3, 0)), ideal((1, 0))),
            (ideal((3,)), ideal((2,))),
            (ideal((0,)), ideal((2,))),
        ]
        for a, b in cases:
            for big, small in ((a, b), (b, a)):
                got = _on_grid(big, small)
                assert got.generators == product_by_sums(big, small)
                assert _same_grid(got._grid(), _fresh_grid(got))
        # the prime's chain crosses onto grid products, as in criterion 3
        power = prime.power(40)
        assert len(power.generators) * 2 >= ideals_mod._GRID_CUTOVER
        assert _same_grid(power._grid(), _fresh_grid(power))

    @staticmethod
    def _wide(lead: int) -> MonomialIdeal:
        """(x^lead, x^(7-i) y^(i+1) for i < 7): eight generators of degree <= lead."""
        return MonomialIdeal(2, [(lead, 0)] + [(7 - i, i + 1) for i in range(7)])

    def test_degree_guard_above_the_switch(self):
        # 8 x 8 generator pairs take the grid path; the degrees add up to 2^61
        a, b = self._wide(1 << 60), self._wide(1 << 60)
        assert len(a.generators) * len(b.generators) >= ideals_mod._GRID_CUTOVER
        got = a.product(b)
        assert got.generators == product_by_sums(a, b)
        assert (1 << 61, 0) in got.generators
        with pytest.raises(SizeLimitError, match="degree above"):
            a.product(self._wide((1 << 60) + 1))

    def test_degree_guard_on_the_sums_above_the_switch(self):
        # 200 x 4 generator pairs whose union grid is past the cell limit
        wide = [(0, i, 199 - i, i) for i in range(200)]
        a = MonomialIdeal(4, [((1 << 61) - 1, 0, 0, 0)] + wide)
        assert a.product(maximal_ideal(4)).generators == product_by_sums(a, maximal_ideal(4))
        with pytest.raises(SizeLimitError, match="degree above"):
            a.product(MonomialIdeal(4, [(2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]))

    def test_degree_guard_below_the_switch(self):
        a = MonomialIdeal(2, [((1 << 61) - 1, 0), (0, 1)])
        assert a.product(MonomialIdeal(2, [(1, 0)])).generators == ((1, 1), (1 << 61, 0))
        with pytest.raises(SizeLimitError, match="degree above"):
            a.product(MonomialIdeal(2, [(2, 0)]))

    @pytest.mark.parametrize("n_pairs", [1, 64])
    def test_square_past_the_degree_limit_raises(self, n_pairs):
        # x^(2^61) * x^(2^61) is minimal in the square, on either side of the switch
        a = MonomialIdeal(2, [(1 << 61, 0)]) if n_pairs == 1 else self._wide(1 << 61)
        assert len(a.generators) ** 2 == n_pairs
        with pytest.raises(SizeLimitError, match="degree above"):
            a.product(a)

    def test_degree_guard_above_the_switch_reads_the_minimal_generators(self):
        # 8 x 8 pairs on the grid: the sum x^(2^60+1) y^(2^60+1) has degree
        # 2^61 + 2, but x*y divides it
        a = MonomialIdeal(2, [((1 << 60) + 1, 0)] + [(7 - i, i + 1) for i in range(7)])
        b = MonomialIdeal(2, [(0, (1 << 60) + 1)] + [(i + 1, 7 - i) for i in range(7)])
        assert len(a.generators) * len(b.generators) == ideals_mod._GRID_CUTOVER
        got = a.product(b)
        assert got.generators == product_by_sums(a, b)
        assert max(map(sum, got.generators)) == (1 << 60) + 9
        assert getattr(got, "_heights", None) is not None

    def test_degree_guard_on_the_sums_reads_the_minimal_generators(self):
        # 202 x 4 pairs past the grid's cell limit: the sum x^(2^60+1) w^(2^60+1)
        # has degree 2^61 + 2, but x^8 w divides it
        wide = [(0, i, 199 - i, i) for i in range(200)]
        a = MonomialIdeal(4, [((1 << 60) + 1, 0, 0, 0), (7, 0, 0, 1)] + wide)
        b = MonomialIdeal(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, (1 << 60) + 1)])
        got = a.product(b)
        assert got.generators == product_by_sums(a, b)
        assert getattr(got, "_heights", None) is None

    def test_degree_guard_below_the_switch_reads_the_minimal_generators(self):
        # the sum x^(2^60+1) y^(2^60+1) has degree 2^61 + 2, but x*y divides it
        a = MonomialIdeal(2, [((1 << 60) + 1, 0), (0, 1)])
        b = MonomialIdeal(2, [(1, 0), (0, (1 << 60) + 1)])
        want = ((0, (1 << 60) + 2), (1, 1), ((1 << 60) + 2, 0))
        assert a.product(b).generators == want == product_by_sums(a, b)

    def test_shift_temporary_is_chunked(self, monkeypatch):
        big = MonomialIdeal(3, [(i % 4, i, 12 - i) for i in range(13)])
        small = MonomialIdeal(3, [(1, j, 5 - j) for j in range(6)])
        want = product_by_sums(big, small)
        cells = []
        shifted = ideals_mod._shifted_heights

        def recorded(*args):
            out = shifted(*args)
            cells.append(out.size)
            return out

        monkeypatch.setattr(ideals_mod, "_shifted_heights", recorded)
        # the union grid has 18 x 18 cells: two generators fit a chunk of 700
        monkeypatch.setattr(ideals_mod, "MAX_GRID_CELLS", 700)
        assert _on_grid(big, small).generators == want
        assert len(cells) == 3
        assert max(cells) <= 700

    @pytest.mark.parametrize(
        "big, small",
        [
            # the factor's own grid alone has 200^3 cells, past 2^22
            (MonomialIdeal(4, [(0, i, 199 - i, i) for i in range(200)]), maximal_ideal(4)),
            # the union grid has 2,049^2 cells, past 2^22
            (MonomialIdeal(3, [(0, i, 1024 - i) for i in range(1025)]),) * 2,
            # generic: 12 x 9 generators, a union grid of 12,992 cells, past 12^2
            tuple(
                MonomialIdeal(3, [tuple(rng.randrange(1000) for _ in "xyz") for _ in range(n)])
                for rng in [random.Random(7)]
                for n in (40, 12)
            ),
        ],
    )
    def test_large_grids_take_the_pairwise_sums(self, big, small):
        n_big = len(big.generators)
        assert n_big * len(small.generators) >= ideals_mod._GRID_CUTOVER
        cells = math.prod(map(len, ideals_mod._union_cuts(big, small)))
        assert cells > min(ideals_mod.MAX_GRID_CELLS, n_big * n_big)
        got = big.product(small)
        assert got.generators == product_by_sums(big, small)
        # neither the factor nor the product got a grid
        assert getattr(big, "_heights", None) is None
        assert getattr(got, "_heights", None) is None

    def test_padded_grid_past_the_cell_limit_takes_the_pairwise_sums(self, monkeypatch):
        # 9 generators in x1, x2 among 64 variables: the union grid has 17
        # cells, but padded by one cell per axis it has 18 * 2^62
        pad = (0,) * 62
        ideal = MonomialIdeal(64, [(i, 8 - i) + pad for i in range(9)])
        union = ideals_mod._union_cuts(ideal, ideal)
        assert math.prod(map(len, union)) == 17
        assert math.prod(len(u) + 1 for u in union) == 18 * 2**62

        def no_grid(*args):
            raise AssertionError("the grid path was taken")

        monkeypatch.setattr(ideals_mod, "_product_on_grid", no_grid)
        square = ideal * ideal
        assert square.generators == product_by_sums(ideal, ideal)
        assert square.generators == tuple((i, 16 - i) + pad for i in range(17))

    def test_powers_take_the_grid(self):
        # x^2, xy, yz, zw and x^3, y^2 z, x z^2, y^3
        for base in (
            MonomialIdeal(4, [(2, 0, 0, 0), (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)]),
            MonomialIdeal(3, [(3, 0, 0), (0, 2, 1), (1, 0, 2), (0, 3, 0)]),
        ):
            power = base.power(6)
            assert len(power.generators) * len(base.generators) >= ideals_mod._GRID_CUTOVER
            assert getattr(power.product(base), "_heights", None) is not None

    def test_memoized_grids_are_read_only(self):
        base = MonomialIdeal(3, [(2, 1, 0), (0, 2, 1), (1, 0, 2), (1, 1, 1)])
        square = base.product(base)
        fourth = square.product(square)
        # a grid built on demand, and one a grid product kept
        assert getattr(base, "_heights", None) is None
        assert getattr(fourth, "_heights", None) is not None
        for ideal in (base, fourth):
            cuts, heights = ideal._grid()
            assert ideal._grid() is ideal._grid()
            for arr in (*cuts, heights):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[...] = 0


# chains to n = 12 that cross the grid-product cutover: their stacks mix
# grids built from rows with grids that products kept
CROSSING = [
    MonomialIdeal(2, [(5, 0), (4, 1), (2, 2), (1, 4)]),
    MonomialIdeal(4, [(2, 0, 0, 0), (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)]),
]


def _chain(ideal, n_max=12):
    """I^1..I^n_max on a fresh copy of I, so that no memo of another test is read."""
    copy = MonomialIdeal(ideal.dim, ideal.generators)
    return [copy.power(n) for n in range(1, n_max + 1)]


class TestStackedHeightGrids:
    """_height_grids(.., stacked=True) against each ideal's own _grid()."""

    @staticmethod
    def _check(ideals) -> list[int]:
        """Every stacked entry against its ideal's _grid(); returns each chunk's cells."""
        memos = [getattr(ideal, "_heights", None) for ideal in ideals]
        chunks = list(ideals_mod._height_grids(ideals, stacked=True))
        # the fill keeps no grid on any ideal
        assert [getattr(ideal, "_heights", None) for ideal in ideals] == memos
        entries = [(tops, heights, i) for tops, heights in chunks for i in range(len(heights))]
        assert len(entries) == len(ideals)
        for ideal, (tops, heights, i) in zip(ideals, entries):
            cuts, want = ideal._grid()
            got = heights[i, ...]
            assert np.array_equal(got[tuple(map(slice, want.shape))], want), ideal
            # every padded cell repeats the last cell of each axis it passes
            last = [np.minimum(np.arange(n), s - 1) for n, s in zip(got.shape, want.shape)]
            assert np.array_equal(got, want[np.ix_(*last)]), ideal
            assert len(tops) == len(cuts) == ideal.dim - 1
            for top, c in zip(tops, cuts):
                assert np.array_equal(top[i, : len(c) - 1], c[1:]), ideal
                assert not top[i, len(c) - 1 :].any(), ideal
        return [heights.size for _, heights in chunks]

    @pytest.mark.parametrize(
        "pool",
        [
            pytest.param(lemma_pool, id="lemma-pool"),
            pytest.param(lambda: corpus(7, 48, max_dim=4), id="corpus-7-48-4d"),
            pytest.param(lambda: CROSSING, id="crossing-the-cutover"),
            pytest.param(
                lambda: [MonomialIdeal(1, [(3,)]), MonomialIdeal(1, [(1,)])], id="one-variable"
            ),
        ],
    )
    def test_chains_match_their_own_grids(self, pool):
        for ideal in pool():
            assert len(self._check(_chain(ideal))) == 1

    def test_crossing_chains_mix_kept_and_filled_grids(self):
        for ideal in CROSSING:
            chain = _chain(ideal)
            kept = [getattr(power, "_heights", None) is not None for power in chain]
            assert any(kept) and not all(kept)
            sizes = [len(power.generators) * len(ideal.generators) for power in chain[:-1]]
            assert min(sizes) < ideals_mod._GRID_CUTOVER <= max(sizes)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_unit_maximal_and_a_lone_monomial(self, dim):
        # one cell of height 0; height 1 at the origin and 0 elsewhere; and
        # x_1 x_2 .. x_d, which no column with a zero coordinate enters
        ideals = [unit_ideal(dim), maximal_ideal(dim), MonomialIdeal(dim, [(1,) * dim])]
        self._check(ideals)
        self._check(ideals[::-1])

    def test_unrelated_ideals_share_one_stack(self):
        ideals = [ideal for ideal in corpus(7, 48, max_dim=4) if ideal.dim == 3]
        assert len(ideals) > 10 and len(self._check(ideals)) == 1

    def test_an_empty_list_gives_no_chunk(self):
        assert list(ideals_mod._height_grids([], stacked=True)) == []

    def test_at_the_int64_bound(self):
        # heights and cuts of 2a = 2^61, the degree limit, stay exact
        a = 1 << 60
        ideal = MonomialIdeal(4, [(a, 0, 0, 0), (0, a, 0, 0), (0, 0, a, 0), (0, 0, 0, a)])
        chain = _chain(ideal, 2)
        self._check(chain)
        ((tops, heights),) = ideals_mod._height_grids(chain, stacked=True)
        assert int(heights.max()) == 2 * a and [int(top.max()) for top in tops] == [2 * a] * 3

    def test_chunks_split_under_a_lowered_cap(self, monkeypatch):
        chain = _chain(CROSSING[1])
        largest = max(power._grid()[1].size for power in chain)
        monkeypatch.setattr(ideals_mod, "MAX_GRID_CELLS", 2 * largest)
        sizes = self._check(chain)
        assert len(sizes) >= 3 and max(sizes) <= 2 * largest < sum(sizes)
        monkeypatch.setattr(ideals_mod, "MAX_GRID_CELLS", largest - 1)
        with pytest.raises(SizeLimitError, match="height grid"):
            ideals_mod._height_grids(chain, stacked=True)


class TestLazyGenerators:
    """Generator tuples are built from the rows on first read; the rows are the value."""

    BASE = MonomialIdeal(4, [(2, 0, 0, 0), (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)])
    X2_XY = MonomialIdeal(2, [(2, 0), (1, 1)])

    def _three_routes(self, monkeypatch):
        """x^2, xy, yz, zw to the 6th: on the grid, from tuples, and by pairwise sums."""
        fifth = self.BASE.power(5)
        grid = fifth.product(self.BASE)
        assert getattr(grid, "_heights", None) is not None
        tuples = MonomialIdeal(4, product_by_sums(fifth, self.BASE))
        monkeypatch.setattr(ideals_mod, "MAX_GRID_CELLS", 0)
        sums = MonomialIdeal(4, fifth.generators) * MonomialIdeal(4, self.BASE.generators)
        monkeypatch.undo()
        assert getattr(sums, "_heights", None) is None
        return grid, tuples, sums

    @pytest.mark.parametrize("name", ["dim", "generators", "_rows"])
    def test_instances_stay_frozen(self, name):
        small = self.X2_XY
        for ideal in (small, small * small, self.BASE.power(6), self.BASE.power(6).saturate()):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(ideal, name, getattr(ideal, name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(ideal, name)

    def test_every_route_is_one_value(self, monkeypatch):
        grid, tuples, sums = self._three_routes(monkeypatch)
        # comparing and hashing read the rows, not the tuples
        assert getattr(grid, "_gens", None) is None
        assert grid == tuples == sums
        assert hash(grid) == hash(tuples) == hash(sums)
        assert len({grid, tuples, sums}) == 1
        assert getattr(grid, "_gens", None) is None
        assert grid != self.BASE.power(5) and grid != grid.generators

    def test_generators_are_tuples_of_python_ints(self, monkeypatch):
        big = MonomialIdeal(2, [(np.int64(i), np.int64(70 - i)) for i in range(70)])
        grid, _, sums = self._three_routes(monkeypatch)
        a, b = self.X2_XY, MonomialIdeal(2, [(0, 3), (2, 1)])
        routes = {
            "constructor": MonomialIdeal(2, [(np.int64(2), 0), (1, 1)]),
            "Python filter": a * b,
            "constructor of 70 candidates": big,
            "grid product": grid,
            "pairwise sums": sums,
            "saturation": grid.saturate(),
            "intersect": a & b,
            "colon": a.colon(b),
        }
        for route, ideal in routes.items():
            assert ideal.generators, route
            for g in ideal.generators:
                assert type(g) is tuple and all(type(c) is int for c in g), route
            assert ideal.generators is ideal.generators

    def test_degree_rule_boundary_on_the_rows_path(self):
        # a coordinate past DEGREE_LIMIT // 2 sends the rows to the exact check
        y5 = MonomialIdeal(2, [(0, 5)])
        edge = MonomialIdeal(2, [(DEGREE_LIMIT - 5, 0)]) & y5
        assert edge.generators == ((DEGREE_LIMIT - 5, 5),)
        assert MonomialIdeal(2, [(DEGREE_LIMIT - 5, 0)]) * y5 == edge
        with pytest.raises(SizeLimitError, match="degree above"):
            MonomialIdeal(2, [(DEGREE_LIMIT - 4, 0)]) & y5
        with pytest.raises(SizeLimitError, match="degree above"):
            ideals_mod._make(2, rows=np.array([[DEGREE_LIMIT - 4, 5]], dtype=np.int64))


@pytest.fixture(scope="module")
def pairs():
    pool = corpus(13, 60)
    return [(a, b) for a, b in zip(pool[::2], pool[1::2]) if a.dim == b.dim]


def test_every_ideal_carries_its_rows(pairs):
    # the int64 rows every numpy path reads are the generators, from birth
    for a, b in pairs:
        formed = [a, b, a * b, a & b, a.colon(b), a.saturate(), a.power(3)]
        for ideal in formed + [zero_ideal(a.dim), unit_ideal(a.dim)]:
            rows = ideal._rows
            assert rows.dtype == np.int64
            assert rows.shape == (len(ideal.generators), ideal.dim)
            assert list(map(tuple, rows.tolist())) == list(ideal.generators)


class TestAgainstBruteForce:
    """The fast generator arithmetic against pointwise definitions."""

    def test_product(self, pairs):
        for a, b in pairs:
            box = box_for(a, b)
            got = staircase_in_box(a.product(b).generators, box)
            assert got == brute_product(a.generators, b.generators, a.dim)

    def test_intersect(self, pairs):
        for a, b in pairs:
            bounds = tuple(
                max(
                    max((g[j] for g in a.generators), default=0),
                    max((g[j] for g in b.generators), default=0),
                )
                + 1
                for j in range(a.dim)
            )
            got = staircase_in_box(a.intersect(b).generators, bounds)
            assert got == brute_intersect(a.generators, b.generators, a.dim)

    def test_colon(self, pairs):
        for a, b in pairs:
            bounds = tuple(
                max((g[j] for g in a.generators), default=0) + 1
                for j in range(a.dim)
            )
            got = staircase_in_box(a.colon(b).generators, bounds)
            assert got == brute_colon(a.generators, b.generators, a.dim)

    def test_saturate(self, pairs):
        for a, _ in pairs:
            bounds = tuple(
                max((g[j] for g in a.generators), default=0) + 1
                for j in range(a.dim)
            )
            got = staircase_in_box(a.saturate().generators, bounds)
            assert got == brute_saturate(a.generators, a.dim)


class TestSerialization:
    @pytest.mark.parametrize(
        "data",
        [
            {"dim": 2, "generators": [[1.5, 0]]},
            {"dim": 2, "generators": [[1, 0.0]]},
            {"dim": 2, "generators": [[1, True]]},
            {"dim": 2.9, "generators": [[1, 0]]},
            {"dim": "2", "generators": [[1, 0]]},
        ],
    )
    def test_non_integer_json_rejected(self, data):
        with pytest.raises(TypeError, match="must be an integer"):
            from_json_dict(data)

    def test_round_trip(self):
        I = MonomialIdeal(3, [(1, 2, 0), (0, 0, 4)])
        blob = json.dumps(to_json_dict(I))
        assert from_json_dict(json.loads(blob)) == I

    def test_emitted_form_is_minimal(self):
        I = MonomialIdeal(2, [(1, 0), (2, 0), (1, 3)])
        assert to_json_dict(I) == {"dim": 2, "generators": [[1, 0]]}

    def test_bad_payloads(self):
        with pytest.raises(ValueError):
            from_json_dict([1, 2])
        with pytest.raises(ValueError):
            from_json_dict({"dim": 2})
        with pytest.raises(ValueError):
            from_json_dict({"dim": 2, "generators": "xy"})

    def test_maximal_ideal_shape(self):
        assert maximal_ideal(3).generators == (
            (0, 0, 1),
            (0, 1, 0),
            (1, 0, 0),
        )
