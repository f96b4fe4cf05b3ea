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
    to_json_dict,
    unit_ideal,
    zero_ideal,
)
from epsmult.ideals import (
    _minimal_python,
    _minimal_rows,
    minimal_vectors,
)

from oracle_utils import (
    brute_colon,
    brute_intersect,
    brute_product,
    brute_saturate,
    contains_many,
    product_by_sums,
    saturate_by_colon_iteration,
    staircase_in_box,
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

    def test_contains_rejects_non_integers(self):
        with pytest.raises(TypeError):
            MonomialIdeal(2, [(1, 0)]).contains((1.5, 0))

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
        # past the numpy cutover too: vectors past int64 take the Python filter
        many = [(1, 2**70 + k) for k in range(70)]
        assert MonomialIdeal(2, [(1, 0)] + many).generators == ((1, 0),)


def _candidate_sets(rng):
    """Sets of 65-2000 vectors in dims 1-4, several spanning more than one block.

    In dims 2-4 a quarter of the vectors lie on one degree layer, where no
    row dominates another, and the rest are nudged up from it, so each
    block keeps many rows and drops many.
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


class TestMinimalization:
    def test_vectorized_path_matches_the_python_oracle(self):
        for cands in _candidate_sets(random.Random(97)):
            expected = sorted(_minimal_python(cands))
            # the rows come back sorted, with no sort of their own
            rows = _minimal_rows(np.array(list(cands), dtype=np.int64))
            assert list(map(tuple, rows.tolist())) == expected
            assert list(minimal_vectors(cands)) == expected


class TestQueries:
    def test_contains(self):
        ideal = MonomialIdeal(2, [(2, 0), (1, 1)])
        assert ideal.contains((2, 5))
        assert ideal.contains((1, 1))
        assert not ideal.contains((1, 0))
        assert not ideal.contains((0, 9))

    def test_contains_many_matches_scalar(self):
        ideal = MonomialIdeal(3, [(2, 0, 1), (0, 3, 0)])
        pts = [(i, j, k) for i in range(4) for j in range(4) for k in range(3)]
        flags = contains_many(ideal, pts)
        assert [bool(f) for f in flags] == [ideal.contains(p) for p in pts]

    def test_max_exponents(self):
        assert MonomialIdeal(2, [(2, 1), (0, 3)]).max_exponents() == (2, 3)
        assert zero_ideal(2).max_exponents() == (0, 0)

    def test_subideal(self):
        small = MonomialIdeal(2, [(2, 0), (1, 1)])
        big = MonomialIdeal(2, [(1, 0)])
        assert small.is_subideal_of(big)
        assert not big.is_subideal_of(small)
        assert zero_ideal(2).is_subideal_of(small)


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
        assert (I + zero_ideal(2)) == I

    def test_operator_sugar(self):
        I = MonomialIdeal(2, [(2, 0), (1, 1)])
        J = MonomialIdeal(2, [(0, 2)])
        assert I * J == I.product(J)
        assert I + J == I.sum(J)
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
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            I = MonomialIdeal(3, [(2, 1, 0), (0, 1, 3), (1, 1, 1)])
            ref = weakref.ref(I)
            I.power(6)
            I.saturate()
            I._grid()
            del I
            assert ref() is None
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
            assert I.is_subideal_of(S)

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
                bounds = tuple(t + 1 for t in I.max_exponents())
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
        assert not ideal.saturate().contains((a - 1, 1 << 60, 1 << 60))

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

    def test_memoized_on_the_instance(self, monkeypatch):
        calls = []
        grid = ideals_mod._saturation_on_grid

        def counted(ideal):
            calls.append(ideal)
            return grid(ideal)

        monkeypatch.setattr(ideals_mod, "_saturation_on_grid", counted)
        I = MonomialIdeal(2, [(2, 0), (1, 1)]).power(3)
        assert I.saturate() is I.saturate()
        assert calls == [I]


def _same_grid(got, want) -> bool:
    (cuts_a, heights_a), (cuts_b, heights_b) = got, want
    return (
        len(cuts_a) == len(cuts_b)
        and all(np.array_equal(x, y) for x, y in zip(cuts_a, cuts_b))
        and np.array_equal(heights_a, heights_b)
    )


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
                    if len(power.generators) * len(base.generators) >= ideals_mod._NUMPY_CUTOVER:
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

    @staticmethod
    def _wide(lead: int) -> MonomialIdeal:
        """(x^lead, x^(7-i) y^(i+1) for i < 7): eight generators of degree <= lead."""
        return MonomialIdeal(2, [(lead, 0)] + [(7 - i, i + 1) for i in range(7)])

    def test_degree_guard_above_the_switch(self):
        # 8 x 8 generator pairs take the grid path; the degrees add up to 2^61
        a, b = self._wide(1 << 60), self._wide(1 << 60)
        assert len(a.generators) * len(b.generators) >= ideals_mod._NUMPY_CUTOVER
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
        assert len(a.generators) * len(b.generators) == ideals_mod._NUMPY_CUTOVER
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
        assert n_big * len(small.generators) >= ideals_mod._NUMPY_CUTOVER
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
            assert len(power.generators) * len(base.generators) >= ideals_mod._NUMPY_CUTOVER
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


@pytest.fixture(scope="module")
def pairs():
    pool = corpus(13, 60)
    return [(a, b) for a, b in zip(pool[::2], pool[1::2]) if a.dim == b.dim]


def test_every_ideal_carries_its_rows(pairs):
    # the int64 rows every numpy path reads are the generators, from birth
    for a, b in pairs:
        formed = [a, b, a + b, a * b, a & b, a.colon(b), a.saturate(), a.power(3)]
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
