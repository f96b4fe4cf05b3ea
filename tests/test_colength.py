import importlib
import math
import random
import sys

import numpy as np
import pytest

from epsmult import (
    AmaoResult,
    DimensionMismatchError,
    EpsmultError,
    InfiniteColengthError,
    MonomialIdeal,
    SizeLimitError,
    amao,
    check_sat_power_containment,
    colength,
    corpus,
    difference_max_degree,
    epsilon_sequence,
    is_finite_colength,
    maximal_ideal,
    simplex_counts,
    swanson_c_search,
    theorem_a_table,
    unit_ideal,
    zero_ideal,
)

from epsmult.colength import saturation_max_degrees
from epsmult.ideals import _GRID_CUTOVER, _height_grids
from oracle_utils import (
    brute_colength,
    brute_difference_max_degree,
    kpoly_length,
    lemma_pool,
    subideal,
)


X2_XY = MonomialIdeal(2, [(2, 0), (1, 1)])


def test_dimension_one_closed_form():
    assert colength(MonomialIdeal(1, [(5,)]), MonomialIdeal(1, [(2,)])) == 3
    assert colength(MonomialIdeal(1, [(5,)]), unit_ideal(1)) == 5


def test_equal_ideals_have_zero_length():
    assert colength(X2_XY, X2_XY) == 0


def test_containment_is_required():
    with pytest.raises(EpsmultError, match="inner not contained in outer"):
        colength(MonomialIdeal(2, [(1, 0)]), MonomialIdeal(2, [(0, 1)]))


def test_worked_example_lengths():
    assert colength(X2_XY, X2_XY.saturate()) == 1
    cube = X2_XY.power(3)
    assert colength(cube, cube.saturate()) == 6


def test_quotient_by_m_primary_ideal():
    # standard monomials of (x^2, y^3): a 2x3 grid
    I = MonomialIdeal(2, [(2, 0), (0, 3)])
    assert colength(I, unit_ideal(2)) == 6


def test_infinite_length_raises():
    inner = MonomialIdeal(2, [(1, 1)])
    outer = MonomialIdeal(2, [(1, 0)])
    assert not is_finite_colength(inner, outer)
    with pytest.raises(InfiniteColengthError):
        colength(inner, outer)


def test_zero_inner_against_anything_nonzero():
    with pytest.raises(InfiniteColengthError):
        colength(zero_ideal(2), MonomialIdeal(2, [(1, 1)]))


def test_grid_past_the_cell_limit_raises():
    # 2101 generators cut both column axes into 2101 cells: 4.4M > 2^22
    wide = MonomialIdeal(3, [(0, i, 2100 - i) for i in range(2101)])
    with pytest.raises(SizeLimitError, match="cells exceeds the limit"):
        colength(wide, unit_ideal(3))


def test_is_finite_colength_examples():
    assert is_finite_colength(X2_XY, X2_XY.saturate())
    assert is_finite_colength(MonomialIdeal(3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)]), unit_ideal(3))
    assert not is_finite_colength(MonomialIdeal(3, [(1, 0, 0)]), unit_ideal(3))


def test_three_variable_count():
    # standard monomials of (x,y,z)^2 are 1, x, y, z
    m2 = MonomialIdeal(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]).power(2)
    assert colength(m2, unit_ideal(3)) == 4


@pytest.mark.parametrize("seed", [21, 22])
def test_saturation_quotients_match_brute_force(seed):
    for I in corpus(seed, 25):
        S = I.saturate()
        want = brute_colength(I.generators, S.generators, I.dim)
        assert want is not None
        assert colength(I, S) == want


def test_saturation_quotients_match_the_k_polynomial():
    # I and I^2, I^3 against their saturations, up to 14 generators a side
    pairs = 0
    for I in corpus(71, 450, max_dim=4, max_gens=6):
        for n in (1, 2, 3):
            P = I.power(n)
            S = P.saturate()
            if max(len(P.generators), len(S.generators)) <= 14:
                assert colength(P, S) == kpoly_length(P, S), (P, S)
                pairs += 1
    assert pairs > 1000


def test_generic_exponents_in_the_thousands_match_the_k_polynomial():
    # far past any box oracle: lengths reach about 10^13
    rng = random.Random(72)
    for _ in range(200):
        d = rng.randint(2, 4)
        gens = [tuple(rng.randint(0, 3000) for _ in range(d)) for _ in range(rng.randint(2, 6))]
        if rng.random() < 0.5:
            # m-primary: any larger ideal has finite colength
            gens += [tuple(rng.randint(1000, 3000) * (i == j) for i in range(d)) for j in range(d)]
            inner = MonomialIdeal(d, gens)
            outer = MonomialIdeal(d, gens + [tuple(rng.randint(0, 3000) for _ in range(d))])
        else:
            inner = MonomialIdeal(d, gens)
            outer = inner.saturate()
        assert colength(inner, outer) == kpoly_length(inner, outer), (inner, outer)


def test_mixed_pairs_match_brute_force_including_infinite():
    pool = corpus(23, 40)
    pairs = [(a, b) for a, b in zip(pool[::2], pool[1::2]) if a.dim == b.dim]
    assert pairs
    for a, b in pairs:
        inner = a.product(b)
        outer = a.intersect(b)
        want = brute_colength(inner.generators, outer.generators, a.dim)
        if want is None:
            with pytest.raises(InfiniteColengthError):
                colength(inner, outer)
        else:
            assert colength(inner, outer) == want


def _saturation_pairs():
    """(P, sat P) on corpus powers in d = 1-4, principal, non-m-primary and 1-variable ideals."""
    bases = corpus(24, 60, max_dim=4, max_gens=4, max_exp=3) + [
        MonomialIdeal(3, [(1, 1, 1)]),
        MonomialIdeal(2, [(2, 3)]),
        MonomialIdeal(4, [(0, 1, 2, 1)]),
        MonomialIdeal(3, [(1, 1, 0), (1, 0, 1)]),
        MonomialIdeal(1, [(4,)]),
        MonomialIdeal(1, [(1,)]),
    ]
    for base in bases:
        for n in (1, 2) if base.dim == 4 else (1, 2, 3):
            P = base.power(n)
            yield P, P.saturate()


class TestSaturationOnTheInnerGrid:
    """Against sat(P) itself, the counts read P's own grid; any other outer ideal, a fresh one."""

    def test_matches_a_memo_free_copy_and_brute_force(self):
        dims = set()
        for P, S in _saturation_pairs():
            assert S == P.saturate()
            dims.add(P.dim)
            got = colength(P, S), difference_max_degree(P, S)
            copy = MonomialIdeal(P.dim, S.generators)
            assert got == (colength(P, copy), difference_max_degree(P, copy)), P
            gens = (P.generators, S.generators, P.dim)
            assert got == (brute_colength(*gens), brute_difference_max_degree(*gens)), P
        assert dims == {1, 2, 3, 4}

    def test_epsilon_sequence_builds_no_two_ideal_grid(self, monkeypatch):
        colength_mod = importlib.import_module("epsmult.colength")
        ideals_mod = importlib.import_module("epsmult.ideals")
        sizes = []
        height_grids = ideals_mod._height_grids

        def recorded(ideals):
            sizes.append(len(ideals))
            return height_grids(ideals)

        monkeypatch.setattr(ideals_mod, "_height_grids", recorded)
        monkeypatch.setattr(colength_mod, "_height_grids", recorded)
        I = MonomialIdeal(3, [(2, 1, 0), (0, 2, 1), (1, 0, 2)])
        lengths = epsilon_sequence(I, 8).lengths
        # the small powers' own grids are built; no count builds one of two ideals
        assert sizes and set(sizes) == {1}
        monkeypatch.undo()
        assert list(lengths) == [
            colength(I.power(n), MonomialIdeal(3, I.power(n).saturate().generators))
            for n in range(1, 9)
        ]


class TestSaturationLength:
    """colength(P, None) counts sat(P)/P off P's grid alone and forms no saturation ideal."""

    def test_matches_the_two_ideal_grid_and_brute_force(self):
        dims = set()
        for P, S in _saturation_pairs():
            dims.add(P.dim)
            fresh = colength(P, MonomialIdeal(P.dim, S.generators))
            assert colength(P, None) == fresh == brute_colength(P.generators, S.generators, P.dim)
        assert dims == {1, 2, 3, 4}

    @pytest.mark.parametrize(
        "dim,gens",
        [
            (4, [(2, 0, 0, 0), (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)]),
            (3, [(0, 1, 3), (1, 4, 2), (4, 0, 3)]),
        ],
    )
    def test_matches_the_two_ideal_grid_past_brute_force(self, dim, gens):
        I = MonomialIdeal(dim, gens)
        for n in (9, 40):
            P = I.power(n)
            assert colength(P, None) == colength(P, MonomialIdeal(dim, P.saturate().generators)), n

    def test_zero_and_unit_ideals_have_length_zero(self):
        assert colength(zero_ideal(3), None) == colength(unit_ideal(3), None) == 0

    def test_deepest_degree_matches_the_saturation_and_brute_force(self):
        dims = set()
        for P, S in _saturation_pairs():
            dims.add(P.dim)
            fresh = difference_max_degree(P, MonomialIdeal(P.dim, S.generators))
            brute = brute_difference_max_degree(P.generators, S.generators, P.dim)
            assert difference_max_degree(P, None) == difference_max_degree(P, S) == fresh == brute, P
        assert dims == {1, 2, 3, 4}

    def test_deepest_degree_is_none_for_zero_and_saturated_ideals(self):
        assert difference_max_degree(zero_ideal(3), None) is None
        assert difference_max_degree(unit_ideal(3), None) is None
        for P, S in _saturation_pairs():
            # a fresh copy holds no saturation memo
            assert difference_max_degree(MonomialIdeal(S.dim, S.generators), None) is None, S

    def test_epsilon_sequence_forms_no_saturation(self, monkeypatch):
        calls = []
        saturate = MonomialIdeal.saturate

        def recorded(ideal):
            calls.append(ideal)
            return saturate(ideal)

        monkeypatch.setattr(MonomialIdeal, "saturate", recorded)
        I = MonomialIdeal(3, [(2, 1, 0), (0, 2, 1), (1, 0, 2)])
        assert len(epsilon_sequence(I, 8).lengths) == 8
        assert calls == []

    def test_reports_store_no_saturation_memo(self):
        # every report reads sat(I^n) off I^n's grid when it needs it: the
        # ideal and its chain of powers keep rows, grids and powers alone
        I = MonomialIdeal(3, [(2, 1, 0), (0, 2, 1), (1, 0, 2)])
        assert I.saturate() != I
        assert len(theorem_a_table(I, m_max=3, k_max=9)) == 3
        assert len(epsilon_sequence(I, 8).lengths) == 8
        for n in range(1, 9):
            simplex_counts(I.power(n), 2 * n)
        swanson_c_search(I, mk_bound=12)
        assert check_sat_power_containment(I, 4).ok
        chain = [I, *I._powers.values()]
        assert len(chain) == 12
        kept = {"dim", "_gens", "_rows", "_heights", "_powers"}
        assert all(vars(P).keys() <= kept for P in chain)


def _equal_pairs():
    """(I, I) and (I, an equal copy), fresh, on corpus ideals in d = 1-4, zero and unit."""
    for I in corpus(26, 40, max_dim=4) + [zero_ideal(2), unit_ideal(3)]:
        yield I, I
        yield MonomialIdeal(I.dim, I.generators), MonomialIdeal(I.dim, I.generators)


class TestEqualPairs:
    """An ideal against itself, or an equal one, has an empty difference and reads no grid."""

    def test_no_height_grid_is_built(self, monkeypatch):
        colength_mod = importlib.import_module("epsmult.colength")
        ideals_mod = importlib.import_module("epsmult.ideals")
        calls = []
        height_grids = ideals_mod._height_grids

        def recorded(ideals):
            calls.append(ideals)
            return height_grids(ideals)

        monkeypatch.setattr(ideals_mod, "_height_grids", recorded)
        monkeypatch.setattr(colength_mod, "_height_grids", recorded)
        for inner, outer in _equal_pairs():
            got = colength(inner, outer), difference_max_degree(inner, outer)
            assert got == (0, None) and is_finite_colength(inner, outer), inner
        assert calls == []

    def test_match_the_two_ideal_grid_and_brute_force(self):
        for inner, outer in _equal_pairs():
            _, (h_in, h_out) = _height_grids((inner, outer))
            # the two-ideal grid has no cell where the heights differ
            assert np.array_equal(h_in, h_out), inner
            if not inner.is_zero:
                gens = (inner.generators, outer.generators, inner.dim)
                assert (brute_colength(*gens), brute_difference_max_degree(*gens)) == (0, None)


class TestInt64Count:
    """Lengths sum in int64 below the bound on their partial sums and exactly past it."""

    @pytest.fixture
    def object_count(self, monkeypatch):
        """colength with every count in object arrays of Python ints."""
        colength_mod = importlib.import_module("epsmult.colength")

        def count(inner, outer):
            with monkeypatch.context() as patch:
                patch.setattr(colength_mod, "_INT64_BOUND", 0)
                return colength(inner, outer)

        return count

    @pytest.mark.parametrize("b", [(1 << 23) - 1, 1 << 23, (1 << 23) + 1])
    def test_two_variables_at_the_bound(self, b, object_count):
        # depth 2^40 over a last cut of b: 2^40 * b against 2^63
        a = 1 << 40
        inner = MonomialIdeal(2, [(a, 0), (0, b)])
        outer = maximal_ideal(2)
        assert colength(inner, outer) == object_count(inner, outer) == a * b - 1
        assert kpoly_length(inner, outer) == a * b - 1

    @pytest.mark.parametrize("c", [(1 << 11) - 1, 1 << 11, (1 << 11) + 1])
    def test_three_variables_at_the_bound(self, c, object_count):
        # depth a over last cuts b and c: a * b * c passes 2^63 from c = 2^11
        a, b = (1 << 40) + 3, 1 << 12
        inner = MonomialIdeal(3, [(a, 0, 0), (0, b, 0), (0, 0, c), (a - 5, 7, 9)])
        outer = MonomialIdeal(3, [(1, 0, 0), (0, 1, 1), (0, 3, 0), (0, 0, 2)])
        want = kpoly_length(inner, outer)
        assert (want < 1 << 63) == (c <= 1 << 11)
        assert colength(inner, outer) == object_count(inner, outer) == want

    def test_small_pairs_match_the_object_count_and_brute_force(self, object_count):
        pairs = list(_saturation_pairs())[::3]
        for a, b in zip(corpus(27, 30, max_dim=4), corpus(28, 30, max_dim=4)):
            if a.dim == b.dim:
                union = MonomialIdeal(a.dim, a.generators + b.generators)
                pairs.append((a.product(b), union))
        finite = 0
        for inner, outer in pairs:
            want = brute_colength(inner.generators, outer.generators, inner.dim)
            if want is not None:
                assert colength(inner, outer) == object_count(inner, outer) == want, inner
                finite += 1
        assert finite > 40


class TestDifferenceMaxDegree:
    def test_worked_example(self):
        assert difference_max_degree(X2_XY, X2_XY.saturate()) == 1

    def test_equal_ideals_give_none(self):
        assert difference_max_degree(X2_XY, X2_XY) is None

    def test_dimension_one(self):
        assert difference_max_degree(MonomialIdeal(1, [(7,)]), MonomialIdeal(1, [(3,)])) == 6

    def test_m_primary_difference(self):
        I = MonomialIdeal(2, [(3, 0), (0, 3)])
        # deepest standard monomial is x^2 y^2
        assert difference_max_degree(I, unit_ideal(2)) == 4

    def test_infinite_difference_raises(self):
        with pytest.raises(InfiniteColengthError):
            difference_max_degree(MonomialIdeal(2, [(1, 1)]), MonomialIdeal(2, [(1, 0)]))

    @pytest.mark.parametrize("seed", [31, 32])
    def test_matches_brute_force(self, seed):
        for I in corpus(seed, 25):
            S = I.saturate()
            want = brute_difference_max_degree(I.generators, S.generators, I.dim)
            got = difference_max_degree(I, S)
            assert got == want

    def test_dimension_three_matches_brute_force(self):
        for I in (ideal for ideal in corpus(33, 40) if ideal.dim == 3):
            S = I.saturate()
            gens = (I.generators, S.generators, 3)
            assert colength(I, S) == brute_colength(*gens)
            assert difference_max_degree(I, S) == brute_difference_max_degree(*gens)


def _casts(fn, *args):
    """fn(*args), and whether it cast an array to Python ints on the way."""
    casts = []

    def profile(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", None) == "astype":
            casts.append(arg)

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, bool(casts)


class TestInt64Degree:
    """Deepest degrees sum in int64 below the bound on their partial sums and exactly past it."""

    @pytest.mark.parametrize(
        "a, in_int64",
        # inner height a plus three last cuts of a: 4a against 2^63
        [((1 << 61) - 1, True), (1 << 61, False)],
    )
    def test_diagonal_at_the_bound(self, a, in_int64):
        ideal = MonomialIdeal(4, [(a, 0, 0, 0), (0, a, 0, 0), (0, 0, a, 0), (0, 0, 0, a)])
        want = (4 * a - 4, not in_int64)
        assert _casts(difference_max_degree, ideal, unit_ideal(4)) == want
        assert _casts(difference_max_degree, ideal, None) == want

    def test_small_pairs_match_the_object_degree(self, monkeypatch):
        colength_mod = importlib.import_module("epsmult.colength")
        pairs = [(I.power(n), None) for I in corpus(29, 30, max_dim=4) for n in (1, 2)]
        pairs += list(_saturation_pairs())
        want = [difference_max_degree(inner, outer) for inner, outer in pairs]
        monkeypatch.setattr(colength_mod, "_INT64_BOUND", 0)
        assert [difference_max_degree(inner, outer) for inner, outer in pairs] == want
        assert sum(degree is not None for degree in want) > 20


# chains that cross the grid-product cutover: one stack mixes the grids of
# pairwise products with those of grid products, in two and four variables
CROSSING = [
    MonomialIdeal(2, [(5, 0), (4, 1), (2, 2), (1, 4)]),
    MonomialIdeal(4, [(2, 0, 0, 0), (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)]),
]


class TestSaturationMaxDegrees:
    """The stacked pass of the truncation search against the two-ideal pair path."""

    @pytest.mark.parametrize(
        "pool, n_max",
        [
            pytest.param(lemma_pool, 12, id="lemma-pool"),
            pytest.param(lambda: corpus(7, 48, max_dim=4), 12, id="corpus-7-48-4d"),
            pytest.param(lambda: CROSSING, 12, id="crossing-the-cutover"),
            pytest.param(
                lambda: [MonomialIdeal(1, [(3,)]), MonomialIdeal(1, [(1,)])], 6, id="one-variable"
            ),
        ],
    )
    def test_chain_matches_the_pair_path_and_brute_force(self, pool, n_max):
        # S is a fresh copy of sat(I^n), so difference_max_degree(I^n, S)
        # reads both on a _height_grids grid of their own, not the stack
        brute = nonempty = 0
        for ideal in pool():
            chain = MonomialIdeal(ideal.dim, ideal.generators)
            got = saturation_max_degrees([chain.power(n) for n in range(1, n_max + 1)])
            copy = MonomialIdeal(ideal.dim, ideal.generators)
            for n, deepest in enumerate(got, 1):
                power = copy.power(n)
                sat = MonomialIdeal(ideal.dim, power.saturate().generators)
                assert deepest == difference_max_degree(power, sat), (ideal, n)
                nonempty += deepest is not None
                box = math.prod(max(g[j] for g in power.generators) + 1 for j in range(ideal.dim))
                if box <= 4000:
                    gens = (power.generators, sat.generators, ideal.dim)
                    assert deepest == brute_difference_max_degree(*gens), (ideal, n)
                    brute += 1
        assert brute > 0 and nonempty > 0

    def test_crossing_chains_mix_grid_shapes(self):
        # the chains above do cross the cutover, so their grids differ in shape
        for ideal in CROSSING:
            sizes = [len(ideal.power(n).generators) * len(ideal.generators) for n in range(1, 12)]
            assert min(sizes) < _GRID_CUTOVER <= max(sizes)
            assert len({ideal.power(n)._grid()[1].shape for n in range(1, 13)}) == 12

    def test_unrelated_grids_share_one_stack(self):
        # any nonzero ideals in one ring stack together; sat(m) is the unit
        # ideal, whose difference holds 1 alone, and (xyz) is saturated
        ideals = [ideal for ideal in corpus(7, 48, max_dim=4) if ideal.dim == 3]
        ideals += [unit_ideal(3), maximal_ideal(3), MonomialIdeal(3, [(1, 1, 1)])]
        want = [difference_max_degree(ideal, ideal.saturate()) for ideal in ideals]
        assert saturation_max_degrees(ideals) == want
        assert want[-3:] == [None, 0, None] and len(set(want)) > 3

    @pytest.mark.parametrize(
        "a, in_int64",
        # I^2 = (x^a, y^a, z^a, w^a)^2 has height 2a and three last cuts of
        # 2a: 8a against 2^63, and its generators reach the degree limit
        [((1 << 60) - 1, True), (1 << 60, False)],
    )
    def test_search_at_the_int64_bound(self, a, in_int64):
        ideal = MonomialIdeal(4, [(a, 0, 0, 0), (0, a, 0, 0), (0, 0, a, 0), (0, 0, 0, a)])
        powers = [ideal, ideal.power(2)]
        for power in powers:
            power._grid()
        got = _casts(saturation_max_degrees, powers)
        # the deepest monomials: x^(a-1) y^(a-1) z^(a-1) w^(a-1), then x^(2a-1) times the rest
        assert got == ([4 * a - 4, 5 * a - 4], not in_int64)
        pair = [difference_max_degree(power, unit_ideal(4)) for power in powers]
        assert got[0] == pair
        res = swanson_c_search(ideal, mk_bound=2)
        assert res.per_pair == ((1, 1, 4 * a - 3), (2, 1, (5 * a - 4) // 2 + 1))

    def test_chunks_stay_under_the_cap(self, monkeypatch):
        # a cap above every grid of the 4-variable chain but below its stack
        ideal = CROSSING[1]
        want = swanson_c_search(MonomialIdeal(4, ideal.generators)).per_pair
        largest = max(ideal.power(n)._grid()[1].size for n in range(1, 13))
        cap = 2 * largest
        stacks = []
        colength_mod = importlib.import_module("epsmult.colength")
        ideals_mod = importlib.import_module("epsmult.ideals")
        heights = colength_mod._saturation_heights

        def recorded(stack):
            stacks.append(stack.size)
            return heights(stack)

        # the stacked fill splits the chain; the fresh chain's products
        # read the same cap
        monkeypatch.setattr(ideals_mod, "MAX_GRID_CELLS", cap)
        monkeypatch.setattr(colength_mod, "_saturation_heights", recorded)
        assert swanson_c_search(MonomialIdeal(4, ideal.generators)).per_pair == want
        assert len(stacks) >= 3 and max(stacks) <= cap < sum(stacks)


class TestInsideSaturation:
    """is_finite_colength(P, J) as the containment J <= sat(P) of nested P <= J."""

    @staticmethod
    def _inside(inner, outer):
        # a fresh copy of the saturation, away from the memos
        return subideal(outer, MonomialIdeal(inner.dim, inner.saturate().generators))

    def test_saturated_powers_match_the_ideal_containment(self):
        for I in corpus(7, 48, max_dim=4):
            sat = I.saturate()
            for i in range(1, 5):
                pair = (I.power(i), sat.power(i))
                assert is_finite_colength(*pair) and self._inside(*pair), (I, i)

    def test_cross_pairs_match_the_ideal_containment(self):
        # I^2 <= I, with I inside sat(I^2) for some ideals and not others
        outcomes = set()
        for I in corpus(7, 48, max_dim=4):
            got = is_finite_colength(I.power(2), I)
            assert got == self._inside(I.power(2), I), I
            outcomes.add(got)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_zero_and_unit(self, dim):
        zero, unit, m = zero_ideal(dim), unit_ideal(dim), maximal_ideal(dim)
        lone = MonomialIdeal(dim, [(1,) + (0,) * (dim - 1)])
        pool = (zero, lone, m, unit)
        pairs = [(P, J) for P in pool for J in pool if subideal(P, J)]
        assert [is_finite_colength(*pair) for pair in pairs] == [
            self._inside(*pair) for pair in pairs
        ]
        assert [is_finite_colength(zero, J) for J in (zero, m, unit)] == [True, False, False]
        assert [is_finite_colength(P, unit) for P in (m, lone)] == [True, dim == 1]

    def test_the_lookup_fills_no_memo(self):
        I = MonomialIdeal(3, [(2, 1, 0), (0, 2, 1), (1, 0, 2)])
        sat, powers = I.saturate(), [I.power(i) for i in range(1, 5)]
        assert all(is_finite_colength(P, sat.power(i)) for i, P in enumerate(powers, 1))
        # I^2..I^4 are pairwise products (at most 10 * 3 pairs), which keep
        # no grid; I's own grid is saturate()'s
        assert all(getattr(P, "_heights", None) is None for P in powers[1:])

    def test_empty_lists_give_empty_answers(self):
        assert saturation_max_degrees([]) == []

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            is_finite_colength(X2_XY, maximal_ideal(3))
        with pytest.raises(DimensionMismatchError):
            is_finite_colength(maximal_ideal(3), X2_XY)


# Exponents near 10^6 put these far past enumeration (about 10^12 columns)
# and the n = 3 length past 2^63; the closed forms still hold exactly.
A, B, C = 999_983, 1_000_003, 1_000_033
DIAGONAL = MonomialIdeal(3, [(A, 0, 0), (0, B, 0), (0, 0, C)])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_diagonal_power_length_closed_form(n):
    # I^n is spanned by products of n pure powers, so the standard monomials
    # of I^n tile into C(n + 2, 3) translated A x B x C boxes
    assert colength(DIAGONAL.power(n), unit_ideal(3)) == A * B * C * math.comb(n + 2, 3)


def test_diagonal_max_degree_closed_form():
    assert difference_max_degree(DIAGONAL, unit_ideal(3)) == A + B + C - 3


class TestLengthSequence:
    def test_triangular_numbers(self):
        # lengths n(n+1)/2 for n = 1..6: second differences 1 from the start
        assert amao(X2_XY, X2_XY.saturate(), 6) == AmaoResult(1, 1, 4)

    def test_error_carries_family_index(self):
        inner, outer = MonomialIdeal(2, [(1, 1)]), MonomialIdeal(2, [(1, 0)])
        with pytest.raises(InfiniteColengthError, match="at family index n=1"):
            amao(inner, outer, 3)

    @pytest.mark.parametrize("k_max", [3.7, True])
    def test_length_must_be_an_integer(self, k_max):
        # int() would read 3.7 as 3
        with pytest.raises(TypeError, match="k_max must be an integer"):
            amao(X2_XY, X2_XY.saturate(), k_max)
