import math
import random

import numpy as np
import pytest

from epsmult import (
    InsufficientDataError,
    Semigroup,
    SizeLimitError,
    check_cone_conditions,
    k_fold_sum_count,
    semigroup_from_json_dict,
)
from epsmult.semigroups import _lattice_spans_everything

from oracle_utils import brute_k_fold_sums, brute_level, lattice_contains_all_units

SIMPLEX = Semigroup(2, generators=[(0, 0, 1), (1, 0, 1), (0, 1, 1)])


class TestConstruction:
    def test_generator_levels_must_be_positive(self):
        with pytest.raises(ValueError, match="levels must be >= 1"):
            Semigroup(2, generators=[(1, 0, 0)])

    def test_generator_length_is_checked(self):
        with pytest.raises(ValueError, match="generator must have 3 coordinates, got 2"):
            Semigroup(2, generators=[(1, 1)])

    def test_level_zero_must_be_origin(self):
        with pytest.raises(ValueError, match="origin"):
            Semigroup(1, levels={0: [(1,)]})

    def test_some_data_required(self):
        with pytest.raises(ValueError):
            Semigroup(2)

    @pytest.mark.parametrize(
        "sources",
        [
            {"generators": [(0, 1)], "levels": {1: [(0,)]}},
            # an empty generator list is still a source
            {"generators": [], "levels": {1: [(0,)]}},
            # levels the generators would themselves give are still a second source
            {"generators": [(1, 1)], "levels": {1: [(1,)], 2: [(2,)]}},
            # so is a level map that holds the origin alone
            {"generators": [(0, 1)], "levels": {0: [(0,)]}},
        ],
    )
    def test_two_sources_rejected(self, sources):
        # counts() would read the levels and the cone check the generators
        with pytest.raises(ValueError, match="needs only one of"):
            Semigroup(1, **sources)

    def test_empty_levels_are_no_source(self):
        with pytest.raises(ValueError, match="needs generators"):
            Semigroup(1, levels={})
        sg = Semigroup(1, generators=[(1, 1)], levels={})
        assert sg.counts(4)[4] == 1

    def test_dimension_positive(self):
        with pytest.raises(ValueError):
            Semigroup(0, generators=[])

    def test_generators_are_deduplicated_and_sorted(self):
        sg = Semigroup(1, generators=[(1, 1), (0, 1), (1, 1)])
        assert sg.generators == ((0, 1), (1, 1))


class TestCounting:
    def test_level_zero(self):
        assert SIMPLEX.level(0) == {(0, 0)}

    def test_simplex_closed_form(self):
        assert SIMPLEX.counts(40) == {n: (n + 1) * (n + 2) // 2 for n in range(1, 41)}

    def test_raster_and_set_materialization_agree(self):
        for gens in (
            [(0, 2, 1), (1, 0, 1), (3, 1, 2), (0, 0, 3)],
            # generators at levels 1 and 3 only: the level DP keeps a window of 3
            [(1, 0, 1), (0, 1, 3), (2, 2, 3)],
        ):
            fast = Semigroup(2, generators=gens)
            slow = Semigroup(2, generators=gens)
            counts = list(fast.counts(12).values())
            sets = [slow.level(n) for n in range(1, 13)]
            assert counts == [len(s) for s in sets], gens

    def test_levels_and_counts_match_the_multiset_oracle(self):
        # generator levels up to 4, so the DP's window is often wider than one level
        rng = random.Random(84)
        for _ in range(40):
            d = rng.randint(1, 2)
            gens = [
                tuple(rng.randint(0, 3) for _ in range(d)) + (rng.randint(1, 4),)
                for _ in range(rng.randint(1, 4))
            ]
            sg = Semigroup(d, generators=gens)
            counts = sg.counts(8)
            for n in range(1, 9):
                expected = brute_level(gens, d, n)
                assert sg.level(n) == expected, (gens, n)
                assert counts[n] == len(expected), (gens, n)

    def test_levels_are_not_kept(self):
        sg = Semigroup(2, generators=[(0, 0, 1), (1, 0, 1), (0, 1, 1)])
        before = dict(vars(sg))
        assert len(sg.level(5)) == 21
        assert sg.counts(5)[5] == 21
        assert vars(sg) == before

    def test_a_count_does_not_depend_on_an_earlier_level(self):
        # the raster for level 3 needs 3 * 2^40 + 1 cells; level sets hold 4 points
        fresh = Semigroup(1, generators=[(0, 1), (2**40, 1)])
        with pytest.raises(SizeLimitError, match="cells"):
            fresh.counts(3)
        sg = Semigroup(1, generators=[(0, 1), (2**40, 1)])
        assert len(sg.level(3)) == 4
        with pytest.raises(SizeLimitError, match="cells"):
            sg.counts(3)

    def test_level_contents_small(self):
        sg = Semigroup(1, generators=[(0, 1), (2, 1)])
        assert sg.level(1) == {(0,), (2,)}
        assert sg.level(2) == {(0,), (2,), (4,)}
        assert sg.counts(5)[5] == 6  # even numbers 0..10

    def test_unreachable_levels_are_empty(self):
        sg = Semigroup(1, generators=[(1, 2)])
        assert sg.counts(2) == {1: 0, 2: 1}
        assert sg.level(3) == frozenset()

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            SIMPLEX.counts(-1)
        with pytest.raises(ValueError):
            SIMPLEX.level(-2)

    @pytest.mark.parametrize("n", [2.5, 2.0, True, "2"])
    def test_level_must_be_an_integer(self, n):
        # int() would read 2.5 as level 2 and True as level 1
        with pytest.raises(TypeError, match="n_max must be an integer"):
            SIMPLEX.counts(n)
        with pytest.raises(TypeError, match="level must be an integer"):
            SIMPLEX.level(n)
        assert SIMPLEX.counts(np.int64(2))[2] == 6

    def test_grid_cap_is_an_error_not_a_hang(self):
        sg = Semigroup(3, generators=[(40, 40, 40, 1)])
        with pytest.raises(SizeLimitError, match="cells"):
            sg.counts(500)


def _run_raster_cases(seed: int, count: int):
    """Seeded generator sets in d = 1-4, cycling through four shapes.

    random: last coordinates with gaps and repeats, levels 1-3; sparse:
    last coordinates two apart, so every run is a single point; long: one
    run of 8-17 consecutive last coordinates; mixed: the same run of last
    coordinates at several levels and heads.
    """
    rng = random.Random(seed)
    for i in range(count):
        d, shape = 1 + i // 4 % 4, i % 4

        def head():
            return tuple(rng.randint(0, 3) for _ in range(d - 1))

        if shape == 0:
            gens = [
                head() + (rng.randint(0, 6), rng.randint(1, 3))
                for _ in range(rng.randint(1, 8))
            ]
        elif shape == 1:
            gens = [
                head() + (2 * rng.randint(0, 4), rng.randint(1, 3))
                for _ in range(rng.randint(1, 6))
            ]
        elif shape == 2:
            start, length = rng.randint(0, 3), rng.randint(8, 17)
            h, lvl = head(), rng.randint(1, 2)
            gens = [h + (start + t, lvl) for t in range(length)]
            gens += [head() + (rng.randint(0, 5), rng.randint(1, 3)) for _ in range(2)]
        else:
            lasts = range(rng.randint(0, 2), rng.randint(3, 5))
            gens = [
                h + (t, lvl)
                for h, lvl in sorted({(head(), rng.randint(1, 3)) for _ in range(3)})
                for t in lasts
            ]
        yield d, gens


class TestRunRaster:
    """counts(n) moves a level mask by runs of consecutive last coordinates."""

    def test_counts_match_the_multiset_oracle_and_level(self):
        cases = list(_run_raster_cases(1717, 320))
        assert {d for d, _ in cases} == {1, 2, 3, 4}
        assert sum(max(g[-1] for g in gens) > 1 for _, gens in cases) > 100
        for d, gens in cases:
            sg = Semigroup(d, generators=gens)
            n_max = 4 if d < 3 else 3
            counts = sg.counts(n_max)
            for n in range(1, n_max + 1):
                expected = brute_level(gens, d, n)
                assert sg.level(n) == expected, (gens, n)
                assert counts[n] == len(expected), (gens, n)

    @pytest.mark.parametrize("length", [1, 2, 3, 7, 8, 9, 16, 17, 31])
    def test_one_run_is_a_simplex_in_one_variable(self, length):
        # sums of n points of {0, .., L-1} fill 0..n(L-1): n(L-1) + 1 points
        sg = Semigroup(1, generators=[(t, 1) for t in range(length)])
        assert sg.counts(30) == {n: n * (length - 1) + 1 for n in range(1, 31)}

    def test_several_run_lengths_share_one_chain_per_level(self):
        # columns of 5, 5, 4, 2 and 1 points give runs of lengths 5, 4, 2
        # and 1 in level 1; level 2 adds runs of 3 and 1
        cols = [5, 5, 4, 2, 1]
        gens = [(x, y, 1) for x, c in enumerate(cols) for y in range(c)]
        gens += [(0, 7, 2), (0, 8, 2), (0, 9, 2), (6, 0, 2)]
        sg = Semigroup(2, generators=gens)
        counts = sg.counts(6)
        assert counts == {n: len(sg.level(n)) for n in range(1, 7)}
        assert counts[1] == sum(cols)

    def test_box_moves_by_one_run_per_head(self):
        # the box [0,1] x [0,2] x [0,3] of level-1 points is 6 runs of length 4
        box = [(a, b, c, 1) for a in range(2) for b in range(3) for c in range(4)]
        counts = Semigroup(3, generators=box).counts(20)
        assert counts == {n: (n + 1) * (2 * n + 1) * (3 * n + 1) for n in range(1, 21)}


class TestLevelsAndRules:
    def test_from_levels(self):
        sg = Semigroup(2, levels={1: [(0, 0), (1, 1)], 2: [(0, 0)]})
        assert sg.counts(5) == {1: 2, 2: 1}
        assert sg.level(2) == {(0, 0)}
        assert sg.generators is None

    def test_unmaterialized_level_raises(self):
        sg = Semigroup(2, levels={1: [(0, 0)]})
        assert sg.counts(3) == {1: 1}
        with pytest.raises(InsufficientDataError):
            sg.level(3)

    def test_known_points_for_leveled(self):
        sg = Semigroup(1, levels={1: [(0,), (2,)], 2: [(1,)]})
        assert sg.known_points() == [(0, 1), (2, 1), (1, 2)]


class TestKFoldSums:
    def test_simplex_formula(self):
        # k-fold sums of the level-p simplex slice give the kp-simplex
        for p in (1, 2, 3):
            for k in (1, 2, 5):
                assert k_fold_sum_count(SIMPLEX, p, k) == (k * p + 1) * (k * p + 2) // 2
        assert k_fold_sum_count(SIMPLEX, 10, 30) == math.comb(302, 2) == 45_451

    def test_matches_brute_force(self):
        sg = Semigroup(2, generators=[(0, 2, 1), (1, 0, 1), (3, 1, 2)])
        for p, k in ((1, 2), (1, 3), (2, 2), (3, 2)):
            assert k_fold_sum_count(sg, p, k) == len(brute_k_fold_sums(sg.level(p), k))

    def test_matches_brute_force_on_random_semigroups(self):
        rng = random.Random(83)
        for _ in range(60):
            d = rng.randint(1, 3)
            gens = [
                tuple(rng.randint(0, 3) for _ in range(d)) + (rng.randint(1, 3),)
                for _ in range(rng.randint(1, 4))
            ]
            sg = Semigroup(d, generators=gens)
            p, k = rng.randint(1, 3), rng.randint(1, 6)
            expected = len(brute_k_fold_sums(sg.level(p), k))
            assert k_fold_sum_count(sg, p, k) == expected, (gens, p, k)

    def test_matches_brute_force_on_moved_and_stretched_levels(self):
        # a level translated far off the origin and stretched per axis: each
        # axis must go back onto the points' own lattice before the raster
        rng = random.Random(89)
        for _ in range(240):
            d = rng.randint(1, 3)
            shape = [
                tuple(rng.randint(0, 4) for _ in range(d)) for _ in range(rng.randint(1, 5))
            ]
            offset = [rng.choice((0, 7, 2**40 + rng.randint(0, 99))) for _ in range(d)]
            stretch = [rng.choice((1, 2, 3, 10**6)) for _ in range(d)]
            level = {tuple(o + s * x for x, o, s in zip(v, offset, stretch)) for v in shape}
            sg = Semigroup(d, levels={1: level})
            k = rng.randint(1, 5)
            expected = len(brute_k_fold_sums(level, k))
            assert k_fold_sum_count(sg, 1, k) == expected, (level, k)

    def test_level_sparse_on_its_own_lattice_is_refused_as_counts_refuses(self):
        # the gcd of every axis is 1, so the raster for k = 15 keeps 15001^2 cells
        gens = [(0, 0, 1), (1000, 1, 1), (1, 1000, 1)]
        with pytest.raises(SizeLimitError, match="needs 225030001 cells"):
            k_fold_sum_count(Semigroup(2, generators=gens), 1, 15)
        with pytest.raises(SizeLimitError, match="needs 225030001 cells"):
            Semigroup(2, generators=gens).counts(15)

    def test_keys_near_the_int64_limit_stay_exact(self):
        sg = Semigroup(1, generators=[(0, 1), (2**60, 1)])
        assert k_fold_sum_count(sg, 1, 3) == 4
        # radix product 3*2^61 + 1: past 2^62, every key still below 2^63
        sg = Semigroup(1, generators=[(0, 1), (2**61, 1)])
        assert k_fold_sum_count(sg, 1, 3) == 4

    def test_wide_keys_fall_back_to_rows(self):
        # radix product (2^22 + 1)^3 is past 2^63; every coordinate fits int64
        sg = Semigroup(3, generators=[(0, 0, 0, 1), (2**21, 2**21, 2**21, 1)])
        assert k_fold_sum_count(sg, 1, 2) == 3
        assert k_fold_sum_count(sg, 1, 5) == 6
        # wrapped int64 keys of the first two points would coincide mod 2^64
        gens = [(2**20, 0, 2**20, 1), (0, 2**21, 0, 1), (2**21, 2**21, 2**21, 1)]
        assert k_fold_sum_count(Semigroup(3, generators=gens), 1, 2) == 6

    def test_one_fold_forms_no_sum(self):
        sg = Semigroup(1, generators=[(0, 1), (2**70, 1)])
        assert k_fold_sum_count(sg, 1, 1) == 2

    def test_keys_past_the_int64_limit_count_exactly(self):
        # 4 * 2^62 is past int64; on the level's own lattice the points are 0, 1
        sg = Semigroup(1, generators=[(0, 1), (2**62, 1)])
        assert k_fold_sum_count(sg, 1, 4) == 5

    def test_empty_level(self):
        sg = Semigroup(1, generators=[(1, 2)])
        assert k_fold_sum_count(sg, 1, 3) == 0

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            k_fold_sum_count(SIMPLEX, 0, 1)
        with pytest.raises(ValueError):
            k_fold_sum_count(SIMPLEX, 1, 0)


class TestConeConditions:
    def test_simplex_satisfies_both(self):
        assert check_cone_conditions(SIMPLEX, 1) == {"cone2": True, "cone3": True}

    def test_sublattice_fails_the_group_condition(self):
        sg = Semigroup(1, generators=[(0, 2), (1, 2)])
        assert check_cone_conditions(sg, 1) == {"cone2": True, "cone3": False}

    def test_steep_point_fails_the_slope_condition(self):
        sg = Semigroup(1, generators=[(2, 1)])
        assert check_cone_conditions(sg, 1) == {"cone2": False, "cone3": False}
        assert check_cone_conditions(sg, 2)["cone2"] is True

    def test_no_points_is_an_error(self):
        sg = Semigroup(1, levels={0: [(0,)]})
        with pytest.raises(InsufficientDataError):
            check_cone_conditions(sg, 1)

    def test_leveled_semigroups_use_their_points(self):
        sg = Semigroup(1, levels={1: [(0,), (1,)]})
        assert check_cone_conditions(sg, 1) == {"cone2": True, "cone3": True}

    def test_beta_validated(self):
        with pytest.raises(ValueError):
            check_cone_conditions(SIMPLEX, 0)

    def test_group_check_matches_normal_form_oracle(self):
        import random

        rng = random.Random(61)
        for _ in range(60):
            d = rng.randint(1, 3)
            pts = [
                tuple(rng.randint(0, 4) for _ in range(d)) + (rng.randint(1, 3),)
                for _ in range(rng.randint(1, 6))
            ]
            sg = Semigroup(d, generators=pts)
            got = check_cone_conditions(sg, 10)["cone3"]
            assert got == lattice_contains_all_units(sg.known_points())

    def test_elimination_matches_normal_form_oracle_on_wide_sets(self):
        # signed entries up to 10^6 in widths up to 6, with repeated and zero rows
        rng = random.Random(62)
        for _ in range(300):
            width = rng.randint(1, 6)
            big = rng.choice([1, 2, 5, 1000, 10**6])
            pts = [
                tuple(rng.randint(-big, big) for _ in range(width))
                for _ in range(rng.randint(1, 8))
            ]
            if rng.random() < 0.3:
                pts.append(pts[0])
            if rng.random() < 0.3:
                pts.append((0,) * width)
            rng.shuffle(pts)
            assert _lattice_spans_everything(pts, width) == lattice_contains_all_units(pts), pts

    def test_elimination_on_scrambled_unit_bases(self):
        # unimodular row moves keep the span Z^width; doubling a column loses it
        rng = random.Random(63)
        for _ in range(60):
            width = rng.randint(2, 6)
            rows = [[int(i == j) for j in range(width)] for i in range(width)]
            for _ in range(8):
                i, j = rng.sample(range(width), 2)
                q = rng.randint(-30, 30)
                rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
            rows += [list(rows[0]), [0] * width]
            rng.shuffle(rows)
            assert _lattice_spans_everything(rows, width)
            assert lattice_contains_all_units(rows)
            col = rng.randrange(width)
            doubled = [[2 * a if k == col else a for k, a in enumerate(r)] for r in rows]
            assert not _lattice_spans_everything(doubled, width)
            assert not lattice_contains_all_units(doubled)

    @pytest.mark.parametrize("width", range(1, 7))
    def test_no_points_span_nothing(self, width):
        assert not _lattice_spans_everything([], width)
        assert not lattice_contains_all_units([])


class TestSerialization:
    def test_both_sources_rejected(self):
        # the generators used to win and the levels were silently ignored
        data = {"dim": 1, "levels": {"1": [[1]]}, "generators": [[1, 1]]}
        with pytest.raises(ValueError, match="not both"):
            semigroup_from_json_dict(data)

    @pytest.mark.parametrize("data", [{"dim": 1, "generators": None}, {"dim": 1, "levels": {}}])
    def test_missing_source_names_the_json_keys(self, data):
        with pytest.raises(ValueError, match="JSON needs 'generators' or 'levels'"):
            semigroup_from_json_dict(data)

    @pytest.mark.parametrize(
        "data",
        [
            {"dim": 1, "generators": [[0.5, 1]]},
            {"dim": 1, "generators": [[1, 1.0]]},
            {"dim": 1, "generators": [[True, 1]]},
            {"dim": 1.5, "generators": [[0, 1]]},
            {"dim": "1", "generators": [[0, 1]]},
            {"dim": 1, "levels": {"1": [[0.5]]}},
        ],
    )
    def test_non_integer_payloads_rejected(self, data):
        # int() would truncate 0.5 to 0 and count a different semigroup
        with pytest.raises(TypeError, match="must be an integer"):
            semigroup_from_json_dict(data)

    def test_numpy_integers_accepted(self):
        sg = Semigroup(np.int64(1), generators=[np.array([0, 1]), (np.int32(1), np.int64(1))])
        assert sg.generators == ((0, 1), (1, 1))
        assert sg.counts(3)[3] == 4

    @pytest.mark.parametrize("key", ["1_0", " 1", "1 ", "+1", "-1", "\u0661", "0x1", ""])
    def test_level_keys_must_be_plain_decimal(self, key):
        # int() would read "1_0" as level 10 and "\u0661" as level 1
        with pytest.raises(ValueError, match="not a plain decimal number"):
            semigroup_from_json_dict({"dim": 1, "levels": {key: [[0]]}})

    def test_level_keys_naming_one_level_twice_rejected(self):
        with pytest.raises(ValueError, match="given twice"):
            semigroup_from_json_dict({"dim": 1, "levels": {"1": [[0]], "01": [[1]]}})
        sg = semigroup_from_json_dict({"dim": 1, "levels": {"10": [[0]], "2": [[1]]}})
        assert sg.counts(5) == {2: 1}
        assert sg.counts(10) == {2: 1, 10: 1}

    def test_bad_payloads(self):
        with pytest.raises(ValueError):
            semigroup_from_json_dict({"generators": [[0, 1]]})
        with pytest.raises(ValueError):
            semigroup_from_json_dict({"dim": 2})
