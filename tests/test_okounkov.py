"""Truncated value-semigroup counts, hull volumes, and the volume route to epsilon."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from epsmult import (
    DimensionMismatchError,
    GradedFamilySpec,
    InconclusiveError,
    MonomialIdeal,
    Semigroup,
    ZeroIdealError,
    beta_stability,
    colength,
    count_staircase_in_simplex,
    corpus,
    difference_max_degree,
    epsilon_sequence,
    epsilon_via_volumes,
    hull_volume,
    maximal_ideal,
    unit_ideal,
)

from oracle_utils import (
    box_points,
    brute_k_fold_sums,
    enumerate_staircase_in_simplex,
    member,
    slicing_volume,
)

X2_XY = MonomialIdeal(2, [(2, 0), (1, 1)])
PLANE_LINE = MonomialIdeal(2, [(1, 0)])


def simplex_points(gens, dim, cap):
    """Brute staircase-in-simplex reference: box scan filtered by degree."""
    bounds = (cap + 1,) * dim
    return {
        e for e in box_points(bounds) if sum(e) <= cap and member(gens, e)
    }


class TestSimplexCounts:
    def test_one_variable_closed_form(self):
        cubic = MonomialIdeal(1, [(3,)])
        assert count_staircase_in_simplex(cubic, 10) == 8
        assert count_staircase_in_simplex(cubic, 3) == 1
        assert count_staircase_in_simplex(cubic, 2) == 0

    def test_negative_cap_is_empty(self):
        assert count_staircase_in_simplex(X2_XY, -1) == 0
        assert enumerate_staircase_in_simplex(X2_XY, -3) == frozenset()

    def test_zero_ideal_has_no_points(self):
        zero = MonomialIdeal(2, [])
        assert count_staircase_in_simplex(zero, 10) == 0
        assert enumerate_staircase_in_simplex(zero, 10) == frozenset()

    def test_unit_ideal_fills_the_simplex(self):
        assert count_staircase_in_simplex(unit_ideal(2), 10) == 66
        assert count_staircase_in_simplex(unit_ideal(3), 9) == math.comb(12, 3)
        # far past enumeration: about 4 * 10^14 points
        assert count_staircase_in_simplex(unit_ideal(4), 10**4) == math.comb(10**4 + 4, 4)

    def test_principal_ideal_in_the_plane(self):
        # e_1 >= 1 and e_1 + e_2 <= cap leaves a triangle of cap*(cap+1)/2 points
        assert count_staircase_in_simplex(PLANE_LINE, 10) == 55

    def test_worked_two_generator_count(self):
        gens = X2_XY.generators
        expected = simplex_points(gens, 2, 6)
        assert count_staircase_in_simplex(X2_XY, 6) == len(expected)
        assert enumerate_staircase_in_simplex(X2_XY, 6) == expected

    @pytest.mark.parametrize("cap", [0, 1, 2, 5, 9])
    def test_count_matches_enumeration_on_random_ideals(self, cap):
        for ideal in corpus(71, 20) + corpus(71, 20, max_dim=4):
            got = enumerate_staircase_in_simplex(ideal, cap)
            assert count_staircase_in_simplex(ideal, cap) == len(got)
            assert got == simplex_points(ideal.generators, ideal.dim, cap)

    def test_count_matches_enumeration_around_generator_degrees(self):
        # caps below, at and above each generator's degree, where cells turn
        # from empty to partly filled; unbounded cells are in every grid
        ideals = corpus(72, 60, max_dim=4, max_exp=4)
        assert {ideal.dim for ideal in ideals} == {1, 2, 3, 4}
        for ideal in ideals:
            degrees = {sum(g) for g in ideal.generators}
            caps = {-5, -1} | {c + e for c in degrees for e in (-1, 0, 1)}
            for cap in sorted(caps | {max(degrees) + 3}):
                want = len(enumerate_staircase_in_simplex(ideal, cap))
                assert count_staircase_in_simplex(ideal, cap) == want, (ideal, cap)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_principal_count_past_int64(self, d):
        # (a) with |a| = 2^61 and cap 2^62 + 5: the points of the simplex
        # |e| <= cap with e >= a, C(cap - |a| + d, d) of them, past 2^63
        a = (1 << 60, 1 << 60) if d == 2 else (1 << 60, 1 << 59, 1 << 59) + (0,) * (d - 3)
        cap = (1 << 62) + 5
        want = math.comb(cap - sum(a) + d, d)
        assert want > 1 << 63
        assert count_staircase_in_simplex(MonomialIdeal(d, [a]), cap) == want

    def test_bounded_cell_count_past_int64(self):
        # (x^p, y^q): a cell of width q at height p, and one unbounded cell
        p, q, cap = (1 << 60) + 3, (1 << 60) - 7, (1 << 62) + 1
        ideal = MonomialIdeal(2, [(p, 0), (0, q)])
        want = math.comb(cap - p + 2, 2) + math.comb(cap - q + 2, 2) - math.comb(cap - p - q + 2, 2)
        assert count_staircase_in_simplex(ideal, cap) == want

    def test_maximal_ideal_in_many_variables_stays_small(self):
        # (x_1, .., x_d) holds every point but 0: C(4 + d, d) - 1 in the
        # simplex.  Its grid has 2^(d-1) cells and 2^(d-1) sets of axes, but
        # at cap 4 a cell keeps a set only while its budget lasts, so the
        # count allocates about what the grid's corners and widths take.
        # d = 12 goes first: a count that formed every set for every cell
        # would fail there (2^22 slots) before asking 2^30 of d = 16.
        for d in (12, 16):
            ideal = maximal_ideal(d)
            ideal._grid()
            tracemalloc.start()
            try:
                assert count_staircase_in_simplex(ideal, 4) == math.comb(4 + d, d) - 1
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            cells = 2 ** (d - 1)
            assert peak < 4 * (d - 1) * cells * 8 + (4 << 20), d

    def test_enumerated_points_satisfy_both_constraints(self):
        pts = enumerate_staircase_in_simplex(X2_XY, 7)
        assert all(sum(p) <= 7 for p in pts)
        assert all(member(X2_XY.generators, p) for p in pts)

    def test_three_variable_recursion_against_brute_force(self):
        ideal = MonomialIdeal(3, [(2, 0, 1), (0, 3, 0), (1, 1, 2)])
        for cap in (0, 3, 8):
            expected = simplex_points(ideal.generators, 3, cap)
            assert count_staircase_in_simplex(ideal, cap) == len(expected)
            assert enumerate_staircase_in_simplex(ideal, cap) == expected


def gamma_level(fam, beta, i):
    """Level i of the beta-truncated value semigroup of fam, listed by the oracle.

    The volume route keeps only the level sizes; the listed set must have
    the size count_staircase_in_simplex gives.
    """
    points = enumerate_staircase_in_simplex(fam(i), beta * i)
    assert count_staircase_in_simplex(fam(i), beta * i) == len(points)
    return points


class TestGammaBeta:
    def test_worked_level_one(self):
        fam = GradedFamilySpec.powers(PLANE_LINE)
        assert gamma_level(fam, 2, 1) == frozenset({(1, 0), (1, 1), (2, 0)})

    def test_counts_follow_the_closed_form(self):
        # level i of the beta=2 truncation of powers of (x) is a triangle
        fam = GradedFamilySpec.powers(PLANE_LINE)
        for i in range(1, 7):
            assert count_staircase_in_simplex(fam(i), 2 * i) == (i + 1) * (i + 2) // 2

    def test_counts_need_no_materialized_level(self):
        # level 3 holds about 4.5 * 10^12 points: only a count can reach it
        beta = 10**6
        fam = GradedFamilySpec.powers(PLANE_LINE)
        assert count_staircase_in_simplex(fam(3), 3 * beta) == math.comb(3 * (beta - 1) + 2, 2)

    def test_saturated_family_levels(self):
        sat = GradedFamilySpec.saturated_powers(X2_XY)
        # saturation of (x^2, xy)^i is (x^i), so the level sets match (x)'s powers
        ref = GradedFamilySpec.powers(PLANE_LINE)
        for i in (1, 2, 4):
            assert gamma_level(sat, 2, i) == gamma_level(ref, 2, i)

    def test_beta_must_be_positive(self):
        # the volume route is the one caller that takes a slope
        with pytest.raises(ValueError, match="beta"):
            epsilon_via_volumes(X2_XY, beta=0, n_probe=2)

    def test_zero_family_is_rejected(self):
        with pytest.raises(ZeroIdealError, match="neither zero nor the ring"):
            epsilon_via_volumes(MonomialIdeal(2, []), beta=2, n_probe=1)


class TestGammaInclusionChain:
    """k-fold sums of level m land inside the rescaled truncation at level k,
    which in turn sits inside level m*k of the original truncation."""

    IDEALS = [
        X2_XY,
        MonomialIdeal(2, [(3, 0), (1, 2)]),
        MonomialIdeal(3, [(2, 0, 1), (0, 3, 0), (1, 1, 2)]),
    ]

    @pytest.mark.parametrize("beta", [1, 2])
    @pytest.mark.parametrize("m,k", [(1, 2), (2, 2), (2, 3), (3, 2)])
    def test_chain_for_power_families(self, beta, m, k):
        for ideal in self.IDEALS:
            fam = GradedFamilySpec.powers(ideal)
            rescaled = GradedFamilySpec.powers(ideal.power(m))
            mid = gamma_level(rescaled, beta * m, k)
            assert brute_k_fold_sums(gamma_level(fam, beta, m), k) <= mid
            assert mid <= gamma_level(fam, beta, m * k)

    @pytest.mark.parametrize("m,k", [(2, 2), (3, 2)])
    def test_chain_for_saturated_families(self, m, k):
        for ideal in self.IDEALS:
            fam = GradedFamilySpec.saturated_powers(ideal)
            rescaled = GradedFamilySpec.saturated_powers(ideal.power(m))
            mid = gamma_level(rescaled, 2 * m, k)
            assert brute_k_fold_sums(gamma_level(fam, 2, m), k) <= mid
            assert mid <= gamma_level(fam, 2, m * k)


def _seeded_points(rng, dim):
    """1 to 12 integer points with repeats; about 10% of the sets lie on a
    line and about 30% on a hyperplane."""
    hi = rng.choice([1, 2, 3, 10, 1000])
    pts = [tuple(rng.randint(0, hi) for _ in range(dim)) for _ in range(rng.randint(1, 12))]
    roll = rng.random()
    if roll < 0.1:
        step = [rng.randint(-3, 3) for _ in range(dim)]
        ts = [rng.randint(-5, 5) for _ in pts]
        pts = [tuple(x + t * u for x, u in zip(pts[0], step)) for t in ts]
    elif roll < 0.4 and dim > 1:
        coeffs = [rng.randint(-2, 2) for _ in range(dim - 1)]
        pts = [p[:-1] + (sum(c * x for c, x in zip(coeffs, p)) + 5,) for p in pts]
    return pts + rng.sample(pts, rng.randint(0, len(pts)))


class TestHullVolume:
    def test_one_dimensional_span(self):
        assert hull_volume([(3,), (7,), (5,)], 1) == 4
        assert hull_volume([(2,)], 1) == 0

    def test_empty_input(self):
        assert hull_volume([], 2) == 0

    def test_unit_triangle(self):
        assert hull_volume([(0, 0), (1, 0), (0, 1)], 2) == Fraction(1, 2)

    def test_square_with_interior_and_duplicate_points(self):
        pts = [(0, 0), (1, 0), (0, 1), (1, 1), (1, 1), (0, 0)]
        assert hull_volume(pts, 2) == 1

    def test_collinear_points_are_flat(self):
        assert hull_volume([(0, 0), (1, 1), (2, 2), (5, 5)], 2) == 0

    def test_irregular_pentagon(self):
        pts = [(0, 0), (4, 0), (4, 3), (0, 3), (2, 5)]
        assert hull_volume(pts, 2) == 16
        # interior points must not change the hull
        assert hull_volume(pts + [(1, 1), (2, 2)], 2) == 16

    def test_unit_tetrahedron(self):
        pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert hull_volume(pts, 3) == Fraction(1, 6)

    def test_unit_cube(self):
        cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        assert hull_volume(cube, 3) == 1

    def test_square_pyramid(self):
        pts = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 3)]
        assert hull_volume(pts, 3) == 4

    def test_coplanar_points_have_no_volume(self):
        pts = [(0, 0, 1), (3, 0, 1), (0, 3, 1), (3, 3, 1)]
        assert hull_volume(pts, 3) == 0

    def test_translation_invariance(self):
        pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        moved = [(x + 5, y + 7, z + 2) for x, y, z in pts]
        assert hull_volume(moved, 3) == hull_volume(pts, 3)

    def test_scaling_law(self):
        tri = [(0, 0), (1, 0), (0, 1)]
        big = [(3 * x, 3 * y) for x, y in tri]
        assert hull_volume(big, 2) == 9 * hull_volume(tri, 2)
        tet = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]
        assert hull_volume(tet, 3) == Fraction(8, 6)

    def test_results_are_exact_rationals(self):
        assert isinstance(hull_volume([(0, 0), (1, 0), (0, 1)], 2), Fraction)
        assert isinstance(hull_volume([(0, 0, 0), (1, 1, 1)], 3), Fraction)

    def test_dimension_above_four_is_unsupported(self):
        assert hull_volume([(0, 0, 0, 0, 0), (1, 0, 0, 0, 0)], 5) is None

    def test_empty_input_in_dimension_five(self):
        assert hull_volume([], 5) == 0

    def test_four_dimensional_closed_forms(self):
        box = list(itertools.product((0, 1), (0, 2), (0, 3), (0, 1)))
        assert hull_volume(box, 4) == 6
        units = [tuple(int(i == j) for j in range(4)) for i in range(4)]
        assert hull_volume([(0, 0, 0, 0)] + units, 4) == Fraction(1, 24)
        cross = [tuple(3 + s * u for u in e) for e in units for s in (1, -1)]
        assert hull_volume(cross, 4) == Fraction(2, 3)
        # a lower-dimensional set has no volume
        assert hull_volume([(0, 0, 0, 0)] + units[:3], 4) == 0

    def test_four_dimensional_translation_and_scaling(self):
        pts = [(0, 0, 0, 0), (3, 1, 0, 2), (1, 4, 1, 0), (0, 2, 3, 1), (2, 0, 1, 3), (1, 1, 1, 1)]
        vol = hull_volume(pts, 4)
        assert vol > 0
        moved = [(a + 5, b - 7, c + 2, d + 11) for a, b, c, d in pts]
        assert hull_volume(moved, 4) == vol
        assert hull_volume([tuple(2 * x for x in p) for p in pts], 4) == 16 * vol

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_agrees_with_slicing(self, dim):
        # seeded sets with collinear, flat and repeated points
        for seed in range(100):
            pts = _seeded_points(random.Random(1000 * dim + seed), dim)
            assert hull_volume(pts, dim) == slicing_volume(pts, dim), pts

    def test_agrees_with_slicing_in_four_dimensions(self):
        # 6 to 8 points in [0, 4]^4: few slabs to slice, and at these seeds
        # every set spans a 4-d hull
        for seed in range(8):
            rng = random.Random(4000 + seed)
            pts = [tuple(rng.randint(0, 4) for _ in range(4)) for _ in range(rng.randint(6, 8))]
            vol = hull_volume(pts, 4)
            assert vol > 0
            assert vol == slicing_volume(pts, 4), pts

    @pytest.mark.parametrize(
        "pts", [[(0.5, 0), (1, 0), (0, 1)], [(True, 0), (1, 0), (0, 1)], [(0, 0), (1, 0), (0, 1.0)]]
    )
    def test_coordinates_must_be_integers(self, pts):
        with pytest.raises(TypeError, match="hull coordinate must be an integer"):
            hull_volume(pts, 2)

    def test_point_dimension_must_match(self):
        with pytest.raises(DimensionMismatchError):
            hull_volume([(0, 0), (1, 0, 0)], 2)


class TestExactVolume:
    """The exact limit-body volume against the count-based estimate."""

    def test_simplex_estimate_and_exact(self):
        sg = Semigroup(2, generators=[(0, 0, 1), (1, 0, 1), (0, 1, 1)])
        assert sg.exact_volume() == Fraction(1, 2)
        count = sg.counts(100)[100]
        assert count == 5151
        assert Fraction(count, 100**2) == Fraction(5151, 10000)

    def test_unit_square_generators(self):
        sg = Semigroup(2, generators=[(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
        assert sg.exact_volume() == 1
        assert Fraction(sg.counts(50)[50], 50**2) == Fraction(51 * 51, 50 * 50)

    def test_higher_level_generator_blocks_the_exact_value(self):
        sg = Semigroup(1, generators=[(1, 1), (3, 2)])
        assert sg.exact_volume() is None
        # level 30 holds 30 + j for j = 0..15 copies of (3, 2)
        assert sg.counts(30)[30] == 16

    def test_leveled_semigroup_has_no_exact_value(self):
        fam = GradedFamilySpec.saturated_powers(X2_XY)
        levels = {i: gamma_level(fam, 2, i) for i in (1, 10)}
        sg = Semigroup(2, levels=levels)
        assert sg.exact_volume() is None
        assert sg.counts(10)[10] == 66


class TestEpsilonViaVolumes:
    def test_worked_example_closed_form(self):
        # counts: (n+1)(n+2)/2 saturated against n+1 plain, so the value is 1 + 1/n
        for n in (4, 10, 100):
            res = epsilon_via_volumes(X2_XY, beta=2, n_probe=n)
            assert res.value == Fraction(n + 1, n)
        res = epsilon_via_volumes(X2_XY, beta=2, n_probe=10)
        assert res.count_saturated == 66
        assert res.count_powers == 11

    def test_matches_the_length_based_sequence(self):
        # beta=2 already captures the whole staircase difference here, so the
        # volume route and the colength route agree at every probe level
        seq = epsilon_sequence(X2_XY, 8)
        for n in range(1, 9):
            res = epsilon_via_volumes(X2_XY, beta=2, n_probe=n)
            assert res.value == seq.sequence[n - 1]

    def test_saturated_ideal_gives_zero(self):
        prime = MonomialIdeal(3, [(1, 0, 0), (0, 1, 0)])
        for beta in (1, 2):
            assert epsilon_via_volumes(prime, beta, 5).value == 0

    def test_finite_colength_ideal_reduces_to_quotient_counting(self):
        # once beta*n clears the staircase difference, the truncated count
        # difference is exactly the colength of I^n in its saturation
        ideal = MonomialIdeal(2, [(2, 0), (0, 3)])
        n = 4
        power = ideal.power(n)
        sat = power.saturate()
        deepest = difference_max_degree(power, sat)
        beta = deepest // n + 1
        res = epsilon_via_volumes(ideal, beta, n)
        assert res.value == Fraction(2 * colength(power, sat), n**2)

    def test_cross_checks_against_colength_on_random_ideals(self):
        for ideal in corpus(72, 12):
            n = 3
            power = ideal.power(n)
            sat = power.saturate()
            if sat == power:
                assert epsilon_via_volumes(ideal, 2, n).value == 0
                continue
            deepest = difference_max_degree(power, sat)
            beta = deepest // n + 1
            expected = Fraction(
                math.factorial(ideal.dim) * colength(power, sat), n**ideal.dim
            )
            assert epsilon_via_volumes(ideal, beta, n).value == expected

    def test_memoized_chain_gives_the_same_value(self):
        # later calls on one ideal read the chain of powers the first built
        ideal = MonomialIdeal(2, [(2, 0), (1, 1)])
        for beta in (1, 2, 4):
            for n in (17, 5, 1):
                fresh = epsilon_via_volumes(MonomialIdeal(2, [(2, 0), (1, 1)]), beta, n)
                for _ in range(2):
                    assert epsilon_via_volumes(ideal, beta, n) == fresh

    def test_zero_and_unit_ideals_are_rejected(self):
        with pytest.raises(ZeroIdealError, match="neither zero nor the ring"):
            epsilon_via_volumes(MonomialIdeal(2, []), 2, 5)
        with pytest.raises(ZeroIdealError):
            epsilon_via_volumes(unit_ideal(2), 2, 5)

    def test_probe_level_must_be_positive(self):
        with pytest.raises(ValueError, match="n_probe"):
            epsilon_via_volumes(X2_XY, 2, 0)


class TestBetaStability:
    def test_stable_from_the_start(self):
        res = beta_stability(X2_XY, beta0=2, n_probe=100, tolerance=Fraction(0))
        assert res.stabilized_beta == 4
        assert res.value == Fraction(101, 100)
        assert res.history == ((2, Fraction(101, 100)), (4, Fraction(101, 100)))

    def test_tight_truncation_needs_one_doubling(self):
        # beta=1 at n=4 sees a single difference point; beta=2 sees all ten
        res = beta_stability(
            X2_XY, beta0=1, n_probe=4, tolerance=Fraction(0), max_doublings=3
        )
        assert res.history == (
            (1, Fraction(1, 8)),
            (2, Fraction(5, 4)),
            (4, Fraction(5, 4)),
        )
        assert res.stabilized_beta == 4
        assert res.value == Fraction(5, 4)

    def test_runs_out_of_doublings(self):
        with pytest.raises(InconclusiveError, match="within 1 doublings of beta, up to beta = 2"):
            beta_stability(
                X2_XY, beta0=1, n_probe=4, tolerance=Fraction(0), max_doublings=1
            )

    def test_loose_tolerance_accepts_the_first_jump(self):
        res = beta_stability(X2_XY, beta0=1, n_probe=4, tolerance=Fraction(2))
        assert res.stabilized_beta == 2
        assert res.value == Fraction(5, 4)

    def test_one_chain_for_every_beta(self, products):
        ideal = MonomialIdeal(2, [(2, 0), (1, 1)])
        n_probe = 30
        res = beta_stability(
            ideal, beta0=1, n_probe=n_probe, tolerance=Fraction(0), max_doublings=4
        )
        assert len(res.history) >= 3
        assert len(products) == n_probe - 1

    def test_criterion_6_calls_share_one_chain(self, products):
        # two volume probes and a stability sweep over one ideal, as in
        # acceptance criterion 6: each call used to build its own chain
        ideal = MonomialIdeal(2, [(2, 0), (1, 1)])
        for beta in (4, 8):
            epsilon_via_volumes(ideal, beta, n_probe=200)
        beta_stability(ideal, beta0=4, n_probe=200, tolerance=Fraction(5, 200))
        assert len(products) == 199

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="beta0"):
            beta_stability(X2_XY, beta0=0, n_probe=4, tolerance=Fraction(0))
        with pytest.raises(ValueError, match="tolerance"):
            beta_stability(X2_XY, beta0=1, n_probe=4, tolerance=Fraction(-1))
