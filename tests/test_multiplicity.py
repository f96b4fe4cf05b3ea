import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from epsmult import (
    AmaoResult,
    ContainmentCheck,
    DimensionMismatchError,
    EpsmultError,
    GradedFamilySpec,
    InconclusiveError,
    InsufficientDataError,
    MonomialIdeal,
    SizeLimitError,
    TheoremARow,
    ZeroIdealError,
    amao,
    check_sat_power_containment,
    colength,
    corpus,
    epsilon_sequence,
    leading_difference,
    swanson_c_search,
    theorem_a_table,
    unit_ideal,
)
from epsmult import ideals as ideals_mod
from epsmult import multiplicity as mult_mod
from epsmult.ideals import DEGREE_LIMIT
from oracle_utils import lemma_pool, subideal, swanson_grid, swanson_truncation_agrees

GOLDEN = Path(__file__).parent / "golden"
X2_XY = MonomialIdeal(2, [(2, 0), (1, 1)])
M2_SQUARED = MonomialIdeal(2, [(1, 0), (0, 1)]).power(2)
PRIME_3D = MonomialIdeal(3, [(1, 0, 0), (0, 1, 0)])
PEAKS_PAST_TWO = [
    MonomialIdeal(3, [(2, 1, 4), (3, 3, 3), (7, 4, 2)]),
    MonomialIdeal(4, [(1, 0, 2, 1), (1, 1, 1, 1), (1, 1, 2, 0), (2, 2, 0, 0)]),
    MonomialIdeal(4, [(3, 8, 0, 5), (7, 5, 3, 1), (8, 1, 5, 0)]),
]
EQUAL_PAIR_IDEALS = [
    (2, [(3, 0), (1, 2), (0, 5)]),
    (3, [(2, 1, 0), (0, 3, 1), (1, 0, 4), (1, 1, 1)]),
    (4, [(2, 0, 0, 0), (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)]),
]


class TestLeadingDifference:
    def test_triangular_numbers(self):
        seq = [n * (n + 1) // 2 for n in range(1, 9)]
        res = leading_difference(seq, 2)
        assert res.value == 1
        assert res.stabilized_at == 1
        assert res.window == 6

    def test_quadratic_with_linear_term(self):
        seq = [2 * n * n + n for n in range(1, 9)]
        assert leading_difference(seq, 2).value == 4

    def test_lower_degree_vanishes(self):
        seq = [3 + 5 * n for n in range(1, 8)]
        assert leading_difference(seq, 2).value == 0

    def test_late_stabilization_is_reported(self):
        # quadratic only from the third term on
        seq = [7, 1, 6, 10, 14, 18, 22]
        res = leading_difference(seq, 1)
        assert res.value == 4
        assert res.stabilized_at == 3

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            leading_difference([1, 2, 3, 4], 2, window=3)

    def test_inconclusive_tail_reaches_the_last_term(self):
        # the tail ends with the d-th difference of the last terms, so it
        # records how far the sequence went; the second differences of n^3
        # are 6n + 6
        seq = [n**3 for n in range(10)]
        with pytest.raises(InconclusiveError) as info:
            leading_difference(seq, 2, window=2)
        assert info.value.tail == (42, 48)

    def test_inconclusive_carries_the_last_differences(self):
        seq = [2**n for n in range(8)]
        with pytest.raises(InconclusiveError) as info:
            leading_difference(seq, 1)
        assert info.value.tail == (16, 32, 64)
        assert str(info.value).endswith("last 3 d-th differences: 16, 32, 64")

    def test_degenerate_parameters(self):
        with pytest.raises(ValueError):
            leading_difference([1, 2, 3], 0)
        with pytest.raises(ValueError):
            leading_difference([1, 2, 3], 1, window=0)

    def test_negative_leading_value_rejected(self):
        with pytest.raises(EpsmultError, match="negative"):
            leading_difference([20, 15, 10, 5, 0], 1)


class TestAmao:
    def test_equal_ideals_give_zero(self):
        assert amao(X2_XY, X2_XY, 8).value == 0

    def test_worked_example(self):
        res = amao(X2_XY, X2_XY.saturate(), 8)
        assert res.value == 1
        assert res.stabilized_at == 1

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_hilbert_samuel_degeneration(self, m):
        assert amao(M2_SQUARED.power(m), unit_ideal(2), 8).value == 4 * m * m

    def test_containment_required(self, products):
        # the length at k = 1 is the only containment check; it forms no power
        inner, outer = MonomialIdeal(2, [(1, 0)]), MonomialIdeal(2, [(0, 1)])
        with pytest.raises(
            EpsmultError, match=r"^inner not contained in outer \(at family index n=1\)$"
        ):
            amao(inner, outer, 8)
        assert products == []

    def test_later_failure_carries_its_index(self):
        # the square of (x^(2^60), y^(2^60)) is within the degree limit, its cube is not
        ideal = MonomialIdeal(2, [(DEGREE_LIMIT // 2, 0), (0, DEGREE_LIMIT // 2)])
        with pytest.raises(SizeLimitError, match=r"at family index n=3\)$"):
            amao(ideal, unit_ideal(2), 8)

    def test_non_equal_pair_keeps_no_chain_on_its_arguments(self, products):
        # each (inner^k, outer^k) is read once, so amao multiplies its own
        # chains, one product by inner and one by outer per k in 2..k_max
        inner = MonomialIdeal(3, [(2, 1, 0), (0, 2, 1), (1, 0, 2)])
        outer = inner.saturate()
        res = amao(inner, outer, 8)
        assert getattr(inner, "_powers", None) is None
        assert getattr(outer, "_powers", None) is None
        assert sum(other is inner for other in products) == 7
        assert sum(other is outer for other in products) == 7
        assert len(products) == 14
        lengths = [colength(inner.power(k), outer.power(k)) for k in range(1, 9)]
        assert res == leading_difference(lengths, 3)

    @pytest.mark.parametrize("dim,gens", EQUAL_PAIR_IDEALS)
    def test_equal_pair_matches_the_chain_route_and_forms_no_power(self, products, dim, gens):
        fam_in = GradedFamilySpec(MonomialIdeal(dim, gens))
        fam_out = GradedFamilySpec(MonomialIdeal(dim, gens))
        want = leading_difference([colength(fam_in(k), fam_out(k)) for k in range(1, 10)], dim)
        assert want == AmaoResult(0, 1, 9 - dim)
        products.clear()
        ideal = MonomialIdeal(dim, gens)
        assert amao(ideal, ideal, 9) == want
        assert amao(ideal, MonomialIdeal(dim, gens), 9) == want
        assert products == []
        assert getattr(ideal, "_powers", None) is None

    @pytest.mark.parametrize("dim,gens", EQUAL_PAIR_IDEALS)
    def test_equal_pair_needs_d_plus_window_terms(self, dim, gens):
        ideal = MonomialIdeal(dim, gens)
        assert amao(ideal, ideal, dim + 2, window=2).window == 2
        with pytest.raises(InsufficientDataError):
            amao(ideal, ideal, dim + 2)
        with pytest.raises(InsufficientDataError):
            amao(ideal, MonomialIdeal(dim, gens), dim + 1, window=2)

    def test_equal_pair_checks_its_arguments(self):
        with pytest.raises(ValueError, match="k_max"):
            amao(X2_XY, X2_XY, 0)
        with pytest.raises(ValueError, match="window"):
            amao(X2_XY, X2_XY, 8, window=0)
        with pytest.raises(DimensionMismatchError):
            amao(X2_XY, PRIME_3D, 8)

    def test_equal_pair_past_the_degree_limit_is_zero(self):
        # the square of (x^(2^60), y^(2^60)) is within the limit, its cube
        # is not; the chain route forms the cube, the equal pair forms none
        ideal = MonomialIdeal(2, [(DEGREE_LIMIT // 2, 0), (0, DEGREE_LIMIT // 2)])
        assert amao(ideal, ideal, 8) == AmaoResult(0, 1, 6)
        assert amao(ideal, MonomialIdeal(2, ideal.generators), 8).value == 0
        fam_in = GradedFamilySpec(MonomialIdeal(2, ideal.generators))
        fam_out = GradedFamilySpec(MonomialIdeal(2, ideal.generators))
        with pytest.raises(SizeLimitError):
            [colength(fam_in(k), fam_out(k)) for k in range(1, 9)]

    def test_result_is_nonnegative_on_corpus(self):
        for I in corpus(51, 10):
            res = amao(I, I.saturate(), 8)
            assert res.value >= 0


class TestEpsilonSequence:
    def test_worked_example(self):
        est = epsilon_sequence(X2_XY, 8)
        assert est.lengths == tuple(n * (n + 1) // 2 for n in range(1, 9))
        assert est.sequence == tuple(Fraction(n + 1, n) for n in range(1, 9))
        assert est.sequence[-1] == Fraction(9, 8)

    def test_saturated_prime_is_identically_zero(self):
        est = epsilon_sequence(PRIME_3D, 6)
        assert set(est.sequence) == {Fraction(0)}

    def test_hilbert_samuel_degeneration(self):
        est = epsilon_sequence(M2_SQUARED, 8)
        assert est.sequence == tuple(4 + Fraction(2, n) for n in range(1, 9))

    def test_zero_and_unit_rejected(self):
        with pytest.raises(ZeroIdealError):
            epsilon_sequence(unit_ideal(2), 4)
        with pytest.raises(ZeroIdealError):
            epsilon_sequence(MonomialIdeal(2, []), 4)

    def test_bad_n_max(self):
        with pytest.raises(ValueError):
            epsilon_sequence(X2_XY, 0)

    def test_quasi_polynomial_fit_predicts_far_lengths(self):
        # ℓ_n of (x^2, xy, yz, zw) is a quasi-polynomial of period 3: a
        # degree-4 polynomial per residue class, fitted exactly to its last
        # five members n <= 30, must give every ℓ_n for n = 31..80
        ideal = MonomialIdeal(4, [(2, 0, 0, 0), (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)])
        lengths = epsilon_sequence(ideal, 80).lengths
        for n in range(31, 81):
            fit = [k for k in range(1, 31) if k % 3 == n % 3][-5:]
            predicted = sum(
                Fraction(lengths[k - 1]) * math.prod(Fraction(n - j, k - j) for j in fit if j != k)
                for k in fit
            )
            assert predicted == lengths[n - 1], n


class TestTheoremATable:
    def test_worked_example(self):
        rows = theorem_a_table(X2_XY, m_max=6, k_max=12)
        assert [(r.m, r.a_value, r.ratio) for r in rows] == [
            (m, m * m, Fraction(1)) for m in range(1, 7)
        ]
        assert all(r.status == "ok" for r in rows)

    def test_saturated_prime_rows_vanish(self):
        rows = theorem_a_table(PRIME_3D, m_max=4, k_max=10)
        assert [(r.a_value, r.ratio) for r in rows] == [(0, Fraction(0))] * 4

    def test_hilbert_samuel_rows(self):
        rows = theorem_a_table(M2_SQUARED, m_max=3, k_max=10)
        assert [(r.m, r.a_value, r.ratio) for r in rows] == [
            (m, 4 * m * m, Fraction(4)) for m in range(1, 4)
        ]

    def test_inconclusive_rows_are_marked_not_dropped(self, monkeypatch):
        real_amao = mult_mod.amao

        def flaky(inner, outer, k_max=20, window=3):
            if inner == X2_XY.power(2):
                raise InconclusiveError("synthetic")
            return real_amao(inner, outer, k_max=k_max, window=window)

        monkeypatch.setattr(mult_mod, "amao", flaky)
        rows = theorem_a_table(X2_XY, m_max=3, k_max=10)
        assert [r.status for r in rows] == ["ok", "inconclusive", "ok"]
        assert rows[1] == TheoremARow(2, None, None, None, "inconclusive")

    def test_zero_and_unit_rejected(self):
        with pytest.raises(ZeroIdealError):
            theorem_a_table(unit_ideal(2))

    def test_bad_m_max(self):
        # an empty table would read as a complete one
        with pytest.raises(ValueError, match="m_max"):
            theorem_a_table(X2_XY, m_max=0)

    def test_epsilon_appendix_reads_the_table_s_chain(self, products):
        # the theorem-a report of the benchmark: I is saturated, so the
        # table's amao at m = 1 is an equal pair and forms no power, and
        # the appendix builds I^2..I^4 on the chain the table left
        ideal = MonomialIdeal(3, [(2, 1, 0), (0, 3, 1), (1, 0, 4), (1, 1, 1)])
        assert ideal.saturate() is ideal
        theorem_a_table(ideal, m_max=1, k_max=10)
        assert len(products) == 0
        epsilon_sequence(ideal, 4)
        assert len(products) == 3
        assert sorted(ideal._powers) == [2, 3, 4]

    def test_saturated_ideals_give_the_recorded_reports(self):
        # theorem_a_table, swanson_c_search and check_sat_power_containment
        # as recorded before a saturated ideal became its own saturation, on
        # the saturated ideals of the lemma pool and corpus(7, 48, max_dim=4)
        recorded = json.loads((GOLDEN / "saturated_lemma_reports.json").read_text())
        assert len(recorded) == 111
        # each "swanson" entry lists c over the full grid, m*k <= 6, m by m
        grid = [(m, k) for m in range(1, 7) for k in range(1, 6 // m + 1)]
        for entry in recorded:
            ideal = MonomialIdeal(entry["dim"], entry["generators"])
            assert ideal.saturate() is ideal
            rows = theorem_a_table(ideal, m_max=3, k_max=8)
            assert [
                [r.m, r.a_value, r.stabilized_at, r.status, list(r.tail)] for r in rows
            ] == entry["theorem_a"], ideal
            search = swanson_c_search(ideal, c_max=8, mk_bound=6)
            want_c, want_grid = entry["swanson"]
            diagonal = [c for (_, k), c in zip(grid, want_grid, strict=True) if k == 1]
            assert [search.c, [c for _, _, c in search.per_pair]] == [want_c, diagonal], ideal
            check = check_sat_power_containment(ideal, 4)
            assert [check.ok, check.first_failure] == entry["containment"], ideal

    def test_saturated_rows_make_no_copy_and_build_only_the_ideal_s_chain(
        self, products, monkeypatch
    ):
        # I^m is saturated for every m, so each row is an equal pair.  Every
        # derived ideal is formed by _make: one per product, and no other
        ideal = MonomialIdeal(3, [(0, 2, 2), (1, 0, 1), (2, 0, 0)])
        made = []
        make = ideals_mod._make

        def counted(dim, gens=None, rows=None):
            made.append(dim)
            return make(dim, gens, rows)

        monkeypatch.setattr(ideals_mod, "_make", counted)
        rows = theorem_a_table(ideal, m_max=4, k_max=8)
        assert [(r.a_value, r.stabilized_at) for r in rows] == [(0, 1)] * 4
        assert len(made) == 3
        assert len(products) == 3 and all(other is ideal for other in products)

    def test_rows_past_the_first_leave_no_chain_behind(self):
        # row m reads (I^m)^k for k <= k_max; held on I^m, those chains
        # would stay alive as long as I does.  amao keeps none, so every
        # row, the first included, leaves only I's chain of the I^m
        ideal = MonomialIdeal(3, [(2, 1, 0), (0, 2, 1), (1, 0, 2)])
        theorem_a_table(ideal, m_max=3, k_max=6)
        assert sorted(ideal._powers) == [2, 3]
        for m in (1, 2, 3):
            power = ideal.power(m)
            assert power.saturate() is not power
            assert getattr(power.saturate(), "_powers", None) is None
            if m > 1:
                assert getattr(power, "_powers", None) is None


class TestContainmentLemma:
    def test_worked_example(self):
        res = check_sat_power_containment(X2_XY, 4)
        assert res.ok and res.first_failure is None

    def test_first_failure_is_reported(self, monkeypatch):
        # i = 1 holds by definition, so the first i to fail is 2
        monkeypatch.setattr(mult_mod, "is_finite_colength", lambda inner, outer: False)
        assert check_sat_power_containment(X2_XY, 4) == ContainmentCheck(False, 2)

    @pytest.mark.parametrize("first", [2, 3, 5])
    def test_first_failure_matches_the_per_power_loop(self, first, monkeypatch):
        # I^first and I^5 = I^i_max are swapped for x^64 times themselves,
        # whose saturation lies inside (x^64): sat(I)^i is no longer inside
        ideal = MonomialIdeal(3, [(2, 1, 0), (0, 2, 1), (1, 0, 2)])
        assert ideal.saturate() is not ideal
        shift = MonomialIdeal(3, [(64, 0, 0)])
        finite, seen = mult_mod.is_finite_colength, []

        def injected(inner, outer):
            # the pairs come in the order i = 2, 3, ..
            if len(seen) + 2 in (first, 5):
                inner = inner * shift
            seen.append((inner, outer))
            return finite(inner, outer)

        monkeypatch.setattr(mult_mod, "is_finite_colength", injected)
        got = check_sat_power_containment(ideal, 5)
        # the per-power loop: each pair against the saturation ideal itself
        loop = next(
            i
            for i, (P, J) in enumerate(seen, 2)
            if not subideal(J, MonomialIdeal(3, P.saturate().generators))
        )
        assert got == ContainmentCheck(False, loop) and loop == first
        # no pair past the first failure is read
        assert len(seen) == first - 1

    def test_saturated_ideal_forms_no_power(self, products, monkeypatch):
        # sat(I)^i = I^i lies in sat(I^i) by definition
        ideal = MonomialIdeal(3, [(0, 2, 2), (1, 0, 1), (2, 0, 0)])
        monkeypatch.setattr(mult_mod, "is_finite_colength", lambda inner, outer: False)
        assert check_sat_power_containment(ideal, 6) == ContainmentCheck(True, None)
        assert products == [] and getattr(ideal, "_powers", None) is None
        with pytest.raises(ValueError, match="i_max"):
            check_sat_power_containment(ideal, 0)

    def test_first_power_forms_no_power(self, products, monkeypatch):
        # sat(I)^1 = sat(I) lies in sat(I^1) by definition
        ideal = MonomialIdeal(3, [(2, 1, 0), (0, 2, 1), (1, 0, 2)])
        monkeypatch.setattr(mult_mod, "is_finite_colength", lambda inner, outer: False)
        assert ideal.saturate() is not ideal
        assert check_sat_power_containment(ideal, 1) == ContainmentCheck(True, None)
        assert products == [] and getattr(ideal, "_powers", None) is None

    def test_forms_no_saturation_past_the_ideal_s(self, monkeypatch):
        ideal = MonomialIdeal(3, [(2, 1, 0), (0, 2, 1), (1, 0, 2)])
        saturated = []
        saturation = MonomialIdeal.saturate

        def counted(power):
            saturated.append(power)
            return saturation(power)

        monkeypatch.setattr(MonomialIdeal, "saturate", counted)
        assert check_sat_power_containment(ideal, 4).ok
        assert saturated == [ideal]

    def test_corpus_never_fails(self):
        for I in corpus(52, 25):
            assert check_sat_power_containment(I, 4).ok

    @pytest.mark.parametrize("i_max", [0, -1])
    def test_depth_must_be_positive(self, i_max):
        # checking no power at all used to report a pass
        with pytest.raises(ValueError, match="i_max"):
            check_sat_power_containment(X2_XY, i_max)


class TestSwanson:
    def test_literal_truncation_worked_example(self):
        assert swanson_truncation_agrees(X2_XY, 1, 1, 2)
        assert not swanson_truncation_agrees(X2_XY, 1, 1, 1)
        assert swanson_truncation_agrees(X2_XY, 2, 3, 2)

    def test_grid_search_golden(self):
        res = swanson_c_search(X2_XY, c_max=8, mk_bound=12)
        assert res.c == 2
        assert dict(((m, k), c) for m, k, c in res.per_pair)[(1, 1)] == 2

    def test_grid_pairs_cover_the_bound(self):
        # the pair (n, 1) bounds every (m, k) with m*k = n, so only it is checked
        res = swanson_c_search(X2_XY, c_max=8, mk_bound=6)
        assert [(m, k) for m, k, _ in res.per_pair] == [(n, 1) for n in range(1, 7)]

    def test_saturation_stable_ideal_gives_one(self):
        assert swanson_c_search(PRIME_3D, c_max=4, mk_bound=6).c == 1

    def test_none_when_bound_too_small(self):
        res = swanson_c_search(X2_XY, c_max=1, mk_bound=12)
        assert res.c is None

    def test_fast_path_matches_literal_test(self):
        for I in [X2_XY, MonomialIdeal(2, [(3, 0), (1, 1)]), MonomialIdeal(3, [(1, 1, 0), (0, 0, 2)])]:
            res = swanson_c_search(I, c_max=12, mk_bound=4)
            for m, k, c in res.per_pair:
                assert swanson_truncation_agrees(I, m, k, c)
                if c > 1:
                    assert not swanson_truncation_agrees(I, m, k, c - 1)

    def test_zero_and_unit_rejected(self):
        with pytest.raises(ZeroIdealError):
            swanson_c_search(unit_ideal(2))

    def test_search_reads_the_ideal_s_chain_of_powers(self, products):
        ideal = MonomialIdeal(3, [(2, 1, 0), (0, 1, 3), (1, 1, 1)])
        want = swanson_c_search(ideal)
        products.clear()
        # the search memoized I^12 on the ideal; a second search builds nothing
        ideal.power(12)
        assert swanson_c_search(ideal) == want
        assert products == []
        assert want == swanson_c_search(MonomialIdeal(3, [(2, 1, 0), (0, 1, 3), (1, 1, 1)]))

    def test_saturated_powers_form_no_chain_of_their_own(self, products):
        # I^m is saturated for every m: the search reads each I^n and its
        # saturation off I's chain, so it builds I^2..I^12 and nothing on any I^m
        ideal = MonomialIdeal(3, [(0, 2, 2), (1, 0, 1), (2, 0, 0)])
        res = swanson_c_search(ideal, mk_bound=12)
        assert len(products) == 11 and all(other is ideal for other in products)
        assert res.c == 1 and {c for _, _, c in res.per_pair} == {1}
        for m in range(2, 13):
            assert getattr(ideal.power(m), "_powers", None) is None

    def test_per_pair_matches_memo_free_pairs_on_the_lemma_pool(self):
        # the oracle forms every pair apart from the search's memos
        seen = set()
        for ideal in lemma_pool():
            want = [(m, k, deepest, c) for m, k, deepest, c in swanson_grid(ideal, 6) if k == 1]
            seen.update(deepest is None for _, _, deepest, _ in want)
            assert swanson_c_search(ideal, mk_bound=6).per_pair == tuple(
                (m, k, c) for m, k, _, c in want
            ), ideal
        assert seen == {False, True}

    @pytest.mark.parametrize(
        "pool, mk_bound",
        [
            pytest.param(lemma_pool, 6, id="lemma-pool-6"),
            pytest.param(lemma_pool, 12, id="lemma-pool-12"),
            pytest.param(lambda: corpus(1, 50), 12, id="corpus-1-50"),
            pytest.param(lambda: corpus(7, 48, max_dim=4), 12, id="corpus-7-48-4d"),
            # c first reaches its max at (7, 1), (3, 1) and (4, 1); above, at (1, 1) or (2, 1)
            pytest.param(lambda: PEAKS_PAST_TWO, 12, id="peaks-past-n-2"),
        ],
    )
    def test_diagonal_answers_for_the_full_grid(self, pool, mk_bound):
        # the search checks the pairs (n, 1) only; the oracle checks every (m, k)
        found = set()
        for ideal in pool():
            worst = max(c for *_, c in swanson_grid(ideal, mk_bound))
            found.add(worst)
            res = swanson_c_search(ideal, mk_bound=mk_bound)
            assert max(c for *_, c in res.per_pair) == worst, ideal
            assert res.c == (worst if worst <= 8 else None), ideal
        assert len(found) > 2

    def test_each_pair_is_bounded_by_its_diagonal_pair(self):
        # I^(mk) <= sat(I^m)^k <= sat(I^(mk)), so D(m, k) <= D(mk, 1); an
        # empty difference (D None) counts as depth -1
        strict = 0
        for ideal in lemma_pool():
            depth = {(m, k): -1 if d is None else d for m, k, d, _ in swanson_grid(ideal, 12)}
            for (m, k), d in depth.items():
                assert d <= depth[(m * k, 1)], (ideal, m, k)
                strict += d < depth[(m * k, 1)]
        assert strict > 0

    def test_search_saturates_no_power(self, products, monkeypatch):
        calls = []
        saturate = MonomialIdeal.saturate

        def counted(ideal):
            calls.append(ideal.generators)
            return saturate(ideal)

        monkeypatch.setattr(MonomialIdeal, "saturate", counted)
        base = MonomialIdeal(2, [(3, 0), (1, 2)])
        swanson_c_search(base, mk_bound=12)
        # every pair (n, 1) reads sat(I^n) off I^n's own grid
        assert calls == []
        assert len(products) == 11 and all(other is base for other in products)


class TestRecordedLemmaChecks:
    """Both lemma checks as recorded before they read one stacked fill per check."""

    POOLS = {
        "lemma_pool": lemma_pool,
        "corpus-1-50": lambda: corpus(1, 50),
        "corpus-7-48-4d": lambda: corpus(7, 48, max_dim=4),
    }

    @pytest.mark.parametrize("pool", sorted(POOLS))
    def test_reports_match_the_recording(self, pool):
        # containment at i_max = 6, and c for the pairs (n, 1), n = 1..12
        recorded = json.loads((GOLDEN / "lemma_check_reports.json").read_text(encoding="utf-8"))
        entries = [entry for entry in recorded if entry["pool"] == pool]
        ideals = self.POOLS[pool]()
        assert len(entries) == len(ideals) > 40
        for entry, ideal in zip(entries, ideals):
            assert ideal == MonomialIdeal(entry["dim"], entry["generators"])
            check = check_sat_power_containment(ideal, 6)
            assert [check.ok, check.first_failure] == entry["containment"], ideal
            want = tuple((n, 1, c) for n, c in enumerate(entry["c"], 1))
            assert swanson_c_search(ideal).per_pair == want, ideal


def test_amao_result_guard():
    with pytest.raises(EpsmultError):
        AmaoResult(value=-1, stabilized_at=1, window=3)
