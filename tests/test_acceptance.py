"""The acceptance gate: nine checks at fixed tolerances with runtime targets.

Each check prints one verdict line of the form ``criterion N: PASS (0.12s)``
directly to the terminal (bypassing capture, so the verdict is visible in
any pytest run) and fails the test if a stated runtime target is missed.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from epsmult import (
    MonomialIdeal,
    Semigroup,
    amao,
    beta_stability,
    check_cone_conditions,
    check_sat_power_containment,
    colength,
    corpus,
    epsilon_sequence,
    epsilon_via_volumes,
    is_finite_colength,
    k_fold_sum_count,
    maximal_ideal,
    random_ideal,
    swanson_c_search,
    theorem_a_table,
    unit_ideal,
)

from oracle_utils import (
    _coord_maxes,
    brute_colength,
    brute_colon,
    brute_intersect,
    brute_product,
    brute_saturate,
    lattice_contains_all_units,
    staircase_in_box,
)

X2_XY = MonomialIdeal(2, [(2, 0), (1, 1)])
SIMPLEX = Semigroup(2, generators=[(0, 0, 1), (1, 0, 1), (0, 1, 1)])


@contextmanager
def criterion(capsys, number: int, label: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        _announce(capsys, f"criterion {number}: FAIL ({elapsed:.2f}s) {label}")
        raise
    elapsed = time.perf_counter() - start
    missed = budget is not None and elapsed >= budget
    verdict = "FAIL" if missed else "PASS"
    _announce(capsys, f"criterion {number}: {verdict} ({elapsed:.2f}s) {label}")
    if missed:
        pytest.fail(f"criterion {number} took {elapsed:.2f}s, target < {budget:g}s")


def _announce(capsys, line: str) -> None:
    with capsys.disabled():
        print(line, flush=True)


def test_criterion_1_exact_convergence_family(capsys):
    with criterion(capsys, 1, "exact lengths, e_n, and table for (x^2, xy)", budget=5.0):
        est = epsilon_sequence(X2_XY, 20)
        for n in range(1, 21):
            assert est.lengths[n - 1] == n * (n + 1) // 2
            assert est.sequence[n - 1] == Fraction(n + 1, n)
        for row in theorem_a_table(X2_XY, m_max=6, k_max=12):
            assert row.status == "ok"
            assert row.a_value == row.m**2
            assert row.ratio == 1


def test_criterion_2_hilbert_samuel_degeneration(capsys):
    with criterion(capsys, 2, "epsilon of (x,y)^2 collapses to e = 4", budget=5.0):
        square = maximal_ideal(2).power(2)
        est = epsilon_sequence(square, 20)
        for n in range(1, 21):
            # the quotient by (x,y)^(2n) has length n(2n+1), so e_n = 4 + 2/n
            # and the limit is the Hilbert-Samuel multiplicity e((x,y)^2) = 4
            assert est.lengths[n - 1] == n * (2 * n + 1)
            assert est.sequence[n - 1] == 4 + Fraction(2, n)
        assert abs(est.sequence[-1] - 4) == Fraction(2, 20)
        for m in range(1, 7):
            res = amao(square.power(m), unit_ideal(2), k_max=12)
            assert Fraction(res.value, m * m) == 4


def test_criterion_3_saturated_prime_is_identically_zero(capsys):
    with criterion(capsys, 3, "height-two prime in three variables", budget=5.0):
        prime = MonomialIdeal(3, [(1, 0, 0), (0, 1, 0)])
        est = epsilon_sequence(prime, 12)
        assert all(length == 0 for length in est.lengths)
        assert all(value == 0 for value in est.sequence)
        for row in theorem_a_table(prime, m_max=4, k_max=10):
            assert row.status == "ok"
            assert row.a_value == 0
            assert row.ratio == 0


def test_criterion_4_simplex_volume_at_three_scales(capsys):
    with criterion(capsys, 4, "simplex counts approach the exact volume", budget=10.0):
        assert SIMPLEX.exact_volume() == Fraction(1, 2)
        counts = SIMPLEX.counts(1000)
        for n in (10, 100, 1000):
            count = counts[n]
            assert count == (n + 1) * (n + 2) // 2
            assert abs(Fraction(count, n * n) - Fraction(1, 2)) <= Fraction(2, n)


def test_criterion_5_k_fold_sums_converge_from_above(capsys):
    with criterion(capsys, 5, "k-fold sumset counts decrease to the volume", budget=10.0):
        for p in (1, 2, 3):
            previous = None
            for k in range(1, 31):
                count = k_fold_sum_count(SIMPLEX, p, k)
                assert count == (k * p + 1) * (k * p + 2) // 2
                value = Fraction(count, k * k * p * p)
                assert value > Fraction(1, 2)
                if previous is not None:
                    assert value < previous
                previous = value
            assert previous - Fraction(1, 2) <= Fraction(2, 30 * p)


def test_criterion_6_volume_difference_cross_check(capsys):
    with criterion(capsys, 6, "truncated-volume route hits epsilon = 1"):
        values = {}
        for beta in (4, 8):
            res = epsilon_via_volumes(X2_XY, beta, n_probe=200)
            values[beta] = res.value
            assert abs(res.value - 1) <= Fraction(5, 200)
        assert abs(values[4] - values[8]) <= Fraction(5, 200)
        stab = beta_stability(X2_XY, beta0=4, n_probe=200, tolerance=Fraction(5, 200))
        assert stab.stabilized_beta == 8
        assert abs(stab.value - 1) <= Fraction(5, 200)


def test_criterion_7_lemma_suite_over_the_corpus(capsys):
    with criterion(capsys, 7, "containment and truncation over 50 seeded ideals", budget=60.0):
        ideals = corpus(1, 50)
        assert len(ideals) == 50
        for ideal in ideals:
            assert check_sat_power_containment(ideal, 4).ok
            found = swanson_c_search(ideal, c_max=8, mk_bound=12)
            assert found.c is not None
            assert found.c <= 8


def _same_dim_pair(rng):
    while True:
        a, b = random_ideal(rng), random_ideal(rng)
        if a.dim == b.dim:
            return a, b


def test_criterion_8_oracle_equivalence(capsys):
    with criterion(capsys, 8, "five operations vs brute force on 200 instances", budget=60.0):
        rng = random.Random(8)
        for _ in range(200):
            a, b = _same_dim_pair(rng)
            d = a.dim
            ga, gb = a.generators, b.generators
            ta, tb = _coord_maxes(ga, d), _coord_maxes(gb, d)

            box = tuple(x + y + 1 for x, y in zip(ta, tb))
            assert staircase_in_box((a * b).generators, box) == brute_product(ga, gb, d)

            box = tuple(max(x, y) + 1 for x, y in zip(ta, tb))
            assert staircase_in_box(
                a.intersect(b).generators, box
            ) == brute_intersect(ga, gb, d)

            box = tuple(x + 1 for x in ta)
            assert staircase_in_box(a.colon(b).generators, box) == brute_colon(
                ga, gb, d
            )
            assert staircase_in_box(a.saturate().generators, box) == brute_saturate(
                ga, d
            )

            inner, outer = a * b, a.intersect(b)
            expected = brute_colength(inner.generators, outer.generators, d)
            if expected is None:
                assert not is_finite_colength(inner, outer)
            else:
                assert is_finite_colength(inner, outer)
                assert colength(inner, outer) == expected


def test_criterion_9_cone_checker_vs_lattice_oracle(capsys):
    with criterion(capsys, 9, "group-spanning verdicts match the normal-form oracle"):
        rng = random.Random(9)
        for _ in range(50):
            d = rng.randint(1, 3)
            points = [
                tuple(rng.randint(0, 4) for _ in range(d)) + (rng.randint(1, 3),)
                for _ in range(rng.randint(1, 6))
            ]
            sg = Semigroup(d, generators=points)
            beta = rng.randint(1, 5)
            got = check_cone_conditions(sg, beta)
            known = sg.known_points()
            assert got["cone3"] == lattice_contains_all_units(known)
            assert got["cone2"] == all(sum(p[:-1]) <= beta * p[-1] for p in known)
