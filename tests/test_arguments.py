"""Every integer argument of the library is checked once, where it enters.

Each count, bound, index, window, slope, dimension, exponent and
sequence term refuses a bool, a float and a string with TypeError, and a
value below its bound, where it has one, with ValueError; both messages
name the argument.
"""

import random
import re

import pytest

from epsmult import (
    EpsmultError,
    GradedFamilySpec,
    MonomialIdeal,
    Semigroup,
    amao,
    beta_stability,
    check_cone_conditions,
    check_sat_power_containment,
    corpus,
    epsilon_sequence,
    epsilon_via_volumes,
    hull_volume,
    k_fold_sum_count,
    leading_difference,
    random_ideal,
    simplex_counts,
    swanson_c_search,
    theorem_a_table,
)
from epsmult.cli import main

X2_XY = MonomialIdeal(2, [(2, 0), (1, 1)])
OUTER = MonomialIdeal(2, [(1, 0)])
POWERS = GradedFamilySpec(X2_XY)
SG = Semigroup(1, generators=[(0, 1), (1, 1)])
SEQ = [1, 2, 3, 4, 5, 6]

# (function, argument name in the message, least valid value or None if
# unbounded, call with the value)
CASES = [
    ("leading_difference", "a sequence term", None, lambda v: leading_difference([*SEQ, v], 1)),
    ("leading_difference", "d", 1, lambda v: leading_difference(SEQ, v)),
    ("leading_difference", "window", 1, lambda v: leading_difference(SEQ, 1, window=v)),
    ("amao", "k_max", 1, lambda v: amao(X2_XY, OUTER, k_max=v)),
    ("amao", "window", 1, lambda v: amao(X2_XY, OUTER, window=v)),
    ("epsilon_sequence", "n_max", 1, lambda v: epsilon_sequence(X2_XY, v)),
    ("theorem_a_table", "m_max", 1, lambda v: theorem_a_table(X2_XY, m_max=v)),
    ("theorem_a_table", "k_max", 1, lambda v: theorem_a_table(X2_XY, m_max=1, k_max=v)),
    ("theorem_a_table", "window", 1, lambda v: theorem_a_table(X2_XY, m_max=1, window=v)),
    ("check_sat_power_containment", "i_max", 1, lambda v: check_sat_power_containment(X2_XY, v)),
    ("swanson_c_search", "c_max", 1, lambda v: swanson_c_search(X2_XY, c_max=v)),
    ("swanson_c_search", "mk_bound", 1, lambda v: swanson_c_search(X2_XY, mk_bound=v)),
    ("epsilon_via_volumes", "beta", 1, lambda v: epsilon_via_volumes(X2_XY, v, 2)),
    ("epsilon_via_volumes", "n_probe", 1, lambda v: epsilon_via_volumes(X2_XY, 2, v)),
    ("beta_stability", "beta0", 1, lambda v: beta_stability(X2_XY, v, 2, 0)),
    ("beta_stability", "n_probe", 1, lambda v: beta_stability(X2_XY, 1, v, 0)),
    ("beta_stability", "max_doublings", 0, lambda v: beta_stability(X2_XY, 1, 2, 0, v)),
    # no bound: a negative cap is the empty simplex
    ("simplex_counts", "cap", None, lambda v: simplex_counts(OUTER, v)),
    ("hull_volume", "dim", 1, lambda v: hull_volume([(0,), (1,)], v)),
    ("Semigroup", "dim", 1, lambda v: Semigroup(v, generators=[])),
    ("Semigroup", "a level index", 0, lambda v: Semigroup(1, levels={v: [(0,)]})),
    ("Semigroup", "a generator coordinate", 0, lambda v: Semigroup(1, generators=[(v, 1)])),
    ("Semigroup.counts", "n_max", 1, lambda v: SG.counts(v)),
    ("Semigroup.level", "a level", 0, lambda v: SG.level(v)),
    ("k_fold_sum_count", "p", 1, lambda v: k_fold_sum_count(SG, v, 1)),
    ("k_fold_sum_count", "k", 1, lambda v: k_fold_sum_count(SG, 1, v)),
    ("check_cone_conditions", "beta", 1, lambda v: check_cone_conditions(SG, v)),
    ("MonomialIdeal", "dim", 1, lambda v: MonomialIdeal(v, [])),
    ("MonomialIdeal", "an exponent", 0, lambda v: MonomialIdeal(2, [(v, 1)])),
    ("MonomialIdeal.power", "a power", 0, lambda v: X2_XY.power(v)),
    ("GradedFamilySpec", "a family index", 0, lambda v: POWERS(v)),
    ("corpus", "size", 0, lambda v: corpus(1, v)),
    # size 0: a bound is checked even when no ideal is drawn
    ("corpus", "max_dim", 1, lambda v: corpus(1, 0, max_dim=v)),
    ("corpus", "max_gens", 1, lambda v: corpus(1, 0, max_gens=v)),
    ("corpus", "max_exp", 1, lambda v: corpus(1, 0, max_exp=v)),
    ("random_ideal", "max_dim", 1, lambda v: random_ideal(random.Random(1), max_dim=v)),
    ("random_ideal", "max_gens", 1, lambda v: random_ideal(random.Random(1), max_gens=v)),
    ("random_ideal", "max_exp", 1, lambda v: random_ideal(random.Random(1), max_exp=v)),
]

BELOW = object()  # stands for the least valid value minus one
BAD = [
    pytest.param(True, TypeError, id="bool"),
    pytest.param(2.5, TypeError, id="float"),
    pytest.param("2", TypeError, id="str"),
    pytest.param(BELOW, ValueError, id="below"),
]


@pytest.mark.parametrize(
    "name, low, call, bad, error",
    [
        pytest.param(*case[1:], *bad.values, id=f"{case[0]}-{case[1]}-{bad.id}")
        for case in CASES
        for bad in BAD
        if case[2] is not None or bad.values[0] is not BELOW
    ],
)
def test_integer_argument_is_checked(name, low, call, bad, error):
    value = low - 1 if bad is BELOW else bad
    with pytest.raises(error, match=rf"^{re.escape(name)} must be "):
        call(value)


@pytest.mark.parametrize(
    "name, low, call",
    [pytest.param(*case[1:], id=f"{case[0]}-{case[1]}") for case in CASES if case[2] is not None],
)
def test_least_valid_value_passes_the_check(name, low, call):
    try:
        call(low)
    except EpsmultError:  # a call may still fail on its own, say on a short sequence
        pass


@pytest.mark.parametrize(
    "argv, name",
    [
        (["semigroup", "-i", '{"dim": 1, "generators": [[0, 1]]}', "--nmax", "0"], "nmax"),
        (["lemmas", "--nmax", "-1"], "nmax (the corpus size)"),
        (["lemmas", "--nmax", "2", "--kmax", "0"], "kmax"),
        (["epsilon", "-i", "x^2, x*y", "--nmax", "0"], "n_max"),
        (["amao", "--inner", "x^2, x*y", "--outer", "x", "--window", "0"], "window"),
        (["okounkov-volume", "-i", "x^2, x*y", "--beta", "0"], "beta"),
    ],
)
def test_cli_range_error_names_the_option(argv, name, capsys):
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {name} must be at least ")
