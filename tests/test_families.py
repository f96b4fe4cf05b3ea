from fractions import Fraction

import pytest

from epsmult import (
    GradedFamilySpec,
    MonomialIdeal,
    corpus,
    simplex_counts,
    unit_ideal,
)

from oracle_utils import subideal

X2_XY = MonomialIdeal(2, [(2, 0), (1, 1)])


def saturated(base):
    """n -> sat(I^n), read as fam(n).saturate() off the powers family."""
    fam = GradedFamilySpec(base)
    return lambda n: fam(n).saturate()


def test_level_zero_is_the_ring():
    for fam in (
        GradedFamilySpec(X2_XY),
        saturated(X2_XY),
        GradedFamilySpec(X2_XY.power(2).saturate()),
    ):
        assert fam(0) == unit_ideal(2)


def test_powers_family():
    fam = GradedFamilySpec(X2_XY)
    assert fam(1) == X2_XY
    assert fam(4) == X2_XY.power(4)


def test_saturated_powers_family():
    fam = saturated(X2_XY)
    assert fam(1).generators == ((1, 0),)
    assert fam(3).generators == ((3, 0),)


def test_saturated_powers_read_the_base_ideal_s_memos():
    base = MonomialIdeal(2, [(2, 0), (1, 1)])
    fam = saturated(base)
    assert fam(4) == base.power(4).saturate()
    assert GradedFamilySpec(base)(4) is base.power(4)


def test_deep_index_needs_no_recursion():
    x = MonomialIdeal(1, [(1,)])
    assert GradedFamilySpec(x)(5000) == MonomialIdeal(1, [(5000,)])
    # k -> (saturation of I^m)^k, the chain the truncation search walks
    fam = GradedFamilySpec(MonomialIdeal(2, [(1, 1)]).power(2).saturate())
    assert fam(3000) == MonomialIdeal(2, [(6000, 6000)])


def test_families_share_the_base_ideal_s_chain(products):
    base = MonomialIdeal(2, [(2, 0), (1, 1)])
    saturated(base)(7)
    assert len(products) == 6
    # a second family over the base, and the base itself, build nothing
    fifth = GradedFamilySpec(base)(5)
    base.power(7)
    assert len(products) == 6
    assert fifth == X2_XY.power(5)


def test_power_then_saturate_power():
    # k -> (saturation of I^m)^k is the powers family of one saturation
    fam = GradedFamilySpec(X2_XY.power(2).saturate())
    assert fam(1) == X2_XY.power(2).saturate()
    assert fam(3) == X2_XY.power(2).saturate().power(3)


def test_power_then_saturate_power_reads_the_memos():
    base = MonomialIdeal(2, [(2, 0), (1, 1)])
    fam = GradedFamilySpec(GradedFamilySpec(base)(3).saturate())
    assert fam(2) == base.power(3).saturate().power(2)
    assert fam(2) == X2_XY.power(3).saturate().power(2)


def test_graded_law_on_corpus():
    # I_a * I_b is contained in I_(a+b)
    for base in corpus(41, 12):
        for fam in (
            GradedFamilySpec(base),
            saturated(base),
            GradedFamilySpec(base.power(2).saturate()),
        ):
            for a, b in ((1, 1), (1, 2), (2, 3)):
                assert subideal(fam(a).product(fam(b)), fam(a + b))


def test_results_are_cached():
    fam = GradedFamilySpec(X2_XY)
    assert fam(5) is fam(5)


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        GradedFamilySpec(X2_XY)(-1)


@pytest.mark.parametrize("index", [2.7, True, "2", 2.0])
def test_index_must_be_an_integer(index):
    # True would otherwise read as level 1, and 2.7 as level 2
    fam = GradedFamilySpec(X2_XY)
    fam(1)
    with pytest.raises(TypeError, match="family index must be an integer"):
        fam(index)


def test_base_required():
    with pytest.raises(TypeError):
        GradedFamilySpec()
    # neither a dimension nor a family kind is a base ideal
    with pytest.raises(TypeError, match="must be a MonomialIdeal"):
        GradedFamilySpec(2)
    with pytest.raises(TypeError, match="must be a MonomialIdeal"):
        GradedFamilySpec("saturated_powers")
    # the old (kind, base) and (dim, base) forms take one argument too many
    with pytest.raises(TypeError):
        GradedFamilySpec("powers", X2_XY)
    with pytest.raises(TypeError):
        GradedFamilySpec(5, X2_XY)


def test_counts_are_normalized_in_the_base_ideal_s_dimension():
    # a family's own stated dimension of 5 once normalized by 10^5, not 10^2
    fam = GradedFamilySpec(X2_XY)
    count = simplex_counts(fam(10), 4 * 10)[1]
    assert Fraction(count, 10**fam.base.dim) == Fraction(441, 100)

