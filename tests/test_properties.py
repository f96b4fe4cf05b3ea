"""Property-based checks of the core algebra laws."""

import pytest
from hypothesis import given, settings, strategies as st

from epsmult import (
    MonomialIdeal,
    from_json_dict,
    to_json_dict,
)

from oracle_utils import member, subideal

settings.register_profile("suite", max_examples=60, deadline=None, derandomize=True)
settings.load_profile("suite")


@st.composite
def ideals(draw, max_dim=3, max_gens=4, max_exp=5):
    d = draw(st.integers(1, max_dim))
    vector = st.tuples(*([st.integers(0, max_exp)] * d)).filter(any)
    gens = draw(st.lists(vector, min_size=1, max_size=max_gens))
    return MonomialIdeal(d, gens)


@st.composite
def ideal_pairs(draw, max_dim=3):
    d = draw(st.integers(1, max_dim))
    vector = st.tuples(*([st.integers(0, 5)] * d)).filter(any)
    lists = st.lists(vector, min_size=1, max_size=4)
    return (
        MonomialIdeal(d, draw(lists)),
        MonomialIdeal(d, draw(lists)),
    )


class TestCanonicalForm:
    @given(ideals())
    def test_generators_form_a_sorted_antichain(self, ideal):
        gens = ideal.generators
        assert list(gens) == sorted(gens)
        for g in gens:
            for h in gens:
                if g != h:
                    assert not all(a >= b for a, b in zip(g, h))

    @given(ideals())
    def test_rebuilding_from_generators_is_identity(self, ideal):
        assert MonomialIdeal(ideal.dim, ideal.generators) == ideal

    @given(ideals())
    def test_redundant_generators_change_nothing(self, ideal):
        above = tuple(x + 1 for x in ideal.generators[0])
        padded = MonomialIdeal(ideal.dim, list(ideal.generators) + [above])
        assert padded == ideal

    @given(ideals())
    def test_contains_every_generator(self, ideal):
        assert all(member(ideal.generators, g) for g in ideal.generators)


class TestArithmeticLaws:
    @given(ideal_pairs())
    def test_product_lies_in_the_intersection(self, pair):
        a, b = pair
        assert subideal(a * b, a.intersect(b))

    @given(ideal_pairs())
    def test_product_contains_all_pairwise_sums(self, pair):
        a, b = pair
        prod = a * b
        for g in a.generators:
            for h in b.generators:
                assert member(prod.generators, tuple(x + y for x, y in zip(g, h)))

    @given(ideal_pairs())
    def test_product_commutes(self, pair):
        a, b = pair
        assert a * b == b * a

    @given(ideal_pairs())
    def test_intersection_commutes(self, pair):
        a, b = pair
        assert a.intersect(b) == b.intersect(a)

    @given(ideal_pairs())
    def test_colon_adjunction(self, pair):
        a, b = pair
        assert subideal(a.colon(b) * b, a)
        assert subideal(a, (a * b).colon(b))

    @given(ideals())
    def test_square_via_power_and_product_agree(self, ideal):
        assert ideal.power(2) == ideal * ideal


class TestSaturationLaws:
    @given(ideals())
    def test_saturation_grows_and_is_idempotent(self, ideal):
        sat = ideal.saturate()
        assert subideal(ideal, sat)
        assert sat.saturate() == sat

    @given(ideals())
    def test_saturation_respects_products(self, ideal):
        sat = ideal.saturate()
        assert subideal(sat * sat, ideal.power(2).saturate())


class TestGradedFamilies:
    @given(ideals(max_dim=2, max_gens=3, max_exp=3), st.integers(1, 3), st.integers(1, 3))
    def test_power_family_law(self, ideal, a, b):
        assert subideal(ideal.power(a) * ideal.power(b), ideal.power(a + b))

    @given(ideals(max_dim=2, max_gens=3, max_exp=3), st.integers(1, 2), st.integers(1, 2))
    def test_saturated_family_law(self, ideal, a, b):
        sat_a = ideal.power(a).saturate()
        sat_b = ideal.power(b).saturate()
        assert subideal(sat_a * sat_b, ideal.power(a + b).saturate())


class TestSerialization:
    @given(ideals())
    def test_ideal_roundtrip(self, ideal):
        assert from_json_dict(to_json_dict(ideal)) == ideal
