import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frvkit import (
    AlphabetMismatch,
    DomainMismatch,
    NotAPmf,
    canonical_product,
    canonical_variable,
    constant_variable,
    identity_map,
    joint_table,
    product_space,
    projection_map,
    pull_back,
    refinement_map,
    space,
    variable,
)
from frvkit.core import MeasurePreservingMap, SampleSpace
from frvkit.generators import random_pair, random_pullback, random_refinement

half = Fraction(1, 2)


def test_pmf_fair_coin_identity(coin):
    assert coin.pmf == {"h": Fraction(1, 2), "t": Fraction(1, 2)}


def test_pmf_constant_is_point_mass(three_point):
    sp, _, _ = three_point
    c = constant_variable(sp, "only")
    assert c.pmf == {"only": Fraction(1)}


def test_pmf_sums_preimage_weights(three_point):
    # derived by hand: p(a) = 1/6 + 1/3, p(b) = 1/2
    _, x, _ = three_point
    assert dict(x.pmf) == {"a": Fraction(1, 2), "b": Fraction(1, 2)}


def test_joint_table_diagonal_for_duplicated_variable(coin):
    jt = joint_table(coin, coin)
    assert jt["h", "h"] == Fraction(1, 2)
    assert jt["t", "t"] == Fraction(1, 2)
    assert jt["h", "t"] == 0
    assert jt["t", "h"] == 0


def test_joint_table_independent_coins(four_uniform):
    _, x, y = four_uniform
    jt = joint_table(x, y)
    assert all(value == Fraction(1, 4) for value in jt.values())


def test_joint_table_three_point_enumeration(three_point):
    _, x, y = three_point
    jt = joint_table(x, y)
    assert jt["a", "u"] == Fraction(1, 6)
    assert jt["a", "v"] == Fraction(1, 3)
    assert jt["b", "v"] == Fraction(1, 2)
    assert jt["b", "u"] == 0


def test_joint_table_requires_shared_space(coin):
    other = space({"w1": Fraction(1, 2), "w2": Fraction(1, 4), "w3": Fraction(1, 4)})
    y = variable(other, {"w1": "u", "w2": "v", "w3": "v"})
    with pytest.raises(DomainMismatch):
        joint_table(coin, y)


def test_joint_marginals_match_pmfs(rng):
    for _ in range(50):
        x, y = random_pair(rng)
        jt = joint_table(x, y)
        rows = dict.fromkeys(x.alphabet, 0)
        cols = dict.fromkeys(y.alphabet, 0)
        for (a, b), value in jt.items():
            rows[a] += value
            cols[b] += value
        assert rows == x.pmf
        assert cols == y.pmf
        assert sum(jt.values()) == 1


def test_joint_table_cells_follow_the_alphabet_product_zeros_included(rng):
    with_empty_cells = 0
    for _ in range(50):
        x, y = random_pair(rng)
        jt = joint_table(x, y)
        assert list(jt) == [(a, b) for a in x.alphabet for b in y.alphabet]
        with_empty_cells += any(value == 0 for value in jt.values())
    assert with_empty_cells > 0


def test_canonical_product_duplicated_coin(coin):
    p = canonical_product(coin, coin)
    assert p.alphabet == (("h", "h"), ("t", "t"))
    assert p.pmf == {("h", "h"): Fraction(1, 2), ("t", "t"): Fraction(1, 2)}


def test_canonical_product_independent_coins(four_uniform):
    _, x, y = four_uniform
    p = canonical_product(x, y)
    assert len(p.alphabet) == 4
    assert all(mass == Fraction(1, 4) for mass in p.pmf.values())


def test_canonical_product_drops_only_zero_cells(three_point):
    _, x, y = three_point
    p = canonical_product(x, y)
    assert p.alphabet == (("a", "u"), ("a", "v"), ("b", "v"))
    jt = joint_table(x, y)
    assert p.pmf == {pair: jt[pair] for pair in p.alphabet}
    assert all(jt[a, b] == 0
               for a in x.alphabet for b in y.alphabet
               if (a, b) not in p.pmf)


def test_product_space_uniform():
    sp = product_space(space({"a": Fraction(1, 2), "b": Fraction(1, 2)}),
                       space({"c": Fraction(1, 2), "d": Fraction(1, 2)}))
    assert len(sp.outcomes) == 4
    assert all(w == Fraction(1, 4) for w in sp.weights.values())


def test_product_space_with_point_space_keeps_weights():
    left = space({"a": Fraction(1, 3), "b": Fraction(2, 3)})
    sp = product_space(left, space({"only": Fraction(1)}))
    assert sp.weights == {("a", "only"): Fraction(1, 3), ("b", "only"): Fraction(2, 3)}


def test_product_space_multiplies_rationals():
    sp = product_space(space({"a": Fraction(1, 3), "b": Fraction(2, 3)}),
                       space({"c": Fraction(1, 4), "d": Fraction(3, 4)}))
    assert sp.weights == {
        ("a", "c"): Fraction(1, 12),
        ("a", "d"): Fraction(1, 4),
        ("b", "c"): Fraction(1, 6),
        ("b", "d"): Fraction(1, 2),
    }


def test_projection_maps_are_measure_preserving():
    left = space({"a": Fraction(1, 3), "b": Fraction(2, 3)})
    right = space({"c": Fraction(1, 4), "d": Fraction(3, 4)})
    # construction validates the preimage sums exactly; also spot-check one
    proj = projection_map(left, right, "left")
    share = sum(proj.source.weights[w] for w in proj.source.outcomes if proj(w) == "a")
    assert share == Fraction(1, 3)
    projection_map(left, right, "right")


def test_pull_back_identity_is_noop(coin):
    pulled = pull_back(coin, identity_map(coin.space))
    assert pulled.assignment == coin.assignment
    assert pulled.pmf == coin.pmf


def test_pull_back_along_projection_preserves_pmf(three_point):
    _, x, y = three_point
    aux = space({"z1": Fraction(1, 4), "z2": Fraction(3, 4)})
    proj = projection_map(x.space, aux, "left")
    assert pull_back(x, proj).pmf == x.pmf
    assert pull_back(y, proj).pmf == y.pmf


def test_pull_back_along_refinement_preserves_pmf(rng, three_point):
    _, x, _ = three_point
    proj = random_refinement(rng, x.space)
    assert pull_back(x, proj).pmf == x.pmf


def test_refinement_map_splits_weights_by_share(three_point):
    sp, x, _ = three_point
    third = Fraction(1, 3)
    proj = refinement_map(sp, {"w1": (Fraction(1),), "w2": (third, 2 * third), "w3": (half, half)})
    assert proj.target is sp
    assert proj.source.outcomes == (
        ("w1", "s1"), ("w2", "s1"), ("w2", "s2"), ("w3", "s1"), ("w3", "s2"),
    )
    assert proj.source.weights == {
        ("w1", "s1"): Fraction(1, 6),
        ("w2", "s1"): Fraction(1, 9),
        ("w2", "s2"): Fraction(2, 9),
        ("w3", "s1"): Fraction(1, 4),
        ("w3", "s2"): Fraction(1, 4),
    }
    assert proj.mapping == {sub: sub[0] for sub in proj.source.outcomes}
    assert pull_back(x, proj).pmf == x.pmf


def test_refinement_map_rejects_shares_that_miss_one(three_point):
    sp, _, _ = three_point
    # Every outcome's shares sum to 1/2, so the sub-outcomes weigh 1/2 in all.
    with pytest.raises(NotAPmf):
        refinement_map(sp, {w: (half / 2, half / 2) for w in sp.outcomes})
    # w1 keeps half of its 1/6 and w3 takes 7/6 of its 1/2: the sub-outcomes
    # still weigh 1/12 + 1/3 + 7/12 = 1, but two preimages carry the wrong weight.
    off = {"w1": (half,), "w2": (Fraction(1),), "w3": (Fraction(7, 6),)}
    with pytest.raises(DomainMismatch):
        refinement_map(sp, off)
    with pytest.raises(DomainMismatch):
        refinement_map(sp, {"w1": (Fraction(1),), "w2": (Fraction(1),)})


def test_pull_back_rejects_wrong_target(coin, three_point):
    sp, x, _ = three_point
    with pytest.raises(DomainMismatch):
        pull_back(coin, identity_map(sp))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_pull_back_preserves_joint_tables_exactly(seed):
    # random_pullback alternates between projections and refinements
    rng = random.Random(seed)
    x, y, proj = random_pullback(rng, max_alphabet=4, max_outcomes=6)
    before = joint_table(x, y)
    after = joint_table(pull_back(x, proj), pull_back(y, proj))
    assert before == after


def test_space_rejects_bad_weight_sums():
    with pytest.raises(NotAPmf):
        space({"a": Fraction(1, 2), "b": Fraction(1, 3)})
    with pytest.raises(NotAPmf):
        space({"a": Fraction(3, 2), "b": Fraction(-1, 2)})


@pytest.mark.parametrize(
    "entries, message",
    [
        (
            [("a", half), ("b", 0.25), ("c", Fraction(3, 2)), ("d", "1/4")],
            "outcome weight b: expected Fraction, got float",
        ),
        (
            [("a", half), ("c", Fraction(3, 2)), ("b", 0.25), ("d", "1/4")],
            "outcome weight c: 3/2 outside [0, 1]",
        ),
        (
            [("d", Fraction(-1, 4)), ("a", half), ("b", 0.25), ("c", Fraction(3, 2))],
            "outcome weight d: -1/4 outside [0, 1]",
        ),
        (
            [("d", "1/4"), ("c", Fraction(3, 2)), ("a", 1), ("b", Fraction(-1, 4))],
            "outcome weight d: expected Fraction, got str",
        ),
        ([(("a", "u"), 1), ("b", half)], "outcome weight (a,u): expected Fraction, got int"),
    ],
)
def test_weight_check_names_the_first_bad_entry_in_iteration_order(entries, message):
    weights = dict(entries)
    with pytest.raises(NotAPmf) as excinfo:
        SampleSpace(tuple(weights), weights)
    assert str(excinfo.value) == message


def test_weight_check_sum_messages():
    with pytest.raises(NotAPmf) as excinfo:
        space({"a": Fraction(1, 2), "b": Fraction(1, 3)})
    assert str(excinfo.value) == "outcome weight sum is 5/6, expected exactly 1"
    with pytest.raises(NotAPmf) as excinfo:
        SampleSpace((), {})
    assert str(excinfo.value) == "outcome weight sum is 0, expected exactly 1"


def test_space_denominator_is_the_lcm_of_the_weight_denominators():
    sp = space({"a": Fraction(1, 2), "b": Fraction(1, 3), "c": Fraction(1, 6)})
    assert (sp.denominator, sp.masses) == (6, {"a": 3, "b": 2, "c": 1})
    assert list(sp.masses) == ["a", "b", "c"]
    assert space({"a": Fraction(2, 4), "b": Fraction(3, 6)}).denominator == 2
    assert space({"a": Fraction(1), "b": Fraction(0)}).masses == {"a": 1, "b": 0}


def test_space_rejects_duplicate_or_uncovered_outcomes():
    cases = [
        (("a", "a", "b"), {"a": half, "b": half}, "duplicate outcomes in sample space"),
        (("a", "b"), {"a": Fraction(1)}, "weight map does not cover exactly the outcome set"),
        (("a",), {"a": half, "b": half}, "weight map does not cover exactly the outcome set"),
        (("a", "b"), {"a": half, "c": half}, "weight map does not cover exactly the outcome set"),
    ]
    for outcomes, weights, message in cases:
        with pytest.raises(NotAPmf) as excinfo:
            SampleSpace(outcomes, weights)
        assert str(excinfo.value) == message


def test_assignment_and_mapping_must_match_the_outcomes_exactly(coin_space):
    with pytest.raises(AlphabetMismatch):
        variable(coin_space, {"w1": "h", "w2": "t", "w3": "t"})
    with pytest.raises(AlphabetMismatch):
        variable(coin_space, {"w1": "h", "w3": "t"})
    with pytest.raises(DomainMismatch):
        MeasurePreservingMap(coin_space, coin_space, {"w1": "w1", "w2": "w2", "w3": "w1"})
    with pytest.raises(DomainMismatch):
        MeasurePreservingMap(coin_space, coin_space, {"w1": "w1"})


def test_space_coerces_int_and_string_weights():
    half = Fraction(1, 2)
    mixed = space({"a": 0, "b": "1/4", "c": Fraction(1, 4), "d": half})
    exact = space({"a": Fraction(0), "b": Fraction(1, 4), "c": Fraction(1, 4), "d": half})
    assert mixed == exact
    assert all(type(value) is Fraction for value in mixed.weights.values())
    assert mixed.weights["d"] is half


def test_space_allows_zero_weight_outcomes():
    sp = space({"a": Fraction(1), "b": Fraction(0)})
    x = variable(sp, {"a": "u", "b": "v"})
    assert x.pmf == {"u": Fraction(1), "v": Fraction(0)}
    assert x.alphabet == ("u", "v")


def test_variable_requires_total_assignment(coin_space):
    with pytest.raises(AlphabetMismatch):
        variable(coin_space, {"w1": "h"})


def test_measure_preserving_map_validation(coin_space):
    bad_source = space({"s1": Fraction(1, 4), "s2": Fraction(3, 4)})
    with pytest.raises(DomainMismatch):
        MeasurePreservingMap(bad_source, coin_space, {"s1": "w1", "s2": "w2"})


def test_structural_space_equality_counts_as_shared():
    a1 = space({"w": Fraction(1)})
    a2 = space({"w": Fraction(1)})
    x = variable(a1, {"w": "u"})
    y = variable(a2, {"w": "v"})
    assert joint_table(x, y)["u", "v"] == 1


def test_canonical_variable_round_trip():
    dist = {"a": Fraction(2, 5), "b": Fraction(3, 5)}
    x = canonical_variable(dist)
    assert x.pmf == dist
    assert x.alphabet == ("a", "b")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_generated_spaces_and_variables_are_exact(seed):
    rng = random.Random(seed)
    x, y = random_pair(rng)
    assert sum(x.space.weights.values()) == 1
    assert sum(x.pmf.values()) == 1
    assert sum(y.pmf.values()) == 1
    assert set(x.assignment.values()) == set(x.alphabet)
