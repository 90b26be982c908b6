import math
import random
from decimal import Decimal
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
    conditional_entropy,
    constant_variable,
    entropy,
    identity_map,
    joint_entropy,
    joint_rows,
    joint_table,
    mutual_information,
    product_space,
    projection_map,
    pull_back,
    refinement_map,
    space,
    variable,
)
from frvkit.core import MeasurePreservingMap, SampleSpace
from frvkit.generators import random_pair, random_pullback, random_refinement
from frvkit.labels import label_text

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
        (("b", "a", "a"), {"a": half, "b": half}, "duplicate outcomes in sample space"),
        (["a", "b", "b"], {"a": half, "b": half}, "duplicate outcomes in sample space"),
        (("a", "b"), {"a": Fraction(1)}, "weight map does not cover exactly the outcome set"),
        (["a", "b"], {"a": Fraction(1)}, "weight map does not cover exactly the outcome set"),
        (("a",), {"a": half, "b": half}, "weight map does not cover exactly the outcome set"),
        (("b",), {"a": half, "b": half}, "weight map does not cover exactly the outcome set"),
        (("a", "b"), {"a": half, "c": half}, "weight map does not cover exactly the outcome set"),
        (("c", "a"), {"a": half, "b": half}, "weight map does not cover exactly the outcome set"),
    ]
    for outcomes, weights, message in cases:
        with pytest.raises(NotAPmf) as excinfo:
            SampleSpace(outcomes, weights)
        assert str(excinfo.value) == message


def test_assignment_and_mapping_must_match_the_outcomes_exactly(coin_space):
    message = "assignment is not total on the outcome set"
    for assignment in (
        {"w1": "h", "w2": "t", "w3": "t"},
        {"w3": "t", "w2": "t", "w1": "h"},
        {"w1": "h", "w3": "t"},
        {"w3": "t", "w1": "h"},
        {"w2": "t"},
    ):
        with pytest.raises(AlphabetMismatch) as excinfo:
            variable(coin_space, assignment)
        assert str(excinfo.value) == message
    listed = SampleSpace(list(coin_space.outcomes), dict(coin_space.weights))
    with pytest.raises(AlphabetMismatch) as excinfo:
        variable(listed, {"w1": "h", "w3": "t"})
    assert str(excinfo.value) == message
    with pytest.raises(DomainMismatch):
        MeasurePreservingMap(coin_space, coin_space, {"w1": "w1", "w2": "w2", "w3": "w1"})
    with pytest.raises(DomainMismatch):
        MeasurePreservingMap(coin_space, coin_space, {"w1": "w1"})


def _entropy_hexes(x, y):
    return [
        value.hex()
        for base in (2, math.e, 10)
        for value in (
            entropy(x.pmf, base),
            entropy(y.pmf, base),
            joint_entropy(x, y, base),
            conditional_entropy(x, y, base),
            conditional_entropy(y, x, base),
            mutual_information(x, y, base),
        )
    ]


def _shuffled(rng, mapping):
    items = list(mapping.items())
    rng.shuffle(items)
    return dict(items)


def test_spaces_and_variables_built_out_of_key_order_match_the_in_order_build():
    rng = random.Random(26)
    for _ in range(40):
        x0, y0 = random_pair(rng)
        weights = dict(x0.space.weights)
        permuted = list(weights)
        rng.shuffle(permuted)
        builds = {
            "in order": SampleSpace(tuple(weights), weights),
            "permuted": SampleSpace(tuple(permuted), weights),
            "list": SampleSpace(list(weights), weights),
        }
        reference = builds["in order"]
        expected = None
        for how, sp in builds.items():
            assert (sp.denominator, sp.masses) == (reference.denominator, reference.masses), how
            for xs, ys in (
                (x0.assignment, y0.assignment),
                (_shuffled(rng, x0.assignment), _shuffled(rng, y0.assignment)),
            ):
                x, y = variable(sp, xs), variable(sp, ys)
                assert (x.masses, y.masses) == (x0.masses, y0.masses), how
                hexes = _entropy_hexes(x, y)
                expected = expected or hexes
                assert hexes == expected, how


def _listed_and_tupled():
    """One space built from a list of outcomes and again from a tuple."""
    weights = {"a": Fraction(1, 3), "b": Fraction(2, 3)}
    return SampleSpace(list(weights), weights), SampleSpace(tuple(weights), weights)


def test_spaces_built_from_a_list_or_a_tuple_of_outcomes_are_equal():
    listed, tupled = _listed_and_tupled()
    assert listed == tupled
    assert listed.outcomes == ("a", "b")


def test_variables_on_spaces_built_from_a_list_and_a_tuple_share_a_joint_table():
    listed, tupled = _listed_and_tupled()
    x = variable(listed, {"a": "u", "b": "v"})
    y = variable(tupled, {"a": "s", "b": "t"})
    assert joint_rows(x, y) == {"u": {"s": 1}, "v": {"t": 2}}


def test_a_space_built_from_a_list_of_outcomes_cannot_be_changed_through_it():
    listed, _ = _listed_and_tupled()
    with pytest.raises(AttributeError):
        listed.outcomes.append("c")
    assert listed.outcomes == ("a", "b")


class _Exact(Fraction):
    """A ``Fraction`` subclass, which ``space`` stores as a plain one."""


def test_space_coerces_int_and_string_weights():
    half = Fraction(1, 2)
    mixed = space({"a": 0, "b": "1/4", "c": Fraction(1, 4), "d": half})
    exact = space({"a": Fraction(0), "b": Fraction(1, 4), "c": Fraction(1, 4), "d": half})
    assert mixed == exact
    assert all(type(value) is Fraction for value in mixed.weights.values())
    assert mixed.weights["d"] is half
    assert exact.weights["d"] is half and exact.weights["c"] == Fraction(1, 4)
    sub = space({"a": _Exact(1, 2), "b": half})
    assert type(sub.weights["a"]) is Fraction and sub.weights["a"] == half
    assert sub == space({"a": half, "b": half})
    for weights in ({"a": half, "b": half}, {"a": half, "b": "1/2"}):
        sp = space(weights)
        before = (sp.outcomes, dict(sp.weights), sp.denominator, dict(sp.masses))
        weights["a"] = Fraction(1)
        weights["c"] = Fraction(0)
        del weights["b"]
        assert (sp.outcomes, sp.weights, sp.denominator, sp.masses) == before


@pytest.mark.parametrize(
    "weights, kind",
    [
        ({"a": 0.5, "b": 0.5}, "float"),
        ({"a": Fraction(1, 10), "b": 0.9}, "float"),
        ({"a": True}, "bool"),
        ({"a": 0, "b": False, "c": 1}, "bool"),
        ({("a", "u"): Decimal("0.5"), "b": half}, "Decimal"),
        ({"a": "1/2", "b": 0.25, "c": True, "d": "1/4"}, "float"),
    ],
)
def test_space_rejects_weights_that_are_not_fraction_int_or_string(weights, kind):
    first = next(k for k, v in weights.items() if type(v).__name__ == kind)
    with pytest.raises(NotAPmf) as excinfo:
        space(weights)
    assert str(excinfo.value) == (
        f'outcome weight {label_text(first)}: expected Fraction, int or "num/den" string, '
        f"got {kind}"
    )


def test_space_decodes_each_exact_weight_once_and_makes_no_fraction(monkeypatch):
    rng = random.Random(11)
    for n in (1, 7, 64):
        masses = [rng.randint(0, 9) for _ in range(n - 1)] + [1]
        weights = {f"w{k}": Fraction(m, sum(masses)) for k, m in enumerate(masses)}
        counts = {"decoded": 0, "made": 0}
        ratio, new = Fraction.as_integer_ratio, Fraction.__new__

        def counted_ratio(self):
            counts["decoded"] += 1
            return ratio(self)

        def counted_new(cls, *args, **kwargs):
            counts["made"] += 1
            return new(cls, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Fraction, "as_integer_ratio", counted_ratio)
            patch.setattr(Fraction, "__new__", counted_new)
            sp = space(weights)
            Fraction(1, 3)  # the counter sees what is made while patched
        assert counts == {"decoded": n, "made": 1}, n
        assert sp.weights == weights


def test_space_masses_match_an_lcm_over_every_denominator():
    rng = random.Random(941)
    maps = []
    for _ in range(60):
        total = rng.choice((6, 12, 24, 60))
        cuts = sorted(rng.randint(0, total) for _ in range(rng.randint(0, 12)))
        parts = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
        maps.append({f"w{k}": Fraction(part, total) for k, part in enumerate(parts)})
    primes = [p for p in range(101, 400) if all(p % q for q in range(2, p))][:25]
    reciprocals = {f"p{p}": Fraction(1, p) for p in primes}
    reciprocals["rest"] = 1 - sum(reciprocals.values())
    maps.append(reciprocals)
    maps.append({"zero": Fraction(0), "one": Fraction(1), "also zero": Fraction(0)})
    for weights in maps:
        denominator = math.lcm(*(value.denominator for value in weights.values()))
        masses = {
            key: value.numerator * (denominator // value.denominator)
            for key, value in weights.items()
        }
        sp = space(weights)
        assert (sp.denominator, sp.masses) == (denominator, masses)
        assert list(sp.masses) == list(weights)
    assert space(reciprocals).denominator == math.prod(primes)
    assert any(len({v.denominator for v in weights.values()}) < len(weights) for weights in maps)


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
