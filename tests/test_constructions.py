import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frvkit import (
    AlphabetMismatch,
    DomainMismatch,
    NotAPmf,
    PmfSequence,
    canonical_product,
    constant_variable,
    convex_sum,
    convex_sum_pairs,
    entropy,
    mixture_distribution,
    mutual_information,
    relabel,
    space,
    tag_label,
    variable,
)
from frvkit.generators import random_bijection, random_mixture, random_pair

half = Fraction(1, 2)
quarter = Fraction(1, 4)


def test_convex_sum_single_component_is_tagging_only(coin):
    mixed = convex_sum({"m": Fraction(1)}, {"m": coin})
    assert mixed.pmf == {("m", "h"): half, ("m", "t"): half}


def test_convex_sum_hand_computed_pmf(coin_space, coin):
    const = constant_variable(coin_space, "k")
    mixed = convex_sum({"0": half, "1": half}, {"0": coin, "1": const})
    assert mixed.pmf == {
        ("0", "h"): quarter,
        ("0", "t"): quarter,
        ("1", "k"): half,
    }


def test_convex_sum_requires_pmf_weights(coin):
    with pytest.raises(NotAPmf):
        convex_sum({"m": half}, {"m": coin})


invalid_mixture_weights = pytest.mark.parametrize(
    "weights",
    [{"0": 1, "1": 0}, {"0": Fraction(3, 2), "1": -half}, {"0": half, "1": quarter}],
    ids=["int", "negative", "non-summing"],
)


@invalid_mixture_weights
def test_convex_sum_rejects_invalid_mixture_weights(coin, weights):
    with pytest.raises(NotAPmf):
        convex_sum(weights, {"0": coin, "1": coin})


@invalid_mixture_weights
def test_mixture_distribution_rejects_invalid_mixture_weights(coin, weights):
    with pytest.raises(NotAPmf):
        mixture_distribution(weights, {"0": coin.pmf, "1": coin.pmf})


def test_convex_sum_requires_common_space(coin):
    other = space({"w1": half, "w2": half})
    y = variable(other, {"w1": "u", "w2": "u"})
    # structurally equal spaces are fine; a genuinely different one is not
    convex_sum({"0": half, "1": half}, {"0": coin, "1": y})
    different = space({"v1": half, "v2": half})
    z = variable(different, {"v1": "u", "v2": "u"})
    with pytest.raises(DomainMismatch):
        convex_sum({"0": half, "1": half}, {"0": coin, "1": z})


def test_convex_sum_requires_matching_index_sets(coin):
    with pytest.raises(AlphabetMismatch):
        convex_sum({"0": half, "1": half}, {"0": coin})


def test_convex_sum_keeps_zero_weight_components(coin_space, coin):
    const = constant_variable(coin_space, "k")
    mixed = convex_sum({"0": Fraction(1), "1": Fraction(0)}, {"0": coin, "1": const})
    assert mixed.pmf[("1", "k")] == 0
    assert ("1", "k") in mixed.alphabet


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_convex_sum_pmf_is_exact_product(seed):
    rng = random.Random(seed)
    weights, pairs = random_mixture(rng)
    family = {tag: pair[0] for tag, pair in pairs.items()}
    mixed = convex_sum(weights, family)
    for tag, component in family.items():
        for label, mass in component.pmf.items():
            assert mixed.pmf[tag_label(tag, label)] == weights[tag] * mass


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_convex_sum_entropy_grouping(seed):
    # H(mixture) = H(weights) + sum_x w(x) H(component_x)
    rng = random.Random(seed)
    weights, pairs = random_mixture(rng)
    family = {tag: pair[0] for tag, pair in pairs.items()}
    mixed = convex_sum(weights, family)
    expected = entropy(weights) + sum(
        float(weights[tag]) * entropy(family[tag].pmf) for tag in sorted(weights)
    )
    assert abs(entropy(mixed.pmf) - expected) <= 1e-9


def test_convex_sum_pairs_single_pair(coin):
    first, second = convex_sum_pairs({"m": Fraction(1)}, {"m": (coin, coin)})
    assert first.assignment == second.assignment
    assert mutual_information(first, second) == 1.0


def test_convex_sum_pairs_halves_share_one_mixture_space(coin_space, coin):
    const = constant_variable(coin_space, "k")
    first, second = convex_sum_pairs(
        {"0": half, "1": half}, {"0": (coin, const), "1": (const, coin)}
    )
    assert first.space is second.space


def test_tagged_label_collision_is_rejected(coin_space, coin):
    # Tagging distributes over tuples, so the empty tuple is () under every tag.
    empty = constant_variable(coin_space, ())
    weights = {"0": half, "1": half}
    with pytest.raises(AlphabetMismatch, match="collision"):
        convex_sum(weights, {"0": empty, "1": empty})
    with pytest.raises(AlphabetMismatch, match="collision"):
        convex_sum_pairs(weights, {"0": (empty, coin), "1": (empty, coin)})
    with pytest.raises(AlphabetMismatch, match="collision"):
        convex_sum_pairs(weights, {"0": (coin, empty), "1": (coin, empty)})


def test_convex_sum_pairs_rejects_an_empty_family():
    with pytest.raises(AlphabetMismatch):
        convex_sum_pairs({}, {})


def test_convex_sum_pairs_hand_value(coin_space, coin):
    const = constant_variable(coin_space, "k")
    first, second = convex_sum_pairs(
        {"0": half, "1": half}, {"0": (coin, coin), "1": (const, const)}
    )
    assert mutual_information(first, second) == pytest.approx(1.5, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_product_of_convex_sums_is_convex_sum_of_products(seed):
    # both sides must be the same function, label for label
    rng = random.Random(seed)
    weights, pairs = random_mixture(rng)
    lhs = convex_sum(
        weights, {tag: canonical_product(*pair) for tag, pair in pairs.items()}
    )
    rhs = canonical_product(*convex_sum_pairs(weights, pairs))
    assert lhs.space == rhs.space
    assert lhs.assignment == rhs.assignment
    assert lhs.alphabet == rhs.alphabet


def test_relabel_identity(coin):
    assert relabel(coin, {"h": "h", "t": "t"}).assignment == coin.assignment


def test_relabel_coin_to_bits(coin):
    relabeled = relabel(coin, {"h": "0", "t": "1"})
    assert relabeled.pmf == {"0": half, "1": half}


def test_relabel_requires_matching_alphabet(coin):
    with pytest.raises(AlphabetMismatch):
        relabel(coin, {"x": "y"})


def test_relabel_rejects_non_bijection(coin):
    with pytest.raises(AlphabetMismatch):
        relabel(coin, {"h": "0", "t": "0"})


@pytest.mark.parametrize(
    "mapping",
    [{"h": "0"}, {"h": "0", "t": "1", "x": "2"}],
    ids=["misses_a_label", "extra_key"],
)
def test_relabel_rejects_mappings_that_miss_or_add_a_label(coin, mapping):
    with pytest.raises(AlphabetMismatch):
        relabel(coin, mapping)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_relabel_preserves_entropy_to_the_last_bit(seed):
    rng = random.Random(seed)
    x, y = random_pair(rng)
    f = random_bijection(rng, x.alphabet)
    g = random_bijection(rng, y.alphabet)
    assert entropy(relabel(x, f).pmf) == entropy(x.pmf)
    assert mutual_information(relabel(x, f), relabel(y, g)) == mutual_information(x, y)


def test_mixture_distribution_matches_variable_level(coin_space, coin):
    const = constant_variable(coin_space, "k")
    weights = {"0": half, "1": half}
    dist = mixture_distribution(weights, {"0": coin.pmf, "1": const.pmf})
    mixed = convex_sum(weights, {"0": coin, "1": const})
    assert dist == mixed.pmf


def test_sequence_term_rejects_alphabet_drift():
    seq = PmfSequence(("a", "b"), lambda n: {"a": Fraction(1)})
    with pytest.raises(AlphabetMismatch):
        seq.term(1)


def test_sequence_term_rejects_index_below_one():
    seq = PmfSequence(("a",), lambda n: {"a": Fraction(1)})
    assert seq.term(1) == {"a": Fraction(1)}
    with pytest.raises(ValueError):
        seq.term(0)
