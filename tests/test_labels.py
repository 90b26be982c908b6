import random

import pytest

from frvkit.labels import label_key, sort_labels


def _word(rng):
    """A short string over a small alphabet, so that prefixes and equal
    words are common; the empty string included."""
    return "".join(rng.choice("ab_Zé") for _ in range(rng.randint(0, 3)))


def _label(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        return _word(rng)
    return tuple(_label(rng, depth - 1) for _ in range(rng.randint(0, 3)))


SHAPES = {
    "strings": _word,
    "string tuples": lambda rng: tuple(_word(rng) for _ in range(rng.randint(0, 4))),
    "nested tuples": lambda rng: tuple(_label(rng, 2) for _ in range(rng.randint(0, 3))),
    "strings and tuples": lambda rng: _label(rng, 3),
    # The built-in sort raises only at a nested position, e.g. on
    # ("a", "b") against ("a", ("b",)).
    "nested type mix": lambda rng: (
        rng.choice("ab"),
        rng.choice([_word(rng), (_word(rng),), (_word(rng), _word(rng))]),
    ),
    "strings and string tuples": lambda rng: rng.choice(
        [_word(rng), tuple(_word(rng) for _ in range(rng.randint(0, 2)))]
    ),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_sort_labels_is_the_label_key_order(shape):
    rng = random.Random(f"labels/{shape}")
    for _ in range(300):
        labels = [SHAPES[shape](rng) for _ in range(rng.randint(0, 12))]
        expected = sorted(labels, key=label_key)
        assert sort_labels(labels) == expected, labels
        assert sort_labels(set(labels)) == sorted(set(labels), key=label_key)
        assert sort_labels(iter(labels)) == expected


def test_sort_labels_fixed_cases():
    pairs = [("a", "b"), ("a",), (), ("a", "b", "c"), ("b",), ("",), ("a", "")]
    assert sort_labels(pairs) == [(), ("",), ("a",), ("a", ""), ("a", "b"), ("a", "b", "c"), ("b",)]
    mixed = [("a",), "b", ("a", ("b",)), "", (("a",),), ("a", "b")]
    assert sort_labels(mixed) == ["", "b", ("a",), ("a", "b"), ("a", ("b",)), (("a",),)]
    assert sort_labels(mixed) == sorted(mixed, key=label_key)
    assert sort_labels([]) == []
    nested = [("a", ("b",)), ("b", "a"), ("a", "b")]
    with pytest.raises(TypeError):
        sorted(nested)
    assert sort_labels(nested) == [("a", "b"), ("a", ("b",)), ("b", "a")]
    assert sort_labels(iter(nested)) == sorted(nested, key=label_key)
