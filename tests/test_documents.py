import json
import math
from fractions import Fraction

import pytest

from frvkit import DocumentError, generate_markov_triangle
from frvkit.axioms import PullbackInstance, triangle_document
from frvkit.documents import (
    decode_keyed_map,
    encode_keyed_map,
    format_rational,
    load_document,
    parse_instance_document,
    parse_rational,
    parse_space,
    serialize_document,
)
from frvkit.generators import random_refinement
import random


def test_rational_codec_round_trip():
    for text in ("0/1", "1/2", "17/24", "1/1"):
        assert format_rational(parse_rational(text, "here")) == text


def test_parse_rational_rejects_garbage():
    lax = (" 1/2", "+1/2", "1_0/2_0", "0.5", "1/2 ", "\u0661/\u0662", "1e-1", "3", "-1/2", "1/2\n")
    for bad in ("1/0", "h/t", 0.5, None, *lax):
        with pytest.raises(DocumentError):
            parse_rational(bad, "field")


def test_keyed_map_uses_pair_list_for_tuple_keys():
    encoded = encode_keyed_map({("a", "b"): "1/2", "c": "1/2"})
    assert isinstance(encoded, list)
    decoded = decode_keyed_map(encoded, "weights")
    assert decoded == {("a", "b"): "1/2", "c": "1/2"}


def test_keyed_map_rejects_duplicates_and_shapes():
    with pytest.raises(DocumentError):
        decode_keyed_map([["a", "1/2"], ["a", "1/2"]], "weights")
    with pytest.raises(DocumentError):
        decode_keyed_map([["a"]], "weights")
    with pytest.raises(DocumentError):
        decode_keyed_map("nope", "weights")


def test_triangle_document_with_tuple_labels_round_trips():
    # family-a triangles carry pair labels on the middle variable
    t = generate_markov_triangle(21, family="a")
    doc = triangle_document(t)
    _, variables = parse_instance_document(load_document(serialize_document(doc)))
    assert variables["Y"].assignment == t.y.assignment
    assert variables["Y"].alphabet == t.y.alphabet


def test_refined_space_document_round_trips():
    # refinement sources have tuple outcomes, forcing the pair-list form
    t = generate_markov_triangle(3, family="b")
    proj = random_refinement(random.Random(0), t.x.space)
    doc = PullbackInstance(t.x, t.y, proj).as_document()
    source = parse_space(doc["map"]["source_space"], "map.source_space")
    assert source == proj.source


def test_version_and_shape_errors():
    with pytest.raises(DocumentError):
        parse_instance_document({"version": 2, "space": {}})
    with pytest.raises(DocumentError):
        parse_instance_document({"version": 1})
    with pytest.raises(DocumentError):
        parse_instance_document(
            {"version": 1, "joint": {"rows": ["a"], "cols": ["u"], "cells": []}}
        )
    with pytest.raises(DocumentError):
        parse_instance_document(
            {
                "version": 1,
                "space": {"outcomes": ["w"], "weights": {"w": "1/1"}},
                "variables": {},
            }
        )


def test_joint_shorthand_rejects_repeated_labels():
    # Repeats would otherwise merge into fewer cells instead of failing.
    for rows, cols, cells in (
        (["a", "a"], ["u"], [["0/1"], ["1/1"]]),
        (["a"], ["u", "u"], [["0/1", "1/1"]]),
    ):
        with pytest.raises(DocumentError):
            parse_instance_document(
                {"version": 1, "joint": {"rows": rows, "cols": cols, "cells": cells}}
            )


def test_load_document_reports_position():
    with pytest.raises(DocumentError) as excinfo:
        load_document("{broken")
    assert "line 1" in str(excinfo.value)


def test_non_label_values_are_document_errors():
    # numbers are not labels; must surface as a diagnostic, not a TypeError
    with pytest.raises(DocumentError) as excinfo:
        parse_instance_document(
            {
                "version": 1,
                "space": {
                    "outcomes": ["w1", "w2"],
                    "weights": {"w1": "1/2", "w2": "1/2"},
                },
                "variables": {"X": {"w1": 5, "w2": "a"}},
            }
        )
    assert "variables.X" in str(excinfo.value)


def test_assignment_must_be_total():
    with pytest.raises(DocumentError) as excinfo:
        parse_instance_document(
            {
                "version": 1,
                "space": {
                    "outcomes": ["w1", "w2"],
                    "weights": {"w1": "1/2", "w2": "1/2"},
                },
                "variables": {"X": {"w1": "a"}},
            }
        )
    assert "variables.X" in str(excinfo.value)



ORACLE_TREES = 3000
ODD_FLOATS = (-0.0, 0.0, 1e16, 5e-324, 1.5, -2.25e-8, 1e308, math.nan, math.inf, -math.inf)
ODD_INTS = (0, -1, 2**53 + 1, 10**40, -(10**40))
ODD_STRINGS = ("", "a", "1/2", "caf\u00e9", "\u0661/\u0662", "\U0001f600", "\x00\x1f\t\n\r\x7f", '"', "\\", " ")


def _random_json(rng: random.Random, depth: int = 0):
    """A random tree of values ``json.dumps`` accepts: nested dicts, lists
    and tuples, possibly empty, over odd scalars and strings."""
    kind = rng.randrange(9 if depth < 4 else 5)
    if kind == 0:
        return rng.choice((None, True, False, *ODD_INTS, rng.randrange(-1000, 1000)))
    if kind == 1:
        return rng.choice((*ODD_FLOATS, rng.uniform(-1e6, 1e6), rng.random()))
    if kind in (2, 3, 4):
        tail = "".join(chr(rng.randrange(0x2FF)) for _ in range(rng.randrange(4)))
        return rng.choice(ODD_STRINGS) + tail
    size = rng.choice((0, 1, 2, 5))
    if kind in (5, 6):
        return {
            rng.choice(ODD_STRINGS) + str(rng.randrange(50)): _random_json(rng, depth + 1)
            for _ in range(size)
        }
    items = [_random_json(rng, depth + 1) for _ in range(size)]
    return tuple(items) if kind == 7 else items


def test_serialize_document_matches_json_dumps_byte_for_byte():
    rng = random.Random("serializer/oracle")
    fixed = [
        {}, [], (), {"a": {}, "b": [], "c": ()}, -0.0, 1e16, 5e-324, 10**40, True, False, None,
        [math.nan, math.inf, -math.inf], {"\u00e9\x00\"\\": ["\U0001f600", "\x1f"]},
        {"z": 1, "a": [1, (2, [3, {}])], "m": {"y": True, "x": None}},
    ]
    trees = fixed + [_random_json(rng) for _ in range(ORACLE_TREES)]
    for tree in trees:
        assert serialize_document(tree) == json.dumps(tree, indent=2, sort_keys=True) + "\n", tree


def test_serialize_document_hands_other_values_to_json():
    for nested in ({"b": {2: "x", 1: [True]}, "a": [{2.5: {}, -1.0: 1}]}, [[{None: ()}], {False: 0}]):
        assert serialize_document(nested) == json.dumps(nested, indent=2, sort_keys=True) + "\n"
    for bad in ({"a": {1, 2}}, [object()], {"a": {("k",): 1}}):
        with pytest.raises(TypeError):
            serialize_document(bad)
