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
