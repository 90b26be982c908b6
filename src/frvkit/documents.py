"""Instance documents: the JSON wire format for spaces and variables.

Probabilities travel as exact ``"num/den"`` strings of ASCII digits; floats
appear only in computed reports, never in probability data.  No object may
repeat a key.  A document is either

- a space form::

    {"version": 1,
     "space": {"outcomes": ["w1", "w2"], "weights": {"w1": "1/2", "w2": "1/2"}},
     "variables": {"X": {"w1": "h", "w2": "t"}}}

- or a joint-table shorthand that expands to the canonical space on the
  label product with the two coordinate variables named X and Y::

    {"version": 1,
     "joint": {"rows": ["a", "b"], "cols": ["u", "v"],
               "cells": [["1/3", "1/6"], ["1/6", "1/3"]]}}

Outcome keys in the space form are strings.  Label values may be strings or
nested arrays (constructed labels are tuples).  Weight and assignment maps
may also be given as ``[[key, value], ...]`` pair lists, which is the form
the serializer falls back to when keys are not plain strings.

Serialization is canonical (sorted keys, two-space indent, trailing
newline), so parsing a canonical document and serializing it again is
byte-identical.  Its text is ``json.dumps(indent=2, sort_keys=True)``'s, byte
for byte, from a small encoder that avoids ``json``'s pure-Python path.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_string
from math import isfinite
from typing import Dict, Mapping, Tuple

from .core import FiniteRandomVariable, SampleSpace, canonical_pair
from .errors import DocumentError, FrvError
from .labels import Label, decode_label, encode_label, label_key

DOCUMENT_VERSION = 1
# ``[0-9]``, not ``\d``: a str pattern's ``\d`` also matches non-ASCII digits.
_RATIONAL = re.compile(r"[0-9]+/[0-9]+")


def format_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text, path: str) -> Fraction:
    """The exact value of a ``"num/den"`` string: ASCII digits, a slash and
    ASCII digits, with no sign, space, underscore, decimal point or
    exponent."""
    if not isinstance(text, str) or not _RATIONAL.fullmatch(text):
        raise DocumentError(path, f"expected a \"num/den\" string of ASCII digits, got {text!r}")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(path, f"invalid rational {text!r}: {exc}") from None
    return value


def _parse_probability(text, path: str) -> Fraction:
    value = parse_rational(text, path)
    if value < 0 or value > 1:
        raise DocumentError(path, f"probability {text!r} outside [0, 1]")
    return value


def _decode_label(obj, path: str) -> Label:
    try:
        return decode_label(obj)
    except TypeError as exc:
        raise DocumentError(path, str(exc)) from None


def encode_keyed_map(mapping: Mapping[Label, object]) -> object:
    """Object map when every key is a plain string, else a sorted pair list."""
    if all(isinstance(key, str) for key in mapping):
        return {key: mapping[key] for key in sorted(mapping)}
    ordered = sorted(mapping, key=label_key)
    return [[encode_label(key), mapping[key]] for key in ordered]


def decode_keyed_map(obj, path: str) -> Dict[Label, object]:
    if isinstance(obj, dict):
        return dict(obj)
    if isinstance(obj, list):
        out: Dict[Label, object] = {}
        for i, entry in enumerate(obj):
            if not (isinstance(entry, list) and len(entry) == 2):
                raise DocumentError(f"{path}[{i}]", "expected a [key, value] pair")
            key = _decode_label(entry[0], f"{path}[{i}]")
            if key in out:
                raise DocumentError(f"{path}[{i}]", "duplicate key")
            out[key] = entry[1]
        return out
    raise DocumentError(path, "expected an object or a pair list")


def space_document(sp: SampleSpace) -> dict:
    return {
        "outcomes": [encode_label(w) for w in sp.outcomes],
        "weights": encode_keyed_map(
            {w: format_rational(sp.weights[w]) for w in sp.outcomes}
        ),
    }


def parse_space(obj, path: str = "space") -> SampleSpace:
    if not isinstance(obj, dict):
        raise DocumentError(path, "expected an object")
    raw_outcomes = obj.get("outcomes")
    if not isinstance(raw_outcomes, list) or not raw_outcomes:
        raise DocumentError(f"{path}.outcomes", "expected a non-empty array")
    outcomes = tuple(
        _decode_label(w, f"{path}.outcomes[{i}]") for i, w in enumerate(raw_outcomes)
    )
    raw_weights = obj.get("weights")
    if raw_weights is None:
        raise DocumentError(f"{path}.weights", "missing")
    weights = {
        key: _parse_probability(value, f"{path}.weights.{key}")
        for key, value in decode_keyed_map(raw_weights, f"{path}.weights").items()
    }
    try:
        return SampleSpace(outcomes, weights)
    except FrvError as exc:
        raise DocumentError(path, str(exc)) from None


def variable_document(x: FiniteRandomVariable) -> object:
    return encode_keyed_map(
        {w: encode_label(x.assignment[w]) for w in x.space.outcomes}
    )


def parse_variable(obj, sp: SampleSpace, path: str) -> FiniteRandomVariable:
    assignment = {
        outcome: _decode_label(value, f"{path}.{outcome}")
        for outcome, value in decode_keyed_map(obj, path).items()
    }
    try:
        return FiniteRandomVariable(sp, assignment)
    except FrvError as exc:
        raise DocumentError(path, str(exc)) from None


def instance_document(sp: SampleSpace, variables: Mapping[str, FiniteRandomVariable]) -> dict:
    """The canonical space-form document for named variables on one space."""
    return {
        "version": DOCUMENT_VERSION,
        "space": space_document(sp),
        "variables": {name: variable_document(variables[name]) for name in sorted(variables)},
    }


def _expand_joint_shorthand(obj, path: str) -> Tuple[SampleSpace, Dict[str, FiniteRandomVariable]]:
    if not isinstance(obj, dict):
        raise DocumentError(path, "expected an object")
    rows = obj.get("rows")
    cols = obj.get("cols")
    cells = obj.get("cells")
    if not isinstance(rows, list) or not rows:
        raise DocumentError(f"{path}.rows", "expected a non-empty array of labels")
    if not isinstance(cols, list) or not cols:
        raise DocumentError(f"{path}.cols", "expected a non-empty array of labels")
    if not isinstance(cells, list) or len(cells) != len(rows):
        raise DocumentError(f"{path}.cells", f"expected {len(rows)} rows")
    row_labels = [_decode_label(r, f"{path}.rows") for r in rows]
    col_labels = [_decode_label(c, f"{path}.cols") for c in cols]
    for labels, key in ((row_labels, "rows"), (col_labels, "cols")):
        if len(set(labels)) != len(labels):
            raise DocumentError(f"{path}.{key}", "duplicate label")
    joint = {}
    for i, row in enumerate(cells):
        if not isinstance(row, list) or len(row) != len(cols):
            raise DocumentError(f"{path}.cells[{i}]", f"expected {len(cols)} entries")
        for j, entry in enumerate(row):
            joint[row_labels[i], col_labels[j]] = _parse_probability(
                entry, f"{path}.cells[{i}][{j}]"
            )
    try:
        first, second = canonical_pair(joint)
    except FrvError as exc:
        raise DocumentError(path, str(exc)) from None
    return first.space, {"X": first, "Y": second}


def parse_instance_document(obj) -> Tuple[SampleSpace, Dict[str, FiniteRandomVariable]]:
    """Parse either document form; variables keep their document order."""
    if not isinstance(obj, dict):
        raise DocumentError("", "document must be a JSON object")
    version = obj.get("version")
    if version != DOCUMENT_VERSION:
        raise DocumentError("version", f"expected {DOCUMENT_VERSION}, got {version!r}")
    if "joint" in obj:
        return _expand_joint_shorthand(obj["joint"], "joint")
    if "space" not in obj:
        raise DocumentError("space", "missing (and no joint shorthand given)")
    sp = parse_space(obj["space"])
    raw_vars = obj.get("variables")
    if not isinstance(raw_vars, dict) or not raw_vars:
        raise DocumentError("variables", "expected a non-empty object of named variables")
    variables = {
        name: parse_variable(raw, sp, f"variables.{name}")
        for name, raw in raw_vars.items()
    }
    return sp, variables


def serialize_document(doc: dict) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, byte for byte,
    without the pure-Python encoder that ``json`` selects for any indent."""
    chunks: list = []
    _encode(doc, "\n", chunks)
    chunks.append("\n")
    return "".join(chunks)


def _encode(value, newline: str, chunks: list) -> None:
    """Append the JSON text of ``value``, each line after its first led by
    ``newline``, spelled as ``json`` spells it."""
    if isinstance(value, str):
        chunks.append(_encode_string(value))
    elif value is None or value is True or value is False:  # bool before int
        chunks.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        chunks.append(int.__repr__(value))
    elif isinstance(value, float):
        chunks.append(float.__repr__(value) if isfinite(value) else
                      "NaN" if value != value else "Infinity" if value > 0 else "-Infinity")
    elif isinstance(value, (list, tuple)) or (
        isinstance(value, dict) and all(isinstance(key, str) for key in value)
    ):
        is_dict = isinstance(value, dict)
        brackets = "{}" if is_dict else "[]"
        if not value:
            chunks.append(brackets)
            return
        inner = newline + "  "
        separator = brackets[0] + inner
        for key in sorted(value) if is_dict else range(len(value)):
            chunks.append(f"{separator}{_encode_string(key)}: " if is_dict else separator)
            _encode(value[key], inner, chunks)
            separator = "," + inner
        chunks.append(newline + brackets[1])
    else:
        # Non-string keys, or a value json refuses: json's own text (or error).
        chunks.append(json.dumps(value, indent=2, sort_keys=True).replace("\n", newline))


def _unique_keys(pairs):
    """A JSON object's dict; a repeated key is an error, not last-wins."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise DocumentError("", f"duplicate object key {key!r}")
            seen.add(key)
    return obj


def load_document(text: str):
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"line {exc.lineno}, column {exc.colno}", exc.msg) from None
    except (ValueError, RecursionError) as exc:
        # Integer literals past the digit limit, or nesting past the recursion limit.
        raise DocumentError("", str(exc)) from None


def pmf_document(pmf: Mapping[Label, Fraction]) -> object:
    return encode_keyed_map(
        {lab: format_rational(mass) for lab, mass in pmf.items()}
    )
