"""Outcome and label identifiers.

User-supplied identifiers are plain strings.  Constructed objects introduce
structure: canonical products label outcomes with pairs ``(x, y)`` and convex
sums tag labels with their mixture component, so the full identifier algebra
is "a string, or a finite tuple of identifiers".

A single total order covers mixed alphabets: strings sort before tuples, and
tuples sort lexicographically by their (recursively keyed) parts.  Every
deterministic iteration in the library sorts with :func:`label_key`.
"""

from __future__ import annotations

from typing import Iterable, Tuple, Union

Label = Union[str, Tuple["Label", ...]]

# Outcomes use the same identifier algebra as labels (product spaces pair
# outcomes, refinements suffix them).
Outcome = Label


def label_key(label: Label):
    """Sort key giving a total order over strings and nested tuples."""
    if isinstance(label, tuple):
        return (1, tuple(label_key(part) for part in label))
    return (0, label)


def sort_labels(labels: Iterable[Label]) -> list:
    """The labels in :func:`label_key` order, which the built-in sort gives
    whenever it succeeds: the two comparisons agree wherever the built-in
    one answers, it raises ``TypeError`` on labels that differ in type at
    their first differing position, and a finished sort has compared every
    adjacent pair of its output.  On ``TypeError`` the keyed sort runs."""
    labels = list(labels)
    try:
        return sorted(labels)
    except TypeError:
        return sorted(labels, key=label_key)


def label_text(label: Label) -> str:
    """Compact human-readable rendering, e.g. ``(a,u)`` for a pair."""
    if isinstance(label, tuple):
        return "(" + ",".join(label_text(part) for part in label) + ")"
    return label


def encode_label(label: Label):
    """JSON-encodable form: strings stay strings, tuples become lists."""
    if isinstance(label, tuple):
        return [encode_label(part) for part in label]
    return label


def decode_label(obj) -> Label:
    """Inverse of :func:`encode_label`."""
    if isinstance(obj, list):
        return tuple(decode_label(part) for part in obj)
    if isinstance(obj, str):
        return obj
    raise TypeError(f"not a label: {obj!r}")
