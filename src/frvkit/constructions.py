"""Convex structure on variables and pairs, push-forwards and relabelings,
and the distribution sequences that the continuity check probes.

A weighted convex sum of variables lives on the mixture space (tag, omega),
the product of the weighted tag set with the components' common space, and
takes values in a tagged disjoint union of the component alphabets.  The
tag is applied distributively: tagging an atomic label ``y`` with ``x`` gives
the pair ``(x, y)``, while tagging a tuple label tags each part.  With this
realization the convex sum of pairwise products and the product of convex
sums are *the same function*, label for label, not merely isomorphic, which
the test suite checks with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Mapping, Tuple

from .core import FiniteRandomVariable, SampleSpace, _check_weights, product_space
from .errors import AlphabetMismatch, DomainMismatch
from .labels import Label, label_text, sort_labels


@dataclass(frozen=True)
class Relabeling:
    """A validated bijection between two alphabets."""

    source_alphabet: Tuple[Label, ...]
    target_alphabet: Tuple[Label, ...]
    mapping: Dict[Label, Label]

    def __post_init__(self):
        if set(self.mapping) != set(self.source_alphabet):
            raise AlphabetMismatch("relabeling is not total on its source alphabet")
        image = set(self.mapping.values())
        if len(image) != len(self.mapping) or image != set(self.target_alphabet):
            raise AlphabetMismatch("relabeling is not a bijection onto its target alphabet")

    def __call__(self, label: Label) -> Label:
        return self.mapping[label]

    def inverse(self) -> "Relabeling":
        return Relabeling(
            self.target_alphabet,
            self.source_alphabet,
            {v: k for k, v in self.mapping.items()},
        )


def bijection(mapping: Mapping[Label, Label]) -> Relabeling:
    """Build a relabeling from a plain mapping, inferring both alphabets."""
    m = dict(mapping)
    return Relabeling(tuple(sort_labels(m)), tuple(sort_labels(set(m.values()))), m)


def push_forward(x: FiniteRandomVariable, mapping: Mapping[Label, Label]) -> FiniteRandomVariable:
    """The variable omega -> mapping(x(omega)); its alphabet is the image."""
    return FiniteRandomVariable(x.space, {w: mapping[lab] for w, lab in x.assignment.items()})


def relabel(x: FiniteRandomVariable, f: Relabeling) -> FiniteRandomVariable:
    """Compose a variable with a bijective relabeling of its alphabet."""
    if set(f.source_alphabet) != set(x.alphabet):
        raise AlphabetMismatch("relabeling source alphabet differs from the variable's")
    return push_forward(x, f.mapping)


def tag_label(tag: Label, label: Label) -> Label:
    """Tag a label with its mixture component, distributing over tuples.

    Atomic labels become ``(tag, label)``; tuple labels are tagged part by
    part, so a pair ``(a, b)`` becomes ``((tag, a), (tag, b))``.  Distributing
    keeps "pair up, then mix" and "mix, then pair up" literally equal.
    """
    if isinstance(label, tuple):
        return tuple(tag_label(tag, part) for part in label)
    return (tag, label)


def mixture_space(
    weights: Mapping[Label, Fraction], base_space: SampleSpace
) -> SampleSpace:
    """The space (tag, omega) with weight(tag, omega) = w(tag) * mu(omega):
    the product of the weighted tag set, in label order, with the base
    space.  The tag set is a space of its own, so it checks the weights."""
    return product_space(SampleSpace(tuple(sort_labels(weights)), dict(weights)), base_space)


def _common_space(variables) -> SampleSpace:
    spaces = list({id(v.space): v.space for v in variables}.values())
    first = spaces[0]
    for other in spaces[1:]:
        if other != first:
            raise DomainMismatch(
                "convex sum components must share one sample space; "
                "pull them back to a common space first"
            )
    return first


def convex_sum(
    weights: Mapping[Label, Fraction],
    family: Mapping[Label, FiniteRandomVariable],
) -> FiniteRandomVariable:
    """Weighted convex sum of a family of variables on a common space.

    The result lives on the mixture space and maps (tag, omega) to the
    tagged value of the tag-th component at omega.  Its pmf is exactly
    ``weights[tag] * component_pmf[value]`` on the tagged disjoint union.
    """
    if set(weights) != set(family):
        raise AlphabetMismatch("mixture weights and family are indexed by different sets")
    if not family:
        raise AlphabetMismatch("empty mixture")
    return _tagged(mixture_space(weights, _common_space(family.values())), family)


def _tagged(
    mixed: SampleSpace, family: Mapping[Label, FiniteRandomVariable]
) -> FiniteRandomVariable:
    """The variable (tag, omega) -> tagged value of the tag-th component at
    omega on the mixture space ``mixed``, once no two components' tagged
    labels collide."""
    seen: Dict[Label, Label] = {}
    for tag in sort_labels(family):
        for lab in family[tag].alphabet:
            tagged = tag_label(tag, lab)
            if tagged in seen:
                raise AlphabetMismatch(
                    f"tagged label collision: {label_text(tagged)} arises from "
                    f"components {label_text(seen[tagged])} and {label_text(tag)}"
                )
            seen[tagged] = tag

    assignment = {
        (tag, omega): tag_label(tag, family[tag].assignment[omega])
        for tag, omega in mixed.outcomes
    }
    return FiniteRandomVariable(mixed, assignment)


def convex_sum_pairs(
    weights: Mapping[Label, Fraction],
    family: Mapping[Label, Tuple[FiniteRandomVariable, FiniteRandomVariable]],
) -> Tuple[FiniteRandomVariable, FiniteRandomVariable]:
    """Componentwise convex sum of an indexed family of pairs.

    Both components of every pair must live on the same common space; the
    two results then share one mixture space object, built once.
    """
    firsts = {tag: pair[0] for tag, pair in family.items()}
    seconds = {tag: pair[1] for tag, pair in family.items()}
    first = convex_sum(weights, firsts)
    _common_space([*firsts.values(), *seconds.values()])
    return first, _tagged(first.space, seconds)


def mixture_distribution(
    weights: Mapping[Label, Fraction],
    parts: Mapping[Label, Mapping[Label, Fraction]],
) -> Dict[Label, Fraction]:
    """Distribution-level convex sum: the grouping of ``parts`` under
    ``weights`` on the tagged disjoint union of their supports."""
    _check_weights(weights, "mixture weight")
    if set(weights) != set(parts):
        raise AlphabetMismatch("mixture weights and parts are indexed by different sets")
    out: Dict[Label, Fraction] = {}
    for tag in sort_labels(parts):
        part = dict(parts[tag])
        _check_weights(part, "mixture part probability")
        for lab, mass in part.items():
            tagged = tag_label(tag, lab)
            if tagged in out:
                raise AlphabetMismatch(f"tagged label collision at {label_text(tagged)}")
            out[tagged] = weights[tag] * mass
    return out


@dataclass(frozen=True)
class PmfSequence:
    """A sequence of distributions on one fixed alphabet, indexed from 1.

    ``generator(n)`` must be pure (same n, same distribution) and must
    return a distribution on exactly ``limit_alphabet`` for every
    ``n >= 1``.  Pair sequences use pair labels; their joint structure is
    recovered through the canonical coordinate variables.
    """

    limit_alphabet: Tuple[Label, ...]
    generator: Callable[[int], Mapping[Label, Fraction]]

    def term(self, n: int) -> Dict[Label, Fraction]:
        if n < 1:
            raise ValueError(f"term index {n} is below 1")
        got = dict(self.generator(n))
        if set(got) != set(self.limit_alphabet):
            raise AlphabetMismatch(
                f"term {n} is supported on a different alphabet than the limit"
            )
        _check_weights(got, "sequence probability")
        return got
