"""Seeded random instance generation for test corpora.

All draws go through an explicit ``random.Random`` instance, so a corpus is
a pure function of its seed.  Weights are built from a single random common
denominator (capped at 24 by default), which keeps every probability a
small exact rational and keeps counterexamples readable.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Tuple

from .core import (
    FiniteRandomVariable,
    MeasurePreservingMap,
    SampleSpace,
    constant_variable,
    projection_map,
    refinement_map,
)
from .labels import Label

MAX_DENOMINATOR = 24


def rational_weights(
    rng: random.Random,
    count: int,
    max_denominator: int = MAX_DENOMINATOR,
    allow_zero: bool = False,
) -> List[Fraction]:
    """``count`` exact non-negative rationals summing to 1.

    A common denominator d <= max_denominator is drawn, then d unit shares
    are scattered over the entries.  Without ``allow_zero`` every entry gets
    at least one share (requires count <= max_denominator).
    """
    if count < 1:
        raise ValueError("need at least one weight")
    if allow_zero:
        den = rng.randint(1, max_denominator)
        shares = [0] * count
    else:
        if count > max_denominator:
            raise ValueError("cannot give every entry positive mass at this denominator cap")
        den = rng.randint(count, max_denominator)
        shares = [1] * count
    for _ in range(den - sum(shares)):
        shares[rng.randrange(count)] += 1
    return [Fraction(share, den) for share in shares]


def random_space(
    rng: random.Random,
    n_outcomes: int,
    max_denominator: int = MAX_DENOMINATOR,
    allow_zero: bool = False,
    prefix: str = "w",
) -> SampleSpace:
    outcomes = tuple(f"{prefix}{i + 1}" for i in range(n_outcomes))
    weights = rational_weights(rng, n_outcomes, max_denominator, allow_zero)
    return SampleSpace(outcomes, dict(zip(outcomes, weights)))


def random_variable(
    rng: random.Random,
    space: SampleSpace,
    alphabet_size: int,
    prefix: str = "a",
) -> FiniteRandomVariable:
    """A uniformly random surjection onto ``alphabet_size`` fresh labels."""
    if alphabet_size > len(space.outcomes):
        raise ValueError("alphabet larger than the outcome set")
    labels = [f"{prefix}{i + 1}" for i in range(alphabet_size)]
    shuffled = list(space.outcomes)
    rng.shuffle(shuffled)
    drawn: Dict[Label, Label] = {}
    for i, outcome in enumerate(shuffled):
        # First pass guarantees surjectivity, the rest is uniform.
        drawn[outcome] = labels[i] if i < alphabet_size else rng.choice(labels)
    # In outcome order, which the variable's key check compares first.
    return FiniteRandomVariable(space, {o: drawn[o] for o in space.outcomes})


def random_pair(
    rng: random.Random,
    max_alphabet: int = 5,
    max_outcomes: int = 8,
    max_denominator: int = MAX_DENOMINATOR,
) -> Tuple[FiniteRandomVariable, FiniteRandomVariable]:
    size_x = rng.randint(1, max_alphabet)
    size_y = rng.randint(1, max_alphabet)
    n = rng.randint(max(size_x, size_y), max_outcomes)
    sp = random_space(rng, n, max_denominator)
    return (
        random_variable(rng, sp, size_x, prefix="x"),
        random_variable(rng, sp, size_y, prefix="y"),
    )


def random_triple(
    rng: random.Random,
    sizes: Tuple[int, int, int],
    max_outcomes: int = 8,
    max_denominator: int = MAX_DENOMINATOR,
) -> Tuple[FiniteRandomVariable, FiniteRandomVariable, FiniteRandomVariable]:
    """Three variables of the given alphabet sizes on one random space.

    No Markov structure is imposed; most draws are not Markov triangles.
    """
    n = rng.randint(max(sizes), max_outcomes)
    sp = random_space(rng, n, max_denominator)
    return (
        random_variable(rng, sp, sizes[0], prefix="x"),
        random_variable(rng, sp, sizes[1], prefix="y"),
        random_variable(rng, sp, sizes[2], prefix="z"),
    )


def random_bijection(rng: random.Random, alphabet, prefix: str = "u") -> Dict[Label, Label]:
    """A uniformly random bijection from ``alphabet`` onto fresh labels."""
    targets = [f"{prefix}{i + 1}" for i in range(len(alphabet))]
    rng.shuffle(targets)
    return dict(zip(alphabet, targets))


def random_function(
    rng: random.Random, alphabet, codomain_size: int, prefix: str = "f"
) -> Dict[Label, Label]:
    """A random (not necessarily injective) map out of ``alphabet``."""
    pool = [f"{prefix}{i + 1}" for i in range(codomain_size)]
    return {lab: rng.choice(pool) for lab in alphabet}


def random_refinement(rng: random.Random, space: SampleSpace) -> MeasurePreservingMap:
    """Split each outcome into up to three sub-outcomes carrying exact shares
    of its weight (see :func:`refinement_map`)."""
    return refinement_map(
        space,
        {w: rational_weights(rng, rng.randint(1, 3), max_denominator=6) for w in space.outcomes},
    )


def random_pullback(
    rng: random.Random,
    max_alphabet: int = 5,
    max_outcomes: int = 6,
) -> Tuple[FiniteRandomVariable, FiniteRandomVariable, MeasurePreservingMap]:
    """A pair together with a generated measure-preserving map into its
    space: either a projection from an independent product or a refinement."""
    x, y = random_pair(rng, max_alphabet, max_outcomes)
    if rng.random() < 0.5:
        aux = random_space(rng, rng.randint(1, 4), prefix="v")
        proj = projection_map(x.space, aux, "left")
    else:
        proj = random_refinement(rng, x.space)
    return x, y, proj


def random_mixture(
    rng: random.Random,
    max_tags: int = 4,
    max_alphabet: int = 4,
    max_outcomes: int = 6,
    max_denominator: int = MAX_DENOMINATOR,
) -> Tuple[
    Dict[Label, Fraction],
    Dict[Label, Tuple[FiniteRandomVariable, FiniteRandomVariable]],
]:
    """Mixture weights plus an indexed family of pairs on one common space."""
    n_tags = rng.randint(1, max_tags)
    tags = [f"m{i + 1}" for i in range(n_tags)]
    weights = dict(zip(tags, rational_weights(rng, n_tags, max_denominator)))
    n = rng.randint(max_alphabet, max_outcomes)
    sp = random_space(rng, n, max_denominator)
    family = {}
    for tag in tags:
        first = random_variable(rng, sp, rng.randint(1, max_alphabet), prefix=f"{tag}y")
        second = random_variable(rng, sp, rng.randint(1, max_alphabet), prefix=f"{tag}z")
        family[tag] = (first, second)
    return weights, family


def random_vacuity_pair(
    rng: random.Random, max_alphabet: int = 5, max_outcomes: int = 8
) -> Tuple[FiniteRandomVariable, FiniteRandomVariable]:
    x, _ = random_pair(rng, max_alphabet, max_outcomes)
    return x, constant_variable(x.space, "c")
