"""Finite probability spaces, random variables, joint tables, and
measure-preserving maps.

Everything here is exact: probabilities are :class:`fractions.Fraction`
values, sums are required to equal 1 with zero residual, and all derived
quantities (pmfs, joint cells, marginals) stay rational.  Floating point
enters only in the entropy layer (:mod:`frvkit.measures`).

A space checks its weights once, when it is built, in one pass that reads
each weight's integer ratio once, and keeps them as integer masses over one
common denominator (the lcm of the weight denominators), scaled once per
distinct denominator.  A space compares its outcomes with its weight keys,
and a variable its assignment keys with the outcomes, in order before any
set is built.  Label masses, joint cells and the measures are integer sums
of those masses; ``Fraction`` values are made only where the public API
returns them.

All values are immutable after construction and safe to share across
threads.  Equality is structural, so two independently built copies of the
same space count as "the same space" for joint constructions.

Each entropy is computed once per distribution and base.  A variable keeps
a private dict of H(X) per base, and ``x.pmf`` is a read-only view over its
integer masses that makes each ``Fraction`` only when that value is read,
so the entropy layer can recognise it and read the variable's dict instead
of checking the weights again.

:func:`joint_rows` is the one pass over the outcomes that counts a joint
table, straight into the rows n(a, .) that the kernels, the measures and
the Markov layer read.  Each call counts afresh into a dict that the
caller owns.  The entropy layer keeps the rows of its last pair (see
:mod:`frvkit.measures`), and a Markov triple those of its three pairs.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from types import MappingProxyType
from typing import Dict, Iterator, Sequence, Tuple

from .errors import AlphabetMismatch, DomainMismatch, NotAPmf
from .labels import Label, Outcome, label_text, sort_labels

ZERO = Fraction(0)


def _check_weights(weights: Mapping, what: str) -> Tuple[int, Dict]:
    """Check that ``weights`` are ``Fraction`` probabilities summing to
    exactly 1 and return ``(D, masses)``: D is the lcm of their denominators
    and ``masses[key] / D`` is the weight of ``key``."""
    nums, dens = [], []
    for key, value in weights.items():
        if not isinstance(value, Fraction):
            raise NotAPmf(f"{what} {label_text(key)}: expected Fraction, got {type(value).__name__}")
        n, d = value.as_integer_ratio()
        if n < 0 or n > d:
            raise NotAPmf(f"{what} {label_text(key)}: {value} outside [0, 1]")
        nums.append(n)
        dens.append(d)
    distinct = set(dens)
    denominator = lcm(*distinct)
    scale = {d: denominator // d for d in distinct}
    masses = {key: n * scale[d] for key, n, d in zip(weights, nums, dens)}
    if (total := sum(masses.values())) != denominator:
        raise NotAPmf(f"{what} sum is {Fraction(total, denominator)}, expected exactly 1")
    return denominator, masses


@dataclass(frozen=True)
class SampleSpace:
    """A finite outcome set with an exact probability weight per outcome.

    The sigma-algebra is implicitly the full power set, so a weight map is
    the entire measure.  Weights must sum to exactly 1; zero-weight outcomes
    are permitted.  ``masses[w] / denominator`` is the weight of ``w``, with
    integer masses summing to ``denominator``.
    """

    outcomes: Tuple[Outcome, ...]
    weights: Dict[Outcome, Fraction]
    denominator: int = field(init=False, repr=False, compare=False)
    masses: Dict[Outcome, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Kept as a tuple whatever sequence was passed, so that equality and
        # immutability do not depend on it.
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        # Dict keys are distinct, so outcomes equal to them in order are too.
        if tuple(self.weights) != self.outcomes:
            outcomes = set(self.outcomes)
            if len(outcomes) != len(self.outcomes):
                raise NotAPmf("duplicate outcomes in sample space")
            if self.weights.keys() != outcomes:
                raise NotAPmf("weight map does not cover exactly the outcome set")
        denominator, masses = _check_weights(self.weights, "outcome weight")
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "masses", masses)

    def __repr__(self):
        parts = ", ".join(f"{label_text(w)}={self.weights[w]}" for w in self.outcomes)
        return f"SampleSpace({parts})"


def space(weights: Mapping[Outcome, "Fraction | int | str"]) -> SampleSpace:
    """Convenience constructor on a copy of ``weights``.  Each weight is a
    ``Fraction`` (kept as given; a subclass value becomes a plain one), an
    ``int`` other than ``bool`` or a ``"num/den"`` string; any other value,
    a float among them, raises :class:`NotAPmf` naming the first such entry."""
    converted = dict(weights)
    if not set(map(type, converted.values())) <= {Fraction}:
        for key, value in converted.items():
            if type(value) is bool or not isinstance(value, (Fraction, int, str)):
                expected = f'expected Fraction, int or "num/den" string, got {type(value).__name__}'
                raise NotAPmf(f"outcome weight {label_text(key)}: {expected}")
            converted[key] = value if type(value) is Fraction else Fraction(value)
    return SampleSpace(tuple(converted), converted)


@dataclass(frozen=True)
class FiniteRandomVariable:
    """A labelled total assignment on a sample space.

    The alphabet is derived from the assignment image, which makes every
    constructed variable surjective by definition; passing an explicit
    alphabet elsewhere and failing surjectivity is therefore impossible.
    Zero-weight outcomes still count as "hitting" their label.
    """

    space: SampleSpace
    assignment: Dict[Outcome, Label]
    # H(self) per log base, filled by frvkit.measures.  A field rather than a
    # cached_property, whose first read takes a lock on Python 3.11.
    _entropies: Dict[float, float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        keys = self.assignment.keys()
        if tuple(keys) != self.space.outcomes and keys != self.space.masses.keys():
            raise AlphabetMismatch("assignment is not total on the outcome set")

    @cached_property
    def alphabet(self) -> Tuple[Label, ...]:
        return tuple(sort_labels(set(self.assignment.values())))

    @cached_property
    def masses(self) -> Mapping[Label, int]:
        """Integer label masses over ``space.denominator``, zero-mass labels
        included, in alphabet order."""
        masses = dict.fromkeys(self.alphabet, 0)
        assignment = self.assignment
        for outcome, mass in self.space.masses.items():
            masses[assignment[outcome]] += mass
        return MappingProxyType(masses)

    @property
    def pmf(self) -> Mapping[Label, Fraction]:
        """Exact probability mass function: label -> total preimage weight.

        A read-only view in alphabet order over ``masses`` and
        ``space.denominator``; each ``Fraction`` is made when it is read.
        Take ``dict(x.pmf)`` for a mutable copy.
        """
        return _PmfView(self)

    def __call__(self, outcome: Outcome) -> Label:
        return self.assignment[outcome]

    def is_constant(self) -> bool:
        return len(self.alphabet) == 1

    def __repr__(self):
        return f"FiniteRandomVariable(alphabet={[label_text(x) for x in self.alphabet]})"


class _PmfView(Mapping):
    """The pmf of one variable: ``Fraction(x.masses[label],
    x.space.denominator)`` per label of its alphabet, in alphabet order."""

    __slots__ = ("_x",)

    def __init__(self, x: FiniteRandomVariable):
        self._x = x

    def __getitem__(self, label: Label) -> Fraction:
        return Fraction(self._x.masses[label], self._x.space.denominator)

    def __iter__(self) -> Iterator[Label]:
        return iter(self._x.masses)

    def __len__(self) -> int:
        return len(self._x.masses)

    def __contains__(self, label) -> bool:
        return label in self._x.masses

    def __repr__(self):
        return f"pmf({dict(self)!r})"


def variable(sp: SampleSpace, assignment: Mapping[Outcome, Label]) -> FiniteRandomVariable:
    return FiniteRandomVariable(sp, dict(assignment))


def constant_variable(sp: SampleSpace, label: Label = "const") -> FiniteRandomVariable:
    return FiniteRandomVariable(sp, {outcome: label for outcome in sp.outcomes})


def joint_table(
    x: FiniteRandomVariable, y: FiniteRandomVariable
) -> Dict[Tuple[Label, Label], Fraction]:
    """Exact joint distribution: cell (a, b) = total weight of the outcomes
    mapped to a by ``x`` and to b by ``y``.  Covers the full alphabet
    product, zero cells included, with rows in ``x.alphabet`` order.
    Requires a shared sample space."""
    rows = joint_rows(x, y)
    denominator = x.space.denominator
    return {
        (a, b): Fraction(row.get(b, 0), denominator)
        for a, row in rows.items()
        for b in y.alphabet
    }


def joint_rows(
    x: FiniteRandomVariable, y: FiniteRandomVariable
) -> Dict[Label, Dict[Label, int]]:
    """Integer joint masses over ``x.space.denominator`` as rows
    ``{a: {b: n(a, b)}}``, one per label of ``x.alphabet`` in that order,
    counted in one pass over the outcomes.  A row holds, in hit order, the
    cells that some outcome hits, zero-weight ones included.  Requires a
    shared sample space.  The rows are fresh and the caller owns them."""
    if x.space is not y.space and x.space != y.space:
        raise DomainMismatch("joint table requires variables on the same space")
    rows: Dict[Label, Dict[Label, int]] = {}
    for a in x.alphabet:  # a loop: cheaper than a comprehension for tiny pairs
        rows[a] = {}
    xs, ys = x.assignment, y.assignment
    for outcome, mass in x.space.masses.items():
        row, b = rows[xs[outcome]], ys[outcome]
        row[b] = row.get(b, 0) + mass
    return rows


def canonical_product(x: FiniteRandomVariable, y: FiniteRandomVariable) -> FiniteRandomVariable:
    """The outcome-wise pairing: omega -> (x(omega), y(omega)).

    The alphabet is the set of pairs actually hit, not the full alphabet
    product, which keeps the result surjective when some joint cells are
    exactly zero.  Its pmf equals the joint table restricted to hit pairs.
    """
    if x.space != y.space:
        raise DomainMismatch("canonical product requires variables on the same space")
    assignment = {
        outcome: (x.assignment[outcome], y.assignment[outcome])
        for outcome in x.space.outcomes
    }
    return FiniteRandomVariable(x.space, assignment)


@dataclass(frozen=True)
class MeasurePreservingMap:
    """A map of sample spaces whose preimages conserve weight exactly."""

    source: SampleSpace
    target: SampleSpace
    mapping: Dict[Outcome, Outcome]

    def __post_init__(self):
        if self.mapping.keys() != self.source.masses.keys():
            raise DomainMismatch("map is not total on the source outcomes")
        pushed: Dict[Outcome, int] = dict.fromkeys(self.target.outcomes, 0)
        for src, dst in self.mapping.items():
            if dst not in pushed:
                raise DomainMismatch(f"map sends {label_text(src)} outside the target space")
            pushed[dst] += self.source.masses[src]
        # Compare pushed / source.denominator with mass / target.denominator.
        source_den, target_den = self.source.denominator, self.target.denominator
        for outcome, mass in pushed.items():
            if mass * target_den != self.target.masses[outcome] * source_den:
                raise DomainMismatch(
                    f"preimage of {label_text(outcome)} carries {Fraction(mass, source_den)}, "
                    f"target weight is {self.target.weights[outcome]}"
                )

    def __call__(self, outcome: Outcome) -> Outcome:
        return self.mapping[outcome]


def identity_map(sp: SampleSpace) -> MeasurePreservingMap:
    return MeasurePreservingMap(sp, sp, {w: w for w in sp.outcomes})


def pull_back(x: FiniteRandomVariable, proj: MeasurePreservingMap) -> FiniteRandomVariable:
    """Compose ``x`` with a measure-preserving map into its space.

    The result lives on the map's source space and has exactly the same pmf.
    """
    if proj.target != x.space:
        raise DomainMismatch("map target differs from the variable's space")
    assignment = {src: x.assignment[proj.mapping[src]] for src in proj.source.outcomes}
    return FiniteRandomVariable(proj.source, assignment)


def product_space(a: SampleSpace, b: SampleSpace) -> SampleSpace:
    """Independent product: outcomes are pairs, weights multiply."""
    outcomes = tuple((wa, wb) for wa in a.outcomes for wb in b.outcomes)
    weights = {(wa, wb): a.weights[wa] * b.weights[wb] for wa, wb in outcomes}
    return SampleSpace(outcomes, weights)


def projection_map(a: SampleSpace, b: SampleSpace, which: str = "left") -> MeasurePreservingMap:
    """Natural projection out of ``product_space(a, b)``.

    ``which`` selects the ``"left"`` (onto ``a``) or ``"right"`` (onto ``b``)
    coordinate.  Both are measure-preserving, which the constructor verifies
    exactly.
    """
    if which not in ("left", "right"):
        raise ValueError("which must be 'left' or 'right'")
    prod = product_space(a, b)
    index = 0 if which == "left" else 1
    target = a if which == "left" else b
    return MeasurePreservingMap(prod, target, {w: w[index] for w in prod.outcomes})


def refinement_map(
    sp: SampleSpace, shares: Mapping[Outcome, Sequence[Fraction]]
) -> MeasurePreservingMap:
    """The collapse onto ``sp`` of its refinement into sub-outcomes
    ``(w, "s1")``, ``(w, "s2")``, ... of weight ``weight(w) * share``, one
    per share in ``shares[w]``.  Shares that miss 1 in total raise
    :class:`NotAPmf`; shares that miss 1 at some outcome only raise
    :class:`DomainMismatch`, since the collapse is then not measure-preserving."""
    if set(shares) != set(sp.outcomes):
        raise DomainMismatch("refinement shares do not cover exactly the outcome set")
    weights: Dict[Outcome, Fraction] = {}
    mapping: Dict[Outcome, Outcome] = {}
    for outcome in sp.outcomes:
        for i, share in enumerate(shares[outcome]):
            sub = (outcome, f"s{i + 1}")
            weights[sub] = sp.weights[outcome] * share
            mapping[sub] = outcome
    return MeasurePreservingMap(SampleSpace(tuple(weights), weights), sp, mapping)


def canonical_variable(distribution: Mapping[Label, Fraction]) -> FiniteRandomVariable:
    """Realize a bare distribution as the identity variable on the weighted
    set of its labels.  Labels with exactly zero mass stay in the alphabet."""
    weights = dict(distribution)
    sp = SampleSpace(tuple(weights), weights)
    return FiniteRandomVariable(sp, {w: w for w in sp.outcomes})


def canonical_pair(
    joint: Mapping[Tuple[Label, Label], Fraction],
) -> Tuple[FiniteRandomVariable, FiniteRandomVariable]:
    """Realize a joint distribution over pair labels as coordinate variables
    on the weighted set of its cells (the channel view of a pair)."""
    weights = dict(joint)
    for key in weights:
        if not (isinstance(key, tuple) and len(key) == 2):
            raise AlphabetMismatch(f"joint key {label_text(key)} is not a pair")
    sp = SampleSpace(tuple(weights), weights)
    first = FiniteRandomVariable(sp, {w: w[0] for w in sp.outcomes})
    second = FiniteRandomVariable(sp, {w: w[1] for w in sp.outcomes})
    return first, second


def fair_coin() -> FiniteRandomVariable:
    """The reference coin: two equally weighted outcomes, identity labels."""
    return canonical_variable({"0": Fraction(1, 2), "1": Fraction(1, 2)})
