"""Markov triangles: mediator verification and search, residual diagnostics,
and guaranteed triangle generation.

A triple (X, Y, Z) on a shared space is a Markov triangle when some
mediator function h: Z-alphabet x X-alphabet -> Y-alphabet satisfies

    P(z | x) = P(z | h(z, x)) * P(h(z, x) | x)

at every cell, in exact arithmetic.  The right-hand side constrains each
cell independently of the others, so search reduces to per-cell candidate
sets: a mediator exists iff every cell's candidate set is nonempty, and the
lexicographically least candidate per cell gives a canonical witness.

Candidates are found by a support-row walk.  Over integer masses the
equation reads n(x,z) n(y) = n(y,z) n(x,y).  Where n(x,z) > 0 both sides
must be positive, so only the labels y of x's support row, those with
n(x,y) > 0, can hold, and only that row is walked.  Where n(x,z) = 0 every
y off the row holds, so the walk over the whole Y-alphabet meets a
candidate within |row| + 1 tests.  Both walks go in label order, so the
candidate lists are exactly those of a dense scan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Tuple

from .core import FiniteRandomVariable, canonical_product, joint_masses
from .constructions import push_forward, relabel
from .errors import AlphabetMismatch, DomainMismatch
from .generators import random_bijection, random_function, random_pair, random_triple
from .labels import Label, label_text
from .measures import DEFAULT_BASE, _conditional_entropy, _log_for_base, _mutual_information

FAMILIES = ("a", "b", "c", "d")


@dataclass(frozen=True)
class Triple:
    """Three variables on one shared space, with cached integer joint masses
    n(x,y), n(y,z) and n(x,z) over the space's denominator, and the support
    row of every x."""

    x: FiniteRandomVariable
    y: FiniteRandomVariable
    z: FiniteRandomVariable

    def __post_init__(self):
        if self.x.space != self.y.space or self.y.space != self.z.space:
            raise DomainMismatch("triple components must share one sample space")

    @cached_property
    def _joint(self) -> Tuple[Dict, Dict, Dict]:
        x, y, z = self.x, self.y, self.z
        return joint_masses(x, y), joint_masses(y, z), joint_masses(x, z)

    @cached_property
    def _rows(self) -> Dict[Label, List[Label]]:
        """x -> its support row: the labels y with n(x,y) > 0, in label order."""
        xy = self._joint[0]
        rank = {y: i for i, y in enumerate(self.y.alphabet)}
        rows: Dict[Label, List[Label]] = {x: [] for x in self.x.alphabet}
        for x, y in sorted((c for c, n in xy.items() if n), key=lambda c: rank[c[1]]):
            rows[x].append(y)
        return rows

    def _holds(self, z: Label, x: Label, y: Label) -> bool:
        """The mediator equation P(z|x) = P(z|y) P(y|x) at one cell, exactly.

        With n(x), n(y) > 0 it reads n(x,z) n(y) = n(y,z) n(x,y).  That form
        also covers n(x) = 0, where both sides vanish.  At n(y) = 0 the row
        P(.|y) is zero, so the equation holds iff P(z|x) = 0.
        """
        xy, yz, xz = self._joint
        n_y = self.y.masses[y]
        n_xz = xz.get((x, z), 0)
        if not n_y:
            return not n_xz
        return n_xz * n_y == yz.get((y, z), 0) * xy.get((x, y), 0)


@dataclass(frozen=True)
class MediatorFunction:
    """A table (z, x) -> y certifying the triangle equation cell by cell."""

    table: Dict[Tuple[Label, Label], Label]

    def __call__(self, z: Label, x: Label) -> Label:
        return self.table[(z, x)]


def _check_mediator_shape(t: Triple, h: MediatorFunction) -> None:
    cells = {(z, x) for z in t.z.alphabet for x in t.x.alphabet}
    if set(h.table) != cells:
        raise AlphabetMismatch("mediator table is not total on Z-alphabet x X-alphabet")
    y_labels = set(t.y.alphabet)
    for (z, x), y in h.table.items():
        if y not in y_labels:
            raise AlphabetMismatch(
                f"mediator value {label_text(y)} at ({label_text(z)}, {label_text(x)}) "
                "is not a label of the middle variable"
            )


def verify_mediator(t: Triple, h: MediatorFunction) -> bool:
    """True iff the defining equation holds at every cell, exactly."""
    _check_mediator_shape(t, h)
    return all(t._holds(z, x, y) for (z, x), y in h.table.items())


def _candidates(t: Triple, z: Label, x: Label) -> Iterator[Label]:
    """The candidate set C(z, x), lazily and in label order: x's support row
    where n(x,z) > 0, the whole Y-alphabet otherwise."""
    ys = t._rows[x] if t._joint[2].get((x, z)) else t.y.alphabet
    return (y for y in ys if t._holds(z, x, y))


def mediator_candidates(t: Triple) -> Dict[Tuple[Label, Label], List[Label]]:
    """Per-cell candidate sets C(z, x) = {y : P(z|y) P(y|x) = P(z|x)}.

    For any x of zero mass both sides vanish for every y, so the whole
    Y-alphabet is a candidate set there.
    """
    return {(z, x): list(_candidates(t, z, x)) for z in t.z.alphabet for x in t.x.alphabet}


def find_mediator(t: Triple) -> Optional[MediatorFunction]:
    """A canonical mediator if one exists, else ``None``.

    The returned table takes the least admissible y in every cell, so
    repeated runs agree bit for bit.  Each cell's walk stops at that y: it
    tests only x's support row where n(x,z) > 0, and at most |row| + 1
    labels where n(x,z) = 0.  The search stops at the first cell without a
    candidate.
    """
    table: Dict[Tuple[Label, Label], Label] = {}
    for z in t.z.alphabet:
        for x in t.x.alphabet:
            y = next(_candidates(t, z, x), None)
            if y is None:
                return None
            table[(z, x)] = y
    return MediatorFunction(table)


def is_markov_triangle(t: Triple) -> bool:
    return find_mediator(t) is not None


def weak_functoriality_residual(t: Triple, base: float = DEFAULT_BASE) -> float:
    """I(X,Z) - I(X,Y) - I(Y,Z) + I(Y,Y); within 1e-9 of zero on Markov
    triangles, and a useful diagnostic signal on arbitrary triples.  The
    joint masses are the triple's cached ones; I(Y,Y) takes the masses of Y,
    whose nonzero values are those of the (Y, Y) joint cells."""
    log = _log_for_base(base)
    total = t.x.space.denominator
    xy, yz, xz = (counts.values() for counts in t._joint)
    x, y, z = (v.masses.values() for v in (t.x, t.y, t.z))
    return (
        _mutual_information(x, z, xz, total, log)
        - _mutual_information(x, y, xy, total, log)
        - _mutual_information(y, z, yz, total, log)
        + _mutual_information(y, y, y, total, log)
    )


def chain_rule_residual(t: Triple, base: float = DEFAULT_BASE) -> float:
    """H(Z|X) - H(Z|Y) - H(Y|X); conditional entropy composes additively
    over Markov triangles, so this vanishes there."""
    log = _log_for_base(base)
    total = t.x.space.denominator
    xy, yz, xz = t._joint
    return (
        _conditional_entropy(xz, t.x.masses, total, log)
        - _conditional_entropy(yz, t.y.masses, total, log)
        - _conditional_entropy(xy, t.x.masses, total, log)
    )


def generate_markov_triangle(
    seed: int,
    max_alphabet: int = 4,
    max_outcomes: int = 8,
    family: Optional[str] = None,
    rejection: bool = False,
) -> Triple:
    """A seeded triple guaranteed to be a Markov triangle.

    Triangles come from four constructive recipes over a random base pair
    (X, Y):

    - ``a``: (X, pairing of X and Y, Y)
    - ``b``: (X, f o X, Y) for a random bijective relabeling f
    - ``c``: (X, Y, g o Y) for a random bijective relabeling g
    - ``d``: a deterministic chain X -> phi o X -> psi o phi o X for random
      functions phi, psi

    With ``rejection=True`` the constructive recipes are bypassed and random
    triples (alphabets capped at three for tractable hit rates) are drawn
    until one happens to admit a mediator; that mode is slower and biased
    toward small alphabets, and is intended only for exploring the landscape
    of accidental triangles, and a ``family`` with it is a ``ValueError``.
    Weights use the generators' ``MAX_DENOMINATOR``.  Every result is
    re-validated by :func:`find_mediator` before return.
    """
    if rejection and family is not None:
        raise ValueError("family and rejection are mutually exclusive")
    rng = random.Random(seed)
    if rejection:
        for _ in range(10_000):
            sizes = (rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
            t = Triple(*random_triple(rng, sizes, max_outcomes))
            if find_mediator(t) is not None:
                return t
        raise RuntimeError("rejection sampling did not find a Markov triangle")

    kind = family if family is not None else rng.choice(FAMILIES)
    if kind not in FAMILIES:
        raise ValueError(f"unknown triangle family {kind!r}")
    x, y = random_pair(rng, max_alphabet, max_outcomes)
    if kind == "a":
        t = Triple(x, canonical_product(x, y), y)
    elif kind == "b":
        t = Triple(x, relabel(x, random_bijection(rng, x.alphabet, prefix="fx")), y)
    elif kind == "c":
        t = Triple(x, y, relabel(y, random_bijection(rng, y.alphabet, prefix="gy")))
    else:
        mid = push_forward(x, random_function(rng, x.alphabet, rng.randint(1, max_alphabet), prefix="p"))
        last = push_forward(mid, random_function(rng, mid.alphabet, rng.randint(1, max_alphabet), prefix="q"))
        t = Triple(x, mid, last)
    if find_mediator(t) is None:
        raise RuntimeError(f"generated family-{kind} triple failed mediator validation")
    return t
