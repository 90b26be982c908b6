"""Markov triangles: mediator verification and search, residual diagnostics,
and guaranteed triangle generation.

A triple (X, Y, Z) on a shared space is a Markov triangle when some
mediator function h: Z-alphabet x X-alphabet -> Y-alphabet satisfies

    P(z | x) = P(z | h(z, x)) * P(h(z, x) | x)

at every cell, in exact arithmetic.  The right-hand side constrains each
cell independently of the others, so search reduces to per-cell candidate
sets: a mediator exists iff every cell's candidate set is nonempty, and the
lexicographically least candidate per cell gives a canonical witness.

Each triple counts n(x,y), n(y,z) and n(x,z) once, in three
:func:`frvkit.core.joint_rows` calls, each straight into one row per label
of its first variable.  Search, verification, candidate listing and the
chain-rule residual read counts from these rows by label and build no tuple
key.  Over them the equation reads n(x,z) n(y) = n(y,z) n(x,y), tested by
one function of four integers.  The search walks each cell and stops at
its first candidate: where n(x,z) > 0 only a y in x's row of n(x,.) can
hold, and only that row is walked; where n(x,z) = 0 every y off the row
holds, so the walk over the Y-alphabet meets a candidate within |row| + 1
tests.  The order of a row, which is the order the outcomes hit its cells,
never changes the result: if a mediator h exists and n(x) > 0, summing
P(z|h(z,x)) P(h(z,x)|x) = P(z|x) over z gives 1, which forces each y with
n(x,y) > 0 to be some h(z,x) and to put all its mass on the z that h sends
to it, so a cell with n(x,z) > 0 has exactly one candidate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from .core import FiniteRandomVariable, canonical_product, joint_rows
from .constructions import push_forward, relabel
from .errors import AlphabetMismatch, DomainMismatch
from .generators import random_bijection, random_function, random_pair, random_triple
from .labels import Label, label_text
from .measures import DEFAULT_BASE, _cells, _conditional_entropy, _entropy, _log_for_base

FAMILIES = ("a", "b", "c", "d")


@dataclass(frozen=True)
class Triple:
    """Three variables on one shared space, with the joint masses n(x,y),
    n(y,z) and n(x,z) over its denominator counted once per triple, each in
    one row per label of its first variable."""

    x: FiniteRandomVariable
    y: FiniteRandomVariable
    z: FiniteRandomVariable

    def __post_init__(self):
        if self.x.space != self.y.space or self.y.space != self.z.space:
            raise DomainMismatch("triple components must share one sample space")

    @cached_property
    def _joint(self) -> Tuple[Dict[Label, Dict[Label, int]], ...]:
        """The rows of n(x,y), n(y,z) and n(x,z)."""
        x, y, z = self.x, self.y, self.z
        return joint_rows(x, y), joint_rows(y, z), joint_rows(x, z)


def _holds(n_xz: int, n_y: int, n_yz: int, n_xy: int) -> bool:
    """The mediator equation P(z|x) = P(z|y) P(y|x) at one cell, exactly.

    With n(x), n(y) > 0 it reads n(x,z) n(y) = n(y,z) n(x,y).  That form
    also covers n(x) = 0, where both sides vanish.  At n(y) = 0 the row
    P(.|y) is zero, so the equation holds iff P(z|x) = 0.
    """
    return n_xz * n_y == n_yz * n_xy if n_y else not n_xz


@dataclass(frozen=True)
class MediatorFunction:
    """A table (z, x) -> y certifying the triangle equation cell by cell."""

    table: Dict[Tuple[Label, Label], Label]

    def __call__(self, z: Label, x: Label) -> Label:
        return self.table[(z, x)]


def _check_mediator_shape(t: Triple, h: MediatorFunction) -> None:
    """Dict keys are unique, so |Z| |X| keys that are each a pair (z, x) of
    the two alphabets' labels are exactly the cells of Z-alphabet x
    X-alphabet; then each value must be a label of the middle variable."""
    table, zs, xs, ys = h.table, t.z.masses, t.x.masses, t.y.masses
    if len(table) != len(zs) * len(xs) or not all(
        isinstance(key, tuple) and len(key) == 2 and key[0] in zs and key[1] in xs
        for key in table
    ):
        raise AlphabetMismatch("mediator table is not total on Z-alphabet x X-alphabet")
    for (z, x), y in table.items():
        if y not in ys:
            raise AlphabetMismatch(
                f"mediator value {label_text(y)} at ({label_text(z)}, {label_text(x)}) "
                "is not a label of the middle variable"
            )


def verify_mediator(t: Triple, h: MediatorFunction) -> bool:
    """True iff the defining equation holds at every cell, exactly."""
    _check_mediator_shape(t, h)
    xy, yz, xz = t._joint
    n_y = t.y.masses
    for (z, x), y in h.table.items():
        if not _holds(xz[x].get(z, 0), n_y[y], yz[y].get(z, 0), xy[x].get(y, 0)):
            return False
    return True


def mediator_candidates(t: Triple) -> Dict[Tuple[Label, Label], List[Label]]:
    """Per-cell candidate sets C(z, x) = {y : P(z|y) P(y|x) = P(z|x)}, each
    in label order.

    For any x of zero mass both sides vanish for every y, so the whole
    Y-alphabet is a candidate set there.
    """
    xy, yz, xz = t._joint
    n_ys = t.y.masses.items()
    return {
        (z, x): [y for y, n_y in n_ys if _holds(n_xz, n_y, yz[y].get(z, 0), row.get(y, 0))]
        for z in t.z.alphabet
        for x, row in xy.items()
        for n_xz in (xz[x].get(z, 0),)
    }


def find_mediator(t: Triple) -> Optional[MediatorFunction]:
    """A canonical mediator if one exists, else ``None``.

    The returned table takes the least admissible y in every cell, so
    repeated runs agree bit for bit.  Each cell's walk stops at that y: it
    tests only the y of x's row of n(x,.) where n(x,z) > 0, where a Markov
    triangle has exactly one candidate (see the module docstring), and at
    most that row's length + 1 labels, in label order, where n(x,z) = 0.
    The search stops at the first cell without a candidate.
    """
    xy, yz, xz = t._joint
    n_y = t.y.masses
    n_ys = n_y.items()
    table: Dict[Tuple[Label, Label], Label] = {}
    for z in t.z.alphabet:
        for x, row in xy.items():
            n_xz = xz[x].get(z, 0)
            if n_xz:
                for y, n_xy in row.items():
                    if _holds(n_xz, n_y[y], yz[y].get(z, 0), n_xy):
                        break
                else:
                    return None
            else:
                for y, n in n_ys:
                    if _holds(0, n, yz[y].get(z, 0), row.get(y, 0)):
                        break
                else:
                    return None
            table[z, x] = y
    return MediatorFunction(table)


def weak_functoriality_residual(t: Triple, base: float = DEFAULT_BASE) -> float:
    """I(X,Z) - I(X,Y) - I(Y,Z) + I(Y,Y); within 1e-9 of zero on Markov
    triangles, and a useful diagnostic signal on arbitrary triples.  Each of
    the six entropies is computed once and each I(A,B) is summed as
    (H(A) + H(B)) - H(A,B), so the bits are those of the four public
    ``mutual_information`` calls; the (Y, Y) joint masses are Y's."""
    log = _log_for_base(base)
    total = t.x.space.denominator
    h_x, h_y, h_z = (_entropy(v.masses.values(), total, log) for v in (t.x, t.y, t.z))
    h_xy, h_yz, h_xz = (_entropy(_cells(rows), total, log) for rows in t._joint)
    return ((h_x + h_z) - h_xz) - ((h_x + h_y) - h_xy) - ((h_y + h_z) - h_yz) + ((h_y + h_y) - h_y)


def chain_rule_residual(t: Triple, base: float = DEFAULT_BASE) -> float:
    """H(Z|X) - H(Z|Y) - H(Y|X); conditional entropy composes additively
    over Markov triangles, so this vanishes there."""
    log = _log_for_base(base)
    xy, yz, xz = t._joint
    h = _conditional_entropy
    return h(t.x, xz, log) - h(t.y, yz, log) - h(t.x, xy, log)


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
