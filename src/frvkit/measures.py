"""Entropy-family measures: Shannon, joint, conditional entropy, and mutual
information.

Probabilities stay exact right up to the logarithm: every measure is a sum
over integer masses with a common integer total, and each term's
probability is the correctly rounded quotient ``mass / total``, the same
float that ``float(Fraction(mass, total))`` gives.  Terms are accumulated in
ascending order of mass; equal masses give equal terms, so results are
bit-identical across runs, under relabelings, and under transposition of a
joint table.  The ``0 * log 0 = 0`` convention is applied by skipping each
term whose probability is 0.0, exact zeros and masses too small for a
float alike, before any logarithm is taken, so no NaN can arise.

Each entropy is computed once per distribution and base.  H(X) is kept by
the variable (see :mod:`frvkit.core`) and H(X,Y) by the one-pair memo
below, keyed by the value of ``base`` once it has been accepted;
``entropy``, ``joint_entropy`` and ``mutual_information`` read them.
``entropy`` of a variable's ``pmf`` view takes H(X) from the variable
without checking its weights again, since the space checked them when it
was built; any other mapping is checked as a distribution first.
The view's masses are the check's masses scaled by one integer, so each
term, the mass order and the sum are the same floats either way.

The joint measures of a pair read one set of joint counts.  A private memo
holds the last pair asked for, found by the identity of its two variables
in either order, with its :func:`frvkit.core.joint_rows` rows n(x,.) and
its H(X,Y) per base.  H(X,Y) sums every cell of every row.  H(Y|X) sums
the rows as they are; H(X|Y) first transposes them into rows n(.,y).
Each sum runs in ascending order of mass, so the order in which the pair
or the measures are asked for never changes a bit.  The memo keeps at most
one pair alive.  An entry is replaced as one tuple and its rows are never
changed in place, so a thread always reads a whole entry; its entropy dict
is filled once per base, and whichever thread fills it stores the same
float.

The logarithm base defaults to 2 (bits) and is a parameter everywhere; the
measures are only meaningful up to this common scale factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from .core import ZERO, FiniteRandomVariable, _check_weights, _PmfView, joint_rows
from .errors import InvalidBase, NotAPmf
from .labels import Label, label_text

DEFAULT_BASE = 2.0


def _log_for_base(base: float) -> Callable[[float], float]:
    if not 1.0 < base < math.inf:
        raise InvalidBase(f"log base must be finite and > 1, got {base!r}")
    if base == 2.0:
        return math.log2
    if base == 10.0:
        return math.log10
    if base == math.e:
        return math.log
    scale = math.log(base)
    return lambda value: math.log(value) / scale


def _entropy(masses: Iterable[int], total: int, log: Callable[[float], float]) -> float:
    """-sum p log p over p = mass / total, skipping each p that is 0.0:
    exact zeros, and masses below about 5e-324 of the total, whose terms
    are below 1e-320 (and whose logarithm would raise).

    The terms are added in ascending order of mass.  Equal masses give equal
    terms, so the result depends only on the multiset of masses, never on
    labels or iteration order."""
    acc = 0.0
    for mass in sorted(masses):
        value = mass / total
        if value:
            acc += value * log(value)
    return 0.0 - acc


def _cells(rows: Dict[Label, Dict[Label, int]]) -> Iterable[int]:
    """Every count of every row of a joint table."""
    return chain.from_iterable(map(dict.values, rows.values()))


def _kept_entropy(
    kept: Dict[float, float],
    base: float,
    masses: Mapping[object, int],
    total: int,
    log: Callable[[float], float],
) -> float:
    """The entropy of ``masses`` over ``total`` at ``base``, read from
    ``kept`` or computed and stored there; ``base`` must already have been
    accepted by :func:`_log_for_base`."""
    value = kept.get(base)
    if value is None:
        value = kept[base] = _entropy(masses.values(), total, log)
    return value


def entropy(distribution: Mapping[Label, Fraction], base: float = DEFAULT_BASE) -> float:
    """Shannon entropy -sum p log(p) of an exact distribution, in units of
    log ``base``.  Always >= 0; exactly 0.0 for a point mass.  The values
    must be ``Fraction``s summing to exactly 1; a variable's ``pmf`` is
    known to be one and is not checked again."""
    log = _log_for_base(base)
    if type(distribution) is _PmfView:
        x = distribution._x
        return _kept_entropy(x._entropies, base, x.masses, x.space.denominator, log)
    denominator, masses = _check_weights(distribution, "probability")
    return _entropy(masses.values(), denominator, log)


# One slot holding the entry of the last pair counted: (x, y, rows n(x,.),
# H(X,Y) per log base).
_last_pair: List[Optional[tuple]] = [None]


def _pair(x: FiniteRandomVariable, y: FiniteRandomVariable) -> tuple:
    """The memo entry of the pair {x, y}: the last pair asked for, if that
    was {x, y} in either order, else (x, y) counted now.  Its rows are
    shared: read them, never change them."""
    memo = _last_pair[0]
    if memo is None or not (
        (memo[0] is x and memo[1] is y) or (memo[0] is y and memo[1] is x)
    ):
        memo = _last_pair[0] = (x, y, joint_rows(x, y), {})
    return memo


def _pair_entropy(memo: tuple, base: float, log: Callable[[float], float]) -> float:
    """H(X,Y) of a memo entry at an accepted ``base``, from every cell of
    its rows, computed once and kept in the entry."""
    value = memo[3].get(base)
    if value is None:
        value = memo[3][base] = _entropy(_cells(memo[2]), memo[0].space.denominator, log)
    return value


def joint_entropy(
    x: FiniteRandomVariable, y: FiniteRandomVariable, base: float = DEFAULT_BASE
) -> float:
    """Entropy of the joint distribution of ``(x, y)``."""
    memo = _pair(x, y)
    log = _log_for_base(base)
    return _pair_entropy(memo, base, log)


@dataclass(frozen=True)
class ConditionalKernel:
    """Row-stochastic table of conditional distributions.

    ``rows[x][y]`` is the exact probability of ``y`` given ``x``.  Rows sum
    to 1 where the conditioning label has positive mass, and are identically
    zero where it has zero mass (the zero-row convention).  Every entry is a
    ``Fraction``: a nonzero row is checked as a distribution, and a zero row
    must hold exact zeros only.
    """

    given_alphabet: Tuple[Label, ...]
    out_alphabet: Tuple[Label, ...]
    rows: Dict[Label, Dict[Label, Fraction]]

    def __post_init__(self):
        if set(self.rows) != set(self.given_alphabet):
            raise NotAPmf("kernel rows do not cover the conditioning alphabet")
        for given, row in self.rows.items():
            if set(row) != set(self.out_alphabet):
                raise NotAPmf("kernel row does not cover the output alphabet")
            if any(row.values()):
                _check_weights(row, f"kernel row {label_text(given)}: probability")
            elif not all(isinstance(p, Fraction) for p in row.values()):
                raise NotAPmf(f"kernel row {label_text(given)}: zeros must be Fractions")

    def prob(self, out: Label, given: Label) -> Fraction:
        return self.rows[given][out]

    def row(self, given: Label) -> Dict[Label, Fraction]:
        return dict(self.rows[given])


def conditional_kernel(
    given: FiniteRandomVariable, target: FiniteRandomVariable
) -> ConditionalKernel:
    """Conditional distribution of ``target`` given each value of ``given``:
    joint cell divided by the conditioning mass, zero row at zero mass."""
    counts = joint_rows(given, target)
    rows: Dict[Label, Dict[Label, Fraction]] = {}
    for x, mass in given.masses.items():
        row = counts[x]
        rows[x] = {y: Fraction(row.get(y, 0), mass) if mass else ZERO for y in target.alphabet}
    return ConditionalKernel(given.alphabet, target.alphabet, rows)


def _conditional_entropy(
    given: FiniteRandomVariable, rows: Dict[Label, Dict[Label, int]], log: Callable[[float], float]
) -> float:
    """H(target | given) from the joint counts n(g, .) in one row per label
    g of ``given``, in its alphabet order."""
    total = given.space.denominator
    acc = 0.0
    for row, mass in zip(rows.values(), given.masses.values()):
        if mass:
            acc += (mass / total) * _entropy(row.values(), mass, log)
    return acc + 0.0


def conditional_entropy(
    given: FiniteRandomVariable, target: FiniteRandomVariable, base: float = DEFAULT_BASE
) -> float:
    """H(target | given): mass-weighted entropy of the kernel rows, summed
    over the conditioning labels in label order."""
    log = _log_for_base(base)
    memo = _pair(given, target)
    rows = memo[2]
    if memo[0] is not given:
        rows = {b: {} for b in given.alphabet}
        for a, row in memo[2].items():
            for b, n in row.items():
                rows[b][a] = n
    return _conditional_entropy(given, rows, log)


def mutual_information(
    x: FiniteRandomVariable, y: FiniteRandomVariable, base: float = DEFAULT_BASE
) -> float:
    """H(x) + H(y) - H(x, y), evaluated in exactly that order.

    Keeping the evaluation order fixed makes results reproducible to the
    last bit; the mass-ordered summation inside each entropy then makes the
    value symmetric in its arguments to the last bit as well.
    """
    log = _log_for_base(base)
    memo = _pair(x, y)
    total = x.space.denominator
    h_x = _kept_entropy(x._entropies, base, x.masses, total, log)
    h_y = _kept_entropy(y._entropies, base, y.masses, total, log)
    return (h_x + h_y) - _pair_entropy(memo, base, log)
