"""Independent oracles shared by the unit and acceptance suites.

These deliberately avoid the library's search strategies, its kernels and
its entropy sums: conditionals are recomputed here in exact ``Fraction``
arithmetic from the raw space weights and assignment maps, existence of a
mediator is decided by enumerating every function on the cell grid and
testing the defining equation on each one directly, and a conditional
entropy is one ``math.fsum`` over exact cells.
"""

import itertools
import math
from collections import defaultdict
from fractions import Fraction

from frvkit.labels import label_key


def _conditional(t, given, out):
    """P(out | given) as a function ``(o, g) -> Fraction``, from the space
    weights; the row of a zero-mass ``g`` is identically zero."""
    sp = t.x.space
    mass = defaultdict(Fraction)
    joint = defaultdict(Fraction)
    for outcome in sp.outcomes:
        weight = sp.weights[outcome]
        g = given.assignment[outcome]
        mass[g] += weight
        joint[g, out.assignment[outcome]] += weight

    def prob(o, g):
        return joint[g, o] / mass[g] if mass[g] else Fraction(0)

    return prob


def oracle_conditional_entropy(given, target, base=2.0):
    """H(target | given) = -sum p(g, t) log(p(g, t) / p(g)) over the cells
    of positive weight, from exact ``Fraction`` cells and marginals summed
    over the raw assignments, the terms added by ``math.fsum``."""
    sp = given.space
    marginal = defaultdict(Fraction)
    joint = defaultdict(Fraction)
    for outcome in sp.outcomes:
        weight = sp.weights[outcome]
        g = given.assignment[outcome]
        marginal[g] += weight
        joint[g, target.assignment[outcome]] += weight
    scale = math.log(base)
    return math.fsum(
        -float(p) * math.log(float(p / marginal[g])) / scale for (g, _), p in joint.items() if p
    )


def _image(variable):
    return sorted(set(variable.assignment.values()), key=label_key)


def _equation(t):
    """``holds(z, x, y)``: P(z|x) = P(z|y) P(y|x), exactly."""
    z_given_x = _conditional(t, t.x, t.z)
    z_given_y = _conditional(t, t.y, t.z)
    y_given_x = _conditional(t, t.x, t.y)

    def holds(z, x, y):
        return z_given_x(z, x) == z_given_y(z, y) * y_given_x(y, x)

    return holds


def oracle_mediator_candidates(t):
    """Dense per-cell candidate lists, cells in (z, x) label order and each
    list in label order: the canonical mediator takes every list's head."""
    holds = _equation(t)
    ys = _image(t.y)
    return {
        (z, x): [y for y in ys if holds(z, x, y)]
        for z in _image(t.z)
        for x in _image(t.x)
    }


def brute_force_has_mediator(t):
    """Enumerate all |Y| ** (|Z| * |X|) functions (z, x) -> y and test the
    triangle equation on each.

    Equation evaluations are cached per (cell, y) pair so the literal
    enumeration stays affordable at alphabet sizes up to three.
    """
    holds = _equation(t)
    cells = [(z, x) for z in _image(t.z) for x in _image(t.x)]
    ys = _image(t.y)
    ok = {(cell, y): holds(cell[0], cell[1], y) for cell in cells for y in ys}
    for choice in itertools.product(ys, repeat=len(cells)):
        if all(ok[(cell, y)] for cell, y in zip(cells, choice)):
            return True
    return False
