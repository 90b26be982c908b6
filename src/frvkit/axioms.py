"""The audit engine: six executable axiom checks over seeded instance
corpora, a characterization probe, and a registry of reference functionals.

A candidate functional is any deterministic map from same-space pairs of
random variables to the reals.  The six checks probe, in order: continuity
along weakly convergent pair sequences, strong additivity over convex sums
of pairs, symmetry, invariance under measure-preserving pullbacks, weak
functoriality over Markov triangles, and vanishing against constants.  A
candidate that clears all six is then fitted against mutual information on
a reference fair coin and compared to that multiple across the corpus.

Checks 2-6 each state a finite identity; ``max_residual`` is the largest
|lhs - rhs|, each side summed left to right as grouped here, with (M1, M2)
the mixed pair, I the identity on the weighted tags, t in label order:
  2: |F(M1, M2) - (F(I, I) + float(w_1) F(X_1, Y_1) + ... + float(w_k) F(X_k, Y_k))|
  3: |F(X, Y) - F(Y, X)|
  4: |F(X, Y) - F(X o p, Y o p)|, p the measure-preserving map
  5: |((F(X, Z) - F(X, Y)) - F(Y, Z)) + F(Y, Y)|
  6: |F(X, C)|, C constant

Checks falsify; they cannot prove.  In particular the continuity check
evaluates geometric probe indices and requires residuals that shrink and
end below tolerance, which finite sampling can refute but never certify.

A residual that is not finite (NaN or infinite) fails its check, and so
does a functional that raises: the check keeps evaluating its corpus and
records the first such instance, with the value or the exception, as its
counterexample.  The probe likewise fails on a non-finite deviation, an
exception or a degenerate fit.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .constructions import PmfSequence, convex_sum_pairs
from .core import (
    FiniteRandomVariable,
    MeasurePreservingMap,
    canonical_pair,
    canonical_product,
    canonical_variable,
    constant_variable,
    fair_coin,
    joint_table,
    projection_map,
    pull_back,
    refinement_map,
    space,
)
from .documents import instance_document, pmf_document, space_document
from .generators import (
    random_mixture,
    random_pair,
    random_pullback,
    random_vacuity_pair,
)
from .labels import Label, encode_label, label_key, sort_labels
from .markov import Triple, generate_markov_triangle
from .measures import _entropy, conditional_entropy, joint_entropy, mutual_information

IDENTITY_TOLERANCE = 1e-9
PROBE_TOLERANCE = 1e-6
DEFAULT_SEED = 17
DEFAULT_INSTANCES = 64
MIN_INSTANCES = 4
CONTINUITY_PROBES = (10**3, 10**6, 10**9, 10**12)

AXIOM_NAMES = {
    1: "continuity",
    2: "strong_additivity",
    3: "symmetry",
    4: "pullback_invariance",
    5: "weak_functoriality",
    6: "vacuity",
}


@dataclass(frozen=True)
class CandidateFunctional:
    """A named, pure map (X, Y) -> real to be audited.

    ``expected_failures`` tags the axiom numbers the functional is known to
    break (empty for genuine mutual-information multiples); the audit is the
    judge, the tag only records the documented expectation.
    """

    name: str
    fn: Callable[[FiniteRandomVariable, FiniteRandomVariable], float]
    description: str = ""
    expected_failures: frozenset = frozenset()

    def __call__(self, x: FiniteRandomVariable, y: FiniteRandomVariable) -> float:
        return self.fn(x, y)


# ---------------------------------------------------------------------------
# Instances


@dataclass(frozen=True)
class PairInstance:
    x: FiniteRandomVariable
    y: FiniteRandomVariable

    def as_document(self) -> dict:
        return instance_document(self.x.space, {"X": self.x, "Y": self.y})


@dataclass(frozen=True)
class VacuityInstance:
    x: FiniteRandomVariable
    c: FiniteRandomVariable

    def as_document(self) -> dict:
        return instance_document(self.x.space, {"C": self.c, "X": self.x})


@dataclass(frozen=True)
class MixtureInstance:
    """Mixture weights plus an indexed family of same-space pairs."""

    weights: Dict[Label, Fraction]
    pairs: Dict[Label, Tuple[FiniteRandomVariable, FiniteRandomVariable]]

    def mixed_pair(self) -> Tuple[FiniteRandomVariable, FiniteRandomVariable]:
        return convex_sum_pairs(self.weights, self.pairs)

    def as_document(self) -> dict:
        tags = sort_labels(self.weights)
        base = next(iter(self.pairs.values()))[0].space
        variables = {}
        for tag in tags:
            first, second = self.pairs[tag]
            variables[f"{tag}.first"] = first
            variables[f"{tag}.second"] = second
        doc = instance_document(base, variables)
        doc["mixture_weights"] = pmf_document(self.weights)
        return doc


@dataclass(frozen=True)
class PullbackInstance:
    x: FiniteRandomVariable
    y: FiniteRandomVariable
    proj: MeasurePreservingMap

    def pulled(self) -> Tuple[FiniteRandomVariable, FiniteRandomVariable]:
        return pull_back(self.x, self.proj), pull_back(self.y, self.proj)

    def as_document(self) -> dict:
        doc = instance_document(self.x.space, {"X": self.x, "Y": self.y})
        doc["map"] = {
            "source_space": space_document(self.proj.source),
            "mapping": [
                [encode_label(src), encode_label(self.proj.mapping[src])]
                for src in sorted(self.proj.mapping, key=label_key)
            ],
        }
        return doc


@dataclass(frozen=True)
class SequenceInstance:
    """A weakly convergent sequence of pairs, given at the joint level.

    ``sequence`` yields exact joint distributions over pair labels; the
    realized pairs are the canonical coordinate variables of each table.
    """

    sequence: PmfSequence
    limit: Dict[Label, Fraction]
    description: str = ""

    def limit_pair(self) -> Tuple[FiniteRandomVariable, FiniteRandomVariable]:
        return canonical_pair(self.limit)

    def term_pair(self, n: int) -> Tuple[FiniteRandomVariable, FiniteRandomVariable]:
        return canonical_pair(self.sequence.term(n))

    def as_document(self) -> dict:
        """The limit pair as a parsable instance document, X and Y, plus the
        sequence's description."""
        doc = PairInstance(*self.limit_pair()).as_document()
        doc["description"] = self.description
        return doc


def triangle_document(t: Triple) -> dict:
    return instance_document(t.x.space, {"X": t.x, "Y": t.y, "Z": t.z})


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of one axiom check over a corpus.

    A serialized witness instance is attached exactly when the check failed.
    """

    axiom: int
    name: str
    instances_tested: int
    max_residual: float
    tolerance: float
    counterexample: Optional[dict]

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    def as_document(self) -> dict:
        return {
            "axiom": self.axiom,
            "name": self.name,
            "instances_tested": self.instances_tested,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "counterexample": self.counterexample,
        }


@dataclass(frozen=True)
class ProbeReport:
    """Scale fit against mutual information over a probe corpus.

    ``fitted_c`` is the functional's value on the reference fair coin, whose
    self-information is exactly one bit, so the value reads directly as the
    candidate scale constant.
    """

    fitted_c: float
    max_abs_deviation: float
    instances: int
    tolerance: float
    error: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.max_abs_deviation <= self.tolerance and self.fitted_c >= -self.tolerance

    def as_document(self) -> dict:
        doc = {
            "fitted_c": self.fitted_c,
            "max_abs_deviation": self.max_abs_deviation,
            "instances": self.instances,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }
        if self.error is not None:
            doc["error"] = self.error
        return doc


class _FunctionalRaised(Exception):
    """Stands in for any exception a candidate functional raised; the
    message is ``"Type: message"`` of the original."""


def _guarded(functional: CandidateFunctional) -> Callable[..., float]:
    def call(x: FiniteRandomVariable, y: FiniteRandomVariable) -> float:
        try:
            return functional(x, y)
        except Exception as exc:
            raise _FunctionalRaised(f"{type(exc).__name__}: {exc}") from exc

    return call


def _identity(sides: Callable[[object], tuple]) -> Callable[..., float]:
    """The residual |lhs - rhs| of a finite identity.  ``sides(inst)`` gives
    its two ordered sides, each a list of terms (c, X, Y) standing for
    c * F(X, Y) and summed left to right in an explicit loop: builtin
    ``sum()`` compensates float sums from Python 3.12 on, which would change
    the bits a report prints."""

    def residual(f: Callable[..., float], inst) -> float:
        totals = []
        for side in sides(inst):
            totals.append(0)
            for coefficient, x, y in side:
                totals[-1] = totals[-1] + coefficient * f(x, y)
        return abs(totals[0] - totals[1])

    return residual


def _report(
    axiom: int,
    functional: CandidateFunctional,
    instances: Sequence,
    residual: Callable[..., float],
    tolerance: float,
    document: Callable[[object], dict] = lambda inst: inst.as_document(),
) -> AxiomReport:
    """Evaluate ``residual(f, inst)``, with ``f`` the guarded functional, on
    every instance and keep the worst: the first non-finite residual or
    raising functional if there is one, else the first instance with the
    largest residual."""
    f = _guarded(functional)
    max_residual = 0.0
    witness = None
    error: Optional[str] = None
    for inst in instances:
        try:
            value, raised = residual(f, inst), None
        except _FunctionalRaised as exc:
            value, raised = math.nan, str(exc)
        # ``not value <= max_residual`` is ``value > max_residual`` or NaN.
        if math.isfinite(max_residual) and not value <= max_residual:
            max_residual, witness, error = value, inst, raised
    counterexample = None
    if witness is not None and not max_residual <= tolerance:
        counterexample = document(witness)
        counterexample["max_residual"] = max_residual
        if error is not None:
            counterexample["error"] = error
    return AxiomReport(
        axiom=axiom,
        name=AXIOM_NAMES[axiom],
        instances_tested=len(instances),
        max_residual=max_residual,
        tolerance=tolerance,
        counterexample=counterexample,
    )


# ---------------------------------------------------------------------------
# The six checks


def check_continuity(
    functional: CandidateFunctional, instances: Sequence[SequenceInstance], tolerance: float
) -> AxiomReport:
    """Axiom 1: F along each sequence must approach F at the limit.

    Per instance the residual is the gap at the largest index of
    ``CONTINUITY_PROBES``, plus any growth between consecutive probes (a
    shrinking tail cannot hide a diverging one).
    """

    def residual(f: Callable[..., float], inst: SequenceInstance) -> float:
        limit_value = f(*inst.limit_pair())
        gaps = [abs(f(*inst.term_pair(n)) - limit_value) for n in CONTINUITY_PROBES]
        growth = max([0.0] + [gaps[i + 1] - gaps[i] for i in range(len(gaps) - 1)])
        # max() would drop a NaN gap, so a non-finite gap is the residual.
        return next((gap for gap in gaps if not math.isfinite(gap)), max(gaps[-1], growth))

    return _report(1, functional, instances, residual, tolerance)


def check_strong_additivity(
    functional: CandidateFunctional, instances: Sequence[MixtureInstance], tolerance: float
) -> AxiomReport:
    """Axiom 2: F of a weighted convex sum of pairs must equal F on the
    weight distribution's identity pair plus the weighted component values."""

    def sides(inst: MixtureInstance) -> tuple:
        index = canonical_variable(inst.weights)  # the identity on the weighted tags
        weighted = [(float(inst.weights[tag]), *inst.pairs[tag]) for tag in sort_labels(inst.weights)]
        return [(1, *inst.mixed_pair())], [(1, index, index), *weighted]

    return _report(2, functional, instances, _identity(sides), tolerance)


def check_symmetry(
    functional: CandidateFunctional, instances: Sequence[PairInstance], tolerance: float
) -> AxiomReport:
    """Axiom 3: F(X, Y) = F(Y, X)."""
    residual = _identity(lambda inst: ([(1, inst.x, inst.y)], [(1, inst.y, inst.x)]))
    return _report(3, functional, instances, residual, tolerance)


def check_pullback_invariance(
    functional: CandidateFunctional, instances: Sequence[PullbackInstance], tolerance: float
) -> AxiomReport:
    """Axiom 4: composing both variables with a measure-preserving map must
    not change F."""
    residual = _identity(lambda inst: ([(1, inst.x, inst.y)], [(1, *inst.pulled())]))
    return _report(4, functional, instances, residual, tolerance)


def check_weak_functoriality(
    functional: CandidateFunctional, triangles: Sequence[Triple], tolerance: float
) -> AxiomReport:
    """Axiom 5: F(X,Z) = F(X,Y) + F(Y,Z) - F(Y,Y) on Markov triangles,
    evaluated as one signed side."""
    residual = _identity(lambda t: ([(1, t.x, t.z), (-1, t.x, t.y), (-1, t.y, t.z), (1, t.y, t.y)], []))
    return _report(5, functional, triangles, residual, tolerance, triangle_document)


def check_vacuity(
    functional: CandidateFunctional, instances: Sequence[VacuityInstance], tolerance: float
) -> AxiomReport:
    """Axiom 6: F against any constant variable vanishes."""
    residual = _identity(lambda inst: ([(1, inst.x, inst.c)], []))
    return _report(6, functional, instances, residual, tolerance)


def characterization_probe(
    functional: CandidateFunctional,
    instances: Sequence[PairInstance],
    tolerance: float = PROBE_TOLERANCE,
) -> ProbeReport:
    """Fit the scale constant on a fair coin and compare F to that multiple
    of mutual information across the corpus.

    The probe fails with NaN values and a ``"TypeName: message"`` error
    when the functional raises, and with a ``"DegenerateFit: ..."`` error
    when the fit is indistinguishable from zero while the functional is
    not: a zero fit explains nothing then.
    """
    f = _guarded(functional)
    coin = fair_coin()
    try:
        fitted_c = f(coin, coin)
        values = [f(inst.x, inst.y) for inst in instances]
    except _FunctionalRaised as exc:
        return ProbeReport(math.nan, math.nan, len(instances), tolerance, error=str(exc))
    if abs(fitted_c) < tolerance and any(abs(v) > tolerance for v in values):
        error = (
            f"DegenerateFit: {functional.name}: fit on the reference coin is {fitted_c!r} "
            "but the functional is not identically negligible on the corpus"
        )
        return ProbeReport(math.nan, math.nan, len(instances), tolerance, error=error)
    deviations = [
        abs(value - fitted_c * mutual_information(inst.x, inst.y))
        for inst, value in zip(instances, values)
    ]
    # max() would drop a NaN deviation, so a non-finite one is the result.
    deviation = next((d for d in deviations if not math.isfinite(d)), max([0.0, *deviations]))
    return ProbeReport(
        fitted_c=fitted_c,
        max_abs_deviation=deviation,
        instances=len(instances),
        tolerance=tolerance,
    )


# ---------------------------------------------------------------------------
# Corpus


def _three_point_pair() -> PairInstance:
    sp = space({"w1": Fraction(1, 6), "w2": Fraction(1, 3), "w3": Fraction(1, 2)})
    x = FiniteRandomVariable(sp, {"w1": "a", "w2": "a", "w3": "b"})
    y = FiniteRandomVariable(sp, {"w1": "u", "w2": "v", "w3": "v"})
    return PairInstance(x, y)


def _independent_coins() -> PairInstance:
    sp = space(dict.fromkeys(("o1", "o2", "o3", "o4"), Fraction(1, 4)))
    x = FiniteRandomVariable(sp, {"o1": "h", "o2": "h", "o3": "t", "o4": "t"})
    y = FiniteRandomVariable(sp, {"o1": "h", "o2": "t", "o3": "h", "o4": "t"})
    return PairInstance(x, y)


def _duplicated_coin() -> PairInstance:
    sp = space(dict.fromkeys(("w1", "w2"), Fraction(1, 2)))
    x = FiniteRandomVariable(sp, {"w1": "h", "w2": "t"})
    return PairInstance(x, x)


def _correlated_table_pair() -> PairInstance:
    """The 2x2 table [[1/3, 1/6], [1/6, 1/3]] realized canonically."""
    third, sixth = Fraction(1, 3), Fraction(1, 6)
    joint = {
        ("a1", "b1"): third,
        ("a1", "b2"): sixth,
        ("a2", "b1"): sixth,
        ("a2", "b2"): third,
    }
    return PairInstance(*canonical_pair(joint))


def _hand_mixture() -> MixtureInstance:
    """Equal mixture of a duplicated coin pair and a constant pair."""
    half = Fraction(1, 2)
    coin = _duplicated_coin().x
    const = constant_variable(coin.space, "k")
    return MixtureInstance(
        weights={"m1": half, "m2": half},
        pairs={"m1": (coin, coin), "m2": (const, const)},
    )


def _drift_sequence(rate: Callable[[int], int], description: str) -> SequenceInstance:
    """2x2 joint [[1/4 + d, 1/4 - d], [1/4 - d, 1/4 + d]] with
    d = 1/(4 rate(n)); the limit is an independent pair of fair coins."""
    quarter = Fraction(1, 4)
    labels = (("r1", "c1"), ("r1", "c2"), ("r2", "c1"), ("r2", "c2"))
    limit = {lab: quarter for lab in labels}

    def generator(n: int):
        delta = Fraction(1, 4 * rate(n))
        return {
            ("r1", "c1"): quarter + delta,
            ("r1", "c2"): quarter - delta,
            ("r2", "c1"): quarter - delta,
            ("r2", "c2"): quarter + delta,
        }

    return SequenceInstance(
        sequence=PmfSequence(labels, generator),
        limit=limit,
        description=description,
    )


def _canonical_pullbacks() -> List[PullbackInstance]:
    """One projection and one outcome-halving refinement over the recurring
    three-point pair; either one separates space-dependent pretenders."""
    base = _three_point_pair()
    aux = space({"v1": Fraction(1, 4), "v2": Fraction(3, 4)})
    projection = projection_map(base.x.space, aux, "left")

    refinement = refinement_map(
        base.x.space, {w: (Fraction(1, 2), Fraction(1, 2)) for w in base.x.space.outcomes}
    )
    return [
        PullbackInstance(base.x, base.y, projection),
        PullbackInstance(base.x, base.y, refinement),
    ]


def _random_sequence(rng: random.Random) -> SequenceInstance:
    """A random joint limit with a 1/n perturbation moving mass between two
    cells; entries stay valid for every n >= 1 by construction.

    Two constant variables give a one-cell table with no receiver cell; only
    that draw is redrawn, so every other draw stays as it was."""
    while True:
        x, y = random_pair(rng, max_alphabet=3, max_outcomes=5)
        limit = joint_table(x, y)
        if len(limit) > 1:
            break
    cells = sort_labels(limit)
    donors = [cell for cell in cells if limit[cell] > 0]
    donor = rng.choice(donors)
    receiver = rng.choice([cell for cell in cells if cell != donor])
    step = limit[donor] / 2

    def generator(n: int, limit=dict(limit), donor=donor, receiver=receiver, step=step):
        term = dict(limit)
        term[donor] = term[donor] - step / n
        term[receiver] = term[receiver] + step / n
        return term

    return SequenceInstance(
        sequence=PmfSequence(tuple(cells), generator),
        limit=dict(limit),
        description="mass drift between two joint cells at rate 1/n",
    )


@dataclass(frozen=True)
class AuditCorpus:
    """The seeded instance corpus shared by all six checks and the probe."""

    seed: int
    instances: int
    pairs: Tuple[PairInstance, ...]
    vacuity: Tuple[VacuityInstance, ...]
    mixtures: Tuple[MixtureInstance, ...]
    pullbacks: Tuple[PullbackInstance, ...]
    triangles: Tuple[Triple, ...]
    sequences: Tuple[SequenceInstance, ...]

    def probe_pairs(self) -> Tuple[PairInstance, ...]:
        coin = fair_coin()
        extras = tuple(PairInstance(v.x, v.c) for v in self.vacuity)
        return self.pairs + extras + (PairInstance(coin, coin),)


def build_audit_corpus(seed: int = DEFAULT_SEED, instances: int = DEFAULT_INSTANCES) -> AuditCorpus:
    """Deterministic corpus: a fixed set of canonical witnesses first, then
    seeded random instances up to the requested count per check.

    Alphabets stay at five labels or fewer.  Drawn spaces, mixture weights
    and sequence limits keep weight denominators of at most 24; the product
    and refinement spaces built from them (mixture spaces, pullback sources)
    reach up to 24 * 24.  Counterexamples stay readable and exact arithmetic
    cheap.
    """
    if instances < MIN_INSTANCES:
        raise ValueError(f"corpus needs at least {MIN_INSTANCES} instances per check")

    def fill(canonical, draw, count, salt):
        rng = random.Random(seed * 1_000_003 + salt)
        out = list(canonical)[:count]
        while len(out) < count:
            out.append(draw(rng))
        return tuple(out)

    pairs = fill(
        [_three_point_pair(), _independent_coins(), _duplicated_coin(), _correlated_table_pair()],
        lambda rng: PairInstance(*random_pair(rng)),
        instances,
        salt=1,
    )
    coin = _duplicated_coin().x
    vacuity = fill(
        [
            VacuityInstance(coin, constant_variable(coin.space, "c")),
            VacuityInstance(constant_variable(coin.space, "c1"), constant_variable(coin.space, "c2")),
        ],
        lambda rng: VacuityInstance(*random_vacuity_pair(rng)),
        instances,
        salt=2,
    )
    mixtures = fill(
        [_hand_mixture()],
        lambda rng: MixtureInstance(*random_mixture(rng)),
        instances,
        salt=3,
    )
    pullbacks = fill(
        _canonical_pullbacks(),
        lambda rng: PullbackInstance(*random_pullback(rng)),
        instances,
        salt=4,
    )
    base = _correlated_table_pair()
    # Instance i is of family "abcd"[i % 4]; instance 0 is the canonical one.
    families = itertools.cycle("bcda")
    triangles = fill(
        [Triple(base.x, canonical_product(base.x, base.y), base.y)],
        lambda rng: generate_markov_triangle(rng.randrange(2**32), family=next(families)),
        instances,
        salt=5,
    )
    sequences = fill(
        [
            _drift_sequence(lambda n: n, "symmetric 2x2 drift toward independent fair coins"),
            # Square-root rate: the same limit, reached slowly enough that the
            # residual information at every probe index stays far above
            # double-precision resolution; this separates genuinely continuous
            # functionals from thresholded ones.
            _drift_sequence(math.isqrt, "square-root-rate 2x2 drift toward independent fair coins"),
        ],
        _random_sequence,
        max(2, instances // 8),
        salt=6,
    )
    return AuditCorpus(
        seed=seed,
        instances=instances,
        pairs=pairs,
        vacuity=vacuity,
        mixtures=mixtures,
        pullbacks=pullbacks,
        triangles=triangles,
        sequences=sequences,
    )


# ---------------------------------------------------------------------------
# Audit


@dataclass(frozen=True)
class AuditResult:
    functional: str
    seed: int
    instances: int
    tolerance: float
    probe_tolerance: float
    reports: Tuple[AxiomReport, ...]
    probe: Optional[ProbeReport]

    @property
    def failed_axioms(self) -> Tuple[int, ...]:
        return tuple(r.axiom for r in self.reports if not r.passed)

    @property
    def passed(self) -> bool:
        return not self.failed_axioms and self.probe is not None and self.probe.passed

    def as_document(self) -> dict:
        return {
            "functional": self.functional,
            "seed": self.seed,
            "instances": self.instances,
            "tolerance": self.tolerance,
            "probe_tolerance": self.probe_tolerance,
            "axioms": [r.as_document() for r in self.reports],
            "probe": self.probe.as_document() if self.probe is not None else None,
            "failed_axioms": list(self.failed_axioms),
            "passed": self.passed,
        }


def audit(
    functional: CandidateFunctional,
    *,
    corpus: Optional[AuditCorpus] = None,
    tolerance: float = IDENTITY_TOLERANCE,
    probe_tolerance: float = PROBE_TOLERANCE,
) -> AuditResult:
    """Run all six checks on ``corpus``, by default ``build_audit_corpus()``;
    run the characterization probe only if they all pass (a failed axiom
    already refutes the scale-fit hypothesis)."""
    if corpus is None:
        corpus = build_audit_corpus()
    reports = (
        check_continuity(functional, corpus.sequences, tolerance),
        check_strong_additivity(functional, corpus.mixtures, tolerance),
        check_symmetry(functional, corpus.pairs, tolerance),
        check_pullback_invariance(functional, corpus.pullbacks, tolerance),
        check_weak_functoriality(functional, corpus.triangles, tolerance),
        check_vacuity(functional, corpus.vacuity, tolerance),
    )
    probe = None
    if all(r.passed for r in reports):
        probe = characterization_probe(functional, corpus.probe_pairs(), probe_tolerance)
    return AuditResult(
        functional=functional.name,
        seed=corpus.seed,
        instances=corpus.instances,
        tolerance=tolerance,
        probe_tolerance=probe_tolerance,
        reports=reports,
        probe=probe,
    )


# ---------------------------------------------------------------------------
# Reference functionals


def _space_weight_entropy(x: FiniteRandomVariable, y: FiniteRandomVariable) -> float:
    # The space checked its weights when it was built; read its masses.
    return _entropy(x.space.masses.values(), x.space.denominator, math.log2)


def builtin_functionals() -> Tuple[CandidateFunctional, ...]:
    """The shipped reference functionals, each tagged with the axioms it is
    expected to break on the standard corpus."""
    return (
        CandidateFunctional(
            "mutual_information",
            mutual_information,
            "H(X) + H(Y) - H(X,Y); passes every check with scale 1",
        ),
        CandidateFunctional(
            "scaled_mutual_information",
            lambda x, y: 2.5 * mutual_information(x, y),
            "2.5 * mutual information; passes every check with scale 2.5",
        ),
        CandidateFunctional(
            "joint_entropy",
            joint_entropy,
            "H(X,Y); breaks only vanishing against constants",
            expected_failures=frozenset({6}),
        ),
        CandidateFunctional(
            "conditional_entropy",
            lambda x, y: conditional_entropy(x, y),
            "H(Y|X); breaks only symmetry",
            expected_failures=frozenset({3}),
        ),
        CandidateFunctional(
            "reverse_conditional_entropy",
            lambda x, y: conditional_entropy(y, x),
            "H(X|Y); breaks symmetry and vanishing against constants",
            expected_failures=frozenset({3, 6}),
        ),
        CandidateFunctional(
            "squared_mutual_information",
            lambda x, y: mutual_information(x, y) ** 2,
            "I(X,Y)^2; breaks strong additivity and weak functoriality",
            expected_failures=frozenset({2, 5}),
        ),
        CandidateFunctional(
            "space_weight_entropy",
            _space_weight_entropy,
            "entropy of the underlying outcome weights; depends on the "
            "space itself, so it breaks pullback invariance and vanishing "
            "against constants",
            expected_failures=frozenset({4, 6}),
        ),
    )


def get_functional(name: str) -> CandidateFunctional:
    for candidate in builtin_functionals():
        if candidate.name == name:
            return candidate
    known = ", ".join(c.name for c in builtin_functionals())
    raise LookupError(f"unknown functional {name!r}; known: {known}")
