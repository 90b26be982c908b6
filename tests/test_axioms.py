import json
import math
import random
from fractions import Fraction

import pytest

from frvkit import (
    CandidateFunctional,
    Triple,
    audit,
    build_audit_corpus,
    builtin_functionals,
    canonical_product,
    canonical_variable,
    characterization_probe,
    check_pullback_invariance,
    check_strong_additivity,
    check_symmetry,
    check_vacuity,
    check_weak_functoriality,
    constant_variable,
    entropy,
    get_functional,
    joint_table,
    mixture_distribution,
    mutual_information,
    refinement_map,
    relabel,
    space,
    variable,
)
from frvkit.axioms import (
    AXIOM_NAMES,
    MixtureInstance,
    PairInstance,
    PullbackInstance,
    VacuityInstance,
)
from frvkit.generators import random_bijection, random_mixture, random_pair, random_space

half = Fraction(1, 2)

EXPECTED = {
    "mutual_information": set(),
    "scaled_mutual_information": set(),
    "joint_entropy": {6},
    "conditional_entropy": {3},
    "reverse_conditional_entropy": {3, 6},
    "squared_mutual_information": {2, 5},
    "space_weight_entropy": {4, 6},
}

SMALL = dict(seed=11, instances=12)


@pytest.fixture(scope="module")
def small_corpus():
    return build_audit_corpus(seed=11, instances=12)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_builtin_audits_match_their_expected_failures(name, small_corpus):
    functional = get_functional(name)
    result = audit(functional, corpus=small_corpus)
    assert set(result.failed_axioms) == EXPECTED[name]
    assert set(functional.expected_failures) == EXPECTED[name]


def test_registry_contents():
    names = [f.name for f in builtin_functionals()]
    assert names == sorted(EXPECTED, key=names.index)  # stable registry order
    assert set(names) == set(EXPECTED)
    with pytest.raises(LookupError):
        get_functional("no_such_functional")


def test_mutual_information_audit_passes_with_unit_scale(small_corpus):
    result = audit(get_functional("mutual_information"), corpus=small_corpus)
    assert result.passed
    assert result.probe is not None
    assert result.probe.fitted_c == 1.0
    assert result.probe.max_abs_deviation == 0.0


def test_scaled_audit_recovers_its_scale(small_corpus):
    result = audit(get_functional("scaled_mutual_information"), corpus=small_corpus)
    assert result.passed
    assert abs(result.probe.fitted_c - 2.5) <= 1e-9


def test_probe_recovers_constructed_scales(small_corpus):
    pairs = small_corpus.probe_pairs()
    for scale in (0.0, 0.5, 1.0, 2.5):
        functional = CandidateFunctional(
            f"scaled_{scale}", lambda x, y, s=scale: s * mutual_information(x, y)
        )
        report = characterization_probe(functional, pairs, tolerance=1e-9)
        assert abs(report.fitted_c - scale) <= 1e-9
        assert report.max_abs_deviation <= 1e-9


def test_probe_rejects_contaminated_information(small_corpus):
    functional = CandidateFunctional(
        "mi_plus_joint",
        lambda x, y: mutual_information(x, y) + 0.01 * entropy(joint_table(x, y).as_pmf()),
    )
    report = characterization_probe(functional, small_corpus.probe_pairs(), tolerance=1e-6)
    assert report.max_abs_deviation >= 1e-3
    assert not report.passed


def test_degenerate_fit_is_a_failed_probe():
    # zero on the reference coin but far from zero elsewhere
    functional = CandidateFunctional(
        "step_above_one_bit",
        lambda x, y: max(0.0, mutual_information(x, y) - 1.0),
    )
    three_way = canonical_variable(
        {"a": Fraction(1, 3), "b": Fraction(1, 3), "c": Fraction(1, 3)}
    )
    pairs = [PairInstance(three_way, three_way)]
    report = characterization_probe(functional, pairs, tolerance=1e-6)
    assert report.error.startswith(
        "DegenerateFit: step_above_one_bit: fit on the reference coin is 0.0 "
    )
    assert math.isnan(report.fitted_c) and math.isnan(report.max_abs_deviation)
    assert report.instances == 1 and report.passed is False


def test_audit_reports_a_degenerate_fit_as_a_failed_probe():
    # At a huge tolerance every check passes, and the probe's fit on the coin
    # is 0.0 while H(Y|X) is not negligible elsewhere.
    corpus = build_audit_corpus(7, 8)
    result = audit(get_functional("conditional_entropy"), corpus=corpus, tolerance=1e300)
    assert result.failed_axioms == () and not result.passed
    probe = result.probe
    assert probe.error.startswith(
        "DegenerateFit: conditional_entropy: fit on the reference coin is 0.0 "
    )
    assert math.isnan(probe.fitted_c) and math.isnan(probe.max_abs_deviation)
    assert probe.instances == len(corpus.probe_pairs()) and not probe.passed


def test_zero_functional_probe_is_not_degenerate(small_corpus):
    functional = CandidateFunctional("zero", lambda x, y: 0.0)
    report = characterization_probe(functional, small_corpus.probe_pairs(), tolerance=1e-9)
    assert report.fitted_c == 0.0 and report.max_abs_deviation == 0.0


def test_counterexample_present_exactly_on_failure(small_corpus):
    result = audit(get_functional("joint_entropy"), corpus=small_corpus)
    for report in result.reports:
        if report.passed:
            assert report.counterexample is None
        else:
            assert report.counterexample is not None
            assert report.counterexample["max_residual"] == report.max_residual


def test_symmetry_counterexample_is_a_parsable_document(small_corpus):
    report = check_symmetry(
        get_functional("conditional_entropy"), small_corpus.pairs, 1e-9
    )
    assert not report.passed
    from frvkit.documents import parse_instance_document

    doc = dict(report.counterexample)
    doc.pop("max_residual")
    _, variables = parse_instance_document(doc)
    assert set(variables) == {"X", "Y"}


def test_vacuity_check_flags_joint_entropy(small_corpus):
    report = check_vacuity(get_functional("joint_entropy"), small_corpus.vacuity, 1e-9)
    assert not report.passed
    assert report.max_residual >= 0.9  # a coin against a constant leaks H(X)=1


def test_step_functional_fails_continuity(small_corpus):
    step = CandidateFunctional(
        "positive_information_indicator",
        lambda x, y: 1.0 if mutual_information(x, y) > 0 else 0.0,
    )
    result = audit(step, corpus=small_corpus)
    assert 1 in result.failed_axioms


def test_continuity_counterexample_is_the_parsable_limit_pair(small_corpus):
    from frvkit.documents import parse_instance_document

    step = CandidateFunctional(
        "positive_information_indicator",
        lambda x, y: 1.0 if mutual_information(x, y) > 0 else 0.0,
    )
    counterexample = audit(step, corpus=small_corpus).reports[0].counterexample
    assert counterexample is not None
    _, variables = parse_instance_document(counterexample)
    assert set(variables) == {"X", "Y"}
    witness = next(
        inst for inst in small_corpus.sequences
        if inst.description == counterexample["description"]
    )
    assert joint_table(variables["X"], variables["Y"]).as_pmf() == witness.limit


def test_audit_reports_are_deterministic():
    first = audit(get_functional("conditional_entropy"), corpus=build_audit_corpus(**SMALL))
    second = audit(get_functional("conditional_entropy"), corpus=build_audit_corpus(**SMALL))
    assert json.dumps(first.as_document(), sort_keys=True) == json.dumps(
        second.as_document(), sort_keys=True
    )


def test_continuity_check_trivial_on_constant_sequences():
    from frvkit import PmfSequence
    from frvkit.axioms import SequenceInstance, check_continuity

    cells = {("r", "c1"): half, ("r", "c2"): half}
    instance = SequenceInstance(
        sequence=PmfSequence(tuple(cells), lambda n: dict(cells)),
        limit=dict(cells),
    )
    report = check_continuity(get_functional("mutual_information"), [instance], 1e-12)
    assert report.max_residual == 0.0 and report.passed


def test_strong_additivity_single_component_reduces(small_corpus):
    pair = small_corpus.pairs[0]
    instance = MixtureInstance(
        weights={"m": Fraction(1)}, pairs={"m": (pair.x, pair.y)}
    )
    report = check_strong_additivity(
        get_functional("mutual_information"), [instance], 1e-9
    )
    assert report.passed  # the point-mass index variable contributes zero


def test_pullback_check_trivial_on_identity(small_corpus):
    from frvkit import identity_map
    from frvkit.axioms import PullbackInstance, check_pullback_invariance

    pair = small_corpus.pairs[0]
    instance = PullbackInstance(pair.x, pair.y, identity_map(pair.x.space))
    for name in ("mutual_information", "joint_entropy", "space_weight_entropy"):
        report = check_pullback_invariance(get_functional(name), [instance], 1e-12)
        assert report.max_residual == 0.0


def test_axiom_names_cover_one_to_six(small_corpus):
    result = audit(get_functional("mutual_information"), corpus=small_corpus)
    assert [r.axiom for r in result.reports] == [1, 2, 3, 4, 5, 6]
    assert [r.name for r in result.reports] == [AXIOM_NAMES[i] for i in range(1, 7)]


# ---------------------------------------------------------------------------
# Entropy-characterization sub-checks for S(p) = I(X_p, X_p)


def self_information(dist):
    x = canonical_variable(dist)
    return mutual_information(x, x)


def test_self_information_point_mass_is_exact_zero():
    assert self_information({"only": Fraction(1)}) == 0.0


def test_self_information_invariant_under_bijections(rng):
    for _ in range(40):
        x, _ = random_pair(rng)
        f = random_bijection(rng, x.alphabet)
        relabeled = relabel(x, f)
        # exact at the pmf level: the relabeled pmf is the original composed
        # with the inverse bijection
        assert relabeled.pmf == {f(lab): mass for lab, mass in x.pmf.items()}
        assert self_information(relabeled.pmf) == self_information(x.pmf)


def test_self_information_grouping_law(rng):
    for _ in range(40):
        weights, pairs = random_mixture(rng)
        parts = {tag: pair[0].pmf for tag, pair in pairs.items()}
        grouped = mixture_distribution(weights, parts)
        lhs = self_information(grouped)
        rhs = self_information(weights) + sum(
            float(weights[tag]) * self_information(parts[tag]) for tag in sorted(weights)
        )
        assert abs(lhs - rhs) <= 1e-9


def test_self_information_continuous_along_distribution_sequences():
    limit = {"a": half, "b": half}
    target = self_information(limit)
    gaps = []
    for n in (10**2, 10**4, 10**6):
        delta = Fraction(1, 2 * n)
        gaps.append(abs(self_information({"a": half + delta, "b": half - delta}) - target))
    assert gaps[0] >= gaps[1] >= gaps[2]
    assert gaps[-1] <= 1e-9


# ---------------------------------------------------------------------------
# Identities used by the uniqueness argument, evaluated at F = I


def test_relabeled_constant_exchange_identity(rng):
    for _ in range(25):
        x, _ = random_pair(rng)
        c = constant_variable(x.space, "k")
        fx = relabel(x, random_bijection(rng, x.alphabet))
        lhs = (
            mutual_information(x, c)
            - mutual_information(fx, c)
            + mutual_information(fx, fx)
        )
        rhs = (
            mutual_information(fx, c)
            - mutual_information(x, c)
            + mutual_information(x, x)
        )
        assert abs(lhs - rhs) <= 1e-9


def test_information_against_own_product_collapses(rng):
    for _ in range(25):
        x, y = random_pair(rng)
        product = canonical_product(x, y)
        assert abs(
            mutual_information(x, product) - mutual_information(x, x)
        ) <= 1e-9
        assert abs(
            mutual_information(product, y) - mutual_information(y, y)
        ) <= 1e-9


# ---------------------------------------------------------------------------
# Corpus building never crashes on a valid seed


def test_corpus_builds_for_every_seed_at_a_small_count():
    # 24 instances give one random convergent sequence per corpus; a draw of
    # two constant variables used to leave it without a receiver cell.
    for seed in range(200):
        corpus = build_audit_corpus(seed=seed, instances=24)
        assert len(corpus.sequences) == 3


def test_corpus_builds_at_a_large_count():
    corpus = build_audit_corpus(seed=17, instances=128)
    assert len(corpus.sequences) == 16
    for inst in corpus.sequences:
        assert len(inst.limit) > 1


# ---------------------------------------------------------------------------
# Non-finite values and exceptions fail; they never pass


def _alphabet_guard(value):
    """Mutual information, except ``value`` whenever an alphabet has more
    than two labels."""
    def fn(x, y):
        if len(x.alphabet) > 2 or len(y.alphabet) > 2:
            return value
        return mutual_information(x, y)

    return fn


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_values_fail_with_a_counterexample(value, small_corpus):
    candidate = CandidateFunctional("non_finite", _alphabet_guard(value))
    result = audit(candidate, corpus=small_corpus)
    assert not result.passed and result.failed_axioms and result.probe is None
    for report in result.reports:
        if not report.passed:
            assert report.counterexample is not None
            recorded = report.counterexample["max_residual"]
            assert recorded != recorded or recorded == float("inf")


def test_raising_functional_fails_every_check_with_the_exception_recorded(small_corpus):
    def boom(x, y):
        raise ZeroDivisionError("no information here")

    result = audit(CandidateFunctional("raises", boom), corpus=small_corpus)
    assert result.failed_axioms == (1, 2, 3, 4, 5, 6)
    for report in result.reports:
        assert report.counterexample["error"] == "ZeroDivisionError: no information here"
    json.loads(json.dumps(result.as_document()))  # the report still serializes


def test_nan_at_an_early_probe_fails_continuity():
    from frvkit import PmfSequence
    from frvkit.axioms import SequenceInstance, check_continuity

    quarter = Fraction(1, 4)
    cells = (("r1", "c1"), ("r1", "c2"), ("r2", "c1"), ("r2", "c2"))

    def term(n):
        d = Fraction(1, 4 * n)
        return dict(zip(cells, (quarter + d, quarter - d, quarter - d, quarter + d)))

    def nan_at_first_probe(x, y):
        if any(w.denominator == 4000 for w in x.space.weights.values()):
            return float("nan")
        return mutual_information(x, y)

    instance = SequenceInstance(PmfSequence(cells, term), dict(zip(cells, [quarter] * 4)))
    candidate = CandidateFunctional("nan_early", nan_at_first_probe)
    report = check_continuity(candidate, [instance], 1e-9)
    assert not report.passed
    assert report.max_residual != report.max_residual  # NaN
    assert report.counterexample is not None


def test_probe_fails_on_nan_and_on_exceptions(small_corpus):
    pairs = small_corpus.probe_pairs()
    nan_report = characterization_probe(
        CandidateFunctional("nan", _alphabet_guard(float("nan"))), pairs
    )
    assert not nan_report.passed and nan_report.error is None

    def raise_on_constants(x, y):
        if x.is_constant() or y.is_constant():
            raise KeyError("constant")
        return mutual_information(x, y)

    raised = characterization_probe(CandidateFunctional("raises", raise_on_constants), pairs)
    assert not raised.passed
    assert raised.as_document()["error"] == "KeyError: 'constant'"


# ---------------------------------------------------------------------------
# Grouping and call order of the identity residuals


def _grouping_oracle():
    """Four variables on one uniform space, and a functional that returns a
    chosen float for each (name, name) pair it is called on, recording the
    call.  Names resolve by structural equality, so derived variables (the
    mixed pair, the index variable, pulled variables) get the names the
    caller registers for them."""
    sp = space(dict.fromkeys(("w1", "w2", "w3", "w4"), Fraction(1, 4)))
    known = {
        "X": variable(sp, {"w1": "a", "w2": "a", "w3": "b", "w4": "b"}),
        "Y": variable(sp, {"w1": "u", "w2": "v", "w3": "u", "w4": "v"}),
        "Z": variable(sp, {"w1": "p", "w2": "p", "w3": "p", "w4": "q"}),
        "C": constant_variable(sp, "k"),
    }
    values, calls = {}, []

    def name(v):
        return next(key for key, known_v in known.items() if known_v == v)

    def fn(x, y):
        calls.append((name(x), name(y)))
        return values[calls[-1]]

    return known, values, calls, CandidateFunctional("keyed", fn)


def test_strong_additivity_residual_grouping_and_call_order():
    known, values, calls, candidate = _grouping_oracle()
    x, y, z = known["X"], known["Y"], known["Z"]
    weights = {"t3": Fraction(1, 4), "t1": Fraction(1, 4), "t2": Fraction(1, 2)}
    inst = MixtureInstance(weights, {"t3": (z, x), "t1": (x, y), "t2": (y, z)})
    known["M1"], known["M2"] = inst.mixed_pair()
    known["I"] = canonical_variable(weights)
    values.update({
        ("M1", "M2"): 1.0, ("I", "I"): 1e16,
        ("X", "Y"): 4.0, ("Y", "Z"): -2e16, ("Z", "X"): 3.0,
    })
    report = check_strong_additivity(candidate, [inst], 1e-9)
    rhs = ((1e16 + 0.25 * 4.0) + 0.5 * -2e16) + 0.25 * 3.0
    assert report.max_residual.hex() == abs(1.0 - rhs).hex() == (0.25).hex()
    assert calls == [("M1", "M2"), ("I", "I"), ("X", "Y"), ("Y", "Z"), ("Z", "X")]


def test_symmetry_residual_grouping_and_call_order():
    known, values, calls, candidate = _grouping_oracle()
    values.update({("X", "Y"): 0.1, ("Y", "X"): 0.3})
    report = check_symmetry(candidate, [PairInstance(known["X"], known["Y"])], 1e-9)
    assert report.max_residual.hex() == abs(0.1 - 0.3).hex()
    assert calls == [("X", "Y"), ("Y", "X")]


def test_pullback_invariance_residual_grouping_and_call_order():
    known, values, calls, candidate = _grouping_oracle()
    x, y = known["X"], known["Y"]
    split = refinement_map(x.space, {w: (Fraction(1, 3), Fraction(2, 3)) for w in x.space.outcomes})
    inst = PullbackInstance(x, y, split)
    known["PX"], known["PY"] = inst.pulled()
    values.update({("X", "Y"): 0.1, ("PX", "PY"): 0.7})
    report = check_pullback_invariance(candidate, [inst], 1e-9)
    assert report.max_residual.hex() == abs(0.1 - 0.7).hex()
    assert calls == [("X", "Y"), ("PX", "PY")]


def test_weak_functoriality_residual_grouping_and_call_order():
    known, values, calls, candidate = _grouping_oracle()
    values.update({("X", "Z"): 1e16, ("X", "Y"): -1.0, ("Y", "Z"): 2.0**53, ("Y", "Y"): -1.0})
    triple = Triple(known["X"], known["Y"], known["Z"])
    report = check_weak_functoriality(candidate, [triple], 1e-9)
    # One signed side, left to right; every other grouping of these four
    # values, and an exact sum, end one unit or two away.
    expected = abs(((1e16 - -1.0) - 2.0**53) + -1.0)
    assert report.max_residual.hex() == expected.hex() == (992800745259007.0).hex()
    assert calls == [("X", "Z"), ("X", "Y"), ("Y", "Z"), ("Y", "Y")]


def test_vacuity_residual_grouping_and_call_order():
    known, values, calls, candidate = _grouping_oracle()
    values[("X", "C")] = -0.1
    report = check_vacuity(candidate, [VacuityInstance(known["X"], known["C"])], 1e-9)
    assert report.max_residual.hex() == (0.1).hex()
    assert calls == [("X", "C")]


def test_space_weight_entropy_matches_entropy_of_the_weights_bit_for_bit():
    """The functional reads the space's checked masses; its value is that of
    ``entropy`` over a fresh copy of the weights, which checks them again."""
    fn = get_functional("space_weight_entropy").fn
    for seed in range(240):
        rng = random.Random(seed)
        sp = random_space(rng, rng.randint(1, 16), allow_zero=seed % 2 == 1)
        x = constant_variable(sp)
        assert fn(x, x).hex() == entropy(dict(sp.weights)).hex(), seed
