"""Acceptance suite: ten numbered criteria, one test and one printed
pass/fail line each.  Run with ``pytest tests/test_acceptance.py -v -s`` to
see the per-criterion lines as they complete."""

import itertools
import json
import random
import time
from fractions import Fraction

from frvkit import (
    CandidateFunctional,
    PmfSequence,
    Triple,
    audit,
    build_audit_corpus,
    canonical_pair,
    canonical_variable,
    characterization_probe,
    conditional_entropy,
    constant_variable,
    convex_sum_pairs,
    entropy,
    find_mediator,
    generate_markov_triangle,
    get_functional,
    joint_entropy,
    joint_table,
    mixture_distribution,
    mutual_information,
    relabel,
    space,
    variable,
    verify_mediator,
)
from frvkit.axioms import CONTINUITY_PROBES
from frvkit.cli import main as cli_main
from frvkit.documents import serialize_document
from frvkit.generators import (
    random_bijection,
    random_mixture,
    random_pair,
    random_triple,
)
from oracles import brute_force_has_mediator

half = Fraction(1, 2)
quarter = Fraction(1, 4)


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:02d}: {status} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_definitional_identities():
    started = time.perf_counter()
    rng = random.Random(101)
    worst_identity = 0.0
    for _ in range(1000):
        x, y = random_pair(rng)
        information = mutual_information(x, y)
        recomputed = (entropy(x.pmf) + entropy(y.pmf)) - joint_entropy(x, y)
        assert information == recomputed  # same expression, same bits
        gap = abs(information - (mutual_information(y, y) - conditional_entropy(x, y)))
        worst_identity = max(worst_identity, gap)
        assert gap <= 1e-9
        assert information >= -1e-9
        assert mutual_information(x, constant_variable(x.space)) == 0.0
    elapsed = time.perf_counter() - started
    report(
        1,
        elapsed < 5.0,
        f"1000 pairs, worst conditional-entropy identity gap {worst_identity:.2e}, "
        f"{elapsed:.2f}s (< 5s)",
    )


def test_criterion_02_strong_additivity():
    rng = random.Random(202)
    worst = 0.0
    for _ in range(500):
        weights, pairs = random_mixture(rng)
        mixed_first, mixed_second = convex_sum_pairs(weights, pairs)
        lhs = mutual_information(mixed_first, mixed_second)
        rhs = entropy(weights) + sum(
            float(weights[tag]) * mutual_information(*pairs[tag])
            for tag in sorted(weights)
        )
        worst = max(worst, abs(lhs - rhs))
        assert abs(lhs - rhs) <= 1e-9

    sp = space({"w1": half, "w2": half})
    coin = variable(sp, {"w1": "h", "w2": "t"})
    const = constant_variable(sp, "k")
    mix_weights = {"0": half, "1": half}
    mixed = convex_sum_pairs(mix_weights, {"0": (coin, coin), "1": (const, const)})
    lhs = mutual_information(*mixed)
    rhs = entropy(mix_weights) + 0.5 * mutual_information(coin, coin) + 0.5 * 0.0
    hand_ok = abs(lhs - 1.5) <= 1e-12 and abs(rhs - 1.5) <= 1e-12
    report(
        2,
        hand_ok,
        f"500 mixtures, worst residual {worst:.2e}; hand instance both sides "
        f"{lhs:.12f} / {rhs:.12f}",
    )


def test_criterion_03_product_convex_sum_exchange():
    from frvkit import canonical_product, convex_sum

    rng = random.Random(303)
    for _ in range(200):
        weights, pairs = random_mixture(rng)
        lhs = convex_sum(
            weights, {tag: canonical_product(*pair) for tag, pair in pairs.items()}
        )
        rhs = canonical_product(*convex_sum_pairs(weights, pairs))
        assert lhs.space == rhs.space
        assert lhs.assignment == rhs.assignment
        assert lhs.alphabet == rhs.alphabet
    report(3, True, "200 mixtures, both sides identical label for label")


def test_criterion_04_markov_triangle_suite():
    started = time.perf_counter()
    worst_weak = worst_chain = 0.0
    for seed in range(1000):
        t = generate_markov_triangle(seed, family="abcd"[seed % 4])
        mediator = find_mediator(t)
        assert mediator is not None and verify_mediator(t, mediator)
        from frvkit import chain_rule_residual, weak_functoriality_residual

        weak = weak_functoriality_residual(t)
        chain = chain_rule_residual(t)
        worst_weak = max(worst_weak, abs(weak))
        worst_chain = max(worst_chain, abs(chain))
        assert abs(weak) <= 1e-9 and abs(chain) <= 1e-9
        xz = mutual_information(t.x, t.z)
        assert xz <= mutual_information(t.x, t.y) + mutual_information(t.y, t.z) + 1e-9
    elapsed = time.perf_counter() - started
    report(
        4,
        elapsed < 30.0,
        f"1000 triangles over 4 families, worst residuals weak={worst_weak:.2e} "
        f"chain={worst_chain:.2e}, {elapsed:.2f}s (< 30s)",
    )


def test_criterion_05_mediator_search_matches_brute_force():
    rng = random.Random(505)
    shapes = list(itertools.product((1, 2, 3), repeat=3))
    found, missing = 0, 0
    for index in range(200):
        if index % 5 == 0:
            t = generate_markov_triangle(
                rng.randrange(2**32),
                max_alphabet=3,
                max_outcomes=5,
                family="bcd"[index // 5 % 3],
            )
        else:
            t = Triple(*random_triple(rng, shapes[index % len(shapes)], max_outcomes=5))
        exists = find_mediator(t) is not None
        assert exists == brute_force_has_mediator(t)
        found += exists
        missing += not exists
    report(
        5,
        found > 0 and missing > 0,
        f"200 triples (alphabets <= 3): search and enumeration agree "
        f"({found} with mediators, {missing} without)",
    )


def test_criterion_06_sharpness_on_standard_corpus():
    corpus = build_audit_corpus()
    joint = audit(get_functional("joint_entropy"), corpus=corpus)
    conditional = audit(get_functional("conditional_entropy"), corpus=corpus)
    information = audit(get_functional("mutual_information"), corpus=corpus)
    ok = (
        joint.failed_axioms == (6,)
        and conditional.failed_axioms == (3,)
        and information.failed_axioms == ()
        and information.probe is not None
        and abs(information.probe.fitted_c - 1.0) <= 1e-6
        and information.probe.max_abs_deviation <= 1e-6
    )
    report(
        6,
        ok,
        f"joint_entropy fails {joint.failed_axioms}, conditional_entropy fails "
        f"{conditional.failed_axioms}, mutual_information passes with "
        f"c={information.probe.fitted_c} and deviation "
        f"{information.probe.max_abs_deviation:.2e}",
    )


def test_criterion_07_scaled_uniqueness_probe():
    corpus = build_audit_corpus()
    probe_pairs = corpus.probe_pairs()
    for scale in (0.0, 0.5, 1.0, 2.5):
        functional = CandidateFunctional(
            f"scaled_{scale}", lambda x, y, s=scale: s * mutual_information(x, y)
        )
        probe = characterization_probe(functional, probe_pairs, tolerance=1e-9)
        assert abs(probe.fitted_c - scale) <= 1e-9
        assert probe.max_abs_deviation <= 1e-9

    contaminated = CandidateFunctional(
        "mi_plus_joint",
        lambda x, y: mutual_information(x, y)
        + 0.01 * entropy(joint_table(x, y)),
    )
    result = audit(contaminated, corpus=corpus)
    probe = characterization_probe(contaminated, probe_pairs, tolerance=1e-6)
    audit_residual = max(r.max_residual for r in result.reports if not r.passed)
    ok = (
        not result.passed
        and audit_residual >= 1e-3
        and probe.max_abs_deviation >= 1e-3
    )
    report(
        7,
        ok,
        f"scales (0, 1/2, 1, 2.5) recovered within 1e-9; contaminated candidate "
        f"fails axioms {result.failed_axioms} with residual {audit_residual:.2e} "
        f"and probe deviation {probe.max_abs_deviation:.2e}",
    )


def test_criterion_08_continuity_probing():
    labels = (("r1", "c1"), ("r1", "c2"), ("r2", "c1"), ("r2", "c2"))

    def generator(n):
        delta = Fraction(1, 4 * n)
        return {
            ("r1", "c1"): quarter + delta,
            ("r1", "c2"): quarter - delta,
            ("r2", "c1"): quarter - delta,
            ("r2", "c2"): quarter + delta,
        }

    gaps = []
    for n in (10**2, 10**4, 10**6):
        term = canonical_pair(generator(n))
        gaps.append(abs(mutual_information(*term)))
    sequence = PmfSequence(labels, generator)
    deviations = [
        float(max(abs(sequence.term(n)[lab] - quarter) for lab in labels))
        for n in CONTINUITY_PROBES
    ]
    converges = (
        all(a > b for a, b in zip(deviations, deviations[1:])) and deviations[-1] <= 1e-9
    )
    ok = gaps[0] > gaps[1] > gaps[2] and gaps[2] <= 1e-6 and converges
    report(
        8,
        ok,
        f"|I_n| at n=1e2,1e4,1e6: {gaps[0]:.3e} > {gaps[1]:.3e} > {gaps[2]:.3e} "
        f"(<= 1e-6 at 1e6); max pmf deviation at the continuity probes shrinks "
        f"to {deviations[-1]:.1e}",
    )


def test_criterion_09_entropy_grouping_subchecks():
    point = canonical_variable({"only": Fraction(1)})
    point_ok = mutual_information(point, point) == 0.0

    rng = random.Random(909)
    for _ in range(50):
        x, _ = random_pair(rng)
        f = random_bijection(rng, x.alphabet)
        relabeled = relabel(x, f)
        assert relabeled.pmf == {f[lab]: mass for lab, mass in x.pmf.items()}
        rx, rr = canonical_variable(x.pmf), canonical_variable(relabeled.pmf)
        assert mutual_information(rx, rx) == mutual_information(rr, rr)

    worst = 0.0
    for _ in range(200):
        weights, pairs = random_mixture(rng)
        parts = {tag: pair[0].pmf for tag, pair in pairs.items()}
        grouped = canonical_variable(mixture_distribution(weights, parts))
        w_var = canonical_variable(weights)
        lhs = mutual_information(grouped, grouped)
        rhs = mutual_information(w_var, w_var) + sum(
            float(weights[tag])
            * mutual_information(canonical_variable(parts[tag]), canonical_variable(parts[tag]))
            for tag in sorted(weights)
        )
        worst = max(worst, abs(lhs - rhs))
        assert abs(lhs - rhs) <= 1e-9
    report(
        9,
        point_ok,
        f"point mass exact; 50 bijections invariant at pmf level; grouping law "
        f"worst residual {worst:.2e} over 200 mixtures",
    )


def test_criterion_10_cli_contract(tmp_path, capsys):
    def run(*argv):
        code = cli_main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    expectations = [
        ([["1/4", "1/4"], ["1/4", "1/4"]], 0.0),
        ([["1/2", "0/1"], ["0/1", "1/2"]], 1.0),
        ([["1/3", "1/6"], ["1/6", "1/3"]], 0.08170416594551044),
    ]
    for cells, expected in expectations:
        doc = {
            "version": 1,
            "joint": {"rows": ["a", "b"], "cols": ["u", "v"], "cells": cells},
        }
        path = tmp_path / "table.json"
        path.write_text(serialize_document(doc))
        code, out, _ = run("compute", str(path), "--format", "json")
        assert code == 0
        got = json.loads(out)["mutual_information"]
        assert abs(got - expected) <= max(5e-7 * abs(expected), 1e-9)

    code_pass, _, _ = run(
        "audit", "--functional", "mutual_information", "--seed", "4", "--instances", "8"
    )
    code_fail, _, _ = run(
        "audit", "--functional", "joint_entropy", "--seed", "4", "--instances", "8"
    )
    code_unknown, _, _ = run("audit", "--functional", "not_registered")
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 1, "space": {"outcomes": ["w"], "weights": {"w": "2/1"}}}\n')
    code_invalid, _, _ = run("compute", str(bad))

    first, second = tmp_path / "one.json", tmp_path / "two.json"
    for target in (first, second):
        run(
            "audit", "--functional", "mutual_information",
            "--seed", "12", "--instances", "8", "--out", str(target),
        )
    identical = first.read_bytes() == second.read_bytes()

    ok = (
        (code_pass, code_fail, code_unknown, code_invalid) == (0, 1, 2, 2)
        and identical
    )
    report(
        10,
        ok,
        f"compute examples reproduce; exit codes (pass, fail, unknown, invalid) = "
        f"({code_pass}, {code_fail}, {code_unknown}, {code_invalid}); fixed-seed "
        f"reports byte-identical={identical}",
    )
