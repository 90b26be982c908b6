import json
import math
import random
import re
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frvkit import (
    ConditionalKernel,
    DomainMismatch,
    InvalidBase,
    NotAPmf,
    canonical_pair,
    canonical_product,
    conditional_entropy,
    conditional_kernel,
    constant_variable,
    entropy,
    joint_entropy,
    joint_rows,
    joint_table,
    mutual_information,
    space,
    variable,
)
from frvkit import measures
from frvkit.cli import main
from frvkit.generators import random_pair, random_space, random_variable
from oracles import oracle_conditional_entropy

# Frozen by direct evaluation of -sum p*log2(p) over the exact values.
H_THIRD_SIXTH_HALF = 1.4591479170272448
H_TWO_THIRDS = 0.9182958340544896
I_CORRELATED_2X2 = 0.08170416594551044

half = Fraction(1, 2)
third = Fraction(1, 3)
quarter = Fraction(1, 4)
sixth = Fraction(1, 6)


def correlated_pair():
    """Canonical realization of the 2x2 joint [[1/3, 1/6], [1/6, 1/3]]."""
    return canonical_pair({
        ("a1", "b1"): third,
        ("a1", "b2"): sixth,
        ("a2", "b1"): sixth,
        ("a2", "b2"): third,
    })


def test_entropy_two_point_uniform():
    assert entropy({"h": half, "t": half}) == 1.0


def test_entropy_point_mass_is_exact_zero():
    result = entropy({"x": Fraction(1)})
    assert result == 0.0 and math.copysign(1.0, result) == 1.0


def test_entropy_dyadic_three_point():
    assert entropy({"a": half, "b": quarter, "c": quarter}) == 1.5


def test_entropy_derived_value():
    assert entropy({"a": sixth, "b": third, "c": half}) == pytest.approx(
        H_THIRD_SIXTH_HALF, abs=1e-15
    )


def test_entropy_other_bases():
    assert entropy({"h": half, "t": half}, base=math.e) == pytest.approx(math.log(2))
    assert entropy({"h": half, "t": half}, base=10.0) == pytest.approx(math.log10(2))
    assert entropy({"a": quarter} | {"b": quarter, "c": half}, base=4.0) == pytest.approx(
        entropy({"a": quarter, "b": quarter, "c": half}) / 2
    )


def test_entropy_rejects_bad_base():
    with pytest.raises(InvalidBase):
        entropy({"h": half, "t": half}, base=1.0)
    with pytest.raises(InvalidBase):
        entropy({"h": half, "t": half}, base=0.5)
    with pytest.raises(InvalidBase):
        entropy({"h": half, "t": half}, base=math.inf)


def test_entropy_rejects_non_pmf():
    with pytest.raises(NotAPmf):
        entropy({"h": half, "t": third})


def test_entropy_skips_exact_zeros():
    assert entropy({"h": half, "t": half, "ghost": Fraction(0)}) == 1.0


TINY = Fraction(1, 10**400)
TINY_REST = (1 - TINY) / 2


def test_a_mass_whose_probability_underflows_adds_no_term(tmp_path, capsys):
    """1/10^400 rounds to 0.0 as a float, so its term is dropped like an
    exact zero's; the two halves of the rest each round to 0.5."""
    sp = space({"tiny": TINY, "a": TINY_REST, "b": TINY_REST})
    x = variable(sp, {"tiny": "t", "a": "a", "b": "b"})
    assert entropy(x.pmf) == entropy(dict(x.pmf)) == 1.0
    assert mutual_information(x, x) == joint_entropy(x, x) == 1.0
    assert conditional_entropy(x, x) == 0.0
    doc = tmp_path / "tiny.json"
    cells = [[str(TINY), str(TINY_REST)], [str(TINY_REST), "0/1"]]
    doc.write_text(json.dumps({
        "version": 1,
        "joint": {"rows": ["a", "b"], "cols": ["u", "v"], "cells": cells},
    }))
    assert main(["compute", str(doc), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["entropy_X"] == report["joint_entropy"] == 1.0


def test_joint_entropy_duplicated_coin(coin):
    assert joint_entropy(coin, coin) == 1.0


def test_joint_entropy_independent_coins(four_uniform):
    _, x, y = four_uniform
    assert joint_entropy(x, y) == 2.0


def test_joint_entropy_three_point(three_point):
    _, x, y = three_point
    assert joint_entropy(x, y) == pytest.approx(H_THIRD_SIXTH_HALF, abs=1e-15)


def test_conditional_kernel_identity(coin):
    kernel = conditional_kernel(coin, coin)
    assert kernel.prob("h", "h") == 1 and kernel.prob("t", "h") == 0


def test_conditional_kernel_independent_rows_equal_pmf(four_uniform):
    _, x, y = four_uniform
    kernel = conditional_kernel(x, y)
    for given in x.alphabet:
        assert kernel.row(given) == y.pmf


def test_conditional_kernel_correlated_2x2():
    x, y = correlated_pair()
    kernel = conditional_kernel(x, y)
    assert kernel.row("a1") == {"b1": Fraction(2, 3), "b2": third}
    assert kernel.row("a2") == {"b1": third, "b2": Fraction(2, 3)}


def test_conditional_kernel_zero_row():
    x, y = canonical_pair({("a1", "b1"): Fraction(1), ("a2", "b1"): Fraction(0)})
    kernel = conditional_kernel(x, y)
    assert kernel.row("a2") == {"b1": Fraction(0)}


@pytest.mark.parametrize(
    "given_alphabet, rows, message",
    [
        (("a", "b"), {"a": {"u": half, "v": half}}, "do not cover the conditioning"),
        (("a",), {"a": {"u": Fraction(1)}}, "does not cover the output"),
        (("a",), {"a": {"u": quarter, "v": quarter}}, "sum is 1/2, expected exactly 1"),
        (("a",), {"a": {"u": Fraction(2), "v": Fraction(-1)}}, "outside [0, 1]"),
        (("a",), {"a": {"u": 0.5, "v": 0.5}}, "expected Fraction, got float"),
        (("a",), {"a": {"u": 0.0, "v": 0.0}}, "zeros must be Fractions"),
    ],
    ids=["missing-row", "missing-label", "half-sum", "negative", "float", "float-zero-row"],
)
def test_conditional_kernel_rejects_malformed_rows(given_alphabet, rows, message):
    with pytest.raises(NotAPmf, match=re.escape(message)):
        ConditionalKernel(given_alphabet, ("u", "v"), rows)


def test_conditional_entropy_of_self_is_zero(three_point):
    _, _, y = three_point
    assert conditional_entropy(y, y) == 0.0


def test_conditional_entropy_independent(four_uniform):
    _, x, y = four_uniform
    assert conditional_entropy(x, y) == entropy(y.pmf)


def test_conditional_entropy_correlated_2x2():
    x, y = correlated_pair()
    assert conditional_entropy(x, y) == pytest.approx(H_TWO_THIRDS, abs=1e-15)


def test_mutual_information_independent_is_zero(four_uniform):
    _, x, y = four_uniform
    assert mutual_information(x, y) == 0.0


def test_mutual_information_of_self_is_entropy(coin):
    assert mutual_information(coin, coin) == 1.0


def test_mutual_information_correlated_2x2():
    x, y = correlated_pair()
    assert mutual_information(x, y) == pytest.approx(I_CORRELATED_2X2, abs=1e-15)


def test_measures_require_shared_space(coin, three_point):
    _, x, _ = three_point
    for fn in (joint_entropy, conditional_entropy, mutual_information):
        with pytest.raises(DomainMismatch):
            fn(coin, x)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_information_identity_against_conditional_entropy(seed):
    # I(X,Y) = I(Y,Y) - H(Y|X) for every generated pair
    rng = random.Random(seed)
    x, y = random_pair(rng)
    lhs = mutual_information(x, y)
    rhs = mutual_information(y, y) - conditional_entropy(x, y)
    assert abs(lhs - rhs) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_mutual_information_symmetric_to_the_last_bit(seed):
    rng = random.Random(seed)
    x, y = random_pair(rng)
    assert mutual_information(x, y) == mutual_information(y, x)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_mutual_information_nonnegative_and_vanishes_on_constants(seed):
    rng = random.Random(seed)
    x, y = random_pair(rng)
    assert mutual_information(x, y) >= -1e-9
    c = constant_variable(x.space)
    assert mutual_information(x, c) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_information_with_own_product_recovers_entropy(seed):
    rng = random.Random(seed)
    x, y = random_pair(rng)
    product = canonical_product(x, y)
    assert abs(mutual_information(x, product) - entropy(x.pmf)) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_joint_entropy_equals_product_entropy(seed):
    rng = random.Random(seed)
    x, y = random_pair(rng)
    gap = abs(joint_entropy(x, y) - entropy(canonical_product(x, y).pmf))
    assert gap <= 1e-12


# -- the one-pair memo ----------------------------------------------------------

MEMO_BASES = (2.0, 10.0, math.e, 3.0)
MEMO_SEEDS = range(200)


def _memo_calls(seed):
    """Every joint measure of one pair, each order and the self-pairs, at a
    base drawn from the seed: (function, side names, extra args)."""
    base = (MEMO_BASES[seed % len(MEMO_BASES)],)
    return [
        (fn, sides, base)
        for sides in ("xy", "yx", "xx", "yy")
        for fn in (joint_entropy, conditional_entropy, mutual_information)
    ] + [
        (fn, sides, ())
        for sides in ("xy", "yx")
        for fn in (joint_rows, joint_table, conditional_kernel)
    ]


def _memo_pair(seed):
    return random_pair(random.Random(seed), 6, 12)


def _memo_call(pair, call):
    fn, sides, args = call
    value = fn(*(pair["xy".index(side)] for side in sides), *args)
    return value.hex() if isinstance(value, float) else value


def _memo_reference(seed):
    """Each call's value on a freshly built pair, so that each is a first
    call that no earlier call can have counted."""
    return [_memo_call(_memo_pair(seed), call) for call in _memo_calls(seed)]


def test_joint_measures_agree_whatever_order_they_are_called_in():
    """Per pair the calls run in a shuffled order, so (y, x) often precedes
    (x, y), and calls on other pairs are interleaved at random."""
    rng = random.Random(16)
    pairs = {seed: _memo_pair(seed) for seed in MEMO_SEEDS}
    for seed in MEMO_SEEDS:
        calls = list(enumerate(_memo_calls(seed)))
        rng.shuffle(calls)
        got = {}
        for index, call in calls:
            if rng.random() < 0.3:
                other = rng.choice(MEMO_SEEDS)
                _memo_call(pairs[other], rng.choice(_memo_calls(other)))
            got[index] = _memo_call(pairs[seed], call)
        assert [got[i] for i in range(len(calls))] == _memo_reference(seed), seed


def test_mutating_returned_joint_masses_changes_no_later_measure():
    x, y = correlated_pair()
    h_xy = joint_entropy(x, y).hex()
    for first, second in ((x, y), (y, x)):
        rows = joint_rows(first, second)
        expected = {a: dict(row) for a, row in rows.items()}
        for row in rows.values():
            row.clear()
        rows.clear()
        rows["a1"] = {"b1": 5}
        assert joint_rows(first, second) == expected
        assert joint_entropy(x, y).hex() == h_xy
        assert joint_entropy(y, x).hex() == h_xy


def test_threads_on_distinct_pairs_agree_with_a_serial_run():
    seeds = list(MEMO_SEEDS)
    serial = {seed: _memo_reference(seed) for seed in seeds}
    results, errors = {}, []

    def work(part):
        try:
            for _ in range(3):
                for seed in part:
                    pair = _memo_pair(seed)
                    results.setdefault(seed, []).append(
                        [_memo_call(pair, call) for call in _memo_calls(seed)]
                    )
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(seeds[k::4],)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert results == {seed: [values] * 3 for seed, values in serial.items()}


def _count_passes(monkeypatch):
    """Count the passes over the outcomes from here on, with an empty memo."""
    passes = []
    count_joint = measures.joint_rows

    def counted(x, y):
        passes.append((x, y))
        return count_joint(x, y)

    measures._last_pair[0] = None
    monkeypatch.setattr(measures, "joint_rows", counted)
    return passes


def test_compute_makes_one_pass_over_the_outcomes(monkeypatch, tmp_path, capsys):
    passes = _count_passes(monkeypatch)
    x, y = correlated_pair()
    for base in MEMO_BASES:
        joint_entropy(x, y, base)
        conditional_entropy(x, y, base)
        conditional_entropy(y, x, base)
        mutual_information(x, y, base)
    assert len(passes) == 1
    doc = tmp_path / "pair.json"
    doc.write_text(json.dumps({
        "version": 1,
        "joint": {"rows": ["a", "b"], "cols": ["u", "v"], "cells": [["1/3", "1/6"], ["1/6", "1/3"]]},
    }))
    assert main(["compute", str(doc)]) == 0
    capsys.readouterr()
    assert len(passes) == 2


def test_distinct_pairs_make_one_pass_each(monkeypatch):
    passes = _count_passes(monkeypatch)
    pairs = [_memo_pair(seed) for seed in range(20)]
    for functional in (mutual_information, joint_entropy, conditional_entropy):
        for x, y in pairs:
            functional(x, y)
    assert len(passes) == 3 * len(pairs)
    for x, y in pairs:
        mutual_information(x, y)
        conditional_entropy(y, x)
        joint_entropy(y, x)
    assert len(passes) == 4 * len(pairs)


def _oracle_pair(seed):
    """A seeded pair of up to 12 labels each; odd seeds sit on spaces that
    may carry zero-weight outcomes."""
    rng = random.Random(f"conditional-oracle/{seed}")
    if seed % 2 == 0:
        return random_pair(rng, 12, 24)
    sp = random_space(rng, rng.randint(2, 24), 40, allow_zero=True)
    sizes = [rng.randint(1, len(sp.outcomes)) for _ in range(2)]
    return tuple(random_variable(rng, sp, min(s, 12), prefix) for s, prefix in zip(sizes, "xy"))


def test_conditional_entropy_matches_an_oracle_whichever_way_the_memo_holds_the_pair():
    """Each pair is checked at a base drawn from its seed, twice: once with
    the memo counted as (x, y) and once as (y, x), so that each conditional
    entropy is read once from the memo's own rows and once from their
    transposition."""
    zero_weight = 0
    for seed in range(240):
        x, y = _oracle_pair(seed)
        zero_weight += not all(x.space.weights.values())
        base = MEMO_BASES[seed % len(MEMO_BASES)]
        expected = [
            (given, target, oracle_conditional_entropy(given, target, base))
            for given, target in ((x, y), (y, x))
        ]
        for first, second in ((x, y), (y, x)):
            joint_entropy(first, first)
            joint_entropy(first, second, base)
            assert measures._last_pair[0][0] is first
            for given, target, value in expected:
                assert abs(conditional_entropy(given, target, base) - value) <= 1e-12, seed
    assert zero_weight >= 60


# -- kept entropies and the pmf view -----------------------------------------------

KEPT_BASES = (2, 2.0, 10.0, math.e, 3.0)
KEPT_MEASURES = (
    lambda x, y, base: entropy(x.pmf, base),
    lambda x, y, base: entropy(y.pmf, base),
    joint_entropy,
    mutual_information,
    conditional_entropy,
    lambda x, y, base: conditional_entropy(y, x, base),
)
KEPT_CALLS = [(fn, base) for fn in KEPT_MEASURES for base in KEPT_BASES]


def _plain_values(x, y):
    """H(X), H(Y), H(X,Y) and I(X,Y), each at every base of KEPT_BASES, from
    plain mappings that no kept entropy can serve: the first four measures
    of KEPT_CALLS, in its order."""
    h_x = [entropy(dict(x.pmf), base) for base in KEPT_BASES]
    h_y = [entropy(dict(y.pmf), base) for base in KEPT_BASES]
    h_xy = [entropy(joint_table(x, y), base) for base in KEPT_BASES]
    i_xy = [(a + b) - c for a, b, c in zip(h_x, h_y, h_xy)]
    return [h.hex() for h in h_x + h_y + h_xy + i_xy]


def test_kept_entropies_agree_whatever_order_or_base_they_are_asked_in():
    """Every measure at every base on one pair object, the bases mixed and
    the calls shuffled, calls on other pairs interleaved at random; each
    value must be that of a first call on a freshly built pair."""
    rng = random.Random(18)
    pairs = {seed: _memo_pair(seed) for seed in MEMO_SEEDS}
    for seed in MEMO_SEEDS:
        calls = list(enumerate(KEPT_CALLS))
        rng.shuffle(calls)
        got = {}
        for index, (fn, base) in calls:
            if rng.random() < 0.3:
                other_fn, other_base = rng.choice(KEPT_CALLS)
                other_fn(*pairs[rng.choice(MEMO_SEEDS)], other_base)
            got[index] = fn(*pairs[seed], base).hex()
        fresh = [fn(*_memo_pair(seed), base).hex() for fn, base in KEPT_CALLS]
        assert [got[i] for i in range(len(calls))] == fresh, seed
        plain = _plain_values(*pairs[seed])
        assert fresh[: len(plain)] == plain, seed
        for fn in KEPT_MEASURES:
            for base in (1, 0.5, -2, math.nan):
                with pytest.raises(InvalidBase):
                    fn(*pairs[seed], base)


def _view_variables():
    """Seeded variables, some with zero-mass labels."""
    for seed in range(60):
        rng = random.Random(seed)
        sp = random_space(rng, rng.randint(1, 10), allow_zero=seed % 2 == 1)
        yield random_variable(rng, sp, rng.randint(1, len(sp.outcomes)))


def test_pmf_is_a_read_only_view_in_alphabet_order():
    for x in _view_variables():
        view = x.pmf
        assert view == dict(view) == dict(x.pmf)
        assert list(view) == list(x.alphabet) == list(dict(view))
        assert len(view) == len(x.alphabet)
        assert all(view[a] == Fraction(x.masses[a], x.space.denominator) for a in x.alphabet)
        assert "no such label" not in view
        with pytest.raises(KeyError):
            view["no such label"]
        with pytest.raises(TypeError):
            view[x.alphabet[0]] = Fraction(1)


def test_entropy_of_the_pmf_view_is_that_of_a_copy_and_outlives_changes_to_it():
    for x in _view_variables():
        before = [entropy(x.pmf, base).hex() for base in KEPT_BASES]
        assert before == [entropy(dict(x.pmf), base).hex() for base in KEPT_BASES]
        copy = dict(x.pmf)
        for label in copy:
            copy[label] = Fraction(0)
        copy["extra"] = Fraction(1)
        assert entropy(copy) == 0.0
        assert [entropy(x.pmf, base).hex() for base in KEPT_BASES] == before
        assert x.pmf == dict(x.pmf) != copy


def test_entropy_still_checks_every_plain_mapping():
    x = correlated_pair()[0]
    copy = dict(x.pmf)
    for label, bad in (("a1", 0.5), ("a2", Fraction(-1, 2)), ("a2", Fraction(0))):
        distribution = dict(copy)
        distribution[label] = bad
        with pytest.raises(NotAPmf):
            entropy(distribution)
    assert copy == {"a1": half, "a2": half}
