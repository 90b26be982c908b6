import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frvkit import (
    AlphabetMismatch,
    InvalidBase,
    MediatorFunction,
    Triple,
    canonical_pair,
    canonical_product,
    chain_rule_residual,
    conditional_entropy,
    constant_variable,
    find_mediator,
    generate_markov_triangle,
    mediator_candidates,
    mutual_information,
    relabel,
    space,
    variable,
    verify_mediator,
    weak_functoriality_residual,
)
from frvkit import markov
from frvkit.constructions import push_forward
from frvkit.generators import (
    random_function,
    random_pair,
    random_space,
    random_triple,
    random_variable,
)
from oracles import _equation, brute_force_has_mediator, oracle_mediator_candidates

half = Fraction(1, 2)


def independent_z_triple():
    """X and Y independent fair coins, Z a copy of X: never a triangle."""
    q = Fraction(1, 4)
    sp = space({"o1": q, "o2": q, "o3": q, "o4": q})
    x = variable(sp, {"o1": "0", "o2": "0", "o3": "1", "o4": "1"})
    y = variable(sp, {"o1": "0", "o2": "1", "o3": "0", "o4": "1"})
    return Triple(x, y, x)


def full_support_pair():
    return canonical_pair({
        ("a1", "b1"): Fraction(1, 3),
        ("a1", "b2"): Fraction(1, 6),
        ("a2", "b1"): Fraction(1, 6),
        ("a2", "b2"): Fraction(1, 3),
    })


def test_pairing_triangle_admits_swap_mediator():
    x, y = full_support_pair()
    t = Triple(x, canonical_product(x, y), y)
    h = MediatorFunction({
        (z, a): (a, z) for z in y.alphabet for a in x.alphabet
    })
    assert verify_mediator(t, h)


def test_relabeled_first_leg_mediator():
    x, y = full_support_pair()
    f = {"a1": "u1", "a2": "u2"}
    t = Triple(x, relabel(x, f), y)
    h = MediatorFunction({
        (z, a): f[a] for z in y.alphabet for a in x.alphabet
    })
    assert verify_mediator(t, h)


def test_relabeled_last_leg_mediator():
    x, y = full_support_pair()
    g = {"b1": "v1", "b2": "v2"}
    t = Triple(x, y, relabel(y, g))
    g_inv = {v: k for k, v in g.items()}
    h = MediatorFunction({
        (z, a): g_inv[z] for z in relabel(y, g).alphabet for a in x.alphabet
    })
    assert verify_mediator(t, h)
    assert find_mediator(t) is not None


def test_independent_copy_is_not_a_triangle():
    t = independent_z_triple()
    assert find_mediator(t) is None
    # exhaust all 16 candidate functions explicitly
    assert not brute_force_has_mediator(t)
    for choice in itertools.product(t.y.alphabet, repeat=4):
        cells = [(z, x) for z in t.z.alphabet for x in t.x.alphabet]
        h = MediatorFunction(dict(zip(cells, choice)))
        assert not verify_mediator(t, h)


def test_verify_mediator_rejects_partial_or_foreign_tables():
    x, y = full_support_pair()
    t = Triple(x, canonical_product(x, y), y)
    with pytest.raises(AlphabetMismatch):
        verify_mediator(t, MediatorFunction({("b1", "a1"): ("a1", "b1")}))
    bad_value = {
        (z, a): "nowhere" for z in y.alphabet for a in x.alphabet
    }
    with pytest.raises(AlphabetMismatch):
        verify_mediator(t, MediatorFunction(bad_value))


FIRST_CELL = ("b1", "a1")


def _rekey(key):
    """An edit that moves the first cell's value under ``key``."""
    return lambda table: table.__setitem__(key, table.pop(FIRST_CELL))


def _foreign_y_and_missing_cell(table):
    table[FIRST_CELL] = "nowhere"
    del table["b2", "a2"]


@pytest.mark.parametrize(
    "edit",
    [
        _rekey(("b1", "a9")),
        _rekey(("b9", "a1")),
        _rekey(("b1", "a1", "c1")),
        _rekey(("b1",)),
        _rekey("ba"),
        _rekey(7),
        _foreign_y_and_missing_cell,
    ],
    ids=[
        "foreign-x", "foreign-z", "three-label-key", "one-label-key",
        "string-key", "integer-key", "foreign-y-and-missing-cell",
    ],
)
def test_verify_mediator_rejects_each_table_fault(edit):
    x, y = full_support_pair()
    t = Triple(x, canonical_product(x, y), y)
    table = {(z, a): (a, z) for z in y.alphabet for a in x.alphabet}
    assert verify_mediator(t, MediatorFunction(dict(table)))
    edit(table)
    with pytest.raises(AlphabetMismatch, match="not total on Z-alphabet x X-alphabet"):
        verify_mediator(t, MediatorFunction(table))


def test_deterministic_chain_has_mediator(rng):
    x, _ = random_pair(rng, max_alphabet=4)
    mid = push_forward(x, {lab: f"p{i % 2}" for i, lab in enumerate(x.alphabet)})
    last = push_forward(mid, {lab: "q0" for lab in mid.alphabet})
    t = Triple(x, mid, last)
    mediator = find_mediator(t)
    assert mediator is not None
    assert verify_mediator(t, mediator)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_find_mediator_sound_on_arbitrary_triples(seed):
    rng = random.Random(seed)
    sizes = (rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
    t = Triple(*random_triple(rng, sizes))
    mediator = find_mediator(t)
    if mediator is not None:
        assert verify_mediator(t, mediator)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_find_mediator_matches_brute_force(seed):
    rng = random.Random(seed)
    sizes = (rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
    t = Triple(*random_triple(rng, sizes))
    assert (find_mediator(t) is not None) == brute_force_has_mediator(t)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_any_candidate_selection_is_a_mediator(seed):
    # cell independence: picking any candidate per cell yields a mediator
    rng = random.Random(seed)
    t = generate_markov_triangle(rng.randrange(2**32), max_alphabet=3, max_outcomes=5)
    candidates = mediator_candidates(t)
    assert all(candidates.values())
    table = {cell: rng.choice(options) for cell, options in candidates.items()}
    assert verify_mediator(t, MediatorFunction(table))


def _sweep_triple(seed):
    """Seed ``seed`` of the sweep: a generated triangle of each family in
    turn, or a random triple whose space may carry zero-weight outcomes (so
    that some labels have zero mass)."""
    rng = random.Random(seed)
    if seed % 3 == 0:
        family = "abcd"[seed // 3 % 4]
        return generate_markov_triangle(
            rng.randrange(2**32), max_alphabet=3, max_outcomes=5, family=family
        )
    sizes = (rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
    sp = random_space(rng, rng.randint(max(sizes), 6), allow_zero=seed % 3 == 1)
    return Triple(*(
        random_variable(rng, sp, size, prefix=prefix) for size, prefix in zip(sizes, "xyz")
    ))


def test_search_matches_dense_oracle_candidates_over_a_seed_sweep():
    zero_mass = with_mediator = without = 0
    for seed in range(240):
        t = _sweep_triple(seed)
        dense = oracle_mediator_candidates(t)
        assert mediator_candidates(t) == dense
        mediator = find_mediator(t)
        if all(dense.values()):
            assert mediator is not None
            assert mediator.table == {cell: ys[0] for cell, ys in dense.items()}
            assert verify_mediator(t, mediator)
        else:
            assert mediator is None
        assert (mediator is not None) == brute_force_has_mediator(t)
        with_mediator += mediator is not None
        without += mediator is None
        zero_mass += any(not m for v in (t.x, t.y, t.z) for m in v.pmf.values())
    assert with_mediator and without and zero_mass


WIDE_SEEDS = range(96)


def _split_row_triple(rng, k):
    """A triple in which every label of x = "a"'s support row is a candidate
    at the cell (c, a): a splits evenly over k middle labels, P(c|a) =
    1/(2k) and P(c|y) = 1/2 on each of them.  Each such y also meets a label
    "b<i>" of its own, and the labels "u<j>" of x = "e" (some of zero mass)
    keep a's row short of the whole middle alphabet.  Middle labels are
    drawn so that label order differs from the order of the outcomes."""
    ys = [f"y{n}" for n in rng.sample(range(100), k)]
    rows = []
    for i, y in enumerate(ys):
        rows += [("a", y, "c", 1), ("a", y, "d", 2 * k - 1), (f"b{i}", y, "c", 2 * k - 2)]
    rows += [("e", f"u{j}", rng.choice("cd"), rng.randint(0, 3)) for j in range(rng.randint(1, k))]
    rng.shuffle(rows)
    total = sum(row[3] for row in rows)
    sp = space({f"w{i}": Fraction(row[3], total) for i, row in enumerate(rows)})
    x, y, z = (
        variable(sp, {f"w{i}": row[part] for i, row in enumerate(rows)}) for part in range(3)
    )
    return Triple(x, y, z)


def _wide_sweep_triple(seed):
    """Seed ``seed`` of the wide sweep, with alphabets of 4 to 12 labels, so
    that a label's support row is mostly shorter than the middle alphabet: a
    family-a triangle (X, X*Z, Z), a family-d chain X -> phi(X) ->
    psi(phi(X)), a random triple, or a split-row triple whose row at one
    cell holds several candidates.  Random triples, and every other
    generated one, sit on spaces that carry zero-weight outcomes."""
    rng = random.Random(f"wide/{seed}")
    kind = seed % 4
    sizes = [rng.randint(4, 12) for _ in range(3)]
    if kind == 3:
        return _split_row_triple(rng, sizes[1])
    allow_zero = kind == 2 or seed % 8 < 4
    sp = random_space(rng, rng.randint(max(sizes), 3 * max(sizes)), 60, allow_zero=allow_zero)
    x = random_variable(rng, sp, sizes[0], prefix="x")
    if kind == 0:
        z = random_variable(rng, sp, sizes[2], prefix="z")
        return Triple(x, canonical_product(x, z), z)
    if kind == 1:
        mid = push_forward(x, random_function(rng, x.alphabet, sizes[1], prefix="p"))
        last = push_forward(mid, random_function(rng, mid.alphabet, sizes[2], prefix="q"))
        return Triple(x, mid, last)
    y = random_variable(rng, sp, sizes[1], prefix="y")
    return Triple(x, y, random_variable(rng, sp, sizes[2], prefix="z"))


def _has_row_gap(t):
    """Whether some x of positive mass co-occurs, on positive weight, with
    fewer middle labels than the whole middle alphabet."""
    sp = t.x.space
    rows = {}
    for w in sp.outcomes:
        if sp.weights[w]:
            rows.setdefault(t.x.assignment[w], set()).add(t.y.assignment[w])
    return any(len(row) < len(t.y.alphabet) for row in rows.values())


def test_search_matches_dense_oracle_candidates_on_wide_alphabets():
    """The support-row walk against the dense oracle at sizes where rows
    have gaps; the brute-force enumeration is out of reach here."""
    with_mediator = without = gaps = zero_mass = split = 0
    for seed in WIDE_SEEDS:
        t = _wide_sweep_triple(seed)
        dense = oracle_mediator_candidates(t)
        assert mediator_candidates(t) == dense
        split += len(dense.get(("c", "a"), ())) >= 4
        mediator = find_mediator(t)
        if all(dense.values()):
            assert mediator is not None
            assert mediator.table == {cell: ys[0] for cell, ys in dense.items()}
        else:
            assert mediator is None
        with_mediator += mediator is not None
        without += mediator is None
        gaps += _has_row_gap(t)
        zero_mass += any(not m for v in (t.x, t.y, t.z) for m in v.masses.values())
    assert with_mediator >= 48 and without and zero_mass
    assert gaps == len(WIDE_SEEDS) and split == len(WIDE_SEEDS) // 4


def _residual_triple(seed):
    """Seed ``seed`` of the residual sweep: a generated triangle of each
    family in turn, or a random triple on a space that may carry zero-weight
    outcomes."""
    rng = random.Random(f"residual-bits/{seed}")
    if seed % 2:
        return generate_markov_triangle(rng.randrange(2**32), family="abcd"[seed // 2 % 4])
    sizes = [rng.randint(1, 5) for _ in range(3)]
    sp = random_space(rng, rng.randint(max(sizes), 10), allow_zero=True)
    return Triple(*(
        random_variable(rng, sp, size, prefix=prefix) for size, prefix in zip(sizes, "xyz")
    ))


@pytest.mark.parametrize("base", [2.0, math.e, 10.0, 3.0])
def test_residuals_match_public_measures_bit_for_bit(base):
    """The residuals against the same expressions built from the public
    measures, to the bit: the wide sweep, generated triangles of every
    family, and random triples on spaces with zero-weight outcomes."""
    def mi(a, b):
        return mutual_information(a, b, base)

    def ce(given, target):
        return conditional_entropy(given, target, base)

    triples = [_wide_sweep_triple(seed) for seed in WIDE_SEEDS]
    triples += [_residual_triple(seed) for seed in range(160)]
    for t in triples:
        weak = mi(t.x, t.z) - mi(t.x, t.y) - mi(t.y, t.z) + mi(t.y, t.y)
        chain = ce(t.x, t.z) - ce(t.y, t.z) - ce(t.x, t.y)
        assert weak_functoriality_residual(t, base).hex() == weak.hex()
        assert chain_rule_residual(t, base).hex() == chain.hex()
    zero_weight = sum(not all(t.x.space.weights.values()) for t in triples[len(WIDE_SEEDS):])
    off_triangle = sum(abs(weak_functoriality_residual(t)) > 1e-9 for t in triples)
    assert zero_weight >= 40 and off_triangle >= 40


def test_a_triple_counts_each_of_its_pairs_once(monkeypatch):
    """The search, verification and both residuals on a fresh triple share
    one counting pass per pair: (x, y), (y, z) and (x, z)."""
    passes = []
    count_joint = markov.joint_masses

    def counted(x, y):
        passes.append((x, y))
        return count_joint(x, y)

    monkeypatch.setattr(markov, "joint_masses", counted)
    built = [generate_markov_triangle(seed, family="abcd"[seed % 4]) for seed in range(40)]
    built += [_residual_triple(seed) for seed in range(40)]
    for t in built:
        fresh = Triple(t.x, t.y, t.z)
        passes.clear()
        mediator = find_mediator(fresh)
        constant = {(z, x): t.y.alphabet[0] for z in t.z.alphabet for x in t.x.alphabet}
        verify_mediator(fresh, mediator or MediatorFunction(constant))
        weak_functoriality_residual(fresh)
        chain_rule_residual(fresh)
        assert passes == [(t.x, t.y), (t.y, t.z), (t.x, t.z)]


def test_verify_mediator_agrees_with_the_oracle_equation_cell_by_cell():
    """Over the sweep, a table of least candidates (a cell without one takes
    the least label) with one cell moved to each other y: verify_mediator
    holds iff the oracle's equation holds at every cell, which on a Markov
    triangle is at the moved cell."""
    outcomes = {True: 0, False: 0}
    zero_mass = 0
    for seed in range(240):
        t = _sweep_triple(seed)
        holds = _equation(t)
        least = {
            cell: ys[0] if ys else t.y.alphabet[0]
            for cell, ys in oracle_mediator_candidates(t).items()
        }
        for cell, y0 in least.items():
            for y in t.y.alphabet:
                if y == y0:
                    continue
                table = {**least, cell: y}
                expected = all(holds(z, x, v) for (z, x), v in table.items())
                assert verify_mediator(t, MediatorFunction(table)) is expected, (seed, cell, y)
                outcomes[expected] += 1
        zero_mass += any(not m for v in (t.x, t.y, t.z) for m in v.masses.values())
    assert min(outcomes.values()) >= 100 and zero_mass >= 10


def test_residuals_reject_base_one():
    t = _wide_sweep_triple(0)
    with pytest.raises(InvalidBase):
        weak_functoriality_residual(t, 1.0)
    with pytest.raises(InvalidBase):
        chain_rule_residual(t, 1.0)
    with pytest.raises(InvalidBase):
        weak_functoriality_residual(t, math.inf)
    with pytest.raises(InvalidBase):
        chain_rule_residual(t, math.inf)


def test_zero_mass_conditioning_label_accepts_every_candidate():
    sp = space({"w1": Fraction(1), "w2": Fraction(0)})
    x = variable(sp, {"w1": "x1", "w2": "x2"})  # p(x2) = 0
    y = variable(sp, {"w1": "y1", "w2": "y2"})
    z = variable(sp, {"w1": "z1", "w2": "z2"})
    candidates = mediator_candidates(Triple(x, y, z))
    for z_lab in ("z1", "z2"):
        assert candidates[(z_lab, "x2")] == ["y1", "y2"]


def test_residuals_on_pairing_triangle():
    x, y = full_support_pair()
    t = Triple(x, canonical_product(x, y), y)
    assert abs(weak_functoriality_residual(t)) <= 1e-9
    assert abs(chain_rule_residual(t)) <= 1e-9


def test_residuals_on_degenerate_and_broken_triples(coin_space, coin):
    c = constant_variable(coin_space, "k")
    broken = Triple(coin, c, coin)
    assert weak_functoriality_residual(broken) == pytest.approx(1.0, abs=1e-12)
    degenerate = Triple(c, c, c)
    assert weak_functoriality_residual(degenerate) == 0.0
    assert chain_rule_residual(degenerate) == 0.0


def test_chain_rule_residual_on_independent_copy():
    t = independent_z_triple()
    assert chain_rule_residual(t) == pytest.approx(-2.0, abs=1e-12)


@pytest.mark.parametrize("family", ["a", "b", "c", "d"])
def test_generated_families_verify(family):
    for seed in range(20):
        t = generate_markov_triangle(seed, family=family)
        mediator = find_mediator(t)
        assert mediator is not None
        assert verify_mediator(t, mediator)
        assert abs(weak_functoriality_residual(t)) <= 1e-9
        assert abs(chain_rule_residual(t)) <= 1e-9


def test_generation_is_deterministic_per_seed():
    a = generate_markov_triangle(99)
    b = generate_markov_triangle(99)
    assert a.x.assignment == b.x.assignment
    assert a.y.assignment == b.y.assignment
    assert a.z.assignment == b.z.assignment
    assert a.x.space == b.x.space


def test_rejection_mode_finds_accidental_triangles():
    t = generate_markov_triangle(5, rejection=True)
    assert find_mediator(t) is not None


def test_generator_rejects_unknown_family():
    with pytest.raises(ValueError):
        generate_markov_triangle(0, family="x")


def test_rejection_mode_takes_no_family():
    with pytest.raises(ValueError):
        generate_markov_triangle(0, family="a", rejection=True)
