"""Golden outputs: measure values to the last bit and CLI outputs to the
last byte, recorded once and compared on every run.

This module holds every recorded run and how to recompute each golden
file; it needs only the standard library and frvkit, so it runs on any
supported Python without pytest.  ``test_golden.py`` runs the same
comparisons under pytest.

The measures sweep stores ``float.hex`` of every entropy-family value on
fixed-seed pairs with alphabets of 2 to 256 labels, mixed weight
denominators and zero-mass labels.  The CLI goldens store the exact bytes
of ``frvkit audit --all`` at fixed seeds and of ``compute`` and
``triangle --emit-mediator`` on the documents in ``golden/documents.json``.
``golden/wide_triangle.json`` holds one larger triangle document with the
bytes of ``triangle --emit-mediator`` on it.  ``golden/generate.json`` holds
the bytes of ``generate`` for pairs, triangles, one fixed family and
rejection sampling.  ``golden/corpus.json`` holds one sha256 per (seed,
instance count) over every document of ``build_audit_corpus``: each pair,
vacuity, mixture, pullback and triangle instance, each mixed pair and
pulled pair, and each sequence's description, limit and terms at three
indices.  ``golden/parser.json`` holds the exit code, stdout and stderr
of the text argparse prints (``--help`` of the program and of each
command, ``--version``, two usage errors) and of the runs that set
``--pair`` and ``--vars``, which no other golden sets.  Every CLI golden is
recorded and compared at a terminal width of 80 columns.
``golden/mediator_wide.json`` holds one sha256 per case of the mediator
sweep at the benchmark's sizes: family-a triangles of 16 x 16 labels with
160 middle labels, family-d chains of 192 -> 32 -> 4 labels and random
triples of 20 labels each, all on spaces with zero-weight outcomes.  Each
digest covers the canonical mediator, two ``verify_mediator`` results, the
``mediator_candidates`` lists and ``float.hex`` of both residuals at four
bases.

Run ``PYTHONPATH=src python tests/goldens.py --check`` to replay every
file under ``golden/`` and report each one that differs (exit status 1).
Run ``PYTHONPATH=src python tests/goldens.py --record`` to rewrite the
files; do that only on a commit whose outputs are trusted, since these
files exist to catch any change in them.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

from frvkit import (
    MediatorFunction,
    Triple,
    build_audit_corpus,
    canonical_product,
    chain_rule_residual,
    conditional_entropy,
    entropy,
    find_mediator,
    joint_entropy,
    mediator_candidates,
    mutual_information,
    space,
    variable,
    verify_mediator,
    weak_functoriality_residual,
)
from frvkit.axioms import triangle_document
from frvkit.cli import main
from frvkit.constructions import push_forward
from frvkit.documents import instance_document, pmf_document, serialize_document
from frvkit.generators import random_function, random_space, random_variable

GOLDEN = Path(__file__).parent / "golden"

# (|X|, |Y|, outcomes) of the measures sweep; each shape runs twice, with
# an even and an odd case index.
SHAPES = (
    (2, 2, 4), (2, 3, 6), (3, 2, 9), (4, 4, 12), (2, 16, 40), (16, 2, 40),
    (8, 8, 64), (16, 16, 48), (5, 32, 96), (32, 32, 200), (64, 8, 160),
    (8, 64, 300), (64, 64, 256), (100, 30, 400), (128, 16, 512),
    (16, 128, 700), (256, 4, 600), (4, 256, 1024), (256, 256, 1024),
    (200, 256, 2048),
)
AUDIT_SEEDS = (4, 17)
GENERATE_RUNS = (
    ("pair_seed5", ["generate", "--kind", "pair", "--count", "6", "--seed", "5"]),
    ("triangle_seed5", ["generate", "--kind", "triangle", "--count", "8", "--seed", "5"]),
    ("family_d_seed9", ["generate", "--kind", "triangle", "--family", "d", "--count", "4", "--seed", "9"]),
    ("rejection_seed3", ["generate", "--kind", "triangle", "--rejection", "--count", "4", "--seed", "3"]),
)
COMMANDS = ("compute", "triangle", "audit", "generate")
CORPUS_SEEDS = range(40)
CORPUS_SIZES = (4, 7, 16, 64)
SEQUENCE_TERMS = (1, 3, 1000)
MEDIATOR_WIDE_CASES = range(24)
RESIDUAL_BASES = (2.0, math.e, 10.0, 3.0)


def sweep_pair(index: int, size_x: int, size_y: int, n: int):
    """Case ``index``: a pair on ``n`` outcomes with mixed denominators.  In
    odd cases the outcomes of label ``x0`` all weigh zero, so ``x0`` has
    zero mass; in cases divisible by 3, Y is the pairing of X with the
    drawn labels."""
    rng = random.Random(f"golden/{index}/{size_x}/{size_y}/{n}")
    outcomes = [f"w{k}" for k in range(n)]

    def surjection(size, prefix):
        labels = [f"{prefix}{k}" for k in range(size)]
        drawn = labels + [rng.choice(labels) for _ in range(n - size)]
        rng.shuffle(drawn)
        return dict(zip(outcomes, drawn))

    xs, ys = surjection(size_x, "x"), surjection(size_y, "y")
    silent = {w for w in outcomes if index % 2 and xs[w] == "x0"}
    carriers = [w for w in outcomes if w not in silent]
    weights = {w: Fraction(0) for w in silent}
    for w in carriers[:-1]:
        # At most 1/n each, so the remainder left for the last carrier is positive.
        weights[w] = Fraction(rng.randint(0, 2), 2 * n * rng.randint(1, 6))
    weights[carriers[-1]] = 1 - sum(weights.values())
    sp = space({w: weights[w] for w in outcomes})
    x, y = variable(sp, xs), variable(sp, ys)
    if index % 3 == 0:
        y = canonical_product(x, y)
    return x, y


def measure_values(x, y) -> dict:
    values = {
        "H(X)": entropy(x.pmf),
        "H(Y)": entropy(y.pmf),
        "H(space)": entropy(dict(x.space.weights)),
        "H(X,Y)": joint_entropy(x, y),
        "H(Y|X)": conditional_entropy(x, y),
        "H(X|Y)": conditional_entropy(y, x),
        "I(X,Y)": mutual_information(x, y),
        "I(X,Y) base e": mutual_information(x, y, math.e),
        "H(Y|X) base 3": conditional_entropy(x, y, 3.0),
    }
    return {key: value.hex() for key, value in values.items()}


def sweep_cases():
    return [(index, *shape) for index, shape in enumerate(SHAPES * 2)]


def cli_runs(documents_path: Path):
    """Every recorded command line, as (name, argv)."""
    documents = json.loads(documents_path.read_text())
    runs = [
        (f"audit_all_seed{seed}", ["audit", "--all", "--seed", str(seed)]) for seed in AUDIT_SEEDS
    ]
    for name, doc in documents["pairs"].items():
        runs.append((f"compute_{name}_json", ["compute", doc, "--format", "json"]))
        runs.append((f"compute_{name}_text_e", ["compute", doc, "--base", "e"]))
    for name, doc in documents["triangles"].items():
        runs.append(
            (f"triangle_{name}_json", ["triangle", doc, "--emit-mediator", "--format", "json"])
        )
        runs.append((f"triangle_{name}_text", ["triangle", doc, "--emit-mediator"]))
    return runs


def parser_runs(documents_path: Path):
    """Every recorded command line of ``golden/parser.json``, as (name, argv)."""
    documents = json.loads(documents_path.read_text())
    pair, triangle = documents["pairs"]["generated0"], documents["triangles"]["generated_a"]
    return [
        ("help", ["--help"]),
        *((f"help_{command}", [command, "--help"]) for command in COMMANDS),
        ("version", ["--version"]),
        ("compute_missing_file", ["compute"]),
        ("audit_functional_and_all", ["audit", "--functional", "mutual_information", "--all"]),
        ("compute_generated0_pair_YX_json", ["compute", pair, "--pair", "Y,X", "--format", "json"]),
        (
            "triangle_generated_a_vars_ZYX_json",
            ["triangle", triangle, "--vars", "Z,Y,X", "--emit-mediator", "--format", "json"],
        ),
    ]


def wide_triangle_document() -> dict:
    """A family-a triangle (X, X*Z, Z) with 16 labels on X and on Z whose
    middle variable hits 128 of the 256 cells.  Each x's support row in
    n(x, y) holds about 8 of the 128 middle labels, about half of the cells
    have n(x, z) = 0, zero weights leave some middle labels with zero
    mass, and every outcome of ``x15`` weighs zero."""
    rng = random.Random("golden/wide-triangle")
    grid = [(f"x{i}", f"z{j}") for i in range(16) for j in range(16)]
    cells = [(f"x{i}", f"z{i}") for i in range(16)]
    cells += rng.sample([c for c in grid if c not in cells], 128 - 16)
    hits = cells + [rng.choice(cells) for _ in range(32)]
    rng.shuffle(hits)
    outcomes = [f"w{k}" for k in range(len(hits))]
    counts = [0 if x == "x15" else rng.randint(0, 3) for x, _ in hits]
    total = sum(counts)
    return {
        "version": 1,
        "space": {
            "outcomes": outcomes,
            "weights": {w: f"{n}/{total}" for w, n in zip(outcomes, counts)},
        },
        "variables": {
            "X": {w: x for w, (x, _) in zip(outcomes, hits)},
            "Y": {w: [x, z] for w, (x, z) in zip(outcomes, hits)},
            "Z": {w: z for w, (_, z) in zip(outcomes, hits)},
        },
    }


def wide_triangle_runs(document: dict):
    """Every recorded command line on the wide triangle, as (name, argv)."""
    return [
        ("json", ["triangle", document, "--emit-mediator", "--format", "json"]),
        ("text", ["triangle", document, "--emit-mediator"]),
    ]


def corpus_documents(seed: int, instances: int):
    """Every document of ``build_audit_corpus(seed, instances)``, in corpus
    order: the instances, then the derived mixed and pulled pairs, then the
    sequences (description, limit and terms, independent of how a sequence
    instance renders itself)."""
    corpus = build_audit_corpus(seed, instances)
    for inst in corpus.pairs + corpus.vacuity + corpus.mixtures + corpus.pullbacks:
        yield inst.as_document()
    for t in corpus.triangles:
        yield triangle_document(t)
    for inst in corpus.mixtures:
        first, second = inst.mixed_pair()
        yield instance_document(first.space, {"X": first, "Y": second})
    for inst in corpus.pullbacks:
        x, y = inst.pulled()
        yield instance_document(x.space, {"X": x, "Y": y})
    for inst in corpus.sequences:
        yield {
            "description": inst.description,
            "limit": pmf_document(inst.limit),
            "terms": [pmf_document(inst.sequence.term(n)) for n in SEQUENCE_TERMS],
        }


def corpus_digests(instances: int) -> dict:
    """``{"seed/instances": sha256}`` over the serialized corpus documents."""
    digests = {}
    for seed in CORPUS_SEEDS:
        digest = hashlib.sha256()
        for doc in corpus_documents(seed, instances):
            digest.update(serialize_document(doc).encode())
        digests[f"{seed}/{instances}"] = digest.hexdigest()
    return digests


def mediator_wide_triple(index: int) -> Triple:
    """Case ``index`` of the mediator sweep, by ``index % 3``: a family-a
    triangle (X, X*Z, Z) on 16 x 16 labels whose middle variable hits 160
    cells, a family-d chain X -> phi(X) -> psi(phi(X)) of 192, 32 and 4
    labels, or a random triple of 20 labels each.  Every space carries
    zero-weight outcomes."""
    rng = random.Random(f"golden/mediator-wide/{index}")
    kind = index % 3
    if kind == 0:
        grid = [(f"x{i}", f"z{j}") for i in range(16) for j in range(16)]
        cells = [(f"x{i}", f"z{i}") for i in range(16)]
        cells += rng.sample([c for c in grid if c not in cells], 160 - 16)
        hits = random_variable(rng, random_space(rng, 240, 480, allow_zero=True), 160, prefix="c")
        x = push_forward(hits, {f"c{k + 1}": cell[0] for k, cell in enumerate(cells)})
        z = push_forward(hits, {f"c{k + 1}": cell[1] for k, cell in enumerate(cells)})
        return Triple(x, canonical_product(x, z), z)
    if kind == 1:
        x = random_variable(rng, random_space(rng, 384, 768, allow_zero=True), 192, prefix="x")
        mid = push_forward(x, random_function(rng, x.alphabet, 32, prefix="p"))
        return Triple(x, mid, push_forward(mid, random_function(rng, mid.alphabet, 4, prefix="q")))
    sp = random_space(rng, 160, 320, allow_zero=True)
    return Triple(*(random_variable(rng, sp, 20, prefix=prefix) for prefix in "xyz"))


def mediator_wide_digest(t: Triple) -> str:
    """sha256 over the canonical mediator (or ``None``), ``verify_mediator``
    on the table of least candidates (a cell without one takes the least
    label) and on that table with its last cell moved to the next label,
    the candidate lists, and both residuals at each of RESIDUAL_BASES."""
    mediator = find_mediator(t)
    candidates = mediator_candidates(t)
    least = {cell: ys[0] if ys else t.y.alphabet[0] for cell, ys in candidates.items()}
    last = list(least)[-1]
    ys = t.y.alphabet
    moved = {**least, last: ys[(ys.index(least[last]) + 1) % len(ys)]}
    record = [
        None if mediator is None else list(mediator.table.items()),
        verify_mediator(t, MediatorFunction(least)),
        verify_mediator(t, MediatorFunction(moved)),
        list(candidates.items()),
        [
            residual(t, base).hex()
            for base in RESIDUAL_BASES
            for residual in (weak_functoriality_residual, chain_rule_residual)
        ],
    ]
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def run_cli(argv, tmp_path: Path):
    """Exit code, stdout and stderr of ``frvkit ARGV`` at a terminal width
    of 80 columns (argparse reads ``COLUMNS`` each time it formats help or
    usage text); document arguments are written to files under
    ``tmp_path`` first, and an exit raised by argparse counts with its
    code."""
    resolved = []
    for arg in argv:
        if isinstance(arg, dict):
            path = tmp_path / f"doc{len(resolved)}.json"
            path.write_text(json.dumps(arg))
            arg = str(path)
        resolved.append(arg)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(resolved)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def golden_invocations() -> dict:
    """``{name: (argv, expected)}`` over every recorded CLI run, where
    ``expected`` holds the recorded ``code``, ``stdout`` and, for the
    parser goldens, ``stderr``."""
    runs = {}
    for file, named_runs in (
        ("cli.json", cli_runs(GOLDEN / "documents.json")),
        ("generate.json", GENERATE_RUNS),
        ("parser.json", parser_runs(GOLDEN / "documents.json")),
    ):
        golden = json.loads((GOLDEN / file).read_text())
        runs.update((name, (argv, golden[name])) for name, argv in named_runs)
    wide = json.loads((GOLDEN / "wide_triangle.json").read_text())
    for name, argv in wide_triangle_runs(wide["document"]):
        runs[f"wide_triangle_{name}"] = (argv, wide[name])
    return runs


def _outputs(named_runs, tmp_path: Path, streams=("code", "stdout")) -> dict:
    """``{name: {stream: value}}`` of each run, keeping ``streams`` of its
    exit code, stdout and stderr."""
    outputs = {}
    for name, argv in named_runs:
        got = dict(zip(("code", "stdout", "stderr"), run_cli(argv, tmp_path)))
        outputs[name] = {stream: got[stream] for stream in streams}
    return outputs


def _wide_triangle(tmp_path: Path) -> dict:
    wide = {"document": wide_triangle_document()}
    wide.update(_outputs(wide_triangle_runs(wide["document"]), tmp_path))
    return wide


def golden_files(tmp_path: Path) -> dict:
    """``{file name: build}`` over every recorded file of ``golden/``, where
    ``build()`` recomputes that file's contents; ``documents.json`` is an
    input, not a recording."""
    documents = GOLDEN / "documents.json"
    return {
        "measures.json": lambda: {
            str(index): measure_values(*sweep_pair(index, size_x, size_y, n))
            for index, size_x, size_y, n in sweep_cases()
        },
        "cli.json": lambda: _outputs(cli_runs(documents), tmp_path),
        "wide_triangle.json": lambda: _wide_triangle(tmp_path),
        "generate.json": lambda: _outputs(GENERATE_RUNS, tmp_path),
        "parser.json": lambda: _outputs(parser_runs(documents), tmp_path, ("code", "stdout", "stderr")),
        "corpus.json": lambda: {
            key: digest for instances in CORPUS_SIZES for key, digest in corpus_digests(instances).items()
        },
        "mediator_wide.json": lambda: {
            str(index): mediator_wide_digest(mediator_wide_triple(index)) for index in MEDIATOR_WIDE_CASES
        },
    }


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for file, build in golden_files(Path(scratch)).items():
            (GOLDEN / file).write_text(json.dumps(build(), indent=1, sort_keys=True) + "\n")


def check() -> bool:
    """Replay every golden file, print one line per file naming the entries
    that differ, and return whether all of them matched."""
    with tempfile.TemporaryDirectory() as scratch:
        builds = golden_files(Path(scratch))
        unreplayed = {p.name for p in GOLDEN.glob("*.json")} - set(builds) - {"documents.json"}
        matched = not unreplayed
        for file in sorted(unreplayed):
            print(f"{file}: no replay for this file")
        for file, build in builds.items():
            expected, got = json.loads((GOLDEN / file).read_text()), build()
            differ = sorted(key for key in expected.keys() | got.keys() if expected.get(key) != got.get(key))
            matched = matched and not differ
            print(f"{file}: " + (f"{len(differ)} differ: {', '.join(differ)}" if differ else f"{len(got)} match"))
    return matched


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        record()
    elif sys.argv[1:] == ["--check"]:
        sys.exit(0 if check() else 1)
    else:
        sys.exit("usage: PYTHONPATH=src python tests/goldens.py --check | --record")
