"""Golden outputs under pytest: every file under ``golden/`` is compared
with what the code computes now, measure values to the last bit and CLI
outputs to the last byte.  The runs, and how each file is recomputed, live
in ``goldens.py``, which also replays them without pytest (``--check``)
and rewrites them (``--record``).
"""

import json
import random

import pytest

from goldens import (
    CORPUS_SIZES,
    GENERATE_RUNS,
    GOLDEN,
    MEDIATOR_WIDE_CASES,
    cli_runs,
    corpus_digests,
    golden_invocations,
    measure_values,
    mediator_wide_digest,
    mediator_wide_triple,
    parser_runs,
    run_cli,
    sweep_cases,
    sweep_pair,
    wide_triangle_runs,
)

# Each pair's first run sets a flag that its second run leaves unset.
FOLLOW_UPS = (
    ("family_d_seed9", "triangle_seed5"),
    ("rejection_seed3", "triangle_seed5"),
    ("compute_generated0_pair_YX_json", "compute_generated0_json"),
    ("triangle_generated_a_vars_ZYX_json", "triangle_generated_a_json"),
    ("audit_functional_and_all", "audit_all_seed4"),
    ("help_compute", "compute_generated0_json"),
)


@pytest.fixture(scope="module")
def measures_golden():
    return json.loads((GOLDEN / "measures.json").read_text())


@pytest.mark.parametrize("case", sweep_cases(), ids=lambda c: f"{c[0]}-{c[1]}x{c[2]}x{c[3]}")
def test_measures_bit_identical(case, measures_golden):
    index, size_x, size_y, n = case
    x, y = sweep_pair(index, size_x, size_y, n)
    assert measure_values(x, y) == measures_golden[str(index)]


@pytest.mark.parametrize(
    "name,argv",
    cli_runs(GOLDEN / "documents.json"),
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_cli_output_byte_identical(name, argv, tmp_path):
    code, out, _ = run_cli(argv, tmp_path)
    expected = json.loads((GOLDEN / "cli.json").read_text())[name]
    assert code == expected["code"]
    assert out == expected["stdout"]


def test_wide_triangle_output_byte_identical(tmp_path):
    golden = json.loads((GOLDEN / "wide_triangle.json").read_text())
    for name, argv in wide_triangle_runs(golden["document"]):
        code, out, _ = run_cli(argv, tmp_path)
        assert (code, out) == (golden[name]["code"], golden[name]["stdout"]), name


@pytest.mark.parametrize("name,argv", GENERATE_RUNS, ids=[name for name, _ in GENERATE_RUNS])
def test_generate_output_byte_identical(name, argv, tmp_path):
    expected = json.loads((GOLDEN / "generate.json").read_text())[name]
    assert run_cli(argv, tmp_path)[:2] == (expected["code"], expected["stdout"])


@pytest.mark.parametrize(
    "name,argv",
    parser_runs(GOLDEN / "documents.json"),
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_parser_text_byte_identical(name, argv, tmp_path):
    code, out, err = run_cli(argv, tmp_path)
    expected = json.loads((GOLDEN / "parser.json").read_text())[name]
    assert {"code": code, "stdout": out, "stderr": err} == expected


def test_one_process_reproduces_every_golden_in_any_order(tmp_path):
    """Every golden run, in reverse order, then shuffled, then each flag
    setter followed by a run without the flag, all in one process: no
    value may leak from one ``main`` call into the next.  Runs reuse the
    same document paths with new contents, so a cache keyed on a path
    would show too."""
    runs = golden_invocations()
    shuffled = list(runs)
    random.Random("golden/reentrancy").shuffle(shuffled)
    order = list(runs)[::-1] + shuffled + [name for pair in FOLLOW_UPS for name in pair]
    for name in order:
        argv, expected = runs[name]
        code, out, err = run_cli(argv, tmp_path)
        got = {"code": code, "stdout": out, "stderr": err}
        assert {key: got[key] for key in expected} == expected, name


@pytest.mark.parametrize("instances", CORPUS_SIZES)
def test_corpus_documents_identical(instances):
    golden = json.loads((GOLDEN / "corpus.json").read_text())
    expected = {key: value for key, value in golden.items() if key.endswith(f"/{instances}")}
    assert corpus_digests(instances) == expected


@pytest.mark.parametrize("index", MEDIATOR_WIDE_CASES)
def test_mediator_search_and_residuals_identical_at_benchmark_sizes(index):
    golden = json.loads((GOLDEN / "mediator_wide.json").read_text())
    assert mediator_wide_digest(mediator_wide_triple(index)) == golden[str(index)]
