import json
import math

import pytest

from frvkit import cli
from frvkit.cli import build_parser, main
from frvkit.documents import (
    load_document,
    parse_instance_document,
    serialize_document,
)

CORRELATED = {
    "version": 1,
    "joint": {
        "rows": ["a", "b"],
        "cols": ["u", "v"],
        "cells": [["1/3", "1/6"], ["1/6", "1/3"]],
    },
}

THREE_POINT = {
    "version": 1,
    "space": {
        "outcomes": ["w1", "w2", "w3"],
        "weights": {"w1": "1/6", "w2": "1/3", "w3": "1/2"},
    },
    "variables": {
        "X": {"w1": "a", "w2": "a", "w3": "b"},
        "Y": {"w1": "u", "w2": "v", "w3": "v"},
    },
}


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(serialize_document(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_compute_independent_coins(tmp_path, capsys):
    doc = {
        "version": 1,
        "joint": {
            "rows": ["a", "b"],
            "cols": ["u", "v"],
            "cells": [["1/4", "1/4"], ["1/4", "1/4"]],
        },
    }
    report = run_json(capsys, "compute", write_doc(tmp_path, doc), "--format", "json")
    assert report["mutual_information"] == 0.0
    assert report["joint_entropy"] == 2.0


def test_compute_perfectly_correlated_bit(tmp_path, capsys):
    doc = {
        "version": 1,
        "joint": {
            "rows": ["a", "b"],
            "cols": ["u", "v"],
            "cells": [["1/2", "0/1"], ["0/1", "1/2"]],
        },
    }
    report = run_json(capsys, "compute", write_doc(tmp_path, doc), "--format", "json")
    assert report["mutual_information"] == 1.0


def test_compute_correlated_table(tmp_path, capsys):
    report = run_json(capsys, "compute", write_doc(tmp_path, CORRELATED), "--format", "json")
    assert report["mutual_information"] == pytest.approx(0.0817041659455, rel=1e-10)
    assert report["pmf_X"] == {"a": "1/2", "b": "1/2"}
    assert report["conditional_entropy_Y_given_X"] == pytest.approx(0.918295834054, rel=1e-10)


def test_compute_text_format_and_named_pair(tmp_path, capsys):
    code, out, err = run(
        capsys, "compute", write_doc(tmp_path, THREE_POINT), "--pair", "X,Y"
    )
    assert code == 0
    assert "pmf X: a=1/2 b=1/2" in out
    assert "I(X,Y)" in out


def test_compute_twelve_significant_digits(tmp_path, capsys):
    report = run_json(capsys, "compute", write_doc(tmp_path, CORRELATED), "--format", "json")
    # 0.08170416594551044 rounded to 12 significant digits
    assert report["mutual_information"] == 0.0817041659455


def test_compute_base_e(tmp_path, capsys):
    doc = {
        "version": 1,
        "joint": {"rows": ["a"], "cols": ["u", "v"], "cells": [["1/2", "1/2"]]},
    }
    report = run_json(
        capsys, "compute", write_doc(tmp_path, doc), "--format", "json", "--base", "e"
    )
    assert report["entropy_Y"] == pytest.approx(0.693147180560, rel=1e-10)


def test_compute_unknown_variable_exits_2(tmp_path, capsys):
    code, _, err = run(
        capsys, "compute", write_doc(tmp_path, THREE_POINT), "--pair", "X,Z"
    )
    assert code == 2
    assert "Z" in err


def test_compute_invalid_rational_exits_2(tmp_path, capsys):
    doc = {
        "version": 1,
        "space": {"outcomes": ["w1"], "weights": {"w1": "1/0"}},
        "variables": {"X": {"w1": "a"}},
    }
    code, _, err = run(capsys, "compute", write_doc(tmp_path, doc))
    assert code == 2
    assert "space.weights.w1" in err


@pytest.mark.parametrize("cell", [" 1/2", "+1/2", "1_0/2_0", "0.5", "1/2 ", "\u0661/\u0662"])
def test_compute_lax_rational_exits_2_naming_the_field(tmp_path, capsys, cell):
    doc = {
        "version": 1,
        "joint": {"rows": ["a", "b"], "cols": ["u"], "cells": [[cell], ["1/2"]]},
    }
    code, out, err = run(capsys, "compute", write_doc(tmp_path, doc))
    assert (code, out) == (2, "")
    assert "joint.cells[0][0]" in err


def _write_text(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    return str(path)


def test_compute_repeated_weight_key_exits_2(tmp_path, capsys):
    # Last-wins would read w2 as 1/2 and pass the sum check.
    text = """{"version": 1,
      "space": {"outcomes": ["w1", "w2"], "weights": {"w1": "1/2", "w2": "1/4", "w2": "1/2"}},
      "variables": {"X": {"w1": "a", "w2": "b"}, "Y": {"w1": "a", "w2": "b"}}}"""
    code, out, err = run(capsys, "compute", _write_text(tmp_path, text))
    assert (code, out) == (2, "")
    assert "duplicate object key 'w2'" in err


def test_compute_repeated_assignment_key_exits_2(tmp_path, capsys):
    # Last-wins would silently make X constant.
    text = """{"version": 1,
      "space": {"outcomes": ["w1", "w2"], "weights": {"w1": "1/2", "w2": "1/2"}},
      "variables": {"X": {"w1": "a", "w2": "b", "w1": "b"}, "Y": {"w1": "a", "w2": "b"}}}"""
    code, out, err = run(capsys, "compute", _write_text(tmp_path, text))
    assert (code, out) == (2, "")
    assert "duplicate object key 'w1'" in err


def test_compute_bad_weight_sum_exits_2(tmp_path, capsys):
    doc = {
        "version": 1,
        "space": {"outcomes": ["w1", "w2"], "weights": {"w1": "1/2", "w2": "1/3"}},
        "variables": {"X": {"w1": "a", "w2": "b"}},
    }
    code, _, err = run(capsys, "compute", write_doc(tmp_path, doc))
    assert code == 2
    assert "sum" in err


def test_compute_reads_stdin(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_document(CORRELATED)))
    report = run_json(capsys, "compute", "-", "--format", "json")
    assert report["pair"] == ["X", "Y"]


def triangle_doc():
    # (X, pairing of X and Y, Y) for the correlated 2x2 table, written as a
    # space-form document with explicit pair labels for the middle variable
    sp = {
        "outcomes": ["o11", "o12", "o21", "o22"],
        "weights": {"o11": "1/3", "o12": "1/6", "o21": "1/6", "o22": "1/3"},
    }
    return {
        "version": 1,
        "space": sp,
        "variables": {
            "X": {"o11": "a", "o12": "a", "o21": "b", "o22": "b"},
            "Y": {"o11": ["a", "u"], "o12": ["a", "v"], "o21": ["b", "u"], "o22": ["b", "v"]},
            "Z": {"o11": "u", "o12": "v", "o21": "u", "o22": "v"},
        },
    }


def test_triangle_pairing_document(tmp_path, capsys):
    report = run_json(
        capsys,
        "triangle",
        write_doc(tmp_path, triangle_doc()),
        "--vars", "X,Y,Z",
        "--format", "json",
        "--emit-mediator",
    )
    assert report["is_markov_triangle"] is True
    assert abs(report["weak_functoriality_residual"]) <= 1e-9
    assert abs(report["chain_rule_residual"]) <= 1e-9
    assert [["u", "a"], ["a", "u"]][0]  # mediator rows are [z, x, y] triples
    assert all(len(row) == 3 for row in report["mediator"])


def test_triangle_independent_copy_not_found(tmp_path, capsys):
    doc = {
        "version": 1,
        "space": {
            "outcomes": ["o1", "o2", "o3", "o4"],
            "weights": {"o1": "1/4", "o2": "1/4", "o3": "1/4", "o4": "1/4"},
        },
        "variables": {
            "X": {"o1": "0", "o2": "0", "o3": "1", "o4": "1"},
            "Y": {"o1": "0", "o2": "1", "o3": "0", "o4": "1"},
            "Z": {"o1": "0", "o2": "0", "o3": "1", "o4": "1"},
        },
    }
    report = run_json(
        capsys, "triangle", write_doc(tmp_path, doc), "--vars", "X,Y,Z", "--format", "json"
    )
    assert report["is_markov_triangle"] is False
    assert report["chain_rule_residual"] == pytest.approx(-2.0, abs=1e-12)
    assert "mediator" not in report


def test_triangle_constant_triple(tmp_path, capsys):
    doc = {
        "version": 1,
        "space": {"outcomes": ["w1", "w2"], "weights": {"w1": "1/2", "w2": "1/2"}},
        "variables": {
            "X": {"w1": "k", "w2": "k"},
            "Y": {"w1": "k", "w2": "k"},
            "Z": {"w1": "k", "w2": "k"},
        },
    }
    report = run_json(
        capsys, "triangle", write_doc(tmp_path, doc), "--format", "json"
    )
    assert report["is_markov_triangle"] is True
    assert report["weak_functoriality_residual"] == 0.0


def test_audit_exit_codes(tmp_path, capsys):
    code, out, _ = run(
        capsys, "audit", "--functional", "mutual_information",
        "--seed", "3", "--instances", "8",
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True and report["probe"]["fitted_c"] == 1.0

    code, out, _ = run(
        capsys, "audit", "--functional", "joint_entropy",
        "--seed", "3", "--instances", "8",
    )
    assert code == 1
    report = json.loads(out)
    assert report["failed_axioms"] == [6]

    code, out, _ = run(
        capsys, "audit", "--functional", "conditional_entropy",
        "--seed", "3", "--instances", "8",
    )
    assert code == 1
    assert json.loads(out)["failed_axioms"] == [3]

    code, _, err = run(capsys, "audit", "--functional", "nope")
    assert code == 2
    assert "unknown functional" in err


def test_audit_all_reports_every_functional(capsys):
    code, out, _ = run(capsys, "audit", "--all", "--seed", "3", "--instances", "8")
    assert code == 1  # the registry ships deliberate non-examples
    payload = json.loads(out)
    names = [entry["functional"] for entry in payload["results"]]
    assert "mutual_information" in names and "space_weight_entropy" in names
    assert len(names) == 7


def test_audit_reports_are_byte_identical_across_runs(tmp_path, capsys):
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    for target in (first, second):
        code, _, _ = run(
            capsys, "audit", "--functional", "conditional_entropy",
            "--seed", "9", "--instances", "8", "--out", str(target),
        )
        assert code == 1
    assert first.read_bytes() == second.read_bytes()


def test_generate_emits_parsable_pair_corpus(capsys):
    payload = run_json(capsys, "generate", "--kind", "pair", "--count", "4", "--seed", "5")
    assert payload["kind"] == "pair" and len(payload["documents"]) == 4
    for doc in payload["documents"]:
        _, variables = parse_instance_document(doc)
        assert set(variables) == {"X", "Y"}


def test_generate_triangle_corpus_feeds_triangle_command(tmp_path, capsys):
    payload = run_json(capsys, "generate", "--kind", "triangle", "--count", "4", "--seed", "5")
    for doc in payload["documents"]:
        path = tmp_path / "triangle.json"
        path.write_text(serialize_document(doc))
        report = run_json(
            capsys, "triangle", str(path), "--vars", "X,Y,Z", "--format", "json"
        )
        assert report["is_markov_triangle"] is True


def test_generate_family_and_rejection_are_exclusive(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", "--kind", "triangle", "--rejection", "--family", "a"])
    assert excinfo.value.code == 2
    assert "not allowed" in capsys.readouterr().err


@pytest.mark.parametrize("axis", ["rows", "cols"])
def test_compute_repeated_shorthand_label_exits_2(tmp_path, capsys, axis):
    # Merging the repeats would leave a valid table, so only the check fails it.
    joint = {"rows": ["a", "b"], "cols": ["u", "v"], "cells": [["0/1", "0/1"], ["0/1", "1/1"]]}
    joint[axis] = ["a", "a"]
    code, _, err = run(capsys, "compute", write_doc(tmp_path, {"version": 1, "joint": joint}))
    assert code == 2
    assert "joint" in err


def test_round_trip_is_byte_identical(tmp_path):
    canonical = serialize_document(THREE_POINT)
    reparsed = parse_instance_document(load_document(canonical))
    sp, variables = reparsed
    from frvkit.documents import instance_document

    again = serialize_document(instance_document(sp, variables))
    assert again == canonical


def test_commands_dispatch_at_call_time(tmp_path, capsys, monkeypatch):
    """``main`` looks a command's function up when it runs, so rebinding
    ``cli.cmd_compute`` after a first call reaches the second call."""
    path = write_doc(tmp_path, THREE_POINT)
    first = run(capsys, "compute", path)
    calls = []
    original = cli.cmd_compute

    def counted(args):
        calls.append(args.file)
        return original(args)

    monkeypatch.setattr("frvkit.cli.cmd_compute", counted)
    assert run(capsys, "compute", path) == first
    assert calls == [path]


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


@pytest.mark.parametrize("error", [IndexError("internal"), KeyError("internal")])
def test_internal_error_is_not_reported_as_bad_input(tmp_path, monkeypatch, error):
    def broken(triple):
        raise error

    monkeypatch.setattr("frvkit.cli.find_mediator", broken)
    variables = dict(THREE_POINT["variables"], Z=THREE_POINT["variables"]["X"])
    path = write_doc(tmp_path, dict(THREE_POINT, variables=variables))
    with pytest.raises(type(error)):
        main(["triangle", path])


def test_input_errors_exit_2(tmp_path, capsys):
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes(b'{"version": 1, "label": "\xe9"}')
    code, _, err = run(capsys, "compute", str(undecodable))
    assert code == 2 and "latin1.json" in err

    too_long = tmp_path / "digits.json"
    too_long.write_text('{"version": 1' + "0" * 5000 + "}")
    assert run(capsys, "compute", str(too_long))[0] == 2

    code, _, err = run(capsys, "audit", "--functional", "mutual_information", "--instances", "3")
    assert code == 2 and "--instances" in err


@pytest.mark.parametrize(
    "option,value",
    [
        ("--tol", "nan"), ("--tol", "-1"), ("--tol", "inf"),
        ("--probe-tol", "nan"), ("--probe-tol", "inf"),
    ],
)
def test_audit_rejects_bad_tolerances(capsys, option, value):
    code, out, err = run(
        capsys, "audit", "--functional", "squared_mutual_information", f"{option}={value}"
    )
    assert code == 2 and out == ""
    assert option in err


def test_audit_with_a_huge_tolerance_fails_a_degenerate_probe(capsys):
    # At --tol 1e300 every check passes, and conditional_entropy's fit on the
    # coin is 0.0 while it is not negligible elsewhere: its probe fails.
    code, out, err = run(
        capsys, "audit", "--all", "--tol", "1e300", "--seed", "7", "--instances", "8"
    )
    assert code == 1 and err == ""
    results = {entry["functional"]: entry for entry in json.loads(out)["results"]}
    assert len(results) == 7
    report = results["conditional_entropy"]
    assert report["failed_axioms"] == [] and report["passed"] is False
    probe = report["probe"]
    assert probe["error"].startswith(
        "DegenerateFit: conditional_entropy: fit on the reference coin is 0.0 "
    )
    assert math.isnan(probe["max_abs_deviation"]) and probe["passed"] is False
    assert results["mutual_information"]["passed"] is True


def test_generate_rejects_a_negative_count(capsys):
    code, out, err = run(capsys, "generate", "--count", "-3")
    assert code == 2 and out == ""
    assert "--count" in err
