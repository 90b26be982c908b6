"""Seeded in-process fuzzing of the document input contract.

Mutations of the golden pair and triangle documents (lax rationals,
repeated object keys, dropped keys, values of the wrong type, truncated
text) go through ``compute`` and ``triangle --emit-mediator``.  Every case
must exit 0 or 2 without a traceback: exit 2 is bad input, anything else
is a bug.  The cases run in this process; none starts a subprocess.
"""

import json
import random

from goldens import GOLDEN, run_cli

from frvkit.axioms import builtin_functionals
from frvkit.markov import FAMILIES

CASES = 400
LAX_RATIONALS = (" 1/2", "+1/2", "1_0/2_0", "0.5", "1/2 ", "\u0661/\u0662", "1e-1", "3", "-1/2", "1/2\n")
ODD_VALUES = (None, True, 0, -1, 1.5, "", "x", "1/2", [], {}, [[]], ["a", "b"], [[[[[]]]]])
# A placeholder that the repeated-key mutation replaces with hand-written object text.
MARK = "\x00object\x00"


def _documents():
    documents = json.loads((GOLDEN / "documents.json").read_text())
    commands = {"pairs": ["compute"], "triangles": ["triangle", "--emit-mediator"]}
    return [
        (commands[kind], doc) for kind in ("pairs", "triangles") for doc in documents[kind].values()
    ]


def _paths(node, path=()):
    """Every (path, node) below ``node``, ``node`` itself first."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _replace(doc, path, value):
    """A copy of ``doc`` with the node at ``path`` replaced by ``value``."""
    if not path:
        return value
    copy = list(doc) if isinstance(doc, list) else dict(doc)
    copy[path[0]] = _replace(doc[path[0]], path[1:], value)
    return copy


def _mutate(rng: random.Random, doc):
    """The kind and the JSON text of one random mutation of ``doc``."""
    paths = list(_paths(doc))
    kind = rng.choice(("lax", "repeat", "drop", "odd", "truncate"))
    if kind == "lax":
        cells = [path for path, node in paths if isinstance(node, str) and "/" in node]
        return kind, json.dumps(_replace(doc, rng.choice(cells), rng.choice(LAX_RATIONALS)))
    objects = [(path, node) for path, node in paths if isinstance(node, dict) and node]
    if kind == "repeat":
        path, node = rng.choice(objects)
        pairs = list(node.items())
        key = rng.choice(pairs)[0]
        pairs.insert(rng.randrange(len(pairs) + 1), (key, rng.choice([node[key], *ODD_VALUES])))
        text = "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}"
        return kind, json.dumps(_replace(doc, path, MARK)).replace(json.dumps(MARK), text)
    if kind == "drop":
        path, node = rng.choice(objects)
        dropped = rng.choice(list(node))
        return kind, json.dumps(_replace(doc, path, {k: v for k, v in node.items() if k != dropped}))
    if kind == "odd":
        return kind, json.dumps(_replace(doc, rng.choice(paths)[0], rng.choice(ODD_VALUES)))
    text = json.dumps(doc)
    return kind, text[: rng.randrange(len(text))]


def test_mutated_documents_exit_0_or_2_without_a_traceback(tmp_path):
    documents = _documents()
    path = tmp_path / "mutated.json"
    for command, doc in documents:
        path.write_text(json.dumps(doc))
        code, _, err = run_cli([*command[:1], str(path), *command[1:]], tmp_path)
        assert code == 0, (command, err)
    rng = random.Random("fuzz/documents")
    exits = {0: 0, 2: 0}
    for case in range(CASES):
        command, doc = rng.choice(documents)
        kind, text = _mutate(rng, doc)
        path.write_text(text)
        code, _, err = run_cli([*command[:1], str(path), *command[1:]], tmp_path)
        assert code in exits and "Traceback" not in err, (case, text, code, err)
        # Every rational is parsed and no key may repeat, so these never pass.
        assert code == 2 or kind not in ("lax", "repeat"), (case, text)
        exits[code] += 1
    assert exits[2] > CASES // 2 and exits[0] > 0


OPTION_CASES = 150
FUNCTIONALS = [functional.name for functional in builtin_functionals()]
SEEDS = ("0", "7", "-1", "-123456789", str(2**64), str(10**40), str(-(10**40)))
# (valid, invalid) values of each option; every count stays at most 8.
TOLERANCES = (
    ("-0.0", "5e-324", "0", "1e-9", "1e300"),
    ("nan", "NaN", "1e400", "-1e400", "inf", "-1e-300", "x", ""),
)
INSTANCES = (("4", "5", "8"), ("-3", "0", "1", "3", "2.5", "1e1", "four"))
COUNTS = (("0", "1", "3", "8"), ("-2", "-1", "1.5", "2e0", ""))


def _option_case(rng: random.Random):
    """One random ``audit`` or ``generate`` argv, and whether every option
    value in it is valid."""
    valid = True

    def pick(values):
        nonlocal valid
        good = rng.random() < 0.75
        valid = valid and good
        return rng.choice(values[0] if good else values[1])

    seed = ["--seed", rng.choice(SEEDS)] if rng.random() < 0.8 else []
    if rng.random() < 0.6:
        target = ["--all"] if rng.random() < 0.2 else ["--functional", rng.choice(FUNCTIONALS)]
        argv = ["audit", *target, *seed, "--instances", pick(INSTANCES)]
        for option in ("--tol", "--probe-tol"):
            argv += [option, pick(TOLERANCES)] if rng.random() < 0.7 else []
        return argv, valid
    recipe = rng.choice(([], ["--rejection"], ["--family", rng.choice(FAMILIES)]))
    kind = rng.choice(("pair", "triangle"))
    return ["generate", "--kind", kind, *seed, "--count", pick(COUNTS), *recipe], valid


def test_audit_and_generate_option_values_exit_0_1_or_2_without_a_traceback(tmp_path):
    rng = random.Random("fuzz/options")
    exits = {0: 0, 1: 0, 2: 0}
    for case in range(OPTION_CASES):
        argv, valid = _option_case(rng)
        code, _, err = run_cli(argv, tmp_path)
        assert code in exits and "Traceback" not in err, (case, argv, code, err)
        # Bad option values exit 2, and valid ones exit 0 or 1.
        assert (code == 2) == (not valid), (case, argv, code, err)
        # generate never reports a failure.
        assert code != 1 or argv[0] == "audit", (case, argv)
        exits[code] += 1
    assert min(exits.values()) > 0, exits
