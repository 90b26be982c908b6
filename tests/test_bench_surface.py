"""Every frvkit name the benchmark harness calls still resolves.

``perfbench/workloads.py`` reaches the library through the ``frvkit``
package it is handed (``fk``, also held as ``self.fk``) and through names
bound to its attributes (``ax = fk.axioms``); ``perfbench/tracing.py``
wraps the layer modules it lists and rebinds ``ConditionalKernel.prob``.
A rename in ``src/`` that misses one of these passes every other test and
fails only in a benchmark run.  Both files are only read here."""

import ast
import importlib
from pathlib import Path

import frvkit.cli  # the harness imports frvkit.cli as well as frvkit

ROOT = Path(__file__).resolve().parent.parent


def _tree(name: str) -> ast.Module:
    path = ROOT / "perfbench" / name
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _dotted(node) -> list:
    """``a.b.c`` as ["a", "b", "c"], a leading ``self`` dropped; [] for any
    other expression."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return []
    parts.append(node.id)
    parts.reverse()
    return parts[1:] if parts[0] == "self" else parts


def workload_references() -> set:
    """Every whole dotted name in ``workloads.py`` rooted at ``fk`` or at a
    name assigned an attribute of ``fk``, as a path from the package."""
    nodes = list(ast.walk(_tree("workloads.py")))
    aliases = {"fk": ()}
    for node in nodes:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, parts = node.targets[0], _dotted(node.value)
            if isinstance(target, ast.Name) and parts[:1] == ["fk"]:
                aliases[target.id] = tuple(parts[1:])
    # Only whole chains count: in fk.cli.main, not also fk.cli.
    inner = {id(node.value) for node in nodes if isinstance(node, ast.Attribute)}
    references = set()
    for node in nodes:
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            parts = _dotted(node)
            if parts and parts[0] in aliases:
                references.add(aliases[parts[0]] + tuple(parts[1:]))
    references.discard(())
    return references


def test_every_name_the_workloads_read_resolves():
    references = workload_references()
    for expected in (("PmfSequence",), ("AuditCorpus",), ("axioms", "VacuityInstance"), ("cli", "main")):
        assert expected in references
    assert len(references) >= 26
    missing = []
    for path in sorted(references):
        obj = frvkit
        for part in path:
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(".".join(path))
    assert missing == []


def test_every_layer_the_tracer_wraps_imports():
    layers = next(
        ast.literal_eval(node.value)
        for node in _tree("tracing.py").body
        if isinstance(node, ast.Assign) and _dotted(node.targets[0]) == ["LAYERS"]
    )
    assert "measures" in layers and "markov" in layers
    for layer in layers:
        importlib.import_module(f"frvkit.{layer}")


def test_the_kernel_lookup_the_tracer_rebinds_is_defined_on_the_class():
    assert callable(frvkit.measures.ConditionalKernel.__dict__["prob"])
