"""No module defines a top-level function or class name twice.

Python keeps only the last definition of a name, so a repeated test
function silently drops the earlier one from the suite."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def shadowed_names(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = Counter(
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    )
    return sorted(name for name, count in names.items() if count > 1)


def test_no_module_defines_a_top_level_name_twice():
    modules = sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("src/frvkit/*.py")])
    assert len(modules) > 20
    shadowed = {str(path.relative_to(ROOT)): shadowed_names(path) for path in modules}
    assert {path: names for path, names in shadowed.items() if names} == {}
