"""The README's promises hold: every operation under "Key operations"
exists, and the "Library quick start" block runs and gives the values its
comments state."""

import ast
import fnmatch
import re
from fractions import Fraction
from pathlib import Path

import frvkit

README = Path(__file__).resolve().parent.parent / "README.md"


def key_operation_names():
    text = README.read_text(encoding="utf-8")
    paragraph = text[text.index("Key operations:"):].split("\n\n", 1)[0]
    return re.findall(r"`([^`]+)`", paragraph)


def test_readme_key_operations_resolve_on_frvkit():
    names = key_operation_names()
    assert len(names) > 20
    public = [name for name in dir(frvkit) if not name.startswith("_")]
    for name in names:
        if "*" in name:
            assert fnmatch.filter(public, name), name
        else:
            assert callable(getattr(frvkit, name, None)), name


def quick_start_values():
    """Run the quick start block statement by statement in a fresh namespace
    and return the value of each bare expression, keyed by its source."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start"):]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, {}
    for statement in ast.parse(block).body:
        if isinstance(statement, ast.Expr):
            code = compile(ast.Expression(statement.value), "README.md", "eval")
            values[ast.unparse(statement.value)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
    return values


def test_readme_quick_start_gives_the_values_its_comments_state():
    values = quick_start_values()
    assert values["dict(x.pmf)"] == {"a": Fraction(1, 2), "b": Fraction(1, 2)}
    assert values["frvkit.mutual_information(x, y)"] == 0.19087450462110933
    assert values["frvkit.verify_mediator(t, h)"] is True
    assert values["result.failed_axioms"] == (6,)
    audit_line = "frvkit.audit(frvkit.get_functional('mutual_information'), corpus=corpus).passed"
    assert values[audit_line] is True
