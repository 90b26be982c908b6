"""Every operation the README promises under "Key operations" exists."""

import fnmatch
import re
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
