"""No module of the program or of its tests imports a name it never reads.

Every file in ``src/proben/`` and ``tests/`` is parsed with ``ast``, and each
name an import binds must be read somewhere in that file. Exempt are
``__future__`` imports, names listed as strings in ``__all__``, and imports
on a line marked ``# noqa: F401`` (names kept for perfbench's tracer to wrap).
"""

import ast
import glob
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FILES = sorted(
    glob.glob(os.path.join(ROOT, "src", "proben", "*.py"))
    + glob.glob(os.path.join(ROOT, "tests", "*.py"))
)


def unused_imports(source):
    """(line, name) of each name imported in source and never read there."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "noqa: F401" not in lines[alias.lineno - 1]:
                    bound = alias.asname or alias.name.partition(".")[0]
                    imported.append((alias.lineno, bound))
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {
                e.value for e in ast.walk(node.value)
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            }
    return [(line, name) for line, name in imported if name not in read]


@pytest.mark.parametrize("path", FILES, ids=lambda path: os.path.relpath(path, ROOT))
def test_every_import_is_read(path):
    with open(path, encoding="utf-8") as fh:
        unused = unused_imports(fh.read())
    assert not unused, f"imported and never read: {unused}"


def test_scan_finds_an_unused_import():
    source = "import os\nimport sys  # noqa: F401\nfrom a import (b,\n    c)\nprint(c)\n"
    assert unused_imports(source) == [(1, "os"), (3, "b")]
