"""Every package, test and demo module reads each name it imports.

No linter ships with the toolchain, so this walks the syntax tree: a name
bound by ``import`` or ``from ... import`` must appear somewhere in the
file as a loaded name. ``__init__.py`` is skipped, since its imports are
the package's exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = (sorted(p for p in (ROOT / "src" / "magsearch").glob("*.py")
                if p.name != "__init__.py")
         + sorted((ROOT / "tests").glob("*.py"))
         + sorted((ROOT / "demos").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(name for name in bound if name not in read)


def test_finds_an_unused_import():
    source = ("import os\nimport numpy as np\nfrom json import dumps, loads\n"
              "np.zeros(loads('1'))\n")
    assert unused_imports(source) == ["dumps", "os"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
