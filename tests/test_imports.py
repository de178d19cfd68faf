"""Every package, test and demo module reads each name it imports, no
package module rebinds module state with a ``global`` statement, every
top-level name of the package is read by a package module or exported,
and importing the package loads no scipy module.

No linter ships with the toolchain, so this walks the syntax tree: a name
bound by ``import`` or ``from ... import`` must appear somewhere in the
file as a loaded name. ``__init__.py`` is skipped, since its imports are
the package's exports. Library state belongs to objects that callers
create and pass, so one call (or test) cannot change the next.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "magsearch").glob("*.py"))
FILES = ([p for p in PACKAGE if p.name != "__init__.py"]
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


def global_statements(source: str) -> list[int]:
    """Line numbers of the ``global`` statements in a module."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Global)]


def test_finds_a_global_statement():
    source = "x = 0\n\ndef f():\n    global x\n    x = 1\n"
    assert global_statements(source) == [4]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_global_statements(path):
    assert global_statements(path.read_text()) == []


def dead_names(modules: dict[str, str]) -> list[str]:
    """``module.name`` for each top-level function, class or constant that
    no module reads, as a name or an attribute, and ``__init__`` does not
    export; ``__version__`` is exempt."""
    defined, read = [], {"__version__"}
    for module, source in modules.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, t.id) for t in targets if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and module == "__init__":
                read |= {a.name for a in node.names}
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def test_finds_a_dead_name():
    modules = {"__init__": "from .a import exported\n__version__ = '1'\n",
               "a": ("LIMIT = 3\nSPARE: int = 4\nTABLE = 5\n"
                     "def exported():\n    return helper() + LIMIT\n"
                     "def helper():\n    return 1\n"
                     "def dead():\n    pass\n"
                     "class Dead:\n    pass\n"),
               "b": "from . import a\nprint(a.TABLE)\n"}
    assert dead_names(modules) == ["a.Dead", "a.SPARE", "a.dead"]


def test_no_dead_names():
    assert dead_names({p.stem: p.read_text() for p in PACKAGE}) == []


def test_package_import_loads_no_scipy():
    """scipy loads on the first call of ``count_strong_components`` or
    ``expected_self_dominators``; no build, query or CLI start pays for it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = ("import sys\nimport magsearch, magsearch.cli, magsearch.bench\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def package_imports(source: str) -> set[str]:
    """The package modules that a module of the package imports from,
    by relative or by absolute import."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.split(".")[0] != "magsearch":
                    continue
                module = module.removeprefix("magsearch").lstrip(".")
            # "from . import x" and "from magsearch import x" name modules
            names |= {module.split(".")[0]} if module else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            names |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("magsearch.")}
    return names


def test_finds_package_imports():
    source = ("import numpy as np\nfrom .errors import UsageError\n"
              "from . import stats\nimport magsearch.io\n"
              "from magsearch.index import build_mag\n"
              "from magsearch import bench\nfrom json import dumps\n")
    assert package_imports(source) == {"errors", "stats", "io", "index", "bench"}


def test_search_imports_only_errors_and_metrics():
    """The query layer stands on the kernels alone: exact scans, builds and
    benchmarks import it, never the other way round."""
    source = (ROOT / "src" / "magsearch" / "search.py").read_text()
    assert package_imports(source) <= {"errors", "metrics"}
