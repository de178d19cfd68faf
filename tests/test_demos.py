"""Every demo runs to completion against the library in ``src/``, and
every demo and the README's python blocks are checked for names that the
package no longer has.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import magsearch

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_kernels_and_oracle.py",
                                  "02_topology_indicators.py",
                                  "03_dominator_graph.py",
                                  "04_build_and_search.py",
                                  "05_metric_switch_rescue.py",
                                  "06_benchmark_and_scaling.py"])
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def _sources():
    for path in sorted((ROOT / "demos").glob("*.py")):
        yield pytest.param(path.read_text(), id=path.name)
    readme = (ROOT / "README.md").read_text()
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S)):
        yield pytest.param(block, id=f"README-python-{i}")


@pytest.mark.parametrize("source", list(_sources()))
def test_demo_names_exist(source):
    """Every ``ms.<name>`` and ``from magsearch... import <name>`` resolves."""
    missing = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "ms" and not hasattr(magsearch, node.attr)):
            missing.append(f"ms.{node.attr}")
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "magsearch":
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names
                        if not hasattr(module, a.name)]
    assert not missing
