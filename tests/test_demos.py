"""Every name a demo imports from spinbath exists, and README's library
block runs.

The demos are parsed, not run: they write files and take seconds each.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import spinbath

ROOT = pathlib.Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def spinbath_imports(path):
    """(module, name) for each spinbath import in a script; name None for
    a plain ``import spinbath...``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "spinbath":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "spinbath")


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_imported_names_exist(path):
    imports = list(spinbath_imports(path))
    assert imports, f"{path.name} imports nothing from spinbath"
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name), f"{path.name}: {module}.{name} is gone"


def test_readme_library_block_runs():
    # the first python block of README: one point through factors and
    # evolve, then the closed-form and the numeric N, printed last
    block = (ROOT / "README.md").read_text().split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    src = os.path.dirname(os.path.dirname(spinbath.__file__))
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    closed, numeric = (float(x) for x in proc.stdout.splitlines()[-2:])
    assert closed > 0.0 and abs(closed - numeric) <= 1e-12
