"""Every name a module of `hkc` imports is used in that module.

`__init__.py` is left out: its imports are the package's public names.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hkc"


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import that no other node of the module reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_every_import_is_used():
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        names = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            unused[path.name] = names
    assert unused == {}


def test_import_check_sees_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy.linalg\n"
        "import random as rnd\n"
        "from math import sqrt, inf\n"
        "from . import seeding\n"
        "def f(x) -> float:\n"
        "    return sqrt(x) + numpy.linalg.norm(x) + seeding.trial_rng(0, 0).random()\n"
    )
    assert _unused_imports(ast.parse(source)) == ["inf", "os", "rnd"]
