"""numpy backs only `Configuration`, the frozen final state of a trial: every
other part of `hkc` works on the engine's row tuples."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hkc"


def _numpy_uses_outside_configuration(tree: ast.Module) -> list[int]:
    """Lines that name a numpy import outside the body of `class Configuration`."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or "numpy" for a in node.names if a.name.split(".")[0] == "numpy"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            aliases |= {a.asname or a.name for a in node.names}
    inside = {
        id(sub)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "Configuration"
        for sub in ast.walk(node)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id in aliases and id(node) not in inside
    )


def test_numpy_is_named_only_inside_configuration():
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = _numpy_uses_outside_configuration(ast.parse(path.read_text(encoding="utf-8")))
        if lines:
            offenders[path.name] = lines
    assert offenders == {}


def test_scope_check_sees_numpy_outside_configuration():
    source = (
        "import numpy as np, numpy.linalg\n"
        "from numpy import asarray\n"
        "class Configuration:\n"
        "    opinions: np.ndarray\n"
        "def f(rows):\n"
        "    return np.array(rows), asarray(rows), numpy.linalg.norm(rows)\n"
    )
    assert _numpy_uses_outside_configuration(ast.parse(source)) == [6, 6, 6]
