"""`hkc` holds no dead code: every name a module imports is used in that
module, every top-level function and class is reached from the package, every
name a module assigns at top level is read in the package, and every method
and property of a class is read as an attribute in the package. And only
`tests/oracles.py` reads private state: no other test module touches a name
with a leading underscore on anything but `self`.

`__init__.py` is left out of the import check: its imports are the package's
public names.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "hkc"

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's imports, with the line of each import."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    return imported


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import that no other node of the module reads."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in _imported(tree) if name not in used)


def _reads(node: ast.AST) -> set[str]:
    """Names read within node, as bare names or as attributes (`seeding.trial_rng`)."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def _unreached_definitions(modules: dict[str, ast.Module], exported: set[str]) -> list[str]:
    """Top-level functions and classes that nothing live reads and `exported` does not name.

    Live code is each module's top-level code outside definitions, and the
    bodies of the definitions still live; a body's reads of its own name do
    not count. Dropping unreached definitions until none is left also drops
    one that only other unreached definitions read.
    """
    loose: set[str] = set()
    live = {}
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, _DEFINITIONS):
                live[f"{module}:{node.name}"] = (node.name, _reads(node) - {node.name})
            else:
                loose |= _reads(node)
    unreached = []
    while True:
        kept = exported | loose.union(*(reads for _, reads in live.values()))
        dead = [key for key, (name, _) in live.items() if name not in kept]
        if not dead:
            return sorted(unreached)
        for key in dead:
            del live[key]
        unreached += dead


def _assigned(tree: ast.Module) -> list[str]:
    """Names bound by the module's top-level assignments."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names += [sub.id for sub in ast.walk(target) if isinstance(sub, ast.Name)]
    return names


def _unread_assignments(modules: dict[str, ast.Module], exported: set[str]) -> list[str]:
    """Names assigned at the top level of a module that no node of the package reads
    and `exported` does not name.

    A read is a bare name loaded, an attribute (`space.MAX_DIM`) or a name imported
    from a module. A name that only unreached code reads passes here; the definition
    check reports that code, and once it is deleted this check reports the name.
    """
    reads = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                reads |= {alias.name for alias in node.names}
    return sorted(
        f"{module}:{name}" for module, tree in modules.items() for name in _assigned(tree)
        if name not in reads and name not in exported
    )


def _unread_methods(modules: dict[str, ast.Module], exempt: set[str]) -> list[str]:
    """Methods and properties of the classes that no attribute load in the package reads
    and `exempt` does not name (as `Class.method`). Dunder methods run by protocol, not by name."""
    reads = {
        node.attr for tree in modules.values() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        f"{module}:{cls.name}.{node.name}"
        for module, tree in modules.items() for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in reads and f"{cls.name}.{node.name}" not in exempt
    )


def _private_uses(tree: ast.Module, exempt: set[tuple[str, str]]) -> list[int]:
    """Lines that read or write an attribute named with one leading underscore on anything but `self`,
    or that name one to `getattr`, `setattr` or `delattr` (`monkeypatch.setattr(module, "_name", value)`,
    or `monkeypatch.setattr("module._name", value)`); `exempt` holds the (object, name) pairs allowed."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner, name = node.value, node.attr
        elif (isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None))
              in ("getattr", "setattr", "delattr") and node.args):
            texts = [a.value for a in node.args[:2] if isinstance(a, ast.Constant) and isinstance(a.value, str)]
            if not texts:
                continue
            owner, name = node.args[0], texts[0].rpartition(".")[2]
        else:
            continue
        label = owner.id if isinstance(owner, ast.Name) else None
        if name.startswith("_") and not name.startswith("__") and label != "self" and (label, name) not in exempt:
            lines.add(node.lineno)
    return sorted(lines)


def test_every_import_is_used():
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        names = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            unused[path.name] = names
    assert unused == {}


def test_every_definition_is_reached_or_exported():
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    assert _unreached_definitions(modules, set(_imported(modules["__init__.py"]))) == []


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


def test_definition_check_sees_unreached_names():
    engine = (
        "from . import kernels\n"
        "LIMIT = default_limit()\n"
        "def default_limit():\n"
        "    return 10\n"
        "class Engine:\n"
        "    def step(self):\n"
        "        return _update() + kernels.fast()\n"
        "def _update():\n"
        "    return 1\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "def classify():\n"
        "    return settled()\n"
        "def settled():\n"
        "    return True\n"
    )
    kernels = "def fast():\n    return 2\ndef slow():\n    return fast()\n"
    modules = {"engine.py": ast.parse(engine), "kernels.py": ast.parse(kernels)}
    assert _unreached_definitions(modules, {"Engine"}) == [
        "engine.py:classify", "engine.py:recursive", "engine.py:settled", "kernels.py:slow",
    ]
    assert _unreached_definitions(modules, {"Engine", "classify", "recursive", "slow"}) == []


def test_every_assignment_is_read_or_exported():
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    init = modules["__init__.py"]
    # the package's public names: those __init__ imports and those it assigns (__version__)
    assert _unread_assignments(modules, set(_imported(init)) | set(_assigned(init))) == []


def test_assignment_check_sees_unread_names():
    engine = (
        "from . import kernels\n"
        "from .kernels import SCALE\n"
        "LIMIT = 10\n"
        "UNUSED, PAIR = 1, 2\n"
        "TABLE: dict = {}\n"
        "VERSION = '1'\n"
        "def step(n):\n"
        "    LIMIT_LOCAL = n\n"
        "    return LIMIT + SCALE + PAIR + kernels.WIDTH + LIMIT_LOCAL\n"
    )
    kernels = "SCALE = 2.0\nWIDTH = 3\nOFFSET = 1\nSTALE = OFFSET\n"
    modules = {"engine.py": ast.parse(engine), "kernels.py": ast.parse(kernels)}
    assert _unread_assignments(modules, {"VERSION"}) == ["engine.py:TABLE", "engine.py:UNUSED", "kernels.py:STALE"]
    assert _unread_assignments(modules, {"VERSION", "TABLE", "UNUSED", "STALE"}) == []


def test_every_method_is_read():
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    # step() is the public one-event interface: the benchmark's traced run and the tests
    # that run it beside run_to_stop drive it, and no code in the package does
    assert _unread_methods(modules, {"TrialEngine.step"}) == []


def test_method_check_sees_unread_names():
    engine = (
        "class Engine:\n"
        "    def __init__(self):\n"
        "        self._build()\n"
        "        self.step = None\n"
        "    def _build(self):\n"
        "        return self.size\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"
        "    @property\n"
        "    def view(self):\n"
        "        return 2\n"
        "    def step(self):\n"
        "        return 3\n"
    )
    kernels = (
        "class Kernel:\n"
        "    def fast(self, engine):\n"
        "        return engine.view\n"
        "    def step(self):\n"
        "        return 4\n"
    )
    modules = {"engine.py": ast.parse(engine), "kernels.py": ast.parse(kernels)}
    # a store (self.step = None) is no read, and exempting Engine.step leaves Kernel.step reported
    assert _unread_methods(modules, set()) == ["engine.py:Engine.step", "kernels.py:Kernel.fast",
                                               "kernels.py:Kernel.step"]
    assert _unread_methods(modules, {"Engine.step"}) == ["kernels.py:Kernel.fast", "kernels.py:Kernel.step"]
    assert _unread_methods(modules, {"Engine.step", "Kernel.fast", "Kernel.step"}) == []


def test_only_the_oracles_read_private_state():
    # graph's resampling cap: lowering the draw budget, and reading the attempt cap it
    # meets, is the only way to test the cap without 10^4 attempts
    exempt = {("graph", "_ER_MAX_DRAWS"), ("graph", "_ER_MAX_ATTEMPTS")}
    found = [
        f"{path.name}:{line}" for path in sorted(TESTS.glob("*.py")) if path.name != "oracles.py"
        for line in _private_uses(ast.parse(path.read_text(encoding="utf-8")), exempt)
    ]
    assert found == []


def test_private_check_sees_reads_and_writes():
    source = (
        "from hkc import dynamics, graph\n"
        "class Probe:\n"
        "    def __init__(self, engine):\n"
        "        self._engine = engine.__class__\n"
        "def test(monkeypatch, engine):\n"
        "    total = engine._tree[engine._size]\n"
        "    engine._update = None\n"
        "    monkeypatch.setattr(dynamics, \"_bounds\", len)\n"
        "    monkeypatch.setattr(\"hkc.dynamics._bounds\", len)\n"
        "    monkeypatch.setattr(graph, \"_ER_MAX_DRAWS\", 100)\n"
        "    return getattr(engine, \"_owner\") + graph._ER_MAX_ATTEMPTS + engine.opinions + make()._lo\n"
    )
    tree = ast.parse(source)
    assert _private_uses(tree, set()) == [6, 7, 8, 9, 10, 11]
    assert _private_uses(tree, {("graph", "_ER_MAX_DRAWS"), ("graph", "_ER_MAX_ATTEMPTS")}) == [6, 7, 8, 9, 11]
