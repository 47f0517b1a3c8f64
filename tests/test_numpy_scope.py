"""`hkc` runs on the standard library alone: no module of the package names numpy,
importing the CLI loads none, and the CLI's bytes stay the golden ones where numpy
cannot be imported at all."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from test_golden import CYCLE_TRACE, GOLDEN, PATH_1D

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hkc"


def _numpy_names(tree: ast.Module) -> list[int]:
    """Lines that import numpy, or one of its submodules, or name `numpy` or `np`."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"
        or isinstance(node, ast.Name) and node.id in ("numpy", "np")
    )


def test_no_module_of_the_package_names_numpy():
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = _numpy_names(ast.parse(path.read_text(encoding="utf-8")))
        if lines:
            offenders[path.name] = lines
    assert offenders == {}


def test_scope_check_sees_every_numpy_name():
    source = (
        "import numpy as np, numpy.linalg\n"
        "from numpy import asarray\n"
        "import os\n"
        "class Configuration:\n"
        "    opinions: np.ndarray\n"
        "def f(rows):\n"
        "    return np.array(rows), asarray(rows), numpy.linalg.norm(rows), os.sep\n"
    )
    assert _numpy_names(ast.parse(source)) == [1, 2, 5, 7, 7]


def _env(*first: Path) -> dict[str, str]:
    """The environment with `first`, then the package's source directory, as the import path."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, [*first, PACKAGE.parent])))


def test_cli_import_loads_no_numpy():
    code = "import sys, hkc.cli; print([m for m in sys.modules if m.split('.')[0] == 'numpy'])"
    proc = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_golden_bytes_where_numpy_cannot_be_imported(tmp_path):
    # sitecustomize sets sys.modules["numpy"] = None at the start of every interpreter,
    # pool workers included, whatever their start method, so any numpy import raises
    block = tmp_path / "block"
    block.mkdir()
    (block / "sitecustomize.py").write_text('import sys\nsys.modules["numpy"] = None\n', encoding="utf-8")
    env = _env(block)

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)

    assert run("-c", "import numpy").returncode != 0
    for name, doc in (("path", PATH_1D), ("cycle", CYCLE_TRACE)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    trace = tmp_path / "trace.csv"
    for argv, key in (
        (["estimate", "path.json"], "estimate_path_1d"),
        (["estimate", "path.json", "--parallel", "2"], "estimate_path_1d"),
        (["simulate", "cycle.json", "--trace", str(trace)], "simulate_cycle_stdout"),
    ):
        argv[1] = str(tmp_path / argv[1])
        proc = run("-m", "hkc", *argv)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN[key], argv
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == GOLDEN["simulate_cycle_trace"]
