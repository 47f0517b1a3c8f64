"""README examples run as written: the Library code block and the config example."""

import json
import re
from pathlib import Path

from hkc.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)


def test_library_example_runs(capsys):
    (code,) = _blocks("python")
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].split()[0] in ("True", "False")


def test_config_example_runs_through_bound(tmp_path, capsys):
    (text,) = _blocks("json")
    doc = json.loads(text)
    cfg = tmp_path / "config.json"
    cfg.write_text(text, encoding="utf-8")
    assert main(["bound", str(cfg)]) == 0
    out = json.loads(capsys.readouterr().out)
    tau = doc["tau"]
    # the README's closed form for opinions uniform on [0, 1]
    assert abs(out["bound"] - (4 * tau - 3) / (4 * tau - 2)) < 1e-12
