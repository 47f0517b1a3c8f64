"""Smoke test of the benchmark on tiny inputs.

    python3 -m pytest bench/test_smoke.py

Each workload runs on a small graph with the rest of its config unchanged.
The test checks that every metric named in BENCHMARK.json is emitted with its
unit, that the traced run reproduces the untraced outputs, and that the
independent checks catch a wrong stop state.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_GRAPHS = {
    "dense": {"kind": "complete", "n": 8},
    "sparse": {"kind": "erdos_renyi", "n": 30, "p": 0.3},
    "trace": {"kind": "grid", "w": 3, "h": 3},
}


@pytest.fixture(params=sorted(TINY_GRAPHS))
def tiny(request, tmp_path):
    wl = harness.workloads()[request.param]
    raw = json.loads(wl.config.read_text(encoding="utf-8"))
    raw["graph"] = TINY_GRAPHS[wl.name]
    config = tmp_path / f"{wl.name}.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    return replace(wl, config=config, pins=None)


def _assert_metrics(result: dict, declared: list[dict]) -> None:
    assert result["correct"], result["detail"]["errors"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float)) and math.isfinite(emitted["value"])


def test_end_to_end_metrics(tiny, tmp_path):
    result = harness.measure(tiny, seed=3, seconds=0.0, out_dir=tmp_path)
    _assert_metrics(result, SPEC["end_to_end"])
    assert len(result["detail"]["reps"]) == harness.MIN_ROUNDS * tiny.inputs


def test_traced_run_reproduces_untraced_outputs(tiny, tmp_path):
    result = harness.measure_traced(tiny, seed=3, out_dir=tmp_path)
    _assert_metrics(result, SPEC["per_layer"])
    untraced, traced = result["detail"]["digests"], result["detail"]["traced_digests"]
    for key, value in traced.items():
        assert value == untraced[key], key
    assert result["metrics"]["trace_coverage_frac"]["value"] > 0.5


def test_pin_mismatch_fails_the_check_run(tiny, tmp_path):
    result = harness.measure(replace(tiny, pins={"events": -1}), seed=harness.PIN_SEED, seconds=0.0,
                             out_dir=tmp_path)
    assert not result["correct"]
    check_trials = harness.setup(tiny, harness.PIN_SEED).trials if tiny.kind == "estimate" else 1
    assert result["failed"] == check_trials
    assert any("pinned" in e for e in result["detail"]["errors"])


def test_stop_state_check_catches_wrong_states():
    edges = checks.edge_arrays(((1,), (0, 2), (1,)))  # path 0-1-2
    eps, tau = 0.01, 0.5
    agreed = np.array([[0.1], [0.1], [0.1]])
    split = np.array([[0.0], [0.0], [0.9]])
    banded = np.array([[0.0], [0.2], [0.2]])
    assert checks.stop_state_errors(agreed, edges, "l2", eps, tau, True, True) == []
    assert checks.stop_state_errors(split, edges, "l2", eps, tau, True, False) == []
    assert checks.stop_state_errors(split, edges, "l2", eps, tau, True, True)
    assert checks.stop_state_errors(banded, edges, "l2", eps, tau, True, False)
    assert checks.stop_state_errors(agreed, edges, "l2", eps, tau, False, None)


def test_command_prints_result_last():
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "trace", "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True


def test_command_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dense", "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
