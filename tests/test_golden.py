"""Golden output bytes: sha256 of CLI stdout (and the trace file) on fixed configs.

A refactor that claims to keep behaviour must keep these digests. A change
that alters report bytes on purpose updates them and says why.
"""

import hashlib
import json
from pathlib import Path

from hkc.cli import main

PATH_1D = {
    "graph": {"kind": "path", "n": 6},
    "space": {"dim": 1, "norm": "l2", "shape": {"box": {"lo": [0.0], "hi": [1.0]}}},
    "init": "uniform",
    "tau": 0.8,
    "trials": 40,
    "seed": 3,
}

# rho = sqrt(0.5) < tau, so the bound applies and comes from the Monte Carlo path
BOX_2D = {
    "graph": {"kind": "cycle", "n": 5},
    "space": {"dim": 2, "norm": "l2", "shape": {"box": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}}},
    "init": "uniform",
    "tau": 1.0,
    "trials": 8,
    "seed": 11,
}

CYCLE_TRACE = {
    "graph": {"kind": "cycle", "n": 6},
    "space": {"dim": 1, "norm": "l2", "shape": {"box": {"lo": [0.0], "hi": [1.0]}}},
    "init": "uniform",
    "tau": 0.8,
    "trials": 1,
    "seed": 5,
}

# the geometry the configs above leave out: a 2-D L1 ball (rejection sampling, the
# L1 loop kernel in the edge rule) with alpha > 0; event A is true in 4 of the 20 trials
L1_BALL_2D = {
    "graph": {"kind": "path", "n": 6},
    "space": {"dim": 2, "norm": "l1", "shape": {"ball": {"center": [0.0, 0.0], "radius": 1.0}}},
    "init": "uniform",
    "tau": 1.2,
    "alpha": 0.25,
    "trials": 20,
    "seed": 13,
}

# a 3-D Linf box (the loop kernel) with dyadic point-mass draws; event A is true in
# 18 of the 20 trials, and the bound is exact in binary
LINF_MASSES_3D = {
    "graph": {"kind": "cycle", "n": 5},
    "space": {"dim": 3, "norm": "linf", "shape": {"box": {"lo": [0.0, 0.0, 0.0], "hi": [1.0, 1.0, 1.0]}}},
    "init": {
        "point_masses": [
            {"point": [0.5, 0.5, 0.5], "prob": 0.5},
            {"point": [0.0, 0.0, 0.0], "prob": 0.25},
            {"point": [1.0, 1.0, 1.0], "prob": 0.25},
        ]
    },
    "tau": 0.9,
    "trials": 20,
    "seed": 17,
}

# Dissensus configs: every other config stops in consensus, so these are the byte pins of a
# wide opinion box and of the banded-witness rescans. 0, 1 and 0 of the 6 trials end in consensus.
CYCLE_DISSENSUS_1D = {
    "graph": {"kind": "cycle", "n": 30},
    "space": {"dim": 1, "norm": "l2", "shape": {"box": {"lo": [0.0], "hi": [1.0]}}},
    "init": "uniform",
    "tau": 0.3,
    "trials": 6,
    "seed": 7,
}

GRID_DISSENSUS_2D = {
    "graph": {"kind": "grid", "w": 5, "h": 5},
    "space": {"dim": 2, "norm": "l1", "shape": {"box": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}}},
    "init": "uniform",
    "tau": 0.5,
    "trials": 6,
    "seed": 7,
}

COMPLETE_DISSENSUS_3D = {
    "graph": {"kind": "complete", "n": 30},
    "space": {"dim": 3, "norm": "linf", "shape": {"box": {"lo": [0.0, 0.0, 0.0], "hi": [1.0, 1.0, 1.0]}}},
    "init": "uniform",
    "tau": 0.45,
    "trials": 6,
    "seed": 7,
}

GOLDEN = {
    "estimate_path_1d": "622afd0067d2a4de91c0513e487810cdb2e43b7e9b5c0c5f3afadf3696ce6c56",
    "estimate_box_2d": "4eb4076556d4a83241e839281af379aa715b24febef040958eb443fc3f80adb8",
    "bound_box_2d": "55e9d3dfacfcd600ffae7ecfefb20b99a9c51da3f92aec0185877617aeab18dc",
    "simulate_cycle_stdout": "bb82c8f93c18035c240d9e477f7bc7b4d6e4892a184121dc3962b15601a78495",
    "simulate_cycle_trace": "abf0844644fb4af68ed571d0e7ddeaee6e2be8c5187f5820a918a4c3aec8d0b7",
    "estimate_l1_ball_2d": "19095906be3f497638b8aa6356719428d6c16f1749a3dbd01db4580d59b0e499",
    "estimate_linf_masses_3d": "5f3450c988c2ea1099abd5c07336f5e4cc1798cc71972f7647d8c93858de5d0b",
    "bound_linf_masses_3d": "ffb54eb5f2d0ed751a407dd8abd6ab5d54a7a06c229f013b84334d1c867f9659",
    "estimate_cycle_dissensus_1d": "de4fc6027b17a9c0de92ea7e25053ef2ea75e0938fb0582ac7821eaa241ed7df",
    "estimate_grid_dissensus_2d": "9ba83bc57dccfbe29e79060a555bd5455f3fa60a82eaced940514af472182629",
    "simulate_grid_dissensus_stdout": "7a4bd82c4a3c11fd57bdd4204331df907637ea2bad18ef733aaa8fdfcda4813a",
    "simulate_grid_dissensus_trace": "ca47efc57cbfb8c3ce14a5469fa62d3b667cf5f36d7a671439d4b6ad9529d469",
    "estimate_complete_dissensus_3d": "8baced4244d586deca3e7234ceaa5cf79c9682bbaf87b2a8ff16d1bea99f9d43",
    "simulate_complete_dissensus_3d_stdout": "54dfb40209a91d866eec2b66c3ff3153419f4a7e912c8204b81c0cd5667bcb0d",
    "simulate_complete_dissensus_3d_trace": "dab4baeb649830362f1e15e05e76a0771af9d6b46bb53aed09ccfb5d3dcac0fe",
    "check_invariants_200_3": "98f703914ced18fa0509771cce852b09ff97d7317616e734d16752924ab9663d",
}


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def _stdout(capsys, tmp_path: Path, doc: dict, *argv: str) -> str:
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert main([argv[0], str(cfg), *argv[1:]]) == 0
    return capsys.readouterr().out


def test_estimate_path_1d_bytes(tmp_path, capsys):
    assert _sha(_stdout(capsys, tmp_path, PATH_1D, "estimate")) == GOLDEN["estimate_path_1d"]


def test_estimate_and_bound_box_2d_bytes(tmp_path, capsys):
    assert _sha(_stdout(capsys, tmp_path, BOX_2D, "estimate")) == GOLDEN["estimate_box_2d"]
    assert _sha(_stdout(capsys, tmp_path, BOX_2D, "bound")) == GOLDEN["bound_box_2d"]


def test_estimate_l1_ball_2d_bytes(tmp_path, capsys):
    assert _sha(_stdout(capsys, tmp_path, L1_BALL_2D, "estimate")) == GOLDEN["estimate_l1_ball_2d"]


def test_estimate_and_bound_linf_masses_3d_bytes(tmp_path, capsys):
    assert _sha(_stdout(capsys, tmp_path, LINF_MASSES_3D, "estimate")) == GOLDEN["estimate_linf_masses_3d"]
    assert _sha(_stdout(capsys, tmp_path, LINF_MASSES_3D, "bound")) == GOLDEN["bound_linf_masses_3d"]


def _simulate_trace(capsys, tmp_path: Path, doc: dict) -> tuple[str, str]:
    """sha256 of `simulate --trace` stdout and of the trace file."""
    trace = tmp_path / "trace.csv"
    out = _stdout(capsys, tmp_path, doc, "simulate", "--trace", str(trace))
    return _sha(out), hashlib.sha256(trace.read_bytes()).hexdigest()


def test_simulate_trace_cycle_bytes(tmp_path, capsys):
    assert _simulate_trace(capsys, tmp_path, CYCLE_TRACE) == (
        GOLDEN["simulate_cycle_stdout"], GOLDEN["simulate_cycle_trace"])


def test_estimate_dissensus_bytes(tmp_path, capsys):
    for doc, key in ((CYCLE_DISSENSUS_1D, "estimate_cycle_dissensus_1d"),
                     (GRID_DISSENSUS_2D, "estimate_grid_dissensus_2d"),
                     (COMPLETE_DISSENSUS_3D, "estimate_complete_dissensus_3d")):
        assert _sha(_stdout(capsys, tmp_path, doc, "estimate")) == GOLDEN[key], key


def test_simulate_trace_grid_dissensus_bytes(tmp_path, capsys):
    assert _simulate_trace(capsys, tmp_path, GRID_DISSENSUS_2D) == (
        GOLDEN["simulate_grid_dissensus_stdout"], GOLDEN["simulate_grid_dissensus_trace"])


def test_simulate_trace_complete_dissensus_3d_bytes(tmp_path, capsys):
    # the one traced run in more than one dimension whose diameter comes from the
    # per-coordinate extremes (Linf); the 2-D l1 trace above scans pairs
    assert _simulate_trace(capsys, tmp_path, COMPLETE_DISSENSUS_3D) == (
        GOLDEN["simulate_complete_dissensus_3d_stdout"], GOLDEN["simulate_complete_dissensus_3d_trace"])


def test_check_invariants_bytes(capsys):
    assert main(["check-invariants", "--cases", "200", "--seed", "3"]) == 0
    assert _sha(capsys.readouterr().out) == GOLDEN["check_invariants_200_3"]
