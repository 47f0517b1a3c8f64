import copy
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hkc.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def write_config(tmp_path: Path, name="config.json", **overrides) -> str:
    doc = {
        "graph": {"kind": "path", "n": 2},
        "space": {"dim": 1, "norm": "l2", "shape": {"box": {"lo": [0.0], "hi": [1.0]}}},
        "init": "uniform",
        "tau": 0.8,
        "trials": 50,
        "seed": 12,
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_deterministic_per_seed(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code1, out1, _ = run_cli(capsys, "simulate", cfg)
    code2, out2, _ = run_cli(capsys, "simulate", cfg)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["consensus"] in (True, False)
    assert doc["classification"] == "T_eps_proxy"
    assert doc["trial_index"] == 0
    assert len(doc["final"]) == 2


def test_simulate_trace_csv(tmp_path, capsys):
    cfg = write_config(tmp_path)
    trace = tmp_path / "out.csv"
    code, out, _ = run_cli(capsys, "simulate", cfg, "--trace", str(trace))
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "event,time,vertex,x_center,max_pair_dist"
    events = json.loads(out)["events"]
    assert len(lines) == events + 1
    if events:
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) > 0.0


def test_simulate_cap_hit_still_exits_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, graph={"kind": "path", "n": 6}, tau=1.5, max_events=1)
    code, out, _ = run_cli(capsys, "simulate", cfg)
    assert code == 0
    doc = json.loads(out)
    assert doc["stopped"] is False
    assert doc["consensus"] is None


def test_malformed_json_exits_2_with_no_output(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, out, err = run_cli(capsys, "simulate", str(bad))
    assert code == 2
    assert out == ""
    assert "JSON" in err or "json" in err


def test_unknown_key_rejected_with_pointer(tmp_path, capsys):
    cfg = write_config(tmp_path, typo_key=1)
    code, out, err = run_cli(capsys, "estimate", cfg)
    assert code == 2
    assert out == ""
    assert "typo_key" in err


def test_bad_nested_key_pointer(tmp_path, capsys):
    cfg = write_config(tmp_path, space={"dim": 1, "norm": "l7", "shape": {"box": {"lo": [0.0], "hi": [1.0]}}})
    code, _, err = run_cli(capsys, "estimate", cfg)
    assert code == 2
    assert "space.norm" in err


def test_estimate_reports_bound_one_sixth(tmp_path, capsys):
    cfg = write_config(tmp_path, trials=100)
    code, out, _ = run_cli(capsys, "estimate", cfg)
    assert code == 0
    doc = json.loads(out)
    assert doc["bound_applicable"] is True
    assert abs(doc["bound"] - 1 / 6) < 1e-12
    assert doc["trials"] == 100
    assert doc["seed"] == 12


def test_estimate_bound_inapplicable_when_tau_small(tmp_path, capsys):
    cfg = write_config(tmp_path, tau=0.4, trials=20)
    code, out, _ = run_cli(capsys, "estimate", cfg)
    assert code == 0
    doc = json.loads(out)
    assert doc["bound"] is None
    assert doc["bound_applicable"] is False


def test_estimate_byte_identical_reruns_and_parallel(tmp_path, capsys):
    cfg = write_config(tmp_path, trials=120)
    _, out1, _ = run_cli(capsys, "estimate", cfg)
    _, out2, _ = run_cli(capsys, "estimate", cfg)
    _, out3, _ = run_cli(capsys, "estimate", cfg, "--parallel", "2")
    assert out1 == out2 == out3


def test_bound_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code, out, _ = run_cli(capsys, "bound", cfg)
    assert code == 0
    doc = json.loads(out)
    assert doc["tau"] == 0.8
    assert doc["rho"] == 0.5
    assert abs(doc["bound"] - 1 / 6) < 1e-12


def test_env_seed_override(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, trials=10)
    monkeypatch.setenv("HKC_SEED", "777")
    code, out, _ = run_cli(capsys, "estimate", cfg)
    assert code == 0
    assert json.loads(out)["seed"] == 777


@pytest.mark.parametrize("value", ["not-a-number", "-1", str(2**64)])
def test_bad_env_seed_names_hkc_seed(tmp_path, capsys, monkeypatch, value):
    # the config's own seed is fine; the error must blame the variable
    cfg = write_config(tmp_path, trials=10)
    monkeypatch.setenv("HKC_SEED", value)
    code, out, err = run_cli(capsys, "estimate", cfg)
    assert code == 2
    assert out == ""
    assert err.startswith("config error: HKC_SEED: ") and value in err


def test_graph_from_edge_list_file(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_text("# triangle\n0 1\n1 2\n2 0\n", encoding="utf-8")
    cfg = write_config(tmp_path, graph={"file": str(edges)}, trials=10)
    code, out, _ = run_cli(capsys, "estimate", cfg)
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["graph"]["vertices"] == 3
    assert doc["params"]["graph"]["edges"] == 3


def test_graph_file_with_self_loop_exits_2(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n1 1\n", encoding="utf-8")
    cfg = write_config(tmp_path, graph={"file": str(edges)})
    code, _, err = run_cli(capsys, "estimate", cfg)
    assert code == 2
    assert "self-loop" in err


def test_point_masses_config(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        init={"point_masses": [{"point": [0.25], "prob": 0.5}, {"point": [0.75], "prob": 0.5}]},
        trials=30,
    )
    code, out, _ = run_cli(capsys, "estimate", cfg)
    assert code == 0
    doc = json.loads(out)
    assert doc["p_hat"] == 1.0  # distance 0 or 0.5 <= tau: always merges


def test_erdos_renyi_config_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, graph={"kind": "erdos_renyi", "n": 8, "p": 0.5}, trials=10)
    _, out1, _ = run_cli(capsys, "estimate", cfg)
    _, out2, _ = run_cli(capsys, "estimate", cfg)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["params"]["graph"]["kind"] == "erdos_renyi"
    assert doc["params"]["graph"]["vertices"] == 8


def test_check_invariants_passes(capsys):
    code, out, _ = run_cli(capsys, "check-invariants", "--cases", "50", "--seed", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["max_drift"] <= 1e-9


def test_check_invariants_rejects_zero_cases(capsys):
    code, _, err = run_cli(capsys, "check-invariants", "--cases", "0")
    assert code == 2
    assert "cases" in err


def test_check_invariants_violation_exits_1(capsys, monkeypatch):
    # a positive drift cannot occur with a correct engine; fake one to pin the
    # exit-code contract
    import hkc.cli as cli_mod

    fake = {
        "cases": 1,
        "points_checked": 1,
        "max_drift": 0.5,
        "tolerance": 1e-9,
        "status": "fail",
        "failure": {"vertices": 2, "edges": [[0, 1]], "drift": 0.5},
    }
    monkeypatch.setattr(cli_mod, "run_drift_check", lambda cases, seed: fake)
    code, out, _ = run_cli(capsys, "check-invariants", "--cases", "5")
    assert code == 1
    assert json.loads(out)["status"] == "fail"


def test_alpha_flows_from_config(tmp_path, capsys):
    cfg = write_config(tmp_path, alpha=0.5, trials=10)
    code, out, _ = run_cli(capsys, "estimate", cfg)
    assert code == 0
    assert json.loads(out)["params"]["alpha"] == 0.5


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_missing_required_config_key(tmp_path, capsys):
    doc = {"graph": {"kind": "path", "n": 2}}
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(capsys, "estimate", str(path))
    assert code == 2
    assert "missing required key" in err


def test_unwritable_trace_path_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    trace = tmp_path / "missing-dir" / "t.csv"
    code, out, err = run_cli(capsys, "simulate", cfg, "--trace", str(trace))
    assert code == 2
    assert out == ""
    assert "--trace" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "shape",
    [
        {"ball": {"center": [0.0], "radius": 1e308}},
        {"box": {"lo": [-1e308], "hi": [1e308]}},
        {"box": {"lo": [-1e200], "hi": [1e200]}},  # finite width, but its L2 square overflows
    ],
)
def test_shape_overflowing_float64_exits_2(tmp_path, capsys, shape):
    cfg = write_config(tmp_path, space={"dim": 1, "norm": "l2", "shape": shape})
    code, out, err = run_cli(capsys, "estimate", cfg)
    assert code == 2
    assert out == ""
    assert "space" in err and "overflows" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("norm", ["l1", "linf"])
def test_box_midpoint_overflow_exits_2(tmp_path, capsys, norm):
    # hi - lo is finite under these norms, but lo + hi overflows, so the midpoint is inf
    shape = {"box": {"lo": [1e308], "hi": [1.7e308]}}
    cfg = write_config(tmp_path, space={"dim": 1, "norm": norm, "shape": shape})
    code, out, err = run_cli(capsys, "bound", cfg)
    assert code == 2
    assert out == ""
    assert err == "config error: space: center must lie inside the shape\n"


def test_alpha_one_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, alpha=1.0, max_events=2000, trials=3)
    code, out, err = run_cli(capsys, "estimate", cfg)
    assert code == 2
    assert out == ""
    assert "alpha" in err


@pytest.mark.parametrize(
    "literal", ["1e309", "Infinity", "NaN", pytest.param("1" + "0" * 400, id="integer-1e400")]
)
@pytest.mark.parametrize("command", ["estimate", "simulate", "bound"])
def test_non_finite_number_exits_2(tmp_path, capsys, command, literal):
    # json reads 1e309 and Infinity as inf; the run must not reach rendering
    cfg = Path(write_config(tmp_path, tau="TAU", eps_prime=0.1))
    cfg.write_text(cfg.read_text(encoding="utf-8").replace('"TAU"', literal), encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(cfg))
    assert code == 2
    assert out == ""
    assert "tau: expected a finite number, got " in err
    assert "Traceback" not in err


def test_python_dash_m_runs_the_cli(tmp_path, capsys):
    cfg = write_config(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "hkc", "bound", cfg],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run_cli(capsys, "bound", cfg)
    assert code == 0
    assert proc.stdout == out


@pytest.mark.parametrize(
    "point, message",
    [
        ([0.2, 0.3], "init.point_masses: atom (0.2, 0.3) does not match space dimension 1"),
        ([2.0], "init.point_masses: atom (2.0,) lies outside the opinion shape"),
    ],
)
def test_bad_init_atom_names_point_masses(tmp_path, capsys, point, message):
    init = {"point_masses": [{"point": [0.5], "prob": 0.5}, {"point": point, "prob": 0.5}]}
    code, out, err = run_cli(capsys, "bound", write_config(tmp_path, init=init))
    assert code == 2
    assert out == ""
    assert err == f"config error: {message}\n"


@pytest.mark.parametrize("kind", ["torus", 3, [], {}, None])
def test_unknown_graph_kind_exits_2(tmp_path, capsys, kind):
    code, _, err = run_cli(capsys, "bound", write_config(tmp_path, graph={"kind": kind, "n": 4}))
    assert code == 2
    assert err == f"config error: graph.kind: unknown kind {kind!r}\n"


FUZZ_BASES = [
    {
        "graph": {"kind": "path", "n": 4},
        "space": {"dim": 1, "norm": "l2", "shape": {"box": {"lo": [0.0], "hi": [1.0]}}},
        "init": {"point_masses": [{"point": [0.25], "prob": 0.5}, {"point": [0.75], "prob": 0.5}]},
        "tau": 0.8,
        "alpha": 0.25,
        "eps_prime": 0.01,
        "max_events": 1000,
        "trials": 5,
        "seed": 9,
    },
    {
        "graph": {"kind": "path", "n": 4},
        "space": {"dim": 1, "norm": "linf", "shape": {"ball": {"center": [0.5], "radius": 0.5}}},
        "init": "uniform",
        "tau": 0.8,
        "trials": 5,
        "seed": 9,
    },
]

# never a large valid integer: it would be accepted, and n, w or h would allocate
FUZZ_VALUES = ["x", True, False, None, [], {}, -1, 0, 0.5, [0.5], {"a": 1}]


def _paths(node, prefix=()):
    """Every key path and list index below node, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutants(base, rng):
    """(label, config) pairs: each value at each path, each key deleted, one
    unknown key added to each object, then random pairs of substitutions
    (the deeper path first, so a replaced parent cannot hide it)."""
    paths = list(_paths(base))
    for path in paths:
        for value in FUZZ_VALUES:
            doc = copy.deepcopy(base)
            _node(doc, path[:-1])[path[-1]] = value
            yield f"{path} = {value!r}", doc
        if isinstance(path[-1], str):
            doc = copy.deepcopy(base)
            del _node(doc, path[:-1])[path[-1]]
            yield f"del {path}", doc
    for path in [()] + paths:
        doc = copy.deepcopy(base)
        target = _node(doc, path)
        if isinstance(target, dict):
            target["zz_unknown"] = 1
            yield f"{path} + zz_unknown", doc
    for _ in range(200):
        doc = copy.deepcopy(base)
        picks = rng.sample(paths, 2)
        for path in sorted(picks, key=len, reverse=True):
            _node(doc, path[:-1])[path[-1]] = rng.choice(FUZZ_VALUES)
        yield f"random {picks}", doc


POINTER = re.compile(r"[A-Za-z_][\w.\[\]/-]*")
# mutants whose rejection must name exactly this key
EXPECTED_POINTER = {"('tau',) = 0": "tau", "('tau',) = -1": "tau", "('alpha',) = -1": "alpha"}


def test_config_fuzz_exits_0_or_2_with_one_pointer(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("HKC_SEED", raising=False)
    rng = random.Random(20240605)
    cfg = tmp_path / "fuzz.json"
    rejected = 0
    pinned = set()
    for base in FUZZ_BASES:
        for label, doc in _mutants(base, rng):
            cfg.write_text(json.dumps(doc), encoding="utf-8")
            code, out, err = run_cli(capsys, "bound", str(cfg))
            assert code in (0, 2), label
            if code == 0:
                assert json.loads(out)["tau"] == doc["tau"], label
                continue
            rejected += 1
            assert out == "", label
            assert "Traceback" not in err, label
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("config error: "), (label, err)
            head, _, rest = lines[0][len("config error: "):].partition(": ")
            assert POINTER.fullmatch(head) and rest, (label, err)
            if label in EXPECTED_POINTER:
                assert head == EXPECTED_POINTER[label], (label, err)
                pinned.add(label)
            # the message after the pointer does not start with a second pointer
            nested = POINTER.match(rest)
            assert not (nested and rest[nested.end():].startswith(": ")), (label, err)
    assert rejected > 500
    assert pinned == set(EXPECTED_POINTER)
