import json
from pathlib import Path

import pytest

from hkc.cli import main


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
    monkeypatch.setenv("HKC_SEED", "not-a-number")
    code, _, err = run_cli(capsys, "estimate", cfg)
    assert code == 2
    assert "HKC_SEED" in err


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
