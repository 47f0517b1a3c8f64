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
from hkc.config import ConfigError, build_experiment
from hkc.invariants import MAX_CASES
from hkc.montecarlo import MAX_TRIALS

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


@pytest.mark.parametrize("norm", [5, "l3"])
def test_unknown_norm_message(tmp_path, capsys, norm):
    space = {"dim": 1, "norm": norm, "shape": {"box": {"lo": [0.0], "hi": [1.0]}}}
    code, out, err = run_cli(capsys, "bound", write_config(tmp_path, space=space))
    assert code == 2
    assert out == ""
    assert err == f"config error: space.norm: unknown norm {norm!r}; expected one of l1, l2, linf\n"


def test_norm_name_is_case_insensitive(tmp_path, capsys):
    space = {"dim": 1, "norm": "L2", "shape": {"box": {"lo": [0.0], "hi": [1.0]}}}
    code, out, _ = run_cli(capsys, "bound", write_config(tmp_path, space=space))
    assert code == 0
    assert json.loads(out)["rho"] == 0.5


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


def test_non_utf8_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe" + json.dumps({"tau": 0.8}).encode("utf-16-le"))
    code, out, err = run_cli(capsys, "bound", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith(f"config error: cannot read config {str(bad)!r}: ")
    assert err.count("\n") == 1


def test_non_utf8_graph_file_exits_2(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_bytes(b"0 1\n1 2\xff\n")
    cfg = write_config(tmp_path, graph={"file": str(edges)})
    code, out, err = run_cli(capsys, "bound", cfg)
    assert code == 2
    assert out == ""
    assert err.startswith(f"config error: graph.file: cannot read {str(edges)!r}: ")
    assert err.count("\n") == 1


def test_deeply_nested_config_exits_2(tmp_path, capsys):
    # json.loads raises RecursionError, not ValueError, past the recursion limit
    cfg = tmp_path / "deep.json"
    cfg.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    code, out, err = run_cli(capsys, "bound", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith(f"config error: config {str(cfg)!r} is not valid JSON: ")
    assert err.count("\n") == 1


def test_graph_file_with_null_byte_exits_2(tmp_path, capsys):
    # Path.read_text raises ValueError, not OSError, for a path with a null byte
    cfg = write_config(tmp_path, graph={"file": "edges\u0000.txt"})
    code, out, err = run_cli(capsys, "bound", cfg)
    assert code == 2
    assert out == ""
    assert err.startswith("config error: graph.file: cannot read 'edges\\x00.txt': ")
    assert err.count("\n") == 1


def test_parallel_zero_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "estimate", write_config(tmp_path), "--parallel", "0")
    assert (code, out, err) == (2, "", "config error: --parallel must be >= 1, got 0\n")


@pytest.mark.parametrize("p", [0, 1.5])
def test_erdos_renyi_p_out_of_range_exits_2(tmp_path, capsys, p):
    cfg = write_config(tmp_path, graph={"kind": "erdos_renyi", "n": 5, "p": p})
    code, out, err = run_cli(capsys, "bound", cfg)
    assert (code, out, err) == (2, "", f"config error: graph: erdos_renyi needs 0 < p <= 1, got {float(p)}\n")


def test_box_lo_hi_dimension_mismatch_exits_2(tmp_path, capsys):
    space = {"dim": 1, "norm": "l2", "shape": {"box": {"lo": [0.0], "hi": [1.0, 1.0]}}}
    code, out, err = run_cli(capsys, "bound", write_config(tmp_path, space=space))
    assert (code, out, err) == (2, "", "config error: space.shape.box: box lo and hi must have the same dimension\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 1 2\n", "line 1: expected two vertex ids, got '0 1 2'"),
        ("0 -1\n", "line 1: vertex ids must be nonnegative, got '0 -1'"),
        ("# a comment\n\n# another\n", "edge list contains no edges"),
    ],
    ids=["three-ids", "negative-id", "comments-only"],
)
def test_bad_edge_list_exits_2(tmp_path, capsys, text, message):
    edges = tmp_path / "edges.txt"
    edges.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "bound", write_config(tmp_path, graph={"file": str(edges)}))
    assert (code, out, err) == (2, "", f"config error: graph.file: {message}\n")


def test_graph_file_not_a_string_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "bound", write_config(tmp_path, graph={"file": 5}))
    assert (code, out, err) == (2, "", "config error: graph.file: expected a file path string\n")


@pytest.mark.parametrize(
    "old, new, key",
    [
        ('"seed": 12}', '"seed": 12, "tau": 0.9}', "tau"),  # bound would run with tau 0.9
        ('"n": 2}', '"n": 2, "n": 3}', "n"),  # inside graph
    ],
    ids=["top", "graph"],
)
def test_duplicate_config_key_exits_2(tmp_path, capsys, old, new, key):
    cfg = Path(write_config(tmp_path))
    text = cfg.read_text(encoding="utf-8")
    assert text.count(old) == 1
    cfg.write_text(text.replace(old, new), encoding="utf-8")
    code, out, err = run_cli(capsys, "bound", str(cfg))
    assert code == 2
    assert out == ""
    assert err == f"config error: config {str(cfg)!r} is not valid JSON: duplicate key {key!r}\n"


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


@pytest.mark.parametrize("cases", [MAX_CASES + 1, 10**12])
def test_check_invariants_cases_are_bounded(capsys, monkeypatch, cases):
    # checked before any case runs: 10**12 cases would take years
    import hkc.cli as cli_mod

    def never(cases, seed):
        raise AssertionError("run_drift_check called")

    monkeypatch.setattr(cli_mod, "run_drift_check", never)
    code, out, err = run_cli(capsys, "check-invariants", "--cases", str(cases))
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"config error: --cases must be in [1, {MAX_CASES}], got {cases}"]


def test_check_invariants_cases_limit_is_accepted(capsys, monkeypatch):
    import hkc.cli as cli_mod

    calls = []
    monkeypatch.setattr(cli_mod, "run_drift_check", lambda cases, seed: calls.append(cases) or {"status": "pass"})
    code, _, _ = run_cli(capsys, "check-invariants", "--cases", str(MAX_CASES))
    assert code == 0 and calls == [MAX_CASES]


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


@pytest.mark.parametrize("fail_at", [1, 4])  # the header line, or a row written from on_event
def test_trace_write_error_exits_2(tmp_path, capsys, monkeypatch, fail_at):
    # a full disk (`--trace /dev/full`) fails a write or the final flush, not the open
    import hkc.cli

    cfg = write_config(tmp_path, graph={"kind": "path", "n": 6})
    real_open = open
    writes = []

    class FullFile:
        def __init__(self, *args, **kwargs):
            self._fh = real_open(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

        def write(self, text):
            writes.append(text)
            if len(writes) >= fail_at:
                raise OSError(28, "No space left on device")
            return self._fh.write(text)

    monkeypatch.setattr(hkc.cli, "open", FullFile, raising=False)
    code, out, err = run_cli(capsys, "simulate", cfg, "--trace", str(tmp_path / "t.csv"))
    assert len(writes) == fail_at
    assert code == 2
    assert out == ""
    assert "--trace: cannot write" in err and "No space left on device" in err


@pytest.mark.parametrize(
    "fail_at, error",
    [
        ("flush", OSError(28, "No space left on device")),  # `> /dev/full`: the flush fails
        ("write", BrokenPipeError(32, "Broken pipe")),  # `| head -1`: the reader has gone
    ],
    ids=["full", "closed-pipe"],
)
@pytest.mark.parametrize("command", ["estimate", "bound", "simulate", "check-invariants"])
def test_unwritable_stdout_exits_2(tmp_path, capsys, monkeypatch, command, fail_at, error):
    argv = ["check-invariants", "--cases", "5"] if command == "check-invariants" else [
        command, write_config(tmp_path, trials=3)
    ]
    with open(tmp_path / "stdout", "w") as target:

        class Unwritable:
            def write(self, text):
                if fail_at == "write":
                    raise error
                return len(text)

            def flush(self):
                raise error

            def fileno(self):
                return target.fileno()

        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", Unwritable())
            code = main(argv)
        # the descriptor now points at devnull, so no later flush can fail again
        assert os.path.samestat(os.fstat(target.fileno()), os.stat(os.devnull))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"cannot write output: {error}\n"


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


def test_trials_are_bounded(tmp_path, capsys):
    # 2**64 trials were accepted and a serial estimate never ended; only build and
    # `bound` run here, since an estimate of an accepted count this large would not end
    doc = json.loads(Path(write_config(tmp_path)).read_text(encoding="utf-8"))
    assert build_experiment({**doc, "trials": MAX_TRIALS}).trials == MAX_TRIALS
    for trials in (2**64, MAX_TRIALS + 1):
        with pytest.raises(ConfigError, match=rf"^trials: must be in \[1, {MAX_TRIALS}\], got {trials}$"):
            build_experiment({**doc, "trials": trials})
    code, out, err = run_cli(capsys, "bound", write_config(tmp_path, trials=18446744073709551616))
    assert (code, out) == (2, "")
    assert err.startswith("config error: trials: ") and err.count("\n") == 1 and err.endswith("\n")


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


@pytest.mark.parametrize(
    "overrides, label",
    [
        # 1 - 2**-53: an update toward a neighbor eps away rounds back to the old opinion
        ({"alpha": 0.9999999999999999}, "alpha: (1 - alpha) * eps / dim = "),
        ({"alpha": 0.5, "tau": 0.5000000000000002}, "tau: eps = eps_prime / vertex_count = "),
    ],
)
def test_stop_floors_name_the_input_that_fails_them(tmp_path, capsys, overrides, label):
    cfg = write_config(tmp_path, seed=7, max_events=200_000, trials=3, **overrides)
    code, out, err = run_cli(capsys, "estimate", cfg)
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: {label}") and err.count("\n") == 1, err


@pytest.mark.parametrize("init", ["UNIFORM", 5, ["uniform"]])
def test_bad_init_names_the_accepted_forms(tmp_path, capsys, init):
    code, out, err = run_cli(capsys, "bound", write_config(tmp_path, init=init))
    assert code == 2
    assert out == ""
    assert err == f'config error: init: expected "uniform" or {{"point_masses": [...]}}, got {init!r}\n'


TINY_BOX = {"dim": 1, "norm": "l1", "shape": {"box": {"lo": [0.0], "hi": [1e-200]}}}
TINY_BALL = {"dim": 2, "norm": "l2", "shape": {"ball": {"center": [0.0, 0.0], "radius": 1e-15}}}
UNIT_BALL = {"dim": 2, "norm": "l2", "shape": {"ball": {"center": [0.0, 0.0], "radius": 1.0}}}


@pytest.mark.parametrize(
    "space, tau, point, code",
    [
        # about 1e13 box widths outside; once accepted, it gave event A on trials without consensus
        (TINY_BOX, 1e-200, [1e-13], 2),
        (TINY_BALL, 1e-15, [5e-13, 0.0], 2),
        (UNIT_BALL, 0.5, [0.6, 0.8], 0),  # on the sphere
    ],
)
def test_atom_outside_a_tiny_shape_exits_2(tmp_path, capsys, space, tau, point, code):
    dim = space["dim"]
    init = {"point_masses": [{"point": [0.0] * dim, "prob": 0.5}, {"point": point, "prob": 0.5}]}
    cfg = write_config(tmp_path, graph={"kind": "path", "n": 3}, space=space, init=init, tau=tau, trials=3)
    got, out, err = run_cli(capsys, "estimate", cfg)
    assert got == code
    if code:
        assert out == ""
        assert err == f"config error: init.point_masses: atom {tuple(point)} lies outside the opinion shape\n"


L2_FLOOR_ERROR = (
    "config error: space: shape extent is below 1e-100 under the l2 norm, which squares "
    "coordinate differences; rescale the shape and tau together\n"
)


@pytest.mark.parametrize(
    "command, dim, norm, code",
    [
        # once accepted: every l2 distance read 0.0, so all trials reached consensus with tau below the radius
        ("estimate", 2, "l2", 2),
        ("bound", 1, "l2", 2),
        ("bound", 1, "l1", 0),  # l1 and linf distances do not square, so they stay exact
    ],
)
def test_l2_shape_below_floor_exits_2(tmp_path, capsys, command, dim, norm, code):
    space = {"dim": dim, "norm": norm, "shape": {"box": {"lo": [0.0] * dim, "hi": [1e-200] * dim}}}
    cfg = write_config(tmp_path, graph={"kind": "path", "n": 3}, space=space, tau=3e-201, trials=20)
    got, out, err = run_cli(capsys, command, cfg)
    assert got == code
    if code:
        assert (out, err) == ("", L2_FLOOR_ERROR)


@pytest.mark.parametrize("kind", ["torus", 3, [], {}, None])
def test_unknown_graph_kind_exits_2(tmp_path, capsys, kind):
    code, _, err = run_cli(capsys, "bound", write_config(tmp_path, graph={"kind": kind, "n": 4}))
    assert code == 2
    assert err == f"config error: graph.kind: unknown kind {kind!r}\n"


@pytest.mark.parametrize(
    "graph", [{"kind": "path", "n": 100_001}, {"kind": "complete", "n": 20_000}]
)
def test_graph_over_size_limit_exits_2(tmp_path, capsys, graph):
    # checked from the parameters: neither graph is built
    code, out, err = run_cli(capsys, "bound", write_config(tmp_path, graph=graph))
    assert code == 2
    assert out == ""
    assert err.startswith("config error: graph: ") and "over the limit" in err


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
