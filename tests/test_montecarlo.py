import concurrent.futures
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.stats import binomtest

from hkc.dynamics import ModelParams, default_stopping
from hkc import montecarlo
from hkc.graph import path
from hkc.montecarlo import (
    ExperimentSpec,
    run_estimate,
    run_single_trial,
    trial_outcomes,
    wilson_interval,
)
from hkc.render import to_json
from hkc.space import Box, Norm, OpinionSpace, UniformShape


def two_vertex_spec(tau=0.5, trials=2000, seed=0, max_events=None, alpha=0.0):
    g = path(2)
    space = OpinionSpace(Box((0.0,), (1.0,)), Norm.L2)
    params = ModelParams(tau=tau, alpha=alpha)
    kwargs = {} if max_events is None else {"max_events": max_events}
    stopping = default_stopping(g, space, params, **kwargs)
    return ExperimentSpec(
        graph=g,
        space=space,
        init=UniformShape(),
        params=params,
        stopping=stopping,
        trials=trials,
        master_seed=seed,
        graph_info={"kind": "path", "n": 2},
    )


def test_trials_limit():
    assert two_vertex_spec(trials=montecarlo.MAX_TRIALS).trials == montecarlo.MAX_TRIALS
    for trials in (0, montecarlo.MAX_TRIALS + 1, 2**64):
        with pytest.raises(ValueError, match=rf"^trials must be in \[1, {montecarlo.MAX_TRIALS}\], got {trials}$"):
            two_vertex_spec(trials=trials)


def test_wilson_interval_against_scipy():
    for k, n in [(0, 10), (3, 10), (75, 100), (1500, 2000), (10, 10)]:
        lo, hi = wilson_interval(k, n)
        ref = binomtest(k, n).proportion_ci(confidence_level=0.95, method="wilson")
        assert lo == pytest.approx(ref.low, abs=2e-4)
        assert hi == pytest.approx(ref.high, abs=2e-4)
        assert 0.0 <= lo <= k / n <= hi <= 1.0


def test_wilson_interval_validation():
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(11, 10)


def test_single_frozen_trial_reports_zero_estimate():
    # master seed 6: trial 0 draws a pair at distance > tau = 0.3, so it freezes
    spec = two_vertex_spec(tau=0.3, trials=1, seed=6)
    out = run_single_trial(spec, 0)
    assert out.stopped and out.events == 0 and out.consensus is False
    report = run_estimate(spec)
    assert report.p_hat == 0.0
    assert report.consensus_count == 0
    assert report.bound_applicable is False  # tau = 0.3 <= rho = 0.5
    assert report.bound is None


def test_two_vertex_law_matches_exact_probability():
    # P(consensus) = 1 - (1 - tau)^2 = 0.75 at tau = 0.5
    spec = two_vertex_spec(tau=0.5, trials=2000, seed=1)
    report = run_estimate(spec)
    assert report.undetermined_count == 0
    half_width = 1.96 * math.sqrt(0.75 * 0.25 / 2000)
    assert abs(report.p_hat - 0.75) <= half_width
    assert report.ci_low <= 0.75 <= report.ci_high


def test_report_identical_across_parallelism():
    spec = two_vertex_spec(tau=0.5, trials=300, seed=3)
    texts = {to_json(run_estimate(spec, parallelism=k).to_json_dict()) for k in (1, 2, 4)}
    assert len(texts) == 1


def test_report_reproducible_across_runs():
    spec = two_vertex_spec(tau=0.8, trials=200, seed=9)
    a = to_json(run_estimate(spec).to_json_dict())
    b = to_json(run_estimate(spec).to_json_dict())
    assert a == b


def test_trial_outcomes_order_matches_single_runs():
    spec = two_vertex_spec(tau=0.5, trials=20, seed=5)
    outs = trial_outcomes(spec, parallelism=2)
    for i in (0, 7, 19):
        solo = run_single_trial(spec, i)
        assert solo.events == outs[i].events
        assert solo.stop_time == outs[i].stop_time
        assert solo.consensus == outs[i].consensus


@pytest.mark.parametrize(
    "cpus, parallelism, workers",
    [(64, 5000, 10), (2, 5000, 2), (64, 3, 3), (None, 4, 1), (1, 8, 1)],
)
def test_pool_capped_by_chunks_and_cpus(monkeypatch, cpus, parallelism, workers):
    # a fake pool records max_workers and maps in-process, so no process starts; where
    # the cap leaves one worker, no pool starts and the trials run in-process
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    spec = two_vertex_spec(tau=0.5, trials=10, seed=5)  # 10 one-trial chunks at parallelism >= 3
    outs = trial_outcomes(spec, parallelism)
    assert started == ([workers] if workers > 1 else [])
    assert [(o.events, o.stop_time, o.consensus) for o in outs] == [
        (o.events, o.stop_time, o.consensus) for o in trial_outcomes(spec)
    ]


def test_parallelism_below_one_is_rejected():
    with pytest.raises(ValueError, match="parallelism must be >= 1"):
        trial_outcomes(two_vertex_spec(trials=2), 0)


def test_cli_import_loads_no_process_pool():
    # a serial run never starts a pool, so importing the CLI imports none of its machinery
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, hkc.cli; print([m for m in sys.modules if m.startswith(('concurrent', 'multiprocessing'))])"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_wilson_coverage_over_repeated_experiments():
    # true consensus probability of the two-vertex experiment is 0.75
    covered = 0
    for rep in range(100):
        spec = two_vertex_spec(tau=0.5, trials=200, seed=10_000 + rep)
        report = run_estimate(spec)
        if report.ci_low <= 0.75 <= report.ci_high:
            covered += 1
    assert covered >= 90


def test_undetermined_trials_flagged_and_excluded():
    # a long path with tau covering the whole interval needs many events; a
    # 1-event cap leaves most trials undetermined
    g = path(6)
    space = OpinionSpace(Box((0.0,), (1.0,)), Norm.L2)
    params = ModelParams(tau=1.5)
    stopping = default_stopping(g, space, params, max_events=1)
    spec = ExperimentSpec(
        graph=g,
        space=space,
        init=UniformShape(),
        params=params,
        stopping=stopping,
        trials=40,
        master_seed=2,
    )
    report = run_estimate(spec)
    assert report.undetermined_count > 2
    assert report.undetermined_warning is True
    determined = report.trials - report.undetermined_count
    if determined:
        assert report.p_hat == report.consensus_count / determined
    else:
        assert report.p_hat is None


def test_report_consistency_invariants():
    spec = two_vertex_spec(tau=0.8, trials=500, seed=11)
    report = run_estimate(spec)
    assert report.consensus_count <= report.trials
    assert report.ci_low <= report.p_hat <= report.ci_high
    assert report.p_hat == report.consensus_count / (report.trials - report.undetermined_count)
    assert report.bound == pytest.approx(1 / 6, abs=1e-12)  # (4 tau - 3) / (4 tau - 2) at 0.8
    assert report.event_A_applicable is True
    assert 0 <= report.event_A_and_consensus_count <= report.event_A_count
    assert report.mean_events <= 2.0  # two-vertex trials stop within one event
    d = report.to_json_dict()
    assert d["classification"] == "T_eps_proxy"
    assert d["params"]["graph"]["kind"] == "path"
    assert d["seed"] == 11


def test_spec_validation():
    with pytest.raises(ValueError):
        two_vertex_spec(trials=0)
    with pytest.raises(ValueError):
        two_vertex_spec(seed=-1)
