"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with `pytest -s` to see the lines as they complete).
"""

import math
import random
import time

import numpy as np
import pytest

from hkc.cli import main
from hkc.dynamics import ModelParams, TrialEngine, default_stopping
from hkc.graph import complete, cycle, path
from hkc.invariants import drift_case_batch, generator_drift
from hkc.montecarlo import ExperimentSpec, reduce_outcomes, run_estimate, trial_outcomes
from hkc.render import to_json
from hkc.space import Ball, Box, Norm, OpinionSpace, UniformShape, distance_fn, expected_center_distance
from hkc.seeding import trial_rng
from oracles import agreement_components, apply_update, compatibility, total_disagreement

UNIT_INTERVAL = OpinionSpace(Box((0.0,), (1.0,)), Norm.L2)
PARALLELISM = 2


def report_line(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def make_spec(g, tau, trials, seed, graph_info=None, space=UNIT_INTERVAL):
    params = ModelParams(tau=tau, alpha=0.0)
    return ExperimentSpec(
        graph=g,
        space=space,
        init=UniformShape(),
        params=params,
        stopping=default_stopping(g, space, params),
        trials=trials,
        master_seed=seed,
        graph_info=graph_info or {},
    )


@pytest.fixture(scope="module")
def two_vertex_runs():
    runs = {}
    t0 = time.perf_counter()
    for tau, seed in ((0.5, 101), (0.8, 102)):
        spec = make_spec(path(2), tau, trials=2000, seed=seed, graph_info={"kind": "path", "n": 2})
        runs[tau] = run_estimate(spec, parallelism=PARALLELISM)
    runs["elapsed"] = time.perf_counter() - t0
    return runs


@pytest.fixture(scope="module")
def bound_runs():
    graphs = {
        "path(8)": (path(8), {"kind": "path", "n": 8}),
        "cycle(8)": (cycle(8), {"kind": "cycle", "n": 8}),
        "complete(6)": (complete(6), {"kind": "complete", "n": 6}),
    }
    out = {}
    t0 = time.perf_counter()
    for name, (g, info) in graphs.items():
        spec = make_spec(g, tau=0.8, trials=1000, seed=202, graph_info=info)
        outcomes = trial_outcomes(spec, parallelism=PARALLELISM)
        out[name] = (spec, outcomes, reduce_outcomes(spec, outcomes))
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_01_two_vertex_exact_law(two_vertex_runs):
    details = []
    ok = two_vertex_runs["elapsed"] < 5.0
    details.append(f"runtime {two_vertex_runs['elapsed']:.2f}s < 5s: {ok}")
    for tau, truth in ((0.5, 0.75), (0.8, 0.96)):
        report = two_vertex_runs[tau]
        half_width = (report.ci_high - report.ci_low) / 2
        err = abs(report.p_hat - truth)
        details.append(f"tau={tau}: |p_hat-{truth}|={err:.4f} vs 3hw={3 * half_width:.4f}")
        ok = ok and err <= 3 * half_width
    report_line("C1 two-vertex exact law", ok, "; ".join(details))


def test_criterion_02_bound_respected(bound_runs):
    ok = bound_runs["elapsed"] < 120.0
    details = [f"runtime {bound_runs['elapsed']:.1f}s < 120s: {ok}"]
    for name in ("path(8)", "cycle(8)", "complete(6)"):
        _, _, report = bound_runs[name]
        assert abs(report.bound - 1 / 6) < 1e-12
        details.append(f"{name}: ci_high={report.ci_high:.4f} >= {1 / 6:.4f}")
        ok = ok and report.ci_high >= 1 / 6
    report_line("C2 consensus bound respected", ok, "; ".join(details))


def test_criterion_03_drift_nonpositive(capsys):
    t0 = time.perf_counter()
    code = main(["check-invariants", "--cases", "1000", "--seed", "1"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    with capsys.disabled():
        ok = code == 0 and elapsed < 30.0
        report_line(
            "C3 generator drift nonpositive",
            ok,
            f"exit={code}, runtime {elapsed:.1f}s < 30s, output={'pass' in out}",
        )


def test_criterion_04_drift_matches_sampler():
    rng = random.Random(407)
    np_rng = np.random.default_rng(407)
    checked = 0
    worst_sigma = 0.0
    while checked < 100:
        case = drift_case_batch(rng, max_vertices=10)[0]
        config, g, tau, norm, c = case.opinions, case.graph, case.tau, case.norm, case.c
        view = compatibility(config, g, tau, norm)
        total = sum(map(len, view))
        if total == 0:
            continue
        checked += 1
        base = total_disagreement(config, c, norm)
        active = [x for x in range(g.vertex_count) if view[x]]
        deltas = np.array(
            [total_disagreement(apply_update(config, view, x, 0.0), c, norm) - base for x in active]
        )
        exact = generator_drift(config, g, tau, norm, c)
        # exact identity: the generator is the rate-weighted sum of one-step changes
        rates = np.array([len(view[x]) for x in active], float)
        assert abs(float(rates @ deltas) - exact) < 1e-10
        probs = rates / total
        draws = 10_000
        counts = np_rng.multinomial(draws, probs)
        mean = float(counts @ deltas) / draws
        var = float(counts @ (deltas - mean) ** 2) / (draws - 1)
        se = total * math.sqrt(var / draws)
        estimate = total * mean
        gap = abs(estimate - exact)
        if se > 0:
            worst_sigma = max(worst_sigma, gap / se)
        assert gap <= 3 * se + 1e-12
    report_line(
        "C4 drift/sampler agreement", True, f"100 configs, worst |gap| = {worst_sigma:.2f} se <= 3 se"
    )


def test_criterion_05_expected_distance_closed_form():
    details = []
    ok = True
    rng = np.random.default_rng(505)
    for n, r in ((1, 0.5), (2, 1.0), (3, 1.0)):
        for norm in Norm:
            space = OpinionSpace(Ball((0.0,) * n, r), norm)
            closed = expected_center_distance(UniformShape(), space)
            assert closed == n * r / (n + 1)
            # independent vectorized oracle: rejection sampling from the box
            need = 1_000_000
            totals = []
            got = 0
            while got < need:
                cand = rng.uniform(-r, r, size=(2_000_000, n))
                if norm is Norm.L1:
                    dist_arr = np.abs(cand).sum(axis=1)
                elif norm is Norm.L2:
                    dist_arr = np.sqrt((cand * cand).sum(axis=1))
                else:
                    dist_arr = np.abs(cand).max(axis=1)
                keep = dist_arr[dist_arr <= r]
                take = keep[: need - got]
                totals.append(take.sum())
                got += len(take)
            mc = sum(totals) / need
            rel = abs(mc - closed) / closed
            ok = ok and rel < 0.01
            details.append(f"n={n},r={r},{norm.value}: rel={rel:.4f}")
    report_line("C5 closed-form center distance", ok, "; ".join(details))


def test_criterion_06_stopping_structure(bound_runs):
    violations = 0
    trials_seen = 0
    for name in ("path(8)", "cycle(8)", "complete(6)"):
        spec, outcomes, _ = bound_runs[name]
        eps = spec.stopping.eps
        tau = spec.params.tau
        norm = spec.space.norm
        distance = distance_fn(norm)
        n = spec.graph.vertex_count
        for out in outcomes:
            if not out.stopped:
                continue
            trials_seen += 1
            ops = out.final.opinions.tolist()
            for u, v in spec.graph.edges():
                d = distance(ops[u], ops[v])
                if eps <= d <= tau:
                    violations += 1
            for comp in agreement_components(ops, spec.graph, eps, norm):
                rows = [ops[x] for x in comp]
                for i in range(len(rows)):
                    for j in range(i + 1, len(rows)):
                        if distance(rows[i], rows[j]) >= eps * (n - 1):
                            violations += 1
    report_line(
        "C6 stopping structure",
        violations == 0,
        f"{trials_seen} stopped trials, {violations} violations",
    )


def test_criterion_07_near_center_trigger_implies_consensus(bound_runs):
    exceptions = 0
    triggered = 0
    for name in ("path(8)", "cycle(8)", "complete(6)"):
        spec, outcomes, _ = bound_runs[name]
        assert spec.params.tau > spec.space.radius + spec.stopping.eps_prime
        for out in outcomes:
            if out.stopped and out.event_a:
                triggered += 1
                if not out.consensus:
                    exceptions += 1
    report_line(
        "C7 trigger implies consensus",
        exceptions == 0 and triggered > 0,
        f"{triggered} triggered trials, {exceptions} exceptions",
    )


def test_criterion_08_classification_stability():
    graphs = [complete(5), cycle(6), path(4)]
    space = UNIT_INTERVAL
    params = ModelParams(tau=0.6)
    flips = 0
    stopped_trials = 0
    trial = 0
    while stopped_trials < 500:
        g = graphs[trial % 3]
        stopping = default_stopping(g, space, params)
        engine = TrialEngine(
            g, space, UniformShape(), params, stopping, trial_rng(808, trial)
        )
        trial += 1
        engine.run_to_stop()
        if not engine.is_stopped():
            continue
        stopped_trials += 1
        before = engine.outcome().consensus
        # run 10x the events so far past the stop (within the cap), then to the next stop
        cap = min(11 * engine.events, stopping.max_events)
        while engine.events < cap and engine.step() is not None:
            pass
        engine.run_to_stop()
        assert engine.is_stopped()
        after = engine.outcome().consensus
        if before != after:
            flips += 1
    report_line(
        "C8 classification stability", flips == 0, f"{stopped_trials} stopped trials, {flips} flips"
    )


def test_criterion_09_determinism_across_parallelism():
    spec = make_spec(cycle(6), tau=0.7, trials=400, seed=909, graph_info={"kind": "cycle", "n": 6})
    texts = [to_json(run_estimate(spec, parallelism=k).to_json_dict()) for k in (1, 4, 8)]
    texts.append(to_json(run_estimate(spec, parallelism=1).to_json_dict()))
    ok = len(set(texts)) == 1
    report_line("C9 determinism", ok, "byte-identical reports for parallelism 1, 4, 8 and reruns")


def test_criterion_10_cap_hits_negligible(two_vertex_runs, bound_runs):
    undetermined = 0
    total = 0
    for tau in (0.5, 0.8):
        undetermined += two_vertex_runs[tau].undetermined_count
        total += two_vertex_runs[tau].trials
    for name in ("path(8)", "cycle(8)", "complete(6)"):
        _, _, report = bound_runs[name]
        undetermined += report.undetermined_count
        total += report.trials
    rate = undetermined / total
    report_line(
        "C10 stop-time finiteness proxy",
        rate <= 0.001,
        f"{undetermined}/{total} cap hits ({rate:.5f} <= 0.001)",
    )
