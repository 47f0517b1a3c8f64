import random

import numpy as np
import pytest

from hkc.analysis import (
    agreement_components,
    classify_consensus,
    generator_drift,
    theoretical_bound,
    total_disagreement,
)
from hkc.dynamics import Configuration, StoppingSpec, apply_update, check_event_a, compatibility
from hkc.graph import complete, path
from hkc.invariants import drift_case_batch, run_drift_check
from hkc.space import Ball, Norm, OpinionSpace


def cfg(*rows):
    return Configuration.from_rows([r if isinstance(r, tuple) else (r,) for r in rows])


def test_total_disagreement_zero_at_common_point():
    assert total_disagreement(cfg(0.4, 0.4, 0.4), (0.4,), Norm.L1) == 0.0


def test_total_disagreement_hand_sums():
    assert total_disagreement(cfg(0.0, 1.0), (0.0,), Norm.L1) == 1.0
    got = total_disagreement(cfg(0.0, 0.4, 1.0), (0.5,), Norm.L1)
    assert got == pytest.approx(1.1, abs=1e-15)


def test_total_disagreement_dimension_check():
    with pytest.raises(ValueError):
        total_disagreement(cfg(0.0), (0.0, 1.0), Norm.L1)


def test_generator_drift_zero_when_all_equal():
    g = complete(4)
    assert generator_drift(cfg(0.2, 0.2, 0.2, 0.2), g, 1.0, Norm.L2, (0.9,)) == 0.0


def test_generator_drift_path3_hand_value():
    g = path(3)
    got = generator_drift(cfg(-1.0, 0.0, 1.0), g, 2.0, Norm.L1, (0.0,))
    assert got == pytest.approx(-2.0, abs=1e-15)


def test_generator_drift_telescoping_pair_is_zero():
    g = path(2)
    got = generator_drift(cfg(0.0, 1.0), g, 1.0, Norm.L1, (0.0,))
    assert got == pytest.approx(0.0, abs=1e-15)


def test_generator_drift_nonpositive_on_random_cases():
    report = run_drift_check(cases=300, seed=9)
    assert report["status"] == "pass"
    assert report["max_drift"] <= 1e-9


def test_shrink_mechanics_preserve_validity():
    # with an impossible tolerance every case "violates", so the shrinker must
    # walk all the way down to a single vertex through valid connected graphs
    from hkc.invariants import shrink_case

    case = drift_case_batch(random.Random(42), max_vertices=12)[0]
    shrunk = shrink_case(case, tol=float("-inf"))
    assert shrunk.graph.vertex_count == 1
    assert shrunk.config.n_vertices == 1
    assert shrunk.drift() == 0.0
    desc = shrunk.describe()
    assert desc["vertices"] == 1 and desc["edges"] == []


def test_generator_drift_matches_one_step_sampler():
    # empirical mean of (X_after - X_before) * total rate over sampled one-step
    # transitions must sit within 3 standard errors of the exact drift
    rng = random.Random(2025)
    np_rng = np.random.default_rng(2025)
    checked = 0
    for batch in range(200):
        if checked >= 100:
            break
        cases = drift_case_batch(rng, max_vertices=8)
        case = cases[0]
        config, g, tau, norm = case.config, case.graph, case.tau, case.norm
        c = case.c
        view = compatibility(config, g, tau, norm)
        total = sum(map(len, view))
        if total == 0:
            continue
        checked += 1
        base = total_disagreement(config, c, norm)
        active = [x for x in range(g.vertex_count) if view[x]]
        deltas = np.array(
            [
                total_disagreement(apply_update(config, view, x, 0.0), c, norm) - base
                for x in active
            ]
        )
        probs = np.array([len(view[x]) for x in active], dtype=float) / total
        draws = 10_000
        counts = np_rng.multinomial(draws, probs)
        mean = float(counts @ deltas) / draws
        var = float(counts @ (deltas - mean) ** 2) / (draws - 1)
        se = total * np.sqrt(var / draws)
        estimate = total * mean
        exact = generator_drift(config, g, tau, norm, c)
        assert abs(estimate - exact) <= 3 * se + 1e-12
    assert checked == 100


def _spec(n, eps_prime=0.2):
    return StoppingSpec(eps_prime=eps_prime, eps=eps_prime / n, max_events=10)


def test_classify_consensus_single_agreement_component():
    g = complete(3)
    spec = _spec(3)
    config = cfg(0.50, 0.51, 0.52)  # all pairwise < eps = 0.0667
    assert classify_consensus(config, g, spec, tau=1.0, norm=Norm.L1) is True


def test_classify_consensus_frozen_pair():
    g = path(2)
    spec = _spec(2)
    config = cfg(0.0, 1.0)
    assert classify_consensus(config, g, spec, tau=0.5, norm=Norm.L1) is False


def test_classify_consensus_split_path():
    g = path(4)
    spec = _spec(4, eps_prime=0.08)
    config = cfg(0.0, 0.01, 0.95, 0.96)  # interior edge frozen, others < eps
    assert classify_consensus(config, g, spec, tau=0.5, norm=Norm.L1) is False


def test_classify_consensus_requires_stopped_state():
    g = path(2)
    spec = _spec(2)
    config = cfg(0.0, 0.3)  # edge inside [eps, tau]
    with pytest.raises(ValueError, match="stopping"):
        classify_consensus(config, g, spec, tau=0.5, norm=Norm.L1)


def test_agreement_components_definition():
    g = path(3)
    comps = agreement_components(cfg(0.0, 0.001, 0.9), g, eps=0.01, norm=Norm.L1)
    assert comps == ((0, 1), (2,))


BALL_SPACE = OpinionSpace(Ball((0.0,), 0.5), Norm.L1)


def test_event_a_true_at_center():
    config = cfg(0.0, 0.45)
    assert check_event_a(config, BALL_SPACE, tau=0.8, eps_prime=0.05) is True


def test_event_a_strict_at_threshold():
    # threshold = 0.875 - 0.5 - 0.125 = 0.25 exactly in binary; opinions at
    # distance exactly 0.25 from the center must NOT trigger (strict <)
    config = cfg(0.25, -0.25)
    assert check_event_a(config, BALL_SPACE, tau=0.875, eps_prime=0.125) is False


def test_event_a_threshold_arithmetic():
    config = cfg(0.2, 0.4)  # distance 0.2 < 0.25
    assert check_event_a(config, BALL_SPACE, tau=0.8, eps_prime=0.05) is True


def test_event_a_undefined_when_tau_too_small():
    with pytest.raises(ValueError):
        check_event_a(cfg(0.0), BALL_SPACE, tau=0.5, eps_prime=0.05)


def test_theoretical_bound_unit_interval_values():
    # uniform on [0,1]: E = 1/4, rho = 1/2
    assert theoretical_bound(0.25, 1.0, 0.5) == pytest.approx(0.5)
    assert theoretical_bound(0.25, 0.8, 0.5) == pytest.approx(1 / 6)
    assert theoretical_bound(0.0, 0.6, 0.5) == 1.0


def test_theoretical_bound_clamps_to_zero():
    assert theoretical_bound(5.0, 1.0, 0.5) == 0.0


def test_theoretical_bound_requires_tau_above_rho():
    with pytest.raises(ValueError, match="tau > rho"):
        theoretical_bound(0.25, 0.5, 0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        theoretical_bound(-0.25, 1.0, 0.5)


def test_theoretical_bound_monotonicity_grid():
    rhos = 0.5
    taus = np.linspace(0.55, 2.0, 30)
    exps = np.linspace(0.0, 1.0, 30)
    for e in exps:
        values = [theoretical_bound(e, t, rhos) for t in taus]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))  # nondecreasing in tau
    for t in taus:
        values = [theoretical_bound(e, t, rhos) for e in exps]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))  # nonincreasing in E
