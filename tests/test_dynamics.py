import itertools
import math
import random

import numpy as np
import pytest
from scipy.optimize import linprog

from hkc.dynamics import (
    Configuration,
    ModelParams,
    StoppingSpec,
    TrialEngine,
    apply_update,
    check_event_a,
    compatibility,
    default_stopping,
    event_a_applicable,
    gillespie_step,
    stop_reached,
)
from hkc.analysis import classify_consensus, total_disagreement
from hkc.graph import complete, cycle, erdos_renyi, grid, path
from hkc.space import Ball, Box, Norm, OpinionSpace, PointMasses, UniformShape


BOX01 = OpinionSpace(Box((0.0,), (1.0,)), Norm.L2)


def _run_trial(g, space, dist, params, stopping, rng):
    """One trial to its stop or cap, with (time, total center distance) samples recorded."""
    engine = TrialEngine(g, space, dist, params, stopping, rng, record_samples=True)
    engine.run_to_stop()
    return engine.outcome()


def cfg(*rows):
    return Configuration.from_rows([r if isinstance(r, tuple) else (r,) for r in rows])


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(tau=0.0)
    with pytest.raises(ValueError):
        ModelParams(tau=0.5, alpha=1.5)
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        ModelParams(tau=0.5, alpha=1.0)  # no update would ever move an opinion


def test_configuration_validation():
    with pytest.raises(ValueError):
        Configuration(np.array([[float("inf")]]))
    c = cfg(0.1, 0.9)
    assert c.n_vertices == 2 and c.dim == 1
    with pytest.raises(ValueError):
        c.opinions[0, 0] = 5.0  # read-only


def test_compatibility_path3_hand_case():
    g = path(3)
    view = compatibility(cfg(0.0, 0.4, 1.0), g, tau=0.5, norm=Norm.L1)
    assert view == ((1,), (0,), ())
    assert [len(nbrs) for nbrs in view] == [1, 1, 0]
    assert sum(map(len, view)) == 2


def test_compatibility_all_equal_gives_full_adjacency():
    g = cycle(5)
    view = compatibility(cfg(*([0.3] * 5)), g, tau=0.1, norm=Norm.L2)
    assert view == g.adjacency
    assert sum(map(len, view)) == 2 * g.edge_count


def test_compatibility_closed_at_tau():
    g = path(2)
    view = compatibility(cfg(0.0, 0.5), g, tau=0.5, norm=Norm.L1)
    assert view == ((1,), (0,))


def test_compatibility_symmetry_random():
    rng = random.Random(4)
    for _ in range(50):
        g = erdos_renyi(rng.randint(2, 12), 0.5, rng)
        config = cfg(*(rng.random() for _ in range(g.vertex_count)))
        view = compatibility(config, g, tau=rng.uniform(0.05, 1.0), norm=Norm.L2)
        for x, nbrs in enumerate(view):
            for y in nbrs:
                assert x in view[y]


def test_apply_update_alpha_zero_moves_to_neighbor_mean():
    g = path(3)
    config = cfg(0.0, 0.4, 1.0)
    view = compatibility(config, g, tau=0.5, norm=Norm.L1)
    assert apply_update(config, view, 0, alpha=0.0).opinions[0] == pytest.approx([0.4])
    with pytest.raises(ValueError):
        apply_update(config, view, 2, alpha=0.0)  # no compatible neighbors

    config2 = cfg(0.0, 0.5, 1.0)
    view2 = compatibility(config2, path(3), tau=0.5, norm=Norm.L1)
    midpoint = apply_update(config2, view2, 1, alpha=0.0).opinions[1]
    assert midpoint == pytest.approx([0.5])  # midpoint of 0 and 1

    g3 = complete(4)
    config3 = Configuration.from_rows([(0.5, 0.5), (0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    view3 = compatibility(config3, g3, tau=5.0, norm=Norm.L2)
    assert apply_update(config3, view3, 0, alpha=0.0).opinions[0] == pytest.approx([1 / 3, 1 / 3])


def test_apply_update_full_stubbornness_is_identity():
    g = path(2)
    config = cfg(0.0, 0.4)
    view = compatibility(config, g, tau=1.0, norm=Norm.L1)
    out = apply_update(config, view, 0, alpha=1.0)
    assert np.array_equal(out.opinions, config.opinions)


def test_apply_update_single_neighbor_jump():
    g = path(2)
    config = cfg(0.0, 0.5)
    view = compatibility(config, g, tau=0.5, norm=Norm.L1)
    out = apply_update(config, view, 0, alpha=0.0)
    assert out.opinions[0, 0] == 0.5
    assert out.opinions[1, 0] == 0.5


def test_apply_update_half_stubbornness():
    g = path(2)
    config = cfg(0.0, 0.5)
    view = compatibility(config, g, tau=0.5, norm=Norm.L1)
    out = apply_update(config, view, 0, alpha=0.5)
    assert out.opinions[0, 0] == 0.25


def test_apply_update_changes_only_target():
    g = complete(4)
    rng = random.Random(9)
    config = cfg(*(rng.random() for _ in range(4)))
    view = compatibility(config, g, tau=2.0, norm=Norm.L2)
    out = apply_update(config, view, 2, alpha=0.3)
    for x in (0, 1, 3):
        assert out.opinions[x, 0] == config.opinions[x, 0]


def test_gillespie_step_absorbed():
    g = path(2)
    config = cfg(0.0, 1.0)
    view = compatibility(config, g, tau=0.2, norm=Norm.L1)
    assert sum(map(len, view)) == 0
    assert gillespie_step(config, view, ModelParams(tau=0.2), random.Random(1)) is None


def test_gillespie_step_vertex_frequencies():
    g = path(3)
    config = cfg(0.0, 0.4, 1.0)
    view = compatibility(config, g, tau=0.5, norm=Norm.L1)
    params = ModelParams(tau=0.5)
    rng = random.Random(2)
    counts = [0, 0, 0]
    n = 100_000
    for _ in range(n):
        _, x = gillespie_step(config, view, params, rng)
        counts[x] += 1
    assert abs(counts[0] / n - 0.5) < 0.01
    assert abs(counts[1] / n - 0.5) < 0.01
    assert counts[2] == 0


def test_gillespie_step_holding_time_mean():
    g = path(3)
    config = cfg(0.0, 0.4, 1.0)
    view = compatibility(config, g, tau=0.5, norm=Norm.L1)  # total rate 2
    params = ModelParams(tau=0.5)
    rng = random.Random(3)
    n = 100_000
    total = 0.0
    for _ in range(n):
        dt, _ = gillespie_step(config, view, params, rng)
        total += dt
    assert abs(total / n - 0.5) < 0.01  # 2% of 1/R = 0.5


def test_stop_reached_cases():
    g = path(3)
    spec = StoppingSpec(eps_prime=0.75, eps=0.25, max_events=10)
    tau = 2.0
    assert stop_reached(cfg(0.3, 0.3, 0.3), g, spec, tau, Norm.L1) is True
    # an edge at exactly eps blocks stopping (eps is inside the band)
    assert stop_reached(cfg(0.0, 0.25, 0.25), g, spec, tau, Norm.L1) is False
    # distances {eps/2, tau + 0.01} are both outside the band
    assert stop_reached(cfg(0.0, 0.125, 2.135), g, spec, tau, Norm.L1) is True
    # an edge at exactly tau blocks stopping
    assert stop_reached(cfg(0.0, 2.0, 2.0), g, spec, tau, Norm.L1) is False


def test_stopping_spec_validation():
    g = path(4)
    params = ModelParams(tau=0.8)
    with pytest.raises(ValueError, match="eps must equal"):
        StoppingSpec(eps_prime=0.1, eps=0.1, max_events=10).validate_for(g, params)
    with pytest.raises(ValueError, match="tau/2"):
        StoppingSpec(eps_prime=0.5, eps=0.125, max_events=10).validate_for(g, params)


def test_default_stopping_rule():
    g = path(8)
    spec = default_stopping(g, BOX01, ModelParams(tau=0.8))
    assert spec.eps_prime == pytest.approx(0.003)  # 0.01 * (tau - rho)
    assert spec.eps == spec.eps_prime / 8
    spec_low = default_stopping(g, BOX01, ModelParams(tau=0.4))  # tau <= rho branch
    assert spec_low.eps_prime == pytest.approx(0.1)  # tau / 4


def test_run_trial_compatible_pair_merges_in_one_event():
    g = path(2)
    params = ModelParams(tau=1.0, alpha=0.0)
    stopping = default_stopping(g, BOX01, params)
    # seed chosen so the initial pair is compatible and not yet stopped
    rng = random.Random(42)
    out = _run_trial(g, BOX01, UniformShape(), params, stopping, rng)
    assert out.stopped and out.events == 1
    assert out.consensus is True
    assert out.final.opinions[0, 0] == out.final.opinions[1, 0]


def test_run_trial_frozen_pair_absorbs_immediately():
    g = path(2)
    params = ModelParams(tau=0.05, alpha=0.0)
    stopping = default_stopping(g, BOX01, params)
    rng = random.Random(0)
    a, b = rng.uniform(0, 1), rng.uniform(0, 1)
    assert abs(a - b) > 0.05  # seed sanity
    out = _run_trial(g, BOX01, UniformShape(), params, stopping, random.Random(0))
    assert out.stopped and out.events == 0
    assert out.stop_time == 0.0
    assert out.consensus is False
    assert out.event_a is None  # tau <= radius + eps_prime: trigger undefined


def test_run_trial_samples_agree_with_disagreement_functional():
    from hkc.analysis import total_disagreement

    g = cycle(5)
    params = ModelParams(tau=0.9)
    stopping = default_stopping(g, BOX01, params)
    out = _run_trial(g, BOX01, UniformShape(), params, stopping, random.Random(13))
    assert out.x_samples.shape == (out.events + 1, 2)
    # the recorded final sample equals a fresh evaluation on the final state
    assert out.x_samples[-1, 1] == total_disagreement(out.final, BOX01.center, BOX01.norm)
    assert out.x_samples[0, 0] == 0.0
    assert np.all(np.diff(out.x_samples[:, 0]) > 0)  # strictly increasing event times


def test_run_trial_deterministic_given_seed():
    g = cycle(5)
    params = ModelParams(tau=0.6)
    stopping = default_stopping(g, BOX01, params)
    a = _run_trial(g, BOX01, UniformShape(), params, stopping, random.Random(77))
    b = _run_trial(g, BOX01, UniformShape(), params, stopping, random.Random(77))
    assert a.stopped == b.stopped and a.events == b.events
    assert a.stop_time == b.stop_time
    assert a.consensus == b.consensus and a.event_a == b.event_a
    assert np.array_equal(a.final.opinions, b.final.opinions)
    assert np.array_equal(a.x_samples, b.x_samples)


def test_run_trial_cap_hit_is_undetermined():
    g = path(4)
    params = ModelParams(tau=1.5)
    stopping = default_stopping(g, BOX01, params, max_events=1)
    out = _run_trial(g, BOX01, UniformShape(), params, stopping, random.Random(5))
    assert not out.stopped
    assert out.consensus is None and out.event_a is None
    assert out.events == 1


def _fenwick_prefix(tree, i: int) -> int:
    """Sum of the first i rates held by a Fenwick tree."""
    total = 0
    while i:
        total += tree[i]
        i -= i & -i
    return total


def test_engine_matches_pure_operations_step_by_step():
    # Replay the engine against compatibility/gillespie_step/apply_update with a
    # cloned random stream: opinions must agree bitwise at every event, and at
    # every stopped state the engine's outcome must match the pure classifiers.
    rng_engine = random.Random(2718)
    consensus_seen = set()
    event_a_seen = set()
    for trial in range(6):
        g = erdos_renyi(random.Random(trial).randint(3, 8), 0.6, random.Random(trial + 50))
        space = OpinionSpace(Box((0.0, 0.0), (1.0, 1.0)), Norm.L1 if trial % 2 else Norm.L2)
        # the last two trials have tau > radius + eps_prime, so event A is defined there
        tau = 0.45 if trial < 4 else space.radius + 0.1
        params = ModelParams(tau=tau, alpha=0.25 * (trial % 4))
        stopping = default_stopping(g, space, params, max_events=400)
        engine = TrialEngine(g, space, UniformShape(), params, stopping, rng_engine)
        rng_pure = random.Random()
        rng_pure.setstate(rng_engine.getstate())
        config = Configuration.from_rows(engine.opinions)
        for _ in range(400):
            view = compatibility(config, g, params.tau, space.norm)
            # engine bookkeeping must equal full recomputation
            rates = [len(nbrs) for nbrs in view]
            assert [len(s) for s in engine.compat] == rates
            assert engine._tree[engine._size] == sum(rates)
            assert [_fenwick_prefix(engine._tree, i) for i in range(1, len(rates) + 1)] == list(
                itertools.accumulate(rates)
            )
            assert tuple(tuple(sorted(s)) for s in engine.compat) == view
            assert engine.is_stopped() == stop_reached(config, g, stopping, params.tau, space.norm)
            if engine.is_stopped():
                out = engine.outcome()
                assert out.consensus == classify_consensus(config, g, stopping, params.tau, space.norm)
                if event_a_applicable(space, params.tau, stopping.eps_prime):
                    assert out.event_a == check_event_a(config, space, params.tau, stopping.eps_prime)
                else:
                    assert out.event_a is None
                consensus_seen.add(out.consensus)
                event_a_seen.add(out.event_a)
            assert engine.total_center_distance() == total_disagreement(
                config, space.center, space.norm
            )
            step = gillespie_step(config, view, params, rng_pure)
            moved = engine.step()
            if step is None:
                assert moved is None
                break
            _, x = step
            assert moved == x
            config = apply_update(config, view, x, params.alpha)
            assert np.array_equal(config.opinions, np.array(engine.opinions))
    assert consensus_seen == {True, False}
    assert event_a_seen == {None, True, False}


class _EighthsRandom(random.Random):
    """random() returns multiples of 1/8 once `eighths` is set.

    Total rates are even, so rng.random() * total then often lands exactly
    on an integer rate prefix sum, where a selection off by one in its
    comparison would pick a different vertex.
    """

    eighths = False
    last = 0.0

    def random(self):
        u = super().random()
        if self.eighths:
            u = math.floor(u * 8) / 8
        self.last = u
        return u


def test_engine_selection_matches_scan_at_exact_prefix_boundaries():
    # Replay the engine's vertex choice against gillespie_step's linear scan on
    # graphs whose sizes are 1, 2 and non-powers of two, where targets often
    # equal a prefix sum exactly and small tau leaves zero-rate vertices.
    graphs = [path(1), path(2), cycle(37), grid(10, 10), complete(33), cycle(129)]
    exact_targets = 0
    zero_rate_seen = False
    for gi, g in enumerate(graphs):
        for tau in (0.15, 1.0):
            params = ModelParams(tau=tau)
            stopping = default_stopping(g, BOX01, params, max_events=200)
            rng_engine = _EighthsRandom(1000 + gi)
            engine = TrialEngine(g, BOX01, UniformShape(), params, stopping, rng_engine)
            rng_engine.eighths = True
            rng_pure = _EighthsRandom()
            rng_pure.setstate(rng_engine.getstate())
            rng_pure.eighths = True
            config = Configuration.from_rows(engine.opinions)
            for _ in range(200):
                view = compatibility(config, g, tau, BOX01.norm)
                total = sum(map(len, view))
                zero_rate_seen |= total > 0 and () in view
                step = gillespie_step(config, view, params, rng_pure)
                moved = engine.step()
                if step is None:
                    assert moved is None
                    break
                assert moved == step[1], (g.vertex_count, tau, engine.events)
                exact_targets += (rng_engine.last * total).is_integer()
                config = apply_update(config, view, moved, params.alpha)
    assert zero_rate_seen
    assert exact_targets > 100


def _in_convex_hull(point, hull_points, tol=1e-9) -> bool:
    # feasibility LP: point = sum(lambda_i * hull_i), lambda >= 0, sum = 1
    pts = np.asarray(hull_points, dtype=float)
    dim = pts.shape[1]
    a_eq = np.vstack([pts.T, np.ones(len(pts))])
    b_eq = np.concatenate([np.asarray(point, dtype=float), [1.0]])
    res = linprog(
        c=np.zeros(len(pts)),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0, None)] * len(pts),
        method="highs",
    )
    if res.success:
        return True
    # retry with slack for boundary/degenerate cases
    res = linprog(
        c=np.zeros(len(pts)),
        A_ub=np.vstack([a_eq, -a_eq]),
        b_ub=np.concatenate([b_eq + tol, -(b_eq - tol)]),
        bounds=[(0, None)] * len(pts),
        method="highs",
    )
    return bool(res.success)


def test_updates_stay_in_shrinking_convex_hull():
    # post-update opinion lies in the hull of the pre-update opinions, so the
    # hull of all opinions never grows along a trajectory
    rng = random.Random(314)
    for trial in range(12):
        dim = 1 + trial % 3
        shape = Box((0.0,) * dim, (1.0,) * dim)
        space = OpinionSpace(shape, Norm.L2)
        g = erdos_renyi(rng.randint(3, 7), 0.7, rng)
        params = ModelParams(tau=0.8, alpha=0.2 if trial % 2 else 0.0)
        stopping = default_stopping(g, space, params, max_events=40)
        engine = TrialEngine(
            g, space, UniformShape(), params, stopping, random.Random(1000 + trial)
        )
        initial = [tuple(op) for op in engine.opinions]
        for _ in range(40):
            before = [tuple(op) for op in engine.opinions]
            moved = engine.step()
            if moved is None or engine.is_stopped():
                break
            assert _in_convex_hull(engine.opinions[moved], before)
        for op in engine.opinions:
            assert _in_convex_hull(op, initial)


def test_frozen_state_never_changes():
    # Random(1) draws 0.134 and 0.847, so the two vertices of path(2) take
    # atoms 0.5 apart, beyond tau = 0.1: the one edge is never compatible
    g = path(2)
    params = ModelParams(tau=0.1)
    stopping = default_stopping(g, BOX01, params, max_events=100)
    atoms = PointMasses((((0.0,), 0.5), ((0.5,), 0.5)))
    engine = TrialEngine(g, BOX01, atoms, params, stopping, random.Random(1))
    assert engine.opinions == [(0.0,), (0.5,)]
    assert engine._tree[engine._size] == 0
    assert engine.is_stopped()
    assert engine.step() is None
    assert engine.events == 0
    assert engine.opinions == [(0.0,), (0.5,)]


def test_run_trial_ball_shape_two_dim():
    space = OpinionSpace(Ball((0.0, 0.0), 1.0), Norm.L2)
    g = complete(4)
    params = ModelParams(tau=2.0)
    stopping = default_stopping(g, space, params)
    out = _run_trial(g, space, UniformShape(), params, stopping, random.Random(8))
    assert out.stopped
    assert out.consensus is True  # tau = diameter: everyone always compatible
    assert out.event_a is True  # some opinion ends near the center
    # x_samples: initial row + one per event, nonincreasing is not guaranteed
    # per-path, but the final total must be finite and recorded
    assert out.x_samples.shape == (out.events + 1, 2)
    assert math.isfinite(out.x_samples[-1, 1])
