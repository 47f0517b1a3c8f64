import itertools
import math
import random
from array import array

import numpy as np
import pytest
from scipy.optimize import linprog

from hkc.dynamics import (
    MIN_EPS_ULPS,
    MIN_STEP_ULPS,
    Configuration,
    ModelParams,
    StoppingSpec,
    TrialEngine,
    default_stopping,
    edge_states,
    event_a_applicable,
    far_corner,
    update_rule,
)
from hkc.graph import complete, cycle, erdos_renyi, grid, is_connected, path
from hkc.montecarlo import ExperimentSpec, run_single_trial
from hkc.seeding import trial_rng
from hkc.space import (
    MIN_L2_EXTENT,
    Ball,
    Box,
    Norm,
    OpinionSpace,
    PointMasses,
    UniformShape,
    coordinate_ulp,
    distance_fn,
)
from oracles import (
    apply_update, box, check_event_a, classify_consensus, compatibility, engine_view, gillespie_step, instrument,
    oracle_view, owner_table, raw_state, replay, rows, stop_reached, total_disagreement, witness,
)


BOX01 = OpinionSpace(Box((0.0,), (1.0,)), Norm.L2)


def _run_trial(g, space, dist, params, stopping, rng):
    """One trial to its stop or cap, with (time, total center distance) samples recorded."""
    engine = TrialEngine(g, space, dist, params, stopping, rng, record_samples=True)
    engine.run_to_stop()
    return engine.outcome()


def cfg(*rows):
    return tuple(r if isinstance(r, tuple) else (r,) for r in rows)


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
    with pytest.raises(ValueError, match=r"must be a \(vertices, dim\) array, got shape \(0, 1\)"):
        Configuration(np.zeros((0, 1)))
    c = Configuration(cfg(0.1, 0.9))
    assert c.opinions.shape == (2, 1)
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
    assert apply_update(config, view, 0, alpha=0.0)[0] == pytest.approx([0.4])
    with pytest.raises(ValueError):
        apply_update(config, view, 2, alpha=0.0)  # no compatible neighbors

    config2 = cfg(0.0, 0.5, 1.0)
    view2 = compatibility(config2, path(3), tau=0.5, norm=Norm.L1)
    midpoint = apply_update(config2, view2, 1, alpha=0.0)[1]
    assert midpoint == pytest.approx([0.5])  # midpoint of 0 and 1

    g3 = complete(4)
    config3 = ((0.5, 0.5), (0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    view3 = compatibility(config3, g3, tau=5.0, norm=Norm.L2)
    assert apply_update(config3, view3, 0, alpha=0.0)[0] == pytest.approx([1 / 3, 1 / 3])


def test_apply_update_full_stubbornness_is_identity():
    g = path(2)
    config = cfg(0.0, 0.4)
    view = compatibility(config, g, tau=1.0, norm=Norm.L1)
    out = apply_update(config, view, 0, alpha=1.0)
    assert out == config


def test_apply_update_single_neighbor_jump():
    g = path(2)
    config = cfg(0.0, 0.5)
    view = compatibility(config, g, tau=0.5, norm=Norm.L1)
    out = apply_update(config, view, 0, alpha=0.0)
    assert out == ((0.5,), (0.5,))


def test_apply_update_half_stubbornness():
    g = path(2)
    config = cfg(0.0, 0.5)
    view = compatibility(config, g, tau=0.5, norm=Norm.L1)
    out = apply_update(config, view, 0, alpha=0.5)
    assert out[0] == (0.25,)


def test_apply_update_changes_only_target():
    g = complete(4)
    rng = random.Random(9)
    config = cfg(*(rng.random() for _ in range(4)))
    view = compatibility(config, g, tau=2.0, norm=Norm.L2)
    out = apply_update(config, view, 2, alpha=0.3)
    for x in (0, 1, 3):
        assert out[x] == config[x]


def test_gillespie_step_absorbed():
    g = path(2)
    config = cfg(0.0, 1.0)
    view = compatibility(config, g, tau=0.2, norm=Norm.L1)
    assert sum(map(len, view)) == 0
    assert gillespie_step(view, random.Random(1)) is None


def test_gillespie_step_vertex_frequencies():
    g = path(3)
    config = cfg(0.0, 0.4, 1.0)
    view = compatibility(config, g, tau=0.5, norm=Norm.L1)
    rng = random.Random(2)
    counts = [0, 0, 0]
    n = 100_000
    for _ in range(n):
        _, x = gillespie_step(view, rng)
        counts[x] += 1
    assert abs(counts[0] / n - 0.5) < 0.01
    assert abs(counts[1] / n - 0.5) < 0.01
    assert counts[2] == 0


def test_gillespie_step_holding_time_mean():
    g = path(3)
    config = cfg(0.0, 0.4, 1.0)
    view = compatibility(config, g, tau=0.5, norm=Norm.L1)  # total rate 2
    rng = random.Random(3)
    n = 100_000
    total = 0.0
    for _ in range(n):
        dt, _ = gillespie_step(view, rng)
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
        StoppingSpec(eps_prime=0.1, eps=0.1, max_events=10).validate_for(g, BOX01, params)
    with pytest.raises(ValueError, match="tau/2"):
        StoppingSpec(eps_prime=0.5, eps=0.125, max_events=10).validate_for(g, BOX01, params)
    with pytest.raises(ValueError, match="eps must be positive, got 0.0"):
        StoppingSpec(eps_prime=0.1, eps=0.0)
    with pytest.raises(ValueError, match="max_events must be >= 1"):
        StoppingSpec(eps_prime=0.1, eps=0.025, max_events=0)


def test_default_stopping_rule():
    g = path(8)
    spec = default_stopping(g, BOX01, ModelParams(tau=0.8))
    assert spec.eps_prime == pytest.approx(0.003)  # 0.01 * (tau - rho)
    assert spec.eps == spec.eps_prime / 8
    spec_low = default_stopping(g, BOX01, ModelParams(tau=0.4))  # tau <= rho branch
    assert spec_low.eps_prime == pytest.approx(0.1)  # tau / 4


def test_default_stopping_rejects_eps_below_float_resolution():
    # Slack tau - radius from 1e-6 down to 1e-16 sets eps = 0.01 * slack / 6.
    # Every accepted config stops all its trials under the cap; every rejected
    # one has eps at most MIN_EPS_ULPS ulps of the largest coordinate, 1.0.
    rng = random.Random(4242)
    accepted = rejected = 0
    for g in (path(6), cycle(6), complete(6)):
        for norm, dim, alpha in itertools.product(Norm, (1, 2, 3), (0.0, 0.5)):
            space = OpinionSpace(Box((0.0,) * dim, (1.0,) * dim), norm)
            for e in range(6, 17):
                params = ModelParams(tau=space.radius + 10.0**-e, alpha=alpha)
                if params.tau == space.radius:
                    continue  # 1e-16 rounded away: the tau / 4 rule applies
                if 0.01 * (params.tau - space.radius) / 6 <= MIN_EPS_ULPS * math.ulp(1.0):
                    with pytest.raises(ValueError, match="ulps of the largest coordinate"):
                        default_stopping(g, space, params, max_events=20_000)
                    rejected += 1
                    continue
                stopping = default_stopping(g, space, params, max_events=20_000)
                out = _run_trial(g, space, UniformShape(), params, stopping, rng)
                assert out.stopped, (g.vertex_count, norm, dim, alpha, e)
                accepted += 1
    assert accepted and rejected


def test_hand_built_stopping_spec_below_float_resolution_is_rejected():
    # default_stopping rejects this tau; the same eps in a spec built by hand
    # used to run all 200,000 events without a stop
    g = cycle(12)
    params = ModelParams(tau=0.5000000000000002, alpha=0.5)
    with pytest.raises(ValueError, match="ulps of the largest coordinate"):
        default_stopping(g, BOX01, params)
    stopping = StoppingSpec(1e-17, 1e-17 / 12, 200_000)
    with pytest.raises(ValueError, match=r"^eps = eps_prime / vertex_count = .* ulps of the largest coordinate"):
        TrialEngine(g, BOX01, UniformShape(), params, stopping, random.Random(0))
    with pytest.raises(ValueError, match="ulps of the largest coordinate"):
        ExperimentSpec(graph=g, space=BOX01, init=UniformShape(), params=params, stopping=stopping,
                       trials=1, master_seed=0)


def test_alpha_whose_update_cannot_move_an_opinion_is_rejected():
    # With alpha = 1 - 2**-53 an update toward a neighbor eps = 0.0015 away rounds
    # back to the old opinion, so no banded edge could close: this config ran every
    # trial to its cap. The engine, the experiment and default_stopping refuse it.
    g = path(2)
    params = ModelParams(tau=0.8, alpha=1 - 2.0**-53)
    floor = r"^\(1 - alpha\) \* eps / dim = .* is not above 1.5 ulps of the largest coordinate"
    with pytest.raises(ValueError, match=floor):
        default_stopping(g, BOX01, params)
    stopping = default_stopping(g, BOX01, ModelParams(tau=0.8))
    with pytest.raises(ValueError, match=floor):
        TrialEngine(g, BOX01, UniformShape(), params, stopping, random.Random(5))
    with pytest.raises(ValueError, match=floor):
        ExperimentSpec(graph=g, space=BOX01, init=UniformShape(), params=params, stopping=stopping,
                       trials=1, master_seed=7)
    ops = [(0.75,), (0.75 + stopping.eps,)]
    assert update_rule(ops, params.alpha)((1,), ops[0]) == ops[0]


@pytest.mark.parametrize("dim", [1, 3, 8])
def test_step_floor_on_both_sides(dim):
    # (1 - alpha) * eps / dim at MIN_STEP_ULPS ulps U of the largest coordinate is
    # rejected, and one ulp above it accepted. There an update toward a neighbor at
    # L1 distance eps, spread evenly over the coordinates (so the largest coordinate
    # gap is as small as it can be under any norm), moves every coordinate of any
    # opinion in the box, as the rounding bound in StoppingSpec.validate_for says;
    # at a sixth of that gap a coordinate can round back to the old one.
    space = OpinionSpace(Box((0.0,) * dim, (1.0,) * dim), Norm.L1)
    g, u, rng = path(2), coordinate_ulp(space.shape), random.Random(dim)
    stalled = 0
    for j in (7, 20, 40, 46):
        params = ModelParams(tau=0.8, alpha=1.0 - 2.0**-j)  # 1 - alpha = 2**-j, exactly
        at_floor = MIN_STEP_ULPS * u * 2.0**j * dim
        with pytest.raises(ValueError, match=r"^\(1 - alpha\) \* eps / dim"):
            StoppingSpec(2 * at_floor, at_floor).validate_for(g, space, params)
        eps = math.nextafter(at_floor, 1.0)
        StoppingSpec(2 * eps, eps).validate_for(g, space, params)
        for gap, moves in ((eps / dim, True), (at_floor / dim / 6, False)):
            for _ in range(2000):
                old = tuple(rng.choice((rng.random(), 1.0 - rng.random() * 1e-3)) for _ in range(dim))
                nbr = []
                for o in old:
                    c = o - gap if o - gap >= 0.0 else o + gap
                    if abs(c - o) < gap:  # rounded toward o: one ulp further
                        c = math.nextafter(c, 2 * c - o)
                    nbr.append(c)
                new = update_rule([old, tuple(nbr)], params.alpha)((1,), old)
                if moves:
                    assert all(a != b for a, b in zip(new, old)), (j, old, nbr)
                else:
                    stalled += sum(a == b for a, b in zip(new, old))
    assert stalled > 1000


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
    g = cycle(5)
    params = ModelParams(tau=0.9)
    stopping = default_stopping(g, BOX01, params)
    out = _run_trial(g, BOX01, UniformShape(), params, stopping, random.Random(13))
    assert len(out.x_samples) == out.events + 1
    # the recorded final sample equals a fresh evaluation on the final state
    final = out.final.opinions.tolist()
    assert out.x_samples[-1][1] == total_disagreement(final, BOX01.center, BOX01.norm)
    times = [t for t, _ in out.x_samples]
    assert times[0] == 0.0
    assert all(a < b for a, b in zip(times, times[1:]))  # strictly increasing event times


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
    assert a.x_samples == b.x_samples


def test_run_trial_cap_hit_is_undetermined():
    g = path(4)
    params = ModelParams(tau=1.5)
    stopping = default_stopping(g, BOX01, params, max_events=1)
    out = _run_trial(g, BOX01, UniformShape(), params, stopping, random.Random(5))
    assert not out.stopped
    assert out.consensus is None and out.event_a is None
    assert out.events == 1


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("norm", list(Norm))
def test_engine_event_a_strict_at_threshold(norm, dim):
    # tau - radius - eps_prime = 0.875 - 0.5 - 0.125 = 0.25 exactly. Every vertex takes the one
    # atom, so the trial is stopped at event 0: event A is true iff the atom lies strictly
    # within 0.25 of the center, and undefined once tau <= radius + eps_prime.
    spaces = [OpinionSpace(Ball((0.0,) * dim, 0.5), norm)]
    if dim == 1:
        spaces.append(OpinionSpace(Box((0.0,), (1.0,)), norm))
    g = path(3)
    for space in spaces:
        c = space.center
        cases = [(c, True)]
        for side in (1.0, -1.0):
            edge = c[0] + side * 0.25  # 0.25 from the center along the first axis, under every norm
            cases += [((edge, *c[1:]), False), ((math.nextafter(edge, c[0]), *c[1:]), True)]  # one ulp inside
        for point, expected in cases:
            atom = PointMasses(((point, 1.0),))
            for tau, want in ((0.875, expected), (0.625, None)):
                params = ModelParams(tau=tau)
                stopping = default_stopping(g, space, params, eps_prime=0.125)
                engine = TrialEngine(g, space, atom, params, stopping, random.Random(0))
                assert engine.is_stopped() and engine.events == 0
                assert engine.outcome().event_a is want, (space, point, tau)
                if want is not None:
                    assert check_event_a(rows(engine), space, tau, 0.125) is want


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_dissensus_stop_is_final():
    # Trial 0 stops at event 21 with vertex 0 frozen away from the near component {1, 2, 3},
    # and is reported as dissensus. Stepped on from that stop, the component's contraction
    # brings edge 0-1 back within tau, and the engine is stopped in consensus at event 61.
    g = path(4)
    params = ModelParams(tau=0.3, alpha=0.5)
    spec = ExperimentSpec(
        graph=g, space=BOX01, init=UniformShape(), params=params,
        stopping=default_stopping(g, BOX01, params), trials=1, master_seed=44,
    )
    assert run_single_trial(spec, 0).consensus is True


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
        for config, view, _, _ in replay(engine, rng_engine, params):
            # engine bookkeeping (compatible sets, Fenwick rates, stop) must equal full recomputation
            assert engine_view(engine) == oracle_view(config, g, stopping, params.tau, space.norm)
            if engine.is_stopped():
                out = engine.outcome()
                assert out.consensus == classify_consensus(config, g, stopping, params.tau, space.norm)
                if event_a_applicable(space, params.tau, stopping.eps_prime):
                    assert out.event_a == check_event_a(config, space, params.tau, stopping.eps_prime)
                else:
                    assert out.event_a is None
                consensus_seen.add(out.consensus)
                event_a_seen.add(out.event_a)
            if engine.events == 400:
                break
    assert consensus_seen == {True, False}
    assert event_a_seen == {None, True, False}


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("norm", list(Norm))
def test_engine_matches_pure_operations_every_norm_and_dim(norm, dim):
    # The engine runs the 1-D edge rule, the 2-D L2 inline edge rule and the 2-D
    # update where its space has them, and the oracles the loop forms; every event
    # must agree bit for bit, and the trials must end in both stop outcomes.
    space = OpinionSpace(Box((0.0,) * dim, (1.0,) * dim), norm)
    rng_engine = random.Random(1000 * dim + len(norm.value))
    consensus_seen = set()
    for trial in range(8):
        g = erdos_renyi(rng_engine.randint(3, 8), 0.5, random.Random(trial))
        params = ModelParams(tau=space.radius * (0.5, 1.5)[trial % 2], alpha=(0.0, 0.5)[trial // 2 % 2])
        stopping = default_stopping(g, space, params, max_events=2000)
        engine = TrialEngine(g, space, UniformShape(), params, stopping, rng_engine)
        for config, view, _, _ in replay(engine, rng_engine, params):
            assert engine_view(engine) == oracle_view(config, g, stopping, params.tau, space.norm)
            if engine.is_stopped() or engine.events == stopping.max_events:
                break
        assert engine.is_stopped(), "trial hit its event cap"
        consensus_seen.add(engine.outcome().consensus)
    assert consensus_seen == {True, False}


def test_engine_edges_closed_at_tau_after_updates():
    # dyadic atoms keep every update exact, so recomputed edges land on tau
    g = path(5)
    dist = PointMasses((((0.0,), 0.25), ((0.5,), 0.5), ((1.0,), 0.25)))
    params = ModelParams(tau=0.5)
    on_tau = 0
    for seed in range(20):
        engine = TrialEngine(g, BOX01, dist, params, default_stopping(g, BOX01, params, max_events=50),
                             random.Random(seed))
        while engine.events < 50 and engine.step() is not None:
            config = rows(engine)
            assert engine_view(engine).compat == compatibility(config, g, params.tau, Norm.L2)
            on_tau += sum(abs(config[u][0] - config[v][0]) == 0.5 for u, v in g.edges())
    assert on_tau > 0


def _bits(values) -> bytes:
    """The float64 bytes, so that -0.0 and 0.0 differ."""
    return array("d", values).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("norm", list(Norm))
def test_edge_rule_and_update_equal_loop_forms_bitwise(norm, dim):
    # edge_states and update_rule take straight-line forms: the 1-D edge rule, the
    # 2-D L2 edge rule, the 1-D update and the 2-D update. Every pair's loop-kernel
    # distance d serves as tau and as eps, and tau one ulp below d, so a form that
    # misses d by one ulp (math.hypot, say) flips a state. Dyadic rows put many
    # distances exactly on tau and eps; rows of mixed magnitude make a sum taken out
    # of order, or with compensation, change its bits.
    kernel = distance_fn(norm)
    rng = random.Random(40 + 10 * dim + len(norm.value))
    n = 7
    g = complete(n)
    for batch in range(40):
        if batch % 2:
            rows = [tuple(rng.randint(-16, 16) / 16 for _ in range(dim)) for _ in range(n)]
            rows[1] = tuple(c + (0.375, 0.5, 0.0)[i] for i, c in enumerate(rows[0]))  # 3-4-5: exact in l2
        else:
            rows = [tuple(rng.uniform(-1, 1) * 2.0 ** rng.randint(-30, 30) for _ in range(dim)) for _ in range(n)]
        for u, v in itertools.combinations(range(n), 2):
            d = kernel(rows[u], rows[v])
            for tau, eps in ((d, d), (d, math.nextafter(d, math.inf)), (math.nextafter(d, 0.0), d / 2)):
                states = edge_states(rows, tau, eps, norm)
                view = compatibility(rows, g, tau, norm)
                for x, nbrs in enumerate(g.adjacency):
                    got = states(rows[x], nbrs)
                    assert got == [0 if (e := kernel(rows[x], rows[y])) > tau else 1 if e < eps else 2 for y in nbrs]
                    assert tuple(y for y, s in zip(nbrs, got) if s) == view[x]
        for alpha in (0.0, 0.5):
            update = update_rule(rows, alpha)
            for x in range(n):
                ys = rng.sample(range(n), rng.randint(1, n))  # any order: the sum follows ys
                view = tuple(tuple(ys) if v == x else () for v in range(n))
                assert _bits(update(ys, rows[x])) == _bits(apply_update(rows, view, x, alpha)[x])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_observed_center_distance_equals_total_center_distance(dim):
    # Under observation the engine keeps each vertex's center distance and adds the
    # list; the total it passes to on_event and records must be the bits of the
    # from-scratch sum over the rows after every event. An offset box makes the distances round.
    for norm in Norm:
        space = OpinionSpace(Box((-3.0,) * dim, (5.5,) * dim), norm)
        g = erdos_renyi(12, 0.5, random.Random(dim))
        params = ModelParams(tau=space.radius * 0.6, alpha=0.5)
        stopping = default_stopping(g, space, params, max_events=400)
        seen = []

        def on_event(event, time, x, xc, opinions):
            seen.append((time, xc, total_disagreement(opinions, space.center, norm)))

        engine = TrialEngine(g, space, UniformShape(), params, stopping, random.Random(dim + len(norm.value)),
                             record_samples=True, on_event=on_event)
        initial = total_disagreement(rows(engine), space.center, norm)
        engine.run_to_stop()
        assert len(seen) == engine.events > 0
        passed = [xc for _, xc, _ in seen]
        assert _bits(passed) == _bits(total for _, _, total in seen)
        samples = engine.outcome().x_samples
        assert samples[0] == (0.0, initial)
        assert [t for t, _ in samples[1:]] == [t for t, _, _ in seen]
        assert _bits(xc for _, xc in samples[1:]) == _bits(passed)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("norm", list(Norm))
def test_initial_edge_table_equals_oracle(norm, dim):
    # The table is built from both ends of every edge; its zero entries, its rates
    # and is_stopped() must be the kernel's, also where dyadic atoms put an edge
    # exactly on tau and exactly on eps (banded). The witness, searched for from
    # vertex 0, is None exactly at a stop, and otherwise the first upper-triangle
    # edge, in row-major order, that the kernel puts in [eps, tau].
    space = OpinionSpace(Box((0.0,) * dim, (1.0,) * dim), norm)
    tau, eps = 0.5, 1 / 64
    axis = [(c,) + (0.0,) * (dim - 1) for c in (0.0, 1 / 64, 0.5, 33 / 64, 1.0)]
    dist = PointMasses(tuple((p, 1 / 6) for p in axis + [(0.5,) * dim]))
    params = ModelParams(tau=tau)
    kernel = distance_fn(norm)
    on = {tau: 0, eps: 0}
    for g in (complete(8), cycle(8)):
        stopping = StoppingSpec(eps * 8, eps)
        for seed in range(10):
            engine = TrialEngine(g, space, dist, params, stopping, random.Random(seed))
            config = rows(engine)
            assert engine_view(engine) == oracle_view(config, g, stopping, tau, norm)  # is_stopped() too
            assert witness(engine) == next(
                ((u, v) for u, v in g.edges() if eps <= kernel(config[u], config[v]) <= tau), None)
            for u, v in g.edges():
                d = kernel(config[u], config[v])
                if d in on:
                    on[d] += 1
    assert min(on.values()) > 0


def _run_to_stop_as_stepped(engine, stepped, params, cap) -> list[tuple[int, bool]]:
    """Run `engine` by run_to_stop(cap) and its twin `stepped` by step() to the same stop or cap.

    Asserts that the two end bitwise equal, with the table the oracles build from
    scratch, and that every event run_to_stop ran without the edge rule on the moved
    vertex's row left every edge at that vertex compatible under the oracle kernel.
    Returns (moved vertex, whether the rule ran on its row) for each event.
    """
    kernel, adjacency = distance_fn(engine.space.norm), engine.g.adjacency
    passed, log, pending = [], [], []  # pending: (rule calls before the last update, its new opinion)

    def counted(states, op, nbrs):
        passed.append(nbrs)  # an updated vertex's row is passed as its adjacency list itself
        return states(op, nbrs)

    def settle():
        # the last event is over: find its vertex by the new opinion's identity, and check it
        if pending:
            before, new = pending.pop()
            opinions = rows(engine)
            x = next(v for v, op in enumerate(opinions) if op is new)
            ran = any(nbrs is adjacency[x] for nbrs in passed[before:])
            assert ran or all(kernel(new, opinions[y]) <= params.tau for y in adjacency[x]), (len(log), x)
            log.append((x, ran))

    def logged(update, ys, old):
        settle()
        new = update(ys, old)
        pending.append((len(passed), new))
        return new

    instrument(engine, states=counted, update=logged)
    start = engine.events
    engine.run_to_stop(cap)
    settle()
    assert len(log) == engine.events - start
    while stepped.events < cap and not stepped.is_stopped():
        stepped.step()
    # step() does the same work per event as run_to_stop, so even the stale nonzero entries agree
    assert raw_state(engine) == raw_state(stepped)
    assert box(engine) == box(stepped)  # so both recompute the box at the same events
    assert engine_view(engine) == oracle_view(rows(engine), engine.g, engine.stopping, params.tau, engine.space.norm)
    return log


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("norm", list(Norm))
def test_run_to_stop_equals_step_by_step_oracle(norm, dim):
    # One run_to_stop call keeps the engine's state in locals over many events,
    # writes it back at the end, and skips the edge rule where the opinions' box
    # decides the moved vertex's edges; it must leave what step() and the pure
    # operations reach one event at a time. Cases stop, or hit the cap; tau just
    # above the radius makes eps tiny, and dyadic atoms put edges exactly on tau.
    # The consensus cases (tau 1.5 radius, uniform opinions) run to their stop,
    # and again with caps one event before it and halfway to it.
    space = OpinionSpace(Box((0.0,) * dim, (1.0,) * dim), norm)
    atoms = PointMasses(tuple(((c / 4,) + (0.0,) * (dim - 1), 0.2) for c in range(5)))
    cases = [(UniformShape(), space.radius * 0.6), (UniformShape(), space.radius + 1e-9)] + [(atoms, 0.5)] * 3
    kernel = distance_fn(space.norm)
    rng = random.Random(100 * dim + len(norm.value))
    outcomes = set()
    on_tau = 0  # recomputed edges exactly on tau
    for g in (path(5), cycle(6), complete(5), grid(3, 3), erdos_renyi(6, 0.6, random.Random(dim))):
        for alpha in (0.0, 0.5):
            for dist, tau in cases:
                params = ModelParams(tau=tau, alpha=alpha)
                stopping = default_stopping(g, space, params, max_events=300)
                # (event, time) as passed to on_event and as the engine holds them then, and is_stopped()
                seen = []

                def on_event(event, time, *_):
                    seen.append(((event, time), (engine.events, engine.time), engine.is_stopped()))

                twin = random.Random()
                twin.setstate(rng.getstate())
                # an observer only at alpha 0.5, so the write-back on exit is tested alone too
                engine = TrialEngine(g, space, dist, params, stopping, rng,
                                     on_event=on_event if alpha else None)
                stepped = TrialEngine(g, space, dist, params, stopping, twin)
                # the pure operations alone, one event at a time, to the stop or the cap
                for events, (config, _, time, x) in enumerate(replay(engine, rng, params, step=False)):
                    if x is not None:
                        on_tau += sum(kernel(config[x], config[y]) == params.tau for y in g.adjacency[x])
                    if events == 300 or stop_reached(config, g, stopping, params.tau, space.norm):
                        break
                _run_to_stop_as_stepped(engine, stepped, params, stopping.max_events)
                assert repr(rows(engine)) == repr(config)
                assert (engine.time, engine.events) == (time, events)
                assert len(seen) == (events if alpha else 0)
                assert all(passed == held for passed, held, _ in seen)
                # is_stopped() is False until the event that stops the trial
                assert [s for *_, s in seen] == [i == events and engine.is_stopped() for i in range(1, len(seen) + 1)]
                outcomes.add(engine.is_stopped())
    assert outcomes == {True, False}
    assert on_tau > 0
    runs = skipped = 0  # runs in which the edge rule skipped the moved vertex's row at some event
    for gi, g in enumerate((path(6), cycle(6), complete(6), grid(2, 3), erdos_renyi(7, 0.5, random.Random(dim)))):
        for alpha in (0.0, 0.5):
            params = ModelParams(tau=space.radius * 1.5, alpha=alpha)
            stopping = default_stopping(g, space, params, max_events=50_000)
            seed = 1000 * dim + 100 * len(norm.value) + 10 * gi + (alpha > 0)

            def twins():
                return [TrialEngine(g, space, UniformShape(), params, stopping, random.Random(seed))
                        for _ in range(2)]

            engine, stepped = twins()
            log = _run_to_stop_as_stepped(engine, stepped, params, stopping.max_events)
            assert engine.is_stopped() and engine.outcome().consensus
            stop = engine.events
            runs += 1
            skipped += not all(ran for _, ran in log)
            for cap in (stop // 2, stop - 1):
                engine, stepped = twins()
                log = _run_to_stop_as_stepped(engine, stepped, params, cap)
                assert engine.events == cap and not engine.is_stopped()
                runs += 1
                skipped += not all(ran for _, ran in log)
    assert skipped >= runs * 2 // 3


def _left_on_box_growth(norm, dim, side):
    # An update that lands 2 tau past the opinions' box in the first coordinate, above
    # hi or below lo, leaves that vertex incompatible with all its neighbors. The box
    # must grow to hold it, so that the vertex's far corner is beyond tau and the edge
    # rule runs on its row; each side of the box has its own branch to grow it. The
    # perturbed event comes once the engine's box is within tau, where the rule is
    # otherwise skipped outright. The run goes on, runs the rule at every later event
    # (the box is now wider than 2 tau), and ends as step() and the oracles do.
    space = OpinionSpace(Box((0.0,) * dim, (1.0,) * dim), norm)
    g = complete(6)
    params = ModelParams(tau=space.radius * 1.5, alpha=0.5)
    stopping = default_stopping(g, space, params, max_events=50_000)
    kernel = distance_fn(norm)

    def engine(at):
        """An engine whose update number `at` (from 0) returns the far opinion."""
        e = TrialEngine(g, space, UniformShape(), params, stopping, random.Random(7 * dim + len(norm.value)))
        count = itertools.count()

        def perturbed(update, ys, old):
            new = update(ys, old)
            if next(count) == at:  # run_to_stop writes e.events back only on exit
                ops = rows(e)
                lo, hi = [min(c) for c in zip(*ops)], [max(c) for c in zip(*ops)]
                new = (hi[0] + 2 * params.tau, *hi[1:]) if side == "hi" else (lo[0] - 2 * params.tau, *lo[1:])
                lo, hi = [min(c) for c in zip(new, *ops)], [max(c) for c in zip(new, *ops)]
                assert kernel(new, far_corner(new, lo, hi)) > params.tau  # the far-corner test fails
            return new

        instrument(e, update=perturbed)
        return e

    probe = engine(None)
    while kernel(*box(probe)) > params.tau:  # step() writes the engine's box back
        assert probe.events < stopping.max_events, "the box never came within tau"
        probe.step()
    at = probe.events + 2
    fast, stepped = engine(at), engine(at)
    log = _run_to_stop_as_stepped(fast, stepped, params, stopping.max_events)
    assert fast.events > at + 1
    assert not any(ran for _, ran in log[:at])  # the box within tau decided every earlier event
    assert all(ran for _, ran in log[at:])  # the rule on the perturbed row, and on every later one
    assert fast.is_stopped() and fast.outcome().consensus is False


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("norm", list(Norm))
def test_certified_phase_left_on_box_growth(norm, dim):
    _left_on_box_growth(norm, dim, "hi")


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("norm", list(Norm))
def test_certified_phase_left_on_low_box_growth(norm, dim):
    _left_on_box_growth(norm, dim, "lo")


def test_consensus_shortcut_agrees_with_search_at_every_stop():
    # outcome() calls a stop consensus exactly when every edge is compatible (total
    # rate = degree sum), with no search: at a stop a connected compatible graph puts
    # every pair within (n - 1) * eps < tau, so no edge can be incompatible. Over
    # seeded stops of both kinds, through step() and through run_to_stop, whose
    # complete(50) trials at tau = 1.0 stop with the opinions' box within tau, its
    # verdict must be the search's and the stop-time classifier's.
    seen = {}
    for g, tau, by_step in ((cycle(100), 0.3, False), (complete(50), 0.3, False), (complete(50), 0.3, True),
                            (complete(50), 1.0, False), (complete(50), 1.0, True)):
        params = ModelParams(tau=tau)
        stopping = default_stopping(g, BOX01, params, max_events=100_000)
        for seed in range(8):
            engine = TrialEngine(g, BOX01, UniformShape(), params, stopping, random.Random(seed))
            if by_step:
                while not engine.is_stopped():
                    assert engine.events < stopping.max_events, (g, tau, seed)
                    engine.step()
            else:
                engine.run_to_stop()
            assert engine.is_stopped()
            consensus, view = engine.outcome().consensus, engine_view(engine)
            assert consensus == is_connected(view.compat)
            assert consensus == classify_consensus(rows(engine), g, stopping, tau, Norm.L2)
            key = (consensus, sum(view.rates) == 2 * g.edge_count)
            seen[key] = seen.get(key, 0) + 1
    assert seen[True, True] >= 8 and seen[False, False] >= 8, seen


def _boxes_with_points(rng, dim, batches, rounds):
    """Boxes [lo, hi], dyadic and of mixed magnitude in turn, each with `rounds` groups of four
    points in it: random, dyadic, on a face and at a corner."""
    def clamp(c, a, b):
        return min(max(c, a), b)

    for batch in range(batches):
        if batch % 2:
            lo = [rng.randint(-16, 16) / 16 for _ in range(dim)]
            hi = [a + rng.randint(0, 32) / 16 for a in lo]
        else:
            lo = [rng.uniform(-1, 1) * 2.0 ** rng.randint(-30, 30) for _ in range(dim)]
            hi = [a + rng.random() * 2.0 ** rng.randint(-30, 30) for a in lo]
        sides = list(zip(lo, hi))
        points = []
        for _ in range(rounds):
            points.append(tuple(clamp(a + (b - a) * rng.random(), a, b) for a, b in sides))  # random
            points.append(tuple(clamp(a + (b - a) * (rng.randint(0, 8) / 8), a, b) for a, b in sides))  # dyadic
            face = list(points[-2])
            i = rng.randrange(dim)
            face[i] = sides[i][rng.randrange(2)]
            points.append(tuple(face))
            points.append(tuple(c[rng.randrange(2)] for c in sides))  # corner
        yield lo, hi, points


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("norm", list(Norm))
def test_box_certificate_is_sound(norm, dim):
    # The engine takes kernel(hi, lo) <= tau, for the corners of the opinions'
    # bounding box, to put every edge within tau. That holds in float: u_i - v_i <=
    # hi_i - lo_i exactly and rounding is monotone, so |fl(u_i - v_i)| <= fl(hi_i - lo_i),
    # and each kernel is monotone in every |d_i| (rounded sums, squares, sqrt and max
    # are). So kernel(u, v) <= kernel(hi, lo) with no tolerance, for every form of the
    # edge rule, the inline 2-D L2 form among them.
    kernel = distance_fn(norm)
    for lo, hi, points in _boxes_with_points(random.Random(60 + 10 * dim + len(norm.value)), dim, 60, 4):
        bound = kernel(hi, lo)
        for u, v in itertools.product(points, repeat=2):
            assert kernel(u, v) <= bound, (u, v, lo, hi)
        states = edge_states(points, bound, bound / 2, norm)
        for u in points:
            assert 0 not in states(u, range(len(points)))


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
@pytest.mark.parametrize("norm", list(Norm))
def test_far_corner_bound_is_sound(norm, dim):
    # The engine takes every edge at a moved vertex u to be compatible when u's far corner
    # in the opinions' box, far_corner(u, lo, hi), is within tau. For every point v of the
    # box, u_i - v_i lies between u_i - hi_i and u_i - lo_i, so |fl(u_i - v_i)| is at most
    # the larger of their rounded sizes, and each kernel is monotone in every |d_i|. With
    # tau the far-corner distance, every form of the edge rule must call every sampled box
    # point compatible with u, and one ulp below it must call the far corner incompatible.
    # The samples hold, for each u, the corner farthest from it in every coordinate, so a
    # far corner that takes the nearer bound in some coordinate fails here.
    kernel = distance_fn(norm)
    for lo, hi, points in _boxes_with_points(random.Random(70 + 10 * dim + len(norm.value)), dim, 30, 3):
        sides = list(zip(lo, hi))
        farthest = [tuple(max((a, b), key=lambda t: abs(c - t)) for c, (a, b) in zip(u, sides)) for u in points]
        ops = points + farthest
        for u in points:
            corner = tuple(far_corner(u, lo, hi))
            assert all(c in ab for c, ab in zip(corner, sides))
            tau = kernel(u, corner)
            assert 0 not in edge_states(ops, tau, tau / 2, norm)(u, range(len(ops))), (u, lo, hi)
            if tau == 0.0:  # a box of zero width: no distance lies below
                continue
            below = math.nextafter(tau, 0.0)
            assert edge_states([corner], below, below / 2, norm)(u, (0,)) == [0], (u, lo, hi)


def test_stepping_past_a_stop_follows_the_oracle():
    # Trial 0 of the seed-44 path(4) experiment stops as dissensus at event 21, and
    # stepped on reaches consensus (test_dissensus_stop_is_final). Past a stop no witness
    # is kept, so step() runs the edge rule on each moved row and takes a banded edge
    # there as the new witness: is_stopped() must be the oracle's at every event, first
    # hold at event 21, and by event 61 every edge is compatible.
    g = path(4)
    params = ModelParams(tau=0.3, alpha=0.5)
    stopping = default_stopping(g, BOX01, params)
    engine = TrialEngine(g, BOX01, UniformShape(), params, stopping, trial_rng(44, 0))
    stopped = []
    for event in range(1, 62):
        assert engine.step() is not None and engine.events == event
        # compatible sets, rates, and is_stopped() against stop_reached, from scratch
        assert engine_view(engine) == oracle_view(rows(engine), g, stopping, params.tau, Norm.L2), event
        stopped.append(engine.is_stopped())
    assert stopped.index(True) == 20 and not all(stopped[20:])
    assert engine_view(engine).compat == ((1,), (0, 2), (1, 3), (2,))


@pytest.mark.parametrize("graph,norm,dim,tau,seed", [
    (lambda: erdos_renyi(60, 0.1, random.Random(1)), Norm.L2, 1, 0.45, 1),  # narrows at event 275, consensus
    (lambda: grid(6, 6), Norm.L1, 2, 0.7, 2),  # narrows at event 208, dissensus
    (lambda: cycle(40), Norm.L2, 1, 0.45, 0),  # narrows at event 209, dissensus
], ids=["erdos_renyi-1d", "grid-2d", "cycle-1d"])
def test_box_is_recomputed_once_per_window_and_bounds_the_opinions_when_narrow(monkeypatch, graph, norm, dim,
                                                                              tau, seed):
    # Trials that start with the opinions more than 2 tau apart. Wider than 2 tau the box
    # is neither grown nor used; it is looked at once every n events and recomputed if
    # wider than tau. So it is recomputed at most once per n events, it notices the
    # opinions' hull narrowing to 2 tau within n events, and whenever it is within 2 tau
    # it bounds every opinion, as the far-corner test needs. The trials stop at events
    # 1,287, 1,609 and 3,811; a run to 10,000 events fails.
    g, space = graph(), OpinionSpace(Box((0.0,) * dim, (1.0,) * dim), norm)
    params = ModelParams(tau=tau)
    kernel, n = distance_fn(norm), g.vertex_count
    engine = TrialEngine(g, space, UniformShape(), params, default_stopping(g, space, params), random.Random(seed))
    recomputes = instrument(engine, monkeypatch=monkeypatch)  # from here on: the constructor's is not counted
    assert kernel(*box(engine)) > 2 * tau
    narrowed = None
    while not engine.is_stopped():
        assert engine.events < 10_000, "no stop within 10,000 events"
        engine.step()
        hull = [[f(op[i] for op in rows(engine)) for i in range(dim)] for f in (max, min)]
        if narrowed is None and kernel(*hull) <= 2 * tau:
            narrowed = engine.events
        lo, hi = box(engine)
        if kernel(hi, lo) <= 2 * tau:
            assert all(a <= c <= b for op in rows(engine) for a, c, b in zip(lo, op, hi))
        else:
            assert narrowed is None or engine.events <= narrowed + n, (narrowed, engine.events)
        assert len(recomputes) <= engine.events // n
    assert narrowed > 2 * n


@pytest.mark.parametrize("run", ["run_to_stop", "run_to_stop in chunks", "step"])
def test_box_recomputes_fall_on_positive_multiples_of_n(monkeypatch, run):
    # The box is recomputed, while wider than tau, at each event that starts after a
    # positive multiple of n completed events. Each event loop takes that schedule from
    # the event count, so one run_to_stop call, calls resumed at caps off the schedule
    # (45 events apart) and one step() per event must recompute at the same events. This
    # trial stays wider than tau to its stop, so every multiple of n below it is one. It
    # stops at event 1,288; a run to its cap of 5,000 events fails.
    g, params = erdos_renyi(60, 0.1, random.Random(1)), ModelParams(tau=0.3)
    n, at = g.vertex_count, []  # the number of completed events at each recompute
    stopping = default_stopping(g, BOX01, params, max_events=5_000)

    def on_event(event, *_):
        if len(recomputes) > len(at):  # recomputed in this event, which started after event - 1
            at.append(event - 1)

    engine = TrialEngine(g, BOX01, UniformShape(), params, stopping, random.Random(0), on_event=on_event)
    recomputes = instrument(engine, monkeypatch=monkeypatch)
    while not engine.is_stopped():
        assert engine.events < stopping.max_events, "no stop within 5,000 events"
        if run == "step":
            engine.step()
        else:
            engine.run_to_stop(engine.events + 45 if run.endswith("chunks") else None)
    assert at and all(k > 0 and k % n == 0 for k in at)
    assert at == list(range(n, engine.events, n)) and engine.events == 1288


def _ulps_around(x: float, k: int) -> list[float]:
    """x and the k floats on each side of it."""
    out = [x]
    lo = hi = x
    for _ in range(k):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


@pytest.mark.parametrize("norm", list(Norm))
@pytest.mark.parametrize("tau,eps", [(0.8, 0.01 / 1000), (0.5 + 1e-9, 1e-11 / 20), (0.3, 0.3 / 4 / 7),
                                     # tau**2 and eps**2 underflow: an L2 kernel reads 0.0 up to ~1.5e-162
                                     (0.8e-200, 0.3e-200 / 400), (1e-170, 5e-324)])
def test_1d_comparisons_agree_with_the_kernel(norm, tau, eps):
    # The event loop's 1-D test |d| > tau, |d| < eps must give the kernel's
    # comparisons, at tau and eps and on 6 ulps either side, so tau and eps are
    # the exact cut points. Where an l2 square underflows, the eps is below the
    # stop floor of the smallest l2 shape, so no trial compares with it.
    kernel = distance_fn(norm)
    if norm is Norm.L2 and eps < 2.0**-511:
        space = OpinionSpace(Box((0.0,), (MIN_L2_EXTENT,)), norm)
        with pytest.raises(ValueError, match="ulps of the largest coordinate"):
            StoppingSpec(eps, eps).validate_for(path(1), space, ModelParams(tau))
        return
    for t in {u for c in (tau, eps) for u in _ulps_around(c, 6) if u >= 0}:
        for d in (t, -t):
            assert (abs(d) > tau) == (kernel((d,), (0.0,)) > tau), t
            assert (abs(d) < eps) == (kernel((0.0,), (d,)) < eps), t


_TINY_BOXES = {Norm.L1: (1e-200, 0.3e-200), Norm.LINF: (1e-200, 0.3e-200), Norm.L2: (1e-100, 0.3e-100)}


@pytest.mark.parametrize("norm", list(Norm))
def test_engine_on_tiny_box_matches_pure_operations(norm):
    # l1 and linf run real dynamics at any scale, l2 on shapes down to its
    # floor MIN_L2_EXTENT. With the smallest eps the box admits, the engine's
    # 1-D test of |d| against tau and eps must classify every edge as the kernel.
    hi, tau = _TINY_BOXES[norm]
    space = OpinionSpace(Box((0.0,), (hi,)), norm)
    g = cycle(7)
    params = ModelParams(tau=tau, alpha=0.5)
    floor = MIN_EPS_ULPS * coordinate_ulp(space.shape)
    eps_prime = math.nextafter(floor * 7, math.inf)
    stopping = StoppingSpec(eps_prime, eps_prime / 7)
    assert stopping.eps == math.nextafter(floor, math.inf)
    rng = random.Random(31)
    engine = TrialEngine(g, space, UniformShape(), params, stopping, rng)
    config = rows(engine)
    assert max(abs(u[0] - v[0]) for u, v in itertools.combinations(config, 2)) > params.tau
    for config, _, _, _ in replay(engine, rng, params):
        assert engine_view(engine) == oracle_view(config, g, stopping, params.tau, norm)
        if engine.is_stopped() or engine.events == 20_000:
            break
    assert engine.is_stopped() and engine.events > 100


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
    # equal a prefix sum exactly and small tau leaves zero-rate vertices. While
    # every edge is compatible the engine reads its owner table, and otherwise
    # descends its Fenwick tree: exact targets must reach both, through step()
    # and through run_to_stop, where at tau = 1.0 the box is within tau at once.
    graphs = [path(1), path(2), cycle(37), grid(10, 10), complete(33), cycle(129)]
    exact_targets = {}  # (by step(), every edge compatible) -> events whose target is an integer
    zero_rate_seen = False
    for gi, g in enumerate(graphs):
        full = sum(map(len, g.adjacency))
        for tau in (0.15, 1.0):
            for by_step in (True, False):
                params = ModelParams(tau=tau)
                stopping = default_stopping(g, BOX01, params, max_events=200)
                rng_engine = _EighthsRandom(1000 + gi)
                seen = []  # (vertex, opinions, selection draw) after each event

                def record(i, t, x, xc, opinions):
                    seen.append((x, repr(tuple(opinions)), rng_engine.last))

                engine = TrialEngine(g, BOX01, UniformShape(), params, stopping, rng_engine, on_event=record)
                rng_engine.eighths = True
                oracle = []  # (config, view, moved) before each event, from the engine's start
                for config, view, _, moved in replay(engine, rng_engine, params, step=False):
                    oracle.append((config, view, moved))
                    zero_rate_seen |= sum(map(len, view)) > 0 and () in view
                    if len(oracle) > 200:
                        break
                if by_step:
                    while engine.events < 200 and engine.step() is not None:
                        pass
                else:
                    engine.run_to_stop()
                assert len(seen) == engine.events < len(oracle)
                for (x, opinions, last), (_, view, _), (config, _, moved) in zip(seen, oracle, oracle[1:]):
                    assert (x, opinions) == (moved, repr(config))
                    total = sum(map(len, view))
                    key = (by_step, total == full)
                    exact_targets[key] = exact_targets.get(key, 0) + (last * total).is_integer()
    assert zero_rate_seen
    assert sorted(exact_targets) == [(False, False), (False, True), (True, False), (True, True)]
    assert all(count > 100 for count in exact_targets.values()), exact_targets


def test_owner_table_is_the_scan_at_every_target():
    # While every edge is compatible the engine picks owner[k] for the target
    # k = int(random() * total), total being the degree sum. gillespie_step's scan
    # picks the first vertex whose inclusive degree prefix sum exceeds the target,
    # and an int prefix sum exceeds a float target exactly when it exceeds its floor
    # k, so the two agree on every draw when they agree at every integer k.
    graphs = [path(1), path(2), cycle(37), grid(10, 10), complete(33), erdos_renyi(60, 0.08, random.Random(3))]
    for g in graphs:
        params = ModelParams(tau=1.0)
        engine = TrialEngine(g, BOX01, UniformShape(), params, default_stopping(g, BOX01, params), random.Random(0))
        owner, full = owner_table(engine), 2 * g.edge_count
        assert len(owner) == full
        sums = list(itertools.accumulate(map(len, g.adjacency)))
        for k in range(full):
            assert owner[k] == next(x for x, acc in enumerate(sums) if acc > k), (g.vertex_count, k)
    assert graphs[0].edge_count == 0 and graphs[-1].edge_count > 60


def _in_convex_hull(point, hull_points, tol=1e-9) -> bool:
    # feasibility LP: point = sum(lambda_i * hull_i), lambda >= 0, sum = 1, retried with slack
    # for boundary/degenerate cases
    pts = np.asarray(hull_points, dtype=float)
    a_eq = np.vstack([pts.T, np.ones(len(pts))])
    b_eq = np.concatenate([np.asarray(point, dtype=float), [1.0]])
    lp = dict(c=np.zeros(len(pts)), bounds=[(0, None)] * len(pts), method="highs")
    return bool(linprog(A_eq=a_eq, b_eq=b_eq, **lp).success or linprog(
        A_ub=np.vstack([a_eq, -a_eq]), b_ub=np.concatenate([b_eq + tol, -(b_eq - tol)]), **lp).success)


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
        initial = rows(engine)
        for _ in range(40):
            before = rows(engine)
            moved = engine.step()
            if moved is None or engine.is_stopped():
                break
            assert _in_convex_hull(rows(engine)[moved], before)
        for op in rows(engine):
            assert _in_convex_hull(op, initial)


def test_frozen_state_never_changes():
    # Random(1) draws 0.134 and 0.847, so the two vertices of path(2) take
    # atoms 0.5 apart, beyond tau = 0.1: the one edge is never compatible
    g = path(2)
    params = ModelParams(tau=0.1)
    stopping = default_stopping(g, BOX01, params, max_events=100)
    atoms = PointMasses((((0.0,), 0.5), ((0.5,), 0.5)))
    engine = TrialEngine(g, BOX01, atoms, params, stopping, random.Random(1))
    assert rows(engine) == ((0.0,), (0.5,))
    assert engine_view(engine).rates == (0, 0)
    assert engine.is_stopped()
    assert engine.step() is None
    assert engine.events == 0
    assert rows(engine) == ((0.0,), (0.5,))


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
    assert len(out.x_samples) == out.events + 1
    assert math.isfinite(out.x_samples[-1][1])
