"""Reference implementation of the dynamics: the test oracles for `TrialEngine`.

Each function states one step or one observation of the model directly, from
scratch on a tuple of opinion rows, in the summation order the engine keeps.
The engine must agree with them bit for bit; `replay` steps an engine and
these operations side by side on one random stream. `compatibility` and
`_neighbor_mean` are also the reference for `hkc.invariants.generator_drift`,
which runs the engine's own edge rule and update, and `check_event_a` is the
reference for the near-center trigger that `TrialEngine.outcome` decides.
`box_center_distance` is the reference for the box Monte Carlo bound,
`erdos_renyi_pairs` for the draw order of `hkc.graph.erdos_renyi`, and
`adjacency_defect` for the messages of `hkc.graph.SocialGraph`'s check.
`stop_reached` is the reference for the stop, which the engine decides by a
box of the opinions and one banded witness edge (the `hkc.dynamics` module
docstring).

This module is the one reader of the engine's private state, as
`tests/test_dead_imports.py` checks: `engine_view` (the record `View` that
`oracle_view` computes from scratch), `raw_state` (what `run_to_stop` and its
`step()` twin share bitwise), the readers `rows`, `box`, `witness` and
`owner_table`, and `instrument` (wraps the edge rule and the update, and
counts box recomputes).
"""

from __future__ import annotations

import random
from collections import deque
from functools import partial
from itertools import compress
from typing import Iterator, NamedTuple, Sequence

from hkc import dynamics
from hkc.dynamics import ModelParams, Rows, StoppingSpec, TrialEngine
from hkc.graph import SocialGraph
from hkc.space import Norm, OpinionSpace, distance_fn

# sorted compatible neighbors of each vertex; vertex x updates at rate len(view[x])
CompatibilityView = tuple[tuple[int, ...], ...]


def compatibility(opinions: Rows, g: SocialGraph, tau: float, norm: Norm) -> CompatibilityView:
    """Compatible-neighbor sets: graph neighbors within opinion distance tau (closed).

    Symmetric by construction: y in view[x] iff x in view[y]. Also the test
    oracle for the compatible sets of `engine_view`, read from the engine's
    incrementally kept edge-state table.
    """
    if len(opinions) != g.vertex_count:
        raise ValueError("configuration does not match the graph")
    kernel = distance_fn(norm)
    nbrs: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for u, v in g.edges():
        if kernel(opinions[u], opinions[v]) <= tau:
            nbrs[u].append(v)
            nbrs[v].append(u)
    return tuple(tuple(sorted(ns)) for ns in nbrs)


def _neighbor_mean(opinions, neighbors, dim: int) -> tuple[float, ...]:
    # Summation order (ascending neighbor id, then divide) is fixed so that
    # the incremental engine and these pure operations agree bitwise.
    sums = [0.0] * dim
    for y in neighbors:
        row = opinions[y]
        for i in range(dim):
            sums[i] += row[i]
    k = len(neighbors)
    return tuple(s / k for s in sums)


def apply_update(
    opinions: Rows, view: CompatibilityView, x: int, alpha: float
) -> tuple[tuple[float, ...], ...]:
    """The rows after opinion x is replaced by alpha * own + (1 - alpha) * local average.

    Test oracle for the update in `TrialEngine.step`, which must agree bitwise.
    """
    if not view[x]:
        raise ValueError(f"vertex {x} has no compatible neighbors; it cannot update")
    old = opinions[x]
    mean = _neighbor_mean(opinions, view[x], len(old))
    b = 1.0 - alpha
    new = tuple(alpha * old[i] + b * mean[i] for i in range(len(old)))
    return (*opinions[:x], new, *opinions[x + 1:])


def gillespie_step(view: CompatibilityView, rng: random.Random) -> tuple[float, int] | None:
    """Sample the next event: (holding time, updating vertex), or None if absorbed.

    Direct method: dt ~ Exponential(total rate), then the vertex is chosen
    with probability len(view[x]) / total rate. Consumes the stream in that order.
    The scan always stops: for an integer total below 2**53,
    random() * total < total holds exactly in float64. Test oracle for the
    engine's selection, the owner table's entry while every edge is
    compatible and the Fenwick descent otherwise, which must pick the same
    vertex, and for its inline holding time, which must have the same bits.
    """
    total = sum(map(len, view))
    if total == 0:
        return None
    dt = rng.expovariate(total)
    target = rng.random() * total
    acc = 0
    for x, nbrs in enumerate(view):
        acc += len(nbrs)
        if acc > target:
            return dt, x


def stop_reached(opinions: Rows, g: SocialGraph, spec: StoppingSpec, tau: float, norm: Norm) -> bool:
    """True iff every edge's opinion distance is strictly outside [eps, tau].

    Test oracle for `TrialEngine.is_stopped`, which keeps one banded witness edge.
    """
    kernel = distance_fn(norm)
    eps = spec.eps
    for u, v in g.edges():
        if eps <= kernel(opinions[u], opinions[v]) <= tau:
            return False
    return True


def total_disagreement(opinions: Rows, c: Sequence[float], norm: Norm) -> float:
    """Sum over vertices of the opinion distance to the reference point c.

    Test oracle, when c is the center, for the total center distance that
    `TrialEngine` records and passes to `on_event` after each event.
    """
    kernel = distance_fn(norm)
    if len(c) != len(opinions[0]):
        raise ValueError(f"reference point has dimension {len(c)}, expected {len(opinions[0])}")
    total = 0.0
    for row in opinions:
        total += kernel(row, c)
    return float(total)


def components(adjacency) -> tuple[tuple[int, ...], ...]:
    """Connected components, each sorted, ordered by smallest vertex.

    `adjacency[x]` may be any iterable of the neighbors of x (tuples, sets).
    Test oracle for `hkc.graph.is_connected`: one component iff connected.
    """
    seen = bytearray(len(adjacency))
    comps = []
    for start in range(len(adjacency)):
        if seen[start]:
            continue
        seen[start] = 1
        comp = [start]
        queue = deque(comp)
        while queue:
            for y in adjacency[queue.popleft()]:
                if not seen[y]:
                    seen[y] = 1
                    comp.append(y)
                    queue.append(y)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def adjacency_defect(n: int, adjacency) -> str | None:
    """The first `GraphValidationError` message of `SocialGraph(n, adjacency)`, or None.

    The same check stated entry by entry: each row in order must be sorted and
    duplicate-free, then each of its entries in order in range, not the row's own
    vertex, and mirrored in the neighbor's row; then the graph must be connected.
    Test oracle for the messages of the one-pass check in `SocialGraph.__post_init__`.
    """
    if n < 1:
        return "graph needs at least one vertex"
    if len(adjacency) != n:
        return "adjacency length does not match vertex count"
    nbr_sets = [set(nbrs) for nbrs in adjacency]
    for x, nbrs in enumerate(adjacency):
        if len(nbr_sets[x]) != len(nbrs) or tuple(sorted(nbrs)) != nbrs:
            return f"adjacency of {x} must be sorted and duplicate-free"
        for y in nbrs:
            if not 0 <= y < n:
                return f"neighbor {y} of {x} out of range"
            if y == x:
                return f"self-loop at vertex {x}"
            if x not in nbr_sets[y]:
                return f"edge ({x}, {y}) is not symmetric"
    if len(components(adjacency)) != 1:
        return "graph is not connected"
    return None


def erdos_renyi_pairs(n: int, p: float, rng: random.Random) -> tuple[tuple[int, ...], ...]:
    """G(n, p) conditioned on connectivity, one pair at a time; the oracle for `hkc.graph.erdos_renyi`.

    Each attempt visits the pairs (i, j), i < j, in lexicographic order and keeps
    an edge iff `rng.random() < p`; a disconnected sample is drawn again. Returns
    the sorted adjacency.
    """
    while True:
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    nbrs[i].add(j)
                    nbrs[j].add(i)
        adjacency = tuple(tuple(sorted(s)) for s in nbrs)
        if len(components(adjacency)) == 1:
            return adjacency


def agreement_components(
    opinions: Rows, g: SocialGraph, eps: float, norm: Norm
) -> tuple[tuple[int, ...], ...]:
    """Components of the subgraph of edges with opinion distance strictly below eps."""
    kernel = distance_fn(norm)
    ops = opinions
    return components(
        [[y for y in nbrs if kernel(ops[x], ops[y]) < eps] for x, nbrs in enumerate(g.adjacency)]
    )


def classify_consensus(
    opinions: Rows, g: SocialGraph, spec: StoppingSpec, tau: float, norm: Norm
) -> bool:
    """Classify a stopped configuration: does it lead to global agreement?

    At a stopping state every edge is either a near-agreement edge (< eps) or
    frozen (> tau); each near-agreement component contracts to a single limit
    opinion, so the state leads to consensus exactly when the near-agreement
    subgraph spans the whole vertex set. This is a stop-time proxy for the
    asymptotic event, reported as classification "T_eps_proxy".

    Test oracle for `TrialEngine.outcome`, which decides the same thing from
    its compatible-neighbor sets.
    """
    if not stop_reached(opinions, g, spec, tau, norm):
        raise ValueError("classification is only defined at a stopping configuration")
    comps = agreement_components(opinions, g, spec.eps, norm)
    return len(comps) == 1


def check_event_a(opinions: Rows, space: OpinionSpace, tau: float, eps_prime: float) -> bool:
    """Event A: whether some opinion lies strictly within tau - radius - eps_prime of the center.

    At a stopping state this condition forces every other opinion into the
    same near-agreement component, so it guarantees eventual consensus. Only
    defined when tau > radius + eps_prime. Test oracle for `TrialEngine.outcome`,
    which decides it with its space's kernel and returns None where it is undefined.
    """
    if not tau > space.radius + eps_prime:
        raise ValueError(
            f"event A is undefined: tau={tau} does not exceed radius + eps_prime "
            f"(radius={space.radius}, eps_prime={eps_prime})"
        )
    threshold = tau - space.radius - eps_prime
    kernel = distance_fn(space.norm)
    return any(kernel(row, space.center) < threshold for row in opinions)


def box_center_distance(space: OpinionSpace, samples: int, rng: random.Random) -> float:
    """Monte Carlo mean distance from the center of a uniform draw on a box, by the loop kernel.

    Each draw is sample_initial's, random.uniform(a, b) = a + (b - a) * random()
    coordinate by coordinate, and the distances are added left to right from 0.0.
    Test oracle for `expected_center_distance` on a box, which must agree bitwise
    on the same stream.
    """
    kernel = distance_fn(space.norm)
    center = space.center
    box = tuple((a, b - a) for a, b in zip(space.shape.lo, space.shape.hi))
    rand = rng.random
    total = 0.0
    for _ in range(samples):
        total += kernel(tuple([a + w * rand() for a, w in box]), center)
    return total / samples


def replay(
    engine: TrialEngine, rng: random.Random, params: ModelParams, step: bool = True
) -> Iterator[tuple[Rows, CompatibilityView, float, int | None]]:
    """Run the oracles from the engine's opinions on a copy of `rng`, the engine's stream.

    The copy is taken when iteration starts. Yields (config, view, time,
    moved) before each event: the opinions, the compatible-neighbor sets, the
    summed holding times, and the vertex the last event updated (None before
    the first); ends when absorbed. With `step`, the engine runs one event per
    oracle event and must pick the same vertex and reach bitwise the same
    opinions.
    """
    pure = type(rng)()
    pure.setstate(rng.getstate())
    vars(pure).update(vars(rng))  # attributes of a Random subclass too
    g, norm = engine.g, engine.space.norm
    config = rows(engine)
    time = 0.0
    moved = None
    while True:
        view = compatibility(config, g, params.tau, norm)
        yield config, view, time, moved
        event = gillespie_step(view, pure)
        if step:
            assert engine.step() == (None if event is None else event[1])
        if event is None:
            return
        dt, moved = event
        config = apply_update(config, view, moved, params.alpha)
        time += dt
        if step:
            assert repr(rows(engine)) == repr(config)


class View(NamedTuple):
    """The engine's bookkeeping as `engine_view` reads it and `oracle_view` computes it."""

    compat: CompatibilityView  # sorted compatible neighbors of each vertex
    rates: tuple[int, ...]  # each vertex's rate, as the Fenwick tree holds it
    stopped: bool


def engine_view(engine: TrialEngine) -> View:
    """The nonzero entries of the engine's edge-state table, the rates by differences of its Fenwick tree's
    prefix sums, which read every node (those of the zero padding are kept only if nonzero), and `is_stopped()`."""
    tree = engine._tree

    def prefix(i: int) -> int:
        return tree[i] + prefix(i - (i & -i)) if i else 0

    rates = [prefix(i) - prefix(i - 1) for i in range(1, len(tree))]
    while len(rates) > engine.g.vertex_count and not rates[-1]:
        rates.pop()
    compat = tuple(tuple(compress(nbrs, row)) for nbrs, row in zip(engine.g.adjacency, engine._state))
    return View(compat, tuple(rates), engine.is_stopped())


def oracle_view(config: Rows, g: SocialGraph, spec: StoppingSpec, tau: float, norm: Norm) -> View:
    """`compatibility`, each vertex's number of compatible neighbors and `stop_reached`, from scratch."""
    compat = compatibility(config, g, tau, norm)
    return View(compat, tuple(map(len, compat)), stop_reached(config, g, spec, tau, norm))


def raw_state(engine: TrialEngine) -> tuple:
    """What `run_to_stop` and its `step()` twin must share bitwise: the rows (by repr, so that -0.0 and 0.0
    differ), time, events, the edge-state table with its stale nonzero entries, the Fenwick tree and the witness."""
    return repr(rows(engine)), engine.time, engine.events, engine._state, engine._tree, engine._witness


def rows(engine: TrialEngine) -> Rows:
    """The engine's opinions, one row per vertex."""
    return tuple(engine.opinions)


def box(engine: TrialEngine) -> tuple[list[float], list[float]]:
    """The corners (lo, hi) of the engine's box of the opinions, as the event loop last left it."""
    return engine._lo, engine._hi


def witness(engine: TrialEngine) -> tuple[int, int] | None:
    """The engine's banded witness edge (v, y), or None when it is stopped."""
    return engine._witness


def owner_table(engine: TrialEngine) -> list[int]:
    """The engine's owner table: deg(v) copies of each vertex v, in order."""
    return engine._owner


def instrument(engine: TrialEngine, states=None, update=None, monkeypatch=None) -> list[None]:
    """Wrap the engine's edge rule `rule(op, nbrs)` as `states(rule, op, nbrs)` and its update `rule(ys, old)` as
    `update(rule, ys, old)`, where given. With the `monkeypatch` fixture, the returned list gains an entry each
    time the opinions' box is recomputed from the rows (by an event loop, or a later engine's constructor)."""
    if states is not None:
        engine._states = partial(states, engine._states)
    if update is not None:
        engine._update = partial(update, engine._update)
    recomputes: list[None] = []
    if monkeypatch is not None:
        bounds = dynamics._bounds
        monkeypatch.setattr(dynamics, "_bounds", lambda ops: recomputes.append(None) or bounds(ops))
    return recomputes
