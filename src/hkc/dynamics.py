"""Continuous-time engine for threshold-gated neighbor averaging on a graph.

Each vertex updates at rate equal to its number of compatible neighbors
(graph neighbors within opinion distance tau, closed inequality). An update
replaces the vertex opinion with

    alpha * own + (1 - alpha) * mean(compatible neighbors)

Event scheduling is the exact direct method: the holding time is exponential
at the total rate and the updating vertex is chosen with probability
proportional to its own rate. The engine finds that vertex with an O(log n)
descent of a Fenwick tree over the integer rates, which picks the same vertex
as the direct method's linear scan for every draw (`gillespie_step` in
`tests/oracles.py`, the reference implementation of the dynamics). Edge
state lives in one table aligned with the adjacency lists, with a count of
in-band edges (`TrialEngine`). The edge rule (`edge_states`) and the update
(`update_rule`) are each stated once; the engine and `hkc.invariants` both run
them. One event loop runs every event, with the engine's state in local
variables.

Both rules pick a form once, by (norm, dim), before any event. On the 2-D L2
space the forms are straight-line code with no kernel call per edge or per
coordinate: the edge rule computes each distance inline, by the expression of
the straight-line kernel `distance_fn(Norm.L2, 2)`, and the update keeps one
accumulator per coordinate over a single pass of the neighbors (in any 2-D
space). Each is bitwise equal to the loop form: the same float operations on
the same operands in the same order, every sum taken left to right from 0.0.
For that reason no form uses `sum()` (compensated from Python 3.12),
`math.fsum`, `math.hypot` or `math.dist` (rounded differently), or numpy. The
1-D edge rule compares |u - v|; every other space calls the kernel
`distance_fn(norm, dim)` and loops over coordinates in the update.

A trial stops at the first time every edge's opinion distance falls strictly
outside [eps, tau] (either near-agreement or frozen), or when an event cap is
hit.

`run_to_stop` (not `step`) skips the edge rule in a certified phase. It
enters it when every edge is compatible (the total rate is twice the edge
count, an O(1) test) and the kernel distance between the corners of the
opinions' bounding box is at most tau (O(n * dim), tested at most once every
n events). Every pair of points in the box is then within tau: rounding is
monotone, so |fl(u_i - v_i)| <= fl(hi_i - lo_i), and each kernel is monotone
in every |d_i|. An update is a convex combination of compatible opinions, so
the hull only shrinks (Moreau 2005) and no edge can become incompatible.
Each event then runs only the selection and the update from all neighbors,
and grows the box by the new opinion, since an update can round an ulp out
of the hull; the phase ends if that takes the box beyond tau. The stop is
found exactly by one banded witness edge, examined again only when one of
its ends moves. When it is no longer banded, a scan of the adjacency rows
from its end finds another, or finds none, which is the stop at that same
event. Every exit (stop, cap or box growth) rebuilds the edge-state table,
the banded count and the Fenwick tree with the builder `__init__` uses. The
phase only skips work: each event draws the same numbers, picks the same
vertex, and averages the same neighbors in the same order as the general
loop, and the trial stops at the same event, so no report, trace or pinned
byte changes. Inside an `on_event` callback during the phase, `is_stopped()`
is False until the event that stops the trial, as in the general loop.

At a stop every compatible edge (distance <= tau) is a near-agreement edge
(distance < eps), and a stopped trial is classified as consensus exactly
when its compatible-neighbor graph is connected. A consensus stop is final.
A dissensus stop is a proxy and may not be: a near-agreement component moves
as it contracts, which can bring a frozen edge back within tau and merge two
components later, so p_hat can be biased low (open item 1 in ROADMAP.md).

Trials are deterministic functions of their random stream: the stream is
consumed in a fixed order (holding time, then vertex choice, per event).
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import chain, compress
from math import sqrt
from operator import add, itemgetter
from typing import Callable, Sequence

import numpy as np

from .graph import SocialGraph, is_connected
from .space import (
    InitialDistribution,
    Norm,
    OpinionSpace,
    coordinate_ulp,
    distance_fn,
    sample_initial,
    validate_distribution,
)

DEFAULT_MAX_EVENTS = 10**7
# averaging need not bring two opinions closer than a few float spacings, so an eps
# this many ulps of the largest coordinate or below may never let a trial stop
MIN_EPS_ULPS = 64

# a configuration: one opinion vector per vertex, as the engine stores it
Rows = Sequence[tuple[float, ...]]

# on_event callback: (event index, time, updated vertex, center distance total, opinions)
EventCallback = Callable[[int, float, int, float, list[tuple[float, ...]]], None]

# sorted compatible neighbors of each vertex; vertex x updates at rate len(view[x])
CompatibilityView = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ModelParams:
    """Confidence threshold tau and stubbornness weight alpha."""

    tau: float
    alpha: float = 0.0

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        # alpha = 1 would never move an opinion, so every banded trial would run to the cap
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")


@dataclass(frozen=True, eq=False)
class Configuration:
    """A trial's final opinions as a read-only (vertices, dim) float array."""

    opinions: np.ndarray

    def __post_init__(self):
        arr = np.array(self.opinions, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"opinions must be a (vertices, dim) array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("opinions must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "opinions", arr)


@dataclass(frozen=True)
class StoppingSpec:
    """Stop-detection band [eps, tau] and the per-trial event cap.

    eps is tied to eps_prime by eps = eps_prime / vertex_count so that the
    near-center consensus trigger is checkable exactly as stated; see
    `default_stopping`.
    """

    eps_prime: float
    eps: float
    max_events: int = DEFAULT_MAX_EVENTS

    def __post_init__(self):
        if not self.eps_prime > 0:
            raise ValueError(f"eps_prime must be positive, got {self.eps_prime}")
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.max_events < 1:
            raise ValueError("max_events must be >= 1")

    def validate_for(self, g: SocialGraph, space: OpinionSpace, params: ModelParams) -> None:
        """Check the spec against its trial; eps must exceed MIN_EPS_ULPS ulps of the largest coordinate."""
        if self.eps != self.eps_prime / g.vertex_count:
            raise ValueError(
                f"eps must equal eps_prime / vertex_count = "
                f"{self.eps_prime / g.vertex_count!r}, got {self.eps!r}"
            )
        if not self.eps_prime < params.tau / 2:
            raise ValueError(f"eps_prime must be < tau/2 = {params.tau / 2}, got {self.eps_prime}")
        floor = MIN_EPS_ULPS * coordinate_ulp(space.shape)
        if not self.eps > floor:
            raise ValueError(
                f"eps = eps_prime / vertex_count = {self.eps!r} is not above {MIN_EPS_ULPS} ulps of the largest "
                f"coordinate ({floor!r}), so trials may never stop"
            )


def default_stopping(
    g: SocialGraph,
    space: OpinionSpace,
    params: ModelParams,
    eps_prime: float | None = None,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> StoppingSpec:
    """Build a StoppingSpec with the default eps_prime rule.

    Default eps_prime = min(0.01 * (tau - radius), tau / 4) when tau exceeds
    the space radius, else tau / 4: keeps eps_prime in (0, tau/2) and keeps
    tau - radius - eps_prime positive whenever the consensus bound applies.
    The spec is checked by `StoppingSpec.validate_for`.
    """
    tau = params.tau
    rule = eps_prime is None
    if rule:
        slack = tau - space.radius
        eps_prime = min(0.01 * slack, tau / 4) if slack > 0 else tau / 4
    spec = StoppingSpec(eps_prime=eps_prime, eps=eps_prime / g.vertex_count, max_events=max_events)
    try:
        spec.validate_for(g, space, params)
    except ValueError as exc:
        if not rule:
            raise
        # the rule keeps eps_prime below tau/2, so only the eps floor can fail here
        raise ValueError(f"{exc}; the default rule derived eps_prime = {eps_prime!r} from tau = {tau!r}") from None
    return spec


@dataclass(frozen=True, eq=False)
class TrialOutcome:
    """Result of one trial.

    consensus and event_a are None (undetermined) when the trial hit its
    event cap before stopping. x_samples holds (time, total center distance)
    pairs, one for the initial state and one after each event, when sample
    recording is on, and is empty otherwise.
    """

    stopped: bool
    stop_time: float
    events: int
    consensus: bool | None
    event_a: bool | None
    final: Configuration
    x_samples: tuple[tuple[float, float], ...]


def event_a_applicable(space: OpinionSpace, tau: float, eps_prime: float) -> bool:
    """Whether the near-center trigger (event A) is defined for these parameters."""
    return tau > space.radius + eps_prime


def edge_states(opinions: Rows, tau: float, eps: float, norm: Norm, dim: int) -> Callable[..., list[int]]:
    """The edge rule: `states(op, nbrs)` lists the state of the edge from opinion op to each vertex
    of nbrs, 0 (distance > tau, incompatible), 1 (< eps, near) or 2 (in [eps, tau], banded).

    The form is chosen once, by (norm, dim). In one dimension it compares |u - v|, as the kernel does
    on the shapes `OpinionSpace` accepts (`MIN_L2_EXTENT`). Under L2 in two it computes the distance
    inline, by the expression of `distance_fn(Norm.L2, 2)`; otherwise it calls `distance_fn(norm, dim)`.
    """
    if dim == 1:
        def states(op: tuple[float, ...], nbrs: Sequence[int]) -> list[int]:
            u = op[0]
            return [0 if (d := abs(u - opinions[y][0])) > tau else 1 if d < eps else 2 for y in nbrs]
    elif dim == 2 and norm is Norm.L2:
        def states(op: tuple[float, ...], nbrs: Sequence[int]) -> list[int]:
            u0, u1 = op
            out = []
            for y in nbrs:
                v0, v1 = opinions[y]
                d0 = u0 - v0
                d1 = u1 - v1
                d = sqrt(d0 * d0 + d1 * d1)
                out.append(0 if d > tau else 1 if d < eps else 2)
            return out
    else:
        kernel = distance_fn(norm, dim)

        def states(op: tuple[float, ...], nbrs: Sequence[int]) -> list[int]:
            return [0 if (d := kernel(op, opinions[y])) > tau else 1 if d < eps else 2 for y in nbrs]
    return states


def update_rule(opinions: Rows, alpha: float, dim: int) -> Callable[..., tuple[float, ...]]:
    """The update rule: `update(ys, old)` is alpha * old + (1 - alpha) * (the sum of the rows ys,
    taken left to right in the order of ys, / len(ys)), coordinate by coordinate.

    The form is chosen once, by dim: in two dimensions one pass over ys keeps an accumulator per
    coordinate, which adds the same terms in the same order as the loop over coordinates.
    """
    a, b = alpha, 1.0 - alpha
    if dim == 2:
        def update(ys: Sequence[int], old: tuple[float, ...]) -> tuple[float, ...]:
            m0 = m1 = 0.0
            for y in ys:
                v = opinions[y]
                m0 += v[0]
                m1 += v[1]
            k = len(ys)
            return (a * old[0] + b * (m0 / k), a * old[1] + b * (m1 / k))
    else:
        def update(ys: Sequence[int], old: tuple[float, ...]) -> tuple[float, ...]:
            k = len(ys)
            new = []
            for i in range(dim):
                m = 0.0
                for y in ys:
                    m += opinions[y][i]
                new.append(a * old[i] + b * (m / k))
            return tuple(new)
    return update


class TrialEngine:
    """Single-trial state machine with incremental edge bookkeeping.

    `_state[x][j]` is the state of the edge from x to `adjacency[x][j]` under
    `edge_states`, and the trial is stopped when `_banded_count`, the number of
    edges in state 2, is zero. `_states(op, nbrs)` builds every row of the
    initial table, from both ends of each edge (the kernels are symmetric
    bitwise), and the row of each updated vertex. Adjacency rows are
    sorted, so a changed edge's mirror entry is found by bisection. A vertex's
    rate, its number of nonzero entries, sits in a Fenwick tree whose root is
    the total rate. After an update only the edges at the updated vertex are
    recomputed; tests pin equivalence with full recomputation by the oracles in
    `tests/oracles.py`. `step` and `run_to_stop` both run the one event loop,
    `_run`; only `run_to_stop` enters the certified phase (module docstring),
    which skips the edge rule and the table with the same events and bytes,
    and rebuilds the table with `_build` on leaving it. Inside
    an `on_event` callback during the phase, `is_stopped()` is False until the
    event that stops the trial and `compat` is exact (every edge is
    compatible); only the near and banded entries of `_state` and the value
    of `_banded_count` are stale. `outcome` decides event A with the engine's
    own kernel and center. Not thread-safe; one engine and one stream per trial.
    """

    def __init__(
        self,
        g: SocialGraph,
        space: OpinionSpace,
        dist: InitialDistribution,
        params: ModelParams,
        stopping: StoppingSpec,
        rng: random.Random,
        record_samples: bool = False,
        on_event: EventCallback | None = None,
    ):
        stopping.validate_for(g, space, params)
        validate_distribution(dist, space)
        self.g = g
        self.space = space
        self.stopping = stopping
        self.rng = rng
        self._kernel = kernel = distance_fn(space.norm, space.dim)
        self._tau = tau = params.tau
        self._center = center = space.center
        n = g.vertex_count
        self.opinions = opinions = [sample_initial(dist, space, rng) for _ in range(n)]
        self._states = edge_states(opinions, tau, stopping.eps, space.norm, space.dim)
        self._update = update_rule(opinions, params.alpha, space.dim)
        # Fenwick tree over rates, zero-padded to a power-of-two size so the descent
        # needs no bounds check and the root tree[size] is the total
        self._size = 1 << (n - 1).bit_length()
        self._full_rate = sum(map(len, g.adjacency))  # the total rate when every edge is compatible
        self._build()
        self.time = 0.0
        self.events = 0
        self._on_event = on_event
        # each vertex's center distance, kept while observing: an event changes one entry,
        # and the list is added left to right from 0.0, as a from-scratch sum over the rows would be
        observed = record_samples or on_event is not None
        self._center_dists = [kernel(op, center) for op in opinions] if observed else None
        # (time, total center distance) pairs, from the initial state on
        self._samples = [(0.0, reduce(add, self._center_dists, 0.0))] if record_samples else None

    @property
    def compat(self) -> CompatibilityView:
        """Sorted compatible neighbors of each vertex, read from the edge-state table."""
        return tuple(
            tuple(y for y, s in zip(nbrs, row) if s) for nbrs, row in zip(self.g.adjacency, self._state)
        )

    def is_stopped(self) -> bool:
        return not self._banded_count

    def step(self) -> int | None:
        """Execute one event; returns the updated vertex, or None when absorbed."""
        return self._run(self.events + 1, True)

    def run_to_stop(self, max_events: int | None = None) -> None:
        """Step until the stopping band empties or the event cap is hit."""
        self._run(self.stopping.max_events if max_events is None else max_events, False)

    def _build(self) -> None:
        """Build the edge-state table, the banded count and the Fenwick tree (in O(n)) from the opinions."""
        states, size = self._states, self._size
        self._state = state = [states(op, nbrs) for op, nbrs in zip(self.opinions, self.g.adjacency)]
        self._banded_count = sum(row.count(2) for row in state) // 2
        tree = [0] + [len(row) - row.count(0) for row in state] + [0] * (size - len(state))
        for i in range(1, size):
            tree[i + (i & -i)] += tree[i]
        self._tree = tree

    def _run(self, cap: int, once: bool) -> int | None:
        """The event loop: events until `cap`, and while edges are banded unless `once`.

        Returns the last updated vertex, or None when absorbed. The engine's
        state lives in locals for the whole run; the counters are written back
        on exit and before each observation. Unless `once`, the loop runs the
        certified phase (module docstring) while it holds, and rebuilds the
        table with `_build` whenever it leaves it.
        """
        tree, size, state, states, update = self._tree, self._size, self._state, self._states, self._update
        expovariate, rand = self.rng.expovariate, self.rng.random
        opinions, adjacency = self.opinions, self.g.adjacency
        banded, events, time = self._banded_count, self.events, self.time
        samples, on_event, dists = self._samples, self._on_event, self._center_dists
        kernel, center, tau = self._kernel, self._center, self._tau
        full, n, dim = self._full_rate, len(opinions), self.space.dim
        # in the certified phase lo and hi bound every opinion with kernel(hi, lo) <= tau,
        # and (wu, wv) is a banded edge; the box is tested again from event `check` on
        certified = False
        check = events
        x = None
        while events < cap and (banded or once):
            total = tree[size]
            if not total:
                break  # absorbed; banded edges imply compatible ones, so only under `once`
            if total == full and not certified and not once and events >= check:
                # a pass per coordinate: zip(*opinions) would allocate an iterator per row, n objects
                # that the cyclic garbage collector counts, and set off its collections inside the trial
                lo = [min(map(itemgetter(i), opinions)) for i in range(dim)]
                hi = [max(map(itemgetter(i), opinions)) for i in range(dim)]
                if kernel(hi, lo) <= tau:
                    certified = True
                    wu = next(v for v, row in enumerate(state) if 2 in row)
                    wv = adjacency[wu][state[wu].index(2)]
                else:
                    check = events + n
            dt = expovariate(total)
            # x is the first vertex whose inclusive rate prefix sum exceeds rand() * total, as in
            # the scan of gillespie_step (tests/oracles.py). Prefix sums are ints, and an int is
            # <= a nonnegative float exactly when it is <= the float's floor k, so the descent
            # finds the longest prefix with sum <= k, taking each node it passes off k.
            k = int(rand() * total)
            x = 0
            bit = size >> 1
            while bit:
                s = tree[x + bit]
                if s <= k:
                    x += bit
                    k -= s
                bit >>= 1
            nbrs = adjacency[x]
            if certified:
                new = opinions[x] = update(nbrs, opinions[x])
                grew = False
                for i, c in enumerate(new):
                    if c > hi[i]:
                        hi[i] = c
                        grew = True
                    elif c < lo[i]:
                        lo[i] = c
                        grew = True
                if grew and kernel(hi, lo) > tau:
                    # the update rounded out of the hull far enough to void the certificate
                    certified = False
                    check = events + n
                    state = self._state = None  # drop the old table first, so the rebuild adds no peak memory
                    self._build()
                    tree, state, banded = self._tree, self._state, self._banded_count
                elif (x == wu or x == wv) and states(opinions[wu], (wv,))[0] != 2:
                    # the witness is no longer banded: scan the rows from its end for another edge
                    # of the upper triangle that is; none left is the stop
                    for v in chain(range(wu, n), range(wu)):
                        ys = adjacency[v]
                        ys = ys[bisect_right(ys, v):]
                        row = states(opinions[v], ys)
                        if 2 in row:
                            wu, wv = v, ys[row.index(2)]
                            break
                    else:
                        banded = 0
            else:
                row = state[x]
                new = opinions[x] = update(list(compress(nbrs, row)), opinions[x])
                fresh = states(new, nbrs)
                if fresh != row:
                    for j, s in enumerate(fresh):
                        was = row[j]
                        if s != was:
                            y = nbrs[j]
                            state[y][bisect_left(adjacency[y], x)] = s
                            banded += (s == 2) - (was == 2)
                            if not (s and was):  # compatibility flipped: both rates move
                                delta = 1 if s else -1
                                for v in (x, y):
                                    i = v + 1
                                    while i <= size:
                                        tree[i] += delta
                                        i += i & -i
                    state[x] = fresh
            time += dt
            events += 1
            if dists is not None:
                self.events, self.time, self._banded_count = events, time, banded
                dists[x] = kernel(new, center)
                xc = reduce(add, dists, 0.0)
                if samples is not None:
                    samples.append((time, xc))
                if on_event is not None:
                    on_event(events, time, x, xc, opinions)
        if certified:  # stopped or capped in the phase
            state = self._state = None
            self._build()
            banded = self._banded_count
        self.events, self.time, self._banded_count = events, time, banded
        return x

    def outcome(self) -> TrialOutcome:
        """Freeze the current state into a TrialOutcome, classifying if stopped.

        A stopped trial is consensus iff its compatible-neighbor graph is
        connected; a dissensus verdict may not be final (see the module
        docstring). Event A, some opinion strictly within tau - radius - eps_prime
        of the center under the engine's kernel, is decided where `event_a_applicable`.
        """
        stopped = self.is_stopped()
        consensus: bool | None = None
        event_a: bool | None = None
        if stopped:
            consensus = is_connected(self.compat)
            eps_prime = self.stopping.eps_prime
            if event_a_applicable(self.space, self._tau, eps_prime):
                threshold = self._tau - self.space.radius - eps_prime
                event_a = any(self._kernel(row, self._center) < threshold for row in self.opinions)
        return TrialOutcome(
            stopped=stopped,
            stop_time=self.time,
            events=self.events,
            consensus=consensus,
            event_a=event_a,
            final=Configuration(self.opinions),
            x_samples=tuple(self._samples or ()),
        )
