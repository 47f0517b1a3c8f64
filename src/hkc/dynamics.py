"""Continuous-time engine for threshold-gated neighbor averaging on a graph.

Each vertex updates at rate equal to its number of compatible neighbors
(graph neighbors within opinion distance tau, closed inequality). An update
replaces the vertex opinion with

    alpha * own + (1 - alpha) * mean(compatible neighbors)

Event scheduling is the exact direct method: the holding time is exponential
at the total rate and the updating vertex is chosen with probability
proportional to its own rate. The engine finds that vertex with an O(log n)
descent of a Fenwick tree over the integer rates, which picks the same vertex
as the direct method's linear scan (`gillespie_step`) for every draw.

A trial stops at the first time every edge's opinion distance falls strictly
outside [eps, tau] (either near-agreement or frozen), or when an event cap is
hit.

At a stop every compatible edge (distance <= tau) is a near-agreement edge
(distance < eps). Each near-agreement component contracts to one limit
opinion while the other edges stay frozen, so a stopped trial reaches
consensus exactly when its compatible-neighbor graph is connected.

Trials are deterministic functions of their random stream: the stream is
consumed in a fixed order (holding time, then vertex choice, per event).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graph import SocialGraph, is_connected
from .space import (
    InitialDistribution,
    Norm,
    OpinionSpace,
    distance_fn,
    sample_initial,
    validate_distribution,
)

DEFAULT_MAX_EVENTS = 10**7

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
    """Per-vertex opinion vectors as a read-only (vertices, dim) float array."""

    opinions: np.ndarray

    def __post_init__(self):
        arr = np.array(self.opinions, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"opinions must be a (vertices, dim) array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("opinions must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "opinions", arr)

    @classmethod
    def from_rows(cls, rows) -> "Configuration":
        return cls(np.array([tuple(r) for r in rows], dtype=np.float64))

    @property
    def n_vertices(self) -> int:
        return self.opinions.shape[0]

    @property
    def dim(self) -> int:
        return self.opinions.shape[1]


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

    def validate_for(self, g: SocialGraph, params: ModelParams) -> None:
        if self.eps != self.eps_prime / g.vertex_count:
            raise ValueError(
                f"eps must equal eps_prime / vertex_count = "
                f"{self.eps_prime / g.vertex_count!r}, got {self.eps!r}"
            )
        if not self.eps_prime < params.tau / 2:
            raise ValueError(f"eps_prime must be < tau/2 = {params.tau / 2}, got {self.eps_prime}")


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
    """
    tau = params.tau
    if eps_prime is None:
        slack = tau - space.radius
        eps_prime = min(0.01 * slack, tau / 4) if slack > 0 else tau / 4
    spec = StoppingSpec(eps_prime=eps_prime, eps=eps_prime / g.vertex_count, max_events=max_events)
    spec.validate_for(g, params)
    return spec


@dataclass(frozen=True, eq=False)
class TrialOutcome:
    """Result of one trial.

    consensus and event_a are None (undetermined) when the trial hit its
    event cap before stopping. x_samples holds (time, total center distance)
    rows, one per event plus the initial state, when sample recording is on.
    """

    stopped: bool
    stop_time: float
    events: int
    consensus: bool | None
    event_a: bool | None
    final: Configuration
    x_samples: np.ndarray


def compatibility(config: Configuration, g: SocialGraph, tau: float, norm: Norm) -> CompatibilityView:
    """Compatible-neighbor sets: graph neighbors within opinion distance tau (closed).

    Symmetric by construction: y in view[x] iff x in view[y].
    """
    if config.n_vertices != g.vertex_count:
        raise ValueError("configuration does not match the graph")
    kernel = distance_fn(norm)
    ops = config.opinions
    nbrs: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for u, v in g.edges():
        if kernel(ops[u], ops[v]) <= tau:
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
    return tuple(float(s / k) for s in sums)


def apply_update(config: Configuration, view: CompatibilityView, x: int, alpha: float) -> Configuration:
    """Replace opinion x with alpha * own + (1 - alpha) * local average."""
    if not view[x]:
        raise ValueError(f"vertex {x} has no compatible neighbors; it cannot update")
    mean = _neighbor_mean(config.opinions, view[x], config.dim)
    old = config.opinions[x]
    b = 1.0 - alpha
    new_rows = np.array(config.opinions, copy=True)
    new_rows[x] = [alpha * old[i] + b * mean[i] for i in range(config.dim)]
    return Configuration(new_rows)


def gillespie_step(
    config: Configuration,
    view: CompatibilityView,
    params: ModelParams,
    rng: random.Random,
) -> tuple[float, int] | None:
    """Sample the next event: (holding time, updating vertex), or None if absorbed.

    Direct method: dt ~ Exponential(total rate), then the vertex is chosen
    with probability len(view[x]) / total rate. Consumes the stream in that order.
    The scan always stops: for an integer total below 2**53,
    random() * total < total holds exactly in float64. Test oracle for the
    Fenwick descent in `TrialEngine.step`, which must pick the same vertex.
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


def event_a_applicable(space: OpinionSpace, tau: float, eps_prime: float) -> bool:
    """Whether the near-center trigger (event A) is defined for these parameters."""
    return tau > space.radius + eps_prime


def check_event_a(config: Configuration, space: OpinionSpace, tau: float, eps_prime: float) -> bool:
    """Whether some opinion lies strictly within tau - radius - eps_prime of the center.

    At a stopping state this condition forces every other opinion into the
    same near-agreement component, so it guarantees eventual consensus. Only
    defined when `event_a_applicable`.
    """
    if not event_a_applicable(space, tau, eps_prime):
        raise ValueError(
            f"event A is undefined: tau={tau} does not exceed radius + eps_prime "
            f"(radius={space.radius}, eps_prime={eps_prime})"
        )
    threshold = tau - space.radius - eps_prime
    kernel = distance_fn(space.norm)
    center = space.center
    return any(kernel(row, center) < threshold for row in config.opinions)


def stop_reached(
    config: Configuration, g: SocialGraph, spec: StoppingSpec, tau: float, norm: Norm
) -> bool:
    """True iff every edge's opinion distance is strictly outside [eps, tau].

    Test oracle for `TrialEngine.is_stopped`, which tracks the in-band edges.
    """
    kernel = distance_fn(norm)
    ops = config.opinions
    eps = spec.eps
    for u, v in g.edges():
        if eps <= kernel(ops[u], ops[v]) <= tau:
            return False
    return True


class TrialEngine:
    """Single-trial state machine with incremental edge bookkeeping.

    Owns its opinions, compatible-neighbor sets, and the set of edges inside
    the stopping band [eps, tau]. A vertex's rate is `len(compat[x])`; a
    Fenwick tree over the rates, whose root is the total rate, finds the
    updating vertex by an O(log n) descent that picks the same vertex as the
    direct-method scan of `gillespie_step`. After each update only the edges
    incident to the updated vertex are recomputed; equivalence with full
    recomputation is pinned by tests.
    Not thread-safe; one engine and one random stream per trial.
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
        stopping.validate_for(g, params)
        validate_distribution(dist, space)
        self.g = g
        self.space = space
        self.params = params
        self.stopping = stopping
        self.rng = rng
        self._kernel = distance_fn(space.norm)
        self._tau = params.tau
        self._alpha = params.alpha
        self._eps = stopping.eps
        self._center = space.center
        n = g.vertex_count
        self.opinions: list[tuple[float, ...]] = [sample_initial(dist, space, rng) for _ in range(n)]
        self.compat: list[set[int]] = [set() for _ in range(n)]
        self._banded: set[tuple[int, int]] = set()  # edges (u < v) with distance in [eps, tau]
        for u, v in g.edges():
            self._update_edge(u, v)
        # Fenwick tree over rates, zero-padded to a power-of-two size so the descent
        # needs no bounds check and the root tree[size] is the total; built in O(n)
        size = 1 << (n - 1).bit_length()
        tree = [0] + [len(c) for c in self.compat] + [0] * (size - n)
        for i in range(1, size):
            tree[i + (i & -i)] += tree[i]
        self._tree = tree
        self._size = size
        self.time = 0.0
        self.events = 0
        self._record = record_samples
        self._on_event = on_event
        self._sample_t: list[float] = []
        self._sample_x: list[float] = []
        if record_samples:
            self._sample_t.append(0.0)
            self._sample_x.append(self.total_center_distance())

    def _update_edge(self, a: int, b: int) -> int:
        """Recompute one edge; returns the change (+1, -1 or 0) in both endpoint rates."""
        key = (a, b) if a < b else (b, a)
        u, v = key
        d = self._kernel(self.opinions[u], self.opinions[v])
        new_compat = d <= self._tau
        if new_compat and d >= self._eps:
            self._banded.add(key)
        else:
            self._banded.discard(key)
        if new_compat != (v in self.compat[u]):
            if new_compat:
                self.compat[u].add(v)
                self.compat[v].add(u)
                return 1
            self.compat[u].discard(v)
            self.compat[v].discard(u)
            return -1
        return 0

    def _tree_add(self, x: int, delta: int) -> None:
        """Add delta to vertex x's entry in the Fenwick tree."""
        tree = self._tree
        size = self._size
        i = x + 1
        while i <= size:
            tree[i] += delta
            i += i & -i

    def total_center_distance(self) -> float:
        """Sum over vertices of the opinion's distance to the space center."""
        kernel = self._kernel
        center = self._center
        total = 0.0
        for op in self.opinions:
            total += kernel(op, center)
        return total

    def is_stopped(self) -> bool:
        return not self._banded

    def step(self) -> int | None:
        """Execute one event; returns the updated vertex, or None when absorbed."""
        tree = self._tree
        total = tree[self._size]
        if total == 0:
            return None
        rng = self.rng
        dt = rng.expovariate(total)
        target = rng.random() * total
        # x is the first vertex whose inclusive rate prefix sum exceeds target,
        # as in gillespie_step's scan: the descent finds the longest prefix with
        # sum <= target. Prefix sums are ints, and int/float comparison is exact.
        x = 0
        acc = 0
        bit = self._size >> 1
        while bit:
            s = acc + tree[x + bit]
            if s <= target:
                x += bit
                acc = s
            bit >>= 1
        old = self.opinions[x]
        dim = len(old)
        sums = [0.0] * dim
        cset = self.compat[x]
        for y in self.g.adjacency[x]:
            if y in cset:
                row = self.opinions[y]
                for i in range(dim):
                    sums[i] += row[i]
        k = len(cset)
        a = self._alpha
        b = 1.0 - a
        self.opinions[x] = tuple(a * old[i] + b * (sums[i] / k) for i in range(dim))
        dx = 0
        for y in self.g.adjacency[x]:
            d = self._update_edge(x, y)
            if d:
                self._tree_add(y, d)
                dx += d
        if dx:
            self._tree_add(x, dx)
        self.time += dt
        self.events += 1
        if self._record or self._on_event is not None:
            xc = self.total_center_distance()
            if self._record:
                self._sample_t.append(self.time)
                self._sample_x.append(xc)
            if self._on_event is not None:
                self._on_event(self.events, self.time, x, xc, self.opinions)
        return x

    def run_to_stop(self, max_events: int | None = None) -> None:
        """Step until the stopping band empties or the event cap is hit."""
        cap = self.stopping.max_events if max_events is None else max_events
        while self._banded and self.events < cap:
            self.step()  # banded edges imply compatible edges, so never absorbed here

    def configuration(self) -> Configuration:
        return Configuration.from_rows(self.opinions)

    def outcome(self) -> TrialOutcome:
        """Freeze the current state into a TrialOutcome, classifying if stopped.

        A stopped trial reaches consensus iff its compatible-neighbor graph is
        connected; see the module docstring.
        """
        stopped = self.is_stopped()
        final = self.configuration()
        consensus: bool | None = None
        event_a: bool | None = None
        if stopped:
            consensus = is_connected(self.compat)
            eps_prime = self.stopping.eps_prime
            if event_a_applicable(self.space, self._tau, eps_prime):
                event_a = check_event_a(final, self.space, self._tau, eps_prime)
        if self._record:
            samples = np.column_stack((self._sample_t, self._sample_x))
        else:
            samples = np.empty((0, 2))
        samples.setflags(write=False)
        return TrialOutcome(
            stopped=stopped,
            stop_time=self.time,
            events=self.events,
            consensus=consensus,
            event_a=event_a,
            final=final,
            x_samples=samples,
        )
