"""Continuous-time engine for threshold-gated neighbor averaging on a graph.

Each vertex updates at rate equal to its number of compatible neighbors
(graph neighbors within opinion distance tau, closed inequality). An update
replaces the vertex opinion with

    alpha * own + (1 - alpha) * mean(compatible neighbors)

Event scheduling is the exact direct method: the holding time is exponential
at the total rate and the updating vertex is chosen with probability
proportional to its own rate. The holding time is drawn inline by the body of
`random.expovariate`, -log(1 - random()) / total, which gives its bits from
the same stream. The vertex is the first whose inclusive rate prefix sum
exceeds random() * total, as in the direct method's linear scan
(`gillespie_step` in `tests/oracles.py`, the reference implementation of the
dynamics). Prefix sums are ints, and an int is <= a nonnegative float exactly
when it is <= the float's floor k. While every edge is compatible each rate is
the vertex's degree, so the engine reads the vertex in O(1) as entry k of an
owner table, deg(v) copies of each vertex v (O(m) memory); otherwise a descent
of a Fenwick tree over the integer rates finds the longest prefix with sum
<= k in O(log n), taking each node it passes off k. Both pick the scan's
vertex for every draw. Edge state lives in one table aligned with the
adjacency lists, with one banded witness edge (`TrialEngine`). The edge rule
(`edge_states`) and the update (`update_rule`) are each stated once; the
engine and `hkc.invariants` both run them. One event loop runs every event,
with the engine's state in local variables.

Both rules pick a form once, by the norm and the rows' dimension, before any
event. On the 2-D L2 space the forms are straight-line code with no kernel
call per edge or per coordinate: the edge rule computes each distance inline,
by the expression of the loop kernel `distance_fn(Norm.L2)` less its leading
0.0 (exact, as every term is >= +0.0), and the update keeps one accumulator
per coordinate over a single pass of the neighbors (in any 2-D space). In one
dimension the edge rule compares |u - v|, as every kernel does on the shapes
`OpinionSpace` accepts (`MIN_L2_EXTENT`), and the update adds the neighbors'
one coordinate into a single accumulator from 0.0. Each is bitwise equal to
the loop form: the same float operations on the same operands in the same
order, every sum taken left to right. For that reason no form uses `sum()`
(compensated from Python 3.12), `math.fsum`, `math.hypot` or `math.dist`
(rounded differently). Every other space calls the loop kernel
`distance_fn(norm)` per edge and loops over coordinates in the update.

A trial stops at the first time every edge's opinion distance falls strictly
outside [eps, tau] (either near-agreement or frozen), or when an event cap is
hit.

After an update only the edges at the moved vertex x can change state, and
where it can the engine decides them by a box [lo, hi] that bounds every
opinion. The box is exact at the start, grows by each new opinion (an update can
round an ulp out of the hull, which a convex combination otherwise never
leaves, Moreau 2005), and is recomputed exactly, while the kernel distance
between its corners exceeds tau, at each event that starts after a positive
multiple of n completed events. Rounding is monotone, so no opinion v in the
box has a larger |fl(new_i - v_i)| than x's far corner (`far_corner`), and
each kernel is monotone in every |d_i|. So if the box's corners are within
tau, or x's far corner is by the edge rule's own form, every edge at x is
compatible, with no tolerance; only otherwise does the rule run on x's row.
While the corners are farther apart than 2 tau no far corner can be within tau
(each coordinate's farther end is at least half its extent away), so the test
and the growth are skipped; the box then bounds the opinions only from its
next recompute on, when its span is exact. Either way the zero entries of the
edge-state table, and so the rates, are exact.

The stop is found exactly by one banded witness edge, examined again only when
one of its ends moves. One search (`TrialEngine._find_witness`) runs the edge
rule over the upper-triangle adjacency rows, wrapping, from vertex 0 at the
start and from the witness's end once it is no longer banded; finding none is
the stop at that same event. `step` may go on past a stop: it then runs the
rule on each moved row and takes any banded edge there as the new witness,
since no other edge can change. `step` and `run_to_stop` do the same work per
event, and the box only skips work: each event draws the same numbers, picks
the same vertex and averages the same neighbors in the same order as the
direct method, so no report, trace or pinned byte depends on it. Inside an
`on_event` callback, `is_stopped()` is False until the event that stops the
trial.

At a stop every compatible edge (distance <= tau) is a near-agreement edge
(distance < eps), so a stopped trial is consensus exactly when its compatible
graph is connected. A connected one puts every pair within (n - 1) * eps <
eps_prime < tau / 2 (`StoppingSpec.validate_for`), which makes every edge
compatible, and `SocialGraph` is connected; so a stop is consensus exactly
when the total rate is the degree sum, read with no search
(`TrialEngine.outcome`). A consensus stop is final. A dissensus stop is a
proxy and may not be: a near-agreement component moves as it contracts,
which can bring a frozen edge back within tau and merge two components later,
so p_hat can be biased low (open item 1 in ROADMAP.md).

Trials are deterministic functions of their random stream: the stream is
consumed in a fixed order (holding time, then vertex choice, per event).
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import chain, compress, repeat
from math import isfinite, log, sqrt
from operator import add, itemgetter
from typing import Callable, Sequence

from .graph import SocialGraph
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
MIN_STEP_ULPS = 1.5  # the floor on (1 - alpha) * eps / dim, in the same ulps (`StoppingSpec.validate_for`)

# a configuration: one opinion vector per vertex, as the engine stores it
Rows = Sequence[tuple[float, ...]]

# on_event callback: (event index, time, updated vertex, center distance total, opinions)
EventCallback = Callable[[int, float, int, float, list[tuple[float, ...]]], None]


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
    """A trial's final opinions as a read-only (vertices, dim) float64 memoryview; `.tolist()` gives the rows."""

    opinions: memoryview

    def __post_init__(self):
        lengths = set(map(len, rows := self.opinions))
        if len(lengths) != 1 or 0 in lengths:
            raise ValueError(f"opinions must be rows of one length dim >= 1, got row lengths {sorted(lengths)}")
        data = array("d", chain.from_iterable(rows))
        if not all(map(isfinite, data)):
            raise ValueError("opinions must be finite")
        self.__setstate__((data.tobytes(), (len(rows), *lengths)))

    def __reduce__(self):  # a memoryview does not pickle; its raw bytes and shape do
        return object.__new__, (Configuration,), (self.opinions.tobytes(), self.opinions.shape)

    def __setstate__(self, state):
        object.__setattr__(self, "opinions", memoryview(state[0]).cast("d", state[1]))


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
        """Check the spec against its trial: eps must exceed MIN_EPS_ULPS ulps U of the largest coordinate, and
        (1 - alpha) * eps / dim MIN_STEP_ULPS = 3/2 of them. Per coordinate the update fl(fl(a * old) + fl(b *
        mean)), a = alpha, b = 1 - alpha, rounds each product by at most U/2, and the sum to old only from within
        U/2 of it. For alpha >= 1/2, b is exact and a + b = 1 (below, the eps floor implies this one, as dim <= 8),
        so a coordinate that stays put has b * |mean - old| <= 3U/2. An opinion eps or more from the mean under L1,
        L2 or Linf has a coordinate eps / dim or more from it, so above the floor it moves."""
        if self.eps != self.eps_prime / g.vertex_count:
            raise ValueError(
                f"eps must equal eps_prime / vertex_count = "
                f"{self.eps_prime / g.vertex_count!r}, got {self.eps!r}"
            )
        if not self.eps_prime < params.tau / 2:
            raise ValueError(f"eps_prime must be < tau/2 = {params.tau / 2}, got {self.eps_prime}")
        floor = MIN_EPS_ULPS * (ulp := coordinate_ulp(space.shape))
        if not self.eps > floor:
            raise ValueError(
                f"eps = eps_prime / vertex_count = {self.eps!r} is not above {MIN_EPS_ULPS} ulps of the largest "
                f"coordinate ({floor!r}), so trials may never stop"
            )
        step, floor = (1.0 - params.alpha) * self.eps / space.dim, MIN_STEP_ULPS * ulp
        if not step > floor:
            raise ValueError(f"(1 - alpha) * eps / dim = {step!r} is not above {MIN_STEP_ULPS} ulps of the largest "
                             f"coordinate ({floor!r}), so an update may not move an opinion")


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
        # the rule keeps eps_prime below tau/2, so only a floor can fail here
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


def edge_states(opinions: Rows, tau: float, eps: float, norm: Norm) -> Callable[..., list[int]]:
    """The edge rule: `states(op, nbrs)` lists the state of the edge from opinion op to each vertex
    of nbrs, 0 (distance > tau, incompatible), 1 (< eps, near) or 2 (in [eps, tau], banded). The form
    is chosen once, by the norm and the rows' dimension (module docstring)."""
    dim = len(opinions[0])
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
        kernel = distance_fn(norm)

        def states(op: tuple[float, ...], nbrs: Sequence[int]) -> list[int]:
            return [0 if (d := kernel(op, opinions[y])) > tau else 1 if d < eps else 2 for y in nbrs]
    return states


def update_rule(opinions: Rows, alpha: float) -> Callable[..., tuple[float, ...]]:
    """The update rule: `update(ys, old)` is alpha * old + (1 - alpha) * (the sum of the rows ys,
    taken left to right in the order of ys, / len(ys)), coordinate by coordinate. The form is
    chosen once, by the rows' dimension (module docstring)."""
    a, b, dim = alpha, 1.0 - alpha, len(opinions[0])
    if dim == 1:
        def update(ys: Sequence[int], old: tuple[float, ...]) -> tuple[float, ...]:
            m = 0.0
            for y in ys:
                m += opinions[y][0]
            return (a * old[0] + b * (m / len(ys)),)
    elif dim == 2:
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


def far_corner(op: Sequence[float], lo: Sequence[float], hi: Sequence[float]) -> list[float]:
    """The corner of the box [lo, hi], which holds op, that is farthest from op in every coordinate:
    per coordinate the bound with the larger |fl(op_i - bound)|, which no point of the box exceeds
    (module docstring)."""
    return [a if c - a >= b - c else b for c, a, b in zip(op, lo, hi)]


def _bounds(opinions: Rows) -> tuple[list[float], list[float]]:
    """Each coordinate's least and greatest value over the rows, by a pass per coordinate: zip(*opinions)
    would allocate an iterator per row, n objects that set off the cyclic garbage collector in a trial."""
    dims = range(len(opinions[0]))
    return [min(map(itemgetter(i), opinions)) for i in dims], [max(map(itemgetter(i), opinions)) for i in dims]


class TrialEngine:
    """Single-trial state machine with incremental edge bookkeeping.

    `_state[x][j]` is 0 exactly when the edge from x to `adjacency[x][j]` is
    incompatible; a nonzero entry, 1 (near) or 2 (banded) as last set, means
    only "compatible". `_states(op, nbrs)` builds every row of the table here,
    from both ends of each edge (the kernels are symmetric bitwise), and later
    the row of an updated vertex that the box `_lo`, `_hi` cannot decide.
    Adjacency rows are sorted, so a flipped edge's mirror entry is found by
    bisection. A vertex's rate, its number of nonzero entries, sits in the
    Fenwick tree `_tree`, whose root `_tree[-1]` is the total rate; `_owner` is
    the owner table, built once here. `_witness` is a banded edge, or None when
    the trial is stopped, and `_find_witness` its one search. `step` and
    `run_to_stop` both run the one event loop, `_run`. The module docstring
    argues selection, the box, the witness and the consensus verdict, and tests
    pin them to the oracles in `tests/oracles.py`. Not thread-safe; one engine
    and one stream per trial.
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
        self._tau = tau = params.tau
        n = g.vertex_count
        self.opinions = opinions = [sample_initial(dist, space, rng) for _ in range(n)]
        self._states = edge_states(opinions, tau, stopping.eps, space.norm)
        self._update = update_rule(opinions, params.alpha)
        # Fenwick tree over rates, zero-padded to a power-of-two size so the descent
        # needs no bounds check and the root tree[size], tree[-1], is the total
        size = 1 << (n - 1).bit_length()
        self._owner = list(chain.from_iterable(repeat(v, len(nbrs)) for v, nbrs in enumerate(g.adjacency)))
        self._state = state = [self._states(op, nbrs) for op, nbrs in zip(opinions, g.adjacency)]
        self._tree = tree = [0] + [len(row) - row.count(0) for row in state] + [0] * (size - n)
        for i in range(1, size):  # built in O(n)
            tree[i + (i & -i)] += tree[i]
        self._witness = self._find_witness(0)
        self._lo, self._hi = _bounds(opinions)  # the opinions' box, exact here
        self.time = 0.0
        self.events = 0
        self._on_event = on_event
        # each vertex's center distance, kept while observing: an event changes one entry,
        # and the list is added left to right from 0.0, as a from-scratch sum over the rows would be
        observed = record_samples or on_event is not None
        kernel = distance_fn(space.norm)
        self._center_dists = [kernel(op, space.center) for op in opinions] if observed else None
        # (time, total center distance) pairs, from the initial state on
        self._samples = [(0.0, reduce(add, self._center_dists, 0.0))] if record_samples else None

    def is_stopped(self) -> bool:
        return self._witness is None

    def step(self) -> int | None:
        """Execute one event; returns the updated vertex, or None when absorbed."""
        return self._run(self.events + 1, True)

    def run_to_stop(self, max_events: int | None = None) -> None:
        """Step until the stopping band empties or the event cap is hit."""
        self._run(self.stopping.max_events if max_events is None else max_events, False)

    def _find_witness(self, start: int) -> tuple[int, int] | None:
        """The first banded edge (v, y), v < y, by the edge rule over the upper-triangle adjacency
        rows from vertex `start`, wrapping; None when no edge is banded, which is the stop."""
        states, opinions, adjacency = self._states, self.opinions, self.g.adjacency
        for v in chain(range(start, len(opinions)), range(start)):
            ys = adjacency[v]
            ys = ys[bisect_right(ys, v):]
            if 2 in (r := states(opinions[v], ys)):
                return v, ys[r.index(2)]
        return None

    def _run(self, cap: int, once: bool) -> int | None:
        """The event loop: events until `cap`, and while edges are banded unless `once`.

        Returns the last updated vertex, or None when absorbed. The engine's
        state lives in locals for the whole run; the counters are written back
        on exit and before each observation. Each event keeps the box, decides
        the moved vertex's edges by it or by the edge rule, and re-examines the
        witness (module docstring).
        """
        tree, state, states, update = self._tree, self._state, self._states, self._update
        rand, owner = self.rng.random, self._owner
        opinions, adjacency = self.opinions, self.g.adjacency
        witness, events, time = self._witness, self.events, self.time
        samples, on_event, dists = self._samples, self._on_event, self._center_dists
        kernel, center, tau = distance_fn(self.space.norm), self.space.center, self._tau
        lo, hi, size = self._lo, self._hi, len(tree) - 1
        full, n, dim = len(owner), len(opinions), self.space.dim
        check = max(n, -(-events // n) * n)  # the box's next look: the first multiple of n, from n on, >= events
        span, tau2 = kernel(hi, lo), 2 * tau
        x = None
        while events < cap and (witness or once):
            total = tree[size]
            if not total:
                break  # absorbed; banded edges imply compatible ones, so only under `once`
            dt = -log(1.0 - rand()) / total  # the body of random.expovariate(total), inline
            k = int(rand() * total)  # selection by the floor k: the owner table, else the descent (module docstring)
            if total == full:
                x = owner[k]
                nbrs = ys = adjacency[x]
                row = state[x]
            else:
                x = 0
                bit = size >> 1
                while bit:
                    s = tree[x + bit]
                    if s <= k:
                        x += bit
                        k -= s
                    bit >>= 1
                nbrs, row = adjacency[x], state[x]
                ys = list(compress(nbrs, row))
            new = opinions[x] = update(ys, opinions[x])
            if events >= check:  # once every n events: recompute the box if it is wider than tau
                if span > tau:
                    lo, hi = _bounds(opinions)
                    span = kernel(hi, lo)
                check = events + n
            if span > tau2:
                fresh = states(new, nbrs)  # no far corner can be within tau: the rule decides, the box is not grown
            else:
                if dim == 1:  # the box bounds every opinion: grow it by the new one, here by one compare pair
                    c = new[0]
                    if not lo[0] <= c <= hi[0]:
                        lo[0], hi[0] = min(lo[0], c), max(hi[0], c)
                        span = kernel(hi, lo)
                else:  # a loop: any() over a generator costs about twice as much
                    for a, c, b in zip(lo, new, hi):
                        if c < a or c > b:
                            lo, hi = list(map(min, lo, new)), list(map(max, hi, new))
                            span = kernel(hi, lo)
                            break
                if witness and (span <= tau or (
                        max(new[0] - lo[0], hi[0] - new[0]) if dim == 1 else kernel(new, far_corner(new, lo, hi))
                ) <= tau):
                    # the box, or x's far corner in it (in one dimension the farther end), is within tau: every
                    # edge at x is compatible. Past a stop the rule runs instead (module docstring)
                    fresh = [s or 1 for s in row] if total != full and 0 in row else row
                else:
                    fresh = states(new, nbrs)
            if fresh is not row and fresh != row:
                for j, (s, was) in enumerate(zip(fresh, row)):
                    if s != was and not (s and was):  # compatibility flipped: mirror it, move both rates
                        y = nbrs[j]
                        state[y][bisect_left(adjacency[y], x)] = s
                        delta = 1 if s else -1
                        for v in (x, y):
                            i = v + 1
                            while i <= size:
                                tree[i] += delta
                                i += i & -i
                state[x] = fresh
            if not witness:
                if 2 in fresh:
                    witness = x, nbrs[fresh.index(2)]
            elif x in witness and states(opinions[witness[0]], witness[1:])[0] != 2:
                witness = self._find_witness(witness[0])  # no longer banded: find another from its end
            time += dt
            events += 1
            if dists is not None:
                self.events, self.time, self._witness = events, time, witness
                dists[x] = kernel(new, center)
                xc = reduce(add, dists, 0.0)
                if samples is not None:
                    samples.append((time, xc))
                if on_event is not None:
                    on_event(events, time, x, xc, opinions)
        self.events, self.time, self._witness = events, time, witness
        self._lo, self._hi = lo, hi
        return x

    def outcome(self) -> TrialOutcome:
        """Freeze the current state into a TrialOutcome, classifying if stopped.

        Stopped means no banded witness is left. A stopped trial is consensus iff the total rate is the degree
        sum, and a dissensus verdict may not be final (module docstring). Event A, some opinion strictly within
        tau - radius - eps_prime of the center under the space's kernel, is decided where `event_a_applicable`.
        """
        stopped = self.is_stopped()
        consensus: bool | None = None
        event_a: bool | None = None
        if stopped:
            consensus = self._tree[-1] == len(self._owner)
            eps_prime = self.stopping.eps_prime
            if event_a_applicable(self.space, self._tau, eps_prime):
                threshold = self._tau - self.space.radius - eps_prime
                kernel, center = distance_fn(self.space.norm), self.space.center
                event_a = any(kernel(row, center) < threshold for row in self.opinions)
        return TrialOutcome(
            stopped=stopped,
            stop_time=self.time,
            events=self.events,
            consensus=consensus,
            event_a=event_a,
            final=Configuration(self.opinions),
            x_samples=tuple(self._samples or ()),
        )
