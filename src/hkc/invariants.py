"""Randomized drift check: the total-disagreement functional must never have
positive expected drift, for any configuration, reference point, graph, or norm.

The total distance of all opinions to any fixed point is nonincreasing in
expectation under the dynamics; `generator_drift` computes its exact expected
rate of change, which must be <= 0 for every configuration, point, graph, and
norm. It runs the engine's own edge rule and update (`edge_states` and
`update_rule` in `hkc.dynamics`), so a failing case would contradict this
supermartingale property for the code that produces every report; the runner
shrinks any failure to a minimal witness before reporting it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress, product
from typing import Sequence

from .dynamics import Rows, edge_states, update_rule
from .graph import SocialGraph
from .space import Norm, distance_fn

DRIFT_TOLERANCE = 1e-9
MAX_CASES = 10**6  # a fixed limit: at about 0.5 ms per case, 10**6 cases run about 9 minutes


def generator_drift(
    opinions: Rows, g: SocialGraph, tau: float, norm: Norm, c: Sequence[float]
) -> float:
    """Exact expected rate of change of the total disagreement with c.

    Sum over vertices with at least one compatible neighbor of
    rate * (||local mean - c|| - ||own - c||). Always <= 0 up to rounding.
    The compatible neighbors and the local mean come from the engine's own
    edge rule and averaging step, `edge_states` and `update_rule`.
    """
    if len(opinions) != g.vertex_count:
        raise ValueError("configuration does not match the graph")
    kernel = distance_fn(norm)
    states = edge_states(opinions, tau, 0.0, norm)  # eps = 0: only compatible or not matters
    mean = update_rule(opinions, 0.0)
    drift = 0.0
    for op, nbrs in zip(opinions, g.adjacency):
        ys = list(compress(nbrs, states(op, nbrs)))
        if ys:
            drift += len(ys) * (kernel(mean(ys, op), c) - kernel(op, c))
    return drift


@dataclass
class DriftCase:
    graph: SocialGraph
    opinions: tuple[tuple[float, ...], ...]
    tau: float
    norm: Norm
    c: tuple[float, ...]

    def drift(self) -> float:
        return generator_drift(self.opinions, self.graph, self.tau, self.norm, self.c)

    def describe(self) -> dict:
        return {
            "vertices": self.graph.vertex_count,
            "edges": list(self.graph.edges()),
            "opinions": [list(row) for row in self.opinions],
            "tau": self.tau,
            "norm": self.norm.value,
            "c": list(self.c),
            "drift": self.drift(),
        }


def random_connected_graph(rng: random.Random, max_vertices: int = 20) -> SocialGraph:
    """Random attachment tree plus a few extra edges; connected by construction."""
    n = rng.randint(1, max_vertices)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randint(0, n)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return SocialGraph.from_edges(n, edges)


def drift_case_batch(rng: random.Random, max_vertices: int = 20) -> list[DriftCase]:
    """One random (graph, configuration, tau, norm) with reference points at the
    corners of the opinions' bounding box plus 10 random points around it."""
    g = random_connected_graph(rng, max_vertices)
    dim = rng.choice((1, 2, 3))
    lo = tuple(rng.uniform(-2.0, 0.0) for _ in range(dim))
    hi = tuple(a + rng.uniform(0.2, 3.0) for a in lo)
    rows = tuple(tuple(rng.uniform(a, b) for a, b in zip(lo, hi)) for _ in range(g.vertex_count))
    span = max(b - a for a, b in zip(lo, hi))
    tau = rng.uniform(0.05 * span, 2.0 * span)
    norm = rng.choice((Norm.L1, Norm.L2, Norm.LINF))
    points = list(product(*zip(lo, hi)))
    width = tuple(b - a for a, b in zip(lo, hi))
    for _ in range(10):
        points.append(tuple(rng.uniform(a - w, b + w) for a, b, w in zip(lo, hi, width)))
    return [DriftCase(g, rows, tau, norm, c) for c in points]


def shrink_case(case: DriftCase) -> DriftCase:
    """Greedily drop vertices while the drift violation persists on a connected subgraph."""
    current = case
    changed = True
    while changed and current.graph.vertex_count > 1:
        changed = False
        n = current.graph.vertex_count
        for drop in range(n):
            keep = [v for v in range(n) if v != drop]
            relabel = {v: i for i, v in enumerate(keep)}
            edges = [
                (relabel[u], relabel[v])
                for u, v in current.graph.edges()
                if u != drop and v != drop
            ]
            try:
                sub = SocialGraph.from_edges(n - 1, edges)
            except ValueError:
                continue
            rows = current.opinions[:drop] + current.opinions[drop + 1:]
            candidate = DriftCase(sub, rows, current.tau, current.norm, current.c)
            if candidate.drift() > DRIFT_TOLERANCE:
                current = candidate
                changed = True
                break
    return current


def run_drift_check(cases: int, seed: int) -> dict:
    """Evaluate `cases` random batches; returns a summary with any shrunk failure."""
    if not 1 <= cases <= MAX_CASES:
        raise ValueError(f"cases must be in [1, {MAX_CASES}], got {cases}")
    rng = random.Random(seed)
    max_drift = float("-inf")
    checked = 0
    index = 0
    failure = None
    while failure is None and index < cases:
        index += 1
        for case in drift_case_batch(rng):
            value = case.drift()
            checked += 1
            max_drift = max(max_drift, value)
            if value > DRIFT_TOLERANCE:
                failure = shrink_case(case).describe()
                break
    return {
        "cases": index,
        "points_checked": checked,
        "max_drift": max_drift,
        "tolerance": DRIFT_TOLERANCE,
        "status": "pass" if failure is None else "fail",
        "failure": failure,
    }
