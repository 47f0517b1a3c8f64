"""Observables over configurations: disagreement functionals, drift,
consensus classification, and the consensus-probability bound.

The total distance of all opinions to any fixed point is nonincreasing in
expectation under the dynamics; `generator_drift` computes its exact expected
rate of change, which must be <= 0 for every configuration, point, graph, and
norm. That fact powers the `check-invariants` harness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .dynamics import Configuration, StoppingSpec, compatibility, stop_reached, _neighbor_mean
from .graph import SocialGraph
from .space import Norm, OpinionSpace, distance_fn


@dataclass(frozen=True)
class BoundInputs:
    """Inputs to the consensus-probability lower bound; defined only for tau > rho."""

    expected_dist: float
    tau: float
    rho: float

    def __post_init__(self):
        if self.expected_dist < 0:
            raise ValueError("expected_dist must be nonnegative")
        if not self.tau > self.rho:
            raise ValueError(f"bound requires tau > rho, got tau={self.tau}, rho={self.rho}")


def total_disagreement(config: Configuration, c: Sequence[float], norm: Norm) -> float:
    """Sum over vertices of the opinion distance to the reference point c."""
    kernel = distance_fn(norm)
    if len(c) != config.dim:
        raise ValueError(f"reference point has dimension {len(c)}, expected {config.dim}")
    total = 0.0
    for row in config.opinions:
        total += kernel(row, c)
    return float(total)


def generator_drift(
    config: Configuration, g: SocialGraph, tau: float, norm: Norm, c: Sequence[float]
) -> float:
    """Exact expected rate of change of the total disagreement with c.

    Sum over vertices with at least one compatible neighbor of
    rate * (||local mean - c|| - ||own - c||). Always <= 0 up to rounding.
    """
    view = compatibility(config, g, tau, norm)
    kernel = distance_fn(norm)
    ops = config.opinions
    drift = 0.0
    for x in range(g.vertex_count):
        k = view.rates[x]
        if k == 0:
            continue
        mean = _neighbor_mean(ops, view.neighbors[x], config.dim)
        drift += k * (kernel(mean, c) - kernel(ops[x], c))
    return float(drift)


def _components(n: int, edges: list[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in nbrs[x]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
                    queue.append(y)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def agreement_components(
    config: Configuration, g: SocialGraph, eps: float, norm: Norm
) -> tuple[tuple[int, ...], ...]:
    """Components of the subgraph of edges with opinion distance strictly below eps."""
    kernel = distance_fn(norm)
    ops = config.opinions
    kept = [(u, v) for u, v in g.edges() if kernel(ops[u], ops[v]) < eps]
    return _components(g.vertex_count, kept)


def classify_consensus(
    config: Configuration, g: SocialGraph, spec: StoppingSpec, tau: float, norm: Norm
) -> bool:
    """Classify a stopped configuration: does it lead to global agreement?

    At a stopping state every edge is either a near-agreement edge (< eps) or
    frozen (> tau); each near-agreement component contracts to a single limit
    opinion, so the state leads to consensus exactly when the near-agreement
    subgraph spans the whole vertex set. This is a stop-time proxy for the
    asymptotic event, reported as classification "T_eps_proxy".
    """
    if not stop_reached(config, g, spec, tau, norm):
        raise ValueError("classification is only defined at a stopping configuration")
    comps = agreement_components(config, g, spec.eps, norm)
    return len(comps) == 1


def check_event_a(config: Configuration, space: OpinionSpace, tau: float, eps_prime: float) -> bool:
    """Whether some opinion lies strictly within tau - radius - eps_prime of the center.

    At a stopping state this condition forces every other opinion into the
    same near-agreement component, so it guarantees eventual consensus. Only
    defined when tau exceeds radius + eps_prime.
    """
    threshold = tau - space.radius - eps_prime
    if not threshold > 0:
        raise ValueError(
            f"event requires tau > radius + eps_prime, got tau={tau}, "
            f"radius={space.radius}, eps_prime={eps_prime}"
        )
    kernel = distance_fn(space.norm)
    center = space.center
    return any(kernel(row, center) < threshold for row in config.opinions)


def theoretical_bound(inputs: BoundInputs) -> float:
    """Lower bound on the consensus probability: 1 - E||X - center|| / (tau - rho), clamped to [0, 1]."""
    raw = 1.0 - inputs.expected_dist / (inputs.tau - inputs.rho)
    return min(1.0, max(0.0, raw))
