"""Observables over configurations: disagreement functionals, drift,
consensus classification, and the consensus-probability bound.

The total distance of all opinions to any fixed point is nonincreasing in
expectation under the dynamics; `generator_drift` computes its exact expected
rate of change, which must be <= 0 for every configuration, point, graph, and
norm. That fact powers the `check-invariants` harness.
"""

from __future__ import annotations

from typing import Sequence

from .dynamics import Configuration, StoppingSpec, compatibility, stop_reached, _neighbor_mean
from .graph import SocialGraph, components
from .space import Norm, distance_fn


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
    for x, nbrs in enumerate(view):
        if not nbrs:
            continue
        mean = _neighbor_mean(ops, nbrs, config.dim)
        drift += len(nbrs) * (kernel(mean, c) - kernel(ops[x], c))
    return float(drift)


def agreement_components(
    config: Configuration, g: SocialGraph, eps: float, norm: Norm
) -> tuple[tuple[int, ...], ...]:
    """Components of the subgraph of edges with opinion distance strictly below eps."""
    kernel = distance_fn(norm)
    ops = config.opinions
    return components(
        [[y for y in nbrs if kernel(ops[x], ops[y]) < eps] for x, nbrs in enumerate(g.adjacency)]
    )


def classify_consensus(
    config: Configuration, g: SocialGraph, spec: StoppingSpec, tau: float, norm: Norm
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
    if not stop_reached(config, g, spec, tau, norm):
        raise ValueError("classification is only defined at a stopping configuration")
    comps = agreement_components(config, g, spec.eps, norm)
    return len(comps) == 1


def theoretical_bound(expected_dist: float, tau: float, rho: float) -> float:
    """Lower bound on the consensus probability: 1 - E||X - center|| / (tau - rho), clamped to [0, 1].

    Defined only for tau > rho.
    """
    if expected_dist < 0:
        raise ValueError("expected_dist must be nonnegative")
    if not tau > rho:
        raise ValueError(f"bound requires tau > rho, got tau={tau}, rho={rho}")
    return min(1.0, max(0.0, 1.0 - expected_dist / (tau - rho)))
