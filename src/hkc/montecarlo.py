"""Monte Carlo estimation of the consensus probability over independent trials.

Trials are embarrassingly parallel: each owns a random stream derived from
(master_seed, trial index), and aggregation folds outcomes in trial order, so
the report is a pure function of the experiment spec at any parallelism level.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

from .analysis import theoretical_bound
from .dynamics import (
    EventCallback,
    ModelParams,
    StoppingSpec,
    TrialEngine,
    TrialOutcome,
    event_a_applicable,
)
from .graph import SocialGraph
from .space import (
    Ball,
    InitialDistribution,
    OpinionSpace,
    PointMasses,
    expected_center_distance,
    validate_distribution,
)
from . import seeding

WILSON_Z = 1.96  # 95% two-sided
UNDETERMINED_WARN_FRACTION = 0.05
BOUND_MC_SAMPLES = 100_000


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything one estimation run depends on, including the master seed."""

    graph: SocialGraph
    space: OpinionSpace
    init: InitialDistribution
    params: ModelParams
    stopping: StoppingSpec
    trials: int
    master_seed: int
    graph_info: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("seed must be a 64-bit nonnegative integer")
        self.stopping.validate_for(self.graph, self.params)
        validate_distribution(self.init, self.space)

    def describe(self) -> dict:
        """Parameter echo embedded in reports."""
        shape = self.space.shape
        if isinstance(shape, Ball):
            shape_desc = {"ball": {"center": list(shape.center), "radius": shape.radius}}
        else:
            shape_desc = {"box": {"lo": list(shape.lo), "hi": list(shape.hi)}}
        if isinstance(self.init, PointMasses):
            init_desc = {
                "point_masses": [{"point": list(p), "prob": w} for p, w in self.init.atoms]
            }
        else:
            init_desc = "uniform"
        graph_desc = dict(self.graph_info)
        graph_desc["vertices"] = self.graph.vertex_count
        graph_desc["edges"] = self.graph.edge_count
        return {
            "graph": graph_desc,
            "space": {
                "dim": self.space.dim,
                "norm": self.space.norm.value,
                "shape": shape_desc,
                "center": list(self.space.center),
                "radius": self.space.radius,
            },
            "init": init_desc,
            "tau": self.params.tau,
            "alpha": self.params.alpha,
            "eps_prime": self.stopping.eps_prime,
            "eps": self.stopping.eps,
            "max_events": self.stopping.max_events,
            "trials": self.trials,
            "seed": self.master_seed,
        }


@dataclass(frozen=True)
class MonteCarloReport:
    """The estimation report; its fields are the JSON keys, in output order."""

    trials: int
    consensus_count: int
    undetermined_count: int
    undetermined_warning: bool
    p_hat: float | None
    ci_low: float | None
    ci_high: float | None
    bound: float | None
    bound_applicable: bool
    expected_center_distance: float | None
    event_A_applicable: bool
    event_A_count: int | None
    event_A_and_consensus_count: int | None
    mean_stop_time: float | None
    mean_events: float
    classification: str = field(default="T_eps_proxy", init=False)
    seed: int
    params: dict

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must be in 0..trials")
    p = successes / trials
    z = WILSON_Z
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z2 / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def run_single_trial(
    spec: ExperimentSpec, trial_index: int, on_event: EventCallback | None = None
) -> TrialOutcome:
    """Trial `trial_index` of the experiment, reproducible in isolation; `on_event` sees each event."""
    rng = seeding.trial_rng(spec.master_seed, trial_index)
    engine = TrialEngine(
        spec.graph, spec.space, spec.init, spec.params, spec.stopping, rng, on_event=on_event
    )
    engine.run_to_stop()
    return engine.outcome()


def _outcome_block(spec: ExperimentSpec, lo: int, hi: int) -> list[TrialOutcome]:
    return [run_single_trial(spec, i) for i in range(lo, hi)]


def trial_outcomes(spec: ExperimentSpec, parallelism: int = 1) -> list[TrialOutcome]:
    """All trial outcomes in trial order, computed with up to `parallelism` workers.

    The chunk bounds depend only on `parallelism` and the trial count; the
    pool never starts more workers than there are chunks or CPUs.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    if parallelism == 1 or spec.trials == 1:
        return _outcome_block(spec, 0, spec.trials)
    chunk = max(1, -(-spec.trials // (parallelism * 4)))
    bounds = [(lo, min(lo + chunk, spec.trials)) for lo in range(0, spec.trials, chunk)]
    workers = min(parallelism, len(bounds), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        blocks = pool.map(_outcome_block, [spec] * len(bounds), *zip(*bounds))
        return [outcome for block in blocks for outcome in block]


def consensus_bound(spec: ExperimentSpec) -> tuple[bool, float | None, float | None]:
    """(applicable, E||X - center||, lower bound on P(consensus)); both None unless tau > rho."""
    tau = spec.params.tau
    rho = spec.space.radius
    if not tau > rho:
        return False, None, None
    expected = expected_center_distance(
        spec.init, spec.space, samples=BOUND_MC_SAMPLES, rng=seeding.bound_rng(spec.master_seed)
    )
    return True, expected, theoretical_bound(expected, tau, rho)


def reduce_outcomes(spec: ExperimentSpec, outcomes: list[TrialOutcome]) -> MonteCarloReport:
    """Fold outcomes (in trial order) into the report; pure and order-fixed."""
    trials = len(outcomes)
    consensus_count = 0
    undetermined = 0
    event_a_count = 0
    event_a_and_consensus = 0
    stop_time_sum = 0.0
    stopped_count = 0
    events_sum = 0
    for out in outcomes:
        events_sum += out.events
        if not out.stopped:
            undetermined += 1
            continue
        stopped_count += 1
        stop_time_sum += out.stop_time
        if out.consensus:
            consensus_count += 1
        if out.event_a:
            event_a_count += 1
            if out.consensus:
                event_a_and_consensus += 1

    determined = trials - undetermined
    if determined > 0:
        p_hat = consensus_count / determined
        ci_low, ci_high = wilson_interval(consensus_count, determined)
    else:
        p_hat = ci_low = ci_high = None

    bound_applicable, expected, bound = consensus_bound(spec)
    event_a_defined = event_a_applicable(spec.space, spec.params.tau, spec.stopping.eps_prime)
    return MonteCarloReport(
        trials=trials,
        consensus_count=consensus_count,
        undetermined_count=undetermined,
        undetermined_warning=undetermined > UNDETERMINED_WARN_FRACTION * trials,
        p_hat=p_hat,
        ci_low=ci_low,
        ci_high=ci_high,
        bound=bound,
        bound_applicable=bound_applicable,
        expected_center_distance=expected,
        event_A_applicable=event_a_defined,
        event_A_count=event_a_count if event_a_defined else None,
        event_A_and_consensus_count=event_a_and_consensus if event_a_defined else None,
        mean_stop_time=(stop_time_sum / stopped_count) if stopped_count else None,
        mean_events=events_sum / trials,
        seed=spec.master_seed,
        params=spec.describe(),
    )


def run_estimate(spec: ExperimentSpec, parallelism: int = 1) -> MonteCarloReport:
    """Run all trials and aggregate; identical output for any parallelism level."""
    return reduce_outcomes(spec, trial_outcomes(spec, parallelism))
