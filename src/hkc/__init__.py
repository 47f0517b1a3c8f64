"""Event-driven simulator and Monte Carlo verification harness for
bounded-confidence opinion averaging on finite connected graphs."""

from .analysis import (
    classify_consensus,
    generator_drift,
    theoretical_bound,
    total_disagreement,
)
from .dynamics import (
    Configuration,
    ModelParams,
    StoppingSpec,
    TrialEngine,
    TrialOutcome,
    apply_update,
    check_event_a,
    compatibility,
    default_stopping,
    gillespie_step,
    stop_reached,
)
from .graph import SocialGraph, generate, parse_edge_list
from .montecarlo import (
    ExperimentSpec,
    MonteCarloReport,
    run_estimate,
    run_single_trial,
    trial_outcomes,
    wilson_interval,
)
from .space import (
    Ball,
    Box,
    Norm,
    OpinionSpace,
    PointMasses,
    UniformShape,
    expected_center_distance,
    sample_initial,
)

__version__ = "0.1.0"
