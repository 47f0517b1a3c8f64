"""Event-driven simulator and Monte Carlo verification harness for
bounded-confidence opinion averaging on finite connected graphs."""

from .dynamics import (
    Configuration, ModelParams, StoppingSpec, TrialEngine, TrialOutcome, default_stopping,
)
from .graph import SocialGraph, generate, parse_edge_list
from .invariants import generator_drift
from .montecarlo import (
    ExperimentSpec,
    MonteCarloReport,
    run_estimate,
    run_single_trial,
    theoretical_bound,
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
