"""Command-line surface: simulate, estimate, bound, and check-invariants.

Exit codes: 0 success, 1 invariant violation, 2 usage or config error.
The environment variable HKC_SEED, when set, overrides the config seed.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, build_experiment, load_config
from .invariants import run_drift_check
from .montecarlo import consensus_bound, run_estimate, run_single_trial
from .render import TRACE_HEADER, to_json, trace_row
from .space import max_pairwise_distance


def _seed_override() -> int | None:
    value = os.environ.get("HKC_SEED")
    if value is None:
        return None
    try:
        seed = int(value)
    except ValueError:
        raise ConfigError(f"HKC_SEED: expected an integer, got {value!r}") from None
    if not 0 <= seed < 2**64:
        raise ConfigError(f"HKC_SEED: expected a 64-bit nonnegative integer, got {seed}")
    return seed


def cmd_simulate(args) -> int:
    spec = build_experiment(load_config(args.config), seed_override=_seed_override())
    try:
        trace_fh = open(args.trace, "w", encoding="utf-8", newline="\n") if args.trace else None
    except OSError as exc:
        raise ConfigError(f"--trace: cannot write {args.trace!r}: {exc}") from exc
    try:
        on_event = None
        if trace_fh is not None:
            trace_fh.write(TRACE_HEADER + "\n")
            norm = spec.space.norm

            def on_event(event, time, vertex, x_center, opinions):
                trace_fh.write(
                    trace_row(event, time, vertex, x_center, max_pairwise_distance(opinions, norm))
                    + "\n"
                )

        outcome = run_single_trial(spec, 0, on_event)
    finally:
        if trace_fh is not None:
            trace_fh.close()
    summary = {
        "stopped": outcome.stopped,
        "stop_time": outcome.stop_time,
        "events": outcome.events,
        "consensus": outcome.consensus,
        "event_A": outcome.event_a,
        "classification": "T_eps_proxy",
        "final": [list(row) for row in outcome.final.opinions.tolist()],
        "seed": spec.master_seed,
        "trial_index": 0,
        "params": spec.describe(),
    }
    print(to_json(summary))
    return 0


def cmd_estimate(args) -> int:
    if args.parallel < 1:
        raise ConfigError(f"--parallel must be >= 1, got {args.parallel}")
    spec = build_experiment(load_config(args.config), seed_override=_seed_override())
    report = run_estimate(spec, parallelism=args.parallel)
    print(to_json(report.to_json_dict()))
    return 0


def cmd_bound(args) -> int:
    spec = build_experiment(load_config(args.config), seed_override=_seed_override())
    applicable, expected, bound = consensus_bound(spec)
    print(
        to_json(
            {
                "tau": spec.params.tau,
                "rho": spec.space.radius,
                "expected_center_distance": expected,
                "bound": bound,
                "bound_applicable": applicable,
            }
        )
    )
    return 0


def cmd_check_invariants(args) -> int:
    if args.cases < 1:
        raise ConfigError(f"--cases must be >= 1, got {args.cases}")
    result = run_drift_check(args.cases, args.seed)
    print(to_json(result))
    return 0 if result["status"] == "pass" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hkc",
        description=(
            "Event-driven simulator and Monte Carlo harness for bounded-confidence "
            "opinion averaging on finite connected graphs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one trial and print its summary JSON")
    p.add_argument("config", help="JSON config file")
    p.add_argument("--trace", metavar="FILE", help="write a per-event trajectory CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="run all trials and print the estimation report JSON")
    p.add_argument("config", help="JSON config file")
    p.add_argument("--parallel", type=int, default=1, metavar="K", help="worker processes (default 1)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("bound", help="print the consensus-probability lower bound without simulating")
    p.add_argument("config", help="JSON config file")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("check-invariants", help="random search for positive disagreement drift")
    p.add_argument("--cases", type=int, default=1000, metavar="N", help="random cases (default 1000)")
    p.add_argument("--seed", type=int, default=0, metavar="S", help="case-generator seed (default 0)")
    p.set_defaults(func=cmd_check_invariants)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
