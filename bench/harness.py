"""Workloads and measurement for the hkc benchmark (see README.md here).

`measure` runs one workload untraced for a fixed time and returns the
end-to-end metrics; `measure_traced` runs it once with spans around every
call into `hkc` and returns the per-layer metrics. Both check the program's
outputs and count failed trials. `hkc` must be importable (`run.py` puts the
checkout's `src` first on the path).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from hkc import cli
from hkc.config import build_experiment, load_config
from hkc.dynamics import TrialEngine
from hkc.graph import generate
from hkc.montecarlo import BOUND_MC_SAMPLES, reduce_outcomes, trial_outcomes
from hkc.render import TRACE_HEADER, to_json, trace_row
from hkc.seeding import bound_rng, graph_rng, trial_rng
from hkc.space import expected_center_distance, max_pairwise_distance

import checks
from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
PIN_SEED = 7
MIN_ROUNDS = 2
SETUP_REPEATS = 3
SETUP_MIN_S = 0.05  # per repetition, so that sub-millisecond set-ups get many samples

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "events_per_s": "1/s", "peak_rss_mib": "MiB"}
PER_LAYER_UNITS = {
    "graph.build_s": "s",
    "dynamics.init_s": "s",
    "dynamics.step_s": "s",
    "dynamics.outcome_s": "s",
    "dynamics.ns_per_event": "ns",
    "dynamics.events": "count",
    "dynamics.edge_updates": "count",
    "space.bound_mc_s": "s",
    "montecarlo.reduce_s": "s",
    "montecarlo.pool_overhead_s": "s",
    "montecarlo.pool_efficiency": "ratio",
    "dynamics.record_s": "s",
    "space.max_pair_s": "s",
    "render.trace_row_s": "s",
    "render.trace_bytes": "B",
    "trace_overhead_frac": "ratio",
    "trace_coverage_frac": "ratio",
}


@dataclass(frozen=True)
class Workload:
    """An hkc config plus how the benchmark drives it.

    kind "estimate" times `trial_outcomes -> reduce_outcomes -> to_json` at
    `parallel` workers; kind "simulate" times `hkc simulate CONFIG --trace`.
    The timed loop of `measure` cycles over `inputs` master seeds; for
    estimates each repetition is a serial estimate of `rep_trials` trials
    (None: the config's count). The probe limits cap the events of the
    record and trace probes in the traced run (None: run trial 0 to its stop).
    """

    name: str
    config: Path
    kind: str
    parallel: int = 1
    inputs: int = 4
    rep_trials: int | None = None
    record_probe_events: int | None = None
    trace_probe_events: int | None = None
    pins: dict | None = None


def workloads() -> dict[str, Workload]:
    """The benchmark's workloads by name, with their seed-7 pins."""
    pins = json.loads((BENCH_DIR / "pins.json").read_text(encoding="utf-8"))
    cfg = BENCH_DIR / "workloads"
    return {
        "dense": Workload("dense", cfg / "dense.json", "estimate", parallel=2, inputs=10, rep_trials=1,
                          record_probe_events=300, trace_probe_events=20, pins=pins.get("dense")),
        "sparse": Workload("sparse", cfg / "sparse.json", "estimate", inputs=4,
                           record_probe_events=3000, trace_probe_events=3, pins=pins.get("sparse")),
        "trace": Workload("trace", cfg / "trace.json", "simulate", pins=pins.get("trace")),
    }


def rep_seed(seed: int, rep: int) -> int:
    """Master seed number `rep` derived from `seed`; number 0 is the seed itself."""
    if rep == 0:
        return seed
    digest = hashlib.sha256(f"hkc-bench:{seed}:{rep}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def host_probe_ms(seconds: float = 0.5) -> float:
    """Fastest time of a fixed pure-Python loop, in ms, over `seconds`.

    Recorded beside each result so that a slow phase of a shared host shows
    as such and is not mistaken for a slower program.
    """
    best = float("inf")
    end = perf_counter() + seconds
    while perf_counter() < end:
        t0 = perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        best = min(best, perf_counter() - t0)
    return best * 1e3


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "host_probe_ms": host_probe_ms(),
    }


def _finish(env: dict) -> None:
    env["loadavg_after"] = list(os.getloadavg())
    env["host_probe_ms_after"] = host_probe_ms()


def setup(wl: Workload, master_seed: int, trials: int | None = None):
    raw = load_config(str(wl.config))
    if trials is not None:
        raw["trials"] = trials
    return build_experiment(raw, seed_override=master_seed)


def run_estimate(spec, parallel: int):
    """The estimate path; returns (stdout text, outcomes, seconds in trial_outcomes)."""
    t0 = perf_counter()
    outcomes = trial_outcomes(spec, parallel)
    t1 = perf_counter()
    text = to_json(reduce_outcomes(spec, outcomes).to_json_dict()) + "\n"
    return text, outcomes, t1 - t0


def run_simulate(wl: Workload, master_seed: int, out_dir: Path) -> tuple[str, str]:
    """`HKC_SEED=master_seed hkc simulate CONFIG --trace FILE`; returns (stdout, trace text)."""
    trace_path = out_dir / f"{wl.name}-trace.csv"
    stdout = io.StringIO()
    saved = os.environ.get("HKC_SEED")
    os.environ["HKC_SEED"] = str(master_seed)
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["simulate", str(wl.config), "--trace", str(trace_path)])
    finally:
        if saved is None:
            del os.environ["HKC_SEED"]
        else:
            os.environ["HKC_SEED"] = saved
    if code != 0:
        raise RuntimeError(f"hkc simulate exited with {code}")
    return stdout.getvalue(), trace_path.read_text(encoding="utf-8")


class Tally:
    """Trials attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, label: str, trials: int, trial_errors: dict[int, list[str]], whole_errors: list[str]):
        """Count `trials` trials; errors that concern the whole output fail all of them."""
        self.attempted += trials
        self.failed += trials if whole_errors else len(trial_errors)
        self.errors += [f"{label}: {e}" for e in whole_errors]
        self.errors += [f"{label} trial {i}: {e}" for i, errs in trial_errors.items() for e in errs]


def check_estimate(spec, text: str, outcomes) -> tuple[dict[int, list[str]], list[str]]:
    edges = checks.edge_arrays(spec.graph.adjacency)
    norm, eps, tau = spec.space.norm.value, spec.stopping.eps, spec.params.tau
    trial_errors = {}
    for i, o in enumerate(outcomes):
        errs = checks.stop_state_errors(o.final.opinions, edges, norm, eps, tau, o.stopped, o.consensus)
        if errs:
            trial_errors[i] = errs
    return trial_errors, checks.report_errors(json.loads(text), [o.consensus for o in outcomes])


def check_simulate(spec, stdout: str, trace: str) -> tuple[dict[int, list[str]], list[str]]:
    summary = json.loads(stdout)
    edges = checks.edge_arrays(spec.graph.adjacency)
    norm = spec.space.norm.value
    errs = checks.stop_state_errors(
        summary["final"], edges, norm, spec.stopping.eps, spec.params.tau,
        summary["stopped"], summary["consensus"],
    )
    errs += checks.trace_errors(trace, summary["events"], summary["final"], spec.space.center, norm)
    return ({0: errs} if errs else {}), []


def digests(wl: Workload, out: tuple) -> dict:
    if wl.kind == "estimate":
        text, outcomes, _ = out
        return {
            "report_sha256": checks.sha256(text),
            "outcomes_sha256": checks.outcomes_digest(outcomes),
            "trace_sha256": None,
            "events": sum(o.events for o in outcomes),
        }
    stdout, trace = out
    summary = json.loads(stdout)
    return {
        "report_sha256": checks.sha256(stdout),
        "outcomes_sha256": checks.summary_digest(summary),
        "trace_sha256": checks.sha256(trace),
        "events": summary["events"],
    }


def pin_errors(wl: Workload, seed: int, found: dict) -> list[str]:
    if seed != PIN_SEED or wl.pins is None:
        return []
    return [f"{key} {found[key]!r} != pinned {want!r}" for key, want in wl.pins.items() if found[key] != want]


def run_once(wl: Workload, spec, master_seed: int, out_dir: Path, parallel: int | None = None):
    """One untraced run of the workload's path: (output, seconds, check results).

    Estimates run at `parallel` workers (None: the workload's own).
    """
    if wl.kind == "estimate":
        t0 = perf_counter()
        out = run_estimate(spec, wl.parallel if parallel is None else parallel)
        seconds = perf_counter() - t0
        return out, seconds, check_estimate(spec, out[0], out[1])
    t0 = perf_counter()
    out = run_simulate(wl, master_seed, out_dir)
    seconds = perf_counter() - t0
    return out, seconds, check_simulate(spec, *out)


def _trials(wl: Workload, spec) -> int:
    return spec.trials if wl.kind == "estimate" else 1


def peak_rss_mib(parallel: int) -> float:
    """Peak RSS of this process plus `parallel` times the largest worker's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if parallel > 1 else 0
    return (own + parallel * workers) / 1024.0


def measure(wl: Workload, seed: int, seconds: float, out_dir: Path) -> dict:
    """Check the workload once, then time repetitions over its inputs for `seconds`.

    The check run is the workload itself at master seed `seed`, with its
    config and parallelism; it is compared with the pins and also warms the
    process up. The timed loop then runs serially, in whole rounds, over
    `wl.inputs` master seeds derived from `seed`: at least MIN_ROUNDS rounds,
    and no round that would end past `seconds` at the last round's pace. It checks
    every output and that each input's output repeats exactly.

    The figures are taken in the host's slow phase: each input's slowest run,
    and the 90th percentile of all set-up samples. On a shared host the speed
    switches between a fast and a slow phase for seconds to minutes; most runs
    see the slow phase, while many never see the fast one, so the slowest
    repetitions read the same from run to run where medians mix the phases.
    """
    env = environment()
    tally = Tally()
    spec = setup(wl, seed)
    out, _, (trial_errors, whole_errors) = run_once(wl, spec, seed, out_dir)
    check = {"master_seed": seed, **digests(wl, out)}
    tally.add(f"check (seed {seed})", _trials(wl, spec), trial_errors, whole_errors + pin_errors(wl, seed, check))

    masters = [rep_seed(seed, k + 1) for k in range(wl.inputs)]
    setup_s = [[] for _ in masters]
    run_s = [[] for _ in masters]
    first: list[dict | None] = [None] * wl.inputs
    reps, rounds = [], 0
    start, last_round_s = perf_counter(), 0.0
    while rounds < MIN_ROUNDS or perf_counter() - start + last_round_s <= seconds:
        round_start = perf_counter()
        for k, master in enumerate(masters):
            setup_start = perf_counter()
            for i in itertools.count():
                t0 = perf_counter()
                spec = setup(wl, master, wl.rep_trials)
                setup_s[k].append(perf_counter() - t0)
                if i + 1 >= SETUP_REPEATS and perf_counter() - setup_start >= SETUP_MIN_S:
                    break
            out, elapsed, (trial_errors, whole_errors) = run_once(wl, spec, master, out_dir, parallel=1)
            found = digests(wl, out)
            run_s[k].append(elapsed)
            if first[k] is None:
                first[k] = found
            elif found != first[k]:
                whole_errors = whole_errors + ["output differs from this input's first repetition"]
            tally.add(f"round {rounds} input {k} (seed {master})", _trials(wl, spec), trial_errors, whole_errors)
            reps.append({"round": rounds, "input": k, "master_seed": master, "run_s": elapsed, **found})
        rounds += 1
        last_round_s = perf_counter() - round_start
    events = sum(f["events"] for f in first)
    slowest = [max(v) for v in run_s]
    setup_all = [t for v in setup_s for t in v]
    values = {
        "setup_s": statistics.quantiles(setup_all, n=10)[-1],
        "run_s": statistics.fmean(slowest),
        "events_per_s": events / sum(slowest),
        "peak_rss_mib": peak_rss_mib(wl.parallel),
    }
    _finish(env)
    detail = {"env": env, "check": check, "rounds": rounds, "setup_samples": setup_s, "reps": reps}
    return _result(tally, values, END_TO_END_UNITS, detail)


def _result(tally: Tally, values: dict, units: dict, detail: dict) -> dict:
    return {
        "correct": tally.failed == 0 and not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "detail": {**detail, "errors": tally.errors},
    }


# --- traced run -------------------------------------------------------------


def _traced_trial(tracer: Tracer, spec, index: int, degree: list[int]):
    with tracer.span("seeding.trial_rng"):
        rng = trial_rng(spec.master_seed, index)
    with tracer.span("dynamics.TrialEngine"):
        engine = TrialEngine(spec.graph, spec.space, spec.init, spec.params, spec.stopping, rng,
                             record_samples=False)
    updates = 0
    cap = spec.stopping.max_events
    with tracer.span("dynamics.step"):
        while not engine.is_stopped() and engine.events < cap:
            updates += degree[engine.step()]
    with tracer.span("dynamics.outcome"):
        outcome = engine.outcome()
    return outcome, updates


def _record_probe(tracer: Tracer, spec, limit: int | None) -> float:
    """Seconds per event that `record_samples=True` adds, on trial 0's stream."""
    seconds, events = {}, {}
    for record, tag in ((False, "plain"), (True, "record")):
        rng = trial_rng(spec.master_seed, 0)
        with tracer.span(f"dynamics.TrialEngine[{tag}]"):
            engine = TrialEngine(spec.graph, spec.space, spec.init, spec.params, spec.stopping, rng,
                                 record_samples=record)
        with tracer.span(f"dynamics.step[{tag}]") as idx:
            engine.run_to_stop(limit)
        events[tag] = engine.events
        seconds[tag] = tracer.duration(idx)
    if events["plain"] != events["record"]:
        raise RuntimeError("record probe: the two runs of one stream diverged")
    return (seconds["record"] - seconds["plain"]) / max(1, events["plain"])


def _traced_simulate(tracer: Tracer, spec, limit: int | None, trace_path: Path):
    """The `hkc simulate --trace` path for trial 0, with a span per observed event."""
    norm = spec.space.norm
    with open(trace_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TRACE_HEADER + "\n")

        def on_event(event, time, vertex, x_center, opinions):
            t0 = perf_counter()
            diameter = max_pairwise_distance(opinions, norm)
            t1 = perf_counter()
            row = trace_row(event, time, vertex, x_center, diameter)
            t2 = perf_counter()
            fh.write(row + "\n")
            t3 = perf_counter()
            tracer.add("space.max_pairwise_distance", t0, t1)
            tracer.add("render.trace_row", t1, t2)
            tracer.add("io.write", t2, t3)

        with tracer.span("seeding.trial_rng[trace]"):
            rng = trial_rng(spec.master_seed, 0)
        with tracer.span("dynamics.TrialEngine[trace]"):
            engine = TrialEngine(spec.graph, spec.space, spec.init, spec.params, spec.stopping, rng,
                                 record_samples=True, on_event=on_event)
        with tracer.span("dynamics.step[trace]"):
            engine.run_to_stop(limit)
    with tracer.span("dynamics.outcome[trace]"):
        outcome = engine.outcome()
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
    with tracer.span("render.to_json[trace]"):
        to_json(summary)
    return summary


def _generate_graph(raw: dict, master_seed: int) -> None:
    params = {k: v for k, v in raw["graph"].items() if k != "kind"}
    kind = raw["graph"]["kind"]
    generate(kind, rng=graph_rng(master_seed) if kind == "erdos_renyi" else None, **params)


def measure_traced(wl: Workload, seed: int, out_dir: Path) -> dict:
    """Untraced references, then one traced run of repetition 0; per-layer metrics."""
    env = environment()
    tally = Tally()
    spec = setup(wl, seed)

    # Untraced references: the workload's own path, and for pooled estimates a serial run.
    ref_out, ref_s, (trial_errors, whole_errors) = run_once(wl, spec, seed, out_dir)
    ref_digests = digests(wl, ref_out)
    tally.add("untraced", _trials(wl, spec), trial_errors, whole_errors + pin_errors(wl, seed, ref_digests))
    est_text, est_outcomes, pool_wall = ref_out if wl.kind == "estimate" else run_estimate(spec, 1)
    if wl.kind == "estimate" and wl.parallel > 1:
        t0 = perf_counter()
        serial_text = run_estimate(spec, 1)[0]
        serial_s = perf_counter() - t0
        mismatch = ["serial report bytes differ from the parallel report"] if serial_text != est_text else []
        tally.add("serial", spec.trials, {}, mismatch)
    else:
        serial_s = ref_s

    tracer = Tracer()
    root = tracer.open("bench.run")
    with tracer.span("config.load_config"):
        raw = load_config(str(wl.config))
    with tracer.span("config.build_experiment"):
        spec = build_experiment(raw, seed_override=seed)
    with tracer.span("graph.generate"):
        _generate_graph(raw, seed)
    with tracer.span("space.expected_center_distance"):
        if spec.params.tau > spec.space.radius:
            expected_center_distance(spec.init, spec.space, samples=BOUND_MC_SAMPLES, rng=bound_rng(seed))
    degree = [len(nbrs) for nbrs in spec.graph.adjacency]
    outcomes, edge_updates = [], 0
    with tracer.span("bench.estimate") as est_span:
        for i in range(spec.trials):
            with tracer.span("bench.trial", trial=i):
                outcome, updates = _traced_trial(tracer, spec, i, degree)
            outcomes.append(outcome)
            edge_updates += updates
        with tracer.span("montecarlo.reduce_outcomes"):
            report = reduce_outcomes(spec, outcomes)
        with tracer.span("render.to_json"):
            text = to_json(report.to_json_dict()) + "\n"
    with tracer.span("bench.probe.record"):
        record_s = _record_probe(tracer, spec, wl.record_probe_events)
    trace_path = out_dir / f"{wl.name}-trace-traced.csv"
    with tracer.span("bench.simulate") as sim_span:
        summary = _traced_simulate(tracer, spec, wl.trace_probe_events, trace_path)
    tracer.close(root)

    # Checks: the traced run must reproduce the untraced outputs.
    trial_errors, whole_errors = check_estimate(spec, text, outcomes)
    if text != est_text:
        whole_errors.append("traced report bytes differ from the untraced report")
    if checks.outcomes_digest(outcomes) != checks.outcomes_digest(est_outcomes):
        whole_errors.append("traced trial outcomes differ from the untraced ones")
    tally.add("traced estimate", spec.trials, trial_errors, whole_errors)
    traced_digests = {"report_sha256": checks.sha256(text), "outcomes_sha256": checks.outcomes_digest(outcomes)}
    if wl.kind == "simulate":
        traced_digests = {
            "outcomes_sha256": checks.summary_digest(summary),
            "trace_sha256": checks.sha256(trace_path.read_text(encoding="utf-8")),
        }
        mismatched = [key for key, value in traced_digests.items() if value != ref_digests[key]]
        tally.add("traced simulate", 1, {},
                  [f"traced {key} differs from hkc simulate --trace" for key in mismatched])

    by_name = tracer.by_name()

    def self_s(name):
        return by_name.get(name, (0, 0.0, 0.0))[2]

    def per_call(name):
        count, total, _ = by_name.get(name, (0, 0.0, 0.0))
        return total / max(1, count)

    events = sum(o.events for o in outcomes)
    serial_trials_s = by_name["bench.trial"][1]
    if wl.kind == "estimate":
        main_traced, main_untraced = tracer.duration(est_span), serial_s
    else:
        main_traced, main_untraced = tracer.duration(sim_span), ref_s
    layers = tracer.layer_self_times()
    wall = tracer.duration(root)
    values = {
        "graph.build_s": self_s("graph.generate"),
        "dynamics.init_s": self_s("dynamics.TrialEngine"),
        "dynamics.step_s": self_s("dynamics.step"),
        "dynamics.outcome_s": self_s("dynamics.outcome"),
        "dynamics.ns_per_event": self_s("dynamics.step") / max(1, events) * 1e9,
        "dynamics.events": events,
        "dynamics.edge_updates": edge_updates,
        "space.bound_mc_s": self_s("space.expected_center_distance"),
        "montecarlo.reduce_s": self_s("montecarlo.reduce_outcomes"),
        "montecarlo.pool_overhead_s": pool_wall - serial_trials_s / wl.parallel,
        "montecarlo.pool_efficiency": serial_trials_s / (wl.parallel * pool_wall),
        "dynamics.record_s": record_s,
        "space.max_pair_s": per_call("space.max_pairwise_distance"),
        "render.trace_row_s": per_call("render.trace_row"),
        "render.trace_bytes": trace_path.stat().st_size,
        "trace_overhead_frac": main_traced / main_untraced - 1.0,
        "trace_coverage_frac": sum(layers.values()) / wall,
    }
    tracer.dump(out_dir / f"{wl.name}-seed{seed}-spans.json")
    _finish(env)
    detail = {
        "env": env,
        "digests": ref_digests,
        "traced_digests": traced_digests,
        "traced_wall_s": wall,
        "dominant_layer": next(iter(layers)),
        "layer_self_s": layers,
    }
    return _result(tally, values, PER_LAYER_UNITS, detail)
