"""Output checks and digests for the benchmark.

The stop-state check is written with numpy from the model's definition and
does not call `hkc.analysis`: at a stop every edge distance lies outside
[eps, tau], and the trial is a consensus exactly when the edges shorter than
eps connect every vertex.
"""

from __future__ import annotations

import hashlib
import io

import numpy as np

TRACE_HEADER = "event,time,vertex,x_center,max_pair_dist"
_REL_TOL = 1e-9


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _g(x: float) -> str:
    return format(float(x), ".17g")


def outcome_line(index, stopped, consensus, event_a, events, stop_time, final_rows) -> str:
    opinions = ";".join(",".join(_g(v) for v in row) for row in final_rows)
    return f"{index}|{stopped}|{consensus}|{event_a}|{events}|{_g(stop_time)}|{opinions}\n"


def outcomes_digest(outcomes) -> str:
    """Digest of per-trial outcomes (`hkc.dynamics.TrialOutcome`), in trial order."""
    return sha256(
        "".join(
            outcome_line(i, o.stopped, o.consensus, o.event_a, o.events, o.stop_time, o.final.opinions.tolist())
            for i, o in enumerate(outcomes)
        )
    )


def summary_digest(summary: dict) -> str:
    """The same digest for the one trial of a parsed `hkc simulate` summary."""
    return sha256(
        outcome_line(
            0, summary["stopped"], summary["consensus"], summary["event_A"],
            summary["events"], summary["stop_time"], summary["final"],
        )
    )


def edge_arrays(adjacency) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints (u < v) of every edge of an adjacency list."""
    degrees = [len(nbrs) for nbrs in adjacency]
    u = np.repeat(np.arange(len(adjacency)), degrees)
    v = np.fromiter((y for nbrs in adjacency for y in nbrs), dtype=np.int64, count=sum(degrees))
    keep = u < v
    return u[keep], v[keep]


def distances(a: np.ndarray, b: np.ndarray, norm: str) -> np.ndarray:
    """Row-wise distance between opinion arrays under "l1", "l2" or "linf"."""
    diff = a - b
    if norm == "l1":
        return np.abs(diff).sum(axis=1)
    if norm == "l2":
        return np.sqrt((diff * diff).sum(axis=1))
    if norm == "linf":
        return np.abs(diff).max(axis=1)
    raise ValueError(f"unknown norm {norm!r}")


def connected(n: int, u: np.ndarray, v: np.ndarray) -> bool:
    """Whether the edges (u, v) connect all n vertices (min-label propagation)."""
    label = np.arange(n)
    while True:
        low = np.minimum(label[u], label[v])
        new = label.copy()
        np.minimum.at(new, u, low)
        np.minimum.at(new, v, low)
        new = new[new]
        if np.array_equal(new, label):
            return bool((label == 0).all())
        label = new


def stop_state_errors(final, edges, norm: str, eps: float, tau: float, stopped, consensus) -> list[str]:
    """Problems with one trial's final state; empty when the trial is correct."""
    if not stopped:
        return ["trial hit the event cap"]
    x = np.asarray(final, dtype=np.float64)
    u, v = edges
    d = distances(x[u], x[v], norm)
    banded = int(((d >= eps) & (d <= tau)).sum())
    errors = []
    if banded:
        errors.append(f"{banded} edges inside [eps, tau] at the stop")
    near = d < eps
    agreed = connected(len(x), u[near], v[near])
    if agreed != consensus:
        errors.append(f"classified consensus={consensus}, but the < eps edges connect all: {agreed}")
    return errors


def report_errors(report: dict, consensus: list[bool]) -> list[str]:
    """Cross-check an estimate report against independently classified trials."""
    errors = []
    if report["consensus_count"] != sum(consensus):
        errors.append(f"consensus_count {report['consensus_count']} != {sum(consensus)} independent")
    if report["bound_applicable"] and report["ci_high"] is not None and report["ci_high"] < report["bound"]:
        errors.append(f"ci_high {report['ci_high']} < bound {report['bound']}")
    return errors


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _REL_TOL * max(1.0, abs(a), abs(b))


def trace_errors(text: str, events: int, final, center, norm: str) -> list[str]:
    """Check a `simulate --trace` CSV against the trial's final state."""
    header, _, body = text.partition("\n")
    if header != TRACE_HEADER:
        return [f"trace header {header!r}"]
    rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2) if body else np.empty((0, 5))
    if len(rows) != events:
        return [f"trace has {len(rows)} rows for {events} events"]
    if events == 0:
        return []
    errors = []
    if not np.array_equal(rows[:, 0], np.arange(1, events + 1)):
        errors.append("trace event column is not 1..events")
    if np.any(np.diff(rows[:, 1]) < 0):
        errors.append("trace time column decreases")
    x = np.asarray(final, dtype=np.float64)
    x_center = float(distances(x, np.asarray([center] * len(x)), norm).sum())
    i, j = np.triu_indices(len(x), k=1)
    diameter = float(distances(x[i], x[j], norm).max()) if len(i) else 0.0
    if not _close(rows[-1, 3], x_center):
        errors.append(f"last x_center {rows[-1, 3]!r} != {x_center!r} recomputed")
    if not _close(rows[-1, 4], diameter):
        errors.append(f"last max_pair_dist {rows[-1, 4]!r} != {diameter!r} recomputed")
    return errors
