"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent index, trial id). Spans are recorded from
the benchmark's own code around calls into `hkc`; nothing inside the package
is instrumented. A span name is `layer` or `layer[variant]`, where the layer
is the public function called (`dynamics.step`, `space.max_pairwise_distance`,
...) and the variant tells a probe apart from the main path. Names starting
with `bench.` group other spans and are not program layers.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, trial]
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, trial: int | None = None):
        idx = self.open(name, trial)
        try:
            yield idx
        finally:
            self.close(idx)

    def open(self, name: str, trial: int | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        if trial is None and parent is not None:
            trial = self.spans[parent][4]
        self.spans.append([name, perf_counter(), None, parent, trial])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")
        self.spans[idx][2] = perf_counter()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished child of the innermost open span (for per-event timing)."""
        parent = self._stack[-1] if self._stack else None
        trial = self.spans[parent][4] if parent is not None else None
        self.spans.append([name, start, end, parent, trial])

    def duration(self, idx: int) -> float:
        return self.spans[idx][2] - self.spans[idx][1]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def by_name(self) -> dict[str, tuple[int, float, float]]:
        """name -> (count, total duration, total self time)."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _, _), own in zip(self.spans, self.self_times()):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += own
        return {name: tuple(row) for name, row in out.items()}

    def layer_self_times(self) -> dict[str, float]:
        """Self time per program layer (variants merged, `bench.*` groups left out)."""
        layers: dict[str, float] = defaultdict(float)
        for name, (_, _, own) in self.by_name().items():
            if not name.startswith("bench."):
                layers[name.split("[", 1)[0]] += own
        return dict(sorted(layers.items(), key=lambda kv: -kv[1]))

    def dump(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"name": name, "start": start - origin, "end": end - origin, "parent": parent, "trial": trial}
            for name, start, end, parent, trial in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
