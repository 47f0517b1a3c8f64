"""Social network representation, edge-list ingestion, and standard generators.

Graphs are undirected, simple, connected, with dense vertex ids 0..n-1, as checked
in one O(n + m) pass over the rows and a search from vertex 0 that stops at the
last new vertex, O(n) on a complete graph. Instances are immutable after
construction and shareable across workers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator

_ER_MAX_ATTEMPTS = 10**4
# an attempt draws one number per vertex pair; this caps the draws before a rejection
_ER_MAX_DRAWS = 10**8
MAX_VERTICES = 100_000
# complete and erdos_renyi enumerate all n(n-1)/2 vertex pairs
MAX_PAIRS = 2_000_000


class GraphParseError(ValueError):
    """Malformed edge-list input."""


class GraphValidationError(ValueError):
    """Structurally invalid graph (disconnected, bad ids, ...)."""


@dataclass(frozen=True)
class SocialGraph:
    vertex_count: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        """Row x must be `lower[x]`, the w < x whose rows list x in ascending order, then
        strictly increasing y in (x, n), each appending x to `lower[y]`: so rows are sorted,
        duplicate-free, in range, loop-free and symmetric, as row y must then list x."""
        n = self.vertex_count
        if n < 1:
            raise GraphValidationError("graph needs at least one vertex")
        if len(self.adjacency) != n:
            raise GraphValidationError("adjacency length does not match vertex count")
        lower: list[list[int]] = [[] for _ in range(n)]
        for x, row in enumerate(self.adjacency):
            k, prev = len(lower[x]), x
            if row[:k] != tuple(lower[x]):
                raise GraphValidationError(_row_defect(x, row, lower[x], n))
            for y in row[k:]:
                if not prev < y < n:
                    raise GraphValidationError(_row_defect(x, row, lower[x], n))
                lower[y].append(x)
                prev = y
        if not is_connected(self.adjacency):
            raise GraphValidationError("graph is not connected")

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[tuple[int, int]]) -> "SocialGraph":
        return cls(vertex_count, _adjacency(vertex_count, edges))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in ascending order."""
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if v > u:
                    yield (u, v)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2


def _adjacency(n: int, edges: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """Sorted, duplicate-free neighbor tuples from an edge list (duplicates merge)."""
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        # names the edge: unchecked, a negative id would index from the end and a large one raise IndexError
        if not (0 <= u < n and 0 <= v < n):
            raise GraphValidationError(f"edge ({u}, {v}) out of range for {n} vertices")
        nbrs[u].add(v)
        nbrs[v].add(u)
    return tuple(tuple(sorted(s)) for s in nbrs)


def _row_defect(x: int, row, low: list[int], n: int) -> str:
    """Why the one-pass check rejects row x: a lower neighbor missing, disorder, or the first bad entry."""
    if missing := set(low).difference(row):
        return f"edge ({min(missing)}, {x}) is not symmetric"
    if tuple(sorted(set(row))) != row:
        return f"adjacency of {x} must be sorted and duplicate-free"
    y = next(y for y in row if not 0 <= y < n or y == x or y < x and y not in low)
    return (f"neighbor {y} of {x} out of range" if not 0 <= y < n
            else f"self-loop at vertex {x}" if y == x else f"edge ({x}, {y}) is not symmetric")


def is_connected(adjacency) -> bool:
    """Whether a search from vertex 0 reaches every vertex; `adjacency[x]` iterates x's neighbors."""
    seen = bytearray(len(adjacency))
    seen[0] = 1
    stack, left = [0], len(adjacency) - 1
    while stack and left:
        for y in adjacency[stack.pop()]:
            if not seen[y]:
                seen[y] = 1
                left -= 1
                stack.append(y)
    return not left


def parse_edge_list(text: str) -> SocialGraph:
    """Parse "u v" edge lines into a graph.

    Blank lines and lines starting with '#' are ignored; duplicate edges are
    deduplicated; vertex ids must densely cover 0..max, which is checked
    before any graph of max + 1 vertices is built.
    """
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise GraphParseError(f"line {lineno}: expected two vertex ids, got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: non-integer token in {line!r}") from None
        if u < 0 or v < 0:
            raise GraphParseError(f"line {lineno}: vertex ids must be nonnegative, got {line!r}")
        if u == v:
            raise GraphParseError(f"line {lineno}: self-loop on vertex {u}")
        edges.add((min(u, v), max(u, v)))
    if not edges:
        raise GraphParseError("edge list contains no edges")
    ids = sorted({x for edge in edges for x in edge})
    if ids[-1] != len(ids) - 1:
        missing = next(i for i, x in enumerate(ids) if i != x)
        raise GraphParseError(f"vertex ids must cover 0..{ids[-1]}, but {missing} is missing")
    return SocialGraph.from_edges(len(ids), edges)


def path(n: int) -> SocialGraph:
    if n < 1:
        raise GraphValidationError("path needs n >= 1")
    rows = [(x - 1, x + 1) for x in range(n)]
    rows[-1] = rows[-1][:1]  # trimmed before row 0, so path(1)'s one row ends empty
    rows[0] = rows[0][1:]
    return SocialGraph(n, tuple(rows))


def cycle(n: int) -> SocialGraph:
    if n < 3:
        raise GraphValidationError("cycle needs n >= 3")
    rows = [(x - 1, x + 1) for x in range(n)]
    rows[0], rows[-1] = (1, n - 1), (0, n - 2)
    return SocialGraph(n, tuple(rows))


def complete(n: int) -> SocialGraph:
    if n < 1:
        raise GraphValidationError("complete graph needs n >= 1")
    r = tuple(range(n))
    return SocialGraph(n, tuple(r[:x] + r[x + 1:] for x in range(n)))


def grid(w: int, h: int) -> SocialGraph:
    if w < 1 or h < 1:
        raise GraphValidationError("grid needs w >= 1 and h >= 1")
    # vertex r * w + c: the neighbors above, left, right and below, in ascending order
    return SocialGraph(w * h, tuple(
        tuple(compress((v - w, v - 1, v + 1, v + w), (r > 0, c > 0, c < w - 1, r < h - 1)))
        for r in range(h) for c, v in enumerate(range(r * w, r * w + w))
    ))


def erdos_renyi(n: int, p: float, rng: random.Random) -> SocialGraph:
    """G(n, p) conditioned on connectivity, by resampling: at most 10**4 attempts and 10**8 draws."""
    if n < 1:
        raise GraphValidationError("erdos_renyi needs n >= 1")
    if not 0 < p <= 1:
        raise GraphValidationError(f"erdos_renyi needs 0 < p <= 1, got {p}")
    pairs = n * (n - 1) // 2
    attempts = min(_ER_MAX_ATTEMPTS, max(1, _ER_MAX_DRAWS // max(pairs, 1)))
    rand = rng.random
    for _ in range(attempts):
        # one draw per pair (i, j), i < j, in lexicographic order; row j gets its lower
        # neighbors i in ascending order before its own upper hits, so every row is sorted
        rows: list[list[int]] = [[] for _ in range(n)]
        for i, row in enumerate(rows):
            hits = [j for j in range(i + 1, n) if rand() < p]
            row += hits
            for j in hits:
                rows[j].append(i)
        adjacency = tuple(map(tuple, rows))
        if is_connected(adjacency):
            return SocialGraph(n, adjacency)
    raise GraphValidationError(f"no connected sample in {attempts} attempts; increase p (n={n}, p={p})")


# The generated graph kinds: constructor and its ordered, typed parameters.
# erdos_renyi also takes the random stream, after its parameters.
KINDS = {
    "path": (path, {"n": int}),
    "cycle": (cycle, {"n": int}),
    "complete": (complete, {"n": int}),
    "grid": (grid, {"w": int, "h": int}),
    "erdos_renyi": (erdos_renyi, {"n": int, "p": float}),
}


def generate(kind: str, rng: random.Random | None = None, **params) -> SocialGraph:
    """Build a graph of one of the KINDS from its named parameters, within the size limits."""
    if not isinstance(kind, str) or kind not in KINDS:
        raise ValueError(f"unknown graph kind {kind!r}")
    make, names = KINDS[kind]
    # a grid with both sides negative goes on to grid's own check of w and h
    n = max(params["w"], 0) * params["h"] if make is grid else params["n"]
    if n > MAX_VERTICES:
        raise GraphValidationError(f"{kind} has {n} vertices, over the limit of {MAX_VERTICES}")
    pairs = n * (n - 1) // 2
    if make in (complete, erdos_renyi) and pairs > MAX_PAIRS:
        raise GraphValidationError(f"{kind} has {pairs} vertex pairs, over the limit of {MAX_PAIRS}")
    args = [params[name] for name in names]
    if make is erdos_renyi:
        if rng is None:
            raise ValueError("erdos_renyi needs a random stream")
        args.append(rng)
    return make(*args)
