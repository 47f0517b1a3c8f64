import random
from bisect import bisect_left
from collections import Counter

import pytest

from hkc import graph
from hkc.graph import (
    GraphParseError,
    GraphValidationError,
    SocialGraph,
    complete,
    cycle,
    erdos_renyi,
    generate,
    grid,
    is_connected,
    parse_edge_list,
    path,
)
from oracles import adjacency_defect, components, erdos_renyi_pairs


def test_parse_simple_path():
    g = parse_edge_list("0 1\n1 2")
    assert g.vertex_count == 3
    assert list(g.edges()) == [(0, 1), (1, 2)]


def test_parse_rejects_self_loop_with_line_number():
    with pytest.raises(GraphParseError, match="line 1"):
        parse_edge_list("0 0")
    with pytest.raises(GraphParseError, match="line 3"):
        parse_edge_list("0 1\n1 2\n2 2")


def test_parse_rejects_disconnected():
    with pytest.raises(GraphValidationError, match="not connected"):
        parse_edge_list("0 1\n2 3")


def test_parse_rejects_non_integer():
    with pytest.raises(GraphParseError, match="non-integer"):
        parse_edge_list("0 x")


def test_parse_rejects_gapped_ids():
    # ids must cover 0..max: the smallest missing id is named before a graph is built
    with pytest.raises(GraphParseError, match=r"^vertex ids must cover 0\.\.3, but 2 is missing$"):
        parse_edge_list("0 1\n1 3\n3 0")
    with pytest.raises(GraphParseError, match=r"^vertex ids must cover 0\.\.5, but 2 is missing$"):
        parse_edge_list("0 1\n1 5\n")
    with pytest.raises(GraphParseError, match=r"^vertex ids must cover 0\.\.2, but 0 is missing$"):
        parse_edge_list("1 2\n")


def test_parse_ignores_comments_blank_lines_and_crlf():
    g = parse_edge_list("# comment\r\n\r\n0 1\r\n1 2\r\n")
    assert g.vertex_count == 3


def test_parse_deduplicates_edges():
    g = parse_edge_list("0 1\n1 0\n0 1")
    assert g.edge_count == 1


def test_complete_graph_shape():
    g = complete(4)
    assert g.edge_count == 6
    assert all(len(g.adjacency[x]) == 3 for x in range(4))
    for n in range(1, 8):
        assert complete(n) == SocialGraph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_path_graph_shape():
    g = path(8)
    assert g.edge_count == 7
    degrees = sorted(len(g.adjacency[x]) for x in range(8))
    assert degrees == [1, 1, 2, 2, 2, 2, 2, 2]


def test_grid_graph_shape():
    g = grid(3, 2)
    assert g.vertex_count == 6
    assert g.edge_count == 7  # 3 vertical + 4 horizontal


def test_generated_rows_equal_from_edges_of_their_edge_lists():
    # path, cycle and grid build their sorted rows directly, as complete does
    for n in range(1, 41):
        assert path(n) == SocialGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)]), n
    for n in range(3, 41):
        assert cycle(n) == SocialGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]), n
    for w in range(1, 8):
        for h in range(1, 41):
            edges = [(v, v + 1) for v in range(w * h) if v % w < w - 1] + [(v, v + w) for v in range(w * h - w)]
            assert grid(w, h) == SocialGraph.from_edges(w * h, edges), (w, h)


def test_single_vertex_graphs():
    assert path(1).vertex_count == 1
    assert complete(1).edge_count == 0
    with pytest.raises(GraphValidationError):
        cycle(2)
    with pytest.raises(GraphValidationError, match="graph needs at least one vertex"):
        SocialGraph(0, ())


def test_erdos_renyi_deterministic_per_seed():
    a = erdos_renyi(10, 0.5, random.Random(7))
    b = erdos_renyi(10, 0.5, random.Random(7))
    assert a == b
    assert a.vertex_count == 10


class _CountingRandom(random.Random):
    draws = 0

    def random(self):
        self.draws += 1
        return super().random()


def test_erdos_renyi_equals_per_pair_oracle():
    # the same draws in the same pair order give the same graph and leave the stream
    # at the same place; the small sparse cases reject disconnected samples first
    cases = [(1, 0.5, 1), (2, 1.0, 2), (10, 0.5, 7), (12, 0.25, 3), (8, 0.25, 2), (10, 0.2, 3), (60, 0.1, 11)]
    resampled = 0
    for n, p, seed in cases:
        got_rng, want_rng = _CountingRandom(seed), random.Random(seed)
        got = erdos_renyi(n, p, got_rng)
        assert got.adjacency == erdos_renyi_pairs(n, p, want_rng)
        resampled += got_rng.draws > n * (n - 1) // 2
        assert got_rng.random() == want_rng.random()
    assert resampled >= 2


def test_erdos_renyi_gives_up_when_p_too_small():
    with pytest.raises(GraphValidationError, match="increase p"):
        erdos_renyi(40, 1e-6, random.Random(1))


def test_erdos_renyi_attempts_are_capped_by_the_draw_budget(monkeypatch):
    # an attempt draws n(n-1)/2 numbers; the budget caps the attempts, at least one
    monkeypatch.setattr(graph, "_ER_MAX_DRAWS", 100)
    with pytest.raises(GraphValidationError, match=r"no connected sample in 2 attempts; increase p \(n=10"):
        erdos_renyi(10, 1e-9, random.Random(1))
    with pytest.raises(GraphValidationError, match="no connected sample in 1 attempts"):
        erdos_renyi(20, 1e-9, random.Random(1))
    monkeypatch.setattr(graph, "_ER_MAX_DRAWS", 10**9)
    with pytest.raises(GraphValidationError, match=f"in {graph._ER_MAX_ATTEMPTS} attempts"):
        erdos_renyi(3, 1e-9, random.Random(1))


class _CountingRows(tuple):
    """Rows that count how many of them are read."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


@pytest.mark.parametrize("n", [2, 50, 200])
def test_is_connected_stops_at_the_last_new_vertex(n):
    # row 0 of a complete graph reaches every vertex, so no other row is read
    rows = _CountingRows(complete(n).adjacency)
    assert is_connected(rows)
    assert rows.reads == 1


def test_is_connected_matches_component_count():
    # random symmetric views, as the engine passes its compatible-neighbor sets, with
    # n = 1 and graphs whose last vertex is seen while the search has rows left to read:
    # complete(5), stars centred at 0, 2 and 1, and the last star with vertex 4 cut off
    rng = random.Random(23)
    views = [((),), ((1,), (0,)), ((), ()), ((1,), (0,), ())]
    views += [complete(5).adjacency, ((1, 2, 3), (0,), (0,), (0,)), ((2,), (2,), (0, 1, 3), (2,))]
    views += [((1,), (0, 2, 3, 4), (1,), (1,), (1,)), ((1,), (0, 2, 3), (1,), (1,), ())]
    for _ in range(400):
        n = rng.randint(1, 12)
        p = rng.choice([0.0, 0.1, 0.3, 0.6, 1.0])
        nbrs = [set() for _ in range(n)]
        for x in range(n):
            for y in range(x + 1, n):
                if rng.random() < p:
                    nbrs[x].add(y)
                    nbrs[y].add(x)
        views.append(tuple(tuple(sorted(s)) for s in nbrs))
    assert {len(view) for view in views} >= {1, 2, 12}
    counted = [_CountingRows(view) for view in views]
    connected = [is_connected(view) for view in counted]
    assert connected == [len(components(view)) == 1 for view in views]
    assert True in connected and False in connected
    # the search stopped with rows left to read in some connected views
    assert sum(c and view.reads < len(view) for c, view in zip(connected, counted)) >= 100


def test_generate_dispatch():
    assert generate("cycle", n=5).edge_count == 5
    assert generate("grid", w=2, h=2).edge_count == 4
    with pytest.raises(ValueError):
        generate("torus", n=3)
    with pytest.raises(ValueError, match="erdos_renyi needs a random stream"):
        generate("erdos_renyi", n=3, p=0.5)


@pytest.mark.parametrize(
    "kind, params, message",
    [
        ("complete", {"n": 0}, "complete graph needs n >= 1"),
        ("erdos_renyi", {"n": 0, "p": 0.5}, "erdos_renyi needs n >= 1"),
    ],
)
def test_generate_rejects_no_vertices(kind, params, message):
    # as from a config's "graph" object: "n": 0 passes the size limits and reaches the generator's own check
    with pytest.raises(GraphValidationError, match=f"^{message}$"):
        generate(kind, rng=random.Random(0), **params)


def test_grid_sides_are_checked_before_its_size():
    # (-400) * (-400) is over the vertex limit, but the sides are the fault
    with pytest.raises(GraphValidationError, match="grid needs"):
        generate("grid", w=-400, h=-400)


def test_construction_rejects_asymmetric_adjacency():
    with pytest.raises(GraphValidationError):
        SocialGraph(2, ((1,), ()))


@pytest.mark.parametrize(
    "adjacency, message",
    [
        (((1, 2), (0, 2), (1, 0)), "sorted and duplicate-free"),  # unsorted
        (((1, 1), (0,), ()), "sorted and duplicate-free"),  # duplicate
        (((3,), (0,), ()), "out of range"),
        (((-1,), (0,), ()), "out of range"),
        (((0, 1), (0,), ()), "self-loop"),
        (((1,), (0,)), "adjacency length does not match vertex count"),
    ],
)
def test_construction_rejects_malformed_adjacency(adjacency, message):
    with pytest.raises(GraphValidationError, match=message):
        SocialGraph(3, adjacency)


def _valid_graph(rng: random.Random) -> SocialGraph:
    kind = rng.choice(["path", "cycle", "complete", "grid", "erdos_renyi", "from_edges"])
    n = rng.randint(1, 12)
    if kind == "path":
        return path(n)
    if kind == "cycle":
        return cycle(max(n, 3))
    if kind == "complete":
        return complete(n)
    if kind == "grid":
        return grid(rng.randint(1, 4), rng.randint(1, 3))
    if kind == "erdos_renyi":
        return erdos_renyi(n, rng.choice([0.3, 0.6, 1.0]), rng)
    # a random spanning tree and a few more edges, in random order and orientation
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, n) if n > 1 else 0)]
    rng.shuffle(edges)
    return SocialGraph.from_edges(n, [e if rng.random() < 0.5 else e[::-1] for e in edges])


def _insert(rng: random.Random, row: list[int], v: int) -> None:
    """Insert v at its sorted place or, half of the time, anywhere."""
    row.insert(bisect_left(row, v) if rng.random() < 0.5 else rng.randint(0, len(row)), v)


def _mutate(rng: random.Random, g: SocialGraph) -> tuple[tuple[int, ...], ...] | None:
    """g's rows with one defect, or None where the drawn kind of defect does not apply to g."""
    n, rows = g.vertex_count, [list(row) for row in g.adjacency]
    edges = list(g.edges())
    x = rng.randrange(n)
    kind = rng.choice(["drop", "drop mirror", "duplicate", "swap", "self", "range", "one-sided", "split"])
    if kind in ("drop", "drop mirror", "duplicate") and not edges:
        return None
    if kind == "drop":  # the upper entry v of row u; row v still lists u
        u, v = rng.choice(edges)
        rows[u].remove(v)
    elif kind == "drop mirror":  # the lower entry u of row v; row u still lists v
        u, v = rng.choice(edges)
        rows[v].remove(u)
    elif kind == "duplicate":
        u, v = rng.choice(edges) if rng.random() < 0.5 else rng.choice(edges)[::-1]
        _insert(rng, rows[u], v)
    elif kind == "swap":
        if len(rows[x]) < 2:
            return None
        i, j = rng.sample(range(len(rows[x])), 2)
        rows[x][i], rows[x][j] = rows[x][j], rows[x][i]
    elif kind == "self":
        _insert(rng, rows[x], x)
    elif kind == "range":
        _insert(rng, rows[x], rng.choice([-1, n]))
    elif kind == "one-sided":
        absent = [y for y in range(n) if y != x and y not in rows[x]]
        if not absent:
            return None
        _insert(rng, rows[x], rng.choice(absent))
    else:  # remove every edge across a cut, which leaves the rows valid but disconnected
        if n < 2:
            return None
        side = [rng.random() < 0.5 for _ in range(n)]
        side[0], side[rng.randrange(1, n)] = True, False
        rows = [[y for y in row if side[y] == side[u]] for u, row in enumerate(rows)]
    return tuple(map(tuple, rows))


def test_one_pass_check_gives_the_entry_by_entry_message():
    # one defect in a valid graph: the one-pass check rejects it with the message the
    # entry-by-entry check gives, whichever row the one pass finds it at
    rng = random.Random(31)
    messages = Counter()
    while sum(messages.values()) < 2400:
        g = _valid_graph(rng)
        assert adjacency_defect(g.vertex_count, g.adjacency) is None
        rows = _mutate(rng, g)
        if rows is None:
            continue
        want = adjacency_defect(g.vertex_count, rows)
        try:
            SocialGraph(g.vertex_count, rows)
        except GraphValidationError as e:
            got = str(e)
        else:
            got = None
        assert got == want, rows
        messages[want and want.split()[0]] += 1
    assert None not in messages
    assert min(messages[word] for word in ("adjacency", "neighbor", "self-loop", "edge", "graph")) >= 100


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(0, 1), (1, 1)], r"^self-loop at vertex 1$"),
        ([(0, 0)], r"^self-loop at vertex 0$"),
        # the edge itself is named; unchecked, -1 would index from the end and 3 raise IndexError
        ([(0, 1), (-1, 2)], r"^edge \(-1, 2\) out of range for 3 vertices$"),
        ([(0, 1), (1, 3)], r"^edge \(1, 3\) out of range for 3 vertices$"),
    ],
)
def test_from_edges_rejects_bad_edge(edges, message):
    with pytest.raises(GraphValidationError, match=message):
        SocialGraph.from_edges(3, edges)


def test_round_trip_idempotent_on_random_graphs():
    rng = random.Random(123)
    for _ in range(100):
        kind = rng.choice(["path", "cycle", "complete", "grid", "er"])
        if kind == "path":
            g = path(rng.randint(1, 30))
        elif kind == "cycle":
            g = cycle(rng.randint(3, 30))
        elif kind == "complete":
            g = complete(rng.randint(2, 10))
        elif kind == "grid":
            g = grid(rng.randint(1, 6), rng.randint(1, 6))
        else:
            g = erdos_renyi(rng.randint(2, 15), 0.5, rng)
        if g.edge_count == 0:
            continue  # canonical text requires at least one edge
        text = "".join(f"{u} {v}\n" for u, v in g.edges())
        again = parse_edge_list(text)
        assert again == g
        assert list(again.edges()) == list(g.edges())
