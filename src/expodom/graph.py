"""Simple undirected graphs with adjacency lists and BFS-based metrics.

Vertex ids are exactly 0..n-1.  Graphs are immutable after construction and
safe to share across workers.  Distances are "extended naturals": plain ints
plus ``math.inf`` for unreachable pairs.  ``bfs_distances`` is the one
shortest-path search: with a set of blocked vertices it also gives the
blocked distances of exponential domination.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable

INF = math.inf

# the largest order graph6 writes with its 4-byte order prefix; one more
# would start the prefix with "~~", the marker of the 8-byte form
MAX_ORDER = 258047


class ParseError(ValueError):
    """Malformed graph input (edge list or graph6)."""


class NotSubcubicError(ValueError):
    """Operation requires maximum degree at most 3."""


class NotTreeError(ValueError):
    """Operation requires a tree."""


class CertificateError(RuntimeError):
    """A computed optimum failed the check of its own certificate."""


class Graph:
    """Finite simple undirected graph: vertex count plus sorted adjacency."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in adj
        )

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.adj == other.adj
        )

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edges()!r})"


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated "u v" lines; '#' starts a comment.

    An optional first data line "n <k>" fixes the vertex count; otherwise it
    is one more than the largest id seen.  Orders above MAX_ORDER are
    refused.
    """
    declared_n: int | None = None
    edges: list[tuple[int, int]] = []
    max_id = -1
    saw_data = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if not saw_data and tokens[0] == "n":
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise ParseError(f"line {lineno}: malformed header {line!r}")
            declared_n = int(tokens[1])
            if declared_n > MAX_ORDER:
                raise ParseError(
                    f"line {lineno}: n={declared_n} above the order limit {MAX_ORDER}"
                )
            saw_data = True
            continue
        saw_data = True
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"line {lineno}: malformed token in {line!r}") from None
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex id in {line!r}")
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at vertex {u}")
        if max(u, v) >= MAX_ORDER:
            raise ParseError(
                f"line {lineno}: vertex id above the order limit {MAX_ORDER}"
            )
        if declared_n is not None and (u >= declared_n or v >= declared_n):
            raise ParseError(
                f"line {lineno}: vertex id >= declared n={declared_n}"
            )
        edges.append((u, v))
        max_id = max(max_id, u, v)
    n = declared_n if declared_n is not None else max_id + 1
    return Graph(n, edges)


def format_edge_list(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def bfs_distances(g: Graph, source: int, blocked=()) -> list:
    """Distances from source to every vertex; math.inf where unreachable.

    Paths may not pass through a ``blocked`` vertex, and every blocked vertex
    but the source reads math.inf.  A blocked source still reads 0 and is
    searched from.
    """
    if not 0 <= source < g.n:
        raise ValueError(f"source {source} out of range")
    dist = [INF] * g.n
    dist[source] = 0
    queue = deque([source])
    adj = g.adj
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for v in adj[u]:
            if dist[v] is INF and v not in blocked:
                dist[v] = du
                queue.append(v)
    return dist


def all_pairs_distances(g: Graph) -> list[list]:
    return [bfs_distances(g, u) for u in range(g.n)]


def diameter(g: Graph):
    """Largest distance between any two vertices; inf iff disconnected."""
    if g.n < 1:
        raise ValueError("diameter needs at least one vertex")
    best = 0
    for u in range(g.n):
        dist = bfs_distances(g, u)
        worst = max(dist)
        if worst is INF:
            return INF
        best = max(best, worst)
    return best


def connected_components(g: Graph) -> list[list[int]]:
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in g.adj[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        comps.append(sorted(comp))
    return comps


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and g.edge_count() == g.n - 1 and INF not in bfs_distances(g, 0)


def rooted_tree(g: Graph, root: int) -> tuple[list[int], list[list[int]]]:
    """The tree g hung from ``root``: its vertices in BFS order and each
    vertex's children, read off one ``bfs_distances``.  Raises NotTreeError
    unless g is a tree; the edge count goes first, so the empty graph is
    refused before ``root`` is looked up."""
    if g.edge_count() != g.n - 1:
        raise NotTreeError("not a tree")
    dist = bfs_distances(g, root)
    if INF in dist:
        raise NotTreeError("not a tree")
    order = sorted(range(g.n), key=dist.__getitem__)
    return order, [[u for u in g.adj[v] if dist[u] > dist[v]] for v in range(g.n)]


def rooted_tree_diameter(order, children) -> int:
    """The diameter of a tree hung as ``rooted_tree`` gives it, leaves
    first: the largest sum, over the vertices, of the two longest paths
    down through two of its children (one, or none, at fewer children)."""
    height = [0] * len(order)
    best = 0
    for v in reversed(order):
        first = second = 0
        for u in children[v]:
            h = height[u] + 1
            if h > first:
                first, second = h, first
            elif h > second:
                second = h
        height[v] = first
        best = max(best, first + second)
    return best


def is_subcubic_tree(g: Graph) -> bool:
    return is_tree(g) and g.max_degree() <= 3


def degree_partition(g: Graph):
    """Split vertices by degree into (V1, V2, V3) for a subcubic graph.

    Degree-0 vertices land in V1: a vertex of degree at most 1 counts as an
    endvertex.
    """
    v1, v2, v3 = set(), set(), set()
    for u in range(g.n):
        d = g.degree(u)
        if d <= 1:
            v1.add(u)
        elif d == 2:
            v2.add(u)
        elif d == 3:
            v3.add(u)
        else:
            raise NotSubcubicError(f"vertex {u} has degree {d}")
    return frozenset(v1), frozenset(v2), frozenset(v3)


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, list]:
    """Subgraph induced on ``keep``; returns it plus the old->new id map.

    The map is a list of length g.n with None for dropped vertices; kept
    vertices are renumbered in increasing id order.
    """
    kept = sorted(set(keep))
    old_to_new: list = [None] * g.n
    for new, old in enumerate(kept):
        old_to_new[old] = new
    edges = [
        (old_to_new[u], old_to_new[v])
        for u, v in g.edges()
        if old_to_new[u] is not None and old_to_new[v] is not None
    ]
    return Graph(len(kept), edges), old_to_new


def delete_vertices(g: Graph, removed: Iterable[int]) -> tuple[Graph, list]:
    removed = set(removed)
    return induced_subgraph(g, (v for v in range(g.n) if v not in removed))


def add_pendant_path(g: Graph, attach: int, length: int) -> Graph:
    """New graph with a path of ``length`` fresh vertices hung on ``attach``."""
    if not 0 <= attach < g.n:
        raise ValueError(f"attach vertex {attach} out of range")
    if length < 0:
        raise ValueError("path length must be non-negative")
    edges = g.edges()
    prev = attach
    for i in range(length):
        new = g.n + i
        edges.append((prev, new))
        prev = new
    return Graph(g.n + length, edges)
