"""Reference trees used throughout the test and verification suites.

* ``fixture_f1(k)``: a spine of k vertices where every spine vertex is
  topped up to degree 3 with pendant paths of two edges; order 3k+4.  The
  smallest member (k=1) is the spider with three legs of length 2.
* ``fixture_f2()``: an apex vertex joined to the roots of three depth-2
  full binary trees; order 22.  The tree where the gap between the blocked
  and porous parameters reaches the ratio 6/4.
"""

from __future__ import annotations

from .graph import MAX_ORDER, Graph


def fixture_f1(k: int) -> Graph:
    if k < 1:
        raise ValueError("spine length must be at least 1")
    if 3 * k + 4 > MAX_ORDER:
        raise ValueError(
            f"fixture f1:{k} has {3 * k + 4} vertices, above the order limit {MAX_ORDER}"
        )
    edges = [(i, i + 1) for i in range(k - 1)]
    nxt = k
    for i in range(k):
        spine_degree = (0 if i == 0 else 1) + (0 if i == k - 1 else 1)
        for _ in range(3 - spine_degree):
            mid, tip = nxt, nxt + 1
            edges.append((i, mid))
            edges.append((mid, tip))
            nxt += 2
    return Graph(nxt, edges)


def fixture_f2() -> Graph:
    edges = []
    for gadget in range(3):
        root = 1 + 7 * gadget
        m1, m2 = root + 1, root + 2
        edges.append((0, root))
        edges.extend([(root, m1), (root, m2)])
        edges.extend([(m1, root + 3), (m1, root + 4)])
        edges.extend([(m2, root + 5), (m2, root + 6)])
    return Graph(22, edges)


def full_binary_tree(depth: int) -> Graph:
    """Rooted full binary tree of the given depth (order 2**(depth+1)-1),
    vertex 0 as the root, children of v at 2v+1 and 2v+2."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    n = (1 << (depth + 1)) - 1
    internal = (1 << depth) - 1
    edges = []
    for v in range(internal):
        edges.append((v, 2 * v + 1))
        edges.append((v, 2 * v + 2))
    return Graph(n, edges)


def full_binary_tree_leaves(depth: int) -> tuple[int, ...]:
    return tuple(range((1 << depth) - 1, (1 << (depth + 1)) - 1))


def get_fixture(spec: str) -> Graph:
    """Resolve a fixture id: "f2", "f1" (k=1), or "f1:<k>"."""
    token = spec.strip().lower().replace("(", ":").rstrip(")")
    if token == "f2":
        return fixture_f2()
    if token == "f1":
        return fixture_f1(1)
    if token.startswith("f1:"):
        try:
            k = int(token.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad fixture id {spec!r}") from None
        return fixture_f1(k)
    raise ValueError(f"unknown fixture id {spec!r}")
