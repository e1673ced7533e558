"""Canonical forms for trees.

Center-rooted AHU encodings: two trees get the same code exactly when they
are isomorphic.  One iterative walk does all the work: a BFS from the center
(or from both centers, each seeded as the other's parent), then each
vertex's code ``(`` + its children's codes in sorted order + ``)``, built in
reverse BFS order, so no depth of tree can exhaust the call stack.  The same
codes order every vertex's children for a canonical relabeling (used to emit
deterministic representatives) and explicit isomorphism maps between trees,
and their multiplicities give automorphism counts (used by the labeled-count
enumeration oracle).
"""

from __future__ import annotations

import math
from collections import Counter

from .graph import Graph, NotTreeError, is_tree, relabel


def tree_centers(g: Graph) -> list[int]:
    """The one or two middle vertices obtained by repeatedly peeling leaves."""
    n = g.n
    if n == 1:
        return [0]
    deg = [g.degree(v) for v in range(n)]
    leaves = [v for v in range(n) if deg[v] <= 1]
    removed = len(leaves)
    while removed < n:
        nxt = []
        for u in leaves:
            deg[u] = 0
            for v in g.adj[u]:
                if deg[v] > 0:
                    deg[v] -= 1
                    if deg[v] == 1:
                        nxt.append(v)
        removed += len(nxt)
        leaves = nxt
    return sorted(leaves)


def _walk(g: Graph, roots: list[int]) -> tuple[list[int], list[bytes]]:
    """One BFS from ``roots``, then AHU codes built leaves-up.

    Returns each vertex's parent (-1 for a lone root) and the code of the
    subtree hanging from each vertex away from its parent.  Two roots are
    seeded as each other's parent, so both halves of a two-center tree come
    out of the same walk.
    """
    parent = [-1] * g.n
    if len(roots) == 2:
        a, b = roots
        parent[a], parent[b] = b, a
    order = list(roots)
    for u in order:
        for v in g.adj[u]:
            if v != parent[u]:
                parent[v] = u
                order.append(v)
    code = [b""] * g.n
    for u in reversed(order):
        p = parent[u]
        children = sorted([code[v] for v in g.adj[u] if v != p])
        code[u] = b"(" + b"".join(children) + b")"
    return parent, code


def rooted_code(g: Graph, root: int) -> bytes:
    """AHU code of the tree rooted at ``root``; identifies (tree, root) up to
    rooted isomorphism, so it doubles as a vertex-orbit key."""
    if not is_tree(g):
        raise NotTreeError("rooted codes are defined for trees only")
    return _walk(g, [root])[1][root]


def _center_walk(g: Graph):
    """The walk from the tree's centers, plus the canonical root and code:
    the center whose rooted code is smallest (the lower id on a tie)."""
    centers = tree_centers(g)
    parent, code = _walk(g, centers)
    full, root = min(
        (b"(" + b"".join(sorted([code[v] for v in g.adj[c]])) + b")", c)
        for c in centers
    )
    return full, root, parent, code


def canonical_code(g: Graph) -> bytes:
    """Isomorphism-invariant code: equal codes iff isomorphic trees."""
    if not is_tree(g):
        raise NotTreeError("canonical codes are defined for trees only")
    return _center_walk(g)[0]


def canonical_order(g: Graph) -> tuple[bytes, list[int]]:
    """Canonical code plus a relabeling order (order[new_id] = old_id).

    Applying the order with ``relabel`` produces the same adjacency for any
    two isomorphic input trees.
    """
    if not is_tree(g):
        raise NotTreeError("canonical order is defined for trees only")
    code, root, parent, sub = _center_walk(g)
    parent[root] = -1  # a second center becomes the root's child
    order = [root]
    for u in order:
        order.extend(
            sorted((v for v in g.adj[u] if v != parent[u]), key=sub.__getitem__)
        )
    return code, order


def canonical_graph(g: Graph) -> Graph:
    """The canonical representative of the tree's isomorphism class."""
    _, order = canonical_order(g)
    return relabel(g, order)


def tree_isomorphism_map(a: Graph, b: Graph):
    """A vertex map list m with m[v_in_a] = v_in_b, or None if not isomorphic."""
    if a.n != b.n:
        return None
    code_a, order_a = canonical_order(a)
    code_b, order_b = canonical_order(b)
    if code_a != code_b:
        return None
    mapping = [0] * a.n
    for i in range(a.n):
        mapping[order_a[i]] = order_b[i]
    return mapping


def automorphism_count(g: Graph) -> int:
    """Order of the automorphism group of a tree: the product, over every
    vertex, of the factorials of the multiplicities of its children's codes,
    doubled when the two halves of a two-center tree are alike."""
    if not is_tree(g):
        raise NotTreeError("automorphism counts implemented for trees only")
    centers = tree_centers(g)
    parent, code = _walk(g, centers)
    count = 1
    for u in range(g.n):
        p = parent[u]
        for k in Counter([code[v] for v in g.adj[u] if v != p]).values():
            count *= math.factorial(k)
    if len(centers) == 2 and code[centers[0]] == code[centers[1]]:
        count *= 2
    return count


def labeled_copies(g: Graph) -> int:
    """Number of distinct labeled trees isomorphic to ``g`` (n!/|Aut|)."""
    return math.factorial(g.n) // automorphism_count(g)
