"""Canonical forms for trees.

Center-rooted AHU encodings: two trees get the same code exactly when they
are isomorphic.  One iterative walk does all the work: a BFS from the center
(or from both centers, each seeded as the other's parent), then each
vertex's code ``(`` + its children's codes in sorted order + ``)``, built in
reverse BFS order, so no depth of tree can exhaust the call stack.  The walk
is also the tree check: it raises NotTreeError on any other graph.  It
reads a bare adjacency sequence, so the Prufer oracle codes its trees
without building a ``Graph``.  ``_code_edges`` is the one parser of a
code: it numbers the tree a code spells in BFS order, children in code
order, and lists its edges in the same BFS, each parent before its child.
``tree_from_code``, the inverse of ``canonical_code``, builds the canonical
representative ``tree_from_code(canonical_code(g))`` from that list, and
``graph6.graph6_from_code`` writes the same tree's graph6 from it with no
``Graph`` built.  The centers are found inside the walk and are not
exported.
``rooted_codes`` gives ``rooted_code(g, v)`` for every vertex v from one
walk: rerooted top-down, each child's branch towards its parent (its "up"
code, built from the parent's other branches) sorts in among its own.
``pendant_path_code`` codes a tree grown by a pendant path from the smaller
tree's adjacency, with no ``Graph`` built.  Family generation reads both.
The same codes order every vertex's children for explicit isomorphism maps
between trees; ``enumeration`` reads automorphism counts off the codes.
"""

from __future__ import annotations

from bisect import bisect_left

from .graph import Graph, NotTreeError


def _centers(adj) -> list[int]:
    n = len(adj)
    deg = [len(a) for a in adj]
    leaves = [v for v in range(n) if deg[v] <= 1]
    removed = len(leaves)
    while removed < n and leaves:  # no leaves left: a cycle, no center
        nxt = []
        for u in leaves:
            deg[u] = 0
            for v in adj[u]:
                if deg[v] > 0:
                    deg[v] -= 1
                    if deg[v] == 1:
                        nxt.append(v)
        removed += len(nxt)
        leaves = nxt
    return sorted(leaves)


def _walk(adj, roots: list[int]) -> tuple[list[int], list[bytes]]:
    """One BFS from ``roots``, then AHU codes built leaves-up.

    ``adj`` is any sequence of neighbour sequences.  Returns each vertex's
    parent (-1 for a lone root) and the code of the subtree hanging from
    each vertex away from its parent.  Two roots are seeded as each other's
    parent, so both halves of a two-center tree come out of the same walk.
    It is the tree check: NotTreeError unless there is one root, or two
    adjacent ones, and n entries.  An entry of a cycle vertex skips one
    neighbour, so it appends another cycle vertex: a walk reaching a cycle
    runs past n entries.  In a tree each vertex is entered once.
    """
    n = len(adj)
    parent = [-1] * n
    if len(roots) == 2 and roots[1] in adj[roots[0]]:
        a, b = roots
        parent[a], parent[b] = b, a
    elif len(roots) != 1:
        raise NotTreeError("not a tree: no single center or central edge")
    order = list(roots)
    for u in order:
        p = parent[u]
        for v in adj[u]:
            if v != p:
                parent[v] = u
                order.append(v)
        if len(order) > n:
            break
    if len(order) != n:
        raise NotTreeError("not a tree: the walk missed or revisited a vertex")
    code = [b""] * n
    for u in reversed(order):
        p = parent[u]
        children = sorted([code[v] for v in adj[u] if v != p])
        code[u] = b"(" + b"".join(children) + b")"
    return parent, code


def rooted_code(g: Graph, root: int) -> bytes:
    """AHU code of the tree rooted at ``root``; identifies (tree, root) up to
    rooted isomorphism, so it doubles as a vertex-orbit key.  Raises
    ValueError for a root outside a non-empty graph; the empty graph, which
    has no vertex to root, is no tree."""
    if not g.n:
        raise NotTreeError("not a tree: the graph is empty")
    if not 0 <= root < g.n:
        raise ValueError(f"vertex {root} out of range")
    return _walk(g.adj, [root])[1][root]


def rooted_codes(g: Graph) -> list[bytes]:
    """``rooted_code(g, v)`` for every vertex v, byte for byte, from one walk.

    The walk from vertex 0 gives each vertex's downward code; a top-down
    pass then gives each child v the "up" code of its parent's other
    branches, which sorts in among v's own branches.  Raises NotTreeError
    unless g is a tree, the empty graph included."""
    if not g.n:
        raise NotTreeError("not a tree: the graph is empty")
    adj = g.adj
    parent, down = _walk(adj, [0])
    up = [b""] * g.n  # up[v]: code of the branch at parent[v] away from v
    codes = [b""] * g.n
    stack = [0]
    while stack:
        u = stack.pop()
        p = parent[u]
        branches = sorted([up[u] if v == p else down[v] for v in adj[u]])
        codes[u] = b"(" + b"".join(branches) + b")"
        for v in adj[u]:
            if v != p:
                rest = branches.copy()
                del rest[bisect_left(rest, down[v])]
                up[v] = b"(" + b"".join(rest) + b")"
                stack.append(v)
    return codes


def pendant_path_code(g: Graph, attach: int, length: int) -> bytes:
    """``canonical_code(add_pendant_path(g, attach, length))``, read off
    g's adjacency plus the path, with no ``Graph`` built."""
    if not 0 <= attach < g.n:
        raise ValueError(f"attach vertex {attach} out of range")
    if length < 0:
        raise ValueError("path length must be non-negative")
    adj = list(g.adj)
    prev = attach
    for new in range(g.n, g.n + length):
        adj[prev] = (*adj[prev], new)
        adj.append((prev,))
        prev = new
    return _center_walk(adj)[0]


def _center_walk(adj):
    """The walk from the tree's centers, plus the canonical root and code:
    the center whose rooted code is smallest (the lower id on a tie)."""
    centers = _centers(adj)
    parent, code = _walk(adj, centers)
    full, root = min(
        (b"(" + b"".join(sorted([code[v] for v in adj[c]])) + b")", c)
        for c in centers
    )
    return full, root, parent, code


def canonical_code(g: Graph) -> bytes:
    """Isomorphism-invariant code: equal codes iff isomorphic trees."""
    return _center_walk(g.adj)[0]


def canonical_order(g: Graph) -> tuple[bytes, list[int]]:
    """Canonical code plus a relabeling order (order[new_id] = old_id).

    Renaming vertex order[i] to i gives the same adjacency for any two
    isomorphic input trees: that of ``tree_from_code(code)``.
    """
    code, root, parent, sub = _center_walk(g.adj)
    parent[root] = -1  # a second center becomes the root's child
    order = [root]
    for u in order:
        order.extend(
            sorted((v for v in g.adj[u] if v != parent[u]), key=sub.__getitem__)
        )
    return code, order


def _code_edges(code: bytes) -> list[tuple[int, int]]:
    """The edges of the tree a code spells, each (parent id, child id), in
    the BFS numbering of its rooted tree, children in code order, so every
    parent id is below its child's.  Raises ValueError unless ``code`` is
    one balanced group of the bytes ``(`` and ``)``."""
    children: list[list[int]] = []
    stack: list[int] = []
    for ch in code:
        if ch == 40:  # "("
            if stack:
                children[stack[-1]].append(len(children))
            elif children:
                raise ValueError("tree code has more than one root")
            stack.append(len(children))
            children.append([])
        elif ch == 41 and stack:  # ")"
            stack.pop()
        else:
            raise ValueError(f"malformed tree code {code!r}")
    if stack or not children:
        raise ValueError(f"unbalanced or empty tree code {code!r}")
    # BFS from the root: the children of the i-th vertex reached get the
    # next free ids
    edges = []
    order = [0]
    for i, u in enumerate(order):
        for v in children[u]:
            edges.append((i, len(order)))
            order.append(v)
    return edges


def tree_from_code(code: bytes) -> Graph:
    """The tree a code spells, the inverse of ``canonical_code``: the BFS
    numbering of its rooted tree, children in code order.  Raises ValueError
    unless ``code`` is one balanced group of the bytes ``(`` and ``)``."""
    edges = _code_edges(code)
    return Graph(len(edges) + 1, edges)


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
