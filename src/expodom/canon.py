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
representative ``tree_from_code(canonical_code(g))`` from that list,
``graph6.graph6_from_code`` writes the same tree's graph6 from it with no
``Graph`` built, and ``_code_tree`` hangs the tree from its root as
``graph.rooted_tree`` would, for the sweeps' tree LP.  The parser keeps
its last parse, so a sweep item's graph6 and its check read one parse.
The centers are found inside the walk; only ``TreeCodes`` keeps them.
``TreeCodes`` gives ``rooted_code(g, v)`` for every vertex v from one walk
from g's centers (``rooted_codes``): rerooted top-down, each child's branch
towards its parent (its "up" code, built from the parent's other branches)
sorts in among its own.  From the same tables it reads the canonical code
of g grown by a pendant path at any vertex, with no walk and no ``Graph``
(``pendant_path_code``): the grown tree's centers lie on the parent chain
from the attach vertex or on the new path, so only the branches along that
chain are rebuilt.  Family generation reads both from one ``TreeCodes``
per tree.
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


class TreeCodes:
    """Every rooted code of the tree g from one walk, and the canonical code
    of each tree g grows by a pendant path, read off the same walk.

    The walk runs from g's centers (``_center_walk``), which gives each
    vertex its parent, its depth below its center and its downward code.  A
    top-down pass then gives each vertex v its "up" code, the branch at its
    parent away from v, built from the parent's other branches; a second
    center's up code is the other center's half.  ``codes[v]`` is
    ``rooted_code(g, v)``.  Raises NotTreeError unless g is a tree, the
    empty graph included."""

    def __init__(self, g: Graph):
        adj = g.adj
        _, root, parent, down = _center_walk(adj)
        self.centers = [root] if parent[root] < 0 else [root, parent[root]]
        up = [b""] * g.n  # up[v]: code of the branch at parent[v] away from v
        depth = [0] * g.n
        codes = [b""] * g.n
        stack = list(self.centers)
        if len(stack) == 2:
            a, b = stack
            up[a], up[b] = down[b], down[a]
        while stack:
            u = stack.pop()
            p = parent[u]
            branches = []
            for v in adj[u]:
                branches.append(up[u] if v == p else down[v])
            branches.sort()
            codes[u] = b"(" + b"".join(branches) + b")"
            below = depth[u] + 1
            for v in adj[u]:
                if v != p:
                    rest = branches.copy()
                    del rest[bisect_left(rest, down[v])]
                    up[v] = b"(" + b"".join(rest) + b")"
                    depth[v] = below
                    stack.append(v)
        self.adj, self.parent, self.depth = adj, parent, depth
        self.down, self.up, self.codes = down, up, codes
        self.radius = max(depth)  # the diameter is 2 * radius + centers - 1

    def grown(self, attach: int, length: int) -> bytes:
        """``canonical_code(add_pendant_path(g, attach, length))``, for a
        vertex ``attach`` of g and a ``length`` of at least 0.

        A tree's code is its rooted code at its center, the lesser of the
        two at two centers.  The grown tree keeps g's diameter, and so its
        centers, unless the path from the new path's end through ``attach``
        and attach's center down to g's radius is longer.  Then that path is
        a longest one, and the centers lie at its middle: on the new path,
        or on the parent chain from ``attach`` up to its center.  Either way
        only the branches along that chain change."""
        d = self.depth[attach]
        if length + d <= self.radius:
            steps = range(d, d + len(self.centers))
        else:  # twice the middle's distance up from attach; below 0 on the path
            twice = d + self.radius + len(self.centers) - 1 - length
            steps = {twice // 2, (twice + 1) // 2}
        return min(self._grown_rooted(attach, length, s) for s in steps)

    def _grown_rooted(self, attach: int, length: int, step: int) -> bytes:
        """The grown tree's rooted code at the vertex ``step`` edges up the
        parent chain from ``attach``, or, for a negative step, -step edges
        down the new path.  Up the chain, each vertex's branch away from the
        next one is rebuilt from the one below it and its other children;
        every other branch is one of g's codes."""
        if step < 0:  # a chain down to attach, and the rest of the path
            j = -step
            towards = b"(" * (j - 1) + self.codes[attach] + b")" * (j - 1)
            beyond = b"(" * (length - j) + b")" * (length - j)
            return b"(" + b"".join(sorted((towards, beyond))) + b")"
        adj, parent, down = self.adj, self.parent, self.down
        branch = b"(" * length + b")" * length  # the new path, hung from attach
        prev, u = -1, attach
        for _ in range(step):
            p = parent[u]
            branches = [branch]
            for v in adj[u]:
                if v != prev and v != p:
                    branches.append(down[v])
            branches.sort()
            branch = b"(" + b"".join(branches) + b")"
            prev, u = u, p
        p = parent[u]
        branches = [branch]
        for v in adj[u]:
            if v != prev:
                branches.append(self.up[u] if v == p else down[v])
        branches.sort()
        return b"(" + b"".join(branches) + b")"


def rooted_codes(g: Graph) -> list[bytes]:
    """``rooted_code(g, v)`` for every vertex v, byte for byte, from one
    walk (``TreeCodes``).  Raises NotTreeError unless g is a tree, the empty
    graph included."""
    return TreeCodes(g).codes


def pendant_path_code(g: Graph, attach: int, length: int) -> bytes:
    """``canonical_code(add_pendant_path(g, attach, length))``, read off
    g's rooted codes (``TreeCodes.grown``), with no ``Graph`` built."""
    if not 0 <= attach < g.n:
        raise ValueError(f"attach vertex {attach} out of range")
    if length < 0:
        raise ValueError("path length must be non-negative")
    return TreeCodes(g).grown(attach, length)

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


_parsed: tuple = (None, ())  # the last code ``_code_edges`` parsed, and its edges


def _code_edges(code: bytes) -> tuple[tuple[int, int], ...]:
    """The edges of the tree a code spells, each (parent id, child id), in
    the BFS numbering of its rooted tree, children in code order, so every
    parent id is below its child's.  Raises ValueError unless ``code`` is
    one balanced group of the bytes ``(`` and ``)``.

    It keeps its last parse, a tuple no caller can change: a sweep writes
    an item's graph6 from the code and then checks the item, and both read
    the one parse.
    """
    global _parsed
    if code == _parsed[0]:
        return _parsed[1]
    # each vertex is the list of its children, nested as the code nests
    # them; the holder ``top`` sits under the root, so a ")" too many pops it
    top: list = []
    stack = [top]
    try:
        for ch in code:
            if ch == 40:  # "("
                node: list = []
                stack[-1].append(node)
                stack.append(node)
            elif ch == 41:  # ")"
                stack.pop()
            else:
                raise ValueError(f"malformed tree code {code!r}")
    except IndexError:  # a "(" or ")" after the holder was popped
        raise ValueError(f"unbalanced tree code {code!r}") from None
    if len(stack) != 1 or len(top) != 1:
        raise ValueError(f"unbalanced, empty or many-rooted tree code {code!r}")
    # BFS from the root: the children of the i-th vertex reached get the
    # next free ids
    edges = []
    order = top  # the root, then every vertex as the BFS reaches it
    for i, node in enumerate(order):
        for child in node:
            edges.append((i, len(order)))
            order.append(child)
    _parsed = code, tuple(edges)
    return _parsed[1]


def _code_tree(code: bytes) -> tuple[range, list[list[int]]]:
    """The tree a code spells, hung from its root as ``graph.rooted_tree``
    hangs a tree, read off ``_code_edges``: ``(order, children)``, where
    order is range(n), the BFS numbering, and every child id is above its
    parent's."""
    edges = _code_edges(code)
    children: list[list[int]] = [[] for _ in range(len(edges) + 1)]
    for v, u in edges:
        children[v].append(u)
    return range(len(children)), children


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
