"""Exhaustive enumeration of non-isomorphic subcubic trees.

The classes of order n are grown from those of order n-1: hang one new leaf
at every vertex of degree at most 2 of every representative, deduplicate by
canonical tree code, and canonize only the codes not seen before.  This
misses no class.  Removing any leaf from a subcubic tree of order n >= 2
leaves a subcubic tree of order n-1 in which the leaf's neighbour had degree
at most 2; that smaller tree is isomorphic to an enumerated representative,
and hanging the leaf back at the neighbour's image rebuilds the tree.
The counts are still checked by two independent Prufer-sequence oracles
rather than by trusting the generator:

* a literal oracle that decodes every degree-bounded Prufer sequence and
  deduplicates the resulting labeled trees by canonical code, and
* a counting oracle using the Prufer bijection: the number of labeled trees
  with all degrees <= 3 must equal the sum of n!/|Aut(T)| over the
  enumerated isomorphism classes.
"""

from __future__ import annotations

import math
from typing import Iterator

from .canon import canonical_code, canonical_graph, labeled_copies
from .graph import Graph, add_pendant_path

# the classes of each order grown so far, sorted by canonical code; a
# concurrent fill stores an equal value, so races are benign
_CLASSES: dict[int, tuple[Graph, ...]] = {1: (Graph(1),)}


def _subcubic_trees_cached(n: int) -> tuple[Graph, ...]:
    """The classes of order n, growing each missing order from the one below:
    one new leaf at every vertex of degree at most 2, deduplicated by code."""
    for order in range(2, n + 1):
        if order in _CLASSES:
            continue
        seen: dict[bytes, Graph] = {}
        for t in _CLASSES[order - 1]:
            for x in range(t.n):
                if t.degree(x) > 2:
                    continue
                grown = add_pendant_path(t, x, 1)
                code = canonical_code(grown)
                if code not in seen:
                    seen[code] = canonical_graph(grown)
        _CLASSES[order] = tuple(seen[code] for code in sorted(seen))
    return _CLASSES.get(n, ())


def enumerate_subcubic_trees(n: int) -> Iterator[Graph]:
    """One canonical representative per isomorphism class, sorted by code."""
    if n < 1:
        raise ValueError("tree order must be at least 1")
    return iter(_subcubic_trees_cached(n))


def count_subcubic_trees(n: int) -> int:
    return len(_subcubic_trees_cached(n))


def trees_up_to(n_max: int) -> Iterator[Graph]:
    for n in range(1, n_max + 1):
        yield from enumerate_subcubic_trees(n)


# -- Prufer oracles ----------------------------------------------------------


def tree_from_pruefer(seq: tuple[int, ...], n: int) -> Graph:
    """Decode a Prufer sequence over labels 0..n-1 (length n-2) to a tree."""
    if n == 1:
        return Graph(1)
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    # pointer scan: the smallest-id leaf pairs with the next sequence entry
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    edges = []
    for v in seq:
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n - 1))
    return Graph(n, edges)


def _bounded_sequences(n: int, length: int) -> Iterator[tuple[int, ...]]:
    """All sequences over 0..n-1 where no label appears more than twice."""
    counts = [0] * n
    seq: list[int] = []

    def rec(pos: int) -> Iterator[tuple[int, ...]]:
        if pos == length:
            yield tuple(seq)
            return
        for v in range(n):
            if counts[v] < 2:
                counts[v] += 1
                seq.append(v)
                yield from rec(pos + 1)
                seq.pop()
                counts[v] -= 1

    yield from rec(0)


def pruefer_class_count(n: int) -> int:
    """Literal oracle: decode every degree-bounded Prufer sequence and count
    isomorphism classes via canonical codes.  Exhaustive; use for small n."""
    if n <= 2:
        return 1
    seen: set[bytes] = set()
    for seq in _bounded_sequences(n, n - 2):
        seen.add(canonical_code(tree_from_pruefer(seq, n)))
    return len(seen)


def labeled_subcubic_tree_count(n: int) -> int:
    """Number of labeled trees on n vertices with every degree <= 3.

    Counts Prufer sequences in which no label occurs more than twice: choose
    the j labels used twice, the labels used once, and arrange.
    """
    if n <= 2:
        return 1
    length = n - 2
    total = 0
    for j in range(length // 2 + 1):
        singles = length - 2 * j
        if singles > n - j:
            continue
        total += (
            math.comb(n, j)
            * math.comb(n - j, singles)
            * math.factorial(length)
            // 2**j
        )
    return total


def labeled_count_from_classes(n: int) -> int:
    """Sum of n!/|Aut(T)| over the enumerated classes of order n."""
    return sum(labeled_copies(t) for t in enumerate_subcubic_trees(n))
