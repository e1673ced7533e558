"""Exhaustive enumeration of non-isomorphic subcubic trees.

Each order is kept as the sorted tuple of its canonical codes, the
center-rooted AHU codes of ``canon``, and order n is spelled directly,
without reading order n-1 and without the canon walk.  A branch is a rooted
tree in which every vertex has at most two children: what hangs from a
vertex of a subcubic tree away from a neighbour.  One call builds the codes
of the branches of each size s and height h, a root over a multiset of one
or two smaller branches, and composes the trees from them by Jordan's
center (Otter 1948):

* one center: the center over a multiset of two or three branches whose two
  tallest are of equal height; the code is the center's, ``(`` + the
  branch codes in sorted order + ``)``;
* two centers: an unordered pair of sides, each center with the branch
  hanging from it away from the other, of equal height.  A code starts with
  height + 1 copies of ``(``, so a taller branch has the smaller code, and
  either side is smaller than every child of the other.  No code is a
  prefix of another, so with A the smaller side code and B the larger, the
  full code rooted at B's center is the smaller of the two that
  ``canon._center_walk`` weighs: ``(`` + A + B's children + ``)``, which is
  ``(`` + A + B without its first ``(``.

This misses no class and repeats none: a tree has one center or two
adjacent ones, its branches there are determined up to isomorphism, and the
heights of those branches say which case holds.  So each class is one
multiset of branch classes, and each multiset is drawn once.  Only branches
with s + h <= n - 1 are built, since nothing larger occurs in a tree of order
n: a center branch of height h has a branch beside it at least as tall, of at
least h + 1 vertices, and the center too, so s + h <= n - 2; a side of height
h has the other side, also of height h, so s + h <= n - 1; and every branch
deeper in the tree lies inside one of these, smaller in both size and
height.  The multisets are drawn from the keys sorted by size, each only if
its sizes fit the total, never by filtering every pair and triple.
Representatives, the BFS-numbered trees of ``tree_from_code``, are built
only for the order asked for, one at a time as the stream reaches them;
``expodom enumerate`` builds none, writing each graph6 line from its code.
Orders below 1 or above ``MAX_ORDER`` are refused before any tree is
composed.
The counts are still checked by independent oracles rather than by trusting
the generator:

* a literal oracle that decodes every degree-bounded Prufer sequence and
  deduplicates the resulting labeled trees by canonical code,
* a counting oracle using the Prufer bijection: the number of labeled trees
  with all degrees <= 3 must equal the sum of n!/|Aut(T)| over the
  enumerated classes, each |Aut(T)| read off T's code, so a code with
  unsorted siblings would change the sum, and
* Otter's dissimilarity theorem, which counts the classes from power series
  alone.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, combinations_with_replacement, product
from typing import Iterator

from .canon import _center_walk, tree_from_code
from .graph import Graph

# the largest tree order enumerated: 254,371 classes, composed in about
# 0.3 s at 42 MB peak RSS (`count_subcubic_trees(22)`, Python 3.11, shared
# 2-core x86 host); `enumerate --n 22` takes about 4 s there, nearly all of
# it writing the graph6 lines straight from the codes; the limit bounds the
# corpus of every suite and scan, whose per-tree checks would run for hours
# above it
MAX_ORDER = 22

# the sorted canonical codes of each order composed so far; a concurrent fill
# stores an equal value, so races are benign
_CODES: dict[int, tuple[bytes, ...]] = {1: (b"()",)}


def _picks(table: dict, keys: tuple) -> Iterator[list[bytes]]:
    """Each multiset of codes taking one code from ``table[k]`` for every
    ``k`` in ``keys``, once, as a sorted list; equal keys draw a combination
    with replacement, so no multiset comes out twice."""
    runs = [combinations_with_replacement(table[k], m) for k, m in Counter(keys).items()]
    for pick in product(*runs):
        yield sorted(chain.from_iterable(pick))


def _fits(keys: list, total: int, m: int, start: int = 0) -> Iterator[tuple]:
    """Each multiset of ``m`` keys from ``keys[start:]`` (``(size, height)``
    pairs sorted by size) whose sizes sum to ``total``, once, as a tuple of
    nondecreasing index.  A key whose size times the parts still to draw
    exceeds what is left ends the scan, since every later key is as large."""
    for i in range(start, len(keys)):
        size = keys[i][0]
        if size * m > total:
            return
        if m == 1:
            if size == total:
                yield (keys[i],)
        else:
            for rest in _fits(keys, total - size, m - 1, i):
                yield (keys[i], *rest)


def _compose(n: int) -> tuple[bytes, ...]:
    """The sorted canonical codes of the subcubic trees of order n >= 2,
    spelled around their centers; no tree is built or walked."""
    limit = n - 1  # no branch of a tree of order n has size + height above it
    # the codes of the rooted branches, every vertex with at most two
    # children, by (size, height)
    table: dict[tuple[int, int], list[bytes]] = {(1, 0): [b"()"]}
    for size in range(2, limit):
        keys = sorted(table)
        for m in (1, 2):
            for pick in _fits(keys, size - 1, m):
                height = 1 + max(h for _, h in pick)
                if size + height <= limit:
                    table.setdefault((size, height), []).extend(
                        b"(" + b"".join(kids) + b")" for kids in _picks(table, pick)
                    )
    keys = sorted(table)
    trees: list[bytes] = []
    # one center: two or three branches, the two tallest of equal height
    for m in (2, 3):
        for pick in _fits(keys, n - 1, m):
            heights = sorted(h for _, h in pick)
            if heights[-1] == heights[-2]:
                trees.extend(
                    b"(" + b"".join(kids) + b")" for kids in _picks(table, pick)
                )
    # two centers: two sides of equal height, coded from the center of the
    # larger side b, with the smaller side a as its first child
    for pick in _fits(keys, n, 2):
        (_, h), (_, k) = pick
        if h == k:
            trees.extend(b"(" + a + b[1:] for a, b in _picks(table, pick))
    return tuple(sorted(trees))


def _check_order(n: int) -> None:
    if n > MAX_ORDER:
        raise ValueError(f"tree order {n} is above the enumeration limit {MAX_ORDER}")


def _subcubic_trees_cached(n: int) -> tuple[bytes, ...]:
    """The sorted canonical codes of the classes of order n, composed once;
    ValueError for an order below 1 or above ``MAX_ORDER``."""
    if n < 1:
        raise ValueError("tree order must be at least 1")
    _check_order(n)
    if n not in _CODES:
        _CODES[n] = _compose(n)
    return _CODES[n]


def enumerate_subcubic_trees(n: int) -> Iterator[Graph]:
    """One canonical representative per isomorphism class, sorted by code,
    each built from its code as the stream reaches it."""
    return map(tree_from_code, _subcubic_trees_cached(n))


def count_subcubic_trees(n: int) -> int:
    return len(_subcubic_trees_cached(n))


def trees_up_to(n_max: int) -> Iterator[Graph]:
    _check_order(n_max)
    for n in range(1, n_max + 1):
        yield from enumerate_subcubic_trees(n)


# -- count oracles: Prufer sequences and Otter's series --------------------


def _pruefer_adjacency(seq: tuple[int, ...], n: int) -> list[list[int]]:
    """Adjacency lists of the tree a Prufer sequence over 0..n-1 encodes."""
    adj: list[list[int]] = [[] for _ in range(n)]
    if n == 1:
        return adj
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    # pointer scan: the smallest-id leaf pairs with the next sequence entry
    ptr = leaf = degree.index(1)
    for v in seq:
        adj[leaf].append(v)
        adj[v].append(leaf)
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            ptr = leaf = degree.index(1, ptr + 1)
    adj[leaf].append(n - 1)
    adj[n - 1].append(leaf)
    return adj


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
    """Literal oracle: decode every degree-bounded Prufer sequence to bare
    adjacency lists and count classes by canonical code.  Exhaustive."""
    if n <= 2:
        return 1
    seen: set[bytes] = set()
    for seq in _bounded_sequences(n, n - 2):
        seen.add(_center_walk(_pruefer_adjacency(seq, n))[0])
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


def otter_class_count(n: int) -> int:
    """Number of subcubic tree classes of order n by Otter's dissimilarity
    theorem (Otter 1948), from power series alone: no canon, no graphs.

    Planted trees, hung from an edge with at most two children at the root:
    P = x(1 + P + (P^2 + P(x^2))/2).  Vertex-rooted trees: R = x Z(S<=3; P),
    where Z(S<=3; P) = 1 + P + (P^2 + P(x^2))/2 + (P^3 + 3 P P(x^2) + 2 P(x^3))/6.
    Unrooted trees: T = R - (P^2 - P(x^2))/2, the vertex-rooted classes less
    the edge-rooted classes whose two halves differ.  Every division is exact.
    """
    if n < 1:
        raise ValueError("tree order must be at least 1")
    size = n + 1

    def times(a: list[int], b: list[int]) -> list[int]:
        return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(size)]

    def at_power(a: list[int], j: int) -> list[int]:  # a(x**j)
        return [a[k // j] if k % j == 0 else 0 for k in range(size)]

    p = [0] * size
    for k in range(1, size):
        m = k - 1  # p[k] is the coefficient of x**m in 1 + P + Z(S2; P)
        square = sum(p[i] * p[m - i] for i in range(1, m))
        p[k] = (m == 0) + p[m] + (square + (p[m // 2] if m % 2 == 0 else 0)) // 2
    p2, px2 = times(p, p), at_power(p, 2)
    z2 = (p2[n - 1] + px2[n - 1]) // 2
    p3, ppx2, px3 = times(p2, p), times(p, px2), at_power(p, 3)
    z3 = (p3[n - 1] + 3 * ppx2[n - 1] + 2 * px3[n - 1]) // 6
    rooted = (n == 1) + p[n - 1] + z2 + z3
    return rooted - (p2[n] - px2[n]) // 2


def _automorphism_count(code: bytes) -> int:
    """|Aut(T)| read off T's canonical code: m! for each run of m equal sibling
    codes (sorted, so equal ones are adjacent), times 2 when the code is ``(``
    + A + A[1:], A the root's first child: ``_compose``'s two alike sides."""
    count, first = 1, b""
    # per open vertex: [code start, last child's code, run of equal children]
    stack = [[-1, b"", 0]]  # stands above the root
    for i, ch in enumerate(code):
        if ch == 40:  # "("
            stack.append([i, b"", 0])
            continue
        start = stack.pop()[0]
        child = code[start : i + 1]
        parent = stack[-1]
        parent[2] = parent[2] + 1 if child == parent[1] else 1
        parent[1] = child
        count *= parent[2]
        if start == 1:
            first = child
    if code == b"(" + first + first[1:]:
        count *= 2
    return count


def labeled_count_from_classes(n: int) -> int:
    """Sum of n!/|Aut(T)| over the enumerated classes of order n, each
    |Aut(T)| read off its code."""
    if n < 1:
        raise ValueError("tree order must be at least 1")
    copies = math.factorial(n)
    return sum(copies // _automorphism_count(c) for c in _subcubic_trees_cached(n))
