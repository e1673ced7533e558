"""Influence weights for exponential domination.

A dominator's influence on a vertex at distance d is (1/2)**(d-1), so a
vertex at distance 1 receives 1 and a dominator assigns itself 2.  Two
variants differ in the distance used:

* blocked weight: the distance is measured along paths whose only dominator
  is the far endpoint, so dominators cut off each other's influence;
* porous weight: plain graph distance, no blocking.

A set D is an exponential dominating set when every vertex has blocked
weight at least 1, and a porous exponential dominating set when every vertex
has porous weight at least 1.

Every influence sum in the package goes through ``influence``, which works
in integers scaled by 2**n for a graph of order n: a dominator at distance
d adds 1 << (n + 1 - d) (reachable distances are at most n - 1, so the
shift is positive), and "weight at least 1" reads ``total >= 1 << n``.
``Fraction`` values are built only for the returned ``WeightProfile``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .graph import INF, Graph, bfs_distances, bfs_distances_excluding


def influence(g: Graph, dominators, blocked: bool) -> list[int]:
    """Each vertex's blocked (or porous) weight from the set, times 2**g.n.

    Raises ValueError if a dominator is not a vertex of g.
    """
    n = g.n
    dset = set(dominators)
    if any(not 0 <= v < n for v in dset):
        raise ValueError("dominator outside the vertex range")
    total = [0] * n
    for v in dset:
        if blocked:
            dist = bfs_distances_excluding(g, v, dset - {v})
        else:
            dist = bfs_distances(g, v)
        for u, d in enumerate(dist):
            if d is not INF:
                total[u] += 1 << (n + 1 - d)
    return total


def porous_rows(g: Graph) -> list[list[int]]:
    """The porous influence matrix times 2**g.n: row v is the weight that
    the single dominator v gives every vertex (the matrix is symmetric)."""
    return [influence(g, (v,), False) for v in range(g.n)]


def blocked_distance(g: Graph, dominators, u: int, v: int):
    """Length of a shortest u-v path whose only dominator is the endpoint v.

    Returns math.inf when no such path exists, in particular when u is a
    different dominator.  Raises ValueError if v is not a dominator.
    """
    dset = set(dominators)
    if v not in dset:
        raise ValueError(f"vertex {v} is not in the dominating set")
    dset.discard(v)
    return bfs_distances_excluding(g, v, dset)[u]


class WeightProfile(NamedTuple):
    """Per-vertex blocked and porous weights for one candidate set."""

    dominators: tuple[int, ...]
    blocked: tuple[Fraction, ...]
    porous: tuple[Fraction, ...]

    def min_blocked(self) -> Fraction:
        return min(self.blocked)

    def min_porous(self) -> Fraction:
        return min(self.porous)


def weight_profile(g: Graph, dominators) -> WeightProfile:
    """Both weight vectors for the set, via one BFS per dominator and variant."""
    dset = tuple(sorted(set(dominators)))
    scale = 1 << g.n

    def weights(blocked: bool) -> tuple[Fraction, ...]:
        return tuple(Fraction(w, scale) for w in influence(g, dset, blocked))

    return WeightProfile(dset, weights(True), weights(False))


def is_exponential_dominating(g: Graph, dominators) -> bool:
    """True iff every vertex has blocked weight at least 1."""
    one = 1 << g.n
    return all(w >= one for w in influence(g, dominators, True))


def is_porous_exponential_dominating(g: Graph, dominators) -> bool:
    """True iff every vertex has porous weight at least 1."""
    one = 1 << g.n
    return all(w >= one for w in influence(g, dominators, False))


def is_dominating(g: Graph, dominators) -> bool:
    """Classical domination: every vertex is in the set or adjacent to it."""
    dset = set(dominators)
    return all(
        u in dset or any(v in dset for v in g.adj[u]) for u in range(g.n)
    )


def is_restricted_dominating(g: Graph, dominators, targets) -> bool:
    """Every target vertex outside the set has a neighbor in the set."""
    dset = set(dominators)
    return all(
        u in dset or any(v in dset for v in g.adj[u])
        for u in targets
        if u not in dset
    )
