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

from .graph import INF, Graph, bfs_distances


def _vertex_set(g: Graph, vertices, what: str) -> set:
    """The vertices as a set; ValueError if one is outside 0..g.n-1 (so -1
    never wraps around to the last vertex)."""
    vset = set(vertices)
    if any(not 0 <= v < g.n for v in vset):
        raise ValueError(f"{what} outside the vertex range")
    return vset


def influence(g: Graph, dominators, blocked: bool) -> list[int]:
    """Each vertex's blocked (or porous) weight from the set, times 2**g.n.

    Raises ValueError if a dominator is not a vertex of g.
    """
    n = g.n
    dset = _vertex_set(g, dominators, "dominator")
    total = [0] * n
    for v in dset:
        for u, d in enumerate(bfs_distances(g, v, dset if blocked else ())):
            if d is not INF:
                total[u] += 1 << (n + 1 - d)
    return total


def porous_rows(g: Graph) -> list[list[int]]:
    """The porous influence matrix times 2**g.n: row v is the weight that
    the single dominator v gives every vertex (the matrix is symmetric)."""
    return [influence(g, (v,), False) for v in range(g.n)]


def packed_fields(n: int):
    """``(pack, top)``: one int per weight vector of order n, and its mask.

    ``pack`` puts vertex u's scaled weight in the field of bits
    [u * width, (u + 1) * width), ``width = n + (2n).bit_length() + 1``.  A
    sum of at most n rows never exceeds n * 2**(n + 1) < 2**(width - 1) in a
    field (each dominator is worth at most 2 * 2**n), so no sum carries
    across a field.  ``top`` holds each field's top bit, so "every field is
    at least t_u" is one mask test: with the bias ``top - pack(t)`` for
    thresholds 0 <= t_u < 2**(width - 1), a biased field has its top bit set
    exactly when its weight is at least t_u, and still carries into no other.
    """
    width = n + (2 * n).bit_length() + 1

    def pack(vector) -> int:
        return sum(w << (u * width) for u, w in enumerate(vector))

    return pack, pack([1 << (width - 1)] * n)


def blocked_distance(g: Graph, dominators, u: int, v: int):
    """Length of a shortest u-v path whose only dominator is the endpoint v.

    Returns math.inf when no such path exists, in particular when u is a
    different dominator.  Raises ValueError if u, v or a dominator is not a
    vertex of g, or if v is not a dominator.
    """
    dset = _vertex_set(g, dominators, "dominator")
    _vertex_set(g, (u, v), "vertex")
    if v not in dset:
        raise ValueError(f"vertex {v} is not in the dominating set")
    return bfs_distances(g, v, dset)[u]


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


def is_restricted_dominating(g: Graph, dominators, targets) -> bool:
    """Every target vertex outside the set has a neighbor in the set.

    Raises ValueError if a dominator or a target is not a vertex of g.
    """
    dset = _vertex_set(g, dominators, "dominator")
    return all(
        any(v in dset for v in g.adj[u])
        for u in _vertex_set(g, targets, "target")
        if u not in dset
    )


def is_dominating(g: Graph, dominators) -> bool:
    """Classical domination: ``is_restricted_dominating`` on every vertex."""
    return is_restricted_dominating(g, dominators, range(g.n))
