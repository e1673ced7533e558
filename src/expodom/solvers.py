"""Exact optimum computation for the domination-type parameters.

All searches are exhaustive with pruning, never heuristic:

* classical/restricted/forced domination run a lexicographic depth-first
  cover search over closed-neighborhood bitmasks with suffix-union pruning;
* the exponential parameters read one stream per component,
  ``_porous_leaves``: every porous-feasible set (the rows of
  ``weights.porous_rows``, summed as the set grows), one size at a time
  from 1 up, lexicographic within a size, each set searched for only when
  it is read.  Each entry point stops reading once it has what it needs:
  gamma_e_star takes the first set, ``all_minimum_porous_sets`` the first
  non-empty size, gamma_e the first set that passes
  ``is_exponential_dominating``, and ``exponential_parameters`` both from
  one pass.  All of them read the one integer influence kernel,
  ``weights.influence``.  No LP is solved: no size below the fractional
  porous optimum holds a feasible set, so starting at 1 changes no value.

Blocked weight never exceeds porous weight, so every exponential dominating
set is porous dominating: it appears in the stream, and gamma_e_star <= gamma_e.

The subset search packs each weight vector into one int, a field of
``width = n + (2n).bit_length() + 1`` bits per vertex.  A field holds at
most k dominators' weight, each at most 2 * 2**n, so it stays at or below
n * 2**(n+1) < 2**(width-1) and no sum carries into the next field.  A
node is pruned when some vertex cannot reach weight 1 even if every
remaining pick gave it the most any later vertex can (``w + slots *
suffix_max`` below 2**n in some field); since the suffix maxima are
non-negative this is the same per-vertex inequality as testing the
vertex's own weight first, so the search yields the same sets in the same
order.  "Every field is at least 2**n" is one mask test: a bias of
2**(width-1) - 2**n per field, itself below 2**(width-1), sets a field's
top bit exactly when its weight is at least 2**n, and still carries into
no other field.  Two tables per slot count s, built as each level opens,
fold the bias in: ``reach[s][v]`` (child v's row plus s - 1 suffix
maxima after it), so a child costs one add, one and and one compare, and
``most[s][v]`` (s suffix maxima after v).  Every later child's ``reach``
is at most ``most[s][v]`` field by field, so when child v fails and
``w + most[s][v]`` fails too, the loop ends there: the exit skips only
children that would fail their own prune.

Witnesses are therefore always the lexicographically smallest optimum set,
and every witness is re-checked on its own before it is returned.
Disconnected inputs are solved per component and recombined.
"""

from __future__ import annotations

from itertools import chain, product
from typing import NamedTuple

from .graph import CertificateError, Graph, connected_components, induced_subgraph
from .weights import (
    WeightProfile,
    is_dominating,
    is_exponential_dominating,
    is_restricted_dominating,
    porous_rows,
    weight_profile,
)


class DomCertificate(NamedTuple):
    """Optimum value plus a witness set and its verification payload.

    Minimality is certified by the search itself (every smaller level was
    exhausted); the witness is re-checked against the defining predicate
    before the certificate is handed out.
    """

    parameter: str
    value: int
    witness: tuple[int, ...]
    profile: WeightProfile | None = None


def _certify(ok: bool, what: str) -> None:
    """Witness re-check that stays in force under ``python -O``."""
    if not ok:
        raise CertificateError(what)


# -- classical domination: bitmask cover search ------------------------------


def _closed_masks(g: Graph) -> list[int]:
    masks = []
    for v in range(g.n):
        m = 1 << v
        for u in g.adj[v]:
            m |= 1 << u
        masks.append(m)
    return masks


# ``_min_cover`` keeps one closed-neighborhood mask per vertex and one suffix
# union per candidate, Python ints of up to n bits each: about 1.5 * n**2
# bits in all, 48 MB at this order.  ``compute`` refuses larger graphs.
COVER_ORDER_LIMIT = 16384


def _min_cover(g: Graph, targets, forced=()) -> tuple[int, tuple[int, ...]]:
    """Smallest D containing ``forced`` with targets inside D or N(D)."""
    n = g.n
    closed = _closed_masks(g)
    required = 0
    for v in targets:
        required |= 1 << v
    forced_set = tuple(sorted(set(forced)))
    base = 0
    for v in forced_set:
        base |= closed[v]
    if required & ~base == 0:
        return len(forced_set), forced_set

    skip = set(forced_set)
    candidates = [v for v in range(n) if v not in skip]
    m = len(candidates)
    suffix = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] | closed[candidates[i]]
    best_gain = max(c.bit_count() for c in closed) if closed else 1

    def dfs(slots: int, covered: int):
        """First cover with at most ``slots`` picks, in lexicographic order
        of candidate positions; depth-first with an explicit stack."""
        picked: list[tuple[int, int]] = []  # (position, covered before it)
        pos = 0  # first position the next pick may take
        while True:
            missing = required & ~covered
            if missing == 0:
                return tuple(candidates[i] for i, _ in picked)
            left = slots - len(picked)
            last = m - left  # last position that leaves room for the rest
            if (
                not left
                or missing & ~suffix[pos]
                or missing.bit_count() > left * best_gain
            ):
                last = -1  # pruned: no pick is tried at this depth
            while pos > last:  # this depth is exhausted: back up one pick
                if not picked:
                    return None
                pos, covered = picked.pop()
                pos += 1
                left += 1
                last = m - left
            picked.append((pos, covered))
            covered |= closed[candidates[pos]]
            pos += 1

    lower = max(1, -(-(required & ~base).bit_count() // best_gain))
    for extra in range(lower, len(candidates) + 1):
        got = dfs(extra, base)
        if got is not None:
            witness = tuple(sorted(forced_set + got))
            return len(witness), witness
    raise RuntimeError("cover search failed to terminate")  # unreachable


def domination_number(g: Graph) -> DomCertificate:
    value, witness = _min_cover(g, range(g.n))
    _certify(is_dominating(g, witness), "gamma witness does not dominate")
    return DomCertificate("gamma", value, witness)


def restricted_domination_number(g: Graph, targets) -> DomCertificate:
    tset = sorted(set(targets))
    if any(not 0 <= v < g.n for v in tset):
        raise ValueError("target vertex outside the graph")
    value, witness = _min_cover(g, tset)
    _certify(
        is_restricted_dominating(g, witness, tset),
        "restricted witness misses a target",
    )
    return DomCertificate("gamma_restricted", value, witness)


def domination_with_forced_vertex(g: Graph, x: int) -> int:
    if not 0 <= x < g.n:
        raise ValueError(f"vertex {x} out of range")
    value, witness = _min_cover(g, range(g.n), forced=(x,))
    _certify(
        x in witness and is_dominating(g, witness),
        "forced-vertex witness is not a dominating superset",
    )
    return value


# -- exponential domination: subset search -----------------------------------


def _porous_leaves(g: Graph):
    """Every porous-feasible set of g, level by level: (k, an iterator over
    the feasible k-sets in lexicographic order) for k from 1 on.  Each set
    is searched for only when it is read, so a reader that stops at a
    level's end starts no later level.
    Connected or not, the graph is searched whole; callers decompose first
    for speed."""
    n = g.n
    if n == 0:  # the empty set dominates the empty graph
        yield 0, iter([()])
    # Each weight vector is one int, vertex u's scaled weight in the field of
    # bits [u * width, (u + 1) * width).  A field never exceeds
    # k * 2**(n + 1) <= n * 2**(n + 1) < 2**(width - 1) (at most k dominators,
    # each worth at most 2 * 2**n), so no sum below carries across a field.
    width = n + (2 * n).bit_length() + 1

    def pack(vector) -> int:
        return sum(w << (u * width) for u, w in enumerate(vector))

    rows = porous_rows(g)
    prow = [pack(row) for row in rows]
    suffix_max = [0] * n
    psuf = [0] * (n + 1)
    for v in range(n - 1, -1, -1):
        suffix_max = [max(a, b) for a, b in zip(suffix_max, rows[v])]
        psuf[v] = pack(suffix_max)
    # Field-wise "weight >= 2**n" as one mask test: ``bias`` adds
    # 2**(width - 1) - 2**n to every field, so a biased field has its ``top``
    # bit set exactly when its weight is at least 2**n.  Weight and bias are
    # each below 2**(width - 1), so a biased field still carries into no other.
    top = pack([1 << (width - 1)] * n)
    bias = top - pack([1 << n] * n)
    # Per slot count s, built as the stream opens level s and kept for the
    # deeper levels: reach[s][v] is what child v of a node with s slots adds
    # to its weight, its own row plus the most the s - 1 later picks could
    # add, so child v passes its prune when (w + reach[s][v]) & top == top
    # (reach[1][v] is the leaf test).  most[s][v] = s * psuf[v + 1] bounds
    # reach[s][v'] for every v' > v field by field (prow[v'] and psuf[v' + 1]
    # are both at most psuf[v + 1]), so once child v has failed and
    # w + most[s][v] misses too, no later child can pass and the loop ends.
    reach = [None]
    most = [None]

    def level(start: int, slots: int, w: int, chosen):
        """The feasible sets that extend ``chosen`` by ``slots`` vertices
        from ``start`` on, below a node that passed the prune."""
        fits, bound = reach[slots], most[slots]
        if slots > 1:
            rest = slots - 1
            for v in range(start, n - rest):
                if (w + fits[v]) & top == top:
                    yield from level(v + 1, rest, w + prow[v], (*chosen, v))
                elif (w + bound[v]) & top != top:
                    return
            return
        for v in range(start, n):
            if (w + fits[v]) & top == top:
                yield (*chosen, v)
            elif (w + bound[v]) & top != top:
                return

    for k in range(1, n + 1):
        reach.append([prow[v] + (k - 1) * psuf[v + 1] + bias for v in range(n)])
        most.append([k * psuf[v + 1] + bias for v in range(n)])
        if (k * psuf[0] + bias) & top == top:
            yield k, level(0, k, 0, ())


# Readers of one component's stream: each returns one (k, sets) per
# parameter, and stops reading once it has them.


def _first_porous(g: Graph, levels):
    for k, sets in levels:
        for leaf in sets:
            return [(k, [leaf])]


def _first_level(g: Graph, levels):
    for k, sets in levels:
        found = list(sets)
        if found:
            return [(k, found)]


def _first_exponential(g: Graph, levels):
    for k, sets in levels:
        for leaf in sets:
            if is_exponential_dominating(g, leaf):
                return [(k, [leaf])]


def _first_both(g: Graph, levels):
    for k, sets in levels:
        for leaf in sets:  # the blocked scan resumes at the first porous set
            resumed = chain([(k, chain([leaf], sets))], levels)
            return [(k, [leaf]), *_first_exponential(g, resumed)]


def _per_component(g: Graph, take):
    """``take(sub, _porous_leaves(sub))`` on each component ``sub`` of g, the
    empty graph being one empty component.  Each (k, sets) that ``take``
    returns becomes (k summed over the components, every union of one set
    per component), back in g's labels and sorted."""
    results = []
    for comp in connected_components(g) or [[]]:
        sub, _ = induced_subgraph(g, comp)
        results.append([
            (k, [[comp[v] for v in s] for s in sets])
            for k, sets in take(sub, _porous_leaves(sub))
        ])
    merged = []
    for parts in zip(*results):  # one column per (k, sets) that take returns
        unions = (sorted(chain(*pick)) for pick in product(*(s for _, s in parts)))
        merged.append((sum(k for k, _ in parts), sorted(map(tuple, unions))))
    return merged


def _exponential_certificate(g: Graph, parameter: str, value: int, sets):
    """Re-check the first of ``sets`` on its own, against its own profile."""
    witness = sets[0]
    if g.n == 0:
        return DomCertificate(parameter, value, witness)
    profile = weight_profile(g, witness)
    least = profile.min_blocked() if parameter == "gamma_e" else profile.min_porous()
    _certify(least >= 1, f"{parameter} witness is not dominating")
    return DomCertificate(parameter, value, witness, profile=profile)


def exponential_parameters(g: Graph) -> tuple[DomCertificate, DomCertificate]:
    """The gamma_e and gamma_e_star certificates, in that order, from one
    pass over each component's leaf stream."""
    porous, blocked = _per_component(g, _first_both)
    return (
        _exponential_certificate(g, "gamma_e", *blocked),
        _exponential_certificate(g, "gamma_e_star", *porous),
    )


def exponential_domination_number(g: Graph) -> DomCertificate:
    blocked = _per_component(g, _first_exponential)[0]
    return _exponential_certificate(g, "gamma_e", *blocked)


def porous_exponential_domination_number(g: Graph) -> DomCertificate:
    porous = _per_component(g, _first_porous)[0]
    return _exponential_certificate(g, "gamma_e_star", *porous)


def all_minimum_porous_sets(g: Graph) -> list[tuple[int, ...]]:
    """Every porous exponential dominating set of minimum size, sorted."""
    return _per_component(g, _first_level)[0][1]
