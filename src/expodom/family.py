"""The constructive family of subcubic trees where domination and
exponential domination coincide.

Three growth operations extend a tree at a vertex of degree at most 2:

1. hang a new leaf y on x, allowed when x lies in some minimum dominating set;
2. hang a path y-z on x, allowed when tau(x) > 1 or when exempting x from
   the domination requirement lowers the domination number;
3. hang a path x-y-z on w, allowed when tau(w) > 1/2.

``tau(x)`` is the smallest extra influence that, injected at x and decayed
by half per edge of the dominator-free graph, repairs every deficit left by
some too-small candidate set (fewer vertices than the exponential domination
number, not containing x).  It is always finite (see ``TauResult``); like
the weights it reads, it is computed in integers scaled by 2**n and returned
as a ``Fraction``.  Closing P_1 under the three operations generates exactly
the subcubic trees with gamma == gamma_e; ``recognize`` decides membership
by exhaustive reverse search and returns a replayable trace.

Every verdict is memoized under a canonical code, so isomorphic copies share
it: a guard at x walks ``rooted_code(g, x)`` once, and that key is also the
tree check, since the canon walk raises NotTreeError on any other graph.
One helper, ``_memo``, fills and reads all six tables.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterator, NamedTuple

from .canon import (
    canonical_code,
    rooted_code,
    tree_from_code,
    tree_isomorphism_map,
)
from .graph import (
    Graph,
    INF,
    NotSubcubicError,
    NotTreeError,
    add_pendant_path,
    bfs_distances_excluding,
    delete_vertices,
)
from .solvers import (
    domination_number,
    domination_with_forced_vertex,
    exponential_domination_number,
    restricted_domination_number,
)
from .weights import influence


class OperationNotApplicable(ValueError):
    """Refused to apply a growth operation whose guard is false."""


class TauResult(NamedTuple):
    """Minimum repair influence at a vertex, with a witness candidate set.

    The value is always finite.  On a connected graph the empty set is
    admissible and every deficit it leaves is reachable from x.  Otherwise
    take a minimum exponential dominating set of the components other than
    x's: it has at most gamma_e - 1 vertices, does not contain x, and covers
    every vertex outside x's component, so every deficit it leaves lies in
    that component, which holds no dominator, and is reachable from x.
    """

    value: Fraction
    witness: tuple[int, ...]


# caches are keyed by canonical codes, so entries are shared between all
# isomorphic copies; verdicts are deterministic, making races benign
_GAMMA: dict[bytes, int] = {}
_GAMMA_E: dict[bytes, int] = {}
_FORCED: dict[bytes, int] = {}
_RESTRICTED: dict[bytes, int] = {}
_TAU: dict[bytes, Fraction] = {}
_RECOGNIZE: dict[bytes, "tuple[OpTrace, Graph] | None"] = {}


def _memo(table: dict, key: bytes, compute):
    """``table[key]``, filled by ``compute()`` on the first read."""
    if key not in table:
        table[key] = compute()
    return table[key]


def _gamma_value(g: Graph) -> int:
    return _memo(_GAMMA, canonical_code(g), lambda: domination_number(g).value)


def _gamma_e_value(g: Graph) -> int:
    try:
        key = canonical_code(g)
    except NotTreeError:  # tau reads any graph; only trees are memoized
        return exponential_domination_number(g).value
    return _memo(_GAMMA_E, key, lambda: exponential_domination_number(g).value)


def _tau_of_set(g: Graph, x: int, dset: set) -> int | None:
    """max over vertices outside the set of (1 - weight) * 2**dist(x, .),
    times 2**n like the blocked weights it reads; None when a deficit vertex
    is unreachable from x."""
    one = 1 << g.n
    weights = influence(g, dset, True)
    dist_x = bfs_distances_excluding(g, x, dset)
    worst = 0
    for u, w in enumerate(weights):
        if w >= one:  # dominators included: each weighs at least 2
            continue
        if dist_x[u] is INF:
            return None
        worst = max(worst, (one - w) << dist_x[u])
    return worst


def tau(g: Graph, x: int) -> TauResult:
    """Minimum over all candidate sets (size below gamma_e, excluding x) of
    the repair influence needed at x; the empty set is admissible."""
    if not 0 <= x < g.n:
        raise ValueError(f"vertex {x} out of range")
    limit = _gamma_e_value(g)
    others = [v for v in range(g.n) if v != x]
    best: int | None = None
    best_set: tuple[int, ...] = ()
    for size in range(limit):
        for cand in combinations(others, size):
            value = _tau_of_set(g, x, set(cand))
            if value is not None and (best is None or value < best):
                best = value
                best_set = cand
    if best is None:
        raise RuntimeError("tau found no finite candidate set")  # unreachable
    return TauResult(Fraction(best, 1 << g.n), best_set)


def _subcubic(g: Graph, key: bytes) -> bytes:
    """``key``, a canonical or rooted code of g, once g is known subcubic:
    computing the key already checked that g is a tree."""
    if g.max_degree() > 3:
        raise NotSubcubicError("growth operations keep trees subcubic")
    return key


def op1_applicable(g: Graph, x: int) -> bool:
    """Leaf attachment at x: x must lie in some minimum dominating set."""
    key = _subcubic(g, rooted_code(g, x))
    if g.degree(x) >= 3:
        return False
    forced = _memo(_FORCED, key, lambda: domination_with_forced_vertex(g, x))
    return forced == _gamma_value(g)


def op2_applicable(g: Graph, x: int) -> bool:
    """Two-vertex path at x: tau(x) > 1, or excusing x from domination helps."""
    key = _subcubic(g, rooted_code(g, x))
    if g.degree(x) >= 3:
        return False
    if _memo(_TAU, key, lambda: tau(g, x).value) > 1:
        return True
    targets = [v for v in range(g.n) if v != x]
    restricted = _memo(
        _RESTRICTED, key, lambda: restricted_domination_number(g, targets).value
    )
    return restricted < _gamma_value(g)


def op3_applicable(g: Graph, w: int) -> bool:
    """Three-vertex path at w: tau(w) > 1/2."""
    key = _subcubic(g, rooted_code(g, w))
    if g.degree(w) >= 3:
        return False
    return _memo(_TAU, key, lambda: tau(g, w).value) > Fraction(1, 2)


_APPLICABLE = {1: op1_applicable, 2: op2_applicable, 3: op3_applicable}


def apply_op(g: Graph, op: int, attach: int) -> Graph:
    """Attach a pendant path of ``op`` new vertices at ``attach``.

    Refuses (raises OperationNotApplicable) when the guard predicate fails,
    so every tree built through this function stays inside the family.
    """
    if op not in _APPLICABLE:
        raise ValueError(f"unknown operation {op}")
    if not _APPLICABLE[op](g, attach):
        raise OperationNotApplicable(
            f"operation {op} not applicable at vertex {attach}"
        )
    return add_pendant_path(g, attach, op)


class OpStep(NamedTuple):
    op: int
    attach: int
    added: tuple[int, ...]


class OpTrace(NamedTuple):
    """Construction certificate: replaying the steps from P_1 rebuilds the
    tree (up to isomorphism) with every guard re-checked."""

    steps: tuple[OpStep, ...]

    def to_json_obj(self) -> list[dict]:
        return [
            {"op": s.op, "attach": s.attach, "added": list(s.added)}
            for s in self.steps
        ]

    @classmethod
    def from_json_obj(cls, obj) -> "OpTrace":
        return cls(
            tuple(
                OpStep(int(s["op"]), int(s["attach"]), tuple(s["added"]))
                for s in obj
            )
        )


def replay_trace(trace: OpTrace) -> Graph:
    """Rebuild from P_1, validating each step's guard and vertex numbering."""
    g = Graph(1)
    for step in trace.steps:
        expected = tuple(range(g.n, g.n + step.op))
        if step.added != expected:
            raise ValueError(
                f"step {step} adds {step.added}, expected {expected}"
            )
        g = apply_op(g, step.op, step.attach)
    return g


def _reverse_candidates(g: Graph):
    """Peel-back candidates in deterministic order (op 1, then 2, then 3)."""
    for y in range(g.n):
        if g.degree(y) == 1:
            yield 1, (y,), g.adj[y][0]
    for z in range(g.n):
        if g.degree(z) == 1:
            y = g.adj[z][0]
            if g.degree(y) == 2:
                x = next(v for v in g.adj[y] if v != z)
                yield 2, (y, z), x
    for z in range(g.n):
        if g.degree(z) == 1:
            y = g.adj[z][0]
            if g.degree(y) != 2:
                continue
            x = next(v for v in g.adj[y] if v != z)
            if g.degree(x) != 2:
                continue
            w = next(v for v in g.adj[x] if v != y)
            yield 3, (x, y, z), w


def _peel(g: Graph):
    """(trace, replayed tree) for the first peel-back that leaves a member,
    or None when no peel-back does."""
    if g.n == 1:
        return OpTrace(()), Graph(1)
    for op, removed, attach_old in _reverse_candidates(g):
        smaller, old_to_new = delete_vertices(g, removed)
        attach = old_to_new[attach_old]
        if not _APPLICABLE[op](smaller, attach):
            continue
        sub = _memo(_RECOGNIZE, canonical_code(smaller), lambda: _peel(smaller))
        if sub is None:
            continue
        sub_trace, sub_replay = sub
        iso = tree_isomorphism_map(smaller, sub_replay)
        step = OpStep(
            op,
            iso[attach],
            tuple(range(sub_replay.n, sub_replay.n + op)),
        )
        trace = OpTrace(sub_trace.steps + (step,))
        return trace, add_pendant_path(sub_replay, iso[attach], op)
    return None


def recognize(g: Graph) -> OpTrace | None:
    """A construction trace when the tree belongs to the family, else None."""
    found = _memo(_RECOGNIZE, _subcubic(g, canonical_code(g)), lambda: _peel(g))
    return found[0] if found else None


# Generation time grows about tenfold every two orders: 0.56 / 4.1 / 42.5 s
# at 12 / 14 / 16 vertices, so order 20 would take about an hour.
MAX_ORDER = 18


def generate_family(n_max: int) -> Iterator[Graph]:
    """All family members with at most n_max vertices, one per isomorphism
    class, sorted by order then canonical code."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if n_max > MAX_ORDER:
        raise ValueError(
            f"family order {n_max} is above the generation limit {MAX_ORDER}"
        )
    start = Graph(1)
    members: dict[bytes, Graph] = {canonical_code(start): start}
    queue = [start]
    while queue:
        g = queue.pop()
        tried: set[bytes] = set()
        for x in range(g.n):
            if g.degree(x) >= 3:
                continue
            orbit = rooted_code(g, x)
            if orbit in tried:
                continue
            tried.add(orbit)
            for op in (1, 2, 3):
                if g.n + op > n_max:
                    continue
                if not _APPLICABLE[op](g, x):
                    continue
                grown = add_pendant_path(g, x, op)
                code = canonical_code(grown)
                if code not in members:
                    members[code] = tree_from_code(code)
                    queue.append(members[code])
    for _, t in sorted(members.items(), key=lambda item: (item[1].n, item[0])):
        yield t
