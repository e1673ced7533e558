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
as a ``Fraction``.  A candidate set is evaluated exactly only when its
porous weights, a lower bound on its value, leave it a chance to beat the
best set so far; a skipped set could never have replaced the best under the
strict ``<``, so value and witness are those of evaluating every set (see
``tau``).  Closing P_1 under the three operations generates exactly
the subcubic trees with gamma == gamma_e; ``recognize`` decides membership
by exhaustive reverse search and returns a replayable trace.

The guards run no search.  They read two DPs, exact on trees: the
classical tree DP (``solvers.tree_domination``) gives gamma, domination with
x forced and restricted domination of V - {x}, and the blocked exponential
DP (``_blocked_dp``) gives gamma_e and tau(x).  ``generate_family`` reads a
tree's values at all its vertices from one ``_TreeGuards``: each DP is
rooted once, at vertex 0, and an up pass reroots it
(``solvers.TreeDomination``; the blocked one only along the paths to the
vertices whose tau is read), instead of one rooted run per guarded vertex.  The
public guards, which ``recognize`` calls, root both DPs at the guarded
vertex.  Both read the same three verdicts (``_FITS``), and every value a
guard reads is backed by a witness re-checked in explicit code: gamma's and
gamma_e's once per DP run, a forced, restricted or tau witness at each
vertex where the value is read.  Both DPs carry each witness as a member
mask in their states: the blocked one beside its counts, the classical one
packed into each cost (``solvers._dom_packing``).  A classical witness is
unpacked at each read and checked with closed-neighbourhood bitmasks: its
size, whether it holds x, and the OR of its members' masks against the
targets' mask (``solvers._dom_witness``).  A tau witness is evaluated anew
by ``_tau_of_set``, one blocked BFS per member and one from x.  A
rerooted tau(x) is the least need over the product of x's branch
frontiers, the last product scanned with no frontier sort
(``_least_need``).  ``tau`` keeps its enumeration for the ``tau``
command's witness (the first set in enumeration order to reach the
minimum) and for graphs with cycles; with the searches, it judges the DPs
in the tests.

``generate_family`` walks each tree it grows from once, by
``canon.TreeCodes``: the walk from its centers gives each vertex's
downward code, its depth and its parent, and a top-down pass its up code
and rooted code, which is the vertex's orbit key.  Each grown tree's
canonical code is read off those tables: only the branches on the parent
chain from the attach vertex to the grown tree's centers change
(``TreeCodes.grown``).  So no grown tree is walked, and only new members
are built.

The public guards memoize their values under the rooted code of the
guarded vertex, ``rooted_code(g, x)``, so isomorphic copies share them.
Computing that key is the tree check and the range check, since the canon
walk raises NotTreeError on any other graph and ValueError on a vertex out
of range.  ``_memo`` fills ``_TAU``, ``_GAMMA_E`` (read only by ``tau``)
and ``_RECOGNIZE``; one classical DP run fills ``_GAMMA``, ``_FORCED`` and
``_RESTRICTED`` together.
Generation fills none of them: no two of its reads share a rooted code
except within one tree, whose ``_TreeGuards`` holds every value.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterator, NamedTuple

from .canon import (
    TreeCodes,
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
    bfs_distances,
    delete_vertices,
    rooted_tree,
)
from .solvers import (
    TreeDomination,
    _certify,
    exponential_domination_number,
    tree_domination,
)
from .weights import (
    influence,
    is_exponential_dominating,
    packed_fields,
    porous_rows,
)


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
# isomorphic copies; verdicts are deterministic, making races benign.  The
# guards' tables are keyed by the rooted code of (tree, guarded vertex).
_GAMMA: dict[bytes, int] = {}
_GAMMA_E: dict[bytes, int] = {}  # filled by tau() alone: the guards call no tau()
_FORCED: dict[bytes, int] = {}
_RESTRICTED: dict[bytes, int] = {}
_TAU: dict[bytes, Fraction] = {}
_RECOGNIZE: dict[bytes, "tuple[OpTrace, Graph] | None"] = {}


def _memo(table: dict, key: bytes, compute):
    """``table[key]``, filled by ``compute()`` on the first read."""
    if key not in table:
        table[key] = compute()
    return table[key]


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
    dist_x = bfs_distances(g, x, dset)
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
    the repair influence needed at x; the empty set is admissible.

    A set S is evaluated exactly only when a porous bound leaves it a chance
    to beat the best value so far.  Blocked weight never exceeds porous
    weight, and dist_{G-S}(x, u) >= dist_G(x, u), so S's value is at least
    (1 - porous_S(u)) * 2**dist_G(x, u) at every vertex u reachable from x,
    and S has no value when some u unreachable from x has porous weight
    below 1.  A skipped set therefore has no value or one at or above the
    best, and never replaces it under the strict ``<``: the sets are still
    read in the same order, so both the value and the witness (the first
    set to reach the minimum) are unchanged.  The test is one packed add
    per dominator and one mask test (``weights.packed_fields``).
    """
    if not 0 <= x < g.n:
        raise ValueError(f"vertex {x} out of range")
    limit = _gamma_e_value(g)
    others = [v for v in range(g.n) if v != x]
    one = 1 << g.n
    dist_x = bfs_distances(g, x)
    pack, top = packed_fields(g.n)
    prow = [pack(row) for row in porous_rows(g)]

    def bias_for(best: int | None) -> int:
        """``top`` less the least porous weight at each vertex that lets a
        set beat ``best``: (one - w) << d < best iff w >= one - ceil(best /
        2**d) + 1, and an unreachable vertex needs weight one."""
        least = [
            one if d is INF
            else 0 if best is None
            else max(0, one + ((-best) >> d) + 1)
            for d in dist_x
        ]
        return top - pack(least)

    best: int | None = None
    best_set: tuple[int, ...] = ()
    bias = bias_for(best)
    for size in range(limit):
        for cand in combinations(others, size):
            if sum(map(prow.__getitem__, cand), bias) & top != top:
                continue
            value = _tau_of_set(g, x, set(cand))
            if value is not None and (best is None or value < best):
                best = value
                best_set = cand
                bias = bias_for(best)
    if best is None:
        raise RuntimeError("tau found no finite candidate set")  # unreachable
    return TauResult(Fraction(best, one), best_set)


def _subcubic(g: Graph, key: bytes) -> bytes:
    """``key``, a canonical or rooted code of g, once g is known subcubic:
    computing the key already checked that g is a tree."""
    if g.max_degree() > 3:
        raise NotSubcubicError("growth operations keep trees subcubic")
    return key


def _frontier(states: list) -> list:
    """The states (k, p, q, mask) that no other state matches or beats in
    all of k, p and q, lower being better in each; of equal ones, the one
    with the least mask is kept."""
    kept: list = []
    for s in sorted(states):
        _, p, q, _ = s
        for t in kept:
            if t[1] <= p and t[2] <= q:
                break
        else:
            kept.append(s)
    return kept


def _merged(partial: list, states: list) -> list:
    """The combined states (k, M, -T, mask) over one more branch of a vertex
    outside D (``_vertex_states``): each of ``partial`` with each of the
    branch's ``states``."""
    return [  # max(m, 2 * need - neg_out), without the call
        (k + kc, m if m > 2 * need - neg_out else 2 * need - neg_out,
         neg_t + neg_out, mask | mc)
        for k, m, neg_t, mask in partial
        for kc, need, neg_out, mc in states
    ]


def _outside(below: list, one: int) -> list:
    """The combined states (k, M, -T, mask) of a vertex outside D over the
    frontiers ``below`` of all its branches (``_merged``), kept to a
    frontier after each branch but the last.  A state that another matches
    or beats in k, M and -T is beaten in k, need and -out too, so the
    frontier or the least need that each reader takes drops it: a sort of
    the last product would be wasted."""
    partial = [(0, one, 0, 0)]
    for states in below[:-1]:
        partial = _frontier(_merged(partial, states))
    return _merged(partial, below[-1]) if below else partial


def _vertex_states(v: int, below: list, one: int):
    """v's subtree states from its children's frontiers ``below``: those
    with v outside D, and the cheapest with v in D.

    A state (k, need, -out, mask) is a choice of k dominators (the mask)
    that leaves the subtree dominated once v receives ``need`` from
    outside, and sends ``out`` up, in units where weight 1 is ``one``.  With
    v outside D, children are combined through (k, M, -T, mask), T the sum
    of their outs and M the largest 2 * need_i + out_i (at least ``one``,
    which v itself needs): need = max(0, M - T), out = T / 2
    (``_outside``).  With v in D, v blocks everything: need = 0, out =
    ``one``, and each child, which receives exactly ``one`` from v, takes
    its cheapest state with need_i at most ``one``."""
    k_in, mask_in = 1, 1 << v
    for states in below:
        kc, _, _, mc = min(s for s in states if s[1] <= one)
        k_in += kc
        mask_in |= mc
    free = [
        (k, m + neg_t if m + neg_t > 0 else 0, neg_t // 2, mask)
        for k, m, neg_t, mask in _outside(below, one)
    ]
    return free, (k_in, 0, -one, mask_in)


def _down_frontiers(order: list, children: list, one: int):
    """Each vertex's frontier of its subtree (``_vertex_states``), leaves
    up, and the root's states (free, held)."""
    fronts: list = [None] * len(order)
    for v in reversed(order):
        free, held = _vertex_states(v, [fronts[u] for u in children[v]], one)
        # a leaf's two states, need one or held, are a frontier already
        fronts[v] = _frontier(free + [held]) if children[v] else free + [held]
    return fronts, (free, held)


def _certified_gamma_e(g: Graph, states: list) -> int:
    """gamma_e of the tree g, the least k among the root's states with need
    0, once its witness is checked: gamma_e vertices that dominate
    exponentially."""
    gamma_e, mask = min((k, m) for k, need, _, m in states if need == 0)
    witness = [v for v in range(g.n) if mask >> v & 1]
    _certify(
        len(witness) == gamma_e and is_exponential_dominating(g, witness),
        "gamma_e tree witness is not an exponential dominating set of its size",
    )
    return gamma_e


def _least_need(branches: list, one: int, limit: int) -> tuple[int, int, int]:
    """(need, k, mask), least in that order, over the states of a vertex
    outside D with k below ``limit``, from the frontiers of all its
    branches (``_outside``): the need of ``_vertex_states``' free states,
    with no free list or held state built."""
    return min(
        (m + neg_t if m + neg_t > 0 else 0, k, mask)
        for k, m, neg_t, mask in _outside(branches, one)
        if k < limit
    )


def _certified_tau(g: Graph, x: int, least: tuple, one: int) -> Fraction:
    """tau(x), the least need ``least`` = (need, k, mask) over the states
    of x outside D with k below gamma_e, once its witness is checked:
    ``_tau_of_set`` of the set, k vertices without x, is exactly its
    need."""
    need, k, mask = least
    cand = {v for v in range(g.n) if mask >> v & 1}
    value = None if x in cand or len(cand) != k else _tau_of_set(g, x, cand)
    _certify(
        value is not None and 2 * value == need,
        "tau tree witness does not repay its need",
    )
    return Fraction(need, one)


def _blocked_dp(g: Graph, x: int) -> tuple[int, Fraction]:
    """gamma_e of the tree g and ``tau(g, x).value``, from one blocked tree
    DP rooted at x (``_vertex_states``), weight 1 scaled to 2**(n+1).

    gamma_e is the least k at the root with need 0.  Influence injected at x
    and halved per edge of G - D is exactly what the root receives from
    outside, so tau(x) is the least need over the root's states with x
    outside D and k below gamma_e; a deficit behind a dominator has no
    finite repair, and the dominator's filter on need drops it.  Both come
    with a checked witness (``_certified_gamma_e``, ``_certified_tau``).
    Raises NotTreeError unless g is a tree."""
    order, children = rooted_tree(g, x)
    one = 1 << (g.n + 1)
    _, (free, held) = _down_frontiers(order, children, one)
    gamma_e = _certified_gamma_e(g, free + [held])
    least = min((need, k, mask) for k, need, _, mask in free if k < gamma_e)
    return gamma_e, _certified_tau(g, x, least, one)


class _TreeGuards(TreeDomination):
    """Every value a guard reads, at every vertex of the subcubic tree g:
    gamma, forced and restricted domination from ``TreeDomination``, and
    gamma_e and tau from the blocked DP, rooted at vertex 0 and rerooted
    where a tau is read.  ``generate_family`` builds one per tree.

    The blocked down pass runs at the first tau read: the trees that only a
    leaf still fits on read none.  The frontier ``ups[u]`` of the tree
    beyond u's parent p is p's states over p's other branches (at degree at
    most 3, one or two), filled in from the root down along the path to the
    vertex read.  x's own states over all its branches then give tau(x), as
    ``_blocked_dp`` rooted at x would.  Each tau is kept, since operations 2
    and 3 both read it."""

    def __init__(self, g: Graph):
        super().__init__(g)
        self.one = 1 << (g.n + 1)
        self.ups: list = [None] * g.n
        self.taus: dict[int, Fraction] = {}

    @cached_property
    def _blocked(self) -> tuple[list, int]:
        """The blocked down pass from vertex 0: each subtree's frontier, and
        gamma_e, certified."""
        fronts, (free, held) = _down_frontiers(self.order, self.children, self.one)
        return fronts, _certified_gamma_e(self.g, free + [held])

    def _around(self, v: int, away: int = -1) -> list:
        """The frontiers of v's branches, but for the one at ``away``: its
        children's and, unless v is the root, ``ups[v]``, which recurses
        towards the root (no deeper than a generated tree's order)."""
        fronts = self._blocked[0]
        found = [fronts[u] for u in self.children[v] if u != away]
        p = self.parent[v]
        if p >= 0:
            if self.ups[v] is None:
                free, held = _vertex_states(p, self._around(p, v), self.one)
                self.ups[v] = _frontier(free + [held])
            found.append(self.ups[v])
        return found

    def tau(self, x: int) -> Fraction:
        if x not in self.taus:
            least = _least_need(self._around(x), self.one, self._blocked[1])
            self.taus[x] = _certified_tau(self.g, x, least, self.one)
        return self.taus[x]


def _domination(g: Graph, x: int, key: bytes) -> tuple[int, int, int]:
    """gamma, forced(x) and restricted(V - {x}) from one classical tree DP
    rooted at x (``solvers.tree_domination``), memoized together under the
    rooted code ``key``."""
    if key not in _FORCED:
        gamma, forced, restricted = tree_domination(g, x)
        _GAMMA[key] = gamma.value
        _RESTRICTED[key] = restricted.value
        _FORCED[key] = forced.value
    return _GAMMA[key], _FORCED[key], _RESTRICTED[key]


class _RootedAt(NamedTuple):
    """The values a guard reads at x, from the two DPs rooted at x and
    memoized under x's rooted code ``key``: the public guards' source."""

    g: Graph
    x: int
    key: bytes

    @property
    def gamma(self) -> int:
        return _domination(self.g, self.x, self.key)[0]

    def forced(self, x: int) -> int:
        return _domination(self.g, x, self.key)[1]

    def restricted(self, x: int) -> int:
        return _domination(self.g, x, self.key)[2]

    def tau(self, x: int) -> Fraction:
        return _memo(_TAU, self.key, lambda: _blocked_dp(self.g, x)[1])


# The three guards, read off ``_RootedAt`` or ``_TreeGuards`` at a vertex of
# degree below 3.


def _fits_leaf(values, x: int) -> bool:
    return values.forced(x) == values.gamma


def _fits_pair(values, x: int) -> bool:
    return values.tau(x) > 1 or values.restricted(x) < values.gamma


def _fits_triple(values, w: int) -> bool:
    return values.tau(w) > Fraction(1, 2)


_FITS = {1: _fits_leaf, 2: _fits_pair, 3: _fits_triple}


def _guard(op: int, g: Graph, x: int) -> bool:
    """``_FITS[op]`` at x, once g is known to be a subcubic tree and x one
    of its vertices.  Computing the key is the tree and the range check."""
    key = _subcubic(g, rooted_code(g, x))
    return g.degree(x) < 3 and _FITS[op](_RootedAt(g, x, key), x)


def op1_applicable(g: Graph, x: int) -> bool:
    """Leaf attachment at x: x must lie in some minimum dominating set."""
    return _guard(1, g, x)


def op2_applicable(g: Graph, x: int) -> bool:
    """Two-vertex path at x: tau(x) > 1, or excusing x from domination helps."""
    return _guard(2, g, x)


def op3_applicable(g: Graph, w: int) -> bool:
    """Three-vertex path at w: tau(w) > 1/2."""
    return _guard(3, g, w)


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
    """Peel-back candidates in deterministic order: op 1, then 2, then 3,
    each by leaf, from one pass over the leaves and a stable sort by op."""
    found = []
    for z in [v for v in range(g.n) if g.degree(v) == 1]:
        y = g.adj[z][0]
        found.append((1, (z,), y))
        if g.degree(y) != 2:
            continue
        x = next(v for v in g.adj[y] if v != z)
        found.append((2, (y, z), x))
        if g.degree(x) == 2:
            found.append((3, (x, y, z), next(v for v in g.adj[x] if v != y)))
    return sorted(found, key=lambda c: c[0])


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


# Generation time grows about fourfold every two orders from 16 on: 0.073 /
# 0.14 / 0.43 / 1.6 / 6.5 s at 12 / 14 / 16 / 18 / 20 vertices (cold
# commands, medians of three, on a shared 2-core host whose speed varies by
# up to 2x); order 20 has 13,732 members and peaks at 37 MB.
MAX_ORDER = 20


def generate_family(n_max: int) -> Iterator[Graph]:
    """All family members with at most n_max vertices, one per isomorphism
    class, sorted by order then canonical code.

    Each tree an operation still fits on is walked once, by ``TreeCodes``,
    whose rooted codes are the orbit keys, and its guard values are read
    from one ``_TreeGuards``.  A grown tree's code is read off its parent's
    codes (``TreeCodes.grown``): only new members are built."""
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
        if g.n + 1 > n_max:  # no operation fits
            continue
        values = _TreeGuards(g)
        codes = TreeCodes(g)
        tried: set[bytes] = set()
        for x, orbit in enumerate(codes.codes):
            if g.degree(x) >= 3 or orbit in tried:
                continue
            tried.add(orbit)
            for op in (1, 2, 3):
                if g.n + op > n_max:
                    break
                if not _FITS[op](values, x):
                    continue
                code = codes.grown(x, op)
                if code not in members:
                    members[code] = tree_from_code(code)
                    queue.append(members[code])
    for _, t in sorted(members.items(), key=lambda item: (item[1].n, item[0])):
        yield t
