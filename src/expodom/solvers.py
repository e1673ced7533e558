"""Exact optimum computation for the domination-type parameters.

All searches are exhaustive with pruning, never heuristic:

* classical and restricted domination run a lexicographic depth-first
  cover search over closed-neighborhood bitmasks.  A target can be covered
  only by a pick at or before the last candidate in its closed
  neighborhood, and picks go in increasing order, so the next pick lies at
  or before the least such position over the targets still missing; with
  the mask bits numbered in that order, the bound is read off the lowest
  missing bit.  It cuts only subtrees that hold no cover.  Domination with
  a forced vertex x is restricted domination of V - N[x] plus x;
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

The subset search packs each weight vector into one int with
``weights.packed_fields``: one field per vertex, wide enough that no sum of
up to n rows carries into the next field.  A node is pruned when some
vertex cannot reach weight 1 even if every remaining pick gave it the most
any later vertex can (``w + slots * suffix_max`` below 2**n in some
field); since the suffix maxima are non-negative this is the same
per-vertex inequality as testing the vertex's own weight first, so the
search yields the same sets in the same order.  "Every field is at least
2**n" is one mask test against the fields' top bits, after a bias of
2**(width-1) - 2**n per field.  Two tables per slot count s, built as each
level opens, fold the bias in: ``reach[s][v]`` (child v's row plus s - 1
suffix maxima after it), so a child costs one add, one and and one
compare, and ``most[s][v]`` (s suffix maxima after v).  Every later
child's ``reach`` is at most ``most[s][v]`` field by field, so when child
v fails and ``w + most[s][v]`` fails too, the loop ends there: the exit
skips only children that would fail their own prune.  Each level is one
generator that walks an explicit stack, one entry per pick made: its
position and the weight before it.

Witnesses are therefore always the lexicographically smallest optimum set,
and every witness is re-checked against its own predicate, in the kernel's
integers, before it is returned.
Disconnected inputs are solved per component and recombined.

On trees, ``tree_domination`` gives gamma, domination with a forced vertex x
and restricted domination of V - {x} without a search: the classical linear
DP of Cockayne, Goodman and Hedetniemi (1975), rooted at x, whose three
states per vertex (in the set; outside it and dominated by a child; outside
it and not yet dominated) yield all three values from one run.  Its
witnesses are read back from the DP's choices, so they need not be the
lexicographically smallest; each is re-checked, with its size, like a
search's, as one OR of closed-neighbourhood bitmasks against the targets'
mask.  ``TreeDomination`` reroots the same DP: from one down pass and
one up pass it gives every vertex's forced and restricted values, each
witness read back and re-checked when its value is read.  The family guards
read both; ``compute`` and the suites keep the searches, which judge them
in the tests.
"""

from __future__ import annotations

from itertools import chain, product
from typing import NamedTuple

from .graph import (
    CertificateError,
    Graph,
    INF,
    connected_components,
    induced_subgraph,
    rooted_tree,
)
from .weights import (
    is_dominating,
    is_exponential_dominating,
    is_porous_exponential_dominating,
    is_restricted_dominating,
    packed_fields,
    porous_rows,
)


class DomCertificate(NamedTuple):
    """Optimum value plus a witness set.

    Minimality is certified by the search itself (every smaller level was
    exhausted), or on a tree by the exact DP; the witness is re-checked
    against the defining predicate before the certificate is handed out.
    """

    parameter: str
    value: int
    witness: tuple[int, ...]


def _certify(ok: bool, what: str) -> None:
    """Witness re-check that stays in force under ``python -O``."""
    if not ok:
        raise CertificateError(what)


# -- classical domination: bitmask cover search ------------------------------


# ``_min_cover`` keeps one mask per candidate and one set of missing targets
# per pick on its stack, Python ints of up to n bits each: at most 2 * n**2
# bits in all, 64 MB at this order.  ``compute`` refuses larger graphs.
COVER_ORDER_LIMIT = 16384


def _min_cover(g: Graph, targets) -> tuple[int, tuple[int, ...]]:
    """Smallest D with targets inside D or N(D), lexicographically first.

    A vertex whose closed neighborhood holds no target is in no minimum
    cover, so it is never tried.  Target u can only be covered by a pick at
    a candidate position up to ``hi[u]``, the last candidate in N[u]; the
    picks go in increasing position, so the next pick lies at or before the
    least ``hi`` over the uncovered targets.  The mask bits number the
    targets in ``hi`` order, so that bound is ``hi`` of the lowest bit
    still missing."""
    adj = g.adj
    tset = sorted(set(targets))
    is_candidate = [False] * g.n
    for u in tset:
        for w in (u, *adj[u]):
            is_candidate[w] = True
    candidates = [v for v in range(g.n) if is_candidate[v]]
    last_of = [0] * g.n
    for i, v in enumerate(candidates):
        for u in (v, *adj[v]):
            last_of[u] = i
    tset.sort(key=last_of.__getitem__)
    hi = [last_of[u] for u in tset]
    bit = [-1] * g.n
    for b, u in enumerate(tset):
        bit[u] = b
    masks = []
    for v in candidates:
        mask = 0
        for u in (v, *adj[v]):
            if bit[u] >= 0:
                mask |= 1 << bit[u]
        masks.append(mask)
    m = len(candidates)
    required = (1 << len(tset)) - 1
    best_gain = max((mask.bit_count() for mask in masks), default=1)

    def dfs(slots: int):
        """First cover with at most ``slots`` picks, in lexicographic order
        of candidate positions; depth-first with an explicit stack."""
        # per pick: (its position, the targets missing before it, the last
        # position its depth may take)
        picked: list[tuple[int, int, int]] = []
        pos = 0  # first position the next pick may take
        missing = required
        while True:
            if missing == 0:
                return tuple(candidates[i] for i, _, _ in picked)
            left = slots - len(picked)
            if not left or missing.bit_count() > left * best_gain:
                last = -1  # pruned: no pick is tried at this depth
            else:
                last = min(m - left, hi[(missing & -missing).bit_length() - 1])
            while pos > last:  # this depth is exhausted: back up one pick
                if not picked:
                    return None
                pos, missing, last = picked.pop()
                pos += 1
            picked.append((pos, missing, last))
            missing &= ~masks[pos]
            pos += 1

    for size in range(-(-required.bit_count() // best_gain), m + 1):
        got = dfs(size)
        if got is not None:
            return len(got), got
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
    # D holds x and dominates g exactly when D - {x} covers V - N[x], and x
    # covers none of V - N[x]
    closed_x = {x, *g.adj[x]}
    value, cover = _min_cover(g, (v for v in range(g.n) if v not in closed_x))
    _certify(
        is_dominating(g, (x, *cover)),
        "forced-vertex witness is not a dominating superset",
    )
    return value + 1


# -- classical domination on trees: the linear DP ----------------------------


def _dom_costs(branches, skip: int = -1) -> tuple[int, int, int]:
    """A vertex's costs (a, b, c) from the costs of its branches, leaving out
    branch number ``skip``: a = 1 + sum min(a_i, b_i, c_i), b = sum
    min(a_i, b_i) + min_i(a_i - min(a_i, b_i)) (no such state without a
    branch), c = sum b_i."""
    a, ab, c, extra = 1, 0, 0, INF
    for i, (ai, bi, ci) in enumerate(branches):
        if i != skip:
            m = ai if ai < bi else bi
            a += m if m < ci else ci
            ab += m
            c += bi
            if ai - m < extra:
                extra = ai - m
    return a, ab + extra, c


def _closed_masks(g: Graph) -> list[int]:
    """Each vertex's closed neighbourhood as a bitmask, bit u for vertex u."""
    closed = [1 << v for v in range(g.n)]
    for v, adj in enumerate(g.adj):
        for u in adj:
            closed[v] |= 1 << u
    return closed


def _dom_readback(x: int, state: int, kids, costs) -> list[int]:
    """The vertices behind x's cost in ``state`` (0, 1, 2 for a, b, c), each
    branch taking the state its parent's recurrence chose.  ``kids`` and
    ``costs`` are the tree hung from x: each vertex's children, and the
    costs of each vertex's subtree."""
    chosen = []
    states = [0] * len(kids)
    states[x] = state
    stack = [x]
    while stack:
        v = stack.pop()
        below = kids[v]
        stack += below
        s = states[v]
        if s == 0:
            chosen.append(v)
            for u in below:
                a, b, c = costs[u]
                states[u] = 0 if a <= b and a <= c else 1 if b <= c else 2
        elif s == 1:
            # the first child to join D at the least extra cost, a - min(a, b)
            lift, extra = -1, INF
            for u in below:
                a, b, _ = costs[u]
                if a <= b:  # no extra cost: none comes lower
                    lift = u
                    break
                if a - b < extra:
                    lift, extra = u, a - b
            for u in below:
                a, b, _ = costs[u]
                states[u] = 0 if u == lift or a <= b else 1
        else:
            for u in below:
                states[u] = 1
    return chosen


def _dom_witness(closed, x: int, state: int, value: int, kids, costs) -> tuple:
    """Read back the set behind x's cost ``value`` in ``state``
    (``_dom_readback``) and re-check it, with its size, against what the
    state promises: a dominating set holding x, a dominating set without x,
    a set without x dominating all of V - {x}.  ``closed`` holds each
    vertex's closed neighbourhood as a bitmask (``_closed_masks``): the set
    dominates a target exactly when the OR of its members' masks covers the
    target's bit.  Returns the set, sorted."""
    chosen = _dom_readback(x, state, kids, costs)
    members = cover = 0
    for v in chosen:
        members |= 1 << v
        cover |= closed[v]
    targets = (1 << len(closed)) - 1
    if state == 2:
        targets ^= 1 << x
    _certify(
        len(chosen) == value
        and (members >> x & 1) == (state == 0)
        and cover & targets == targets,
        f"tree witness of root state {'abc'[state]} breaks its promise",
    )
    return tuple(sorted(chosen))


def tree_domination(
    g: Graph, x: int
) -> tuple[DomCertificate, DomCertificate, DomCertificate]:
    """gamma, domination with x forced into the set, and restricted
    domination of V - {x}, for the tree g, from one run of the classical
    tree DP rooted at x (Cockayne, Goodman and Hedetniemi 1975).

    Each vertex v gets three costs, the subtree below v dominated in all
    three: ``a`` with v in D, ``b`` with v outside D and dominated by a
    child, ``c`` with v outside D and not yet dominated.  Over v's children
    i: a = 1 + sum min(a_i, b_i, c_i), b = sum min(a_i, b_i) + min_i(a_i -
    min(a_i, b_i)) (no such state at a leaf), c = sum b_i.  The recurrence
    is written out here, not read from ``_dom_costs``, so that this DP
    judges ``TreeDomination`` in the tests.  At the root, gamma = min(a,
    b), forced = a and restricted = min(a, b, c).  The witness of each root
    state used is read back from the same choices and re-checked
    (``_dom_witness``); a dominating set is also a restricted one.  Raises
    NotTreeError unless g is a tree."""
    order, children = rooted_tree(g, x)
    costs = [None] * g.n
    for v in reversed(order):
        a, ab, c, extra = 1, 0, 0, INF
        for u in children[v]:
            au, bu, cu = costs[u]
            m = au if au < bu else bu
            a += m if m < cu else cu
            ab += m
            c += bu
            if au - m < extra:
                extra = au - m
        costs[v] = a, ab + extra, c

    root = costs[x]
    picks = (
        ("gamma", 0 if root[0] <= root[1] else 1),
        ("gamma_forced", 0),
        ("gamma_restricted", root.index(min(root))),
    )
    closed = _closed_masks(g)
    sets = {}
    for _, state in picks:
        if state not in sets:
            sets[state] = _dom_witness(
                closed, x, state, root[state], children, costs
            )
    return tuple(DomCertificate(p, root[s], sets[s]) for p, s in picks)


class TreeDomination:
    """gamma of the tree g, and at every vertex x its domination with x
    forced and its restricted domination of V - {x}: ``tree_domination``'s
    DP rooted once, at vertex 0, and rerooted by a second pass.

    The down pass gives each vertex v the costs ``down[v]`` of its subtree.
    The up pass, top-down, gives each child u of v the costs ``up[u]`` of v
    in the tree without u's branch: v's other branches, recombined
    (``_dom_costs`` with a skip; at degree at most 3, one or two of them).
    A vertex's children and its own ``up`` are all its branches, so
    ``full[x]`` holds the costs the DP rooted at x would end with.  gamma
    and its witness are read at vertex 0 once; a forced or restricted value
    is read in O(1), and its witness is read back and checked when it is
    asked for.  Raises NotTreeError unless g is a tree."""

    def __init__(self, g: Graph):
        order, children = rooted_tree(g, 0)
        parent = [-1] * g.n
        down = [None] * g.n
        for v in reversed(order):
            for u in children[v]:
                parent[u] = v
            down[v] = _dom_costs([down[u] for u in children[v]])
        up = [None] * g.n
        full = [None] * g.n
        for v in order:
            branches = [down[u] for u in children[v]]
            if parent[v] >= 0:
                branches.append(up[v])
            full[v] = _dom_costs(branches)
            for i, u in enumerate(children[v]):
                up[u] = _dom_costs(branches, i)
        self.g, self.order, self.children, self.parent = g, order, children, parent
        self._down, self._up, self._full = down, up, full
        a, b, _ = full[0]
        self.gamma = min(a, b)
        self._closed = _closed_masks(g)
        _dom_witness(self._closed, 0, 0 if a <= b else 1, self.gamma, children, down)

    def _witness(self, x: int, state: int) -> int:
        """x's cost in ``state``, once its witness is read back and checked
        in the tree hung from x: ``children`` and ``down`` with the path
        from x to the root turned over, each vertex on it taking its parent
        as a child and the ``up`` costs of the child it leaves."""
        kids, costs = list(self.children), list(self._down)
        below, v = -1, x
        while v >= 0:
            p = self.parent[v]
            kids[v] = [u for u in self.children[v] if u != below]
            if p >= 0:
                kids[v].append(p)
            if below >= 0:
                costs[v] = self._up[below]
            below, v = v, p
        value = self._full[x][state]
        _dom_witness(self._closed, x, state, value, kids, costs)
        return value

    def forced(self, x: int) -> int:
        """The least dominating set holding x."""
        return self._witness(x, 0)

    def restricted(self, x: int) -> int:
        """The least set dominating V - {x}."""
        costs = self._full[x]
        return self._witness(x, costs.index(min(costs)))


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
    # Each weight vector is one int, laid out by ``packed_fields``; the sums
    # below add at most n rows, so none carries across a field.
    pack, top = packed_fields(n)
    rows = porous_rows(g)
    prow = [pack(row) for row in rows]
    suffix_max = [0] * n
    psuf = [0] * (n + 1)
    for v in range(n - 1, -1, -1):
        suffix_max = [max(a, b) for a, b in zip(suffix_max, rows[v])]
        psuf[v] = pack(suffix_max)
    # Field-wise "weight >= 2**n" as one mask test: a biased field has its
    # ``top`` bit set exactly when its weight is at least 2**n.
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

    def level(k: int):
        """The feasible k-sets in lexicographic order: a depth-first walk
        over a stack that holds, per pick, its position and the weight
        before it."""
        full, add = top, prow  # locals: the loop reads them per child
        tables = [(reach[k - d], most[k - d], n - k + d + 1) for d in range(k)]
        last = k - 1
        picks, weights = [0] * k, [0] * k
        depth = v = w = 0
        fits, bound, end = tables[0]
        while True:
            for v in range(v, end):
                if (w + fits[v]) & full == full:
                    break
                if (w + bound[v]) & full != full:
                    v = end  # no later child can pass
                    break
            else:
                v = end
            if v < end:  # child v passed its prune
                picks[depth] = v
                if depth == last:
                    yield tuple(picks)
                    v += 1
                    continue
                weights[depth] = w
                w += add[v]
                depth += 1
            elif depth:  # this depth is exhausted: back up one pick
                depth -= 1
                v, w = picks[depth], weights[depth]
            else:
                return
            v += 1
            fits, bound, end = tables[depth]

    for k in range(1, n + 1):
        reach.append([prow[v] + (k - 1) * psuf[v + 1] + bias for v in range(n)])
        most.append([k * psuf[v + 1] + bias for v in range(n)])
        if (k * psuf[0] + bias) & top == top:
            yield k, level(k)


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
    """Re-check the first of ``sets`` against its own parameter's predicate."""
    witness = sets[0]
    if parameter == "gamma_e":
        ok = is_exponential_dominating(g, witness)
    else:
        ok = is_porous_exponential_dominating(g, witness)
    _certify(ok, f"{parameter} witness is not dominating")
    return DomCertificate(parameter, value, witness)


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
