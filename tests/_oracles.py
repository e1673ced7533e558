"""Brute-force oracles shared by the test modules.

The subset oracles avoid the search's own machinery (packed weight
vectors, pruning, the size-by-size stream): they scan every subset in
lexicographic order and test it with the package's predicates,
``weights.is_*_dominating``.  Those predicates read the same integer
influence kernel as the search, ``weights.influence``, so the oracles judge
the search but not the kernel.  The kernel has its own judge:
``influence_oracle`` sums each weight as a ``Fraction`` from the
definition, and ``test_weights`` compares the two.  Past brute-force
orders, ``milp_gamma_e_star`` judges gamma_e_star with an integer program
solved in floating point and re-checked exactly.  ``tau_brute`` is
``family.tau`` without its porous-bound skip: it evaluates every candidate
set, so it judges the skip.  The module also holds
random graph generators with fixed seeds, a Hypothesis strategy for
arbitrary graphs, three LP helpers only the tests use (the dual solved on
its own, a square linear system solved in ``Fraction``, and a CPLEX LP
export for external solvers), and the small tree
and fixture helpers that only the tests call: ``tree_centers``,
``tree_from_pruefer``, ``relabel`` and three fixture witnesses.  The tree
walk ``automorphism_count`` (and ``labeled_copies``, n!/|Aut|) judges the
enumerator's count read off each code.
"""

from __future__ import annotations

import math
import random
from collections import Counter, deque
from fractions import Fraction
from itertools import combinations

from hypothesis import strategies as st

from expodom.canon import _centers, _walk
from expodom.enumeration import _pruefer_adjacency, enumerate_subcubic_trees
from expodom.family import TauResult, _tau_of_set
from expodom.fixtures import fixture_f1
from expodom.graph import Graph, NotTreeError, is_tree
from expodom.lp import LpModel
from expodom.simplex import SimplexSolution, solve_max_leq
from expodom.solvers import exponential_domination_number
from expodom.weights import (
    is_dominating,
    is_exponential_dominating,
    is_porous_exponential_dominating,
    porous_rows,
)


def brute_minimum(g: Graph, predicate):
    """Smallest satisfying set, scanning sizes and subsets in lex order."""
    for k in range(g.n + 1):
        for cand in combinations(range(g.n), k):
            if predicate(g, cand):
                return k, cand
    raise AssertionError("no satisfying set at all")


def brute_all_minimum(g: Graph, predicate):
    value, _ = brute_minimum(g, predicate)
    return value, [
        cand for cand in combinations(range(g.n), value) if predicate(g, cand)
    ]


def brute_gamma(g: Graph) -> int:
    return brute_minimum(g, is_dominating)[0]


def brute_gamma_e(g: Graph) -> int:
    return brute_minimum(g, is_exponential_dominating)[0]


def brute_gamma_e_star(g: Graph) -> int:
    return brute_minimum(g, is_porous_exponential_dominating)[0]


def milp_gamma_e_star(g: Graph) -> int:
    """gamma_e_star as a 0/1 program solved by HiGHS through
    ``scipy.optimize.milp``: the fewest x with ``porous_rows(g) x >= 2**n``.
    The 0/1 vector it returns is re-checked as a porous set with the exact
    kernel, so only its optimality rests on floating point.  Needs scipy;
    callers skip with ``pytest.importorskip`` first."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = g.n
    rows = porous_rows(g)
    got = milp(
        c=[1] * n,
        constraints=LinearConstraint(rows, lb=[1 << n] * n),
        integrality=[1] * n,
        bounds=Bounds(0, 1),
    )
    assert got.success, got.message
    chosen = tuple(v for v in range(n) if round(got.x[v]))
    assert is_porous_exponential_dominating(g, chosen)
    return len(chosen)


def tau_brute(g: Graph, x: int) -> TauResult:
    """``family.tau`` without its porous-bound skip: ``_tau_of_set`` on every
    candidate set, sizes and subsets in lexicographic order, the first set
    to reach the minimum kept as the witness."""
    if not 0 <= x < g.n:
        raise ValueError(f"vertex {x} out of range")
    limit = exponential_domination_number(g).value
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


def random_subcubic_graph(rng: random.Random, n_max: int = 10) -> Graph:
    """A random subcubic graph: a random enumerated tree of order at most
    ``n_max`` with edges added and dropped by ``_add_and_drop_edges``."""
    n = rng.randint(1, n_max)
    pool = list(enumerate_subcubic_trees(n))
    return _add_and_drop_edges(rng, rng.choice(pool))


def random_subcubic_tree(rng: random.Random, n: int) -> Graph:
    """A random subcubic tree on exactly n vertices, for orders too large to
    enumerate: each new vertex attaches to an earlier one of degree below 3,
    then the tree is randomly relabeled."""
    deg = [0] * n
    edges = []
    for v in range(1, n):
        u = rng.choice([w for w in range(v) if deg[w] < 3])
        edges.append((u, v))
        deg[u] += 1
        deg[v] += 1
    return random_relabel(rng, Graph(n, edges))


def random_subcubic_graph_of_order(rng: random.Random, n: int) -> Graph:
    """A random subcubic graph on exactly n vertices: ``random_subcubic_tree``
    with edges added and dropped as in ``random_subcubic_graph``."""
    return _add_and_drop_edges(rng, random_subcubic_tree(rng, n))


def _add_and_drop_edges(rng: random.Random, t: Graph) -> Graph:
    """``t`` plus up to two extra degree-respecting edges (possibly cyclic),
    then with probability 0.3 one edge fewer (possibly disconnected)."""
    edges = _extra_edges(rng, t, rng.randint(0, 2))
    if rng.random() < 0.3 and t.n >= 2:
        # drop one edge to exercise disconnected graphs
        edges.pop(rng.randrange(len(edges)))
    return Graph(t.n, edges)


def with_extra_edges(rng: random.Random, t: Graph, tries: int) -> Graph:
    """``t`` plus up to ``tries`` random degree-respecting edges."""
    return Graph(t.n, _extra_edges(rng, t, tries))


def _extra_edges(rng: random.Random, t: Graph, tries: int) -> list:
    """The edges of ``t``, then one per try that draws a vertex pair which
    is no loop, no edge yet and meets no vertex of degree 3."""
    n = t.n
    edges = t.edges()
    present = set(edges)
    deg = [t.degree(v) for v in range(n)]
    for _ in range(tries):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        e = (min(u, v), max(u, v))
        if e in present or deg[u] >= 3 or deg[v] >= 3:
            continue
        present.add(e)
        edges.append(e)
        deg[u] += 1
        deg[v] += 1
    return edges


def relabel(g: Graph, order: list[int]) -> Graph:
    """Graph with vertex order[i] renamed to i."""
    pos = [0] * g.n
    for new, old in enumerate(order):
        pos[old] = new
    return Graph(g.n, [(pos[u], pos[v]) for u, v in g.edges()])


def tree_centers(g: Graph) -> list[int]:
    """The one or two middle vertices obtained by repeatedly peeling leaves."""
    if not is_tree(g):
        raise NotTreeError("centers are defined for trees only")
    return _centers(g.adj)


def automorphism_count(g: Graph) -> int:
    """Order of the automorphism group of a tree: the product, over every
    vertex, of the factorials of the multiplicities of its children's codes,
    doubled when the two halves of a two-center tree are alike."""
    centers = _centers(g.adj)
    parent, code = _walk(g.adj, centers)
    count = 1
    for u in range(g.n):
        p = parent[u]
        for k in Counter([code[v] for v in g.adj[u] if v != p]).values():
            count *= math.factorial(k)
    if len(centers) == 2 and code[centers[0]] == code[centers[1]]:
        count *= 2
    return count


def labeled_copies(g: Graph) -> int:
    """Number of distinct labeled trees isomorphic to ``g`` (n!/|Aut|)."""
    return math.factorial(g.n) // automorphism_count(g)


def tree_from_pruefer(seq: tuple[int, ...], n: int) -> Graph:
    """Decode a Prufer sequence over labels 0..n-1 (length n-2) to a tree,
    through the decoder that ``enumeration.pruefer_class_count`` uses."""
    adj = _pruefer_adjacency(seq, n)
    return Graph(n, [(u, v) for u in range(n) for v in adj[u] if u < v])


def fixture_f1_leg_midpoints(k: int) -> tuple[int, ...]:
    """The middle vertex of every pendant leg of fixture_f1(k)."""
    g = fixture_f1(k)
    return tuple(v for v in range(k, g.n) if g.degree(v) == 2)


def fixture_f2_porous_witness() -> tuple[int, ...]:
    """Apex plus the three gadget roots of fixture_f2."""
    return (0, 1, 8, 15)


def fixture_f2_blocked_witness() -> tuple[int, ...]:
    """The six middle-layer vertices of fixture_f2."""
    return (2, 3, 9, 10, 16, 17)


def random_relabel(rng: random.Random, g: Graph) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@st.composite
def graphs(draw, max_n: int) -> Graph:
    """Hypothesis strategy: any simple graph of order 0..max_n, its edge set
    drawn as one bit mask over the vertex pairs."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


@st.composite
def trees(draw, max_n: int) -> Graph:
    """Hypothesis strategy: any tree of order 1..max_n, of any degree, each
    vertex after the first hung on a drawn earlier one, then relabeled by a
    drawn permutation."""
    n = draw(st.integers(1, max_n))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    perm = draw(st.permutations(range(n)))
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


@st.composite
def subcubic_trees(draw, max_n: int) -> Graph:
    """Hypothesis strategy: a subcubic tree of order 1..max_n, each vertex
    after the first hung on a drawn earlier one of degree below 3, then
    relabeled by a drawn permutation."""
    n = draw(st.integers(1, max_n))
    deg = [0] * n
    edges = []
    for v in range(1, n):
        u = draw(st.sampled_from([w for w in range(v) if deg[w] < 3]))
        edges.append((u, v))
        deg[u] += 1
        deg[v] += 1
    perm = draw(st.permutations(range(n)))
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def influence_oracle(g: Graph, dominators, blocked: bool) -> list[Fraction]:
    """Each vertex's weight by definition: the sum over dominators v of
    (1/2)**(d-1), d the BFS distance from v, through no other dominator
    when ``blocked``; unreachable vertices get nothing."""
    dset = set(dominators)
    total = [Fraction(0)] * g.n
    for v in dset:
        avoid = dset - {v} if blocked else set()
        dist = {v: 0}
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in g.adj[u]:
                if w not in dist and w not in avoid:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        for u, d in dist.items():
            total[u] += Fraction(2) ** (1 - d)
    return total


def solve_dual_direct(model: LpModel) -> SimplexSolution:
    """Solve the dual (max rhs.y, A^T y <= objective) on its own.

    Gives an independent check on the duals that ``solve_exact`` extracts
    from the primal basis.
    """
    n = model.size
    transposed = tuple(
        tuple(model.matrix[i][j] for i in range(len(model.matrix)))
        for j in range(n)
    )
    return solve_max_leq(transposed, model.objective, model.rhs)


def solve_square(rows, rhs) -> list[Fraction] | None:
    """x with rows . x == rhs in every row, by Gauss-Jordan elimination in
    ``Fraction``; None when rows is singular.

    Judges the tight route's fraction-free elimination, ``lp._tight_solution``.
    """
    n = len(rows)
    m = [[Fraction(v) for v in row] + [Fraction(rhs)] for row in rows]
    for k in range(n):
        r = next((i for i in range(k, n) if m[i][k]), None)
        if r is None:
            return None
        m[k], m[r] = m[r], m[k]
        m[k] = [v / m[k][k] for v in m[k]]
        for i in range(n):
            if i != k and m[i][k]:
                m[i] = [a - m[i][k] * b for a, b in zip(m[i], m[k])]
    return [row[-1] for row in m]


def export_cplex_lp(model: LpModel, name: str = "porous") -> str:
    """Render the model in CPLEX LP text format for external cross-checks.

    All coefficients of the porous LP are dyadic, so exact terminating
    decimals exist; non-dyadic models are rejected rather than rounded.
    """

    def dec(q: Fraction) -> str:
        den = q.denominator
        if den & (den - 1):
            raise ValueError(f"coefficient {q} has no exact decimal form")
        shift = den.bit_length() - 1
        scaled = q.numerator * 5**shift
        text = str(abs(scaled)).rjust(shift + 1, "0")
        sign = "-" if scaled < 0 else ""
        if shift == 0:
            return f"{sign}{text}"
        return f"{sign}{text[:-shift] or '0'}.{text[-shift:]}"

    n = model.size
    lines = [f"\\ {name}: porous exponential domination relaxation", "Minimize"]
    lines.append(
        " obj: " + " + ".join(f"{dec(c)} x{j}" for j, c in enumerate(model.objective))
    )
    lines.append("Subject To")
    for i, row in enumerate(model.matrix):
        terms = " + ".join(
            f"{dec(c)} x{j}" for j, c in enumerate(row) if c != 0
        )
        lines.append(f" c{i}: {terms} >= {dec(model.rhs[i])}")
    lines.append("Bounds")
    lines.extend(f" 0 <= x{j}" for j in range(n))
    lines.append("End")
    return "\n".join(lines) + "\n"
