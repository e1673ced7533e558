"""The porous exponential domination LP and its exact solution.

The integer program for the porous parameter minimizes sum(x) subject to,
for every vertex v, sum over u of (1/2)**(dist(u,v)-1) * x(u) >= 1 with
x binary.  Dropping integrality gives the fractional porous exponential
domination number; this module builds that LP, solves it exactly, and also
evaluates the closed-form certificates and lower bounds attached to it.

The LP has one source, ``_integer_rows``: the influence kernel's rows and
the right-hand side 2**n, divided by their common power of two.
``build_porous_lp`` is their ``Fraction`` view, the same LP with every
entry over the right-hand side.

The value route, ``fractional_porous_number``, takes one of two routes,
and both end in the same integer certificate core,
``simplex.check_integer_min_geq``.  The tight route guesses that every
covering row is tight at the optimum: it solves the square system rows . x
== rhs by one fraction-free elimination over the upper triangle, and if
that x is nonnegative it is optimal.  The matrix is symmetric, so rows^T (x
/ rhs) == rows . x / rhs == 1: y = x / rhs is dual feasible with every
column tight, and b.y == rhs * sum(x / rhs) == sum(x).  The route holds x
as integers v over one denominator d until it returns sum(v) / d.  On a
zero pivot (a singular system among them; no rows are swapped) or a
negative entry the route falls back to the exact simplex, ``solve_exact``
on the same integer rows.  Neither route reads degrees or the tree formula
(n + 2) / 6.

The tree route solves the LP of a tree in O(n) big-int operations and
builds no matrix.  Its core, ``rooted_porous_number``, takes the tree hung
from a root as ``(order, children)``: ``_tree_solution`` is Gaussian
elimination in leaf-first order, and two passes over the rooted tree,
``_tree_down`` and ``_tree_up``, give the rows times x in integers for
``_check_tree_certificate``.  A tight x with a negative entry (a vertex of
degree 4 or more) goes to ``fractional_porous_number``.  The core has two
routes in and one certificate: ``tree_porous_number(g)`` hangs a ``Graph``
from vertex 0 by ``rooted_tree``, and the code route reads the rooted view
of a canonical tree code, ``canon._code_tree``, with no ``Graph`` built.
The sweeps whose corpus holds only trees read the tree route: theorem2,
theorem3, theorem4, corollary2 and conjecture 2 by the code route, and
corollary1 (on the tree it builds to search) and theorem3 on
``fixture_f2`` by the wrapper.  The chain and theorem5
sweeps, which also take cycles, read ``fractional_porous_number``, and so
does ``compute`` on every graph, trees included: its size limit,
``LP_ORDER_LIMIT``, guards those about n**6 routes on purpose, and moving
its trees to the tree route would change what that limit means.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .graph import (
    CertificateError,
    Graph,
    NotTreeError,
    is_subcubic_tree,
    rooted_tree,
)
from .simplex import check_integer_min_geq, check_min_geq, solve_min_geq
from .weights import porous_rows


class LpModel(NamedTuple):
    """min sum(x) s.t. matrix . x >= rhs, x >= 0.

    ``build_porous_lp`` gives ``Fraction`` entries; ``solve_exact`` takes
    ints as well, and the value route passes the LP in ints.
    """

    matrix: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]
    objective: tuple[Fraction, ...]

    @property
    def size(self) -> int:
        return len(self.objective)


class LpSolution(NamedTuple):
    status: str
    primal: tuple[Fraction, ...] | None
    dual: tuple[Fraction, ...] | None
    objective: Fraction | None


def _integer_rows(g: Graph) -> tuple[tuple[tuple[int, ...], ...], int]:
    """``porous_rows(g)`` and 2**n, divided by their greatest common divisor
    (a power of two: 2**(n + 1 - diameter) on a connected graph with an
    edge).

    Every entry is 0 or a power of two, so that divisor is the smaller of
    2**n and the smallest nonzero entry, and dividing by it is a right
    shift.  These are the rows and right-hand side the simplex would build
    from ``build_porous_lp``'s fractions, the tableau over the lcm of their
    denominators, without building the fractions.
    """
    rows = porous_rows(g)
    low = min((min(filter(None, row)) for row in rows), default=1)
    s = min(g.n, low.bit_length() - 1)
    return tuple(tuple(w >> s for w in row) for row in rows), 1 << (g.n - s)


def build_porous_lp(g: Graph) -> LpModel:
    """One covering row per vertex; unreachable pairs contribute nothing.

    The ``Fraction`` view of ``_integer_rows``: each entry over the
    right-hand side, so every row covers 1.
    """
    rows, rhs = _integer_rows(g)
    matrix = tuple(tuple(Fraction(w, rhs) for w in row) for row in rows)
    ones = (Fraction(1),) * g.n
    return LpModel(matrix, ones, ones)


def solve_exact(model: LpModel) -> LpSolution:
    """Exact optimum with dual multipliers read off the final basis.

    Raises CertificateError if the pair fails its optimality certificate.
    """
    res = solve_min_geq(model.matrix, model.rhs, model.objective)
    if res.status != "optimal":
        return LpSolution(res.status, None, None, None)
    # primal and dual feasibility and strong duality, exactly
    check_min_geq(model.matrix, model.rhs, model.objective, res)
    return LpSolution("optimal", tuple(res.x), tuple(res.y), res.objective)


def _tight_solution(rows, rhs: int) -> tuple[list[int], int] | None:
    """``(v, d)`` with x = v / d making every row of min sum(x), rows . x >=
    rhs tight, or None.

    rows must be symmetric.  Forward Bareiss elimination keeps the upper
    triangle and the right-hand-side column only: every entry of a trailing
    block is a minor of the symmetric matrix, so the block stays symmetric,
    and at step k row i reads its factor m[i][k] as the pivot row's m[k][i]
    and rewrites row[i:].  Back substitution reads the upper triangle.  The
    last pivot is d == det(rows), and d * x is an integer vector (Cramer);
    v and d flip together to make d positive.  Returns None on a zero pivot
    (no row swaps: the simplex takes that LP) or a negative entry of x.
    Otherwise x is primal feasible with every row tight and, rows being
    symmetric, y = x / rhs is the dual with every column tight; the caller
    certifies both.
    """
    n = len(rows)
    m = [[*row, rhs] for row in rows]
    prev = 1
    for k in range(n):
        pivot = m[k]
        p = pivot[k]
        if not p:
            return None
        for i in range(k + 1, n):
            f = pivot[i]
            row = m[i]
            row[i:] = [(p * a - f * b) // prev for a, b in zip(row[i:], pivot[i:])]
        prev = p
    d = prev
    v = [0] * n
    for k in range(n - 1, -1, -1):
        row = m[k]
        s = d * row[n] - sum(w * c for w, c in zip(row[k + 1:n], v[k + 1:]))
        v[k] = s // row[k]
    if d < 0:
        d, v = -d, [-c for c in v]
    if any(c < 0 for c in v):
        return None
    return v, d


# The exact LP grows as about n**6 on paths by either route: the tight
# route, eliminating the upper triangle only, takes 1.2 s on path(80) and
# 4.7 s on path(100), the simplex (``solve_exact``) 3.2-3.5 and 13-14 s
# (one core of a shared 2-core x86 host, Python 3.11), and path(2000) runs
# out of memory.  ``compute`` refuses larger
# graphs unless forced.  It reads these routes on trees too, while
# ``tree_porous_number`` takes path(10**4) in 0.07-0.09 s (same host).
LP_ORDER_LIMIT = 100


@lru_cache(maxsize=4096)
def fractional_porous_number(g: Graph) -> Fraction:
    """Optimum of the porous LP relaxation; always attained and rational.

    The LP in ints, ``_integer_rows`` with the right-hand side repeated:
    the same optimum as ``build_porous_lp(g)``.  First the tight route,
    ``_tight_solution``: x = v / d with every row tight and y = x / rhs, the
    dual because the matrix is symmetric, certified in integers by
    ``check_integer_min_geq``; the value sum(v) / d is the one ``Fraction``
    it builds.  On a zero pivot or a negative entry of x, the exact simplex
    through ``solve_exact``, certified by ``check_min_geq``, with the duals
    of the integer rows.
    """
    rows, rhs = _integer_rows(g)
    tight = _tight_solution(rows, rhs)
    if tight is not None:
        v, d = tight
        value = Fraction(sum(v), d)
        lp_rows = [(*row, rhs) for row in rows]
        check_integer_min_geq((lp_rows, 1), ((1,) * g.n, 1), tight, (v, d * rhs), value)
        return value
    sol = solve_exact(LpModel(rows, (rhs,) * g.n, (1,) * g.n))
    if sol.status != "optimal":  # feasible by x == 1, bounded below by 0
        raise RuntimeError(f"porous LP unexpectedly {sol.status}")
    return sol.objective


def _tree_solution(order: list[int], children: list[list[int]]) -> list[int]:
    """Six times the x that makes every row of the porous LP tight, on the
    tree hung from ``order[0]`` as ``rooted_tree`` gives it: Gaussian
    elimination in leaf-first order, written out.

    The tight system is E x = c, with E the matrix of 2**-d(u, v) and c =
    1/2 at every vertex.  A leaf l with neighbour p has d(l, u) = 1 + d(p, u)
    for every u != l, so row l minus half of row p leaves (3/4) z_l = c_l -
    c_p / 2, and the rest of the tree keeps its right-hand side, with p's
    unknown raised by z_l / 2.  Peeling every vertex this way gives z_v =
    (4/3)(c_v - c_parent / 2) below the root and z = c at the root, and then
    x_v = z_v - (1/2) * (the sum of z_u over the children u of v).
    """
    z6 = [2] * len(order)  # 6 * (4/3)(1/2 - 1/4)
    z6[order[0]] = 3  # 6 * 1/2
    z = z6.__getitem__
    return [z6[v] - sum(map(z, kids)) // 2 for v, kids in enumerate(children)]


def _tree_down(order: list[int], children: list[list[int]], x) -> list[int]:
    """down[v], the sum of 2**(n + 1 - d(u, v)) * x[u] over the subtree of v,
    leaves first: x[v] << (n + 1) plus half of each child's down.

    Every d(u, v) <= n - 1, so each term is a multiple of 4 and every shift
    is exact for any integer x, negative entries included.
    """
    top = len(order) + 1
    down = [0] * len(order)
    below = down.__getitem__
    for v in reversed(order):
        down[v] = (x[v] << top) + (sum(map(below, children[v])) >> 1)
    return down


def _tree_up(order: list[int], children: list[list[int]], down: list[int]) -> list[int]:
    """full[v], the sum of 2**(n + 1 - d(u, v)) * x[u] over the whole tree,
    root first: a child u adds to its own down half of its parent's full
    without u's subtree, which is down[u] / 2 of it.

    Outside the subtree of u, d(parent, w) <= n - 2, so the remainder is a
    multiple of 8 and both shifts are exact.  full == ``porous_rows(g)`` . x.
    """
    full = down[:]
    for v in order:
        for u in children[v]:
            full[u] += (full[v] - (down[u] >> 1)) >> 1
    return full


def _check_tree_certificate(x6: list[int], full: list[int], value: Fraction) -> None:
    """Raise CertificateError unless x = x6 / 6 and y = x are an optimal pair
    of the porous LP of a tree with the objective ``value``.

    ``full`` is ``porous_rows`` . x6, the rows times 6 * 2**n, so a tight row
    reads 3 << (n + 1).  With x >= 0 and every row tight, x is primal
    feasible; the matrix is symmetric, so y = x meets every column with
    equality, and sum(x) == sum(y) is the value of both.
    """
    n = len(x6)
    if len(full) != n or min(x6, default=0) < 0:
        raise CertificateError("tree LP solution is negative or the wrong length")
    if full.count(3 << (n + 1)) != n:
        raise CertificateError("tree LP solution leaves a row untight")
    if value.numerator * 6 != sum(x6) * value.denominator:
        raise CertificateError("objective differs from sum(x) == sum(y)")


def rooted_porous_number(order, children) -> Fraction:
    """The optimum of the porous LP of the tree hung as ``rooted_tree``
    gives it, in O(n) big-int operations.

    ``_tree_solution`` gives the tight x, and two passes, ``_tree_down``
    then ``_tree_up``, give the rows times x for
    ``_check_tree_certificate``; the value sum(x6) / 6 is the one
    ``Fraction`` built.  When the tight x has a negative entry (``star(4)``:
    a vertex of degree 4 or more) the LP goes to ``fractional_porous_number``
    and its simplex, on the ``Graph`` of the same edges.  The route reads no
    degree and no (n + 2) / 6.
    """
    x6 = _tree_solution(order, children)
    if min(x6) < 0:
        edges = [(v, u) for v in order for u in children[v]]
        return fractional_porous_number(Graph(len(order), edges))
    value = Fraction(sum(x6), 6)
    full = _tree_up(order, children, _tree_down(order, children, x6))
    _check_tree_certificate(x6, full, value)
    return value


def tree_porous_number(g: Graph) -> Fraction:
    """The optimum of the porous LP of the tree g: ``rooted_porous_number``
    on g hung from vertex 0.  Raises NotTreeError unless g is a tree."""
    return rooted_porous_number(*rooted_tree(g, 0))


class CanonicalSolution(NamedTuple):
    """The degree-based primal/dual pair for subcubic trees.

    Primal mass 1/3 on endvertices, 1/6 on degree-2 vertices, 0 on degree-3
    vertices (a single vertex gets 1/2); the dual vector is identical.  On a
    subcubic tree every covering row is tight, which certifies optimality.
    """

    primal: tuple[Fraction, ...]
    dual: tuple[Fraction, ...]
    objective: Fraction
    primal_feasible: bool
    dual_feasible: bool
    all_tight: bool


def canonical_tree_solution(t: Graph) -> CanonicalSolution:
    """The degree-based pair of ``CanonicalSolution``, with every row checked
    in integers: x6 is six times the primal, and each row of ``porous_rows``
    (the LP matrix times 2**n) times x6 is compared with 6 << n."""
    if not is_subcubic_tree(t):
        raise NotTreeError("canonical LP solution needs a subcubic tree")
    if t.n == 1:
        x6 = [3]
    else:
        by_degree = {1: 2, 2: 1, 3: 0}
        x6 = [by_degree[t.degree(u)] for u in range(t.n)]
    six = 6 << t.n
    rows = [sum(w * c for w, c in zip(row, x6)) for row in porous_rows(t)]
    x = tuple(Fraction(c, 6) for c in x6)
    # the coefficient matrix is symmetric, so the dual rows coincide
    return CanonicalSolution(
        primal=x,
        dual=x,
        objective=Fraction(sum(x6), 6),
        primal_feasible=all(r >= six for r in rows),
        dual_feasible=all(r <= six for r in rows),
        all_tight=all(r == six for r in rows),
    )


def bound_diameter(d: int) -> Fraction:
    """Lower bound (d+3)/6 for a connected graph of diameter d."""
    if d < 0:
        raise ValueError("diameter must be non-negative")
    return Fraction(d + 3, 6)


def bound_order_degree(n: int, delta: int, d: int) -> Fraction:
    """Lower bound from order, maximum degree, and diameter.

    n/(2+3d) when delta is 3; for delta >= 4 the geometric-growth variant
    n*((delta-1)/2 - 1) / (delta*((delta-1)/2)**d - 3).  Degrees below 3 are
    rejected; with d = 0 the formulas degenerate to the n/2 single-vertex
    row bound, which stays valid.
    """
    if delta < 3:
        raise ValueError("bound covers maximum degree 3 and above only")
    if n < 1 or d < 0:
        raise ValueError("order must be positive and diameter non-negative")
    if delta == 3:
        return Fraction(n, 2 + 3 * d)
    q = Fraction(delta - 1, 2)
    return n * (q - 1) / (delta * q**d - 3)


def bound_subcubic_order(n: int) -> float:
    """Order-only floating bound: (sqrt(2n + 49/36) + 7/6) / 6.

    This is where max{(d+3)/6, n/(2+3d)} over real d bottoms out, so it
    holds for every connected subcubic graph regardless of diameter.  The
    only non-rational surface in the package; compare with explicit slack.
    """
    if n < 1:
        raise ValueError("order must be positive")
    return (math.sqrt(2 * n + 49 / 36) + 7 / 6) / 6
