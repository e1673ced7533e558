"""The porous exponential domination LP and its exact solution.

The integer program for the porous parameter minimizes sum(x) subject to,
for every vertex v, sum over u of (1/2)**(dist(u,v)-1) * x(u) >= 1 with
x binary.  Dropping integrality gives the fractional porous exponential
domination number; this module builds that LP, solves it exactly, and also
evaluates the closed-form certificates and lower bounds attached to it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .graph import Graph, NotTreeError, is_subcubic_tree
from .simplex import check_min_geq, solve_min_geq
from .weights import porous_rows


class LpModel(NamedTuple):
    """min sum(x) s.t. matrix . x >= rhs, x >= 0."""

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


def build_porous_lp(g: Graph) -> LpModel:
    """One covering row per vertex; unreachable pairs contribute nothing.

    The entries are the influence kernel's scaled integers over 2**n.
    """
    scale = 1 << g.n
    matrix = tuple(tuple(Fraction(w, scale) for w in row) for row in porous_rows(g))
    ones = tuple(Fraction(1) for _ in range(g.n))
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


# The exact simplex grows as about n**5.5: path(80) takes 4 s, path(100)
# 15 s, and path(2000) runs out of memory.  ``compute`` refuses larger graphs
# unless forced.
LP_ORDER_LIMIT = 100


@lru_cache(maxsize=4096)
def fractional_porous_number(g: Graph) -> Fraction:
    """Optimum of the porous LP relaxation; always attained and rational."""
    if g.n == 0:
        return Fraction(0)
    sol = solve_exact(build_porous_lp(g))
    if sol.status != "optimal":  # feasible by x == 1, bounded below by 0
        raise RuntimeError(f"porous LP unexpectedly {sol.status}")
    return sol.objective


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
