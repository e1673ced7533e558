"""Two-phase primal simplex over exact rationals, fraction-free.

Solves min c.x subject to A x >= b, x >= 0 with b >= 0.  The tableau holds
Python ints over one common denominator ``den``, the previous pivot
(integer-preserving elimination, Bareiss 1968).  A pivot on p = T[r][c]
keeps row r and replaces every other row i, the objective row included, by
(p*T[i] - T[i][c]*T[r]) // den; then den becomes p.  By Sylvester's identity
every entry is a minor of the starting tableau, so the division is exact,
and every row holds den in its basic column, so T[i][j] / den is the entry
of the usual normalized tableau.  No gcd runs inside the pivot loop.

The inputs become integers by one uniform scaling: A and b by the lcm L of
their denominators, c by the lcm M of its denominators.  A positive uniform
scaling keeps the sign of every reduced cost and the order of every ratio,
so the pivots, the final basis and the returned values are those of the
same simplex run in ``fractions.Fraction``.  Bland's anti-cycling rule is
used throughout: the covering LPs solved here are heavily degenerate (many
constraints tight at the optimum), so cycling protection is not optional.

Dual values are read off the final tableau: the reduced cost of the i-th
surplus column is the i-th dual multiplier of the scaled LP, which is M/L
times the dual multiplier of the LP as given.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .graph import CertificateError

ZERO = Fraction(0)


class SimplexSolution:
    """Status plus, when optimal, primal, dual and objective value."""

    def __init__(
        self,
        status: str,  # "optimal" | "infeasible" | "unbounded"
        x: list[Fraction] | None = None,
        y: list[Fraction] | None = None,
        objective: Fraction | None = None,
    ):
        self.status = status
        self.x = x
        self.y = y
        self.objective = objective


def _rationals(values):
    return [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]


def _scaled(values) -> tuple[list[int], int]:
    """Rationals as integer numerators over the lcm of their denominators."""
    values = _rationals(values)
    k = math.lcm(*(q.denominator for q in values))
    return [q.numerator * (k // q.denominator) for q in values], k


def _scaled_rows(a, b) -> tuple[list[list[int]], int]:
    """Rows ``a[i] + [b[i]]`` as integers over one common denominator."""
    rows = [_rationals([*row, bi]) for row, bi in zip(a, b)]
    k = math.lcm(*(q.denominator for row in rows for q in row))
    return [[q.numerator * (k // q.denominator) for q in row] for row in rows], k


def _pivot(tab, obj, basis, den, pr, pc) -> int:
    """Integer-preserving pivot on (pr, pc); returns the new denominator."""
    row = tab[pr]
    p = row[pc]
    if p < 0:
        # Only the drive-out of a zero-level artificial pivots on a negative
        # entry.  Its row may change sign because its basic column leaves,
        # and flipping it keeps den > 0, which the sign tests in _run read.
        row = [-v for v in row]
        tab[pr] = row
        p = -p
    for i, other in enumerate(tab):
        if i != pr:
            tab[i] = _combine(other, row, p, den, pc)
    obj[:] = _combine(obj, row, p, den, pc)
    basis[pr] = pc
    return p


def _combine(other, row, p, den, pc):
    """Row ``other`` after the pivot on entry p = row[pc]."""
    f = other[pc]
    if f:
        return [(p * a - f * b) // den for a, b in zip(other, row)]
    if p == den:
        return other
    return [p * a // den for a in other]


def _run(tab, obj, basis, den, enterable) -> tuple[str, int]:
    """Pivot until optimal or unbounded; Bland's rule on both choices.

    Ratios row[-1] / row[enter] share the factor 1/den, so the ratio test
    compares them by cross-multiplying the integer entries.
    """
    while True:
        enter = -1
        for j in enterable:
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal", den
        leave = -1
        for i, row in enumerate(tab):
            coef = row[enter]
            if coef > 0:
                if leave < 0:
                    leave, best_rhs, best_coef = i, row[-1], coef
                    continue
                lhs = row[-1] * best_coef
                rhs = best_rhs * coef
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, best_rhs, best_coef = i, row[-1], coef
        if leave < 0:
            return "unbounded", den
        den = _pivot(tab, obj, basis, den, leave, enter)


def _check_dimensions(a, b, c) -> None:
    if any(len(row) != len(c) for row in a) or len(b) != len(a):
        raise ValueError("inconsistent LP dimensions")
    if any(bi < 0 for bi in b):
        raise ValueError("right-hand side must be non-negative")


def solve_min_geq(a, b, c) -> SimplexSolution:
    """min c.x s.t. a x >= b, x >= 0; requires b >= 0 componentwise."""
    _check_dimensions(a, b, c)
    m = len(a)
    n = len(c)
    if m == 0:
        return SimplexSolution("optimal", [ZERO] * n, [], ZERO)

    # columns: n structural, m surplus, then the rhs.  The m artificial
    # columns are not stored: they never enter, and nothing reads them.
    tab, big_l = _scaled_rows(a, b)
    for i, row in enumerate(tab):
        row[n:n] = [0] * m
        row[n + i] = -1
    basis = [n + m + i for i in range(m)]
    den = 1

    # phase 1: drive the artificial variables to zero
    obj = [-sum(col) for col in zip(*tab)]
    status, den = _run(tab, obj, basis, den, range(n + m))
    if status != "optimal" or obj[-1] != 0:
        return SimplexSolution("infeasible")

    # pivot leftover artificials (basic at zero) out where possible
    for i in range(m):
        if basis[i] >= n + m:
            for j in range(n + m):
                if tab[i][j] != 0:
                    den = _pivot(tab, obj, basis, den, i, j)
                    break
            # a fully-zero row is redundant; its artificial stays basic at 0

    # phase 2: true objective, artificial columns barred from entering
    cost, big_m = _scaled(c)
    obj = [den * v for v in cost] + [0] * (m + 1)
    for i, bi in enumerate(basis):
        f = cost[bi] if bi < n else 0
        if f:
            obj = [o - f * t for o, t in zip(obj, tab[i])]
    status, den = _run(tab, obj, basis, den, range(n + m))
    if status != "optimal":
        return SimplexSolution(status)

    x = [ZERO] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = Fraction(tab[i][-1], den)
    y = [Fraction(obj[n + i] * big_l, den * big_m) for i in range(m)]
    return SimplexSolution("optimal", x, y, Fraction(-obj[-1], den * big_m))


def solve_max_leq(a, b, c) -> SimplexSolution:
    """max c.x s.t. a x <= b, x >= 0; requires b >= 0 (slack start).

    Used as an independent route to the dual of the covering LP.
    """
    _check_dimensions(a, b, c)
    m = len(a)
    n = len(c)
    tab, _ = _scaled_rows(a, b)
    for i, row in enumerate(tab):
        row[n:n] = [0] * m
        row[n + i] = 1
    basis = [n + i for i in range(m)]
    # maximize c.x == minimize (-c).x
    cost, big_m = _scaled(c)
    obj = [-v for v in cost] + [0] * (m + 1)
    status, den = _run(tab, obj, basis, 1, range(n + m))
    if status != "optimal":
        return SimplexSolution(status)
    x = [ZERO] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = Fraction(tab[i][-1], den)
    # obj[-1] / den tracks minus the minimized (-c).x, i.e. the maximized value
    return SimplexSolution("optimal", x, None, Fraction(obj[-1], den * big_m))


def check_min_geq(a, b, c, sol: SimplexSolution) -> None:
    """Raise CertificateError unless ``sol`` is an optimal primal-dual pair.

    Checks a x >= b, x >= 0, a^T y <= c, y >= 0 and c.x == b.y == objective,
    all in integers: a and b over their common denominator L, c over M, x
    over its common denominator dx and y over dy.
    """
    m, n = len(a), len(c)
    if len(sol.x) != n or len(sol.y) != m:
        raise CertificateError("solution vectors have the wrong length")
    rows, big_l = _scaled_rows(a, b)
    cost, big_m = _scaled(c)
    xs, dx = _scaled(sol.x)
    ys, dy = _scaled(sol.y)
    if any(v < 0 for v in xs) or any(v < 0 for v in ys):
        raise CertificateError("negative primal or dual value")
    for row in rows:
        if sum(v * w for v, w in zip(row, xs)) < row[-1] * dx:
            raise CertificateError("primal solution violates a row")
    for j in range(n):
        if big_m * sum(row[j] * w for row, w in zip(rows, ys)) > big_l * dy * cost[j]:
            raise CertificateError("dual solution violates a column")
    p, q = sol.objective.numerator, sol.objective.denominator
    if sum(v * w for v, w in zip(cost, xs)) * q != p * big_m * dx:
        raise CertificateError("objective differs from c.x")
    if sum(row[-1] * w for row, w in zip(rows, ys)) * q != p * big_l * dy:
        raise CertificateError("objective differs from b.y (strong duality)")
