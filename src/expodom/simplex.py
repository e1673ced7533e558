"""Two-phase primal simplex over exact rationals, fraction-free.

Solves min c.x subject to A x >= b, x >= 0 with b >= 0.  The tableau holds
Python ints (integer-preserving elimination, Bareiss 1968).  Over one
common denominator ``den``, the previous pivot, a pivot on p = T[r][c] keeps
row r and replaces every other row i, the objective row included, by
(p*T[i] - T[i][c]*T[r]) // den; then den becomes p.  By Sylvester's
identity every entry is a minor of the starting tableau, so the division is
exact, and T[i][j] / den is the entry of the usual normalized tableau.  No
gcd runs inside the pivot loop.

Integer input is used as it is.  Otherwise the inputs become integers by
one uniform scaling: A and b by the lcm L of their denominators, c by the
lcm M of its denominators.  A positive uniform scaling keeps the sign of
every reduced cost and the order of every ratio, so the pivots, the final
basis and the returned values are those of the same simplex run in
``fractions.Fraction``.  Bland's anti-cycling rule is used throughout: the
covering LPs solved here are heavily degenerate (many constraints tight at
the optimum), so cycling protection is not optional.

Dual values are read off the final tableau: the reduced cost of the i-th
surplus column is the i-th dual multiplier of the scaled LP, which is M/L
times the dual multiplier of the LP as given.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from operator import mul

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
    """Rationals as integer numerators over the lcm of their denominators;
    ints come back as they are, over 1."""
    values = _rationals(values)
    if set(map(type, values)) <= {int}:
        return values, 1
    k = math.lcm(*(q.denominator for q in values))
    return [q.numerator * (k // q.denominator) for q in values], k


def _scaled_rows(a, b) -> tuple[list[list[int]], int]:
    """Rows ``a[i] + [b[i]]`` as integers over one common denominator; rows
    of ints come back as they are, over 1."""
    rows = [[*row, bi] for row, bi in zip(a, b)]
    if set(map(type, chain.from_iterable(rows))) <= {int}:
        return rows, 1
    rows = [_rationals(row) for row in rows]
    k = math.lcm(*(q.denominator for row in rows for q in row))
    return [[q.numerator * (k // q.denominator) for q in row] for row in rows], k


def _pivot(tab, obj, basis, den, pr, pc) -> int:
    """Integer-preserving pivot on (pr, pc); returns the new den, p.

    Every other row, and the objective row, becomes (p*a - f*b) // den.
    """
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
            f = other[pc]
            tab[i] = [(p * a - f * b) // den for a, b in zip(other, row)]
    f = obj[pc]
    obj[:] = [(p * a - f * b) // den for a, b in zip(obj, row)]
    basis[pr] = pc
    return p


def _run(tab, obj, basis, den, enterable) -> tuple[str, int]:
    """Pivot until optimal or unbounded; Bland's rule on both choices.

    Returns the status and the final den.  Ratios row[-1] / row[enter]
    share the denominator den, so the ratio test compares them by
    cross-multiplying the entries.
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


def _primal(tab, basis, den, n) -> list[Fraction]:
    """x off the final tableau: basic variable i is T[i][-1] / den."""
    x = [ZERO] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = Fraction(tab[i][-1], den)
    return x


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
        if any(v < 0 for v in c):
            return SimplexSolution("unbounded")
        return SimplexSolution("optimal", [ZERO] * n, [], ZERO)

    # columns: n structural, m surplus, then the rhs.  The m artificial
    # columns are not stored: they never enter, and nothing reads them.
    tab, big_l = _scaled_rows(a, b)
    for i, row in enumerate(tab):
        row[n:n] = [0] * m
        row[n + i] = -1
    basis = [n + m + i for i in range(m)]

    # phase 1: drive the artificial variables to zero
    obj = [-sum(col) for col in zip(*tab)]
    status, den = _run(tab, obj, basis, 1, range(n + m))
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

    x = _primal(tab, basis, den, n)
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
    x = _primal(tab, basis, den, n)
    # obj[-1] / den tracks minus the minimized (-c).x, i.e. the maximized value
    return SimplexSolution("optimal", x, None, Fraction(obj[-1], den * big_m))


def check_min_geq(a, b, c, sol: SimplexSolution) -> None:
    """Raise CertificateError unless ``sol`` is an optimal primal-dual pair.

    Scales the LP and the pair to integers, then checks them with
    ``check_integer_min_geq``: a and b over their common denominator L, c
    over M, x over its common denominator dx and y over dy.
    """
    check_integer_min_geq(
        _scaled_rows(a, b), _scaled(c), _scaled(sol.x), _scaled(sol.y), sol.objective
    )


def check_integer_min_geq(rows, cost, x, y, objective: Fraction) -> None:
    """Raise CertificateError unless x and y are an optimal pair with the
    given objective, all checked in integers.

    Each argument but the objective is a pair (integers, denominator):
    ``rows`` holds a[i] + [b[i]] times L, ``cost`` c times M, and x and y
    are their numerators over dx and dy.  Checks a x >= b, x >= 0, a^T y <=
    c, y >= 0 and c.x == b.y == objective.
    """
    (rows, big_l), (cost, big_m), (xs, dx), (ys, dy) = rows, cost, x, y
    if len(xs) != len(cost) or len(ys) != len(rows):
        raise CertificateError("solution vectors have the wrong length")
    if any(v < 0 for v in xs) or any(v < 0 for v in ys):
        raise CertificateError("negative primal or dual value")
    for row in rows:
        if sum(map(mul, row, xs)) < row[-1] * dx:
            raise CertificateError("primal solution violates a row")
    for *col, cj in zip(*rows, cost):
        if big_m * sum(map(mul, col, ys)) > big_l * dy * cj:
            raise CertificateError("dual solution violates a column")
    p, q = objective.numerator, objective.denominator
    if sum(map(mul, cost, xs)) * q != p * big_m * dx:
        raise CertificateError("objective differs from c.x")
    if sum(row[-1] * w for row, w in zip(rows, ys)) * q != p * big_l * dy:
        raise CertificateError("objective differs from b.y (strong duality)")
