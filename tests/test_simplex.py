import hashlib
import random
from contextlib import nullcontext
from fractions import Fraction

import pytest

from expodom import simplex
from expodom.graph import CertificateError
from expodom.simplex import solve_max_leq, solve_min_geq

F = Fraction


def test_single_variable():
    res = solve_min_geq([[F(2)]], [F(1)], [F(1)])
    assert res.status == "optimal"
    assert res.objective == F(1, 2)
    assert res.x == [F(1, 2)]
    assert res.y == [F(1, 2)]  # dual: max y subject to 2y <= 1


def test_two_by_two():
    a = [[F(2), F(1)], [F(1), F(2)]]
    res = solve_min_geq(a, [F(1), F(1)], [F(1), F(1)])
    assert res.status == "optimal"
    assert res.objective == F(2, 3)
    assert res.x == [F(1, 3), F(1, 3)]
    # strong duality, exactly
    assert sum(res.y) == F(2, 3)


def test_degenerate_many_ties():
    # every row tight at the optimum; Bland must not cycle
    a = [
        [F(2), F(1), F(1)],
        [F(1), F(2), F(1)],
        [F(1), F(1), F(2)],
    ]
    res = solve_min_geq(a, [F(1)] * 3, [F(1)] * 3)
    assert res.status == "optimal"
    assert res.objective == F(3, 4)


def test_infeasible():
    res = solve_min_geq([[F(0)]], [F(1)], [F(1)])
    assert res.status == "infeasible"


def test_unbounded():
    res = solve_min_geq([[F(1)]], [F(1)], [F(-1)])
    assert res.status == "unbounded"


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_min_geq([[F(1), F(2)]], [F(1)], [F(1)])


def test_negative_rhs_rejected():
    with pytest.raises(ValueError):
        solve_min_geq([[F(1)]], [F(-1)], [F(1)])


def test_negative_drive_out_pivot(monkeypatch):
    # min x0 + 2 x1 s.t. 2 x0 >= 1, -x1 >= 0.  By hand: the second row and
    # x1 >= 0 force x1 = 0, so x0 = 1/2 and the optimum is 1/2; the dual
    # max y0 s.t. 2 y0 <= 1, -y1 <= 2 gives y0 = 1/2, and b1 = 0 leaves
    # y1 = 0 at the basis the simplex ends in.  Phase 1 stops with the
    # second artificial basic at zero, and its row's first nonzero entry,
    # the x1 coefficient -1, is the negative pivot that drives it out.
    pivots = []
    real_pivot = simplex._pivot

    def spy(tab, obj, basis, den, pr, pc):
        pivots.append(tab[pr][pc])
        return real_pivot(tab, obj, basis, den, pr, pc)

    monkeypatch.setattr(simplex, "_pivot", spy)
    res = solve_min_geq([[F(2), F(0)], [F(0), F(-1)]], [F(1), F(0)], [F(1), F(2)])
    assert any(p < 0 for p in pivots)
    assert res.status == "optimal"
    assert res.x == [F(1, 2), F(0)]
    assert res.y == [F(1, 2), F(0)]
    assert res.objective == F(1, 2)


def test_duals_certify():
    # y is feasible for the dual and matches the primal objective
    a = [[F(2), F(1), F(0)], [F(1), F(2), F(1)], [F(0), F(1), F(2)]]
    b = [F(1), F(1), F(1)]
    c = [F(1), F(1), F(1)]
    res = solve_min_geq(a, b, c)
    assert res.status == "optimal"
    m, n = 3, 3
    for j in range(n):
        assert sum(a[i][j] * res.y[i] for i in range(m)) <= c[j]
    assert all(yi >= 0 for yi in res.y)
    assert sum(b[i] * res.y[i] for i in range(m)) == res.objective
    for i in range(m):
        assert sum(a[i][j] * res.x[j] for j in range(n)) >= b[i]


def test_max_leq_agrees_with_dual():
    a = [[F(2), F(1)], [F(1), F(2)]]
    b = [F(1), F(1)]
    c = [F(1), F(1)]
    primal = solve_min_geq(a, b, c)
    # dual: max b.y s.t. a^T y <= c
    at = [[a[i][j] for i in range(2)] for j in range(2)]
    dual = solve_max_leq(at, c, b)
    assert dual.status == "optimal"
    assert dual.objective == primal.objective


def test_random_lps_against_scipy():
    scipy_opt = pytest.importorskip("scipy.optimize")
    import random

    rng = random.Random(161803)
    for _ in range(40):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = [
            [F(rng.randint(-3, 6), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(m)
        ]
        b = [F(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(m)]
        c = [F(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(n)]
        got = solve_min_geq(a, b, c)
        res = scipy_opt.linprog(
            c=[float(v) for v in c],
            A_ub=[[-float(v) for v in row] for row in a],
            b_ub=[-float(v) for v in b],
            bounds=[(0, None)] * n,
            method="highs",
        )
        if got.status == "optimal":
            assert res.status == 0
            assert abs(res.fun - float(got.objective)) < 1e-7
            # returned duals always certify the objective exactly
            assert sum(y * bi for y, bi in zip(got.y, b)) == got.objective
            for j in range(n):
                assert sum(a[i][j] * got.y[i] for i in range(m)) <= c[j]
        elif got.status == "infeasible":
            assert res.status == 2
        else:
            assert res.status == 3  # unbounded


def test_no_rows_negative_cost_is_unbounded():
    # min -x0 over x >= 0 alone has no optimum; the maximizing form agrees
    assert solve_min_geq([], [], [F(-1)]).status == "unbounded"
    assert solve_max_leq([], [], [F(1)]).status == "unbounded"
    res = solve_min_geq([], [], [F(0), F(2)])
    assert res.status == "optimal"
    assert res.x == [F(0), F(0)] and res.y == [] and res.objective == 0


def _kernel_corpus():
    """About 3,000 seeded small LPs: mixed signs, zero right-hand sides,
    repeated, scaled and zero rows, both Fraction and int input."""
    rng = random.Random(22031968)
    for k in range(3000):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        a = []
        for _ in range(m):
            shape = rng.random()
            if a and shape < 0.15:
                a.append(list(rng.choice(a)))  # repeated row
            elif a and shape < 0.25:
                q = F(rng.randint(1, 3), rng.randint(1, 3))
                a.append([q * v for v in rng.choice(a)])  # scaled row
            elif shape < 0.3:
                a.append([F(0)] * n)
            else:
                a.append([F(rng.randint(-2, 6), rng.randint(1, 4)) for _ in range(n)])
        b = [F(0) if rng.random() < 0.3 else F(rng.randint(1, 5), rng.randint(1, 3))
             for _ in range(m)]
        c = [F(rng.randint(-1, 6), rng.randint(1, 3)) for _ in range(n)]
        if k % 5 == 0:  # integer input
            a = [[v.numerator * 12 // v.denominator for v in row] for row in a]
            b = [v.numerator * 6 // v.denominator for v in b]
            c = [v.numerator * 6 // v.denominator for v in c]
        yield a, b, c


# sha256 over status, x, y and objective of solve_min_geq and solve_max_leq on
# _kernel_corpus(), taken from the kernel that rescaled every row at every
# pivot.  Equal digests mean the same status and values on every LP.
PINNED_KERNEL_DIGEST = "a578857bbb2f8c111440d2a02129b620ba4bdd4b3147531a7237918faad0e4e1"


def test_kernel_pinned_on_random_lps():
    digest = hashlib.sha256()
    for a, b, c in _kernel_corpus():
        for solve in (solve_min_geq, solve_max_leq):
            res = solve(a, b, c)
            fields = [res.status]
            for values in (res.x, res.y):
                fields += ["|", *map(str, values or ())]
            fields += ["|", str(res.objective)]
            digest.update(" ".join(fields).encode() + b"\n")
    assert digest.hexdigest() == PINNED_KERNEL_DIGEST


# min x1 + x2 s.t. x1 >= 1, x2 >= 1, x1 + x2 >= 2: the optimum is 2, at
# x = (1, 1) with y = (1, 1, 0).  Each bad pair breaks exactly one check.
CERTIFICATE_CASES = {
    "optimal": ((1, 1), (1, 1, 0), 2, None),
    "negative": ((1, 1), (-1, -1, 2), 2, "negative"),
    "row": ((F(1, 2), F(3, 2)), (1, 1, 0), 2, "violates a row"),
    "column": ((1, 1), (2, 0, 0), 2, "violates a column"),
    "c.x": ((1, F(3, 2)), (1, 1, 0), 2, "differs from c.x"),
    "b.y": ((1, 1), (F(1, 2), 0, 0), 2, "differs from b.y"),
    "length": ((1, 1, 0), (1, 1, 0), 2, "wrong length"),
}


@pytest.mark.parametrize("case", sorted(CERTIFICATE_CASES))
def test_integer_certificate_checks_each_condition(case):
    x, y, objective, error = CERTIFICATE_CASES[case]

    def verdict():
        if error is None:
            return nullcontext()
        return pytest.raises(CertificateError, match=error)

    # the LP times L = 2 and its costs times M = 3, x and y over 2
    rows = [[2, 0, 2], [0, 2, 2], [2, 2, 4]], 2
    cost = [3, 3], 3
    with verdict():
        simplex.check_integer_min_geq(
            rows, cost, ([int(2 * v) for v in x], 2), ([int(2 * v) for v in y], 2), F(objective)
        )
    # check_min_geq scales the same LP and pair and reaches the same verdict
    sol = simplex.SimplexSolution("optimal", list(map(F, x)), list(map(F, y)), F(objective))
    with verdict():
        simplex.check_min_geq([[1, 0], [0, 1], [1, 1]], [1, 1, 2], [1, 1], sol)
