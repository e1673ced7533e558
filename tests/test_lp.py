import hashlib
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import expodom
from expodom import lp
from expodom.graph import (
    CertificateError,
    Graph,
    NotTreeError,
    connected_components,
    cycle,
    path,
    star,
)
from expodom.enumeration import trees_up_to
from expodom.fixtures import fixture_f1, fixture_f2
from expodom.graph6 import emit_graph6, parse_graph6
from expodom.harness import run_suite
from expodom.simplex import SimplexSolution
from expodom.weights import porous_rows
from expodom.lp import (
    LpModel,
    bound_diameter,
    bound_order_degree,
    bound_subcubic_order,
    build_porous_lp,
    canonical_tree_solution,
    fractional_porous_number,
    solve_exact,
)

from _oracles import (
    export_cplex_lp,
    random_subcubic_graph,
    random_subcubic_tree,
    solve_dual_direct,
    solve_square,
    with_extra_edges,
)

F = Fraction


def test_model_p1():
    model = build_porous_lp(Graph(1))
    assert model.matrix == ((F(2),),)
    assert model.rhs == (F(1),)


def test_model_p2_rows():
    model = build_porous_lp(path(2))
    assert model.matrix == ((F(2), F(1)), (F(1), F(2)))


def test_model_star_center_row():
    model = build_porous_lp(star(3))
    assert model.matrix[0] == (F(2), F(1), F(1), F(1))


def test_model_symmetric_dyadic():
    g = fixture_f1(2)
    model = build_porous_lp(g)
    for i in range(g.n):
        assert model.matrix[i][i] == 2
        for j in range(g.n):
            assert model.matrix[i][j] == model.matrix[j][i]
            assert 0 <= model.matrix[i][j] <= 2


def test_solve_p1():
    sol = solve_exact(build_porous_lp(Graph(1)))
    assert sol.status == "optimal"
    assert sol.objective == F(1, 2)


def test_solve_star():
    sol = solve_exact(build_porous_lp(star(3)))
    assert sol.objective == F(1)


def test_solve_c4():
    # by vertex-transitivity x == 2/9 is feasible with equality and the
    # identical dual certifies optimality
    sol = solve_exact(build_porous_lp(cycle(4)))
    assert sol.objective == F(8, 9)


def test_fractional_matches_order_formula():
    for t in trees_up_to(9):
        assert fractional_porous_number(t) == F(t.n + 2, 6)


def test_fractional_p10_and_f2():
    assert fractional_porous_number(path(10)) == 2
    assert fractional_porous_number(fixture_f2()) == 4


def test_strong_duality_exact():
    graphs = list(trees_up_to(7)) + [cycle(k) for k in range(3, 8)]
    for g in graphs:
        model = build_porous_lp(g)
        sol = solve_exact(model)
        assert sol.status == "optimal"
        # dual feasibility and exact objective match
        n = g.n
        for j in range(n):
            assert sum(model.matrix[i][j] * sol.dual[i] for i in range(n)) <= 1
        assert all(y >= 0 for y in sol.dual)
        assert sum(sol.dual) == sol.objective
        for i in range(n):
            assert (
                sum(model.matrix[i][j] * sol.primal[j] for j in range(n)) >= 1
            )
        assert sum(sol.primal) == sol.objective


# sha256 over the solve_exact results of _pinned_corpus(), computed with the
# earlier solver that pivoted a fractions.Fraction tableau by the same rules.
# Equal digests mean the same x, y and objective on every LP, bit for bit.
PINNED_LP_DIGEST = "1f1025e7cdd1e1ac0bfe851df2731f60dcff9c4d0318ad94919083e5a91d1f3f"


def _pinned_corpus():
    rng = random.Random(1605)
    randoms = [random_subcubic_graph(rng, 12) for _ in range(60)]
    return list(trees_up_to(12)) + randoms


def test_solve_exact_pinned_values():
    digest = hashlib.sha256()
    cyclic = 0
    for g in _pinned_corpus():
        sol = solve_exact(build_porous_lp(g))
        cyclic += len(g.edges()) > g.n - len(connected_components(g))
        line = " ".join(
            [emit_graph6(g), sol.status, *map(str, sol.primal), "|",
             *map(str, sol.dual), "|", str(sol.objective)]
        )
        digest.update(line.encode() + b"\n")
    assert cyclic == 20
    assert digest.hexdigest() == PINNED_LP_DIGEST


def _tamper_dual(res):
    res.y[0] += 1


def _tamper_primal(res):
    res.x[:] = [F(0)] * len(res.x)


def _tamper_objective(res):
    res.objective -= F(1, 7)


@pytest.mark.parametrize("tamper", [_tamper_dual, _tamper_primal, _tamper_objective])
def test_tampered_solution_raises(monkeypatch, tamper):
    real = lp.solve_min_geq

    def kernel(a, b, c):
        res = real(a, b, c)
        tamper(res)
        return res

    monkeypatch.setattr(lp, "solve_min_geq", kernel)
    with pytest.raises(CertificateError):
        solve_exact(build_porous_lp(path(5)))


def test_value_route_matches_fraction_model():
    # the route solves the integer rows; the Fraction model is the same LP
    graphs = _pinned_corpus() + [cycle(k) for k in range(3, 16)]
    for g in graphs:
        assert fractional_porous_number(g) == solve_exact(build_porous_lp(g)).objective


def test_value_route_builds_no_fraction_model(monkeypatch):
    def refuse(g):
        raise RuntimeError("the value route built the Fraction model")

    monkeypatch.setattr(lp, "build_porous_lp", refuse)
    route = fractional_porous_number.__wrapped__  # past the cache
    assert route(path(7)) == F(3, 2)
    assert route(cycle(4)) == F(8, 9)


# each route of fractional_porous_number: the graph that takes it and the
# function whose result the route certifies
ROUTES = {
    "tight": (path(5), "_tight_solution"),
    "simplex": (star(4), "solve_min_geq"),
}


def _tamper_tight_route(monkeypatch, tamper):
    """Apply ``tamper`` on the tight route, whose integer form has no
    ``SimplexSolution``: x is the kernel's (v, d), while the dual
    (v, d * rhs) and the value sum(v) / d are only inputs of the
    certificate core, so those two are tampered there."""
    if tamper is _tamper_primal:
        real = lp._tight_solution

        def kernel(rows, rhs):
            v, d = real(rows, rhs)
            tamper(SimplexSolution("optimal", v))
            return v, d

        monkeypatch.setattr(lp, "_tight_solution", kernel)
        return
    real_core = lp.check_integer_min_geq

    def core(rows, cost, x, y, objective):
        res = SimplexSolution("optimal", None, list(y[0]), objective)
        tamper(res)
        real_core(rows, cost, x, (res.y, y[1]), res.objective)

    monkeypatch.setattr(lp, "check_integer_min_geq", core)


@pytest.mark.parametrize("tamper", [_tamper_dual, _tamper_primal, _tamper_objective])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_value_route_tampered_solution_raises(monkeypatch, route, tamper):
    g, name = ROUTES[route]
    if route == "tight":
        _tamper_tight_route(monkeypatch, tamper)
    else:
        real = getattr(lp, name)

        def kernel(*args):
            res = real(*args)
            tamper(res)
            return res

        monkeypatch.setattr(lp, name, kernel)
    with pytest.raises(CertificateError):
        fractional_porous_number.__wrapped__(g)


def _simplex_spy(monkeypatch) -> list:
    calls = []
    real = lp.solve_min_geq

    def spy(a, b, c):
        calls.append(len(c))
        return real(a, b, c)

    monkeypatch.setattr(lp, "solve_min_geq", spy)
    return calls


def test_tight_route_runs_no_simplex(monkeypatch):
    calls = _simplex_spy(monkeypatch)
    route = fractional_porous_number.__wrapped__  # past the cache
    for g in [*trees_up_to(12), *(cycle(k) for k in range(3, 16))]:
        route(g)
    assert calls == []


# connected, 47 edges, maximum degree 4; its tight x has 9 negative entries
ORDER_40 = (
    "gsHA?CCA?AO??C??a?A????_C????O_?C@????_?G????_???G??O?????A????@???C?AG"
    "?????C??_???_??G??AA??@?????C??@?????O????AO??_?AG???????@??"
)


# star(4), star(4) plus a leaf-leaf edge, and a fallback LP of size 40
@pytest.mark.parametrize("g6", ["Ds_", "DmO", pytest.param(ORDER_40, id="order40")])
def test_negative_entry_falls_back_once(monkeypatch, g6):
    g = parse_graph6(g6)
    rows, rhs = lp._integer_rows(g)
    x = solve_square(rows, rhs)
    assert x is not None and min(x) < 0  # nonsingular, an entry negative
    assert lp._tight_solution(rows, rhs) is None
    want = solve_exact(build_porous_lp(g)).objective
    calls = _simplex_spy(monkeypatch)
    assert fractional_porous_number.__wrapped__(g) == want
    assert calls == [g.n]


def _square_lp_value(rows, rhs):
    """The LP min sum(x), rows . x >= rhs, solved by the exact simplex."""
    n = len(rows)
    return solve_exact(LpModel(rows, (rhs,) * n, (1,) * n)).objective


def test_tight_solution_small_systems():
    singular = [[1, 2], [2, 4]], [[1, 1, 0], [1, 1, 0], [0, 0, 1]], [[0, 0], [0, 0]]
    for rows in singular:
        assert lp._tight_solution(rows, 1) is None
    # a zero leading pivot: no row swap, the simplex takes the LP, and its
    # value is sum(x) == 2 for the tight x == [1, 1]
    assert lp._tight_solution([[0, 1], [1, 0]], 1) is None
    assert _square_lp_value([[0, 1], [1, 0]], 1) == 2
    # the last pivot is det == -3, so numerators and pivot flip together
    v, d = lp._tight_solution([[1, 2], [2, 1]], 3)
    assert d > 0 and [F(c, d) for c in v] == [1, 1]
    assert [F(c, d * 3) for c in v] == [F(1, 3), F(1, 3)] and F(sum(v), d) == 2


def test_tight_solution_matches_fraction_elimination():
    # symmetric integer systems with zeros, zero pivots, negative
    # determinants, singular matrices and negative solutions, judged in
    # Fraction; on a zero pivot the simplex must find the tight optimum
    rng = random.Random(2007)
    kinds = set()
    for _ in range(600):
        n = rng.randint(1, 5)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.choice([0, 0, 1, 2, 3, -1, 5])
        rhs = rng.randint(1, 4)
        want = solve_square(rows, rhs)
        got = lp._tight_solution(rows, rhs)
        if want is None or min(want) < 0:
            kinds.add("singular" if want is None else "negative")
            assert got is None
            continue
        if got is None:
            kinds.add("zero pivot")
            assert _square_lp_value(rows, rhs) == sum(want)
            continue
        kinds.add("tight")
        v, d = got
        assert d > 0
        assert [F(c, d) for c in v] == want
        assert [F(c, d * rhs) for c in v] == [w / rhs for w in want]
        assert F(sum(v), d) == sum(want)
    assert kinds == {"singular", "negative", "zero pivot", "tight"}


def _porous_corpus():
    """Every subcubic tree up to order 12, C3-C15, and 120 seeded random
    subcubic graphs of orders 2-20 with up to four extra edges."""
    rng = random.Random(2511)
    randoms = [
        with_extra_edges(rng, random_subcubic_tree(rng, rng.randint(2, 20)), rng.randint(0, 4))
        for _ in range(120)
    ]
    return [*trees_up_to(12), *(cycle(k) for k in range(3, 16)), *randoms]


def test_symmetric_elimination_on_porous_matrices():
    # no porous matrix of the corpus has a zero pivot or a negative entry,
    # so the upper-triangle pass returns x on every one
    for g in _porous_corpus():
        rows, rhs = lp._integer_rows(g)
        want = solve_square(rows, rhs)
        got = lp._tight_solution(rows, rhs)
        assert got is not None, emit_graph6(g)
        v, d = got
        assert [F(c, d) for c in v] == want, emit_graph6(g)


def test_integer_rows_shift_matches_gcd():
    # the shift equals division by the gcd of 2**n and every entry
    graphs = [Graph(0), Graph(1), Graph(3), Graph(4, [(0, 1)]), *_porous_corpus()[::7]]
    for g in graphs:
        rows = porous_rows(g)
        k = math.gcd(1 << g.n, *(w for row in rows for w in row))
        want = tuple(tuple(w // k for w in row) for row in rows), (1 << g.n) // k
        assert lp._integer_rows(g) == want


def test_tight_route_builds_one_fraction(monkeypatch):
    built = []

    def spy(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(lp, "Fraction", spy)
    route = fractional_porous_number.__wrapped__  # past the cache
    for g, want in ((path(7), F(3, 2)), (cycle(4), F(8, 9))):
        built.clear()
        assert route(g) == want
        assert len(built) == 1


def test_theorem2_never_reads_the_tree_certificate(monkeypatch):
    def refuse(t):
        raise RuntimeError("theorem2 read the closed-form tree certificate")

    monkeypatch.setattr(lp, "canonical_tree_solution", refuse)
    fractional_porous_number.cache_clear()
    report = run_suite("theorem2", 11)
    assert report.checked == 149
    assert report.violations == []


def test_certificate_checks_survive_optimize_flag():
    script = textwrap.dedent(
        """
        from expodom import lp, solvers
        from expodom.graph import CertificateError, path

        real = lp.solve_min_geq

        def kernel(a, b, c):
            res = real(a, b, c)
            res.y[0] += 1
            return res

        lp.solve_min_geq = kernel
        solvers._min_cover = lambda g, targets, forced=(): (1, (0,))
        for call in (
            lambda: lp.solve_exact(lp.build_porous_lp(path(5))),
            lambda: solvers.domination_number(path(5)),
        ):
            try:
                call()
            except CertificateError:
                continue
            raise SystemExit("certificate check did not fire")
        """
    )
    src = os.path.dirname(os.path.dirname(expodom.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_dual_direct_agrees():
    for g in [path(5), star(3), cycle(6), fixture_f1(1)]:
        model = build_porous_lp(g)
        assert solve_dual_direct(model).objective == solve_exact(model).objective


def test_lp_decomposes_over_components():
    # cross-component coefficients are zero, so no special casing is needed
    parts = [path(3), cycle(4), star(3)]
    merged_edges = []
    offset = 0
    for part in parts:
        merged_edges.extend((u + offset, v + offset) for u, v in part.edges())
        offset += part.n
    merged = Graph(offset, merged_edges)
    assert fractional_porous_number(merged) == sum(
        fractional_porous_number(p) for p in parts
    )


def test_solve_rejects_bad_dimensions():
    model = LpModel(((F(1), F(2)),), (F(1),), (F(1),))
    with pytest.raises(ValueError):
        solve_exact(model)
    for model in (
        LpModel(((F(1),),), (F(1), F(1)), (F(1),)),  # long rhs
        LpModel((), (F(1),), (F(1),)),  # empty matrix with an rhs
    ):
        with pytest.raises(ValueError):
            solve_exact(model)


def test_scipy_cross_check():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = random.Random(2718)
    for _ in range(15):
        g = random_subcubic_graph(rng)
        if g.n == 0:
            continue
        model = build_porous_lp(g)
        exact = solve_exact(model).objective
        res = scipy_opt.linprog(
            c=[1.0] * g.n,
            A_ub=[[-float(v) for v in row] for row in model.matrix],
            b_ub=[-1.0] * g.n,
            bounds=[(0, None)] * g.n,
            method="highs",
        )
        assert res.status == 0
        assert abs(res.fun - float(exact)) < 1e-7


def test_canonical_solution_star():
    got = canonical_tree_solution(star(3))
    assert got.primal == (F(0), F(1, 3), F(1, 3), F(1, 3))
    assert got.objective == 1
    assert got.primal_feasible and got.dual_feasible and got.all_tight


def test_canonical_solution_paths():
    got = canonical_tree_solution(path(2))
    assert got.primal == (F(1, 3), F(1, 3))
    assert got.objective == F(2, 3)
    got = canonical_tree_solution(path(4))
    assert got.primal == (F(1, 3), F(1, 6), F(1, 6), F(1, 3))
    assert got.objective == 1
    assert got.all_tight


def test_canonical_solution_single_vertex():
    got = canonical_tree_solution(Graph(1))
    assert got.primal == (F(1, 2),)
    assert got.all_tight


def test_canonical_solution_matches_lp_everywhere():
    for t in trees_up_to(9):
        got = canonical_tree_solution(t)
        assert got.all_tight
        assert got.objective == fractional_porous_number(t)


def test_canonical_solution_rejects_non_tree():
    with pytest.raises(NotTreeError):
        canonical_tree_solution(cycle(4))
    with pytest.raises(NotTreeError):
        canonical_tree_solution(star(4))


def test_bound_diameter_examples():
    assert bound_diameter(3) == 1
    assert bound_diameter(0) == F(1, 2)
    assert bound_diameter(9) == 2


def test_bound_order_degree_examples():
    assert bound_order_degree(8, 3, 2) == 1
    assert bound_order_degree(5, 4, 1) == F(5, 6)
    assert bound_order_degree(22, 3, 6) == F(11, 10)
    with pytest.raises(ValueError):
        bound_order_degree(5, 2, 1)


def test_bound_subcubic_order_values():
    # n=1 is exact: the radicand is (11/6)**2, so the bound collapses to 1/2
    assert bound_subcubic_order(1) == pytest.approx(0.5, abs=1e-12)
    # frozen from evaluating (sqrt(2n + 49/36) + 7/6)/6 at n = 22
    assert bound_subcubic_order(22) == pytest.approx(1.3169554083987085, abs=1e-9)
    assert bound_subcubic_order(22) == (math.sqrt(2 * 22 + 49 / 36) + 7 / 6) / 6


def test_bound_subcubic_below_tree_value():
    for t in trees_up_to(9):
        assert float(F(t.n + 2, 6)) >= bound_subcubic_order(t.n) - 1e-9


def test_export_cplex_lp():
    text = export_cplex_lp(build_porous_lp(path(3)))
    assert "Minimize" in text and "Subject To" in text and text.endswith("End\n")
    assert "2 x0" in text
    assert "0.5 x2" in text  # distance-2 coefficient rendered exactly
