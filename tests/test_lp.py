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
from expodom.graph6 import emit_graph6
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

from _oracles import export_cplex_lp, random_subcubic_graph, solve_dual_direct

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
