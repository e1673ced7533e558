"""The tree route of the porous LP, ``lp.tree_porous_number``.

Its judges share none of the route's code: the residual is compared with
the influence kernel's rows times x, x with a ``Fraction`` elimination of
those rows, and the value with ``fractional_porous_number``, whose tight
route and simplex build the whole matrix.
"""

import contextlib
import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from expodom import cli, lp, weights
from expodom.canon import _code_tree, canonical_code, tree_from_code
from expodom.enumeration import _subcubic_trees_cached, trees_up_to
from expodom.graph import (
    CertificateError,
    Graph,
    NotTreeError,
    cycle,
    path,
    rooted_tree,
    star,
)
from expodom.graph6 import emit_graph6
from expodom.harness import run_suite
from expodom.lp import fractional_porous_number, tree_porous_number
from expodom.weights import porous_rows

from _oracles import solve_square, trees

F = Fraction


def _residual(g: Graph, root: int, x) -> list[int]:
    order, children = rooted_tree(g, root)
    return lp._tree_up(order, children, lp._tree_down(order, children, x))


def _kernel_residual(g: Graph, x) -> list[int]:
    return [sum(w * c for w, c in zip(row, x)) for row in porous_rows(g)]


def _residual_mismatches(graphs, seed: int) -> list[str]:
    """The graph6 of each tree on which the two passes differ from
    ``porous_rows`` . x, for the LP's x and three seeded random integer x,
    each hung from a seeded random root."""
    rng = random.Random(seed)
    bad = []
    for g in graphs:
        order, children = rooted_tree(g, 0)
        xs = [lp._tree_solution(order, children)]
        xs += [[rng.randint(-9, 9) for _ in range(g.n)] for _ in range(3)]
        for x in xs:
            if _residual(g, rng.randrange(g.n), x) != _kernel_residual(g, x):
                bad.append(emit_graph6(g))
    return bad


def test_two_passes_equal_the_kernel_rows_times_x():
    assert _residual_mismatches(trees_up_to(14), 1401) == []


def test_tight_x_matches_fraction_elimination():
    # every root of every tree up to order 11: x6 / 6 solves the kernel's
    # square system rows . x == 2**n
    for g in trees_up_to(11):
        want = solve_square(porous_rows(g), 1 << g.n)
        for root in range(g.n):
            x6 = lp._tree_solution(*rooted_tree(g, root))
            assert [F(c, 6) for c in x6] == want, (emit_graph6(g), root)


def test_value_matches_the_matrix_routes():
    route = fractional_porous_number.__wrapped__  # past the cache
    for g in trees_up_to(14):
        assert tree_porous_number(g) == route(g), emit_graph6(g)


@settings(max_examples=150, deadline=None)
@given(trees(max_n=16))
def test_value_matches_on_trees_of_any_degree(g):
    # a vertex of degree 4 or more sends the tree to the simplex
    assert tree_porous_number(g) == fractional_porous_number.__wrapped__(g)


def _wrong_up(order, children, down):
    # forgets to take u's own subtree out of its parent's sum
    full = down[:]
    for v in order:
        for u in children[v]:
            full[u] += full[v] >> 1
    return full


def test_a_wrong_up_pass_fails_both_judges(monkeypatch):
    monkeypatch.setattr(lp, "_tree_up", _wrong_up)
    assert _residual_mismatches([path(5), star(3)], 7)
    with pytest.raises(CertificateError):
        tree_porous_number(path(5))


def _tamper_x(monkeypatch):
    real = lp._tree_solution

    def solve(order, children):
        x6 = real(order, children)
        x6[0] += 1
        return x6

    monkeypatch.setattr(lp, "_tree_solution", solve)


def _tamper_check(monkeypatch, tamper):
    real = lp._check_tree_certificate

    def check(x6, full, value):
        full, value = tamper(list(full), value)
        real(x6, full, value)

    monkeypatch.setattr(lp, "_check_tree_certificate", check)


def _bump_residual(full, value):
    full[-1] += 4
    return full, value


def _lower_objective(full, value):
    return full, value - F(1, 7)


TAMPERS = {
    "x": _tamper_x,
    "residual": lambda mp: _tamper_check(mp, _bump_residual),
    "objective": lambda mp: _tamper_check(mp, _lower_objective),
}


@pytest.mark.parametrize("what", sorted(TAMPERS))
@pytest.mark.parametrize("g", [Graph(1), path(5), star(3)], ids=["K1", "P5", "K13"])
def test_tampered_tree_certificate_raises(monkeypatch, what, g):
    TAMPERS[what](monkeypatch)
    with pytest.raises(CertificateError):
        tree_porous_number(g)


@pytest.mark.parametrize("what", sorted(TAMPERS))
@pytest.mark.parametrize("g", [Graph(1), path(5), star(3)], ids=["K1", "P5", "K13"])
def test_tampered_code_route_certificate_raises(monkeypatch, what, g):
    # the code route shares the core, so every tamper trips it too, also
    # through the theorem2 sweep
    TAMPERS[what](monkeypatch)
    with pytest.raises(CertificateError):
        lp.rooted_porous_number(*_code_tree(canonical_code(g)))
    with pytest.raises(CertificateError):
        run_suite("theorem2", g.n)


def test_code_route_matches_the_graph_route():
    # all 1,101 subcubic trees up to order 14: the core on the code's rooted
    # view against the wrapper on the tree built from the code
    codes = [c for n in range(1, 15) for c in _subcubic_trees_cached(n)]
    assert len(codes) == 1101
    for code in codes:
        assert lp.rooted_porous_number(*_code_tree(code)) == tree_porous_number(
            tree_from_code(code)
        ), code


def test_code_route_falls_back_to_one_simplex(monkeypatch):
    # the rooted view of star(4) has the same negative tight x
    calls = []
    real = lp.solve_min_geq

    def spy(a, b, c):
        calls.append(len(c))
        return real(a, b, c)

    monkeypatch.setattr(lp, "solve_min_geq", spy)
    fractional_porous_number.cache_clear()
    assert lp.rooted_porous_number(*_code_tree(canonical_code(star(4)))) == 1
    assert calls == [5]


def test_certificate_refuses_a_negative_tight_x():
    # star(4)'s tight x has -1/6 at the centre and meets every row exactly
    g = star(4)
    order, children = rooted_tree(g, 0)
    x6 = lp._tree_solution(order, children)
    assert x6 == [-1, 2, 2, 2, 2]
    full = _residual(g, 0, x6)
    assert full == [3 << (g.n + 1)] * g.n
    with pytest.raises(CertificateError):
        lp._check_tree_certificate(x6, full, F(sum(x6), 6))


@pytest.mark.parametrize(
    "g", [cycle(4), Graph(4, [(0, 1), (2, 3)]), Graph(0)], ids=["C4", "forest", "empty"]
)
def test_non_trees_raise(g):
    with pytest.raises(NotTreeError):
        tree_porous_number(g)


def test_degree_four_falls_back_to_one_simplex(monkeypatch):
    calls = []
    real = lp.solve_min_geq

    def spy(a, b, c):
        calls.append(len(c))
        return real(a, b, c)

    monkeypatch.setattr(lp, "solve_min_geq", spy)
    fractional_porous_number.cache_clear()
    assert tree_porous_number(star(4)) == 1
    assert calls == [5]


def _refuse(name):
    def refuse(*args):
        raise RuntimeError(f"the tree route called {name}")

    return refuse


def test_theorem2_reads_no_matrix(monkeypatch):
    for module, name in ((weights, "porous_rows"), (lp, "porous_rows"), (lp, "_tight_solution")):
        monkeypatch.setattr(module, name, _refuse(name))
    fractional_porous_number.cache_clear()
    report = run_suite("theorem2", 11)
    assert report.checked == 149
    assert report.violations == []


def test_long_path_takes_the_tree_route(monkeypatch):
    monkeypatch.setattr(lp, "_tight_solution", _refuse("_tight_solution"))
    assert tree_porous_number(path(3000)) == F(3002, 6)


def test_compute_and_family_never_read_the_tree_route(monkeypatch):
    monkeypatch.setattr(lp, "_tree_solution", _refuse("_tree_solution"))
    fractional_porous_number.cache_clear()
    for argv in (["compute", "--fixture", "f2"], ["family", "--nmax", "9"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
