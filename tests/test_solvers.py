import hashlib
import json
import math
import random
from fractions import Fraction
from itertools import combinations, takewhile

import pytest
from hypothesis import example, given, settings, strategies as st

from expodom import solvers
from expodom.graph import (
    CertificateError,
    Graph,
    connected_components,
    cycle,
    path,
    star,
)
from expodom.graph6 import emit_graph6
from expodom.enumeration import trees_up_to
from expodom.fixtures import fixture_f1, fixture_f2
from expodom.lp import fractional_porous_number
from expodom.solvers import (
    all_minimum_porous_sets,
    domination_number,
    domination_with_forced_vertex,
    exponential_domination_number,
    exponential_parameters,
    porous_exponential_domination_number,
    restricted_domination_number,
)
from expodom.weights import (
    is_dominating,
    is_exponential_dominating,
    is_porous_exponential_dominating,
    is_restricted_dominating,
)

from _oracles import (
    brute_all_minimum,
    brute_minimum,
    fixture_f2_porous_witness,
    graphs,
    milp_gamma_e_star,
    random_relabel,
    random_subcubic_graph,
    random_subcubic_graph_of_order,
    random_subcubic_tree,
)


def test_gamma_examples():
    assert domination_number(path(3)).value == 1
    assert domination_number(star(3)).value == 1
    assert domination_number(fixture_f1(1)).value == 3


def test_gamma_long_path_has_no_recursion_limit():
    # 1034 dominators: deeper than the default recursion limit
    g = path(3100)
    cert = domination_number(g)
    assert cert.value == 1034
    assert is_dominating(g, cert.witness)


def test_restricted_examples():
    assert restricted_domination_number(Graph(1), ()).value == 0
    assert restricted_domination_number(path(3), range(3)).value == 1
    cert = restricted_domination_number(path(4), [1, 2, 3])
    assert cert.value == 1
    assert cert.witness == (2,)
    assert domination_number(path(4)).value == 2


def test_restricted_matches_gamma_on_full_target():
    for t in trees_up_to(7):
        assert (
            restricted_domination_number(t, range(t.n)).value
            == domination_number(t).value
        )


def test_forced_vertex_examples():
    assert domination_with_forced_vertex(path(3), 1) == 1
    assert domination_with_forced_vertex(path(3), 0) == 2
    assert domination_with_forced_vertex(star(3), 1) == 2


def test_gamma_e_examples():
    assert exponential_domination_number(star(3)).value == 1
    assert exponential_domination_number(path(4)).value == 2
    assert exponential_domination_number(fixture_f1(2)).value == 4


def test_gamma_e_star_examples():
    assert porous_exponential_domination_number(star(3)).value == 1
    assert porous_exponential_domination_number(fixture_f1(1)).value == 3
    assert porous_exponential_domination_number(fixture_f2()).value == 4


def test_all_minimum_porous_examples():
    assert all_minimum_porous_sets(path(2)) == [(0,), (1,)]
    assert (0,) in all_minimum_porous_sets(star(3))
    assert fixture_f2_porous_witness() in all_minimum_porous_sets(fixture_f2())


def test_against_bruteforce_trees():
    for t in trees_up_to(7):
        want_g, wit_g = brute_minimum(t, is_dominating)
        got = domination_number(t)
        assert (got.value, got.witness) == (want_g, wit_g)

        want_e, wit_e = brute_minimum(t, is_exponential_dominating)
        got = exponential_domination_number(t)
        assert (got.value, got.witness) == (want_e, wit_e)

        want_p, wit_p = brute_minimum(t, is_porous_exponential_dominating)
        got = porous_exponential_domination_number(t)
        assert (got.value, got.witness) == (want_p, wit_p)


def _exponential_pair(g):
    return exponential_domination_number(g), porous_exponential_domination_number(g)


def _check_exponential_against_bruteforce(g):
    # same value and the same lexicographically first witness
    ge, ges = _exponential_pair(g)
    assert (ge.value, ge.witness) == brute_minimum(g, is_exponential_dominating)
    assert (ges.value, ges.witness) == brute_minimum(
        g, is_porous_exponential_dominating
    )


def test_against_bruteforce_cycles():
    for k in range(3, 11):
        g = cycle(k)
        assert domination_number(g).value == brute_minimum(g, is_dominating)[0]
        _check_exponential_against_bruteforce(g)


def test_against_bruteforce_random_graphs():
    rng = random.Random(424242)
    for _ in range(20):
        g = random_subcubic_graph(rng, n_max=8)
        if g.n == 0:
            continue
        assert domination_number(g).value == brute_minimum(g, is_dominating)[0]
        _check_exponential_against_bruteforce(g)


def test_all_minimum_porous_matches_bruteforce():
    for t in trees_up_to(6):
        _, want = brute_all_minimum(t, is_porous_exponential_dominating)
        assert all_minimum_porous_sets(t) == sorted(want)


def test_disconnected_decomposition():
    g = Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)])
    assert domination_number(g).value == brute_minimum(g, is_dominating)[0]
    assert (
        exponential_domination_number(g).value
        == brute_minimum(g, is_exponential_dominating)[0]
    )
    sets = all_minimum_porous_sets(g)
    _, want = brute_all_minimum(g, is_porous_exponential_dominating)
    assert sets == sorted(want)


def test_witnesses_pass_their_predicates():
    for t in trees_up_to(8):
        cert = domination_number(t)
        assert is_dominating(t, cert.witness)
        cert = restricted_domination_number(t, range(0, t.n, 2))
        assert is_restricted_dominating(t, cert.witness, range(0, t.n, 2))
        cert = exponential_domination_number(t)
        assert is_exponential_dominating(t, cert.witness)
        cert = porous_exponential_domination_number(t)
        assert is_porous_exponential_dominating(t, cert.witness)


def test_parameter_chain():
    graphs = list(trees_up_to(8)) + [cycle(k) for k in range(3, 9)]
    for g in graphs:
        lp = fractional_porous_number(g)
        ges = porous_exponential_domination_number(g).value
        ge = exponential_domination_number(g).value
        gam = domination_number(g).value
        assert lp <= ges <= ge <= gam


def test_tree_bracket():
    # published bracket: (n+2)/6 <= gamma_e <= (n+2)/3 on subcubic trees
    for t in trees_up_to(9):
        ge = exponential_domination_number(t).value
        assert math.ceil(Fraction(t.n + 2, 6)) <= ge
        assert Fraction(ge) <= Fraction(t.n + 2, 3)


def test_forced_vertex_bounds():
    for t in trees_up_to(6):
        gamma = domination_number(t).value
        for x in range(t.n):
            forced = domination_with_forced_vertex(t, x)
            assert gamma <= forced <= gamma + 1


def _cover_search_matches_brute_force(g):
    # per vertex x: the forced value, and the restricted value and first
    # witness on V - N[x], the targets a forced cover of x leaves
    for x in range(g.n):
        targets = sorted(set(range(g.n)) - {x, *g.adj[x]})
        forced, _ = brute_minimum(g, lambda h, c: x in c and is_dominating(h, c))
        assert domination_with_forced_vertex(g, x) == forced
        cert = restricted_domination_number(g, targets)
        assert (cert.value, cert.witness) == brute_minimum(
            g, lambda h, c: is_restricted_dominating(h, c, targets)
        )


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=8).flatmap(
    lambda g: st.tuples(st.just(g), st.integers(0, (1 << g.n) - 1))
))
@example((Graph(0), 0))
@example((Graph(5, [(0, 1), (2, 3)]), 0b10101))
def test_restricted_domination_matches_brute_force(case):
    # any target set, given as a bit mask: the same value and the same
    # lexicographically first witness as the brute-force scan
    g, mask = case
    targets = [v for v in range(g.n) if mask >> v & 1]
    cert = restricted_domination_number(g, targets)
    assert (cert.value, cert.witness) == brute_minimum(
        g, lambda h, c: is_restricted_dominating(h, c, targets)
    )


def test_cover_search_matches_brute_force_on_trees():
    for t in trees_up_to(9):
        _cover_search_matches_brute_force(t)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=7))
@example(Graph(0))
@example(Graph(5, [(0, 1), (2, 3)]))
def test_cover_search_matches_brute_force_on_graphs(g):
    _cover_search_matches_brute_force(g)


def test_tampered_witness_raises(monkeypatch):
    # a cover search or subset search that returns a non-dominating set
    bad = (1, (0,))
    monkeypatch.setattr(solvers, "_min_cover", lambda g, targets, forced=(): bad)
    monkeypatch.setattr(solvers, "_per_component", lambda g, take: [(1, [(0,)])] * 2)
    g = path(5)
    for call in (
        lambda: domination_number(g),
        lambda: restricted_domination_number(g, [4]),
        lambda: domination_with_forced_vertex(g, 0),
        lambda: exponential_domination_number(g),
        lambda: porous_exponential_domination_number(g),
        lambda: exponential_parameters(g),
    ):
        with pytest.raises(CertificateError):
            call()


@pytest.mark.parametrize("tampered", ["gamma_e", "gamma_e_star"])
def test_tampered_fused_witness_raises(monkeypatch, tampered):
    # the shared scan hands back one bad witness: its own check must fire
    g = path(5)
    optima = solvers._per_component(g, solvers._first_both)  # [gamma_e_star, gamma_e]
    optima[1 if tampered == "gamma_e" else 0] = (1, [(0,)])
    monkeypatch.setattr(solvers, "_per_component", lambda g, take: optima)
    with pytest.raises(CertificateError, match=f"^{tampered} witness"):
        exponential_parameters(g)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=7))
@example(Graph(0))
@example(Graph(5, [(0, 1), (2, 3)]))
@example(Graph(6, [(u, v) for u in range(3) for v in range(3, 6)]))  # K_{3,3}
@example(Graph(10, [(i, (i + 1) % 5) for i in range(5)]
               + [(i, i + 5) for i in range(5)]
               + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]))  # Petersen
def test_porous_stream_is_every_feasible_set_in_order(g):
    streamed = [(k, leaf) for k, sets in solvers._porous_leaves(g) for leaf in sets]
    start = max(1, math.ceil(fractional_porous_number(g))) if g.n else 0
    want = [
        (k, cand)
        for k in range(start, g.n + 1)
        for cand in combinations(range(g.n), k)
        if is_porous_exponential_dominating(g, cand)
    ]
    assert streamed == want


def _stream_cases():
    """Trees, the same trees with two leaf-to-leaf chords, and a forest, of
    orders 12 to 14: long enough loops for a level to end early."""
    rng = random.Random(1412)
    cases = []
    for n in (12, 13, 14):
        t = random_subcubic_tree(rng, n)
        leaves = [v for v in range(n) if t.degree(v) == 1]
        chords = [(leaves[0], leaves[1]), (leaves[2], leaves[3])]
        cases.append(pytest.param(t, id=f"tree{n}"))
        cases.append(pytest.param(Graph(n, t.edges() + chords), id=f"cyclic{n}"))
    a, b = random_subcubic_tree(rng, 6), random_subcubic_tree(rng, 7)
    forest = Graph(13, a.edges() + [(u + 6, v + 6) for u, v in b.edges()])
    return cases + [pytest.param(forest, id="forest13")]


@pytest.mark.parametrize("g", _stream_cases())
def test_porous_stream_matches_combinations_at_orders_12_to_14(g):
    # brute force up to one level past the first feasible one
    want, first, last = [], None, 0
    while first is None or last <= first:
        last += 1
        found = [c for c in combinations(range(g.n), last)
                 if is_porous_exponential_dominating(g, c)]
        if found and first is None:
            first = last
        want += [(last, c) for c in found]
    levels = takewhile(lambda level: level[0] <= last, solvers._porous_leaves(g))
    assert [(k, leaf) for k, sets in levels for leaf in sets] == want


def test_gamma_e_star_matches_milp():
    # orders past brute force, judged by an integer program
    pytest.importorskip("scipy.optimize")
    rng = random.Random(26)
    cyclic = disconnected = 0
    for _ in range(12):
        g = random_subcubic_graph_of_order(rng, rng.randint(16, 26))
        parts = len(connected_components(g))
        cyclic += len(g.edges()) > g.n - parts
        disconnected += parts > 1
        assert porous_exponential_domination_number(g).value == milp_gamma_e_star(g)
    assert (cyclic, disconnected) == (5, 4)


def test_porous_readers_stop_at_the_first_level(monkeypatch):
    # on f2 (gamma_e_star = 4, gamma_e = 6) the porous readers must neither
    # run the blocked check nor search the sets of size 5
    checked, sizes = [], set()
    search, blocked_check = solvers._porous_leaves, solvers.is_exponential_dominating

    def read(sets):
        for leaf in sets:
            sizes.add(len(leaf))
            yield leaf

    def recorded_search(g):
        for k, sets in search(g):
            yield k, read(sets)

    def counted_check(g, dominators):
        checked.append(dominators)
        return blocked_check(g, dominators)

    monkeypatch.setattr(solvers, "_porous_leaves", recorded_search)
    monkeypatch.setattr(solvers, "is_exponential_dominating", counted_check)
    g = fixture_f2()
    assert porous_exponential_domination_number(g).value == 4
    assert fixture_f2_porous_witness() in all_minimum_porous_sets(g)
    assert (checked, sizes) == ([], {4})
    # the blocked reader does read on, through the same instruments
    assert exponential_domination_number(g).value == 6
    assert checked and sizes == {4, 5, 6}


def test_searches_solve_no_lp(monkeypatch, capsys):
    # the simplex runs only where gamma_ef_star is reported: no search, no
    # family step and no `compute --no-lp` may reach it
    from expodom import cli, lp
    from expodom.family import generate_family, recognize, tau

    solved, solve = [], lp.solve_exact
    monkeypatch.setattr(
        lp, "solve_exact", lambda model: solved.append(model.size) or solve(model)
    )
    lp.fractional_porous_number.cache_clear()
    g = fixture_f2()
    exponential_parameters(g)
    exponential_domination_number(g)
    porous_exponential_domination_number(g)
    all_minimum_porous_sets(g)
    tau(g, 0)
    recognize(fixture_f1(1))
    generate_family(8)
    assert cli.main(["compute", "--fixture", "f2", "--no-lp"]) == 0
    assert json.loads(capsys.readouterr().out)["gamma_ef_star"] is None
    assert solved == []


# sha256 over (value, witness) of gamma_e and gamma_e_star and over
# all_minimum_porous_sets on _search_corpus(), computed with the earlier
# subset search that added plain int lists per node.  Equal digests mean the
# same optima and the same lexicographically first witnesses on every graph.
PINNED_SEARCH_DIGEST = "672da8a50bb7e2d96b390725963ac37121f41414dab79c2e0debbaceb91f9937"


def _search_corpus():
    rng = random.Random(2016)
    graphs = [random_subcubic_graph(rng, 12) for _ in range(60)]
    graphs += [
        random_subcubic_graph_of_order(rng, rng.randint(13, 20)) for _ in range(40)
    ]
    return graphs


def test_exponential_search_pinned_values():
    digest = hashlib.sha256()
    cyclic = disconnected = 0
    for g in _search_corpus():
        parts = len(connected_components(g))
        cyclic += len(g.edges()) > g.n - parts
        disconnected += parts > 1
        ge, ges = _exponential_pair(g)
        line = " ".join(
            [emit_graph6(g), str(ge.value), repr(ge.witness), "|",
             str(ges.value), repr(ges.witness), "|",
             *map(repr, all_minimum_porous_sets(g))]
        )
        digest.update(line.encode() + b"\n")
    assert (cyclic, disconnected) == (33, 33)
    assert digest.hexdigest() == PINNED_SEARCH_DIGEST


def test_exponential_parameters_pinned_values():
    # the shared scan reproduces the pin of the two separate searches
    digest = hashlib.sha256()
    for g in _search_corpus():
        ge, ges = exponential_parameters(g)
        line = " ".join(
            [emit_graph6(g), str(ge.value), repr(ge.witness), "|",
             str(ges.value), repr(ges.witness), "|",
             *map(repr, all_minimum_porous_sets(g))]
        )
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == PINNED_SEARCH_DIGEST


# sha256 over the value and witness of gamma, the value and witness of
# restricted domination on a seeded target set, and the forced value at every
# vertex, on _search_corpus() and fixture_f1(1..8), computed with the earlier
# cover search that pruned by suffix unions alone.  Equal digests mean the
# same optima and the same lexicographically first witnesses.
PINNED_COVER_DIGEST = "c481e76924fae872abb897c74fd9b86379e37e5037b096e7ed358841594760f1"


def test_cover_search_pinned_values():
    digest = hashlib.sha256()
    rng = random.Random(2929)
    for g in _search_corpus() + [fixture_f1(k) for k in range(1, 9)]:
        gamma = domination_number(g)
        targets = sorted(rng.sample(range(g.n), rng.randint(0, g.n)))
        restricted = restricted_domination_number(g, targets)
        forced = [domination_with_forced_vertex(g, x) for x in range(g.n)]
        line = " ".join(
            [emit_graph6(g), str(gamma.value), repr(gamma.witness), "|",
             repr(targets), str(restricted.value), repr(restricted.witness), "|",
             repr(forced)]
        )
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == PINNED_COVER_DIGEST


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=8))
@example(Graph(0))
@example(Graph(1))
@example(Graph(6, [(1, 2), (2, 3)]))
@example(Graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6)]))
def test_exponential_parameters_match_separate_searches(g):
    # same values and witnesses as one search per parameter
    assert exponential_parameters(g) == _exponential_pair(g)


@pytest.mark.parametrize(
    "g",
    [
        Graph(1),
        Graph(2),
        path(2),
        Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]),  # K4
        Graph(6, [(1, 2), (2, 3)]),  # three isolated vertices
    ],
    ids=["K1", "2K1", "K2", "K4", "P3+3K1"],
)
def test_exponential_search_small_field_widths(g):
    _check_exponential_against_bruteforce(g)
    _, want = brute_all_minimum(g, is_porous_exponential_dominating)
    assert all_minimum_porous_sets(g) == sorted(want)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32))
def test_parameter_chain_and_relabeling(seed):
    rng = random.Random(seed)
    g = random_subcubic_graph(rng)
    h = random_relabel(rng, g)
    values = []
    for graph in (g, h):
        gam = domination_number(graph)
        ge, ges = _exponential_pair(graph)
        lp = fractional_porous_number(graph)
        assert lp <= ges.value <= ge.value <= gam.value
        assert is_dominating(graph, gam.witness)
        assert is_exponential_dominating(graph, ge.witness)
        assert is_porous_exponential_dominating(graph, ges.witness)
        values.append((lp, ges.value, ge.value, gam.value))
    assert values[0] == values[1]
