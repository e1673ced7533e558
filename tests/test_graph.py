import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expodom.graph import (
    Graph,
    INF,
    MAX_ORDER,
    NotSubcubicError,
    NotTreeError,
    ParseError,
    add_pendant_path,
    bfs_distances,
    connected_components,
    cycle,
    degree_partition,
    delete_vertices,
    diameter,
    format_edge_list,
    is_tree,
    is_subcubic_tree,
    parse_edge_list,
    path,
    rooted_tree,
    rooted_tree_diameter,
    star,
)
from expodom.canon import _code_tree, canonical_code, tree_from_code
from expodom.enumeration import _subcubic_trees_cached, trees_up_to
from expodom.fixtures import fixture_f2

from _oracles import graphs, random_subcubic_graph, subcubic_trees


def test_parse_simple_path():
    g = parse_edge_list("0 1\n1 2")
    assert g.n == 3
    assert g.edges() == [(0, 1), (1, 2)]


def test_parse_header_star():
    g = parse_edge_list("n 4\n0 1\n0 2\n0 3")
    assert g == star(3)


def test_parse_self_loop_rejected():
    with pytest.raises(ParseError, match="line 1"):
        parse_edge_list("0 0")


def test_parse_bad_token_names_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("0 1\n1 x")


def test_parse_id_beyond_header():
    with pytest.raises(ParseError, match="line 3"):
        parse_edge_list("n 2\n0 1\n1 2")


def test_parse_comments_and_dedup():
    g = parse_edge_list("# a comment\n0 1\n1 0  # duplicate\n")
    assert g.edge_count() == 1


def test_format_round_trip():
    g = fixture_f2()
    assert parse_edge_list(format_edge_list(g)) == g


@settings(max_examples=100, deadline=None)
@given(graphs(40))
def test_edge_list_round_trip_any_graph(g):
    assert parse_edge_list(format_edge_list(g)) == g


def test_parse_refuses_orders_beyond_graph6():
    with pytest.raises(ParseError, match="order limit"):
        parse_edge_list(f"n {MAX_ORDER + 1}")
    with pytest.raises(ParseError, match="order limit"):
        parse_edge_list(f"0 {MAX_ORDER}")


def test_constructor_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(2, [(1, 1)])


def test_bfs_path_end():
    assert bfs_distances(path(3), 0) == [0, 1, 2]


def test_bfs_star_center():
    assert bfs_distances(star(3), 0) == [0, 1, 1, 1]


def test_bfs_unreachable():
    g = Graph(4, [(0, 1), (2, 3)])
    assert bfs_distances(g, 0) == [0, 1, INF, INF]


def test_bfs_excluding_blocks():
    g = path(4)
    assert bfs_distances(g, 3, {1}) == [INF, INF, 1, 0]
    # a blocked source still reads 0 and is searched from
    assert bfs_distances(g, 1, {1, 3}) == [1, 0, 1, INF]
    for blocked in ((), {1}):
        with pytest.raises(ValueError):
            bfs_distances(g, 4, blocked)
        with pytest.raises(ValueError):
            bfs_distances(g, -1, blocked)


def test_diameter_examples():
    assert diameter(path(5)) == 4
    assert diameter(star(3)) == 2
    assert diameter(Graph(1)) == 0
    assert diameter(Graph(3, [(0, 1)])) == INF
    assert diameter(fixture_f2()) == 6


def test_rooted_diameter_of_every_code_up_to_order_14():
    # the diameter read off each code's rooted view, against the BFS one
    for n in range(1, 15):
        for code in _subcubic_trees_cached(n):
            want = diameter(tree_from_code(code))
            assert rooted_tree_diameter(*_code_tree(code)) == want, code


@settings(max_examples=150, deadline=None)
@given(subcubic_trees(max_n=60), st.data())
def test_rooted_diameter_on_random_subcubic_trees(g, data):
    root = data.draw(st.integers(0, g.n - 1))
    want = diameter(g)
    assert rooted_tree_diameter(*rooted_tree(g, root)) == want
    assert rooted_tree_diameter(*_code_tree(canonical_code(g))) == want


def test_degree_partition_path():
    v1, v2, v3 = degree_partition(path(4))
    assert v1 == {0, 3} and v2 == {1, 2} and v3 == frozenset()


def test_degree_partition_star_and_isolated():
    v1, v2, v3 = degree_partition(star(3))
    assert v1 == {1, 2, 3} and v3 == {0}
    v1, _, _ = degree_partition(Graph(2))
    assert v1 == {0, 1}


def test_degree_partition_rejects_degree_four():
    with pytest.raises(NotSubcubicError):
        degree_partition(star(4))


def test_endvertex_count_identity():
    # subcubic handshake: one more degree-3 vertex costs two endvertices
    for t in trees_up_to(9):
        if t.n >= 2:
            v1, _, v3 = degree_partition(t)
            assert len(v1) == len(v3) + 2


def test_is_subcubic_tree():
    assert is_subcubic_tree(path(1))
    assert is_subcubic_tree(star(3))
    assert not is_subcubic_tree(cycle(4))
    assert not is_subcubic_tree(star(4))
    assert not is_subcubic_tree(Graph(3, [(0, 1)]))


def test_rooted_tree_refuses_every_non_tree():
    # the empty graph is no tree either, and root 0 is no vertex of it
    for g in (Graph(0), cycle(4), Graph(3, [(0, 1)])):
        assert not is_tree(g)
        with pytest.raises(NotTreeError):
            rooted_tree(g, 0)


def test_bfs_symmetry_random_graphs():
    rng = random.Random(1905)
    for _ in range(100):
        g = random_subcubic_graph(rng)
        dist = [bfs_distances(g, u) for u in range(g.n)]
        for u in range(g.n):
            for v in range(g.n):
                assert dist[u][v] == dist[v][u]


def test_components_and_delete():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    assert connected_components(g) == [[0, 1, 2], [3, 4]]
    smaller, old_to_new = delete_vertices(g, [1])
    assert smaller.n == 4
    assert old_to_new[0] == 0 and old_to_new[1] is None
    assert smaller.edge_count() == 1


def test_add_pendant_path():
    g = add_pendant_path(path(1), 0, 3)
    assert g == path(4)


@pytest.mark.parametrize("length", [-1, -2])
def test_add_pendant_path_rejects_negative_lengths(length):
    with pytest.raises(ValueError, match="path length must be non-negative"):
        add_pendant_path(path(2), 0, length)
