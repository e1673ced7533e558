import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from expodom.canon import canonical_code, tree_from_code
from expodom.graph import MAX_ORDER, Graph, ParseError, path, star
from expodom.graph6 import emit_graph6, graph6_from_code, parse_graph6
from expodom.enumeration import _subcubic_trees_cached, trees_up_to

from _oracles import graphs, random_subcubic_graph, random_subcubic_tree


def test_emit_p2():
    # n=2 encodes as 'A'; the single upper-triangle bit pads to 100000
    assert emit_graph6(path(2)) == "A_"


def test_round_trip_star():
    assert parse_graph6(emit_graph6(star(3))) == star(3)


def test_round_trip_enumerated_trees():
    for t in trees_up_to(10):
        assert parse_graph6(emit_graph6(t)) == t


def test_round_trip_random_graphs():
    rng = random.Random(77)
    for _ in range(50):
        g = random_subcubic_graph(rng)
        assert parse_graph6(emit_graph6(g)) == g


def test_header_tolerated():
    assert parse_graph6(">>graph6<<A_\n") == path(2)


def test_truncated_rejected():
    with pytest.raises(ParseError):
        parse_graph6("~~")
    with pytest.raises(ParseError):
        parse_graph6("D")  # n=5 needs bit characters


def test_invalid_character_rejected():
    with pytest.raises(ParseError):
        parse_graph6("A ")


def test_large_order_prefix():
    g = Graph(63)  # first order needing the long form
    assert parse_graph6(emit_graph6(g)) == g


def test_empty_and_single():
    assert parse_graph6(emit_graph6(Graph(0))).n == 0
    assert parse_graph6(emit_graph6(Graph(1))) == Graph(1)


def test_against_networkx_codec():
    nx = pytest.importorskip("networkx")
    rng = random.Random(31337)
    graphs = list(trees_up_to(8)) + [random_subcubic_graph(rng) for _ in range(30)]
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        want = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert emit_graph6(g) == want
        back = nx.from_graph6_bytes(emit_graph6(g).encode())
        assert sorted(map(tuple, map(sorted, back.edges()))) == g.edges()


@settings(max_examples=150, deadline=None)
@given(graphs(70))
def test_round_trip_any_graph(g):
    # orders 0..70 cross the boundary between the 1-byte and 4-byte prefix
    assert parse_graph6(emit_graph6(g)) == g


def test_emit_refuses_orders_beyond_the_prefix():
    # 258048 would need the 8-byte prefix; the order is checked before any
    # bit is built, so a stand-in that has only an order is enough
    with pytest.raises(ValueError, match=str(MAX_ORDER)):
        emit_graph6(SimpleNamespace(n=MAX_ORDER + 1))


@pytest.mark.parametrize("text", ["A@", "A`"])
def test_nonzero_padding_rejected(text):
    # n=2 has one bit; "@" sets only a padding bit, "`" the edge and one
    with pytest.raises(ParseError, match="nonzero padding bits"):
        parse_graph6(text)


def test_round_trip_long_prefix_trees():
    for g in (path(3000), random_subcubic_tree(random.Random(500), 500)):
        text = emit_graph6(g)
        assert text[0] == "~"
        assert parse_graph6(text) == g


def test_graph6_from_code_matches_the_built_tree():
    # every class of orders 1-16, then codes of seeded random trees; from
    # order 63 on the order takes the four-byte prefix
    codes = [c for n in range(1, 17) for c in _subcubic_trees_cached(n)]
    rng = random.Random(28)
    codes += [
        canonical_code(random_subcubic_tree(rng, n)) for n in (17, 25, 40, 63, 64, 300)
    ]
    for code in codes:
        assert graph6_from_code(code) == emit_graph6(tree_from_code(code)), code
    assert graph6_from_code(codes[-1])[0] == "~"


@pytest.mark.parametrize(
    "code",
    [b"", b"(", b")", b"(()", b"())", b")(", b"()()", b"(())()", b"(x)",
     b"[]", "()", b"( )", b"()(", b"()x"],
)
def test_graph6_from_code_rejects_malformed_codes_like_tree_from_code(code):
    with pytest.raises(ValueError) as built:
        tree_from_code(code)
    with pytest.raises(ValueError) as written:
        graph6_from_code(code)
    assert str(written.value) == str(built.value)
