import hashlib
import random
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from expodom.canon import (
    canonical_code,
    canonical_order,
    pendant_path_code,
    rooted_code,
    rooted_codes,
    tree_from_code,
    tree_isomorphism_map,
)
from expodom.graph import (
    Graph,
    NotTreeError,
    add_pendant_path,
    cycle,
    delete_vertices,
    is_tree,
    path,
    star,
)
from expodom.enumeration import enumerate_subcubic_trees, trees_up_to
from expodom.family import generate_family
from expodom.fixtures import fixture_f1
from expodom.graph6 import emit_graph6

from _oracles import (
    automorphism_count,
    graphs,
    labeled_copies,
    random_relabel,
    random_subcubic_tree,
    relabel,
    tree_centers,
    trees,
)


def test_code_invariant_under_relabeling():
    rng = random.Random(11)
    for t in trees_up_to(8):
        code = canonical_code(t)
        for _ in range(3):
            assert canonical_code(random_relabel(rng, t)) == code


def test_codes_separate_classes():
    assert canonical_code(path(4)) != canonical_code(star(3))
    assert canonical_code(fixture_f1(1)) != canonical_code(path(7))
    codes = [canonical_code(t) for t in trees_up_to(9)]
    assert len(codes) == len(set(codes))


def test_non_tree_rejected():
    with pytest.raises(NotTreeError):
        canonical_code(cycle(4))
    with pytest.raises(NotTreeError):
        rooted_code(Graph(3, [(0, 1)]), 0)
    with pytest.raises(NotTreeError):
        tree_centers(cycle(4))


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=7))
@example(Graph(0))
@example(Graph(1))
@example(Graph(2))  # two centers, not adjacent
@example(cycle(5))
@example(Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]))  # a forest of two P3
@example(Graph(5, [(0, 1), (1, 2), (2, 0), (3, 4)]))  # a triangle and an edge
@example(path(7))
@example(star(3))
def test_walk_is_the_tree_check(g):
    # the coding functions run no tree check of their own before the walk
    calls = [
        canonical_code,
        canonical_order,
        automorphism_count,
        lambda h: tree_isomorphism_map(h, h),
    ]
    if g.n:
        calls.append(lambda h: rooted_code(h, 0))
    for call in calls:
        if is_tree(g):
            call(g)
        else:
            with pytest.raises(NotTreeError):
                call(g)


def test_canonical_graph_is_stable():
    rng = random.Random(23)
    for t in trees_up_to(7):
        want = tree_from_code(canonical_code(t))
        for _ in range(3):
            g = random_relabel(rng, t)
            assert tree_from_code(canonical_code(g)) == want


def _random_labeled_tree(rng, n):
    """A uniform labeled tree of unbounded degree: vertex i > 0 joins a
    random earlier vertex, then the labels are shuffled."""
    return random_relabel(
        rng, Graph(n, [(i, rng.randrange(i)) for i in range(1, n)])
    )


def _assert_round_trip(g):
    code, order = canonical_order(g)
    # the relabel route builds the representative without tree_from_code
    assert tree_from_code(code) == relabel(g, order)
    assert canonical_code(tree_from_code(code)) == code


def test_tree_from_code_round_trip():
    rng = random.Random(1974)
    for t in trees_up_to(11):
        _assert_round_trip(t)
        _assert_round_trip(random_relabel(rng, t))
    for _ in range(200):
        g = _random_labeled_tree(rng, rng.randint(1, 60))
        _assert_round_trip(g)
        _assert_round_trip(random_relabel(rng, g))


def test_tree_from_code_reads_children_in_code_order():
    # root 0, children 1 and 2 in code order, and 1's child numbered next
    assert tree_from_code(b"((())())") == Graph(4, [(0, 1), (0, 2), (1, 3)])
    assert tree_from_code(b"()") == Graph(1)


@pytest.mark.parametrize(
    "code",
    [b"", b"(", b")", b"(()", b"())", b")(", b"()()", b"(())()", b"(x)",
     b"[]", "()", b"( )"],
)
def test_tree_from_code_rejects_malformed(code):
    with pytest.raises(ValueError):
        tree_from_code(code)


def test_isomorphism_map_is_an_isomorphism():
    rng = random.Random(37)
    for t in trees_up_to(8):
        other = random_relabel(rng, t)
        m = tree_isomorphism_map(t, other)
        assert m is not None
        mapped = Graph(t.n, [(m[u], m[v]) for u, v in t.edges()])
        assert mapped == other


def test_isomorphism_map_rejects_different_trees():
    assert tree_isomorphism_map(path(4), star(3)) is None


def test_rooted_code_orbits():
    # in a path, the two endpoints share an orbit, the middles likewise
    p = path(4)
    assert rooted_code(p, 0) == rooted_code(p, 3)
    assert rooted_code(p, 1) == rooted_code(p, 2)
    assert rooted_code(p, 0) != rooted_code(p, 1)


@pytest.mark.parametrize("root", [-1, 3, 5])
def test_rooted_code_rejects_roots_out_of_range(root):
    with pytest.raises(ValueError, match=f"vertex {root} out of range"):
        rooted_code(path(3), root)


def test_rooted_code_of_the_empty_graph_is_no_tree():
    with pytest.raises(NotTreeError):
        rooted_code(Graph(0), 0)


def test_rooted_codes_match_rooted_code_on_small_trees():
    for t in trees_up_to(13):
        assert rooted_codes(t) == [rooted_code(t, v) for v in range(t.n)]


@settings(max_examples=200, deadline=None)
@given(trees(max_n=40))
@example(Graph(1))
@example(path(2))
@example(path(40))
@example(star(39))
def test_rooted_codes_match_rooted_code(g):
    # any degree: a vertex's up code must sort in among many equal branches
    assert rooted_codes(g) == [rooted_code(g, v) for v in range(g.n)]


@pytest.mark.parametrize(
    "g",
    [
        Graph(0),
        cycle(5),
        Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]),  # a forest of two P3
        Graph(3, [(1, 2)]),  # vertex 0 alone: the walk from 0 misses the rest
    ],
    ids=["empty", "C5", "forest", "isolated-root"],
)
def test_rooted_codes_reject_non_trees(g):
    with pytest.raises(NotTreeError):
        rooted_codes(g)


def test_pendant_path_code_matches_the_built_tree():
    for t in trees_up_to(10):
        for x in range(t.n):
            for length in range(4):
                grown = add_pendant_path(t, x, length)
                assert pendant_path_code(t, x, length) == canonical_code(grown)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16), st.integers(0, 2**32))
@example(1, 0)
@example(2, 0)
def test_pendant_path_code_matches_on_random_trees(n, seed):
    # read off g's codes: the grown tree's centers on g's parent chain from
    # the attach vertex, or on the new path itself
    g = random_subcubic_tree(random.Random(seed), n)
    for x in range(n):
        for length in range(4):
            grown = add_pendant_path(g, x, length)
            assert pendant_path_code(g, x, length) == canonical_code(grown)


def test_pendant_path_code_checks_its_input():
    with pytest.raises(ValueError, match="attach vertex 3 out of range"):
        pendant_path_code(path(3), 3, 1)
    with pytest.raises(NotTreeError):
        pendant_path_code(cycle(4), 0, 2)


@pytest.mark.parametrize("length", [-1, -3])
def test_pendant_path_code_rejects_negative_lengths(length):
    # a length of 0 codes the tree itself; a negative one is no path
    with pytest.raises(ValueError, match="path length must be non-negative"):
        pendant_path_code(path(3), 0, length)


def brute_aut(g: Graph) -> int:
    edges = {frozenset(e) for e in g.edges()}
    count = 0
    for perm in permutations(range(g.n)):
        if all(frozenset((perm[u], perm[v])) in edges for u, v in g.edges()):
            count += 1
    return count


def test_automorphism_count_vs_bruteforce():
    for n in range(1, 8):
        for t in enumerate_subcubic_trees(n):
            assert automorphism_count(t) == brute_aut(t)


def _to_networkx(nx, g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def _move_a_leaf(rng, t):
    """``t`` with one leaf re-hung at a random vertex of degree at most 2:
    sometimes isomorphic to ``t``, mostly a near miss."""
    leaf = rng.choice([v for v in range(t.n) if t.degree(v) == 1])
    rest, _ = delete_vertices(t, [leaf])
    x = rng.choice([v for v in range(rest.n) if rest.degree(v) <= 2])
    return Graph(t.n, rest.edges() + [(x, rest.n)])


def test_automorphism_count_vs_networkx():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    for t in trees_up_to(10):
        h = _to_networkx(nx, t)
        want = sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())
        assert automorphism_count(t) == want


def test_codes_agree_with_networkx_isomorphism():
    nx = pytest.importorskip("networkx")
    rng = random.Random(1986)
    outcomes = set()
    for _ in range(80):
        a = random_subcubic_tree(rng, rng.randint(20, 120))
        kind = rng.randrange(3)
        if kind == 0:
            b = random_relabel(rng, a)
        elif kind == 1:
            b = random_relabel(rng, _move_a_leaf(rng, a))
        else:
            b = random_subcubic_tree(rng, a.n)
        same = canonical_code(a) == canonical_code(b)
        assert same == nx.is_isomorphic(_to_networkx(nx, a), _to_networkx(nx, b))
        outcomes.add((kind, same))
    # relabelings always match, and moved leaves land on both sides
    assert {(0, True), (1, True), (1, False)} <= outcomes


def test_deep_path_needs_no_recursion():
    # far deeper than the interpreter's recursion limit
    p = path(2500)
    q = random_relabel(random.Random(5), p)
    code = canonical_code(p)
    assert code == canonical_code(q) == rooted_code(p, 1249)
    assert len(code) == 5000
    assert tree_from_code(canonical_code(p)) == tree_from_code(canonical_code(q))
    assert rooted_code(p, 0) == b"(" * 2500 + b")" * 2500
    assert automorphism_count(p) == 2
    m = tree_isomorphism_map(p, q)
    assert Graph(p.n, [(m[u], m[v]) for u, v in p.edges()]) == q


def test_labeled_copies_path():
    assert labeled_copies(path(3)) == 3  # n!/|Aut| = 6/2
    assert labeled_copies(star(3)) == 4  # 24/6


# sha256 digests computed with the earlier recursive AHU walks and the
# level-sequence enumeration.  Equal digests mean the same codes, the same
# canonical orders, automorphism counts and rooted codes at every vertex,
# and the same representatives in the same order.
PINNED_CANON_DIGESTS = {
    "canon": "5dd40e395273fd9c8ac664e303487158df120bd9bc1c502ead8a2cc2c1a7bfff",
    "enumerate": "7ab593406d8c2202883e7e71eda96527a1e909641b334d99e39b32b34ac4db3f",
    "family": "097fd5868fa02d14b029bb1c2d68f1d8e96eb0d2f586033c04a0facd340007c8",
}


def _canon_lines():
    rng = random.Random(2016)
    for t in trees_up_to(11):
        for g in (t, random_relabel(rng, t), random_relabel(rng, t)):
            code, order = canonical_order(g)
            yield b" ".join(
                [emit_graph6(g).encode(), code, canonical_code(g),
                 repr(order).encode(), str(automorphism_count(g)).encode(),
                 *(rooted_code(g, v) for v in range(g.n))]
            )


def test_canon_enumeration_family_pinned_values():
    parts = {
        "canon": _canon_lines(),
        "enumerate": (
            emit_graph6(t).encode()
            for n in range(1, 14)
            for t in enumerate_subcubic_trees(n)
        ),
        "family": (emit_graph6(t).encode() for t in generate_family(11)),
    }
    digests = {}
    for name, lines in parts.items():
        digest = hashlib.sha256()
        for line in lines:
            digest.update(line + b"\n")
        digests[name] = digest.hexdigest()
    assert digests == PINNED_CANON_DIGESTS
