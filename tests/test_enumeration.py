import pytest

from expodom.canon import canonical_code, tree_from_code
from expodom.enumeration import (
    _automorphism_count,
    _subcubic_trees_cached,
    count_subcubic_trees,
    enumerate_subcubic_trees,
    labeled_count_from_classes,
    labeled_subcubic_tree_count,
    otter_class_count,
    pruefer_class_count,
)
from expodom.graph import is_subcubic_tree, is_tree, path, star

from _oracles import automorphism_count, tree_from_pruefer


def test_smallest_orders():
    assert count_subcubic_trees(1) == 1
    assert count_subcubic_trees(2) == 1
    assert count_subcubic_trees(3) == 1


def test_order_four_classes():
    trees = list(enumerate_subcubic_trees(4))
    assert len(trees) == 2
    codes = {canonical_code(t) for t in trees}
    assert codes == {canonical_code(path(4)), canonical_code(star(3))}


def test_order_six_count_matches_oracle():
    assert count_subcubic_trees(6) == 4 == pruefer_class_count(6)


def test_counts_match_literal_oracle_small():
    for n in range(1, 8):
        assert count_subcubic_trees(n) == pruefer_class_count(n)


def test_counts_match_labeled_identity():
    for n in range(1, 11):
        assert labeled_count_from_classes(n) == labeled_subcubic_tree_count(n)


def test_automorphism_counts_read_off_codes_match_the_walk():
    # every class of orders 1-16: one pass over the code against the walk
    # over the built tree, which brute force and networkx judge in test_canon
    classes = 0
    for n in range(1, 17):
        for code in _subcubic_trees_cached(n):
            want = automorphism_count(tree_from_code(code))
            assert _automorphism_count(code) == want, code
            classes += 1
    assert classes == 4643


# OEIS A000672: trees with maximum degree at most 3, orders 1..22
A000672 = [
    1, 1, 1, 2, 2, 4, 6, 11, 18, 37, 66, 135, 265, 552, 1132, 2410, 5098,
    11020, 23846, 52233, 114796, 254371,
]


def test_otter_count_matches_oeis():
    assert [otter_class_count(n) for n in range(1, 23)] == A000672


def test_counts_match_otter():
    for n in range(1, 17):
        assert count_subcubic_trees(n) == otter_class_count(n)


def test_codes_are_canonical_distinct_and_complete():
    # canonical, strictly increasing and as many as Otter counts: together
    # they pin the exact set of classes, not only its size
    for n in range(1, 17):
        codes = _subcubic_trees_cached(n)
        assert all(a < b for a, b in zip(codes, codes[1:]))
        for c in codes:
            assert canonical_code(tree_from_code(c)) == c
        assert len(codes) == otter_class_count(n)


def test_enumerated_are_canonical_subcubic_trees():
    for n in range(1, 9):
        for t in enumerate_subcubic_trees(n):
            assert t.n == n
            assert is_subcubic_tree(t)


def test_stream_deterministic():
    first = [canonical_code(t) for t in enumerate_subcubic_trees(7)]
    second = [canonical_code(t) for t in enumerate_subcubic_trees(7)]
    assert first == second == sorted(first)


def test_pruefer_decode_known():
    assert tree_from_pruefer((), 2) == path(2)
    assert tree_from_pruefer((1,), 3) == path(3)
    assert tree_from_pruefer((0, 0), 4) == star(3)


def test_pruefer_decode_is_bijective_small():
    # 16 labeled trees on 4 vertices, all distinct
    from itertools import product

    seen = set()
    for seq in product(range(4), repeat=2):
        t = tree_from_pruefer(seq, 4)
        assert is_tree(t)
        seen.add(tuple(t.edges()))
    assert len(seen) == 16


def test_labeled_count_small_by_enumeration():
    from itertools import product

    for n in range(3, 8):
        raw = sum(
            1
            for seq in product(range(n), repeat=n - 2)
            if max(seq.count(v) for v in set(seq)) <= 2
        )
        assert labeled_subcubic_tree_count(n) == raw


def test_rejects_non_positive_order():
    with pytest.raises(ValueError):
        list(enumerate_subcubic_trees(0))


def test_counts_against_networkx():
    nx = pytest.importorskip("networkx")
    for n in range(2, 11):
        want = sum(
            1
            for t in nx.nonisomorphic_trees(n)
            if max(d for _, d in t.degree()) <= 3
        )
        assert count_subcubic_trees(n) == want
