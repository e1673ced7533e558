import hashlib

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


# sha256 of each order's canonical codes, joined by newlines, taken from the
# composer that filtered every key pair and triple by its size sum
PINNED_CODE_DIGESTS = {
    1: "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
    2: "de9e2a5ed8504ad8453f7fa8e4e58b69af1d51b613e8219bd1f32847bd7cf804",
    3: "d8ac1470c02d63b8dbd097b60aec0670c302b885c0053848600aebee1b452e58",
    4: "228652572d2994c017af3aa2dd74c7030d58269b707150c509ab2a0c9953f522",
    5: "a4574b3ddb38183fce0adcafcaf202685ab4fda2f2ce5f076b06ffa9137848d9",
    6: "929755c41e8053e4b73e2328ae84b7b0f75fcdc2f6d19c861fcd5023dce454ec",
    7: "e8c7d6442f06f4bc8a43ed267d2dd0e4d4a122155ef7e2e40f08f53c1af35e9b",
    8: "f427f7d3bb1a11ec0b78abe788a3a69ed6a06242cb24ea4fa684996aef5c77d5",
    9: "cf3232096b5e963dc9c9e384beb73c0b19c3e30b3d61c3a8f3b034e7c71a9453",
    10: "e90c728ce48462730682e11d328c1a53398f67c91d9ae8851c2b845282552d2f",
    11: "9327c650d7d519bdbb0f218fb2688db3e4a7d422a840ba7827692238c704ecd9",
    12: "9f616272a444ea571c4d2169dfd390006470bda783130f995a1013d36b25520b",
    13: "295b8c4dfd5ec6335b8c431d712fcf8ece503175b7a23d620027f57fff5edc0f",
    14: "b3a16acab164df0985c70a9bd8622e8eef906134b352a6839e1bfdb106d451f4",
    15: "1fdaab5d376a20ebaaa3c96e0b6b9dcfafe5ec0a6f2d66ee4a96b72ac7e0702e",
    16: "f061198160d96af3e6db5a716758c642b478c6cb1d157e369ed3d9be389f33c1",
    17: "cf9dbb344af37bd59a65d3736c82f827a1d983f051bf58798e459dcda5f00dee",
    18: "3dadaa0150f73aae03bbc5499d5cfda06229635cd4185ba78a674799cdc257c5",
    19: "00b6da6792eb91fc273dae76a749f9122313acf648be685aded4b0ab52dd9dc4",
    20: "44b21cf4773b7254888c52b0a4e816e0d2d795dd06bd06490b7a0a3204646ab4",
}


def test_composed_codes_pinned():
    for n, want in PINNED_CODE_DIGESTS.items():
        digest = hashlib.sha256(b"\n".join(_subcubic_trees_cached(n)))
        assert digest.hexdigest() == want, n


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


@pytest.mark.parametrize("n", [0, -3])
def test_codes_and_counts_reject_orders_below_one(n):
    # the check sits with the codes, which enumerate prints from directly
    for read in (_subcubic_trees_cached, count_subcubic_trees):
        with pytest.raises(ValueError, match="tree order must be at least 1"):
            read(n)


def test_counts_against_networkx():
    nx = pytest.importorskip("networkx")
    for n in range(2, 11):
        want = sum(
            1
            for t in nx.nonisomorphic_trees(n)
            if max(d for _, d in t.degree()) <= 3
        )
        assert count_subcubic_trees(n) == want
