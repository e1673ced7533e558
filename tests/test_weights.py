import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from expodom.graph import INF, path, star
from expodom.enumeration import trees_up_to
from expodom.fixtures import (
    fixture_f1,
    fixture_f2,
    full_binary_tree,
    full_binary_tree_leaves,
)
from expodom.weights import (
    blocked_distance,
    is_dominating,
    is_exponential_dominating,
    is_porous_exponential_dominating,
    is_restricted_dominating,
    weight_profile,
)

from _oracles import (
    fixture_f1_leg_midpoints,
    fixture_f2_porous_witness,
    influence_oracle,
    random_subcubic_graph,
)


def test_blocked_distance_internal_dominator_blocks():
    assert blocked_distance(path(4), {1, 3}, 0, 3) == INF


def test_blocked_distance_direct():
    assert blocked_distance(path(4), {1, 3}, 0, 1) == 1


def test_blocked_distance_self():
    assert blocked_distance(star(3), {0}, 0, 0) == 0
    assert blocked_distance(path(5), {2, 4}, 2, 2) == 0


def test_blocked_distance_other_dominator_infinite():
    assert blocked_distance(path(4), {1, 3}, 1, 3) == INF


def test_blocked_distance_contract():
    with pytest.raises(ValueError):
        blocked_distance(path(4), {1}, 0, 2)


def test_profile_p4():
    prof = weight_profile(path(4), {1, 3})
    assert prof.blocked[0] == Fraction(1)
    assert prof.porous[0] == Fraction(5, 4)


def test_profile_spider_mids():
    g = fixture_f1(1)
    mids = fixture_f1_leg_midpoints(1)
    prof = weight_profile(g, mids)
    leaves = [v for v in range(g.n) if g.degree(v) == 1]
    for leaf in leaves:
        assert prof.blocked[leaf] == Fraction(1)
    assert prof.blocked[0] == Fraction(3)


def test_dominators_weigh_two():
    rng = random.Random(5)
    for _ in range(25):
        g = random_subcubic_graph(rng)
        if g.n == 0:
            continue
        dom = sorted(rng.sample(range(g.n), rng.randint(1, min(3, g.n))))
        prof = weight_profile(g, dom)
        for v in dom:
            assert prof.blocked[v] == 2


def test_is_exponential_dominating_examples():
    assert is_exponential_dominating(star(3), {0})
    assert not is_exponential_dominating(path(4), {1})  # far end gets 1/2
    g = fixture_f1(1)
    assert is_exponential_dominating(g, fixture_f1_leg_midpoints(1))


def test_is_porous_dominating_examples():
    assert is_porous_exponential_dominating(star(3), {0})
    assert is_porous_exponential_dominating(
        fixture_f2(), fixture_f2_porous_witness()
    )
    assert not is_porous_exponential_dominating(path(4), ())


def test_blocked_at_most_porous_random():
    rng = random.Random(99)
    for _ in range(40):
        g = random_subcubic_graph(rng)
        if g.n == 0:
            continue
        dom = sorted(rng.sample(range(g.n), rng.randint(0, min(3, g.n))))
        prof = weight_profile(g, dom)
        for u in range(g.n):
            assert prof.blocked[u] <= prof.porous[u]


def test_low_degree_weight_cap():
    # subcubic graphs: degree <= 2 vertices never collect more than 2
    for t in trees_up_to(7):
        for size in range(0, min(3, t.n) + 1):
            for dom in combinations(range(t.n), size):
                prof = weight_profile(t, dom)
                for u in range(t.n):
                    if t.degree(u) <= 2:
                        assert prof.blocked[u] <= 2


def test_full_binary_tree_root_equality():
    for depth in range(1, 6):
        t = full_binary_tree(depth)
        prof = weight_profile(t, full_binary_tree_leaves(depth))
        assert prof.blocked[0] == 2


def test_exponential_implies_porous():
    for t in trees_up_to(8):
        for size in range(0, min(3, t.n) + 1):
            for dom in combinations(range(t.n), size):
                if is_exponential_dominating(t, dom):
                    assert is_porous_exponential_dominating(t, dom)


def test_profile_rejects_out_of_range():
    with pytest.raises(ValueError):
        weight_profile(path(3), {5})


def blocked_distance_to(g, dset):
    return blocked_distance(g, dset, 0, *dset)


def blocked_distance_from(g, dset):
    return blocked_distance(g, {0}, *dset, 0)


def restricted_dominators(g, dset):
    return is_restricted_dominating(g, dset, range(g.n))


def restricted_targets(g, dset):
    return is_restricted_dominating(g, {0}, dset)


@pytest.mark.parametrize(
    "check",
    [
        weight_profile,
        is_exponential_dominating,
        is_porous_exponential_dominating,
        is_dominating,
        restricted_dominators,
        restricted_targets,
        blocked_distance_to,
        blocked_distance_from,
    ],
)
@pytest.mark.parametrize("bad", [-1, 2])
def test_out_of_range_dominator_rejected(check, bad):
    # -1 must not wrap around to the last vertex of path(2)
    with pytest.raises(ValueError):
        check(path(2), {bad})


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32))
def test_weights_match_definition(seed):
    rng = random.Random(seed)
    g = random_subcubic_graph(rng)
    dom = rng.sample(range(g.n), rng.randint(0, g.n))
    blocked = influence_oracle(g, dom, blocked=True)
    porous = influence_oracle(g, dom, blocked=False)
    prof = weight_profile(g, dom)
    assert list(prof.blocked) == blocked
    assert list(prof.porous) == porous
    assert is_exponential_dominating(g, dom) == all(w >= 1 for w in blocked)
    assert is_porous_exponential_dominating(g, dom) == all(w >= 1 for w in porous)
