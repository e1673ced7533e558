"""The two tree DPs that the family guards read, rooted at a vertex and
rerooted to give every vertex at once, judged against the searches, brute
force and ``family.tau``."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from expodom import family, solvers
from expodom.canon import canonical_code
from expodom.enumeration import trees_up_to
from expodom.family import _TreeGuards, _blocked_dp, generate_family, tau
from expodom.graph import CertificateError, NotTreeError, cycle, path, rooted_tree
from expodom.solvers import (
    domination_number,
    domination_with_forced_vertex,
    exponential_domination_number,
    restricted_domination_number,
    TreeDomination,
    tree_domination,
)
from expodom.weights import is_dominating, is_restricted_dominating

from _oracles import (
    brute_gamma,
    brute_gamma_e,
    brute_minimum,
    random_subcubic_tree,
    tau_brute,
)


def _searched(g, x):
    """gamma_e, tau, gamma, forced and restricted at x from the searches."""
    others = [v for v in range(g.n) if v != x]
    return (
        exponential_domination_number(g).value,
        tau(g, x).value,
        domination_number(g).value,
        domination_with_forced_vertex(g, x),
        restricted_domination_number(g, others).value,
    )


def _from_dps(g, x):
    gamma, forced, restricted = tree_domination(g, x)
    return (*_blocked_dp(g, x), gamma.value, forced.value, restricted.value)


def _mismatches(trees):
    """(tree, x) pairs where the DPs and the searches disagree, a DP
    certificate failure counting as a disagreement; and the pairs tried."""
    bad, pairs = [], 0
    for g in trees:
        for x in range(g.n):
            pairs += 1
            try:
                got = _from_dps(g, x)
            except CertificateError:
                got = None
            if got != _searched(g, x):
                bad.append((g, x))
    return bad, pairs


def test_dps_match_the_searches_at_every_vertex_to_order_11():
    bad, pairs = _mismatches(trees_up_to(11))
    assert pairs == 1436
    assert bad == []


def test_classical_dp_matches_brute_force_to_order_9():
    for g in trees_up_to(9):
        gamma = brute_gamma(g)
        for x in range(g.n):
            others = [v for v in range(g.n) if v != x]
            forced = brute_minimum(g, lambda g, d: x in d and is_dominating(g, d))
            restricted = brute_minimum(
                g, lambda g, d: is_restricted_dominating(g, d, others)
            )
            got = tree_domination(g, x)
            assert [c.value for c in got] == [gamma, forced[0], restricted[0]]


def test_blocked_dp_matches_brute_force_to_order_10():
    for g in trees_up_to(10):
        gamma_e = brute_gamma_e(g) if g.n <= 8 else None
        for x in range(g.n):
            got_gamma_e, got_tau = _blocked_dp(g, x)
            assert got_tau == tau_brute(g, x).value
            assert gamma_e in (None, got_gamma_e)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 16), st.integers(0, 2**32), st.data())
def test_dps_match_the_searches_on_random_trees(n, seed, data):
    g = random_subcubic_tree(random.Random(seed), n)
    x = data.draw(st.integers(0, n - 1))
    assert _from_dps(g, x) == _searched(g, x)


def test_a_halved_out_fails_the_judge(monkeypatch):
    # a wrong recurrence: what a free vertex sends up halved twice
    real = family._vertex_states

    def halved_twice(v, below, one):
        free, held = real(v, below, one)
        return [(k, need, neg_out // 2, m) for k, need, neg_out, m in free], held

    monkeypatch.setattr(family, "_vertex_states", halved_twice)
    bad, _ = _mismatches(trees_up_to(7))
    assert bad


@pytest.mark.parametrize("dp", [tree_domination, _blocked_dp])
def test_a_forged_witness_raises(monkeypatch, dp):
    # the DP sees path(4) without its last vertex, so its witness leaves
    # vertex 3 undominated and the re-check against the whole tree fails
    def short(g, root):
        order, children = rooted_tree(g, root)
        return order, [[u for u in kids if u != 3] for kids in children]

    monkeypatch.setattr(solvers, "rooted_tree", short)
    monkeypatch.setattr(family, "rooted_tree", short)
    with pytest.raises(CertificateError):
        dp(path(4), 0)


@pytest.mark.parametrize("dp", [tree_domination, _blocked_dp])
def test_dps_need_a_tree(dp):
    with pytest.raises(NotTreeError):
        dp(cycle(4), 0)


def test_generation_reads_no_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("a guard ran an exhaustive search")

    with monkeypatch.context() as m:
        for name in ("_min_cover", "_porous_leaves"):
            m.setattr(solvers, name, refuse)
        m.setattr(family, "tau", refuse)
        # fresh tables, so no verdict comes from an earlier test's memo
        for table in ("_GAMMA", "_FORCED", "_RESTRICTED", "_TAU"):
            m.setattr(family, table, {})
        members = {canonical_code(t) for t in generate_family(10)}
    # Theorem 1, read off the searches
    assert members == {
        canonical_code(t)
        for t in trees_up_to(10)
        if domination_number(t).value == exponential_domination_number(t).value
    }


def _everywhere(g):
    """gamma_e, tau, gamma, forced and restricted at every vertex, from one
    ``_TreeGuards``, as ``_from_dps`` lists them."""
    values = _TreeGuards(g)
    return [
        (values._blocked[1], values.tau(x), values.gamma, values.forced(x),
         values.restricted(x))
        for x in range(g.n)
    ]


def _rerooted_mismatches(trees, judge):
    """(tree, x) pairs where the rerooted values and ``judge(g, x)``
    disagree, a certificate failure counting as a disagreement."""
    bad = []
    for g in trees:
        try:
            got = _everywhere(g)
        except CertificateError:
            got = [None] * g.n
        bad += [(g, x) for x in range(g.n) if got[x] != judge(g, x)]
    return bad


def test_rerooted_values_match_the_rooted_dps_and_the_searches_to_order_11():
    trees = list(trees_up_to(11))
    assert sum(g.n for g in trees) == 1436
    assert _rerooted_mismatches(trees, _from_dps) == []
    assert _rerooted_mismatches(trees, _searched) == []


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 16), st.integers(0, 2**32), st.data())
def test_rerooted_values_match_on_random_trees(n, seed, data):
    g = random_subcubic_tree(random.Random(seed), n)
    got = _everywhere(g)
    assert got == [_from_dps(g, x) for x in range(n)]
    x = data.draw(st.integers(0, n - 1))
    assert got[x] == _searched(g, x)


def test_a_wrong_up_pass_fails_the_judge(monkeypatch):
    # the up pass's b term takes its least extra over all of the parent's
    # branches, the child's own included: the sibling exclusion dropped
    real = solvers._dom_costs

    def no_exclusion(branches, skip=-1):
        a, b, c = real(branches, skip)
        if skip >= 0:
            kept = [t for i, t in enumerate(branches) if i != skip]
            extra = min(ai - min(ai, bi) for ai, bi, _ in branches)
            b = sum(min(ai, bi) for ai, bi, _ in kept) + extra
        return a, b, c

    monkeypatch.setattr(solvers, "_dom_costs", no_exclusion)
    assert _rerooted_mismatches(trees_up_to(7), _from_dps)


@pytest.mark.parametrize("forge", ["value", "branch"])
def test_a_forged_forced_witness_raises(forge):
    # path(5) rooted at vertex 0: the forced value at 0 claims one vertex
    # fewer than the DP's, or the read-back loses the branch below vertex 2;
    # either way the set read back breaks its size or its domination
    values = TreeDomination(path(5))
    assert values.forced(0) == 2
    if forge == "value":
        values._full[0] = (1, *values._full[0][1:])
    else:
        values.children[2] = []
    with pytest.raises(CertificateError):
        values.forced(0)


# each read of path(5) at vertex 0, given a TreeDomination built before the
# read-back was tampered with; the gamma witness is read as one is built
_READS = {
    "gamma": lambda values: TreeDomination(path(5)),
    "forced": lambda values: values.forced(0),
    "restricted": lambda values: values.restricted(0),
    "tree_domination": lambda values: tree_domination(path(5), 0),
}


@pytest.mark.parametrize("tamper", ["drop", "move"])
@pytest.mark.parametrize("read", sorted(_READS))
def test_a_tampered_read_back_raises(monkeypatch, read, tamper):
    # every read at vertex 0 of path(5) reads back {0, 3}.  Dropping 3
    # breaks the size; moving it to 4 keeps the size and leaves vertex 2
    # outside every chosen closed neighbourhood, so the masks' OR misses it
    values = TreeDomination(path(5))
    real = solvers._dom_readback
    assert sorted(real(0, 0, values.children, values._down)) == [0, 3]

    def tampered(*args):
        chosen = real(*args)
        if tamper == "drop":
            return [v for v in chosen if v != 3]
        return [4 if v == 3 else v for v in chosen]

    monkeypatch.setattr(solvers, "_dom_readback", tampered)
    with pytest.raises(CertificateError):
        _READS[read](values)


def test_generation_runs_one_pass_of_each_dp_per_tree(monkeypatch):
    # one classical pass, rooted at vertex 0, per walked tree, and one
    # blocked down pass per tree that a two- or three-vertex path still
    # fits on; no DP is rooted at a guarded vertex (the rooted DPs ran 452
    # and 228 times for these 84 trees)
    calls = Counter()

    def spy(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    spy(solvers, "rooted_tree")
    spy(family, "rooted_tree")
    for name in ("_down_frontiers", "tree_domination", "_blocked_dp"):
        spy(family, name)
    members = list(generate_family(12))
    assert calls == Counter({
        "rooted_tree": sum(t.n < 12 for t in members),
        "_down_frontiers": sum(t.n < 11 for t in members),
    })
    assert calls["rooted_tree"] == 84
