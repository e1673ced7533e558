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
from expodom.family import (
    _TreeGuards,
    _blocked_dp,
    generate_family,
    op1_applicable,
    tau,
)
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
    # branches, the child's own included: the sibling exclusion dropped.
    # The packed b then holds members of the child's own branch, which the
    # child's other costs hold too, so some unpacked witness breaks its
    # size or its domination
    real = solvers._dom_costs

    def no_exclusion(branches, own, none, skip=-1):
        a, b, c = real(branches, own, none, skip)
        if skip >= 0:
            kept = [t for i, t in enumerate(branches) if i != skip]
            extra = min(ai - min(ai, bi) for ai, bi, _ in branches)
            b = sum(min(ai, bi) for ai, bi, _ in kept) + extra
        return a, b, c

    monkeypatch.setattr(solvers, "_dom_costs", no_exclusion)
    assert _rerooted_mismatches(trees_up_to(7), _from_dps)
    with pytest.raises(CertificateError):
        for g in trees_up_to(7):
            _everywhere(g)


@pytest.mark.parametrize("forge", ["value", "branch"])
def test_a_forged_forced_witness_raises(forge):
    # path(5) rooted at vertex 0: the forced cost at 0 packs {0, 3} at count
    # 2.  Forged, it claims one vertex fewer with the same set, or loses the
    # branch below vertex 2, vertex 3 and one count with it; either way the
    # set unpacked breaks its size or its domination
    values = TreeDomination(path(5))
    unit = solvers._dom_packing(5)[0]
    cost, *rest = values._full[0]
    assert cost == 2 * unit + 0b1001
    assert values.forced(0) == 2
    values._full[0] = (cost - unit - (1 << 3 if forge == "branch" else 0), *rest)
    with pytest.raises(CertificateError):
        values.forced(0)


# each read of path(5) at vertex 0, given a TreeDomination built before the
# unpacking was tampered with; the gamma witness is read as one is built
_READS = {
    "gamma": lambda values: TreeDomination(path(5)),
    "forced": lambda values: values.forced(0),
    "restricted": lambda values: values.restricted(0),
    "tree_domination": lambda values: tree_domination(path(5), 0),
}


@pytest.mark.parametrize("tamper", ["drop", "move"])
@pytest.mark.parametrize("read", sorted(_READS))
def test_a_tampered_read_back_raises(monkeypatch, read, tamper):
    # every read at vertex 0 of path(5) unpacks {0, 3} at count 2 from its
    # cost.  Dropping 3's bit breaks the size; moving it to 4 keeps the size
    # and leaves vertex 2 outside every member's closed neighbourhood, so
    # the masks' OR misses it
    values = TreeDomination(path(5))
    unit = solvers._dom_packing(5)[0]
    real = solvers._dom_witness
    forge = -(1 << 3) if tamper == "drop" else (1 << 4) - (1 << 3)

    def tampered(closed, x, state, cost):
        assert cost == 2 * unit + 0b1001
        return real(closed, x, state, cost + forge)

    monkeypatch.setattr(solvers, "_dom_witness", tampered)
    with pytest.raises(CertificateError):
        _READS[read](values)


def test_the_packed_dp_holds_on_a_long_path():
    # costs of about 2,000 bits: "no such state" must be an int, since a
    # float added to an int past 2**1024 overflows.  Vertex 1 sums its leaf
    # child's b with its other child's; rooted at vertex 0, no vertex does
    g = path(2000)
    for x in (0, 1):
        assert [c.value for c in tree_domination(g, x)] == [667, 667, 667]
    assert TreeDomination(g).gamma == 667
    assert op1_applicable(g, 1)


def test_the_spare_bit_orders_extras_by_count_first():
    # branch 0 joins D at one count more, its mask falling by 2**n - 1;
    # branch 1 at no count more, its mask rising by 2**n - 1.  With the
    # spare bit, b takes branch 1's a; without it the first extra packs
    # below the second, and b takes branch 0's a at one count too many.
    # (Two disjoint branches of a tree never reach both differences.)
    n = 6
    unit, none = solvers._dom_packing(n)
    full = (1 << n) - 1
    branches = [(2 * unit, unit + full, 5 * unit), (unit + full, unit, 5 * unit)]
    _, b, _ = solvers._dom_costs(branches, unit + (1 << 0), none)
    assert b // unit == 2


def test_classical_dp_witnesses_hold_to_order_9():
    # judged by ``weights``' predicates, not the closed masks that
    # ``_dom_witness`` checks them with
    for g in trees_up_to(9):
        for x in range(g.n):
            others = [v for v in range(g.n) if v != x]
            gamma, forced, restricted = tree_domination(g, x)
            assert [len(c.witness) for c in (gamma, forced, restricted)] == [
                gamma.value, forced.value, restricted.value
            ]
            assert x in forced.witness
            assert is_dominating(g, gamma.witness)
            assert is_dominating(g, forced.witness)
            assert is_restricted_dominating(g, restricted.witness, others)


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
