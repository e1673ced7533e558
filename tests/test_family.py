import json
import random
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings

from expodom import canon, family
from expodom.canon import canonical_code, tree_isomorphism_map
from expodom.enumeration import trees_up_to
from expodom.family import (
    OperationNotApplicable,
    OpStep,
    OpTrace,
    apply_op,
    generate_family,
    op1_applicable,
    op2_applicable,
    op3_applicable,
    recognize,
    replay_trace,
    tau,
)
from expodom.fixtures import fixture_f1, fixture_f2
from expodom.graph import (
    Graph,
    NotSubcubicError,
    NotTreeError,
    connected_components,
    cycle,
    is_tree,
    path,
    star,
)
from expodom.solvers import (
    domination_number,
    exponential_domination_number,
)
from expodom.weights import weight_profile

from _oracles import graphs, random_relabel, random_subcubic_graph, tau_brute
from test_pinned_values import _corpus


def test_tau_single_vertex():
    got = tau(path(1), 0)
    assert got.value == 1
    assert got.witness == ()


def test_tau_p2():
    assert tau(path(2), 0).value == 2
    assert tau(path(2), 1).value == 2


def test_tau_p3():
    assert tau(path(3), 1).value == 2
    assert tau(path(3), 0).value == 4


def test_tau_enumeration_oracle():
    # independent re-derivation on a slightly bigger tree: brute force over
    # all candidate sets, weights straight from the profile machinery
    from itertools import combinations

    from expodom.graph import INF, bfs_distances

    g = fixture_f1(1)
    limit = exponential_domination_number(g).value
    for x in range(g.n):
        best = None
        for size in range(limit):
            for cand in combinations([v for v in range(g.n) if v != x], size):
                prof = weight_profile(g, cand)
                dist = bfs_distances(g, x, set(cand))
                worst = Fraction(0)
                ok = True
                for u in range(g.n):
                    if u in cand or prof.blocked[u] >= 1:
                        continue
                    if dist[u] == INF:
                        ok = False
                        break
                    need = (1 - prof.blocked[u]) * 2 ** dist[u]
                    worst = max(worst, need)
                if ok and (best is None or worst < best):
                    best = worst
        assert tau(g, x).value == best


def test_tau_positive_when_finite():
    # tau is finite on every graph, disconnected ones included
    rng = random.Random(42)
    randoms = [random_subcubic_graph(rng) for _ in range(40)]
    graphs = list(trees_up_to(7)) + randoms
    assert sum(len(connected_components(g)) > 1 for g in graphs) > 0
    for g in graphs:
        for x in range(g.n):
            got = tau(g, x)
            assert got.value > 0
            assert isinstance(got.witness, tuple)


def test_tau_disconnected():
    from expodom.graph import Graph

    # two disjoint edges: the empty set strands the far component (infinite
    # repair), but a dominator placed over there brings tau back to finite
    g = Graph(4, [(0, 1), (2, 3)])
    got = tau(g, 0)
    assert got.value == 2
    assert got.witness in ((2,), (3,))

    # two isolated vertices: covering the far one leaves only x deficient
    g = Graph(2)
    got = tau(g, 0)
    assert got.value == 1
    assert got.witness == (1,)


def _tau_matches_brute_force(g):
    for x in range(g.n):
        assert tau(g, x) == tau_brute(g, x), (g, x)


def test_tau_matches_brute_force_on_trees():
    # value and witness: the skipped sets never replace the best one
    for g in trees_up_to(10):
        _tau_matches_brute_force(g)


def test_tau_matches_brute_force_on_random_graphs():
    randoms = _corpus()[-40:]  # the seeded random graphs, cyclic and not
    assert sum(len(connected_components(g)) > 1 for g in randoms) > 0
    assert sum(len(g.edges()) >= g.n for g in randoms) > 0
    for g in randoms:
        _tau_matches_brute_force(g)


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=8))
@example(Graph(3))
@example(cycle(5))
def test_tau_matches_brute_force_on_graphs(g):
    _tau_matches_brute_force(g)


def test_tau_keeps_the_first_tied_witness():
    # (2,) and (3,) both give 2; the lexicographically first set is kept
    assert tau(Graph(4, [(0, 1), (2, 3)]), 0) == (2, (2,))


@pytest.mark.parametrize(
    "g, x, value, witness",
    [
        (path(24), 0, Fraction(1, 2), (2, 6, 10, 14, 18, 22)),
        (path(24), 12, Fraction(1, 2), (1, 5, 9, 14, 18, 22)),
        (fixture_f2(), 0, 4, (2, 3, 9, 10, 16)),
        (fixture_f2(), 11, 2, (2, 3, 10, 16, 17)),
    ],
)
def test_tau_pinned_past_the_brute_force_reach(g, x, value, witness):
    # values taken from the unpruned loop, which needs seconds for each
    assert tau(g, x) == (value, witness)


def test_op1_examples():
    assert op1_applicable(path(1), 0)
    assert op1_applicable(path(3), 1)
    assert not op1_applicable(path(3), 0)


def test_op2_examples():
    # single vertex: tau == 1 fails the strict test but the domination
    # branch fires (empty target set needs no dominators at all)
    assert op2_applicable(path(1), 0)
    assert op2_applicable(path(2), 0)
    assert op2_applicable(path(2), 1)


def test_op3_examples():
    assert op3_applicable(path(1), 0)
    assert op3_applicable(path(2), 0)


def test_degree_guard():
    assert not op1_applicable(star(3), 0)
    assert not op2_applicable(star(3), 0)
    assert not op3_applicable(star(3), 0)


def test_predicates_require_trees():
    with pytest.raises(NotTreeError):
        op1_applicable(cycle(4), 0)


def test_apply_op_examples():
    assert apply_op(path(1), 1, 0) == path(2)
    assert apply_op(path(1), 2, 0) == path(3)
    assert apply_op(path(1), 3, 0) == path(4)


def test_apply_op_refuses():
    with pytest.raises(OperationNotApplicable):
        apply_op(path(3), 1, 0)
    with pytest.raises(ValueError):
        apply_op(path(1), 4, 0)


def test_apply_op_consistency_with_parameters():
    p3 = apply_op(path(1), 2, 0)
    assert domination_number(p3).value == exponential_domination_number(p3).value == 1
    p4 = apply_op(path(1), 3, 0)
    assert domination_number(p4).value == exponential_domination_number(p4).value == 2


def test_generate_family_small():
    members = list(generate_family(3))
    assert [t.n for t in members] == [1, 2, 3]
    members4 = list(generate_family(4))
    codes = {canonical_code(t) for t in members4}
    assert canonical_code(star(3)) in codes
    assert canonical_code(path(4)) in codes


def test_family_members_have_equal_parameters():
    for t in generate_family(8):
        assert (
            domination_number(t).value
            == exponential_domination_number(t).value
        )


def test_recognize_star_is_three_leaf_steps():
    trace = recognize(star(3))
    assert trace is not None
    assert [s.op for s in trace.steps] == [1, 1, 1]
    rebuilt = replay_trace(trace)
    assert tree_isomorphism_map(rebuilt, star(3)) is not None


def test_recognize_p4():
    trace = recognize(path(4))
    assert trace is not None
    rebuilt = replay_trace(trace)
    assert tree_isomorphism_map(rebuilt, path(4)) is not None


def test_recognize_spider_matches_parameter_test():
    g = fixture_f1(1)
    member = recognize(g) is not None
    eq = domination_number(g).value == exponential_domination_number(g).value
    assert member == eq


def test_recognition_equivalence_small():
    for t in trees_up_to(8):
        member = recognize(t) is not None
        eq = (
            domination_number(t).value
            == exponential_domination_number(t).value
        )
        assert member == eq


def test_generate_family_equals_recognized():
    family_codes = {canonical_code(t) for t in generate_family(8)}
    recognized = {
        canonical_code(t)
        for t in trees_up_to(8)
        if recognize(t) is not None
    }
    assert family_codes == recognized


def test_traces_replay_for_relabeled_inputs():
    rng = random.Random(8)
    for t in trees_up_to(7):
        shuffled = random_relabel(rng, t)
        trace = recognize(shuffled)
        if trace is None:
            continue
        rebuilt = replay_trace(trace)
        assert tree_isomorphism_map(rebuilt, shuffled) is not None


def test_trace_json_round_trip():
    trace = recognize(star(3))
    payload = json.dumps(trace.to_json_obj())
    again = OpTrace.from_json_obj(json.loads(payload))
    assert again == trace


def test_replay_rejects_bad_numbering():
    bad = OpTrace((OpStep(1, 0, (5,)),))
    with pytest.raises(ValueError):
        replay_trace(bad)


def test_recognize_requires_subcubic_tree():
    from expodom.graph import NotSubcubicError

    with pytest.raises(NotTreeError):
        recognize(cycle(4))
    with pytest.raises(NotSubcubicError):
        recognize(star(4))


GUARDS = (op1_applicable, op2_applicable, op3_applicable)


@pytest.mark.parametrize("guard", GUARDS)
@pytest.mark.parametrize("x", [-1, 3, 5])
def test_guards_reject_vertices_out_of_range(guard, x):
    with pytest.raises(ValueError, match=f"vertex {x} out of range"):
        guard(path(3), x)


@pytest.mark.parametrize("guard", GUARDS)
def test_guards_on_the_empty_graph_need_a_tree(guard):
    with pytest.raises(NotTreeError):
        guard(Graph(0), 0)


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=7))
@example(Graph(0))
@example(Graph(2))
@example(cycle(4))
@example(Graph(5, [(0, 1), (1, 2), (3, 4)]))
@example(star(3))
@example(star(4))
@example(Graph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (5, 6)]))
@example(path(7))
def test_guards_and_recognize_check_subcubic_trees(g):
    # the memo key's canon walk is the only tree check the guards make
    if not is_tree(g):
        want = NotTreeError
    elif g.max_degree() > 3:
        want = NotSubcubicError
    else:
        want = None
    calls = [partial(recognize, g)]
    calls += [partial(guard, g, x) for guard in GUARDS for x in range(g.n)]
    for call in calls:
        if want is None:
            call()
        else:
            with pytest.raises(want):
                call()


def _fresh_memos(monkeypatch):
    for name in ("_GAMMA", "_GAMMA_E", "_FORCED", "_RESTRICTED", "_TAU", "_RECOGNIZE"):
        monkeypatch.setattr(family, name, {})


def test_guards_given_their_keys_agree_with_the_keyless_path(monkeypatch):
    # every verdict is memoized under the rooted code the guard computes, so
    # a wrong key would hand one tree's verdict to another rooted tree
    # sharing the memo and move these counts
    _fresh_memos(monkeypatch)
    verdicts = [
        guard(t, x) for t in trees_up_to(11) for x in range(t.n) for guard in GUARDS
    ]
    assert Counter(verdicts) == Counter({False: 1850, True: 2458})


def test_generation_walks_each_tree_once(monkeypatch):
    walked: Counter = Counter()

    def spy(name):
        real = getattr(family, name)

        def wrapper(g, *args):
            walked[name, canonical_code(g)] += 1
            return real(g, *args)

        monkeypatch.setattr(family, name, wrapper)

    spy("rooted_code")
    spy("TreeCodes")
    members = list(generate_family(12))
    # no rooted_code walk at all; one TreeCodes per popped tree an
    # operation still fits on, none for the order-12 members
    assert walked == Counter(
        {("TreeCodes", canonical_code(t)): 1 for t in members if t.n < 12}
    )
    assert sum(walked.values()) == 84


def test_generation_codes_grown_trees_with_no_walk(monkeypatch):
    # every canon walk of generation: one per popped tree (its TreeCodes) and
    # one for P_1; each grown tree's code is read off its parent's codes.  A
    # walk per grown tree would add the 457 grown codes of order 12
    walks = Counter()
    real = canon._walk

    def spy(adj, roots):
        walks[len(adj)] += 1
        return real(adj, roots)

    monkeypatch.setattr(canon, "_walk", spy)
    members = list(generate_family(12))
    assert sum(walks.values()) == 85
    assert walks == Counter(t.n for t in members if t.n < 12) + Counter({1: 1})
