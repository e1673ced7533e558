import pytest

from expodom.fixtures import (
    fixture_f1,
    fixture_f2,
    full_binary_tree,
    full_binary_tree_leaves,
    get_fixture,
)
from expodom.graph import diameter, is_subcubic_tree
from expodom.weights import (
    is_exponential_dominating,
    is_porous_exponential_dominating,
)

from _oracles import (
    fixture_f1_leg_midpoints,
    fixture_f2_blocked_witness,
    fixture_f2_porous_witness,
)


def test_f1_orders():
    for k in range(1, 5):
        g = fixture_f1(k)
        assert g.n == 3 * k + 4
        assert is_subcubic_tree(g)
        for i in range(k):
            assert g.degree(i) == 3


def test_f1_smallest_is_the_spider():
    g = fixture_f1(1)
    assert g.n == 7
    degrees = sorted(g.degree(v) for v in range(7))
    assert degrees == [1, 1, 1, 2, 2, 2, 3]


def test_f1_midpoints_dominate():
    for k in (1, 2):
        g = fixture_f1(k)
        mids = fixture_f1_leg_midpoints(k)
        assert len(mids) == k + 2
        assert is_exponential_dominating(g, mids)


def test_f2_shape():
    g = fixture_f2()
    assert g.n == 22
    assert is_subcubic_tree(g)
    assert diameter(g) == 6
    assert g.degree(0) == 3
    assert sorted(g.degree(v) for v in range(22)).count(1) == 12


def test_f2_witnesses_dominate():
    g = fixture_f2()
    assert is_porous_exponential_dominating(g, fixture_f2_porous_witness())
    assert is_exponential_dominating(g, fixture_f2_blocked_witness())
    assert not is_exponential_dominating(g, fixture_f2_porous_witness())


def test_full_binary_tree_shape():
    t = full_binary_tree(3)
    assert t.n == 15
    leaves = full_binary_tree_leaves(3)
    assert len(leaves) == 8
    assert all(t.degree(v) == 1 for v in leaves)
    assert t.degree(0) == 2


def test_f1_integrality_gap():
    # the ILP-to-LP gap reaches 2 on the two smallest members, where the
    # blocked and porous optima still agree; the third member separates them
    from fractions import Fraction

    from expodom.lp import fractional_porous_number
    from expodom.solvers import (
        exponential_domination_number,
        porous_exponential_domination_number,
    )

    for k in (1, 2):
        g = fixture_f1(k)
        ge = exponential_domination_number(g).value
        ges = porous_exponential_domination_number(g).value
        assert ges == ge
        assert Fraction(ges) == 2 * fractional_porous_number(g)
    g3 = fixture_f1(3)
    assert (
        porous_exponential_domination_number(g3).value
        < exponential_domination_number(g3).value
    )


def test_get_fixture_ids():
    assert get_fixture("f2").n == 22
    assert get_fixture("f1").n == 7
    assert get_fixture("f1:3").n == 13
    assert get_fixture("F1(2)").n == 10
    with pytest.raises(ValueError):
        get_fixture("f3")
    with pytest.raises(ValueError):
        get_fixture("f1:x")
