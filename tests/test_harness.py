import json
import sys

import pytest

import expodom
from expodom import canon, graph, graph6, harness, solvers, weights
from expodom.canon import canonical_code, tree_from_code
from expodom.enumeration import (
    _subcubic_trees_cached,
    labeled_count_from_classes,
    labeled_subcubic_tree_count,
)
from expodom.fixtures import fixture_f1, fixture_f2
from expodom.graph import Graph, path, star
from expodom.graph6 import emit_graph6, parse_graph6
from expodom.harness import (
    Report,
    SUITES,
    Violation,
    run_suite,
    search_counterexample,
)


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("theorem9", 5)


def test_all_suites_pass_small():
    for suite in SUITES:
        report = run_suite(suite, 6)
        assert report.passed, f"{suite}: {report.violations}"
        assert report.checked > 0
        assert report.params == {"n_max": 6}


def test_report_json_schema():
    report = run_suite("theorem2", 5)
    obj = json.loads(report.to_json())
    assert list(obj) == ["suite", "params", "checked", "violations", "ms"]
    assert obj["suite"] == "theorem2"
    assert obj["violations"] == []
    assert isinstance(obj["ms"], int)


def test_reports_deterministic_modulo_time():
    a = run_suite("chain", 7)
    b = run_suite("chain", 7)
    a.ms = b.ms = 0
    assert a.to_json() == b.to_json()


def test_parallel_matches_serial():
    serial = run_suite("theorem2", 8, jobs=1)
    parallel = run_suite("theorem2", 8, jobs=2)
    serial.ms = parallel.ms = 0
    assert serial.to_json() == parallel.to_json()


def test_violation_graphs_are_reparseable():
    # the suite machinery reports graph6 strings that parse back
    report = run_suite("chain", 6)
    for item in report.violations:
        parse_graph6(item.graph6)


def test_violation_serialization():
    v = Violation("A_", "x", "y")
    assert v.to_json_obj() == {"graph6": "A_", "expected": "x", "observed": "y"}
    r = Report("demo", {"n_max": 1}, 1, [v], 5)
    assert not r.passed
    obj = r.to_json_obj()
    assert obj["violations"][0]["graph6"] == "A_"


def test_conjecture_scan_small():
    for cid in (1, 2):
        report = search_counterexample(cid, 8)
        assert report.suite == f"conjecture{cid}"
        assert report.violations == []
    with pytest.raises(ValueError):
        search_counterexample(3, 5)


def test_conjecture_scan_default_nmax():
    report = search_counterexample(2)
    assert report.params == {"n_max": 10}
    assert report.checked == 83


def test_equality_checks_search_only_at_integer_lp_values(monkeypatch):
    # gamma_ef_star = (n+2)/6 on trees, an integer only at n = 4 and 10
    searched = []
    real = harness.porous_exponential_domination_number

    def spy(g):
        searched.append(g.n)
        return real(g)

    monkeypatch.setattr(harness, "porous_exponential_domination_number", spy)
    report = search_counterexample(2)
    assert report.checked == 83 and report.violations == []
    assert len(searched) == 39
    assert sorted(set(searched)) == [4, 10]


def test_pool_has_at_most_one_worker_per_item(monkeypatch):
    # a fake context: records the requested pool size and starts no worker
    import multiprocessing
    import os

    sizes = []

    class FakePool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items):
            return [func(item) for item in items]

    class FakeContext:
        Pool = FakePool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: FakeContext)

    def pool_sizes(affinity, count):
        # the usable CPUs: the affinity mask where the platform has one
        # (None: it has none), else the machine's count, which may be None
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            mask = set(range(affinity))
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: mask, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        sizes.clear()
        report = run_suite("theorem2", 3, jobs=1000)
        assert report.checked == 3 and report.passed
        return list(sizes)

    assert pool_sizes(64, 64) == [3]  # one worker per item
    assert pool_sizes(2, 64) == [2]  # one worker per usable CPU
    assert pool_sizes(1, 64) == []  # a cap of one runs serially
    assert pool_sizes(None, 64) == [3]
    assert pool_sizes(None, 2) == [2]
    assert pool_sizes(None, None) == []


def _plant_value(monkeypatch, solver, target, value):
    """Make the harness binding of ``solver`` report ``value`` on the tree
    isomorphic to ``target``."""
    real = getattr(harness, solver)
    code = canonical_code(target)

    def planted(g):
        cert = real(g)
        if g.n == target.n and canonical_code(g) == code:
            return cert._replace(value=value)
        return cert

    monkeypatch.setattr(harness, solver, planted)


def test_theorem4_reports_a_missed_3_star(monkeypatch):
    _plant_value(monkeypatch, "exponential_domination_number", star(3), 2)
    report = run_suite("theorem4", 6)
    assert report.violations == [
        Violation("Cs", "gamma_e = gamma_ef_star holds for the 3-star", "no hit")
    ]
    assert emit_graph6(star(3)) == "Cs"
    # below order 4 the 3-star is not in the corpus, so nothing is missed
    assert run_suite("theorem4", 3).violations == []


def test_theorem4_reports_an_extra_hit_at_order_10(monkeypatch):
    # every tree of order 10 has gamma_ef_star = 2; P10 has gamma_e = 3
    _plant_value(monkeypatch, "exponential_domination_number", path(10), 2)
    report = run_suite("theorem4", 10)
    g6 = emit_graph6(tree_from_code(canonical_code(path(10))))
    assert report.violations == [
        Violation(g6, "gamma_e = gamma_ef_star only for the 3-star", "extra hit")
    ]


def test_conjecture2_reports_a_planted_equality_at_order_10(monkeypatch):
    _plant_value(monkeypatch, "porous_exponential_domination_number", path(10), 2)
    report = search_counterexample(2, 10)
    g6 = emit_graph6(tree_from_code(canonical_code(path(10))))
    assert report.violations == [
        Violation(g6, "gamma_e_star = gamma_ef_star only on the two known trees",
                  "gamma_e_star=2")
    ]


def test_lemma2_runs_fixed_pair_count():
    report = run_suite("lemma2", 6)
    assert report.checked == 500


def _patch_package(monkeypatch, real, fake) -> None:
    """Patch every package binding of the function ``real`` with ``fake``;
    a forked worker inherits the patch."""
    for name, module in list(sys.modules.items()):
        in_package = name == "expodom" or name.startswith("expodom.")
        if in_package and getattr(module, real.__name__, None) is real:
            monkeypatch.setattr(module, real.__name__, fake)


def _spy_tree_builds(monkeypatch) -> list[bytes]:
    """Patch every package binding of ``tree_from_code`` with a spy; the
    returned list collects the code of each tree built."""
    real = canon.tree_from_code
    built: list[bytes] = []

    def spy(code):
        built.append(code)
        return real(code)

    _patch_package(monkeypatch, real, spy)
    return built


def test_labeled_count_builds_no_tree(monkeypatch):
    built = _spy_tree_builds(monkeypatch)
    assert labeled_count_from_classes(12) == labeled_subcubic_tree_count(12)
    assert built == []


def test_lemma2_builds_only_the_drawn_trees(monkeypatch):
    built = _spy_tree_builds(monkeypatch)
    report = run_suite("lemma2", 14)
    assert report.passed and report.checked == 500
    assert 0 < len(built) <= 500


def test_enumcount_reports_an_otter_mismatch(monkeypatch):
    from expodom import harness

    # an enumerator that lost one class at n = 10, past the literal oracle
    real = harness.count_subcubic_trees
    monkeypatch.setattr(
        harness, "count_subcubic_trees", lambda n: real(n) - (n == 10)
    )
    report = run_suite("enumcount", 10)
    assert [v.expected for v in report.violations] == ["Otter class count 37"]
    assert report.violations[0].observed == "36"


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweeps_parse_no_graph6(monkeypatch, jobs):
    # each sweep item carries its tree; a forked worker inherits the stub
    def refuse(text):
        raise AssertionError(f"parsed {text!r}")

    monkeypatch.setattr(graph6, "parse_graph6", refuse)
    monkeypatch.setattr(harness, "parse_graph6", refuse, raising=False)
    report = run_suite("theorem2", 8, jobs=jobs)
    assert report.passed
    assert report.checked == 28


@pytest.mark.parametrize("jobs", [1, 2])
def test_tree_lp_sweeps_build_no_tree(monkeypatch, jobs):
    # theorem2 and corollary2 read the LP and the diameter off each code's
    # rooted view: no Graph built, no tree rooted by a BFS
    def refuse(*args):
        raise AssertionError(f"built or rooted a tree: {args!r}")

    _patch_package(monkeypatch, canon.tree_from_code, refuse)
    _patch_package(monkeypatch, graph.rooted_tree, refuse)
    for suite in ("theorem2", "corollary2"):
        report = run_suite(suite, 10, jobs=jobs)
        assert report.passed
        assert report.checked == 83


@pytest.mark.parametrize("jobs", [1, 2])
def test_theorem4_builds_trees_only_at_integer_lp_values(monkeypatch, jobs):
    # gamma_ef_star = (n+2)/6 is an integer only at orders 4 and 10 here; a
    # build at any other order raises, in a worker too
    real = canon.tree_from_code
    built = []

    def build(code):
        n = len(code) // 2
        if n not in (4, 10):
            raise AssertionError(f"built a tree of order {n}")
        built.append(n)
        return real(code)

    _patch_package(monkeypatch, real, build)
    report = run_suite("theorem4", 10, jobs=jobs)
    assert report.passed
    assert report.checked == 83
    if jobs == 1:  # a worker's builds stay in the worker
        assert (built.count(4), built.count(10), len(built)) == (2, 37, 39)


def _always_fails(tree):
    # module level, so a worker process can unpickle it
    return [("nothing", "something")]


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_sweep_names_each_finding_by_its_graph6(jobs):
    checked, flat = harness._sweep(_always_fails)(6, jobs)
    codes = [c for n in range(1, 7) for c in _subcubic_trees_cached(n)]
    assert checked == len(codes) == 11
    assert flat == [
        (emit_graph6(tree_from_code(code)), "nothing", "something") for code in codes
    ]


def test_a_passing_tree_sweep_writes_no_graph6(monkeypatch):
    written = []
    real = harness.graph6_from_code

    def spy(code):
        written.append(code)
        return real(code)

    monkeypatch.setattr(harness, "graph6_from_code", spy)
    report = run_suite("theorem2", 14)
    assert report.passed and report.checked == 1101
    assert written == []


def test_influence_checks_build_no_weight_profile(monkeypatch):
    # witnesses and suite weights are read in the kernel's integers
    def refuse(g, dominators):
        raise AssertionError("built a Fraction weight profile")

    monkeypatch.setattr(weights, "weight_profile", refuse)
    for module in (expodom, solvers, harness):
        monkeypatch.setattr(module, "weight_profile", refuse, raising=False)
    graphs = [fixture_f1(1), fixture_f2(), Graph(0), Graph(4, [(0, 1), (2, 3)])]
    values = [
        tuple(cert.value for cert in solvers.exponential_parameters(g))
        for g in graphs
    ]
    assert values == [(3, 3), (6, 4), (0, 0), (2, 2)]
    assert run_suite("lemma1", 7).passed
    assert run_suite("theorem3", 8).passed
    f2 = graphs[1]  # no enumerated tree meets theorem 3's premise; f2 does
    assert harness._check_theorem3(f2) == []


def _inflate_first_low_vertex(monkeypatch):
    """Make the influence that harness reads give weight 5/2 to the first
    vertex of degree at most 2."""
    real = harness.influence

    def planted(g, dominators, blocked):
        total = real(g, dominators, blocked)
        u = min(v for v in range(g.n) if g.degree(v) <= 2)
        total[u] = 5 << (g.n - 1)
        return total

    monkeypatch.setattr(harness, "influence", planted)


def test_lemma1_reports_a_planted_weight(monkeypatch):
    _inflate_first_low_vertex(monkeypatch)
    report = run_suite("lemma1", 2)
    assert {v.observed for v in report.violations} == {"5/2"}
    assert Violation(
        emit_graph6(Graph(1)), "blocked weight <= 2 at degree-<=2 vertex 0, D=()", "5/2"
    ) in report.violations
    roots = [v for v in report.violations if "at the root of depth-" in v.expected]
    assert len(roots) == 5


def test_theorem3_suite_reports_f2_under_a_planted_weight(monkeypatch):
    _inflate_first_low_vertex(monkeypatch)
    # f2 follows the 28 trees up to order 8, none of which meets the premise
    report = run_suite("theorem3", 8)
    assert report.checked == 29
    f2 = emit_graph6(fixture_f2())
    assert report.violations == [
        Violation(f2, "porous weight 1 at low-degree vertex 4 (D=(0, 1, 8, 15))", "5/2")
    ]


def test_theorem3_reports_a_planted_weight(monkeypatch):
    _inflate_first_low_vertex(monkeypatch)
    g = fixture_f2()
    assert harness._check_theorem3(g) == [
        ("porous weight 1 at low-degree vertex 4 (D=(0, 1, 8, 15))", "5/2")
    ]
