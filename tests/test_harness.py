import json

import pytest

from expodom.graph6 import parse_graph6
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


def test_pool_has_at_most_one_worker_per_item(monkeypatch):
    # a fake context: records the requested pool size and starts no worker
    import multiprocessing

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
    report = run_suite("theorem2", 3, jobs=1000)
    assert report.checked == 3
    assert sizes == [3]


def test_theorem4_reduce_flags_missing_hit():
    from expodom.harness import _reduce_theorem4

    # no hit reported at n_max >= 4 means the expected witness was missed
    out = _reduce_theorem4([[]], 4)
    assert len(out) == 1 and "no hit" in out[0][2]


def test_lemma2_runs_fixed_pair_count():
    report = run_suite("lemma2", 6)
    assert report.checked == 500
