"""The public result records: built by keyword, immutable, stable JSON."""

import json
from fractions import Fraction as F

import pytest

from expodom.family import OpStep, OpTrace, TauResult
from expodom.harness import Report, SuiteSpec, Violation
from expodom.lp import CanonicalSolution, LpModel, LpSolution
from expodom.solvers import DomCertificate
from expodom.weights import WeightProfile

HALF = (F(1, 2),)
PROFILE = WeightProfile(dominators=(0,), blocked=HALF, porous=HALF)
MODEL = LpModel(matrix=(HALF,), rhs=HALF, objective=HALF)
STEP = OpStep(op=1, attach=0, added=(1,))
TRACE = OpTrace(steps=(STEP,))
VIOLATION = Violation(graph6="A_", expected="x", observed="y")

RECORDS = [
    PROFILE,
    DomCertificate(parameter="gamma", value=1, witness=(0,)),
    MODEL,
    LpSolution(status="optimal", primal=HALF, dual=HALF, objective=F(1, 2)),
    CanonicalSolution(
        primal=HALF, dual=HALF, objective=F(1, 2),
        primal_feasible=True, dual_feasible=True, all_tight=True,
    ),
    TauResult(value=F(1), witness=()),
    STEP,
    TRACE,
    VIOLATION,
    SuiteSpec(default_nmax=3, run=lambda n_max, jobs: (0, [])),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_fields_are_read_only(record):
    for name in vars(type(record))["__annotations__"]:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        assert getattr(record, name) is before


def test_record_defaults_and_methods():
    assert PROFILE.min_blocked() == PROFILE.min_porous() == F(1, 2)
    assert MODEL.size == 1
    assert OpTrace.from_json_obj(TRACE.to_json_obj()) == TRACE
    report = Report(suite="demo", params={"n_max": 1}, checked=0)
    assert report.violations == [] and report.ms == 0 and report.passed


def test_report_json_key_order():
    report = Report(
        suite="demo", params={"n_max": 1}, checked=1, violations=[VIOLATION], ms=5
    )
    obj = json.loads(report.to_json())
    assert list(obj) == ["suite", "params", "checked", "violations", "ms"]
    assert obj["violations"] == [{"graph6": "A_", "expected": "x", "observed": "y"}]
