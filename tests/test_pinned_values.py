import hashlib
import json
import random

import pytest

from expodom.enumeration import trees_up_to
from expodom.family import tau
from expodom.graph import connected_components
from expodom.graph6 import emit_graph6
from expodom.harness import SCANS, SUITES, run_suite, search_counterexample
from expodom.lp import canonical_tree_solution
from expodom.weights import weight_profile

from _oracles import random_subcubic_graph

# sha256 digests computed when weight profiles and tau values were returned
# as dyadic objects and canonical_tree_solution read its rows from the
# Fraction LP model.  Every value is hashed as "num/den", so equal digests
# mean the same exact numbers and the same witnesses.
PINNED_WEIGHT_TAU_DIGEST = "7f88d1d70b46d0bac0cc573d70c27caff35afdeff5c9675c4c1e9a7aa723f528"
PINNED_CANONICAL_DIGEST = "3f0d7aa1c0a4a3085cf564cbf5acf4930b7d032e050a071428eb9a32833d1fbb"


def _ratio(q) -> str:
    return f"{q.numerator}/{q.denominator}"


def _corpus():
    rng = random.Random(2016)
    randoms = [random_subcubic_graph(rng) for _ in range(40)]
    return list(trees_up_to(9)) + randoms


def _dominator_sets(n):
    yield ()
    for u in range(n):
        yield (u,)
        for v in range(u + 1, n):
            yield (u, v)


def test_weight_profiles_and_tau_pinned_values():
    digest = hashlib.sha256()
    cyclic = disconnected = 0
    for g in _corpus():
        parts = len(connected_components(g))
        cyclic += len(g.edges()) > g.n - parts
        disconnected += parts > 1
        digest.update(emit_graph6(g).encode() + b"\n")
        for dset in _dominator_sets(g.n):
            prof = weight_profile(g, dset)
            line = " ".join(
                [repr(prof.dominators), *map(_ratio, prof.blocked), "|",
                 *map(_ratio, prof.porous), "|",
                 _ratio(prof.min_blocked()), _ratio(prof.min_porous())]
            )
            digest.update(line.encode() + b"\n")
        for x in range(g.n):
            got = tau(g, x)
            line = f"tau {x} {_ratio(got.value)} {got.witness!r}"
            digest.update(line.encode() + b"\n")
    assert (cyclic, disconnected) == (11, 11)
    assert digest.hexdigest() == PINNED_WEIGHT_TAU_DIGEST


def test_canonical_tree_solution_pinned_values():
    digest = hashlib.sha256()
    for t in trees_up_to(11):
        sol = canonical_tree_solution(t)
        line = " ".join(
            [emit_graph6(t), *map(_ratio, sol.primal), "|",
             *map(_ratio, sol.dual), "|", _ratio(sol.objective),
             str(sol.primal_feasible), str(sol.dual_feasible),
             str(sol.all_tight)]
        )
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == PINNED_CANONICAL_DIGEST


# sha256 of every suite's and scan's JSON report with its "ms" key removed,
# computed when each sweep item carried a Graph built from its code.  Equal
# digests mean the same counts, violations and graph6 strings.  enumcount
# is pinned at 7: its literal Prufer oracle takes about 3 s at order 8.
PINNED_REPORT_DIGESTS = {
    ("chain", 9): "6f1a8c4fd0ef4c04e36bd97fbb03c3c050876e149bfd125af3526a1e4ee6fa70",
    ("theorem2", 9): "c3387e935d9bb46e16c145e02ea59c3b9c79b9c2772b9d9a611f73e60ca42bc9",
    ("corollary1", 9): "357c6829d04afc7140d5e498eaef50e8e67267a684e5ed96c8607ea0290e8485",
    ("theorem3", 9): "d861483d02d823a312425ed60e0c15804dd8e8f2f3734ddc0e81df516058dc99",
    ("theorem4", 9): "8db3e4169a21cf3fb4cd95dfd2924a7f08aaa6767346a189fbdd33aebdd13be1",
    ("theorem5", 9): "192015f1d4d69ba0fed26e320b6f783b081c8ccaea00067b60cdcb5f29caa124",
    ("corollary2", 9): "264123cdfb9d9487cba41dfe6ce4feb27ea87729d60b37747fe963b855776ff0",
    ("lemma1", 9): "a1742133988f4aad482b83b51cd7699d6172f2d5f8ab5548b1387aa2328c69ca",
    ("lemma2", 9): "aa8694f85019448a2b55d12c1bdc0d3aebf9820d7bdfc9b647765129bfc13374",
    ("theorem1equiv", 9): "55c19f88e87d8b9bf31b7acca04b4340e36678b244c60ff6cc973a7a8acb236d",
    ("enumcount", 7): "9203569c0ae719ca230d60322c328b25e36c2027d4b69736ea8df39ec03fc38a",
    ("conjecture1", 9): "d8dcf546e3dc698e8237e2915b01364d03644df2c8260d8cb76e88ba631e53a6",
    ("conjecture2", 9): "6fc7fe48277bc067d4d8f815fb5789f6757785e2e1f3aaa25d007466742cc9b4",
    ("theorem2", 14): "672d5f2c76188e66eee83bca086370b1b423a226d185feab581ec37317375236",
    ("corollary2", 14): "b53ce1e25a2bb4c864fcf7ada0d4052ed42ff624e47ea2db0bc49ce37a796087",
}


@pytest.mark.parametrize("name, n_max", sorted(PINNED_REPORT_DIGESTS))
def test_reports_pinned(name, n_max):
    if name.startswith("conjecture"):
        report = search_counterexample(int(name[-1]), n_max)
    else:
        report = run_suite(name, n_max)
    obj = report.to_json_obj()
    del obj["ms"]
    digest = hashlib.sha256(json.dumps(obj).encode()).hexdigest()
    assert digest == PINNED_REPORT_DIGESTS[name, n_max]


def test_every_suite_and_scan_is_pinned():
    names = {name for name, _ in PINNED_REPORT_DIGESTS}
    assert names == set(SUITES) | {f"conjecture{c}" for c in SCANS}
