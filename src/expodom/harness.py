"""Verification suites and conjecture scans over enumerated trees.

Each suite sweeps the enumerated subcubic trees up to an order bound (the
chain and diameter-bound suites also take cycles), checks one documented
claim per instance, and reports violations as machine-readable records that
can be re-checked from their graph6 strings alone.  ``SUITES`` and ``SCANS``
give each suite and scan a default order bound and a runner, and one function
times and reports them all; a non-empty scan result is a finding, not a failure.

A sweep item is ``(check, g6, g)``: it carries the graph its graph6 string
names, so no sweep parses the graph6 it has just written, and a worker
process unpickles the ``Graph`` instead.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from itertools import combinations
from typing import Callable, NamedTuple

from .canon import canonical_code, tree_isomorphism_map
from .enumeration import (
    MAX_ORDER,
    count_subcubic_trees,
    enumerate_subcubic_trees,
    labeled_count_from_classes,
    labeled_subcubic_tree_count,
    otter_class_count,
    pruefer_class_count,
    trees_up_to,
)
from .family import recognize, replay_trace
from .fixtures import (
    fixture_f2,
    full_binary_tree,
    full_binary_tree_leaves,
)
from .graph import (
    Graph,
    all_pairs_distances,
    cycle,
    degree_partition,
    delete_vertices,
    diameter,
    star,
)
from .graph6 import emit_graph6
from .lp import (
    bound_diameter,
    bound_order_degree,
    bound_subcubic_order,
    fractional_porous_number,
)
from .solvers import (
    all_minimum_porous_sets,
    domination_number,
    exponential_domination_number,
    exponential_parameters,
    porous_exponential_domination_number,
)
from .weights import weight_profile

# the literal Prufer oracle decodes every degree-bounded sequence; beyond
# this order the counting identity (n!/|Aut| vs labeled count) takes over
LITERAL_PRUEFER_MAX = 8

LEMMA2_SEED = 0x5EED
LEMMA2_PAIRS = 500


class Violation(NamedTuple):
    graph6: str
    expected: str
    observed: str

    def to_json_obj(self) -> dict:
        return self._asdict()


class Report:
    """One suite or scan run; ``ms`` is its wall time in milliseconds."""

    def __init__(
        self,
        suite: str,
        params: dict,
        checked: int,
        violations: list[Violation] | None = None,
        ms: int = 0,
    ):
        self.suite = suite
        self.params = params
        self.checked = checked
        self.violations = [] if violations is None else violations
        self.ms = ms

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_obj(self) -> dict:
        # the pinned key order of the JSON report
        return {
            "suite": self.suite,
            "params": self.params,
            "checked": self.checked,
            "violations": [v.to_json_obj() for v in self.violations],
            "ms": self.ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


def _tree_corpus(n_max: int) -> list[Graph]:
    return list(trees_up_to(n_max))


def _tree_cycle_corpus(n_max: int) -> list[Graph]:
    graphs = _tree_corpus(n_max)
    graphs.extend(cycle(k) for k in range(3, n_max + 1))
    return graphs


# -- per-instance checks (module level so worker processes can import them) --


def _check_chain(g6: str, g: Graph) -> list[tuple]:
    lp = fractional_porous_number(g)
    ge, ges = (cert.value for cert in exponential_parameters(g))
    gam = domination_number(g).value
    if lp <= ges <= ge <= gam:
        return []
    return [
        (
            g6,
            "gamma_ef_star <= gamma_e_star <= gamma_e <= gamma",
            f"{lp} <= {ges} <= {ge} <= {gam}",
        )
    ]


def _check_theorem2(g6: str, g: Graph) -> list[tuple]:
    lp = fractional_porous_number(g)
    want = Fraction(g.n + 2, 6)
    if lp == want:
        return []
    return [(g6, f"gamma_ef_star = {want}", str(lp))]


def _check_corollary1(g6: str, g: Graph) -> list[tuple]:
    lp = fractional_porous_number(g)
    ge = exponential_domination_number(g).value
    if ge <= 2 * lp:
        return []
    return [(g6, f"gamma_e <= 2*gamma_ef_star = {2 * lp}", str(ge))]


def _check_theorem3(g6: str, g: Graph) -> list[tuple]:
    cert = porous_exponential_domination_number(g)
    lp = fractional_porous_number(g)
    if not (cert.value == lp and cert.value > 1):
        return []
    out: list[tuple] = []
    v1, v2, v3 = degree_partition(g)
    low = v1 | v2
    dist = all_pairs_distances(g)
    for u in sorted(v1):
        for w in sorted(v2):
            if dist[u][w] == 2:
                out.append(
                    (g6, "no endvertex at distance 2 from a degree-2 vertex",
                     f"dist({u},{w})=2")
                )
    for u1 in sorted(v1):
        for u2 in sorted(v1):
            if u1 == u2 or dist[u1][u2] != 2:
                continue
            for v in sorted(v2):
                if dist[u1][v] in (3, 4):
                    out.append(
                        (g6,
                         "no endvertex pair at distance 2 with a degree-2 "
                         "vertex at distance 3 or 4",
                         f"dist({u1},{u2})=2, dist({u1},{v})={dist[u1][v]}")
                    )
    for dom in all_minimum_porous_sets(g):
        prof = weight_profile(g, dom)
        for u in sorted(low):
            if prof.porous[u] != 1:
                out.append(
                    (g6, f"porous weight 1 at low-degree vertex {u} (D={dom})",
                     str(prof.porous[u]))
                )
        if not set(dom) <= v3:
            out.append(
                (g6, "minimum porous set inside the degree-3 vertices",
                 f"D={dom}")
            )
        neighborhood = {nb for u in low for nb in g.adj[u]}
        if not neighborhood <= (v3 - set(dom)):
            out.append(
                (g6,
                 "neighbors of low-degree vertices are degree-3 non-dominators",
                 f"N={sorted(neighborhood)}, D={dom}")
            )
    return out


def _check_theorem4(g6: str, g: Graph) -> list[tuple]:
    ge = exponential_domination_number(g).value
    lp = fractional_porous_number(g)
    return [("hit", g6)] if Fraction(ge) == lp else []


def _reduce_theorem4(per_item: list[list[tuple]], n_max: int) -> list[tuple]:
    hits = sorted(g6 for items in per_item for tag, g6 in items if tag == "hit")
    k13 = emit_graph6(star(3))
    out = []
    for g6 in hits:
        if g6 != k13:
            out.append(
                (g6, "gamma_e = gamma_ef_star only for the 3-star", "extra hit")
            )
    if n_max >= 4 and k13 not in hits:
        out.append(
            (k13, "gamma_e = gamma_ef_star holds for the 3-star", "no hit")
        )
    return out


def _check_theorem5(g6: str, g: Graph) -> list[tuple]:
    lp = fractional_porous_number(g)
    d = diameter(g)
    out = []
    lb_diam = bound_diameter(d)
    if lp < lb_diam:
        out.append((g6, f"gamma_ef_star >= (d+3)/6 = {lb_diam}", str(lp)))
    lb_order = bound_order_degree(g.n, 3, d)
    if lp < lb_order:
        out.append((g6, f"gamma_ef_star >= n/(2+3d) = {lb_order}", str(lp)))
    out.extend(_corollary2_violations(g6, g, lp, d))
    return out


def _corollary2_violations(g6: str, g: Graph, lp: Fraction, d: int) -> list[tuple]:
    float_bound = bound_subcubic_order(g.n)
    out = []
    if float(lp) < float_bound - 1e-9:
        out.append(
            (g6, f"gamma_ef_star >= {float_bound!r} (1e-9 slack)", str(float(lp)))
        )
    exact = max(bound_diameter(d), bound_order_degree(g.n, 3, d))
    if lp < exact:
        out.append(
            (g6, f"gamma_ef_star >= max((d+3)/6, n/(2+3d)) = {exact}", str(lp))
        )
    return out


def _check_corollary2(g6: str, g: Graph) -> list[tuple]:
    lp = fractional_porous_number(g)
    return _corollary2_violations(g6, g, lp, diameter(g))


def _check_lemma1(g6: str, g: Graph) -> list[tuple]:
    out = []
    low = [u for u in range(g.n) if g.degree(u) <= 2]
    for size in range(0, min(3, g.n) + 1):
        for dom in combinations(range(g.n), size):
            prof = weight_profile(g, dom)
            for u in low:
                if prof.blocked[u] > 2:
                    out.append(
                        (g6,
                         f"blocked weight <= 2 at degree-<=2 vertex {u}, D={dom}",
                         str(prof.blocked[u]))
                    )
    return out


def _check_theorem1equiv(g6: str, g: Graph) -> list[tuple]:
    trace = recognize(g)
    member = trace is not None
    gamma_eq = (
        domination_number(g).value == exponential_domination_number(g).value
    )
    out = []
    if member != gamma_eq:
        out.append(
            (g6, "family membership iff gamma = gamma_e",
             f"member={member}, gamma_eq={gamma_eq}")
        )
    if member:
        rebuilt = replay_trace(trace)  # re-validates every guard
        if tree_isomorphism_map(rebuilt, g) is None:
            out.append(
                (g6, "trace replays to an isomorphic tree", "not isomorphic")
            )
    return out


def _check_conjecture1(g6: str, g: Graph) -> list[tuple]:
    ge, ges = (cert.value for cert in exponential_parameters(g))
    if 2 * ge <= 3 * ges:
        return []
    return [
        (g6, "gamma_e <= (3/2) gamma_e_star",
         f"gamma_e={ge}, gamma_e_star={ges}")
    ]


def _check_conjecture2(g6: str, g: Graph) -> list[tuple]:
    ges = porous_exponential_domination_number(g).value
    lp = fractional_porous_number(g)
    if Fraction(ges) != lp:
        return []
    code = canonical_code(g)
    known = {canonical_code(star(3)), canonical_code(fixture_f2())}
    if code in known:
        return []
    return [
        (g6, "gamma_e_star = gamma_ef_star only on the two known trees",
         f"gamma_e_star={ges}")
    ]


def _mp_item(args):
    check, g6, g = args
    return check(g6, g)


def _run_per_graph(check: Callable, corpus: list[Graph], jobs: int) -> list[list[tuple]]:
    items = [(check, emit_graph6(g), g) for g in corpus]
    if jobs > 1 and len(items) > 1:
        # imported here: at module level it adds about 10 ms to every start
        from multiprocessing import get_context

        with get_context("fork").Pool(min(jobs, len(items))) as pool:
            return pool.map(_mp_item, items)
    return [_mp_item(item) for item in items]


def _sweep(check: Callable, corpus: Callable = _tree_corpus,
           reduce: Callable | None = None) -> Callable:
    """``check(g6, g)`` on each graph of ``corpus(n_max)``; the violations are
    flattened, or ``reduce(per_item, n_max)`` makes them."""

    def run(n_max: int, jobs: int) -> tuple[int, list[tuple]]:
        graphs = corpus(n_max)
        results = _run_per_graph(check, graphs, jobs)
        if reduce is not None:
            return len(graphs), reduce(results, n_max)
        return len(graphs), [v for items in results for v in items]

    return run


# -- suites that are not a plain per-graph sweep ------------------------------


def _run_lemma1(n_max: int, jobs: int) -> tuple[int, list[tuple]]:
    checked, flat = _sweep(_check_lemma1)(n_max, jobs)
    for depth in range(1, 6):
        t = full_binary_tree(depth)
        leaves = full_binary_tree_leaves(depth)
        prof = weight_profile(t, leaves)
        checked += 1
        if prof.blocked[0] != 2:
            flat.append(
                (emit_graph6(t),
                 f"blocked weight exactly 2 at the root of depth-{depth} "
                 "full binary tree with the leaves as dominators",
                 str(prof.blocked[0]))
            )
    return checked, flat


def _run_lemma2(n_max: int, jobs: int) -> tuple[int, list[tuple]]:
    if n_max < 2:
        raise ValueError("lemma2 needs n_max >= 2")
    rng = random.Random(LEMMA2_SEED)
    pools = {n: list(enumerate_subcubic_trees(n)) for n in range(2, n_max + 1)}
    flat = []
    for _ in range(LEMMA2_PAIRS):
        n = rng.randint(2, n_max)
        t = rng.choice(pools[n])
        drop = rng.randint(1, n - 1)
        sub = t
        for _ in range(drop):
            leaves = [v for v in range(sub.n) if sub.degree(v) <= 1]
            sub, _m = delete_vertices(sub, [rng.choice(leaves)])
        ge_t = exponential_domination_number(t).value
        ge_sub = exponential_domination_number(sub).value
        if ge_sub > ge_t:
            flat.append(
                (emit_graph6(t),
                 "gamma_e of a subtree never exceeds gamma_e of the tree",
                 f"subtree {emit_graph6(sub)}: {ge_sub} > {ge_t}")
            )
    return LEMMA2_PAIRS, flat


def _run_enumcount(n_max: int, jobs: int) -> tuple[int, list[tuple]]:
    flat = []
    for n in range(1, n_max + 1):
        ours = count_subcubic_trees(n)
        if n <= LITERAL_PRUEFER_MAX:
            oracle = pruefer_class_count(n)
            if oracle != ours:
                flat.append(
                    (f"n={n}", f"Prufer class count {oracle}", str(ours))
                )
        otter = otter_class_count(n)
        if otter != ours:
            flat.append((f"n={n}", f"Otter class count {otter}", str(ours)))
        ours_labeled = labeled_count_from_classes(n)
        want_labeled = labeled_subcubic_tree_count(n)
        if ours_labeled != want_labeled:
            flat.append(
                (f"n={n}",
                 f"labeled tree count {want_labeled} (Prufer bijection)",
                 str(ours_labeled))
            )
    return n_max, flat


class SuiteSpec(NamedTuple):
    default_nmax: int
    run: Callable[[int, int], tuple[int, list[tuple]]]  # (n_max, jobs)


SUITES: dict[str, SuiteSpec] = {
    "chain": SuiteSpec(10, _sweep(_check_chain, _tree_cycle_corpus)),
    "theorem2": SuiteSpec(12, _sweep(_check_theorem2)),
    "corollary1": SuiteSpec(10, _sweep(_check_corollary1)),
    "theorem3": SuiteSpec(10, _sweep(_check_theorem3)),
    "theorem4": SuiteSpec(10, _sweep(_check_theorem4, reduce=_reduce_theorem4)),
    "theorem5": SuiteSpec(12, _sweep(_check_theorem5, _tree_cycle_corpus)),
    "corollary2": SuiteSpec(12, _sweep(_check_corollary2)),
    "lemma1": SuiteSpec(8, _run_lemma1),
    "lemma2": SuiteSpec(10, _run_lemma2),
    "theorem1equiv": SuiteSpec(9, _sweep(_check_theorem1equiv)),
    "enumcount": SuiteSpec(16, _run_enumcount),
}

SCANS: dict[int, SuiteSpec] = {
    1: SuiteSpec(10, _sweep(_check_conjecture1)),
    2: SuiteSpec(10, _sweep(_check_conjecture2)),
}


def _report(name: str, spec: SuiteSpec, n_max: int | None, jobs: int) -> Report:
    n_max = spec.default_nmax if n_max is None else n_max
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if n_max > MAX_ORDER:
        # every suite and scan enumerates trees up to n_max
        raise ValueError(
            f"n_max must be at most {MAX_ORDER}, the largest tree order enumerated"
        )
    start = time.monotonic()
    checked, flat = spec.run(n_max, jobs)
    violations = [Violation(*v) for v in sorted(set(flat))]
    ms = int((time.monotonic() - start) * 1000)
    return Report(name, {"n_max": n_max}, checked, violations, ms)


def run_suite(suite: str, n_max: int | None = None, jobs: int = 1) -> Report:
    """Run one verification suite; violations empty means the suite passed."""
    key = suite.strip().lower()
    if key not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    return _report(key, SUITES[key], n_max, jobs)


def search_counterexample(
    conjecture: int, n_max: int | None = None, jobs: int = 1
) -> Report:
    """Scan for counterexamples; findings land in the violations list but a
    non-empty list is a research finding, not a failure."""
    if conjecture not in SCANS:
        raise ValueError("conjecture id must be 1 or 2")
    return _report(f"conjecture{conjecture}", SCANS[conjecture], n_max, jobs)
