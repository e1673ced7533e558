"""Verification suites and conjecture scans over enumerated trees.

Each suite sweeps the enumerated subcubic trees up to an order bound (the
chain and diameter-bound suites also take cycles), checks one documented
claim per instance, and reports violations as machine-readable records that
can be re-checked from their graph6 strings alone.  ``SUITES`` and ``SCANS``
give each suite and scan a default order bound and a runner, and one function
times and reports them all; a non-empty scan result is a finding, not a failure.

A sweep item is a canonical tree code from ``enumeration``, reached one
order at a time, never for the whole corpus at once; a worker process
receives the bare code.  The cycles of chain and theorem5 and theorem3's
``fixture_f2``, which meets its premise (no enumerated tree up to order 12
does), ride the same sweep as ``Graph`` items, after the trees.  A check
takes its item alone, parses it itself, and returns its findings as
``(expected, observed)`` pairs: theorem4 flags an "extra hit" off the
3-star and a "no hit" on it.  ``_sweep`` alone names a finding by its
item's graph6, so a passing sweep writes none.  As lemma1 appends full
binary trees, theorem3 appends f2.

theorem2, corollary2, theorem3, theorem4 and conjecture 2 read the LP
value off the code's rooted view (``canon._code_tree``) by
``rooted_porous_number``, the core of ``tree_porous_number``, and
corollary2 its diameter by ``rooted_tree_diameter``, with no ``Graph``
built.  A check builds a ``Graph``, always by ``tree_from_code``, only to
search or to name vertices: corollary1, conjecture 1, theorem1equiv and
lemma1 on every tree, and the equality checks (theorem3, theorem4,
conjecture 2) only when the LP value is an integer, never assuming
Theorem 2; so vertex labels, witnesses and violation texts are those of
the tree built from the code.  theorem4 and conjecture 2 compare the
item's code with the codes of the known trees.  chain and theorem5 build
every tree and read ``fractional_porous_number``.
"""

from __future__ import annotations

import json
import os
import random
import time
from fractions import Fraction
from itertools import combinations
from typing import Callable, NamedTuple

from .canon import _code_tree, canonical_code, tree_from_code, tree_isomorphism_map
from .enumeration import (
    MAX_ORDER,
    _subcubic_trees_cached,
    count_subcubic_trees,
    labeled_count_from_classes,
    labeled_subcubic_tree_count,
    otter_class_count,
    pruefer_class_count,
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
    rooted_tree_diameter,
    star,
)
from .graph6 import emit_graph6, graph6_from_code
from .lp import (
    bound_diameter,
    bound_order_degree,
    bound_subcubic_order,
    fractional_porous_number,
    rooted_porous_number,
    tree_porous_number,
)
from .solvers import (
    all_minimum_porous_sets,
    domination_number,
    exponential_domination_number,
    exponential_parameters,
    porous_exponential_domination_number,
)
from .weights import influence

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


def _cycles(n_max: int) -> list[Graph]:
    return [cycle(n) for n in range(3, n_max + 1)]


def _f2(n_max: int) -> list[Graph]:
    return [fixture_f2()]


def _graph(tree) -> Graph:
    """A sweep item's graph: an extra as it is, a tree code as
    ``tree_from_code`` builds it."""
    return tree if isinstance(tree, Graph) else tree_from_code(tree)


def _tree_lp(tree) -> tuple[int, Fraction]:
    """The order and the certified porous LP value of a tree given as a
    ``Graph`` or by its code; a code is read off its rooted view, with no
    ``Graph`` built."""
    if isinstance(tree, Graph):
        return tree.n, tree_porous_number(tree)
    order, children = _code_tree(tree)
    return len(order), rooted_porous_number(order, children)


# -- per-instance checks (module level so worker processes can import them) --


def _check_chain(tree) -> list[tuple]:
    g = _graph(tree)
    lp = fractional_porous_number(g)
    ge, ges = (cert.value for cert in exponential_parameters(g))
    gam = domination_number(g).value
    if lp <= ges <= ge <= gam:
        return []
    return [
        ("gamma_ef_star <= gamma_e_star <= gamma_e <= gamma",
         f"{lp} <= {ges} <= {ge} <= {gam}")
    ]


def _check_theorem2(code: bytes) -> list[tuple]:
    n, lp = _tree_lp(code)
    want = Fraction(n + 2, 6)
    if lp == want:
        return []
    return [(f"gamma_ef_star = {want}", str(lp))]


def _check_corollary1(code: bytes) -> list[tuple]:
    g = tree_from_code(code)
    lp = tree_porous_number(g)
    ge = exponential_domination_number(g).value
    if ge <= 2 * lp:
        return []
    return [(f"gamma_e <= 2*gamma_ef_star = {2 * lp}", str(ge))]


def _check_theorem3(tree) -> list[tuple]:
    _, lp = _tree_lp(tree)
    # the premise gamma_e_star = lp > 1; the search runs at an integer lp only
    if lp.denominator != 1 or lp <= 1:
        return []
    g = _graph(tree)
    if porous_exponential_domination_number(g).value != lp:
        return []
    out: list[tuple] = []
    v1, v2, v3 = degree_partition(g)
    low = v1 | v2
    dist = all_pairs_distances(g)
    for u in sorted(v1):
        for w in sorted(v2):
            if dist[u][w] == 2:
                out.append(
                    ("no endvertex at distance 2 from a degree-2 vertex",
                     f"dist({u},{w})=2")
                )
    for u1 in sorted(v1):
        for u2 in sorted(v1):
            if u1 == u2 or dist[u1][u2] != 2:
                continue
            for v in sorted(v2):
                if dist[u1][v] in (3, 4):
                    out.append(
                        ("no endvertex pair at distance 2 with a degree-2 "
                         "vertex at distance 3 or 4",
                         f"dist({u1},{u2})=2, dist({u1},{v})={dist[u1][v]}")
                    )
    for dom in all_minimum_porous_sets(g):
        porous = influence(g, dom, False)
        for u in sorted(low):
            if porous[u] != 1 << g.n:
                out.append(
                    (f"porous weight 1 at low-degree vertex {u} (D={dom})",
                     str(Fraction(porous[u], 1 << g.n)))
                )
        if not set(dom) <= v3:
            out.append(
                ("minimum porous set inside the degree-3 vertices",
                 f"D={dom}")
            )
        neighborhood = {nb for u in low for nb in g.adj[u]}
        if not neighborhood <= (v3 - set(dom)):
            out.append(
                ("neighbors of low-degree vertices are degree-3 non-dominators",
                 f"N={sorted(neighborhood)}, D={dom}")
            )
    return out


def _check_theorem4(code: bytes) -> list[tuple]:
    n, lp = _tree_lp(code)
    hit = (
        lp.denominator == 1
        and exponential_domination_number(tree_from_code(code)).value == lp
    )
    k13 = n == 4 and code == canonical_code(star(3))  # the one hit expected
    if hit == k13:
        return []
    if k13:
        return [("gamma_e = gamma_ef_star holds for the 3-star", "no hit")]
    return [("gamma_e = gamma_ef_star only for the 3-star", "extra hit")]


def _check_theorem5(tree) -> list[tuple]:
    g = _graph(tree)
    lp = fractional_porous_number(g)
    d = diameter(g)
    out = []
    lb_diam = bound_diameter(d)
    if lp < lb_diam:
        out.append((f"gamma_ef_star >= (d+3)/6 = {lb_diam}", str(lp)))
    lb_order = bound_order_degree(g.n, 3, d)
    if lp < lb_order:
        out.append((f"gamma_ef_star >= n/(2+3d) = {lb_order}", str(lp)))
    out.extend(_corollary2_violations(g.n, lp, d))
    return out


def _corollary2_violations(n: int, lp: Fraction, d: int) -> list[tuple]:
    float_bound = bound_subcubic_order(n)
    out = []
    if float(lp) < float_bound - 1e-9:
        out.append(
            (f"gamma_ef_star >= {float_bound!r} (1e-9 slack)", str(float(lp)))
        )
    exact = max(bound_diameter(d), bound_order_degree(n, 3, d))
    if lp < exact:
        out.append(
            (f"gamma_ef_star >= max((d+3)/6, n/(2+3d)) = {exact}", str(lp))
        )
    return out


def _check_corollary2(code: bytes) -> list[tuple]:
    order, children = _code_tree(code)
    lp = rooted_porous_number(order, children)
    d = rooted_tree_diameter(order, children)
    return _corollary2_violations(len(order), lp, d)


def _check_lemma1(code: bytes) -> list[tuple]:
    g = tree_from_code(code)
    out = []
    low = [u for u in range(g.n) if g.degree(u) <= 2]
    for size in range(0, min(3, g.n) + 1):
        for dom in combinations(range(g.n), size):
            blocked = influence(g, dom, True)
            for u in low:
                if blocked[u] > 2 << g.n:
                    out.append(
                        (f"blocked weight <= 2 at degree-<=2 vertex {u}, D={dom}",
                         str(Fraction(blocked[u], 1 << g.n)))
                    )
    return out


def _check_theorem1equiv(code: bytes) -> list[tuple]:
    g = tree_from_code(code)
    trace = recognize(g)
    member = trace is not None
    gamma_eq = (
        domination_number(g).value == exponential_domination_number(g).value
    )
    out = []
    if member != gamma_eq:
        out.append(
            ("family membership iff gamma = gamma_e",
             f"member={member}, gamma_eq={gamma_eq}")
        )
    if member:
        rebuilt = replay_trace(trace)  # re-validates every guard
        if tree_isomorphism_map(rebuilt, g) is None:
            out.append(("trace replays to an isomorphic tree", "not isomorphic"))
    return out


def _check_conjecture1(code: bytes) -> list[tuple]:
    ge, ges = (cert.value for cert in exponential_parameters(tree_from_code(code)))
    if 2 * ge <= 3 * ges:
        return []
    return [("gamma_e <= (3/2) gamma_e_star", f"gamma_e={ge}, gamma_e_star={ges}")]


def _check_conjecture2(code: bytes) -> list[tuple]:
    _, lp = _tree_lp(code)
    if lp.denominator != 1:
        return []
    ges = porous_exponential_domination_number(tree_from_code(code)).value
    if ges != lp:
        return []
    if code in {canonical_code(star(3)), canonical_code(fixture_f2())}:
        return []
    return [
        ("gamma_e_star = gamma_ef_star only on the two known trees",
         f"gamma_e_star={ges}")
    ]


def _usable_cpus() -> int:
    """The CPUs this process may run on, or the machine's count where the
    platform cannot tell."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sweep(check: Callable, extras: Callable | None = None) -> Callable:
    """``check(code)`` on each tree code up to order n_max, one order at a
    time, then ``check(g)`` on each graph of ``extras(n_max)``, by ``map``
    or by one ``pool.map`` per order, whose workers receive bare items.

    A check returns its findings as ``(expected, observed)`` pairs; here
    alone each is named by its item's graph6 (``graph6_from_code`` for a
    code, ``emit_graph6`` for a ``Graph``).  The pool has at most one
    worker per item and per usable CPU; a cap of one runs serially."""

    def run(n_max: int, jobs: int) -> tuple[int, list[tuple]]:
        batches = [
            (_subcubic_trees_cached(n), graph6_from_code) for n in range(1, n_max + 1)
        ]
        batches.append(([] if extras is None else extras(n_max), emit_graph6))
        total = sum(len(items) for items, _ in batches)
        workers = min(jobs, total, _usable_cpus())
        if workers > 1:
            # imported here: at module level it adds about 10 ms to every start
            from multiprocessing import get_context

            with get_context("fork").Pool(workers) as pool:
                return total, _named(pool.map, check, batches)
        return total, _named(map, check, batches)

    return run


def _named(mapper: Callable, check: Callable, batches: list) -> list[tuple]:
    """Every finding of ``check`` over the batches' items, as
    ``(graph6, expected, observed)``."""
    return [
        (write(item), *finding)
        for items, write in batches
        for item, found in zip(items, mapper(check, items))
        for finding in found
    ]


# -- suites that are not a plain per-graph sweep ------------------------------


def _run_lemma1(n_max: int, jobs: int) -> tuple[int, list[tuple]]:
    checked, flat = _sweep(_check_lemma1)(n_max, jobs)
    for depth in range(1, 6):
        t = full_binary_tree(depth)
        leaves = full_binary_tree_leaves(depth)
        root = influence(t, leaves, True)[0]
        checked += 1
        if root != 2 << t.n:
            flat.append(
                (emit_graph6(t),
                 f"blocked weight exactly 2 at the root of depth-{depth} "
                 "full binary tree with the leaves as dominators",
                 str(Fraction(root, 1 << t.n)))
            )
    return checked, flat


def _run_lemma2(n_max: int, jobs: int) -> tuple[int, list[tuple]]:
    if n_max < 2:
        raise ValueError("lemma2 needs n_max >= 2")
    rng = random.Random(LEMMA2_SEED)
    flat = []
    for _ in range(LEMMA2_PAIRS):
        n = rng.randint(2, n_max)
        t = tree_from_code(rng.choice(_subcubic_trees_cached(n)))
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
    "chain": SuiteSpec(10, _sweep(_check_chain, _cycles)),
    "theorem2": SuiteSpec(12, _sweep(_check_theorem2)),
    "corollary1": SuiteSpec(10, _sweep(_check_corollary1)),
    "theorem3": SuiteSpec(10, _sweep(_check_theorem3, _f2)),
    "theorem4": SuiteSpec(10, _sweep(_check_theorem4)),
    "theorem5": SuiteSpec(12, _sweep(_check_theorem5, _cycles)),
    "corollary2": SuiteSpec(12, _sweep(_check_corollary2)),
    "lemma1": SuiteSpec(11, _run_lemma1),
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
