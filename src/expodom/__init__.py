"""Exact solvers and verification tools for domination, exponential
domination, porous exponential domination, and the fractional porous
relaxation of graphs."""

from .canon import (
    canonical_code,
    pendant_path_code,
    rooted_code,
    rooted_codes,
    tree_isomorphism_map,
)
from .enumeration import enumerate_subcubic_trees, trees_up_to
from .family import (
    OpStep,
    OpTrace,
    TauResult,
    apply_op,
    generate_family,
    op1_applicable,
    op2_applicable,
    op3_applicable,
    recognize,
    replay_trace,
    tau,
)
from .fixtures import fixture_f1, fixture_f2, get_fixture
from .graph import (
    CertificateError,
    Graph,
    INF,
    ParseError,
    bfs_distances,
    degree_partition,
    diameter,
    is_subcubic_tree,
    parse_edge_list,
    path,
)
from .graph6 import emit_graph6, parse_graph6
from .harness import Report, Violation, run_suite, search_counterexample
from .lp import (
    LpModel,
    LpSolution,
    bound_diameter,
    bound_order_degree,
    bound_subcubic_order,
    build_porous_lp,
    canonical_tree_solution,
    fractional_porous_number,
    solve_exact,
    tree_porous_number,
)
from .solvers import (
    DomCertificate,
    all_minimum_porous_sets,
    domination_number,
    domination_with_forced_vertex,
    exponential_domination_number,
    exponential_parameters,
    porous_exponential_domination_number,
    restricted_domination_number,
)
from .weights import (
    WeightProfile,
    blocked_distance,
    is_exponential_dominating,
    is_porous_exponential_dominating,
    weight_profile,
)

__version__ = "0.1.0"
