"""Command-line interface.

Subcommands: compute, enumerate, tau, family, verify, conjecture, fixture.
All results are JSON on stdout (rationals as {"num", "den"} decimal strings)
so identical invocations produce byte-identical output.  Exit codes: 0
success, 2 suite violations, 64 usage errors (``--nmax`` or ``--jobs``
below 1 among them, and ``family`` without exactly one of ``--nmax`` and
``--recognize``), 65 malformed or oversized data or memory run out, 70 a failed
internal certificate check (a bug: an optimum failed its re-check).  ``tau``,
``family --recognize`` and the searches of ``compute`` (unless ``--force``)
refuse graphs above SIZE_GUARD vertices with exit 65, because their searches
are exponential: ``tau``'s over candidate sets, recognition's reverse search
over peel-backs.  ``compute`` also refuses the fractional relaxation above
``lp.LP_ORDER_LIMIT`` (100) vertices unless ``--no-lp`` or ``--force`` is
given, because the exact LP grows as about n**6 by either route (the tight
linear system, eliminated over its upper triangle, or the simplex it falls
back to on a zero pivot or a negative entry), and refuses graphs above
``solvers.COVER_ORDER_LIMIT`` vertices, whose cover-search tables would not
fit in memory; every limit is checked before any work starts.
Below that limit the cover search is exponential once gamma exceeds its
counting bound: ``--no-ilp --no-lp`` takes 0.75 s on f1:13 (n = 43), 12 s on
f1:16 (n = 52) and 0.12 s on P3000.
``enumerate --n`` and the ``--nmax`` of ``verify`` and ``conjecture`` above
``enumeration.MAX_ORDER`` (22) exit 64 before any tree is composed: the
codes take under a second there, and ``enumerate`` writes each graph6 line
straight from its code with no ``Graph`` built (about 4 s at 22), but a
sweep of the per-tree checks over orders above it would run for hours.
``family --nmax`` above ``family.MAX_ORDER`` (20; about 6.5 s there) and
``f1:<k>`` fixtures above ``graph.MAX_ORDER`` vertices exit 64 before
anything is built.
``verify`` and ``conjecture`` default ``--nmax`` per suite or scan, and run
``--jobs`` worker processes (default 1), one pool per run.  A sweep reaches
its trees as canonical codes, one order at a time, and builds a ``Graph``
only where a check searches or names vertices: ``verify --suite theorem2``
reads each tree's LP off its code: about 18 s and 61 MB at ``--nmax 22``
under ``python -O`` (one core of a shared 2-core x86 host, Python 3.11).
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import sys
from fractions import Fraction

from .enumeration import _subcubic_trees_cached
from .family import generate_family, recognize, tau
from .fixtures import get_fixture
from .graph import (
    CertificateError,
    Graph,
    NotSubcubicError,
    NotTreeError,
    ParseError,
    format_edge_list,
    parse_edge_list,
)
from .graph6 import emit_graph6, graph6_from_code, parse_graph6
from .harness import SCANS, SUITES, run_suite, search_counterexample
from .lp import LP_ORDER_LIMIT, fractional_porous_number
from .solvers import COVER_ORDER_LIMIT, domination_number, exponential_parameters

EXIT_OK = 0
EXIT_VIOLATIONS = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_SOFTWARE = 70

SIZE_GUARD = 26


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _rational(q: Fraction) -> dict:
    return {"num": str(q.numerator), "den": str(q.denominator)}


def _read_text(source: str) -> str:
    try:
        if source == "-":
            return sys.stdin.read()
        with open(source, "r", encoding="ascii") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"input is not ASCII text: {exc.reason} at byte {exc.start}"
        ) from None


def _load_graph(source: str | None, fmt: str, fixture: str | None = None) -> Graph:
    if fixture:
        return get_fixture(fixture)
    if source is None:
        raise ParseError("no input given (pass a path, '-', or --fixture)")
    text = _read_text(source)
    if fmt == "edgelist":
        return parse_edge_list(text)
    if fmt == "graph6":
        return parse_graph6(text)
    try:
        return parse_edge_list(text)
    except ParseError as edge_err:
        try:
            return parse_graph6(text)
        except ParseError as g6_err:
            head = text.lstrip()[:1]
            looks_like_edges = head == "" or head.isdigit() or head in "#n"
            raise edge_err if looks_like_edges else g6_err from None


def _refused(g: Graph, what: str, why: str, limit: int = SIZE_GUARD) -> bool:
    """Say on stderr that ``what`` is refused when g exceeds ``limit``."""
    if g.n <= limit:
        return False
    print(f"refusing {what} at n={g.n} > {limit}{why}", file=sys.stderr)
    return True


def _cmd_compute(args) -> int:
    g = _load_graph(args.input, args.format, args.fixture)
    want_ilp = not args.no_ilp
    # every limit is checked before any work starts; one refusal is printed
    if (
        want_ilp and not args.force and _refused(
            g, "the exponential searches", "; pass --force or --no-ilp"
        )
        or not args.no_lp and not args.force and _refused(
            g, "the fractional relaxation",
            ": the exact LP grows as about n**6; pass --force or --no-lp",
            LP_ORDER_LIMIT,
        )
        or _refused(
            g, "the domination search", ": its bitmask tables grow as n**2 bits",
            COVER_ORDER_LIMIT,
        )
    ):
        return EXIT_DATA
    gamma = domination_number(g)
    out = {"n": g.n, "gamma": gamma.value, "gamma_witness": list(gamma.witness)}
    if want_ilp:
        ge, ges = exponential_parameters(g)
        out["gamma_e"] = ge.value
        out["gamma_e_witness"] = list(ge.witness)
        out["gamma_e_star"] = ges.value
        out["gamma_e_star_witness"] = list(ges.witness)
    else:
        out["gamma_e"] = out["gamma_e_witness"] = None
        out["gamma_e_star"] = out["gamma_e_star_witness"] = None
    if args.no_lp:
        out["gamma_ef_star"] = None
    else:
        out["gamma_ef_star"] = _rational(fractional_porous_number(g))
    print(json.dumps(out))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    for code in _subcubic_trees_cached(args.n):
        print(graph6_from_code(code))
    return EXIT_OK


def _cmd_tau(args) -> int:
    g = _load_graph(args.input, args.format, args.fixture)
    if _refused(g, "tau", ": its searches are exponential"):
        return EXIT_DATA
    if not 0 <= args.vertex < g.n:
        print(f"vertex {args.vertex} out of range for n={g.n}", file=sys.stderr)
        return EXIT_DATA
    result = tau(g, args.vertex)
    payload = {
        "vertex": args.vertex,
        "tau": _rational(result.value),
        "witness": list(result.witness),
    }
    print(json.dumps(payload))
    return EXIT_OK


def _cmd_family(args) -> int:
    if args.recognize is not None:
        g = _load_graph(args.recognize, args.format)
        if _refused(
            g, "recognition", ": its reverse search over peel-backs is exponential"
        ):
            return EXIT_DATA
        trace = recognize(g)
        payload = {
            "member": trace is not None,
            "trace": trace.to_json_obj() if trace is not None else None,
        }
        print(json.dumps(payload))
        return EXIT_OK
    for t in generate_family(args.nmax):
        print(emit_graph6(t))
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, args.nmax, jobs=args.jobs)
    print(report.to_json())
    return EXIT_OK if report.passed else EXIT_VIOLATIONS


def _cmd_conjecture(args) -> int:
    report = search_counterexample(args.id, args.nmax, jobs=args.jobs)
    print(report.to_json())
    return EXIT_OK


def _cmd_fixture(args) -> int:
    g = get_fixture(args.id)
    if args.format == "edgelist":
        sys.stdout.write(format_edge_list(g))
    else:
        print(emit_graph6(g))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="expodom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    graph_input = argparse.ArgumentParser(add_help=False)
    graph_input.add_argument("input", nargs="?",
                             help="edge list or graph6 file, or -")
    graph_input.add_argument("--fixture",
                             help="use a built-in fixture (f1:<k> or f2)")
    graph_input.add_argument("--format", choices=("auto", "edgelist", "graph6"),
                             default="auto")

    p = sub.add_parser("compute", parents=[graph_input],
                       help="all parameters of one graph")
    p.add_argument("--no-ilp", action="store_true",
                   help="skip the exponential domination searches")
    p.add_argument("--no-lp", action="store_true",
                   help="skip the fractional relaxation")
    p.add_argument("--force", action="store_true",
                   help="override the size guards on the exponential searches "
                        "and on the fractional relaxation")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("enumerate", help="stream non-isomorphic subcubic trees")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("tau", parents=[graph_input],
                       help="repair influence of a vertex")
    p.add_argument("--vertex", type=int, required=True)
    p.set_defaults(func=_cmd_tau)

    p = sub.add_parser("family", help="generate or recognize family members")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--nmax", type=int)
    mode.add_argument("--recognize", metavar="INPUT",
                      help="emit a construction trace for this tree")
    p.add_argument("--format", choices=("auto", "edgelist", "graph6"),
                   default="auto")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("conjecture", help="scan for counterexamples")
    p.add_argument("--id", type=int, required=True, choices=sorted(SCANS))
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_conjecture)

    p = sub.add_parser("fixture", help="emit a built-in fixture")
    p.add_argument("--id", required=True, help="f1, f1:<k>, or f2")
    p.add_argument("--format", choices=("graph6", "edgelist"),
                   default="graph6")
    p.set_defaults(func=_cmd_fixture)

    return parser


_freeze_registered = False


def main(argv=None) -> int:
    # Once per process: at exit, move every live object into the permanent
    # generation, so that the shutdown collections skip the heap and the OS
    # frees it.  Nothing is frozen while the process runs, so in-process
    # callers do not leak.  Forked workers leave through os._exit, past it.
    global _freeze_registered
    if not _freeze_registered:
        atexit.register(gc.freeze)
        _freeze_registered = True
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ParseError, NotTreeError, NotSubcubicError, OSError) as exc:
        print(f"expodom: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"expodom: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CertificateError as exc:
        print(f"expodom: certificate check failed: {exc}", file=sys.stderr)
        return EXIT_SOFTWARE
    except MemoryError:
        print("expodom: out of memory: the input is too large", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
