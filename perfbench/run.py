"""The expodom benchmark: cold command-line runs of four workloads.

    python3 perfbench/run.py --workload trees_lp --seed 1 --seconds 25 --trace 0

One closed-loop caller issues one ``expodom`` command at a time, each in a
fresh interpreter (``perfbench/child.py``) that imports the checkout's
``src/``, so every operation pays the import and the cache fills a command
line user pays.  Operations cycle over the workload's inputs until
``--seconds`` have passed and every input has run once.  Every output is
checked after its operation, outside the timed span.

Other tenants of the host slow this machine by up to 2x for tens of seconds
at a time, which no run length averages out.  So every process runs on one
CPU, each operation is followed by the fixed ``reference_task.py``, and every
time is scaled by REF_S over the mean of the reference times on either side
of it: the figures are seconds on a machine where the reference task takes
REF_S.  The raw figures go to the info line.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates plain
and traced operations on the same inputs and prints the per-layer metrics
and the tracing overhead, scaled the same way.  The last line of stdout is the
result object; the line before it records the environment, the inputs,
the raw figures and any failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from itertools import cycle
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import graphs  # noqa: E402
import tracer  # noqa: E402

# Sizes keep one command near 1 s on a quiet machine here, so that a run of
# 25 s holds a dozen and the reference task runs close to each of them; the
# reference outputs are recorded for exactly these commands.
ARGV = {
    "trees_lp": ["verify", "--suite", "theorem2", "--nmax", "11", "--jobs", "1"],
    "enum_trees": ["enumerate", "--n", "14"],
    "family_grow": ["family", "--nmax", "12"],
}
REF_S = 0.2
OP_TIMEOUT_S = 120
EXIT_BAD_CHECKOUT = 3


@dataclass
class Op:
    """One command and the check of its output.

    ``check(stdout, exit_code)`` returns (items completed, problem or None).
    """

    argv: list[str]
    check: Callable[[bytes, int], tuple[int, str | None]]


@dataclass
class Sample:
    op: int  # index in the pass; -1 for an import-only start
    wall_s: float
    cpu_s: float
    setup_s: float | None
    peak_rss_kb: int | None
    items: int
    problem: str | None
    ref_s: float = 0.0  # mean reference-task time around this command

    def scaled(self, seconds: float) -> float:
        return seconds * REF_S / self.ref_s


# -- workloads ------------------------------------------------------------------


def _expect_exit(code: int, want: int = 0) -> str | None:
    return None if code == want else f"exit code {code}, expected {want}"


def trees_lp_ops(name: str, ref: dict, seed: int, work: Path) -> tuple[list[Op], dict]:
    def check(stdout: bytes, code: int):
        problem = _expect_exit(code)
        if problem:
            return 0, problem
        digest, report = checks.report_digest(stdout)
        if report["checked"] != ref["checked"] or report["violations"]:
            return 0, f"checked {report['checked']}, violations {report['violations'][:1]}"
        if digest != ref["sha256"]:
            return 0, "report differs from the reference"
        return report["checked"], None

    return [Op(ARGV[name], check)], {"trees": ref["checked"]}


def stream_ops(name: str, ref: dict, seed: int, work: Path) -> tuple[list[Op], dict]:
    """enumerate and family: one graph6 line per tree, all distinct."""

    def check(stdout: bytes, code: int):
        problem = _expect_exit(code)
        if problem:
            return 0, problem
        lines = stdout.splitlines()
        if len(lines) != ref["lines"] or len(set(lines)) != len(lines):
            return 0, f"{len(lines)} lines ({len(set(lines))} distinct), expected {ref['lines']}"
        if checks.sha256(stdout) != ref["sha256"]:
            return 0, "stream differs from the reference"
        return len(lines), None

    return [Op(ARGV[name], check)], {"lines": ref["lines"]}


def hard_graphs_ops(name: str, ref: dict, seed: int, work: Path) -> tuple[list[Op], dict]:
    pool = ref["pool"]
    inputs = graphs.write_inputs([p["graph6"] for p in pool], seed, str(work / "inputs"))
    ops = []
    for item in inputs:
        expected = pool[item["index"]]
        n, edges = graphs.decode_graph6(item["graph6"])

        def check(stdout: bytes, code: int, n=n, edges=edges, expected=expected):
            problem = _expect_exit(code)
            if problem:
                return 0, problem
            problems = checks.compute_problems(n, edges, json.loads(stdout))
            if checks.sha256(stdout) != expected["sha256"]:
                problems.append(f"output differs from the reference {expected['values']}")
            return (0, "; ".join(problems)) if problems else (1, None)

        ops.append(Op(["compute", item["path"], "--format", "graph6"], check))
    orders = sorted({p["n"] for p in pool})
    mix = {
        "graphs": len(pool),
        "orders": {str(n): sum(p["n"] == n for p in pool) for n in orders},
        "cyclic_share": sum(p["extra_edges"] > 0 for p in pool) / len(pool),
        "graph6": [item["graph6"] for item in inputs],
    }
    return ops, mix


WORKLOADS = {
    "trees_lp": trees_lp_ops,
    "hard_graphs": hard_graphs_ops,
    "enum_trees": stream_ops,
    "family_grow": stream_ops,
}


# -- running one command -----------------------------------------------------------


def pinned_env() -> dict:
    """The caller's environment without PYTHON* variables or EXPODOM_JOBS,
    plus a fixed hash seed and the checkout's src/ first on the path."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("PYTHON") and k != "EXPODOM_JOBS"
    }
    env.update(PYTHONHASHSEED="0", PYTHONPATH=str(SRC), PERFBENCH_SRC=str(SRC))
    return env


def run_child(script: str, argv: list[str], env: dict, scratch: Path, trace_prefix=None):
    """Start a perfbench script in a fresh interpreter and wait for it.

    Returns (wall_s, cpu_s, exit_code, stdout bytes, side dict or None).
    """
    out, err, side = scratch / "stdout", scratch / "stderr", scratch / "side.json"
    if side.exists():
        side.unlink()
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
    ]
    child_env = dict(env, PERFBENCH_SIDE=str(side))
    if trace_prefix:
        child_env["PERFBENCH_TRACE"] = trace_prefix
    start = time.monotonic_ns()
    child_env["PERFBENCH_SPAWN_NS"] = str(start)
    pid = os.posix_spawn(
        sys.executable,
        [sys.executable, str(HERE / script), *argv],
        child_env,
        file_actions=actions,
    )

    def kill(signum, frame):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:  # exited just as the timer fired
            pass

    previous = signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall_s = (time.monotonic_ns() - start) / 1e9
    code = os.waitstatus_to_exitcode(status)
    side_data = json.loads(side.read_text()) if side.exists() else None
    if code != 0 and side_data is None:
        sys.stderr.write(err.read_text(errors="replace")[-2000:])
    return wall_s, usage.ru_utime + usage.ru_stime, code, out.read_bytes(), side_data


def measure(index: int, op: Op, env: dict, scratch: Path, trace_prefix=None) -> Sample:
    wall_s, cpu_s, code, stdout, side = run_child("child.py", op.argv, env, scratch, trace_prefix)
    try:
        items, problem = op.check(stdout, code)
    except (ValueError, KeyError, TypeError) as exc:  # unparsable output
        items, problem = 0, f"{type(exc).__name__}: {exc}"
    if side is None and problem is None:
        problem = "the command left no side file"
    return Sample(
        index,
        wall_s,
        cpu_s,
        side and side["setup_s"],
        side and side["peak_rss_kb"],
        items,
        problem and f"{' '.join(op.argv)}: {problem}",
    )


def reference_time(env: dict, scratch: Path) -> float:
    _wall, _cpu, code, stdout, _side = run_child("reference_task.py", [], env, scratch)
    if code != 0:
        raise RuntimeError(f"the reference task exited with {code}")
    return float(stdout)


# -- metrics ------------------------------------------------------------------------


def per_op(samples: list[Sample], value, pick) -> float:
    """``pick`` of ``value(sample)`` for each input of the pass, summed over the pass."""
    ops = sorted({s.op for s in samples})
    return sum(pick([value(s) for s in samples if s.op == i]) for i in ops)


def end_to_end(samples: list[Sample]) -> dict:
    """Scaled figures for one pass over the workload's inputs: per input the
    median over its repetitions, summed over the inputs."""
    ok = [s for s in samples if s.problem is None]
    timed = ok or samples
    median = statistics.median
    wall = per_op(timed, lambda s: s.scaled(s.wall_s), median)
    metrics = {
        "setup_s": (median(s.scaled(s.setup_s) for s in samples if s.setup_s is not None), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (per_op(timed, lambda s: s.scaled(s.cpu_s), median), "s"),
        "items_per_s": (per_op(timed, lambda s: s.items, max) / wall, "1/s"),
        "peak_rss_mb": (max((s.peak_rss_kb or 0) for s in timed) / 1024, "MB"),
        "ok_ratio": (len(ok) / len(samples), "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def raw_figures(samples: list[Sample]) -> dict:
    median = statistics.median
    starts = [s.setup_s for s in samples if s.setup_s is not None]
    return {
        "pass_wall_s": per_op(samples, lambda s: s.wall_s, median),
        "pass_cpu_s": per_op(samples, lambda s: s.cpu_s, median),
        "setup_s": median(starts) if starts else None,
        "reference_s": median(s.ref_s for s in samples),
        "reference_quartiles_s": statistics.quantiles([s.ref_s for s in samples], n=4)
        if len(samples) > 1
        else None,
        "commands": [[s.op, s.wall_s, s.cpu_s, s.setup_s, s.ref_s] for s in samples],
    }


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms_max"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits_max"):
        return "bits"
    return "count"


def per_layer(
    plain: list[Sample], traced: list[Sample], summaries: list[tuple[int, dict]]
) -> tuple[dict, dict]:
    """Figures for one pass, as in ``end_to_end`` but with the mean per
    input; ``traced`` holds the operations that passed their checks, one
    for each of ``summaries``."""
    layers, slowest = tracer.aggregate(summaries)
    mean = statistics.fmean
    wall = per_op(traced, lambda s: s.scaled(s.wall_s), mean)
    startup = per_op(traced, lambda s: s.scaled(s.setup_s or 0.0), mean)
    root = layers.pop("trace.root_s")
    layers["startup.self_s"] = startup
    layers["trace.wall_s"] = wall
    layers["trace.untraced_wall_s"] = per_op(plain, lambda s: s.scaled(s.wall_s), mean)
    layers["trace.overhead_s"] = wall - layers["trace.untraced_wall_s"]
    layers["trace.residual_s"] = wall - startup - root
    self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    info = {
        "slowest_item": slowest,
        "self_times_plus_residual_s": self_sum + layers["trace.residual_s"],
        "traced_wall_s": wall,
    }
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(layers.items())}
    return metrics, info


# -- the run --------------------------------------------------------------------------


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        found = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = found.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "PYTHONHASHSEED": "0",
        "EXPODOM_JOBS": None,
        "jobs": 1,
        "imports_from": "src",
    }


def measure_loop(ops, args, env, scratch) -> list[Sample]:
    """Operations, each followed by the reference task, until the time is up
    and every input has run once."""
    # an import-only start compiles bytecode and warms the file cache: untimed
    measure(-1, Op([], lambda stdout, code: (0, _expect_exit(code))), env, scratch)
    samples: list[Sample] = []
    ref_before = reference_time(env, scratch)
    start = time.monotonic()
    for index, op in cycle(enumerate(ops)):
        if len(samples) >= len(ops) and time.monotonic() - start >= args.seconds:
            break
        sample = measure(index, op, env, scratch)
        ref_after = reference_time(env, scratch)
        sample.ref_s = (ref_before + ref_after) / 2
        ref_before = ref_after
        samples.append(sample)
    return samples


def trace_loop(ops, args, env, scratch) -> tuple[list[Sample], list[Sample], list[dict]]:
    """Plain and traced operations in turn on the same inputs, each pair
    followed by the reference task; span times are scaled like the rest."""
    plain: list[Sample] = []
    traced: list[Sample] = []
    summaries: list[tuple[int, dict]] = []
    prefix = str(scratch / "spans")
    ref_before = reference_time(env, scratch)
    start = time.monotonic()
    for index, op in cycle(enumerate(ops)):
        if len(plain) >= len(ops) and time.monotonic() - start >= args.seconds:
            break
        pair = [measure(index, op, env, scratch), measure(index, op, env, scratch, prefix)]
        summary = tracer.summarize(prefix) if pair[1].problem is None else None
        ref_after = reference_time(env, scratch)
        for sample in pair:
            sample.ref_s = (ref_before + ref_after) / 2
        ref_before = ref_after
        if summary is not None:
            summaries.append((index, tracer.scale_times(summary, pair[1].scaled(1.0))))
        plain.append(pair[0])
        traced.append(pair[1])
    return plain, traced, summaries


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "expodom" / "cli.py").is_file():
        print(f"no expodom sources under {SRC}", file=sys.stderr)
        return EXIT_BAD_CHECKOUT
    references = json.loads((HERE / "references.json").read_text())
    ref = references["workloads"][args.workload]
    if ref.get("argv") != ARGV.get(args.workload):
        print(f"the reference was recorded for {ref.get('argv')}", file=sys.stderr)
        return EXIT_BAD_CHECKOUT
    # one CPU for every command and every reference task, so that each
    # scaling factor was measured on the CPU the command ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    scratch = WORK / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        ops, inputs = WORKLOADS[args.workload](args.workload, ref, args.seed, scratch)
        env = pinned_env()
        if args.trace:
            plain, traced, summaries = trace_loop(ops, args, env, scratch)
        else:
            plain = measure_loop(ops, args, env, scratch)
            traced, summaries = [], []
        samples = plain + traced
        failures = [s.problem for s in samples if s.problem]
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "env": environment(),
            "reference_commit": references["commit"],
            "inputs": inputs,
            "operations": len(samples),
            "failures": failures[:5],
        }
        if all(s.setup_s is None for s in plain) or (args.trace and not summaries):
            print(json.dumps(info))
            print("no command ran to the end", file=sys.stderr)
            return 1
        if args.trace:
            passed = [s for s in traced if s.problem is None]
            metrics, info["trace"] = per_layer(plain, passed, summaries)
        else:
            info["raw"] = raw_figures(plain)
            metrics = end_to_end(plain)
        print(json.dumps(info))
        result = {
            "correct": not failures,
            "attempted": len(samples),
            "failed": len(failures),
            "metrics": metrics,
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run's directory is still there
            pass


if __name__ == "__main__":
    sys.exit(main())
