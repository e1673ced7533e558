"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/make_reference.py

Run once, at the commit whose outputs are the reference, and commit the
resulting ``perfbench/references.json``.  A later change must reproduce
these outputs, so rerunning this script is only right after a change of
the workload commands or of the hard_graphs pool, on a commit whose
outputs are trusted.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import checks
import graphs
import run


def record(argv, env, scratch):
    wall_s, _cpu, code, stdout, _side = run.run_child("child.py", argv, env, scratch)
    if code != 0:
        sys.exit(f"{' '.join(argv)} exited with {code}")
    print(f"{' '.join(argv)}: {wall_s:.2f} s", file=sys.stderr)
    return stdout


def main() -> None:
    env = run.pinned_env()
    out = {"commit": run.environment()["commit"], "workloads": {}}
    refs = out["workloads"]
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        scratch = Path(tmp)
        stdout = record(run.ARGV["trees_lp"], env, scratch)
        digest, report = checks.report_digest(stdout)
        if report["violations"]:
            sys.exit("theorem2 reports violations")
        refs["trees_lp"] = {
            "argv": run.ARGV["trees_lp"],
            "sha256": digest,
            "checked": report["checked"],
        }
        for name in ("enum_trees", "family_grow"):
            stdout = record(run.ARGV[name], env, scratch)
            refs[name] = {
                "argv": run.ARGV[name],
                "sha256": checks.sha256(stdout),
                "lines": len(stdout.splitlines()),
            }
        pool = []
        for item in graphs.pool_structures():
            path = scratch / "graph.g6"
            path.write_text(item["graph6"] + "\n")
            stdout = record(["compute", str(path), "--format", "graph6"], env, scratch)
            result = json.loads(stdout)
            n, edges = graphs.decode_graph6(item["graph6"])
            problems = checks.compute_problems(n, edges, result)
            if problems:
                sys.exit(f"{item['graph6']}: {problems}")
            values = {k: result[k] for k in ("gamma", "gamma_e", "gamma_e_star", "gamma_ef_star")}
            pool.append(dict(item, values=values, sha256=checks.sha256(stdout)))
        refs["hard_graphs"] = {"argv": None, "pool": pool}
    run.WORK.rmdir()
    target = run.HERE / "references.json"
    target.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {target}", file=sys.stderr)


if __name__ == "__main__":
    main()
