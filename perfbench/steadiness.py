"""Run every workload over ten seeds and report how steady each metric is.

    python3 perfbench/steadiness.py

This is the one command that runs all workloads of BENCHMARK.json, for
``run_seconds`` each: round r takes seed r (1 to 10) and runs every workload
once, in an order rotated by one per round, so that slow drifts of the
machine spread over all workloads.  For each end-to-end metric it prints the
median, the quartiles (``statistics.quantiles`` with n=4) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound.  Every run's result goes to ``perfbench/steadiness.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ROUNDS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False, timeout=600,
    )
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}")
    *_, info, result = done.stdout.splitlines()
    return {"info": json.loads(info), "result": json.loads(result)}


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    runs = {w: [] for w in workloads}
    for r in range(ROUNDS):
        seed = 1 + r
        shift = r % len(workloads)
        for w in workloads[shift:] + workloads[:shift]:
            out = run_once(w, seed, seconds, 0)
            runs[w].append({"seed": seed, **out})
            res = out["result"]
            print(f"seed {seed} {w}: correct={res['correct']} attempted={res['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                  file=sys.stderr, flush=True)

    summary = {}
    print(f"{'workload':12} {'metric':12} {'unit':6} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}")
    for w in workloads:
        summary[w] = {}
        for name, spec in bounds.items():
            values = [run["result"]["metrics"][name]["value"] for run in runs[w]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            summary[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                "bound": spec["bound"], "values": values}
            flag = "" if spread < spec["bound"] / 3 else "  <-- above bound/3"
            print(f"{w:12} {name:12} {spec['unit']:6} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{spread:7.3f} {spec['bound']:6.2f}{flag}")
    failed = sum(run["result"]["failed"] for w in workloads for run in runs[w])
    print(f"failed operations: {failed}")
    (HERE / "steadiness.json").write_text(
        json.dumps({"seconds": seconds, "summary": summary, "runs": runs}, indent=1) + "\n"
    )


if __name__ == "__main__":
    main()
