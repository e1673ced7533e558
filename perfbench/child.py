"""One cold expodom command in this fresh interpreter.

The benchmark starts this script once per operation.  It imports
``expodom.cli`` from the checkout's ``src/``, runs ``main`` on the given
arguments, and writes a side file with the import time, the peak resident
memory of this process and, when tracing, the spans.  With no arguments it
only imports, which is one set-up sample.

    PERFBENCH_SRC=src PERFBENCH_SIDE=side.json \\
        python3 perfbench/child.py verify --suite theorem2 --nmax 11 --jobs 1

PERFBENCH_SPAWN_NS is the CLOCK_MONOTONIC time at which the parent started
this process; PERFBENCH_TRACE, when set, is the file prefix for the spans.
"""

import json
import os
import sys
import time

spawn_ns = int(os.environ.get("PERFBENCH_SPAWN_NS", time.monotonic_ns()))
src = os.path.abspath(os.environ["PERFBENCH_SRC"])
sys.path.insert(0, src)

import expodom.cli  # noqa: E402

imported_ns = time.monotonic_ns()


def peak_rss_kb() -> int:
    """High-water resident set of this process image (VmHWM).

    Unlike ``ru_maxrss``, VmHWM does not carry over the parent's memory from
    before ``exec``.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    if not expodom.cli.__file__.startswith(src + os.sep):
        print(f"expodom imported from {expodom.cli.__file__}, not {src}", file=sys.stderr)
        return 70
    argv = sys.argv[1:]
    trace_prefix = os.environ.get("PERFBENCH_TRACE")
    recorder = None
    if trace_prefix:
        import tracer

        recorder = tracer.install()
    code = expodom.cli.main(argv) if argv else 0
    sys.stdout.flush()
    if recorder is not None:
        recorder.dump(trace_prefix, tracer.end_facts(recorder))
    side = {
        "setup_s": (imported_ns - spawn_ns) / 1e9,
        "peak_rss_kb": peak_rss_kb(),
    }
    with open(os.environ["PERFBENCH_SIDE"], "w", encoding="utf-8") as handle:
        json.dump(side, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
