"""Run a workflow step's script under ``bash -e``, as a step with no shell
of its own runs, then print the step's peak resident memory: the largest
of every process the step waited for.  A child forked from this wrapper
starts with the wrapper's own resident set (about 14 MB), so that is the
floor of the figure.

    defaults:
      run:
        shell: python3 .github/step_shell.py {0}
"""

import resource
import subprocess
import sys

code = subprocess.run(["bash", "-e", sys.argv[1]]).returncode
peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KiB on Linux
print(f"peak RSS of this step: {peak_kib / 1024:.1f} MB", flush=True)
sys.exit(code)
