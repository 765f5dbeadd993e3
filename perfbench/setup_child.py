"""Set-up probe: build one workload in a fresh process and print how long it took.

    python3 perfbench/setup_child.py <workload> <seed> <t0>

``t0`` is the parent's ``time.perf_counter()`` read just before it started
this process.  On Linux that clock is system-wide, so the printed time runs
from before the interpreter started to the end of ``workloads.build``: the
interpreter start, the package import and the building of the workload's
inputs.  The harness's own imports, the process exit and the parent's wait
are not in it.  ``run.py`` starts it with ``src/`` on ``PYTHONPATH``.
"""

import sys
import time
from pathlib import Path

import workloads

name, seed, t0 = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
workloads.build(name, seed, Path(__file__).resolve().parent.parent)
print(time.perf_counter() - t0)
