"""Set-up probe: run in a fresh interpreter by run.py to time set-up.

Usage: python3 perfbench/probe.py <src dir> <workload> <seed>

Prints the seconds from the first line of this script to the moment the
workload's inputs exist: importing totalpos plus generating the inputs
from the seed, which is everything a job waits for.
"""

import time

_t0 = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])
import totalpos  # noqa: E402,F401
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[2]].make_inputs(int(sys.argv[3]))
print(time.perf_counter() - _t0)
