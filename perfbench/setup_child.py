"""
One timed set-up in a fresh interpreter: import the library, then build and
validate the germs one workload queries. Prints the seconds it took, leaving
out interpreter start and the benchmark's own imports, then the times of the
pace probes run just before and just after it (see pace.py).

    python3 perfbench/setup_child.py <workload> <seed>    (PYTHONPATH=src)
"""

import sys
import time

import pace

before = pace.probes()
t0 = time.perf_counter()
import garside.cli  # noqa: E402  (pulls in every library module)
t1 = time.perf_counter()

from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]](int(sys.argv[2]))
t2 = time.perf_counter()
workload.setup()
t3 = time.perf_counter()
after = pace.probes()
print(" ".join(repr(x) for x in [(t1 - t0) + (t3 - t2), *before, *after]))
