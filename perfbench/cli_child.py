"""
One garside CLI request, run the way `python -m garside.cli` runs it, with
the machine's pace probed in this process just before and just after the
request (see pace.py).

    python3 perfbench/cli_child.py <pace-file> <cli arguments...>    (PYTHONPATH=src)

The probe times go to <pace-file>, one per line; the exit code is the CLI's.
"""

import runpy
import sys

import pace

pace_file, sys.argv = sys.argv[1], ["garside.cli", *sys.argv[2:]]
probes = pace.probes()
try:
    runpy.run_module("garside.cli", run_name="__main__", alter_sys=True)
finally:
    probes += pace.probes()
    with open(pace_file, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{p!r}\n" for p in probes))
