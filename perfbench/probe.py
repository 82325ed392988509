"""One set-up of the benchmark, measured from outside by run.py.

    python3 perfbench/probe.py <workload> <seed>

Starts like a benchmark run (interpreter, numpy, puosc, the workload's
inputs), prints one JSON line with its import times and exits.  run.py
times each such process from its start to that line, so set-up time covers
interpreter start-up, which no in-process timer can see.
"""
import time

_t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402,F401

_t1 = time.perf_counter()

from common import OUT, use_checkout_src  # noqa: E402

use_checkout_src()
import puosc  # noqa: E402,F401

_t2 = time.perf_counter()

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), OUT)
print(json.dumps({"import_numpy_s": _t1 - _t0, "import_puosc_s": _t2 - _t1}), flush=True)
