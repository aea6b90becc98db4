"""Child process for setup_s: import the package and finish one warm-up item.

    python3 perfbench/setup_probe.py WORKLOAD WORKDIR

Prints CLOCK_MONOTONIC after the warm-up call, so the parent can measure the
time from spawning this process to its first completed call.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import jacobimax.cli  # noqa: E402
import jacobimax.verify  # noqa: E402,F401

import workloads as wl  # noqa: E402

w = wl.WORKLOADS[sys.argv[1]]
w.run(wl.Context(jacobimax, Path(sys.argv[2])), w.warmup)
print(time.clock_gettime(time.CLOCK_MONOTONIC))
