"""Set-up time of one workload in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>

Times ``import dghlab.cli`` plus the preparation of the workload's inputs
(writing and parsing its configs, or generating its initial data) and prints
the seconds on the last line.  ``run.py`` starts it several times per run.
"""

import time

_t0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_here = Path(__file__).resolve().parent
sys.path.insert(0, str(_here.parent / "src"))

import dghlab.cli  # noqa: E402,F401

from workloads import WORKLOADS  # noqa: E402

_workload, _seed, _workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
WORKLOADS[_workload].prepare(_seed, _workdir)
print(repr(time.perf_counter() - _t0))
