"""Time one set-up of a workload in a fresh interpreter.

Usage: setup_probe.py WORKLOAD SEED IN_DIR [--tiny]

Imports the CLI, generates the workload's inputs from SEED and writes
them under IN_DIR, then prints the seconds that took. run.py starts it
several times and reports the median as setup_s.
"""

import sys
import time

start = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import kdrsdl.cli  # noqa: E402,F401
from workloads import WORKLOADS  # noqa: E402

name, seed, in_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
WORKLOADS[name]["--tiny" in sys.argv[4:]].write_inputs(seed, in_dir)
print(time.perf_counter() - start)
