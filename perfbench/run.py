#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim-medium --seed 1 --seconds 25 \
        --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run.  See perfbench/README.md.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Import the benchmark as the ``perfbench`` package, so none of its module
# names is ever importable as a top-level name.
if sys.path and os.path.abspath(sys.path[0] or ".") == HERE:
    sys.path.pop(0)
sys.path.insert(0, ROOT)

from perfbench import harness  # noqa: E402

if __name__ == "__main__":
    sys.exit(harness.main(sys.argv[1:]))
