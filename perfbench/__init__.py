"""The repository benchmark: three workloads driven through the public
entry points of :mod:`repro`, with correctness checks and a traced
per-layer run.  ``python3 perfbench/run.py --help`` lists the options;
README.md in this directory explains the workloads and metrics."""
