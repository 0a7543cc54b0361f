"""Wall-clock benchmark of DoubleChecker's paper configurations.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs the uninstrumented baseline, single-run ICD+PCD, the multi-run
first and second runs, Velodrome and the vector-clock checker on one
workload, checks every verdict, and prints its metrics as one JSON
line.  See ``BENCHMARK.json`` at the repository root for the metric
catalog and why each workload was chosen.
"""
