"""Benchmark of mhforge: train, finetune and infer workloads, measured from outside the package.

Run one workload with `python3 perfbench/run.py --workload train --seed 0
--seconds 35 --trace 0` from the repository root; `BENCHMARK.json` lists the
workloads and the metrics each run prints.
"""
