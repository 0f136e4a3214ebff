"""Runs the benchmark over several seeds and reports each metric's median and quartile spread.

    python3 perfbench/spread.py --workload train --workload infer --seeds 0-9 [--baseline FILE]

Runs are made one after another with `run_seconds` from BENCHMARK.json. For
each workload and end-to-end metric it prints the median, the quartiles
(`statistics.quantiles(values, n=4)`), the spread (q3 - q1) / median and the
metric's bound. With `--baseline` it also makes one traced run per workload
and writes everything, with the environment of the first run and each run's
operation and set-up times, to FILE.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    report, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return report, result


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--baseline", help="write medians, quartiles and traced per-layer tables here")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    baseline: dict = {"seconds": bench["run_seconds"], "seeds": seeds, "end_to_end": {}, "per_layer": {}}
    for workload in args.workload:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        runs = []  # each run's operation and set-up times, for trying other statistics later
        for seed in seeds:
            report, result = run_once(workload, seed, bench["run_seconds"], 0)
            baseline.setdefault("environment", report["environment"])
            status = "ok" if result["correct"] else f"FAILED {report['detail']['failures']}"
            print(f"{workload} seed {seed}: {status} " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            detail = report["detail"]
            runs.append({"seed": seed, "op_s": detail["eval_s" if workload == "infer" else f"{workload}_s"],
                         "setup_s": detail["setup_s"], "import_s": detail["import_s"]})
        table = baseline["end_to_end"][workload] = {"runs": runs}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            table[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            flag = "" if spread < bounds[name] / 3 else "  <-- spread above a third of the bound"
            print(f"  {workload:9s} {name:15s} median {median:.5g} q1 {q1:.5g} q3 {q3:.5g} "
                  f"spread {spread:.4f} bound {bounds[name]}{flag}", flush=True)
        if args.baseline:
            _, traced = run_once(workload, seeds[0], bench["run_seconds"], 1)
            baseline["per_layer"][workload] = {k: m["value"] for k, m in traced["metrics"].items()}
    if args.baseline:
        Path(args.baseline).write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
