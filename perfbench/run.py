"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload {train,finetune,infer} --seed N --seconds S --trace {0,1}

Run it from the repository root; it imports mhforge from `src/` of the tree
it sits in and works in `.perfbench_work/` there, which it removes on exit.
The workload's inputs come from `--seed`. With `--trace 0` it measures for
about `--seconds` seconds and reports the end-to-end metrics; with
`--trace 1` it runs the workload's operation once untraced and once traced
and reports the per-layer metrics. The next-to-last line of the output is a
JSON block with the environment and the workload's detail; the last line is
the result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# one BLAS thread, fixed before numpy is first imported
THREAD_VARS = (
    "MHFORGE_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_package() -> float:
    """Imports numpy and mhforge from this tree's `src/`; returns the seconds it took."""
    t0 = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import mhforge
        import perfbench.workloads  # noqa: F401  (imports numpy and every mhforge module)
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the package from {ROOT / 'src'}: {exc}")
    if Path(mhforge.__file__).resolve().parent != ROOT / "src" / "mhforge":
        sys.exit(f"perfbench: imported mhforge from {mhforge.__file__}, not from {ROOT / 'src'}")
    return time.perf_counter() - t0


def environment(load_at_start: tuple[float, float, float]) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: v for k, v in blas.items() if "directory" not in k}  # install paths say nothing of speed
    except TypeError:  # numpy < 1.26 only prints its configuration
        with contextlib.redirect_stdout(io.StringIO()) as text:
            np.show_config()
        blas = text.getvalue()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_at_start": list(load_at_start),
    }


def main(argv: list[str] | None = None) -> int:
    load_at_start = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "finetune", "infer"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_s = _import_package()
    from perfbench import workloads

    work = ROOT / ".perfbench_work" / str(os.getpid())
    result, detail = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    with contextlib.suppress(OSError):  # left in place while another run is using it
        work.parent.rmdir()
    if not args.trace:
        # set-up includes the imports, which happen once per process
        result["metrics"]["setup_s"]["value"] += import_s
        detail["import_s"] = import_s
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(load_at_start),
        "detail": detail,
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
