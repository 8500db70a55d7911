"""Repeat the benchmark over several seeds and record a baseline.

    python3 perfbench/baseline.py --out perfbench/results/baseline.json

For each workload of ``run.py``, including ``exact_batch``, which
``BENCHMARK.json`` does not list, runs ``run.py --trace 0`` on seeds 1 to
RUNS with the run length of ``BENCHMARK.json``,
and reports for every end-to-end metric the median, the quartiles and the
spread (the distance between the quartiles as a share of the median) beside
the metric's bound.  Then one ``--trace 1`` run on seed 1 gives the
per-layer table.  The output also names the machine: CPU count and the
Python, numpy, scipy and OpenBLAS versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402

RUNS = 10


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def machine() -> dict:
    import numpy
    import scipy

    def blas(config: dict) -> str:
        deps = config["Build Dependencies"]["blas"]
        return f"{deps['name']} {deps['version']}"

    return {
        "cpus": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
    }


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    seconds = spec["run_seconds"]
    result = {"machine": machine(), "run_seconds": seconds, "workloads": {}}
    for wl in WORKLOADS:
        t0 = time.monotonic()
        seeds = list(range(1, RUNS + 1))
        runs = [bench(wl, s, seconds, 0) for s in seeds]
        if not all(r["correct"] for r in runs):
            print(f"{wl}: a run reported correct=false", file=sys.stderr)
        entry = {
            "seeds": seeds,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                name: summarize([r["metrics"][name]["value"] for r in runs], bound)
                for name, bound in bounds.items()
            },
            "wall_s": time.monotonic() - t0,
        }
        for name, s in entry["end_to_end"].items():
            # setup_s is exempt: only its median is compared between two sets
            # of runs, never its spread within one set
            flag = "ok" if name == "setup_s" or s["spread"] < s["bound"] / 3 else "WIDE"
            print(f"{wl:12s} {name:20s} median {s['median']:12.6f} spread {s['spread']:.4f}"
                  f" bound {s['bound']} {flag}")
        traced = bench(wl, seeds[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["trace_correct"] = traced["correct"]
        result["workloads"][wl] = entry
        print(f"{wl}: {entry['wall_s']:.0f}s for {RUNS} runs", flush=True)
    text = json.dumps(result, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
