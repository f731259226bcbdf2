"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py --runs 10 --seconds 10 [WORKLOAD ...]

Runs ``perfbench/run.py`` once per seed (1..runs) on each workload and
prints, per metric, the median and the distance between the first and
third quartile as a share of the median (``statistics.quantiles(values,
n=4)``), next to the metric's bound in ``BENCHMARK.json``.  A spread
above a third of the bound is flagged.  The spread of the throughput
as measured, before it is set to the reference host's speed, is
printed beside it.  ``--out`` also writes the host facts, every run's
metrics and the spreads as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layout  # noqa: E402


def host_facts() -> dict:
    """The facts a spread depends on: cores, BLAS threads, versions."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "blas_threads": int(layout.PINNED_ENV["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    doc = {"host": host_facts(), "seconds": args.seconds, "runs": {}, "spread": {}}
    print(f"host: {doc['host']}", flush=True)
    worst = 0.0
    for workload in args.workloads:
        runs = doc["runs"][workload] = []
        spreads = doc["spread"][workload] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            speed = float(re.search(r"host speed ([0-9.]+)", proc.stderr)[1])
            runs[-1]["raw_throughput_img_s"] = runs[-1]["throughput_img_s"] * speed
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in runs[-1].items()) + f", host_speed={speed:.3f}",
                flush=True)
        values = [r["raw_throughput_img_s"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        spreads["raw_throughput_img_s"] = {"median": q2, "iqr_share": (q3 - q1) / q2}
        print(f"  {workload:18s} {'(not normalised)':18s} median {q2:10.4f}  "
              f"IQR/median {(q3 - q1) / q2:6.2%}", flush=True)
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2
            spreads[name] = {"median": q2, "iqr_share": spread}
            worst = max(worst, spread / bound)
            flag = "  <-- above bound/3" if spread > bound / 3 else ""
            print(f"  {workload:18s} {name:18s} median {q2:10.4f}  "
                  f"IQR/median {spread:6.2%}  bound {bound:.0%}{flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(f"worst spread / bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
