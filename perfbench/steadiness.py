#!/usr/bin/env python3
"""Steadiness of the end-to-end metrics across seeds.

    python3 perfbench/steadiness.py --workloads pi-scan so-audit --seeds 1-10 --seconds 30

Runs `run.py --trace 0` once per seed and workload, one run at a time, and
prints for each metric its median, its quartile spread ((q3 - q1) / median,
quartiles as `statistics.quantiles(values, n=4)` gives them) and the longest
run. The last line is the whole table as JSON; `--out` also writes it to a
file, with the Python and numpy versions and the number of CPUs.
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


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    table = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        longest = 0.0
        for seed in seed_range(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
            longest = max(longest, time.perf_counter() - t0)
            record = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else None
            if proc.returncode != 0 or record is None or not record["correct"]:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            for name, m in record["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + "  ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
        table[workload] = {name: spread(v) for name, v in values.items()}
        table[workload]["longest_run_s"] = round(longest, 1)
        for name, s in table[workload].items():
            if isinstance(s, dict):
                print(f"  {name:12s} median {s['median']:.6g}  spread {s['spread']:.4f}")
        print(f"  longest run {longest:.1f} s", flush=True)
    print(json.dumps(table))
    if args.out:
        import numpy

        meta = {"command": " ".join(sys.argv[1:]), "python": platform.python_version(),
                "numpy": numpy.__version__, "nproc": os.cpu_count()}
        args.out.write_text(json.dumps({**meta, "end_to_end": table}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
