#!/usr/bin/env python3
"""Benchmark of the toudesign tariff optimizer and planner audit.

Run one workload in this process and print its result as the last line:

    python3 perfbench/run.py --workload pi-scan --seed 1 --seconds 30 --trace 0

`--trace 0` reports the end-to-end metrics (job_s, setup_s, peak_rss_mb);
`--trace 1` runs traced and untraced rounds alternately and reports the
per-layer metrics. `--workload all` runs every workload in its own process,
untraced and then traced, and prints one table. The program is imported from
`src/` of the checkout this file sits in; nothing is installed.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported: one workload, one core.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
REFERENCE = HERE / "reference.json"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-reference",
        action="store_true",
        help="store this run's results as the reference values of the default seed",
    )
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    from workloads import WORKLOADS

    rows = []
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}", file=sys.stderr)
                return 1
            rows.append((name, trace, json.loads(lines[-1])))
    print("\nworkload        trace  ops  failed  metric                          value  unit")
    for name, trace, rec in rows:
        for metric, m in rec["metrics"].items():
            print(f"{name:15s} {trace:5d} {rec['attempted']:4d} {rec['failed']:7d}  {metric:30s} {m['value']:12.6g}  {m['unit']}")
    print(json.dumps({f"{name}/trace={trace}": rec for name, trace, rec in rows}))
    return 0 if all(rec["correct"] for _, _, rec in rows) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "toudesign" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)

    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    references = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    reference = references.get(args.workload) if args.seed == DEFAULT_SEED and not args.record_reference else None
    record, details = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), workload.full, ROOT, reference)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} rounds={details.iterations}")
    for metric, m in record["metrics"].items():
        print(f"  {metric:32s} {m['value']:14.6g} {m['unit']}")
    print(f"  measured job time {details.measured_job_s:.6g} s (untraced rounds), calibration kernel "
          f"{details.kernel_s * 1e3:.4g} ms (reference {harness.REFERENCE_KERNEL_S * 1e3:.4g} ms)")
    print("  measured untraced rounds: " + " ".join(f"{t:.4g}" for t in details.round_s) + " s")
    print(f"  ops={record['attempted']} ops_failed={record['failed']} ops_refused={details.refused}")
    for refusal in details.refusals:
        print(f"  refused: {refusal.splitlines()[0]}")
    if details.shares:
        print("  share of traced step time by top-level span:")
        for span, share in sorted(details.shares.items(), key=lambda kv: -kv[1]):
            print(f"    {span:40s} {share:7.1%}")
        print(f"    {'(total in spans)':40s} {sum(details.shares.values()):7.1%}")
    for problem in details.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    if args.record_reference:
        if args.seed != DEFAULT_SEED or record["failed"]:
            print("references are recorded only from a passing run at the default seed", file=sys.stderr)
            return 2
        references[args.workload] = details.summary
        REFERENCE.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")
    print(json.dumps(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
