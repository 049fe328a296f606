#!/usr/bin/env python3
"""Self-test of the benchmark harness, at toy sizes (about half a minute).

    python3 perfbench/selftest.py

Runs every workload untraced and traced and checks that every named metric
is emitted, that the top-level spans cover the traced job, that a perturbed
result is counted as a failed operation, and that the benchmark refuses to
run without the program's sources.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def check_metrics() -> None:
    for name, workload in WORKLOADS.items():
        for trace, names in ((False, harness.END_TO_END), (True, harness.PER_LAYER)):
            record, details = harness.run(name, 7, 0.0, trace, workload.toy, ROOT)
            expect(record["correct"], f"{name} trace={trace}: {details.problems}")
            expect(record["failed"] == 0 and record["attempted"] > 0, f"{name}: ops {record}")
            expect(set(record["metrics"]) == set(names), f"{name}: metrics {sorted(record['metrics'])}")
            for metric, m in record["metrics"].items():
                expect(m["unit"] == names[metric], f"{name}: unit of {metric}")
                expect(m["value"] == m["value"], f"{name}: {metric} is NaN")
            if trace:
                covered = sum(details.shares.values())
                expect(0.8 <= covered <= 1.0 + 1e-9, f"{name}: spans cover {covered:.1%} of the steps")
            else:
                expect(record["metrics"]["job_s"]["value"] > 0, f"{name}: job_s")
                expect(record["metrics"]["setup_s"]["value"] > 0, f"{name}: setup_s")
        print(f"ok   {name}: every metric emitted, traced and untraced")


def check_perturbation() -> None:
    workload = WORKLOADS["pi-scan"]
    data = workload.make_inputs(7, workload.toy, None)
    calibration = harness.Calibration()
    state = harness.timed_setup(workload, data, ROOT / "src", [], calibration)
    results, _ = harness.run_steps(workload, state, None, calibration)
    expect(all(o.ok for o in workload.check(state, results)), "unperturbed pi-scan must pass")
    results["0.pi"].scan_cost *= 1.0 + 1e-6
    failed = [o.name for o in workload.check(state, results) if not o.ok]
    expect(failed == ["0.pi"], f"perturbed scan cost: failed ops {failed}")
    print("ok   a scan cost off by 1e-6 relative is a failed op")


def check_refuses_without_sources() -> None:
    bare = ROOT / ".perfbench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pi-scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(), f"bare checkout: exit {proc.returncode}, {proc.stdout!r}")
    print("ok   refuses to run without the program's sources")


if __name__ == "__main__":
    check_metrics()
    check_perturbation()
    check_refuses_without_sources()
    print("selftest passed")
