#!/usr/bin/env python3
"""Alternating perfbench pairs: the working tree against a base commit.

    python scripts/bench_pairs.py --workload pi-scan --pairs 10 --seed 1 --base HEAD

The base commit is exported with `git archive` into a temporary directory.
Each pair runs `perfbench/run.py --trace 0` once on each side, in separate
processes at the benchmark's own run length (`run_seconds` in
`BENCHMARK.json`), the base first in even pairs and the working tree first in
odd ones, so a drift of the host's speed does not favour one side. Only the
last line of a run's output (perfbench's JSON record) is read; nothing under
`perfbench/` is written.

The script prints every run's end-to-end metrics, each side's median and
quartiles (as `perfbench/steadiness.py` takes them), and the verdict of the
pairing rule on `job_s`: the working tree must win at least 9 pairs in 10,
and the gap between the medians must exceed the base's interquartile range.
It also flags every end-to-end metric whose median is worse than the base's
by more than its bound in `BENCHMARK.json`, and every run that was not
correct or had failed operations. Its last line is one JSON object with
every run.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9
CLAIMED = "job_s"


def summary(values) -> dict:
    """Median and quartiles of a side's runs (at least two), with the
    quartiles of `statistics.quantiles(values, n=4)`."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3, "iqr": q3 - q1}


def pairing_verdict(base, change, better: str = "lower") -> dict:
    """The pairing rule on one metric: the change wins at least WIN_SHARE of
    the pairs (base[i], change[i]), and its median is better than the base's
    by more than the base's interquartile range."""
    if len(base) != len(change) or len(base) < 2:
        raise ValueError("need one change run per base run, and at least two pairs")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    b, c = summary(base), summary(change)
    gap = sign * (b["median"] - c["median"])
    needed = math.ceil(WIN_SHARE * len(base))
    return {
        "wins": wins,
        "pairs": len(base),
        "wins_needed": needed,
        "gap": gap,
        "base_iqr": b["iqr"],
        "holds": wins >= needed and gap > b["iqr"],
    }


def regressions(base_runs, change_runs, end_to_end) -> list[str]:
    """Each end-to-end metric whose change median is worse than the base
    median by more than its relative bound, as one line each."""
    found = []
    for spec in end_to_end:
        name, bound = spec["name"], spec["bound"]
        b = summary([r["metrics"][name]["value"] for r in base_runs])["median"]
        c = summary([r["metrics"][name]["value"] for r in change_runs])["median"]
        worse = (c - b if spec["better"] == "lower" else b - c) / abs(b) if b else 0.0
        if worse > bound:
            found.append(f"{name}: median {b:.6g} -> {c:.6g} is {worse:.1%} worse, bound {bound:.0%}")
    return found


def export(commit: str, directory: Path) -> None:
    """The committed files of commit, written under directory."""
    tar = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        # Python releases before 3.10.12 / 3.11.4 have no extraction filters.
        filters = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        archive.extractall(directory, **filters)


def run_once(checkout: Path, args, seconds) -> dict:
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: exit {proc.returncode}, no output\n{proc.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--base", default="HEAD", help="commit to compare against (default HEAD)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds, end_to_end = benchmark["run_seconds"], benchmark["end_to_end"]
    names = [spec["name"] for spec in end_to_end]
    better = {spec["name"]: spec["better"] for spec in end_to_end}[CLAIMED]

    runs = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        base_dir = Path(tmp)
        export(args.base, base_dir)
        sides = {"base": base_dir, "change": ROOT}
        print(f"{args.workload} seed {args.seed}, {seconds:g} s runs, base {args.base}")
        print("pair  side      " + "  ".join(f"{n:>12s}" for n in names) + "  correct  failed")
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                rec = run_once(sides[side], args, seconds)
                runs[side].append(rec)
                values = "  ".join(f"{rec['metrics'][n]['value']:12.6g}" for n in names)
                print(f"{pair:4d}  {side:6s}  {values}  {str(rec['correct']):>7s}  {rec['failed']:6d}", flush=True)

    for side in ("base", "change"):
        for n in names:
            s = summary([r["metrics"][n]["value"] for r in runs[side]])
            print(f"{side:6s} {n:12s} median {s['median']:.6g}  quartiles {s['q1']:.6g}-{s['q3']:.6g}")
    claimed = [[r["metrics"][CLAIMED]["value"] for r in runs[side]] for side in ("base", "change")]
    verdict = pairing_verdict(*claimed, better=better)
    print(f"{CLAIMED}: change better in {verdict['wins']} of {verdict['pairs']} pairs "
          f"(needs {verdict['wins_needed']}); median gap {verdict['gap']:.6g} vs base IQR "
          f"{verdict['base_iqr']:.6g}: claim {'holds' if verdict['holds'] else 'does not hold'}")
    problems = regressions(runs["base"], runs["change"], end_to_end)
    problems += [f"{side} run {i}: correct={r['correct']} failed={r['failed']}"
                 for side in runs for i, r in enumerate(runs[side]) if not r["correct"] or r["failed"]]
    for line in problems:
        print(f"REGRESSION {line}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": seconds,
                      "base": args.base, "verdict": verdict, "problems": problems, "runs": runs}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
