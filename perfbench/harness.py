"""Measurement loop of one workload in one process.

A job is a list of short steps (one tariff solve, one planner solve, one
pipeline stage or one CLI command each). The job runs in rounds until the time
budget is spent, and every step is timed on its own.

Times are reported in reference seconds. On a shared host the speed of the
CPU drifts by tens of percent over seconds to minutes, for the program and any
other code alike. A fixed calibration kernel (interpreter work and small numpy
calls, like the program's inner loops, and no call into the program) is
therefore timed after every CALIBRATE_EVERY_S of timed work, and every
reported time is the measured time scaled by REFERENCE_KERNEL_S over the
median kernel time of the run. `job_s` is the sum over the steps of each
step's median time over the rounds, scaled.

Set-up (importing `toudesign` and building the program's inputs) is timed
before every round, SETUP_REPS times, each after dropping the package from
`sys.modules`; `setup_s` is the median set-up time, scaled. Results are checked
after each round, outside the timed steps: the first round's results against
the oracles, every later round's results for equality with the first. With
tracing on, untraced and traced rounds alternate, so per-layer numbers come
from the traced rounds and the tracing overhead from the comparison of the
two.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median
from types import SimpleNamespace

import numpy as np

from tracer import PACKAGE, Span, Tracer, run_spans, self_times
from workloads import TARGETS, WORKLOADS, Op, reference_problems

SETUP_REPS = 3  # before each round, so set-up samples spread over the run
# The calibration kernel's time on the reference host (Intel Xeon, 2 vCPUs,
# Python 3.11.7, numpy 2.4.6) when nothing else runs on it.
REFERENCE_KERNEL_S = 0.01
CALIBRATE_EVERY_S = 0.2
END_TO_END = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "response.respond_calls": "count",
    "response.respond_s": "s",
    "costs.social_cost_calls": "count",
    "costs.social_cost_s": "s",
    "pricing.candidates": "count",
    "pricing.evaluations": "count",
    "pricing.respond_per_evaluation": "calls/eval",
    "pricing.self_s": "s",
    "benchmark.solve_so_s": "s",
    "benchmark.sweeps": "count",
    "benchmark.check_s": "s",
    "demand.from_csv_s": "s",
    "demand.ingest_s": "s",
    "demand.reduce_s": "s",
    "demand.aggregate_s": "s",
    "demand.load_rows": "count",
    "demand.reduce_peak_mb": "MiB",
    "costs.approximation_gap_s": "s",
    "cli.command_s": "s",
    "cli.self_s": "s",
    "cli.points": "count",
    "cli.refused": "count",
    "config.from_yaml_s": "s",
    "trace_overhead_pct": "%",
}
CHECK_SPANS = (
    "benchmark.compute_ratios",
    "benchmark.validate_structure_so",
    "benchmark.validate_structure_pricing",
    "costs.no_storage_cost",
)


# The calibration kernel: interpreter work and small numpy calls on an array
# shaped like one instance's demand, as in the inner loops of `respond` and
# `solve_so`. It calls nothing of the program, so program changes do not move it.
_KERNEL_LOADS = np.random.default_rng(0).uniform(0.0, 10.0, (30, 32))
_KERNEL_PROBS = np.full(30, 1.0 / 30)


def kernel_time() -> float:
    """Time of one run of the calibration kernel."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1250):
        acc += float(np.minimum(_KERNEL_LOADS, i * 0.1).sum(axis=1) @ _KERNEL_PROBS)
        for j in range(40):
            acc += j * 0.5
    return time.perf_counter() - t0


class Calibration:
    """Kernel times sampled through the run, after every CALIBRATE_EVERY_S
    of measured work."""

    def __init__(self):
        self.kernels: list[float] = []
        self.run()

    def run(self) -> None:
        self.kernels.append(kernel_time())
        self.since = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self.since >= CALIBRATE_EVERY_S:
            self.run()

    def scale(self, seconds: float) -> float:
        """A measured time in reference seconds."""
        return seconds * REFERENCE_KERNEL_S / median(self.kernels)


def import_program(src: Path, modules) -> SimpleNamespace:
    """Import the program from `src` afresh; refuse any other copy."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    loaded = {m.replace(".", "_"): importlib.import_module(m) for m in modules}
    origin = Path(loaded[PACKAGE].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"{PACKAGE} imported from {origin}, not from {src}")
    return SimpleNamespace(**loaded)


def timed_setup(workload, data, src: Path, times: list[float], calibration: Calibration):
    """Import the program afresh and build its inputs, SETUP_REPS times."""
    for _ in range(SETUP_REPS):
        gc.collect()
        t0 = time.perf_counter()
        mods = import_program(src, workload.modules)
        state = workload.setup(mods, data)
        times.append(time.perf_counter() - t0)
        calibration.tick()
    return state


def layer_metrics(spans: list[Span], run_id: int, refused: int) -> dict[str, float]:
    """Per-layer numbers of one traced round."""
    mine = run_spans(spans, run_id)
    own = self_times(mine)
    by_id = dict(mine)

    def total(name, pred=None):
        return sum(s.end - s.start for _, s in mine if (s.name == name if pred is None else pred(s.name)))

    def count(key, name_prefix):
        return sum((s.counts or {}).get(key, 0) for _, s in mine if s.name.startswith(name_prefix))

    def under_pricing(s: Span) -> bool:
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name.startswith("pricing."):
                return True
        return False

    evaluations = count("evaluations", "pricing.")
    respond_in_pricing = sum(1 for _, s in mine if s.name == "response.respond" and under_pricing(s))
    reduce_peaks = [s.counts["peak_mb"] for _, s in mine if s.name == "demand.reduce_scenarios"]
    return {
        "response.respond_calls": sum(1 for _, s in mine if s.name == "response.respond"),
        "response.respond_s": total("response.respond"),
        "costs.social_cost_calls": sum(1 for _, s in mine if s.name == "costs.social_cost"),
        "costs.social_cost_s": total("costs.social_cost"),
        "pricing.candidates": count("candidates", "pricing."),
        "pricing.evaluations": evaluations,
        "pricing.respond_per_evaluation": respond_in_pricing / evaluations if evaluations else 0.0,
        "pricing.self_s": sum(own[i] for i, s in mine if s.name.startswith("pricing.")),
        "benchmark.solve_so_s": total("benchmark.solve_so"),
        "benchmark.sweeps": count("sweeps", "benchmark.solve_so"),
        "benchmark.check_s": total(None, lambda n: n in CHECK_SPANS),
        "demand.from_csv_s": total("demand.from_csv"),
        "demand.ingest_s": total("demand.ingest_hourly_loads"),
        "demand.reduce_s": total("demand.reduce_scenarios"),
        "demand.aggregate_s": total("demand.aggregate_by_type"),
        "demand.load_rows": count("rows", "demand.from_csv"),
        "demand.reduce_peak_mb": max(reduce_peaks, default=0.0),
        "costs.approximation_gap_s": total("costs.approximation_gap"),
        "cli.command_s": total(None, lambda n: n.startswith("cli.")),
        "cli.self_s": sum(own[i] for i, s in mine if s.name.startswith("cli.")),
        "cli.points": count("points", "cli."),
        "cli.refused": refused,
        "config.from_yaml_s": total("config.from_yaml"),
    }


def top_level_shares(spans: list[Span], run_id: int, total: float) -> dict[str, float]:
    """Share of one traced round's step time spent in each top-level span name."""
    shares: dict[str, float] = {}
    for _, s in run_spans(spans, run_id):
        if s.parent is None:
            shares[s.name] = shares.get(s.name, 0.0) + (s.end - s.start) / total
    return shares


def run_steps(workload, state, tracer, calibration: Calibration) -> tuple[dict, dict[str, float]]:
    """Run the job's steps once, in order; return their results and times."""
    results, times = {}, {}
    for step, call in workload.steps(state):
        t0 = time.perf_counter()
        results[step] = call(results, tracer)
        times[step] = time.perf_counter() - t0
        calibration.tick()
    return results, times


def median_job(rounds: list[dict[str, float]]) -> float:
    """Sum over the job's steps of each step's median time over the rounds."""
    return sum(median(r[step] for r in rounds) for step in rounds[0])


def run(name: str, seed: int, seconds: float, trace: bool, size: dict, root: Path, reference: dict | None = None):
    """Run one workload for about `seconds`, input generation included, and
    return its result record."""
    start = time.perf_counter()
    workload = WORKLOADS[name]
    workdir = root / ".perfbench_run" / name
    workdir.mkdir(parents=True, exist_ok=True)
    data = workload.make_inputs(seed, size, workdir)
    calibration = Calibration()
    setup_times: list[float] = []

    tracer = Tracer()
    rounds: dict[bool, list[dict[str, float]]] = {False: [], True: []}
    relative: dict[bool, list[float]] = {False: [], True: []}  # round time over its kernel time
    layers: list[dict[str, float]] = []
    shares: list[dict[str, float]] = []
    ops: list[Op] = []
    first = None
    iteration = 0
    longest = 0.0  # longest round so far, checks excluded
    while True:
        traced = trace and iteration % 2 == 1
        tracer.run_id = iteration
        t_round = time.perf_counter()
        state = timed_setup(workload, data, root / "src", setup_times, calibration)
        gc.collect()  # garbage of earlier rounds and checks is not this round's cost
        first_kernel = len(calibration.kernels)
        try:
            with tracer.installed(TARGETS) if traced else contextlib.nullcontext():
                results, times = run_steps(workload, state, tracer if traced else None, calibration)
        except Exception:
            ops.append(Op("job", False, traceback.format_exc(limit=4)))
            break
        rounds[traced].append(times)
        relative[traced].append(sum(times.values()) / median(calibration.kernels[first_kernel:] or calibration.kernels))
        longest = max(longest, time.perf_counter() - t_round)
        try:
            if first is None:
                job_ops = workload.check(state, results)
                summary = workload.summary(state, results)
                if reference is not None:
                    problems = reference_problems(summary, reference)
                    job_ops.append(Op("reference", not problems, "; ".join(problems)))
                first = (summary, job_ops)
            else:
                same = workload.summary(state, results) == first[0]
                detail = "" if same else "result changed between rounds"
                job_ops = [Op(o.name, o.ok and same, o.detail or detail, o.refused) for o in first[1]]
        except Exception:
            ops.append(Op("check", False, traceback.format_exc(limit=4)))
            break
        ops.extend(job_ops)
        if traced:
            refused = sum(o.refused for o in job_ops)
            layers.append(layer_metrics(tracer.spans, iteration, refused))
            shares.append(top_level_shares(tracer.spans, iteration, sum(times.values())))
        results = state = None
        iteration += 1
        done = len(rounds[trace]) >= 1 and len(rounds[False]) >= 1
        if done and time.perf_counter() - start + longest > seconds:
            break

    failed = sum(not o.ok for o in ops)
    if trace:
        tracer.dump(workdir / "spans.jsonl")
        metrics = {k: median(m[k] for m in layers) for k in PER_LAYER if k != "trace_overhead_pct"} if layers else {}
        if rounds[True] and rounds[False]:
            # Each round against the kernel time of its own span, so that a
            # change of host speed between rounds does not read as overhead.
            metrics["trace_overhead_pct"] = (median(relative[True]) / median(relative[False]) - 1.0) * 100.0
        units = PER_LAYER
    else:
        metrics = {
            "job_s": calibration.scale(median_job(rounds[False])) if rounds[False] else float("nan"),
            "setup_s": calibration.scale(median(setup_times)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    record = {
        "correct": failed == 0 and all(k in metrics for k in units),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    details = SimpleNamespace(
        iterations=iteration,
        refused=sum(o.refused for o in ops),
        problems=[f"{o.name}: {o.detail}" for o in ops if not o.ok],
        refusals=sorted({f"{o.name}: {o.detail}" for o in ops if o.refused}),
        shares={k: median(s.get(k, 0.0) for s in shares) for k in {k for s in shares for k in s}},
        summary=first[0] if first else {},
        measured_job_s=median_job(rounds[False]) if rounds[False] else float("nan"),
        kernel_s=median(calibration.kernels),
        round_s=[sum(r.values()) for r in rounds[False]],
    )
    return record, details
