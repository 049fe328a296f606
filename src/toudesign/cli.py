"""Command line front end: ingest, optimize, sweep, benchmark, verify.

The commands only read the configuration, call the library and write
files; the `verify` suite and the `--verify-grid` check come from
`toudesign.oracles`. This is the only module that writes a file or decides
a file's layout: the library returns values.

Exit codes: 0 success, 2 invalid input, 3 invariant violation, 4 solver
non-convergence. Once the configuration has resolved, every command writes
a run_meta.json with the configuration snapshot, the outputs written, its
exit status and its "metrics" (for `optimize`, each scheme's threshold,
candidate and evaluation counts; for `benchmark`, the planner's sweeps,
final optimality residual and residual limit), also when a check fails or
an exception ends it; an invalid configuration reports on stderr only.
Result tables carry no timestamps so identical configuration and seed
reproduce identical files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from statistics import mean, pstdev

import numpy as np
import yaml

from . import __version__
from .benchmark import (
    SocialPlan,
    compute_ratios,
    solve_so,
    validate_structure_pricing,
    validate_structure_so,
)
from .config import ExperimentConfig
from .costs import no_storage_cost
from .demand import ScenarioSet, adjust_variance, aggregate_by_type
from .errors import ConvergenceError, InputError, OrderingViolationError
from .oracles import grid_check, verify_suite
from .pricing import (
    PricingResult,
    evaluate_lambda,
    optimize_price_difference,
    user_specs_from_grouping,
)


def _json_default(obj):
    """An array as its list; a result dataclass as its fields plus its
    read-only properties (a breakdown's total, the kappa ratios, a
    structure verdict)."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if is_dataclass(obj):
        names = [f.name for f in fields(obj)]
        names += [n for n, v in vars(type(obj)).items() if isinstance(v, property)]
        return {n: getattr(obj, n) for n in names}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_json(path: Path, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    path.write_text(text + "\n")


def _write_rows(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_meta(
    out: Path,
    command: str,
    cfg: ExperimentConfig,
    seed: int,
    outputs,
    exit_status: int,
    metrics: dict,
) -> None:
    _write_json(
        out / "run_meta.json",
        {
            "command": command,
            "version": __version__,
            "seed": seed,
            "config": cfg.snapshot(),
            "outputs": sorted(str(o) for o in outputs),
            "exit_status": exit_status,
            "metrics": metrics,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        },
    )


def _result_payload(result: PricingResult) -> dict:
    return {
        "scheme": result.scheme,
        "p_peak": result.best_price.p_peak,
        "p_offpeak": result.best_price.p_offpeak,
        "p_delta": result.best_price.p_delta,
        "epsilon": result.epsilon,
        "n_candidates": result.n_candidates,
        "n_evaluations": result.n_evaluations,
        "scan_cost": result.scan_cost,
        "social_cost": result.social_cost,
        "capacities": {e: r.capacity for e, r in sorted(result.responses.items())},
        "total_capacity": _total_capacity(result),
    }


def _total_capacity(result: PricingResult) -> float:
    return sum(r.capacity for r in result.responses.values())


def _write_responses(path: Path, result: PricingResult) -> None:
    rows = []
    for entity in sorted(result.responses):
        profile = result.responses[entity]
        for w in range(len(profile.charge)):
            rows.append(
                [entity, float(profile.capacity), w, float(profile.charge[w]), float(profile.shifted[w])]
            )
    _write_rows(
        path, ["entity", "capacity_mwh", "outcome", "charge_mwh", "shift_mwh"], rows
    )


def _optimize_one(
    cfg: ExperimentConfig,
    user_scenarios: ScenarioSet,
    grouping: dict[str, str],
    scheme: str,
) -> tuple[PricingResult, tuple]:
    """Optimal tariff of one scheme, with the pricing instance it was found on
    as (pricing scenarios, pricing specs, periods, supply)."""
    periods = cfg.periods()
    supply = cfg.supply
    type_specs = cfg.build_specs()
    if scheme == "pt":
        pricing_scen = aggregate_by_type(user_scenarios, grouping)
        pricing_specs = {t: type_specs[t] for t in pricing_scen.entities}
        args = (pricing_scen, pricing_specs, user_scenarios, grouping, periods, supply)
    else:
        user_specs = user_specs_from_grouping(type_specs, user_scenarios, grouping)
        args = (user_scenarios, user_specs, None, None, periods, supply)
    result = optimize_price_difference(*args, p_offpeak=cfg.pricing.p_offpeak)
    return result, (args[0], args[1], periods, supply)


def cmd_ingest(cfg: ExperimentConfig, out: Path, seed: int, outputs: list[Path]) -> int:
    scen = cfg.load_user_scenarios(seed)
    path = out / "scenarios.csv"
    # Python floats: a numpy scalar's repr would write "np.float64(...)"
    probs, peak, offpeak = (a.tolist() for a in (scen.probs, scen.peak, scen.offpeak))
    rows = [
        [w, probs[w], entity, peak[w][j], offpeak[w][j]]
        for w in range(scen.n_outcomes)
        for j, entity in enumerate(scen.entities)
    ]
    _write_rows(path, ["outcome", "prob", "entity", "peak_mwh", "offpeak_mwh"], rows)
    outputs.append(path)
    print(f"wrote {path} ({scen.n_outcomes} outcomes, {scen.n_entities} entities)")
    return 0


def cmd_optimize(
    cfg: ExperimentConfig,
    out: Path,
    seed: int,
    outputs: list[Path],
    metrics: dict,
    scheme: str,
    verify_grid: bool,
) -> int:
    user_scenarios = cfg.load_user_scenarios(seed)
    grouping = cfg.groupings(user_scenarios.entities)[0]
    schemes = ["pt", "pi"] if scheme == "both" else [scheme]
    for sch in schemes:
        result, pricing = _optimize_one(cfg, user_scenarios, grouping, sch)
        base = out / f"result_{sch}.json"
        _write_json(base, _result_payload(result))
        trace_path = out / f"trace_{sch}.csv"
        rows = [[pd, sc] for _, pd, sc in result.trace]
        _write_rows(trace_path, ["candidate_pdelta", "social_cost"], rows)
        resp_path = out / f"responses_{sch}.csv"
        _write_responses(resp_path, result)
        outputs.extend([base, trace_path, resp_path])
        metrics[sch] = {
            "thresholds": result.n_thresholds,
            "candidates": result.n_candidates,
            "evaluations": result.n_evaluations,
        }
        print(
            f"{sch}: p_delta={result.best_price.p_delta:.6g} "
            f"social_cost={result.social_cost.total:.6g} "
            f"candidates={result.n_candidates}"
        )
        if verify_grid:
            hi = max(pd for _, pd, _ in result.trace) * 1.2 + 1.0
            failure = grid_check(result, np.linspace(0.0, hi, 10_000), *pricing)
            if failure:
                print(f"grid check FAILED for {sch}: {failure}", file=sys.stderr)
                return 3
            print(f"grid check passed for {sch}")
    return 0


def cmd_benchmark(
    cfg: ExperimentConfig, out: Path, seed: int, outputs: list[Path], metrics: dict
) -> int:
    user_scenarios = cfg.load_user_scenarios(seed)
    grouping = cfg.groupings(user_scenarios.entities)[0]
    pt, pi, plan, ratios, thetas = _schemes(cfg, user_scenarios, grouping, metrics)
    reports = {
        "so": validate_structure_so(plan, thetas, user_scenarios),
        "pt": validate_structure_pricing(pt.responses, thetas, user_scenarios),
        "pi": validate_structure_pricing(pi.responses, thetas, user_scenarios),
    }
    paths = [out / "ratios.json", out / "so_plan.json", out / "structure.json"]
    for path, payload in zip(paths, (ratios, plan, reports)):
        _write_json(path, payload)
    outputs.extend(paths)
    print(
        f"kappa_pt={ratios.kappa_pt:.6f} kappa_pi={ratios.kappa_pi:.6f} "
        f"kappa_no={ratios.kappa_no:.6f}"
    )
    for name, report in reports.items():
        for v in report.violations:
            print(f"structure violation [{name}]: {v}", file=sys.stderr)
    return 0 if all(report.ok for report in reports.values()) else 3


def _record_plan(metrics: dict | None, plan: SocialPlan) -> None:
    if metrics is not None:
        metrics["so"] = {
            "sweeps": plan.iterations,
            "optimality_residual": plan.optimality_residual,
            "residual_limit": plan.residual_limit,
        }


def _schemes(cfg, user_scenarios, grouping, metrics: dict | None = None):
    """PT, PI and the planner at one grid point, as (pt, pi, plan, ratios,
    per-user storage costs). The planner's sweeps, final residual and limit
    go into `metrics` under "so" before the ratios are checked, from the
    best incumbent if the planner does not converge."""
    pt, _ = _optimize_one(cfg, user_scenarios, grouping, "pt")
    pi, (_, user_specs, periods, supply) = _optimize_one(cfg, user_scenarios, grouping, "pi")
    thetas = {e: spec.theta for e, spec in user_specs.items()}
    try:
        plan = solve_so(user_scenarios, thetas, periods, supply, cfg.solver)
    except ConvergenceError as exc:
        _record_plan(metrics, exc.best)
        raise
    _record_plan(metrics, plan)
    sc_no = no_storage_cost(user_scenarios, periods, supply).total
    ratios = compute_ratios(
        pt.social_cost.total, pi.social_cost.total, plan.social_cost.total, sc_no
    )
    return pt, pi, plan, ratios, thetas


def _kappa_row(axis_value: float, runs) -> list:
    """Means over the groupings' runs, plus the spread of the ratios."""
    ratios = [r for _, _, _, r, _ in runs]
    kappas = [[getattr(r, k) for r in ratios] for k in ("kappa_pt", "kappa_pi", "kappa_no")]
    return [
        axis_value,
        *(mean(k) for k in kappas),
        *(pstdev(k) if len(k) > 1 else 0.0 for k in kappas),
        mean(pt.best_price.p_delta for pt, *_ in runs),
        mean(_total_capacity(pt) for pt, *_ in runs),
        *(mean(getattr(r, k) for r in ratios) for k in ("sc_pt", "sc_pi", "sc_so", "sc_no")),
    ]


_KAPPA_HEADER = [
    "kappa_pt", "kappa_pi", "kappa_no",
    "kappa_pt_std", "kappa_pi_std", "kappa_no_std",
    "pdelta_pt", "capacity_pt", "sc_pt", "sc_pi", "sc_so", "sc_no",
]


def _with_storage(cfg: ExperimentConfig, **changes) -> ExperimentConfig:
    """The config with storage fields replaced, validated like a file."""
    return replace(cfg, storage=replace(cfg.storage, **changes))


# Sweep axis -> (config, user scenarios) at one grid value.
_KAPPA_AXES = {
    "theta_bar": lambda cfg, scen, v: (_with_storage(cfg, theta_bar=v), scen),
    "delta_s": lambda cfg, scen, v: (_with_storage(cfg, delta_s=v), scen),
    "delta_d": lambda cfg, scen, v: (cfg, adjust_variance(scen, v)),
    "tau": lambda cfg, scen, v: (_with_storage(cfg, tau=v), scen),
    "eta": lambda cfg, scen, v: (_with_storage(cfg, eta_c=v, eta_d=v), scen),
}


def _check_finite(key: str, grid) -> None:
    if not np.isfinite(grid).all():
        raise InputError(f"sweeps.{key} values must be finite, got {list(grid)!r}")


def cmd_sweep(cfg: ExperimentConfig, out: Path, seed: int, outputs: list[Path], axis: str) -> int:
    user_scenarios = cfg.load_user_scenarios(seed)
    groupings = cfg.groupings(user_scenarios.entities)
    grid = getattr(cfg.sweeps, axis) if axis != "lambda" else None
    path = out / f"sweep_{axis}.csv"
    if axis == "lambda":
        if not cfg.sweeps.p_delta or not cfg.sweeps.theta_bar:
            raise InputError("lambda sweep needs sweeps.p_delta and sweeps.theta_bar grids")
        _check_finite("p_delta", cfg.sweeps.p_delta)
        _check_finite("theta_bar", cfg.sweeps.theta_bar)
        grouping = groupings[0]
        specs = user_specs_from_grouping(cfg.build_specs(), user_scenarios, grouping)
        lam = evaluate_lambda(
            list(cfg.sweeps.p_delta),
            list(cfg.sweeps.theta_bar),
            user_scenarios,
            specs,
            cfg.periods(),
            cfg.supply,
            p_offpeak=cfg.pricing.p_offpeak,
        )
        rows = []
        for i, pd in enumerate(cfg.sweeps.p_delta):
            for j, tb in enumerate(cfg.sweeps.theta_bar):
                rows.append([float(pd), float(tb), float(lam[i, j])])
        _write_rows(path, ["p_delta", "theta_bar", "lambda"], rows)
    elif axis in _KAPPA_AXES:
        if not grid:
            raise InputError(f"sweeps.{axis} grid is empty")
        _check_finite(axis, grid)
        rows = []
        for value in grid:
            value = float(value)
            point, scenarios = _KAPPA_AXES[axis](cfg, user_scenarios, value)
            runs = [_schemes(point, scenarios, g) for g in groupings]
            rows.append(_kappa_row(value, runs))
        _write_rows(path, [axis] + _KAPPA_HEADER, rows)
    else:
        if not grid:
            raise InputError("sweeps.elastic_fraction grid is empty")
        if cfg.storage.elastic_cost is None:
            raise InputError("storage.elastic_cost is required for the elastic sweep")
        rows = []
        for value in grid:
            row = [float(value)]
            point = _with_storage(cfg, elastic_fraction=row[0])
            for sch in ("pt", "pi"):
                results = [_optimize_one(point, user_scenarios, g, sch)[0] for g in groupings]
                row += [
                    mean(r.best_price.p_delta for r in results),
                    mean(_total_capacity(r) for r in results),
                    mean(r.social_cost.total for r in results),
                ]
            rows.append(row)
        header = [f"{m}_{sch}" for sch in ("pt", "pi") for m in ("pdelta", "capacity", "sc")]
        _write_rows(path, ["elastic_fraction"] + header, rows)
    outputs.append(path)
    print(f"wrote {path}")
    return 0


def cmd_verify(cfg: ExperimentConfig, out: Path, seed: int, outputs: list[Path]) -> int:
    failures = []
    results = {}
    for name, ok, detail in verify_suite(cfg.periods(), cfg.supply, seed):
        results[name] = {"ok": ok, "detail": detail}
        print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
        if not ok:
            failures.append(name)
    _write_json(out / "verify_report.json", results)
    outputs.append(out / "verify_report.json")
    return 3 if failures else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing keeps no
    state between calls, so every `main` call shares it."""
    parser = argparse.ArgumentParser(
        prog="toudesign",
        description="Design two-period time-of-use tariffs that anticipate storage investment.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, default=None, help="YAML config path")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")

    p_ingest = sub.add_parser("ingest", help="hourly load csv to scenario csv")
    common(p_ingest)
    p_opt = sub.add_parser("optimize", help="find the optimal tariff")
    common(p_opt)
    p_opt.add_argument("--scheme", choices=["pt", "pi", "both"], default="both")
    p_opt.add_argument(
        "--verify-grid",
        action="store_true",
        help="cross-check the scan against a dense price grid",
    )
    p_sweep = sub.add_parser("sweep", help="parameter sweeps with PT/PI/SO ratios")
    common(p_sweep)
    p_sweep.add_argument(
        "--axis",
        required=True,
        choices=[*_KAPPA_AXES, "lambda", "elastic_fraction"],
    )
    p_bench = sub.add_parser("benchmark", help="planner benchmark and cost ratios")
    common(p_bench)
    p_verify = sub.add_parser("verify", help="run the built-in invariant suite")
    common(p_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = (
            ExperimentConfig.from_yaml(args.config)
            if args.config
            else ExperimentConfig()
        )
        if args.seed is not None and args.seed < 0:
            raise InputError("seed must be >= 0")
        args.out.mkdir(parents=True, exist_ok=True)
    except (InputError, OSError, yaml.YAMLError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    seed = cfg.seed if args.seed is None else args.seed
    out = args.out
    outputs: list[Path] = []
    metrics: dict = {}
    command = args.command
    try:
        if command == "ingest":
            status = cmd_ingest(cfg, out, seed, outputs)
        elif command == "optimize":
            status = cmd_optimize(
                cfg, out, seed, outputs, metrics, args.scheme, args.verify_grid
            )
        elif command == "sweep":
            command = f"sweep:{args.axis}"
            status = cmd_sweep(cfg, out, seed, outputs, args.axis)
        elif command == "benchmark":
            status = cmd_benchmark(cfg, out, seed, outputs, metrics)
        else:
            status = cmd_verify(cfg, out, seed, outputs)
    except OrderingViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        status = 3
    except ConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        status = 4
    except (InputError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        status = 2
    _write_meta(out, command, cfg, seed, outputs, status, metrics)
    return status


if __name__ == "__main__":
    sys.exit(main())
