"""Command line front end: ingest, optimize, sweep, benchmark, verify.

Exit codes: 0 success, 2 invalid input, 3 invariant violation, 4 solver
non-convergence. Once the configuration has resolved, every command writes
a run_meta.json with the configuration snapshot, the outputs written and its
exit status, also when a check fails or an exception ends it; an invalid
configuration reports on stderr only. Result tables carry no timestamps so
identical configuration and seed reproduce identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path
from statistics import mean, pstdev

import numpy as np
import yaml

from . import __version__
from .benchmark import (
    SolverSettings,
    compute_ratios,
    solve_so,
    validate_structure_pricing,
    validate_structure_so,
)
from .config import ExperimentConfig
from .costs import no_storage_cost, social_cost
from .demand import ScenarioSet, adjust_variance, aggregate_by_type, generate_synthetic
from .errors import ConvergenceError, InputError, OrderingViolationError
from .pricing import (
    PricingResult,
    evaluate_lambda,
    optimize_price_difference,
    optimize_prices_extended,
    social_cost_curve,
    user_specs_from_grouping,
)
from .response import StorageSpec, optimal_capacity_discrete

GRID_CHECK_TOL = 1e-9


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_rows(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(x) if isinstance(x, float) else x for x in row])


def _write_meta(
    out: Path, command: str, cfg: ExperimentConfig, seed: int, outputs, exit_status: int
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
        "social_cost": result.social_cost.to_json_dict(),
        "capacities": {e: r.capacity for e, r in sorted(result.responses.items())},
        "total_capacity": sum(r.capacity for r in result.responses.values()),
    }


def _write_trace(path: Path, result: PricingResult, extended: bool) -> None:
    if extended:
        rows = [[p_o, pd, sc] for p_o, pd, sc in result.trace]
        _write_rows(path, ["p_offpeak", "candidate_pdelta", "social_cost"], rows)
    else:
        rows = [[pd, sc] for _, pd, sc in result.trace]
        _write_rows(path, ["candidate_pdelta", "social_cost"], rows)


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


def _is_extended(cfg: ExperimentConfig, eta: float | None = None, tau: float | None = None) -> bool:
    if cfg.pricing.mode == "plain":
        return False
    if cfg.pricing.mode == "extended":
        return True
    eta_c = cfg.storage.eta_c if eta is None else eta
    eta_d = cfg.storage.eta_d if eta is None else eta
    tau = cfg.storage.tau if tau is None else tau
    return eta_c != 1.0 or eta_d != 1.0 or tau != 0.0


def _p_o_grid(cfg: ExperimentConfig) -> tuple[tuple[float, float], int]:
    if cfg.pricing.p_o_range is None:
        raise InputError(
            "pricing.p_o_range is required for the extended (efficiency/degradation) search"
        )
    lo, hi = cfg.pricing.p_o_range
    return (float(lo), float(hi)), int(cfg.pricing.p_o_steps)


def _optimize_one(
    cfg: ExperimentConfig,
    user_scenarios: ScenarioSet,
    grouping: dict[str, str],
    scheme: str,
    theta_bar: float | None = None,
    delta_s: float | None = None,
    eta: float | None = None,
    tau: float | None = None,
    elastic_cost="config",
    elastic_fraction: float | None = None,
) -> PricingResult:
    periods = cfg.periods()
    supply = cfg.supply_params()
    fraction = (
        cfg.storage.elastic_fraction if elastic_fraction is None else elastic_fraction
    )
    if fraction == 0.0:
        elastic_cost = None  # no elastic demand, keep specs plain
    type_specs = cfg.build_specs(
        cfg.type_ids(), theta_bar, delta_s, eta, tau, elastic_cost
    )
    if scheme == "pt":
        pricing_scen = aggregate_by_type(user_scenarios, grouping)
        pricing_specs = {t: type_specs[t] for t in pricing_scen.entities}
        args = (pricing_scen, pricing_specs, user_scenarios, grouping, periods, supply)
    elif scheme == "pi":
        user_specs = user_specs_from_grouping(type_specs, user_scenarios, grouping)
        args = (user_scenarios, user_specs, None, None, periods, supply)
    else:
        raise InputError(f"unknown scheme {scheme!r}")
    if _is_extended(cfg, eta, tau):
        p_o_range, steps = _p_o_grid(cfg)
        return optimize_prices_extended(
            *args,
            p_o_range,
            steps,
            cfg.pricing.epsilon,
            elastic_fraction=fraction,
        )
    return optimize_price_difference(
        *args,
        cfg.pricing.epsilon,
        p_offpeak=cfg.pricing.p_offpeak,
        elastic_fraction=fraction,
    )


def _user_thetas(
    cfg: ExperimentConfig,
    user_scenarios: ScenarioSet,
    grouping: dict[str, str],
    theta_bar: float | None = None,
    delta_s: float | None = None,
) -> dict[str, float]:
    by_type = dict(zip(cfg.type_ids(), sorted(cfg.type_thetas(theta_bar, delta_s))))
    return {e: by_type[grouping[e]] for e in user_scenarios.entities}


def _verify_grid(result: PricingResult, cfg, pricing_scen, pricing_specs, fraction) -> str | None:
    """Cross-check the threshold scan against a dense price grid."""
    hi = max(pd for _, pd, _ in result.trace) * 1.2 + 1.0
    grid = np.linspace(0.0, hi, 10_000)
    totals = social_cost_curve(
        pricing_scen,
        pricing_specs,
        cfg.periods(),
        cfg.supply_params(),
        grid,
        p_offpeak=result.best_price.p_offpeak,
        elastic_fraction=fraction,
    )
    best_grid = float(totals.min())
    tol = GRID_CHECK_TOL * max(1.0, abs(best_grid))
    if result.scan_cost > best_grid + tol:
        return (
            f"scan cost {result.scan_cost!r} beaten by grid minimum {best_grid!r} "
            f"at p_delta {grid[int(np.argmin(totals))]!r}"
        )
    return None


def cmd_ingest(cfg: ExperimentConfig, out: Path, seed: int, outputs: list[Path]) -> int:
    scenarios = cfg.load_user_scenarios(seed)
    path = out / "scenarios.csv"
    scenarios.to_csv(path)
    outputs.append(path)
    print(f"wrote {path} ({scenarios.n_outcomes} outcomes, {scenarios.n_entities} entities)")
    return 0


def cmd_optimize(
    cfg: ExperimentConfig, out: Path, seed: int, outputs: list[Path], scheme: str, verify_grid: bool
) -> int:
    user_scenarios = cfg.load_user_scenarios(seed)
    grouping = cfg.groupings(user_scenarios.entities)[0]
    schemes = ["pt", "pi"] if scheme == "both" else [scheme]
    extended = _is_extended(cfg)
    for sch in schemes:
        result = _optimize_one(cfg, user_scenarios, grouping, sch)
        base = out / f"result_{sch}.json"
        _write_json(base, _result_payload(result))
        trace_path = out / f"trace_{sch}.csv"
        _write_trace(trace_path, result, extended)
        resp_path = out / f"responses_{sch}.csv"
        _write_responses(resp_path, result)
        outputs.extend([base, trace_path, resp_path])
        print(
            f"{sch}: p_delta={result.best_price.p_delta:.6g} "
            f"social_cost={result.social_cost.total:.6g} "
            f"candidates={result.n_candidates}"
        )
        if verify_grid:
            if sch == "pt":
                pricing_scen = aggregate_by_type(user_scenarios, grouping)
                pricing_specs = cfg.build_specs(cfg.type_ids())
                pricing_specs = {t: pricing_specs[t] for t in pricing_scen.entities}
            else:
                pricing_scen = user_scenarios
                pricing_specs = user_specs_from_grouping(
                    cfg.build_specs(cfg.type_ids()), user_scenarios, grouping
                )
            failure = _verify_grid(
                result, cfg, pricing_scen, pricing_specs, cfg.storage.elastic_fraction
            )
            if failure:
                print(f"grid check FAILED for {sch}: {failure}", file=sys.stderr)
                return 3
            print(f"grid check passed for {sch}")
    return 0


def cmd_benchmark(cfg: ExperimentConfig, out: Path, seed: int, outputs: list[Path]) -> int:
    user_scenarios = cfg.load_user_scenarios(seed)
    grouping = cfg.groupings(user_scenarios.entities)[0]
    periods, supply = cfg.periods(), cfg.supply_params()
    settings = SolverSettings(cfg.solver.tolerance, cfg.solver.max_iterations)
    pt = _optimize_one(cfg, user_scenarios, grouping, "pt")
    pi = _optimize_one(cfg, user_scenarios, grouping, "pi")
    thetas = _user_thetas(cfg, user_scenarios, grouping)
    plan = solve_so(user_scenarios, thetas, periods, supply, settings)
    sc_no = no_storage_cost(user_scenarios, periods, supply).total
    ratios = compute_ratios(
        pt.social_cost.total, pi.social_cost.total, plan.social_cost.total, sc_no
    )
    reports = {
        "so": validate_structure_so(plan, thetas, user_scenarios),
        "pt": validate_structure_pricing(pt.responses, thetas, user_scenarios),
        "pi": validate_structure_pricing(pi.responses, thetas, user_scenarios),
    }
    paths = [out / "ratios.json", out / "so_plan.json", out / "structure.json"]
    _write_json(paths[0], ratios.to_json_dict())
    _write_json(paths[1], plan.to_json_dict())
    _write_json(
        paths[2],
        {k: {"ok": r.ok, "violations": r.violations} for k, r in reports.items()},
    )
    outputs.extend(paths)
    print(
        f"kappa_pt={ratios.kappa_pt:.6f} kappa_pi={ratios.kappa_pi:.6f} "
        f"kappa_no={ratios.kappa_no:.6f}"
    )
    for name, report in reports.items():
        if not report.ok:
            for v in report.violations:
                print(f"structure violation [{name}]: {v}", file=sys.stderr)
            return 3
    return 0


def _sweep_point(cfg, user_scenarios, groupings, **overrides):
    """PT, PI, SO and no-storage for one grid point over all groupings."""
    periods, supply = cfg.periods(), cfg.supply_params()
    settings = SolverSettings(cfg.solver.tolerance, cfg.solver.max_iterations)
    rows = []
    for grouping in groupings:
        pt = _optimize_one(cfg, user_scenarios, grouping, "pt", **overrides)
        pi = _optimize_one(cfg, user_scenarios, grouping, "pi", **overrides)
        thetas = _user_thetas(
            cfg,
            user_scenarios,
            grouping,
            overrides.get("theta_bar"),
            overrides.get("delta_s"),
        )
        plan = solve_so(user_scenarios, thetas, periods, supply, settings)
        sc_no = no_storage_cost(user_scenarios, periods, supply).total
        rows.append((pt, pi, plan.social_cost.total, sc_no))
    return rows


def _kappa_row(axis_value: float, runs) -> list:
    kpt, kpi, kno = [], [], []
    pdelta, capacity = [], []
    sc_pt, sc_pi, sc_so, sc_no = [], [], [], []
    for pt, pi, so_total, no_total in runs:
        ratios = compute_ratios(pt.social_cost.total, pi.social_cost.total, so_total, no_total)
        kpt.append(ratios.kappa_pt)
        kpi.append(ratios.kappa_pi)
        kno.append(ratios.kappa_no)
        pdelta.append(pt.best_price.p_delta)
        capacity.append(sum(r.capacity for r in pt.responses.values()))
        sc_pt.append(pt.social_cost.total)
        sc_pi.append(pi.social_cost.total)
        sc_so.append(so_total)
        sc_no.append(no_total)
    return [
        axis_value,
        mean(kpt), mean(kpi), mean(kno),
        pstdev(kpt) if len(kpt) > 1 else 0.0,
        pstdev(kpi) if len(kpi) > 1 else 0.0,
        pstdev(kno) if len(kno) > 1 else 0.0,
        mean(pdelta), mean(capacity),
        mean(sc_pt), mean(sc_pi), mean(sc_so), mean(sc_no),
    ]


_KAPPA_HEADER = [
    "kappa_pt", "kappa_pi", "kappa_no",
    "kappa_pt_std", "kappa_pi_std", "kappa_no_std",
    "pdelta_pt", "capacity_pt", "sc_pt", "sc_pi", "sc_so", "sc_no",
]


# Sweep axis -> (user scenarios, `_optimize_one` overrides) at one grid value.
_KAPPA_AXES = {
    "theta_bar": lambda scen, v: (scen, {"theta_bar": v}),
    "delta_s": lambda scen, v: (scen, {"delta_s": v}),
    "delta_d": lambda scen, v: (adjust_variance(scen, v), {}),
    "tau": lambda scen, v: (scen, {"tau": v}),
    "eta": lambda scen, v: (scen, {"eta": v}),
}


def cmd_sweep(cfg: ExperimentConfig, out: Path, seed: int, outputs: list[Path], axis: str) -> int:
    user_scenarios = cfg.load_user_scenarios(seed)
    groupings = cfg.groupings(user_scenarios.entities)
    grid = getattr(cfg.sweeps, axis, None) if axis != "lambda" else None
    path = out / f"sweep_{axis}.csv"
    if axis == "lambda":
        if not cfg.sweeps.p_delta or not cfg.sweeps.theta_bar:
            raise InputError("lambda sweep needs sweeps.p_delta and sweeps.theta_bar grids")
        grouping = groupings[0]
        specs = user_specs_from_grouping(
            cfg.build_specs(cfg.type_ids()), user_scenarios, grouping
        )
        lam = evaluate_lambda(
            list(cfg.sweeps.p_delta),
            list(cfg.sweeps.theta_bar),
            user_scenarios,
            specs,
            cfg.periods(),
            cfg.supply_params(),
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
        rows = []
        for value in grid:
            value = float(value)
            scenarios, overrides = _KAPPA_AXES[axis](user_scenarios, value)
            runs = _sweep_point(cfg, scenarios, groupings, **overrides)
            rows.append(_kappa_row(value, runs))
        _write_rows(path, [axis] + _KAPPA_HEADER, rows)
    elif axis == "elastic_fraction":
        if not grid:
            raise InputError("sweeps.elastic_fraction grid is empty")
        if cfg.storage.elastic_cost is None:
            raise InputError("storage.elastic_cost is required for the elastic sweep")
        rows = []
        for value in grid:
            value = float(value)
            per = {"pt": [], "pi": []}
            for grouping in groupings:
                for sch in ("pt", "pi"):
                    res = _optimize_one(
                        cfg, user_scenarios, grouping, sch, elastic_fraction=value
                    )
                    per[sch].append(res)
            rows.append(
                [
                    value,
                    mean(r.best_price.p_delta for r in per["pt"]),
                    mean(sum(p.capacity for p in r.responses.values()) for r in per["pt"]),
                    mean(r.social_cost.total for r in per["pt"]),
                    mean(r.best_price.p_delta for r in per["pi"]),
                    mean(sum(p.capacity for p in r.responses.values()) for r in per["pi"]),
                    mean(r.social_cost.total for r in per["pi"]),
                ]
            )
        _write_rows(
            path,
            [
                "elastic_fraction",
                "pdelta_pt", "capacity_pt", "sc_pt",
                "pdelta_pi", "capacity_pi", "sc_pi",
            ],
            rows,
        )
    else:
        raise InputError(f"unknown sweep axis {axis!r}")
    outputs.append(path)
    print(f"wrote {path}")
    return 0


def _verify_checks(cfg: ExperimentConfig, seed: int):
    """Quick self-contained invariant suite; yields (name, ok, detail)."""
    rng = np.random.default_rng(seed)
    periods, supply = cfg.periods(), cfg.supply_params()

    def sizing_oracle():
        for _ in range(150):
            n = int(rng.integers(1, 7))
            demand = np.sort(rng.uniform(0.0, 10.0, n))
            probs = rng.uniform(0.2, 1.0, n)
            probs /= probs.sum()
            theta = float(rng.uniform(0.05, 3.0))
            p_delta = float(rng.uniform(0.0, 6.0))
            cap = optimal_capacity_discrete(demand, probs, theta, p_delta)
            exp_served = lambda c: float(probs @ np.minimum(c, demand))
            cost = theta * cap - p_delta * exp_served(cap)
            best = min(theta * c - p_delta * exp_served(c) for c in [0.0, *demand])
            if cost > best + 1e-9:
                return False, f"capacity cost {cost} vs enumeration {best}"
        return True, ""

    def scan_vs_grid():
        for _ in range(15):
            scen, specs = _random_small_instance(rng)
            result = optimize_price_difference(
                scen, specs, None, None, periods, supply
            )
            grid = np.linspace(0.0, max(s.theta for s in specs.values()) * 8 + 5, 2001)
            totals = social_cost_curve(scen, specs, periods, supply, grid)
            if result.scan_cost > totals.min() + 1e-9 * max(1.0, totals.min()):
                return False, f"scan {result.scan_cost} beaten by grid {totals.min()}"
            bound = scen.n_entities * scen.n_outcomes + 1
            if result.n_candidates > bound:
                return False, f"{result.n_candidates} candidates exceeds {bound}"
        return True, ""

    def ordering_and_structure():
        for trial in range(20):
            scen, specs = _random_small_instance(rng)
            grouping = {e: e for e in scen.entities}
            thetas = {e: specs[e].theta for e in scen.entities}
            pi = optimize_price_difference(scen, specs, None, None, periods, supply)
            pt = optimize_price_difference(scen, specs, scen, grouping, periods, supply)
            plan = solve_so(scen, thetas, periods, supply)
            sc_no = no_storage_cost(scen, periods, supply).total
            try:
                compute_ratios(
                    pt.social_cost.total, pi.social_cost.total,
                    plan.social_cost.total, sc_no,
                )
            except OrderingViolationError as exc:
                return False, str(exc)
            rep_so = validate_structure_so(plan, thetas, scen)
            rep_pi = validate_structure_pricing(pi.responses, thetas, scen)
            if not rep_so.ok or not rep_pi.ok:
                return False, "; ".join(rep_so.violations + rep_pi.violations)
        return True, ""

    def extended_reduction():
        for _ in range(10):
            scen, specs = _random_small_instance(rng)
            plain = optimize_price_difference(scen, specs, None, None, periods, supply)
            ext = optimize_prices_extended(
                scen, specs, None, None, periods, supply, (0.0, 0.0), 1
            )
            same = (
                ext.best_price.p_delta == plain.best_price.p_delta
                and ext.social_cost.total == plain.social_cost.total
            )
            if not same:
                return False, "extended search with lossless specs diverged from plain"
        return True, ""

    def probability_normalization():
        scen = generate_synthetic(2, 2, 9, 5.0, int(rng.integers(0, 2**31)))
        for dd in (0.0, 0.7, 1.0, 1.8):
            adjusted = adjust_variance(scen, dd)
            if abs(adjusted.probs.sum() - 1.0) > 1e-9:
                return False, f"probabilities drifted at delta_d={dd}"
        agg = aggregate_by_type(scen, {e: e.split('u')[0] for e in scen.entities})
        if abs(agg.probs.sum() - 1.0) > 1e-9:
            return False, "probabilities drifted after aggregation"
        return True, ""

    yield "sizing-enumeration-oracle", *sizing_oracle()
    yield "price-scan-vs-grid", *scan_vs_grid()
    yield "scheme-ordering-and-structure", *ordering_and_structure()
    yield "extended-reduction", *extended_reduction()
    yield "probability-normalization", *probability_normalization()


def _random_small_instance(rng: np.random.Generator):
    n_entities = int(rng.integers(2, 4))
    n_outcomes = int(rng.integers(2, 5))
    peak = rng.uniform(0.5, 8.0, size=(n_outcomes, n_entities))
    offpeak = rng.uniform(0.0, 4.0, size=(n_outcomes, n_entities))
    probs = rng.uniform(0.2, 1.0, n_outcomes)
    probs /= probs.sum()
    names = tuple(f"u{i}" for i in range(n_entities))
    scen = ScenarioSet(names, probs, peak, offpeak)
    thetas = np.sort(rng.uniform(0.05, 4.0, n_entities))
    specs = {e: StorageSpec(theta=float(t)) for e, t in zip(names, thetas)}
    return scen, specs


def cmd_verify(cfg: ExperimentConfig, out: Path, seed: int, outputs: list[Path]) -> int:
    failures = []
    results = {}
    for name, ok, detail in _verify_checks(cfg, seed):
        results[name] = {"ok": ok, "detail": detail}
        print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
        if not ok:
            failures.append(name)
    _write_json(out / "verify_report.json", results)
    outputs.append(out / "verify_report.json")
    return 3 if failures else 0


def build_parser() -> argparse.ArgumentParser:
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
        args.out.mkdir(parents=True, exist_ok=True)
    except (InputError, OSError, yaml.YAMLError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    seed = cfg.seed if args.seed is None else args.seed
    out = args.out
    outputs: list[Path] = []
    command = args.command
    try:
        if command == "ingest":
            status = cmd_ingest(cfg, out, seed, outputs)
        elif command == "optimize":
            status = cmd_optimize(cfg, out, seed, outputs, args.scheme, args.verify_grid)
        elif command == "sweep":
            command = f"sweep:{args.axis}"
            status = cmd_sweep(cfg, out, seed, outputs, args.axis)
        elif command == "benchmark":
            status = cmd_benchmark(cfg, out, seed, outputs)
        elif command == "verify":
            status = cmd_verify(cfg, out, seed, outputs)
        else:
            raise InputError(f"unknown command {command!r}")
    except OrderingViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        status = 3
    except ConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        status = 4
    except (InputError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        status = 2
    _write_meta(out, command, cfg, seed, outputs, status)
    return status


if __name__ == "__main__":
    sys.exit(main())
