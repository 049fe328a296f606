"""The four benchmark workloads: inputs, set-up, the timed steps and their checks.

A workload's `steps` are the timed windows: only calls into the program's
public functions plus the bookkeeping between them. Every result is checked in
`check`, outside the timed windows, against an oracle that does not share the
code path under test. One `Op` is reported per operation: one tariff solve,
one planner solve, one pipeline stage or one CLI command.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import inputs
from tracer import Target

REL_TOL = 1e-9
REEVAL_TOL = 1e-12
THETA_BAR = 10.0
DELTA_S = 1.0 / 3.0


@dataclass
class Op:
    """Outcome of one operation. `refused` marks a documented refusal (a
    non-zero exit the program announces for an input it declines); it is
    counted on its own and does not make the run incorrect."""

    name: str
    ok: bool
    detail: str = ""
    refused: bool = False


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def type_thetas() -> list[float]:
    centre = (inputs.N_TYPES + 1) / 2.0
    return [THETA_BAR * (1.0 + (i - centre) * DELTA_S) for i in range(1, inputs.N_TYPES + 1)]


def model(td):
    """Periods, supply cost and per-type storage specs shared by the
    library-level workloads: a 7-hour evening peak and alpha = 1."""
    periods = td.PeriodStructure(frozenset(inputs.PEAK_HOURS))
    supply = td.SupplyCostParams(1.0, 0.0, 0.0)
    type_specs = {f"type{k:02d}": td.StorageSpec(theta=t) for k, t in enumerate(type_thetas())}
    return periods, supply, type_specs


def instance(td, demand: inputs.Demand, type_specs):
    """Program inputs of one synthetic instance."""
    scen = td.ScenarioSet(demand.entities, demand.probs, demand.peak, demand.offpeak)
    grouping = inputs.block_grouping(demand.entities)
    user_specs = {e: type_specs[grouping[e]] for e in demand.entities}
    thetas = {e: s.theta for e, s in user_specs.items()}
    return SimpleNamespace(scen=scen, grouping=grouping, user_specs=user_specs, thetas=thetas)


# --- oracles -----------------------------------------------------------------


def curve_min(td, scen, specs, periods, supply, grid, p_o: float = 0.0, chunk: int = 2000):
    """Minimum and values of the dense vectorized cost curve, in chunks so
    the check does not raise the process's peak memory."""
    values = np.concatenate(
        [
            td.social_cost_curve(scen, specs, periods, supply, grid[i : i + chunk], p_o)
            for i in range(0, len(grid), chunk)
        ]
    )
    return float(values.min()), values


def check_tariff(td, result, pricing_scen, pricing_specs, user_scen, user_specs, periods, supply) -> list[str]:
    """Scan optimality against the dense curve, the scan's own candidates
    against the curve, and the reported cost against a scalar re-evaluation."""
    problems = []
    p_o = result.best_price.p_offpeak
    cands = np.array(sorted({pd for _, pd, _ in result.trace}))
    mids = (cands[:-1] + cands[1:]) / 2.0
    grid = np.concatenate((np.linspace(0.0, cands.max() * 1.2 + 1.0, 20_001), mids))
    dense, _ = curve_min(td, pricing_scen, pricing_specs, periods, supply, grid, p_o)
    if result.scan_cost > dense + REL_TOL * max(1.0, abs(dense)):
        problems.append(f"scan cost {result.scan_cost!r} above dense-curve minimum {dense!r}")
    at_cands, _ = curve_min(td, pricing_scen, pricing_specs, periods, supply, cands, p_o)
    if not close(result.scan_cost, at_cands):
        problems.append(f"scan cost {result.scan_cost!r} != curve minimum over candidates {at_cands!r}")
    responses = {
        e: td.respond(user_specs[e], result.best_price, user_scen.probs, user_scen.peak[:, j])
        for j, e in enumerate(user_scen.entities)
    }
    again = td.social_cost(user_scen, user_specs, responses, periods, supply, check_feasibility=False).total
    if not close(result.social_cost.total, again, REEVAL_TOL):
        problems.append(f"reported cost {result.social_cost.total!r} != re-evaluation {again!r}")
    return problems


def supply_oracle(probs, peak_load, off_load, periods, alpha=1.0) -> float:
    """Expected quadratic supply cost of period totals (beta = gamma = 0)."""
    per = alpha * (peak_load**2 / periods.h_peak + off_load**2 / periods.h_offpeak)
    return float(probs @ per)


def op(name: str, problems: list[str]) -> Op:
    return Op(name, not problems, "; ".join(problems))


def reference_problems(summary: dict, reference: dict) -> list[str]:
    """Values at the default seed against those recorded with the benchmark.

    Keys ending in `sc_so` are one-sided: a better planner may go lower.
    """
    problems = []
    for key, ref in reference.items():
        got = summary.get(key)
        if got is None:
            problems.append(f"reference value {key} missing")
        elif key.endswith("sc_so"):
            if got > ref + REL_TOL * max(1.0, abs(ref)):
                problems.append(f"{key}={got!r} above reference {ref!r}")
        elif not close(got, ref):
            problems.append(f"{key}={got!r} != reference {ref!r}")
    return problems


# --- per-layer targets -------------------------------------------------------


def _pricing_counts(result):
    return {"candidates": result.n_candidates, "evaluations": result.n_evaluations}


TARGETS = [
    Target("response.respond", "toudesign.response:respond"),
    Target("costs.social_cost", "toudesign.costs:social_cost"),
    Target("costs.no_storage_cost", "toudesign.costs:no_storage_cost"),
    Target("costs.approximation_gap", "toudesign.costs:approximation_gap"),
    Target("pricing.optimize_price_difference", "toudesign.pricing:optimize_price_difference", _pricing_counts),
    Target("pricing.optimize_prices_extended", "toudesign.pricing:optimize_prices_extended", _pricing_counts),
    Target("pricing.social_cost_curve", "toudesign.pricing:social_cost_curve"),
    Target("pricing.evaluate_lambda", "toudesign.pricing:evaluate_lambda"),
    Target("benchmark.solve_so", "toudesign.benchmark:solve_so", lambda plan: {"sweeps": plan.iterations}),
    Target("benchmark.compute_ratios", "toudesign.benchmark:compute_ratios"),
    Target("benchmark.validate_structure_so", "toudesign.benchmark:validate_structure_so"),
    Target("benchmark.validate_structure_pricing", "toudesign.benchmark:validate_structure_pricing"),
    Target(
        "demand.from_csv",
        "toudesign.demand:HourlyLoadTable.from_csv",
        lambda t: {"rows": len(t.days) * len(t.entities)},
    ),
    Target("demand.ingest_hourly_loads", "toudesign.demand:ingest_hourly_loads"),
    Target("demand.reduce_scenarios", "toudesign.demand:reduce_scenarios", peak_memory=True),
    Target("demand.aggregate_by_type", "toudesign.demand:aggregate_by_type"),
    Target("demand.generate_synthetic", "toudesign.demand:generate_synthetic"),
    Target("demand.adjust_variance", "toudesign.demand:adjust_variance"),
    Target("config.from_yaml", "toudesign.config:ExperimentConfig.from_yaml"),
]


# --- workloads ---------------------------------------------------------------

# --- workloads ---------------------------------------------------------------
#
# A job is a list of named steps, each a call `step(results, tracer)` whose
# return value is stored in `results` under the step's name, so a later step
# of the same job can use it. The harness times every step on its own.


def type_tariff(td, state, inst):
    """Aggregate users into their types and scan the type tariff (pt)."""
    types = td.aggregate_by_type(inst.scen, inst.grouping)
    tspecs = {t: state.type_specs[t] for t in types.entities}
    pt = td.optimize_price_difference(types, tspecs, inst.scen, inst.grouping, state.periods, state.supply)
    return SimpleNamespace(types=types, tspecs=tspecs, pt=pt)


def ratios_or_error(td, sc_pt, sc_pi, sc_so, sc_no):
    try:
        return td.compute_ratios(sc_pt, sc_pi, sc_so, sc_no)
    except td.OrderingViolationError as exc:
        return exc


def synthetic_setup(mods, demands):
    td = mods.toudesign
    periods, supply, type_specs = model(td)
    return SimpleNamespace(
        td=td,
        periods=periods,
        supply=supply,
        type_specs=type_specs,
        instances=[instance(td, d, type_specs) for d in demands],
    )


class PiScan:
    """Per-user price scan on instances where every user has its own thresholds."""

    name = "pi-scan"
    modules = ("toudesign",)
    full = {"users": 16, "outcomes": 24, "instances": 10}
    toy = {"users": 8, "outcomes": 6, "instances": 1}

    def make_inputs(self, seed, size, workdir):
        return [
            inputs.dirichlet_demand(seed * 100 + k, size["users"], size["outcomes"])
            for k in range(size["instances"])
        ]

    setup = staticmethod(synthetic_setup)

    def steps(self, state):
        td, periods, supply = state.td, state.periods, state.supply
        for k, inst in enumerate(state.instances):

            def pi(results, tracer, inst=inst):
                return td.optimize_price_difference(inst.scen, inst.user_specs, None, None, periods, supply)

            def so(results, tracer, inst=inst, k=k):
                plan = td.solve_so(inst.scen, inst.thetas, periods, supply)
                sc_no = td.no_storage_cost(inst.scen, periods, supply).total
                sc_pt = results[f"{k}.pt"].pt.social_cost.total
                sc_pi = results[f"{k}.pi"].social_cost.total
                ratios = ratios_or_error(td, sc_pt, sc_pi, plan.social_cost.total, sc_no)
                return SimpleNamespace(plan=plan, sc_no=sc_no, ratios=ratios)

            yield f"{k}.pt", lambda results, tracer, inst=inst: type_tariff(td, state, inst)
            yield f"{k}.pi", pi
            yield f"{k}.so", so

    def summary(self, state, results):
        s = {}
        for k in range(len(state.instances)):
            pt, pi, so = results[f"{k}.pt"].pt, results[f"{k}.pi"], results[f"{k}.so"]
            s.update(
                {
                    f"{k}.pt.p_delta": pt.best_price.p_delta,
                    f"{k}.pt.social_cost": pt.social_cost.total,
                    f"{k}.pi.p_delta": pi.best_price.p_delta,
                    f"{k}.pi.social_cost": pi.social_cost.total,
                    f"{k}.sc_no": so.sc_no,
                    f"{k}.sc_so": so.plan.social_cost.total,
                }
            )
        return s

    def check(self, state, results):
        td, periods, supply = state.td, state.periods, state.supply
        ops = []
        for k, inst in enumerate(state.instances):
            t, pi, so = results[f"{k}.pt"], results[f"{k}.pi"], results[f"{k}.so"]
            ops.append(op(f"{k}.pt", check_tariff(td, t.pt, t.types, t.tspecs, inst.scen, inst.user_specs, periods, supply)))
            ops.append(op(f"{k}.pi", check_tariff(td, pi, inst.scen, inst.user_specs, inst.scen, inst.user_specs, periods, supply)))
            ops.append(op(f"{k}.so", planner_problems(td, inst, so.plan, so.ratios, periods, supply)))
        return ops


def planner_problems(td, inst, plan, ratios, periods, supply) -> list[str]:
    """Ordering check, the zero-cost supply bound and the planner structure."""
    problems = []
    if isinstance(ratios, Exception):
        problems.append(f"compute_ratios: {ratios}")
    _, free = td.so_zero_cost(inst.scen, periods, supply)
    sc_so = plan.social_cost.total
    if sc_so < free - REL_TOL * max(1.0, abs(free)):
        problems.append(f"sc_so {sc_so!r} below the zero-cost supply bound {free!r}")
    report = td.validate_structure_so(plan, inst.thetas, inst.scen)
    if not report.ok:
        problems.append("planner structure: " + "; ".join(report.violations))
    return problems


class SoAudit:
    """Planner audit of the type tariff on equiprobable instances."""

    name = "so-audit"
    modules = ("toudesign",)
    full = {"users": 32, "outcomes": 30, "instances": 64}
    toy = {"users": 12, "outcomes": 5, "instances": 1}

    def make_inputs(self, seed, size, workdir):
        return [
            inputs.equiprobable_demand(seed * 100 + k, size["users"], size["outcomes"])
            for k in range(size["instances"])
        ]

    setup = staticmethod(synthetic_setup)

    def steps(self, state):
        td, periods, supply = state.td, state.periods, state.supply
        for k, inst in enumerate(state.instances):

            def so(results, tracer, inst=inst):
                return td.solve_so(inst.scen, inst.thetas, periods, supply)

            def audit(results, tracer, inst=inst, k=k):
                pt, plan = results[f"{k}.pt"].pt, results[f"{k}.so"]
                sc_no = td.no_storage_cost(inst.scen, periods, supply).total
                rep_so = td.validate_structure_so(plan, inst.thetas, inst.scen)
                rep_pt = td.validate_structure_pricing(pt.responses, inst.thetas, inst.scen)
                sc_pt, sc_so = pt.social_cost.total, plan.social_cost.total
                # No pi scheme here: pt stands in for pi, which checks pt >= so and no >= so.
                ratios = ratios_or_error(td, sc_pt, sc_pt, sc_so, sc_no)
                return SimpleNamespace(sc_no=sc_no, rep_so=rep_so, rep_pt=rep_pt, ratios=ratios, ratio=sc_pt / sc_so)

            yield f"{k}.pt", lambda results, tracer, inst=inst: type_tariff(td, state, inst)
            yield f"{k}.so", so
            yield f"{k}.audit", audit

    def summary(self, state, results):
        s = {}
        for k in range(len(state.instances)):
            pt, plan, audit = results[f"{k}.pt"].pt, results[f"{k}.so"], results[f"{k}.audit"]
            s.update(
                {
                    f"{k}.pt.p_delta": pt.best_price.p_delta,
                    f"{k}.pt.social_cost": pt.social_cost.total,
                    f"{k}.sc_no": audit.sc_no,
                    f"{k}.sc_so": plan.social_cost.total,
                }
            )
        return s

    def check(self, state, results):
        td, periods, supply = state.td, state.periods, state.supply
        ops = []
        for k, inst in enumerate(state.instances):
            t, plan, a = results[f"{k}.pt"], results[f"{k}.so"], results[f"{k}.audit"]
            ops.append(op(f"{k}.pt", check_tariff(td, t.pt, t.types, t.tspecs, inst.scen, inst.user_specs, periods, supply)))
            ops.append(op(f"{k}.so", planner_problems(td, inst, plan, a.ratios, periods, supply)))
            audit = []
            if not (a.rep_so.ok and a.rep_pt.ok):
                audit.append("structure: " + "; ".join(a.rep_so.violations + a.rep_pt.violations))
            scen = inst.scen
            no = supply_oracle(scen.probs, scen.peak.sum(axis=1), scen.offpeak.sum(axis=1), periods)
            if not close(a.sc_no, no):
                audit.append(f"no-storage cost {a.sc_no!r} != oracle {no!r}")
            if isinstance(a.ratios, Exception):
                audit.append(f"compute_ratios: {a.ratios}")
            elif not close(a.ratio, a.ratios.kappa_pt, REEVAL_TOL):
                audit.append(f"sc_pt/sc_so {a.ratio!r} != kappa_pt {a.ratios.kappa_pt!r}")
            ops.append(op(f"{k}.audit", audit))
        return ops


class LoadPipeline:
    """Real-shaped hourly load file through ingest, reduction and a tariff."""

    name = "load-pipeline"
    modules = ("toudesign",)
    full = {"users": 120, "days": 180, "reduce_to": 40}
    toy = {"users": 8, "days": 12, "reduce_to": 5}

    def make_inputs(self, seed, size, workdir):
        loads = inputs.hourly_load_csv(seed, size["users"], size["days"], workdir / "loads.csv")
        return SimpleNamespace(loads=loads, reduce_to=size["reduce_to"])

    def setup(self, mods, data):
        td = mods.toudesign
        periods, supply, type_specs = model(td)
        grouping = inputs.block_grouping(inputs.user_names(data.loads.load.shape[1]))
        return SimpleNamespace(
            td=td, periods=periods, supply=supply, type_specs=type_specs,
            grouping=grouping, user_specs={e: type_specs[t] for e, t in grouping.items()},
            path=str(data.loads.path), data=data,
        )

    def steps(self, state):
        td, periods, supply = state.td, state.periods, state.supply

        def aggregate(results, tracer):
            types = td.aggregate_by_type(results["reduce"], state.grouping)
            return SimpleNamespace(types=types, tspecs={t: state.type_specs[t] for t in types.entities})

        def pt(results, tracer):
            a = results["aggregate"]
            return td.optimize_price_difference(a.types, a.tspecs, results["reduce"], state.grouping, periods, supply)

        yield "from_csv", lambda results, tracer: td.HourlyLoadTable.from_csv(state.path)
        yield "ingest", lambda results, tracer: td.ingest_hourly_loads(results["from_csv"], periods)
        yield "approximation_gap", lambda results, tracer: td.approximation_gap(results["from_csv"], periods, supply)
        yield "reduce", lambda results, tracer: td.reduce_scenarios(results["ingest"], state.data.reduce_to)
        yield "aggregate", aggregate
        yield "pt", pt

    def summary(self, state, results):
        scen, reduced, pt = results["ingest"], results["reduce"], results["pt"]
        return {
            "gap": results["approximation_gap"],
            "peak_total": float(scen.peak.sum()),
            "reduced.mean_peak": float(reduced.probs @ reduced.peak.sum(axis=1)),
            "pt.p_delta": pt.best_price.p_delta,
            "pt.social_cost": pt.social_cost.total,
        }

    def check(self, state, results):
        td, periods, supply = state.td, state.periods, state.supply
        table, scen, reduced = results["from_csv"], results["ingest"], results["reduce"]
        types, tspecs = results["aggregate"].types, results["aggregate"].tspecs
        load, solar = state.data.loads.load, state.data.loads.solar
        n_days, n_users, _ = load.shape
        ops = []

        # The parsed values themselves are checked through the ingest and
        # approximation-gap oracles below.
        problems = []
        if len(table.days) != n_days or len(table.entities) != n_users:
            problems.append(f"{len(table.days)} days x {len(table.entities)} users, expected {n_days} x {n_users}")
        ops.append(op("from_csv", problems))

        net = np.maximum(load - solar, 0.0)
        peak_idx = sorted(periods.peak_hours)
        off_idx = sorted(periods.offpeak_hours)
        peak = net[:, :, peak_idx].sum(axis=2)
        off = net[:, :, off_idx].sum(axis=2)
        problems = []
        if scen.peak.shape != peak.shape or not np.allclose(scen.peak, peak, rtol=REL_TOL, atol=0):
            problems.append("peak demand differs from the oracle")
        if scen.offpeak.shape != off.shape or not np.allclose(scen.offpeak, off, rtol=REL_TOL, atol=0):
            problems.append("off-peak demand differs from the oracle")
        if not np.allclose(scen.probs, 1.0 / n_days, rtol=1e-12, atol=0):
            problems.append("day outcomes are not equiprobable")
        ops.append(op("ingest", problems))

        profile = net.sum(axis=1)  # (days, 24)
        hourly = float(np.mean(np.sum(profile**2, axis=1)))
        period = float(np.mean(profile[:, peak_idx].sum(axis=1) ** 2 / len(peak_idx) + profile[:, off_idx].sum(axis=1) ** 2 / len(off_idx)))
        expected_gap = abs(period - hourly) / hourly
        gap = results["approximation_gap"]
        ops.append(op("approximation_gap", [] if close(gap, expected_gap) else [f"gap {gap!r} != oracle {expected_gap!r}"]))

        ops.append(op("reduce", reduction_problems(scen, reduced, state.data.reduce_to)))

        problems = []
        for t in types.entities:
            cols = [j for j, e in enumerate(reduced.entities) if state.grouping[e] == t]
            col = types.entities.index(t)
            if not np.allclose(types.peak[:, col], reduced.peak[:, cols].sum(axis=1), rtol=REEVAL_TOL, atol=0):
                problems.append(f"type {t} peak is not the sum of its members")
        if not np.array_equal(types.probs, reduced.probs):
            problems.append("aggregation changed the probabilities")
        ops.append(op("aggregate", problems))

        ops.append(op("pt", check_tariff(td, results["pt"], types, tspecs, reduced, state.user_specs, periods, supply)))
        return ops


def reduction_problems(full, reduced, target: int) -> list[str]:
    """Kept outcomes are original outcomes, and each original outcome's
    probability went to its nearest kept outcome."""
    problems = []
    if reduced.n_outcomes != target:
        return [f"{reduced.n_outcomes} outcomes, expected {target}"]
    vectors = np.hstack([full.peak, full.offpeak])
    kept = np.hstack([reduced.peak, reduced.offpeak])
    d2 = (vectors**2).sum(axis=1)[:, None] + (kept**2).sum(axis=1)[None, :] - 2.0 * vectors @ kept.T
    index = {row.tobytes(): w for w, row in enumerate(vectors)}
    missing = [k for k, row in enumerate(kept) if row.tobytes() not in index]
    if missing:
        problems.append(f"kept outcomes {missing} are not original outcomes")
    else:
        mass = np.zeros(target)
        np.add.at(mass, np.argmin(d2, axis=1), full.probs)
        if not np.allclose(reduced.probs, mass, rtol=0, atol=REL_TOL):
            problems.append("probabilities are not the nearest-outcome masses")
    if abs(float(reduced.probs.sum()) - 1.0) > REL_TOL:
        problems.append("probabilities do not sum to one")
    return problems


class CliSweep:
    """The command-line front end on many small instances.

    The study's sweeps run one grid point per command (one config per point),
    so that each timed step stays short.
    """

    name = "cli-sweep"
    modules = ("toudesign", "toudesign.cli")
    full = {"toy": False}
    toy = {"toy": True}

    def make_inputs(self, seed, size, workdir):
        configs = inputs.cli_configs(seed, workdir, toy=size["toy"])
        ex = str(configs["example"])
        commands = [
            ("ingest", ["ingest", "--config", ex]),
            ("optimize", ["optimize", "--config", ex, "--scheme", "both", "--verify-grid"]),
            ("benchmark", ["benchmark", "--config", ex]),
            ("sweep-lambda", ["sweep", "--config", ex, "--axis", "lambda"]),
            ("verify", ["verify", "--config", ex]),
        ]
        for key, path in configs.items():
            if key.startswith("study-"):
                axis = key.split("-")[1]
                commands.append((f"sweep-{key[len('study-'):]}", ["sweep", "--config", str(path), "--axis", axis]))
        out = workdir / "out"
        return SimpleNamespace(
            configs=configs,
            commands=[(name, argv + ["--out", str(out / name)]) for name, argv in commands],
        )

    def setup(self, mods, data):
        cfg = mods.toudesign.ExperimentConfig
        return SimpleNamespace(
            cli=mods.toudesign_cli,
            data=data,
            configs={k: cfg.from_yaml(p) for k, p in data.configs.items()},
        )

    def steps(self, state):
        for name, argv in state.data.commands:

            def command(results, tracer, name=name, argv=argv):
                stdout, stderr = io.StringIO(), io.StringIO()
                span = tracer.span(f"cli.{name}") if tracer else contextlib.nullcontext()
                with span as sp, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    rc = state.cli.main(argv)
                if sp is not None and rc == 0 and name.startswith("sweep"):
                    sp.counts["points"] = solved_points(state.configs, name)
                return SimpleNamespace(rc=rc, stdout=stdout.getvalue(), stderr=stderr.getvalue(), out=Path(argv[argv.index("--out") + 1]))

            yield name, command

    def summary(self, state, results):
        s = {}
        for name, r in results.items():
            if name == "benchmark" and r.rc == 0:
                ratios = json.loads((r.out / "ratios.json").read_text())
                s.update({f"benchmark.{k}": ratios[k] for k in ("sc_pt", "sc_pi", "sc_so", "sc_no")})
            if name == "optimize" and (r.out / "result_pt.json").is_file():
                pt = json.loads((r.out / "result_pt.json").read_text())
                s["optimize.pt.p_delta"] = pt["p_delta"]
                s["optimize.pt.social_cost"] = pt["social_cost"]["total"]
            if name.startswith("sweep") and r.rc == 0:
                axis = sweep_axis(name)
                with open(r.out / f"sweep_{axis}.csv") as fh:
                    rows = list(csv.DictReader(fh))
                cols = ("lambda",) if axis == "lambda" else ("sc_pt", "sc_pi", "sc_no", "sc_so")
                s.update({f"{name}.{c}": sum(float(row[c]) for row in rows) for c in cols})
        return s

    def check(self, state, results):
        ops = []
        for name, r in results.items():
            rc, stdout, stderr, out = r.rc, r.stdout, r.stderr, r.out
            if name == "optimize" and rc == 2 and "instance too large for --verify-grid" in stderr:
                # Documented refusal of the shipped config (pi has 16 entities);
                # the pt outputs must still be written and pass the grid check.
                ok = (out / "result_pt.json").is_file() and "grid check passed for pt" in stdout
                ops.append(Op(name, ok, stderr.strip(), refused=ok))
                continue
            problems = [] if rc == 0 else [f"exit {rc}: {stderr.strip()[-300:]}"]
            if rc == 0 and name == "verify":
                report = json.loads((out / "verify_report.json").read_text())
                problems += [f"verify {k} FAIL: {v['detail']}" for k, v in report.items() if not v["ok"]]
            if rc == 0 and name == "benchmark":
                ratios = json.loads((out / "ratios.json").read_text())
                if not ratios["kappa_pt"] >= ratios["kappa_pi"] - REL_TOL >= 1.0 - 2 * REL_TOL:
                    problems.append(f"kappa ordering violated: {ratios}")
                structure = json.loads((out / "structure.json").read_text())
                problems += [f"structure {k}: {v['violations']}" for k, v in structure.items() if not v["ok"]]
            if rc == 0 and name.startswith("sweep"):
                n = sweep_points(out, sweep_axis(name))
                expected = expected_points(state.configs, name)
                if n != expected:
                    problems.append(f"{n} sweep rows, expected {expected}")
            ops.append(op(name, problems))
        return ops


def sweep_axis(command: str) -> str:
    """`sweep-lambda` -> lambda, `sweep-theta_bar-3` -> theta_bar."""
    return command.split("-")[1]


def sweep_points(out: Path, axis: str) -> int:
    with open(out / f"sweep_{axis}.csv") as fh:
        return sum(1 for _ in fh) - 1


def expected_points(configs, command: str) -> int:
    """Rows a sweep writes: one per grid value, or per grid pair for lambda."""
    axis = sweep_axis(command)
    if axis == "lambda":
        sw = configs["example"].sweeps
        return len(sw.p_delta) * len(sw.theta_bar)
    return len(getattr(configs["study-" + command[len("sweep-"):]].sweeps, axis))


def solved_points(configs, command: str) -> int:
    """Grid points a sweep solves: each row is solved once per grouping."""
    if sweep_axis(command) == "lambda":
        return expected_points(configs, command)
    return expected_points(configs, command) * len(configs["study-" + command[len("sweep-"):]].grouping.seeds)


WORKLOADS = {w.name: w for w in (PiScan(), SoAudit(), LoadPipeline(), CliSweep())}
