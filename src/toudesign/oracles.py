"""Reference checks for the sizing rule, the price scan and the planner.

Each oracle reaches its answer without the fast path it checks: the
newsvendor enumeration tries every candidate capacity, the dense-grid check
evaluates the social cost on a uniform price grid, and the brute-force
planner searches a capacity grid. `verify_suite` runs the first two, with
the scheme ordering and structure checks, on seeded random instances, and
the `verify` command reports it; only the tests run the brute-force planner
and the tightness instance. `optimize --verify-grid` runs the grid check.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .benchmark import (
    SocialPlan,
    _PlanModel,
    compute_ratios,
    solve_so,
    validate_structure_pricing,
    validate_structure_so,
)
from .costs import SupplyCostParams, no_storage_cost, two_period_supply_cost
from .demand import (
    PeriodStructure,
    ScenarioSet,
    adjust_variance,
    aggregate_by_type,
    generate_synthetic,
    synthetic_grouping,
)
from .errors import InputError, OrderingViolationError
from .pricing import (
    PricingResult,
    optimize_price_difference,
    optimize_prices_extended,
    social_cost_curve,
)
from .response import StorageSpec, optimal_capacity_discrete

GRID_CHECK_TOL = 1e-9


def newsvendor_cost(capacity, demand, probs, theta: float, p_delta: float) -> float:
    """The owner's sizing objective theta c - p_delta E[min(c, d)]."""
    return theta * capacity - p_delta * float(probs @ np.minimum(capacity, demand))


def newsvendor_enumeration(demand, probs, theta: float, p_delta: float) -> float:
    """Least sizing cost over the capacities {0} and every demand value."""
    return min(newsvendor_cost(c, demand, probs, theta, p_delta) for c in [0.0, *demand])


def grid_check(
    result: PricingResult,
    grid: np.ndarray,
    scenarios: ScenarioSet,
    specs: Mapping[str, StorageSpec],
    periods: PeriodStructure,
    supply: SupplyCostParams,
) -> str | None:
    """Cross-check a threshold scan against a dense price grid.

    Evaluates the scan's pricing instance at every price difference of the
    grid, at the chosen off-peak price; returns None if the scan cost is
    within GRID_CHECK_TOL of the grid minimum, else a failure message.
    """
    totals = social_cost_curve(
        scenarios, specs, periods, supply, grid, p_offpeak=result.best_price.p_offpeak
    )
    best_grid = float(totals.min())
    tol = GRID_CHECK_TOL * max(1.0, abs(best_grid))
    if result.scan_cost > best_grid + tol:
        return (
            f"scan cost {result.scan_cost!r} beaten by grid minimum {best_grid!r} "
            f"at p_delta {grid[int(np.argmin(totals))]!r}"
        )
    return None


def brute_force_so(
    scenarios: ScenarioSet,
    thetas: Mapping[str, float],
    periods: PeriodStructure,
    supply: SupplyCostParams,
    grid_step: float,
) -> SocialPlan:
    """Exhaustive capacity-grid oracle for tiny planner instances.

    Searches every combination of per-user capacities on a uniform grid from
    zero to the user's maximum peak demand, augmented with the user's outcome
    demand values where the objective has kinks (refining the step therefore
    never worsens the result). The closed-form clamped aggregate charge is
    used inside. Rejects instances with more than 3 users or 4 outcomes.
    """
    if not 0 < grid_step < np.inf:
        raise InputError("grid_step must be finite and > 0")
    if scenarios.n_entities > 3 or scenarios.n_outcomes > 4:
        raise InputError("brute force is limited to 3 users and 4 outcomes")
    model = _PlanModel.of(scenarios, thetas, periods, supply)
    grids = []
    for j in range(scenarios.n_entities):
        hi = float(scenarios.peak[:, j].max())
        grid = np.arange(0.0, hi + grid_step, grid_step)
        grids.append(np.unique(np.concatenate((grid, scenarios.peak[:, j], [hi]))))
    total = int(np.prod([g.size for g in grids]))
    if total > 20_000_000:
        raise InputError(f"instance too large: {total} capacity combinations")
    mesh = np.meshgrid(*grids, indexing="ij")
    combos = np.stack([m.ravel() for m in mesh], axis=1)
    agg_peak, agg_offpeak = scenarios.aggregate_peak(), scenarios.aggregate_offpeak()
    cost = combos @ model.thetas
    expected = np.zeros(len(combos))
    for w in range(scenarios.n_outcomes):
        headroom = np.minimum(combos, scenarios.peak[w][None, :]).sum(axis=1)
        shift = np.clip(model.targets[w], 0.0, headroom)
        per = two_period_supply_cost(agg_peak[w] - shift, agg_offpeak[w] + shift, periods, supply)
        expected += scenarios.probs[w] * per
    cost = cost + expected
    return model.plan(combos[int(np.argmin(cost))], iterations=0)


def tightness_instance(
    n_types: int,
    d: float,
    periods: PeriodStructure,
    theta: float | None = None,
    alpha: float = 1.0,
) -> tuple[ScenarioSet, dict[str, StorageSpec], SupplyCostParams]:
    """Worst-case instance for the zero-cost performance bound.

    One single-user type per outcome carries peak demand d while all others
    are idle, off-peak demand is zero, the supply cost is purely quadratic
    and capacity is almost free. On this instance the tariff either shifts
    everything or nothing, while the planner splits the load across both
    periods.
    """
    if n_types < 1:
        raise InputError("n_types must be >= 1")
    if d <= 0:
        raise InputError("d must be > 0")
    if theta is None:
        # negligible against the supply cost yet far above the threshold-merge
        # tolerance of the price scan
        theta = 1e-7 * alpha * d
    entities = tuple(f"type{k:02d}" for k in range(n_types))
    peak = np.zeros((n_types, n_types))
    np.fill_diagonal(peak, d)
    probs = np.full(n_types, 1.0 / n_types)
    scenarios = ScenarioSet(entities, probs, peak, np.zeros_like(peak))
    specs = {e: StorageSpec(theta=theta) for e in entities}
    return scenarios, specs, SupplyCostParams(alpha=alpha, beta=0.0, gamma=0.0)


def verify_suite(periods: PeriodStructure, supply: SupplyCostParams, seed: int):
    """Quick self-contained invariant suite; yields (name, ok, detail).

    Every check draws its random instances from one generator seeded with
    `seed`, in the order the checks are listed.
    """
    rng = np.random.default_rng(seed)

    def sizing_oracle():
        for _ in range(150):
            n = int(rng.integers(1, 7))
            demand = np.sort(rng.uniform(0.0, 10.0, n))
            probs = rng.uniform(0.2, 1.0, n)
            probs /= probs.sum()
            theta = float(rng.uniform(0.05, 3.0))
            p_delta = float(rng.uniform(0.0, 6.0))
            cap = optimal_capacity_discrete(demand, probs, theta, p_delta)
            cost = newsvendor_cost(cap, demand, probs, theta, p_delta)
            best = newsvendor_enumeration(demand, probs, theta, p_delta)
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
            failure = grid_check(result, grid, scen, specs, periods, supply)
            if failure:
                return False, failure
            bound = scen.n_entities * scen.n_outcomes + 1
            if result.n_candidates > bound:
                return False, f"{result.n_candidates} candidates exceeds {bound}"
        return True, ""

    def ordering_and_structure():
        for _ in range(20):
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
                scen, specs, None, None, periods, supply, (0.0, 4.0), 3
            )
            # lossless specs: every grid point ties, so the search is the plain scan
            same = (
                ext.best_price.p_delta == plain.best_price.p_delta
                and ext.social_cost.total == plain.social_cost.total
                and ext.best_price.p_offpeak == 0.0
                and ext.n_evaluations == plain.n_evaluations
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
        agg = aggregate_by_type(scen, synthetic_grouping(scen))
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
