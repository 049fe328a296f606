import json
import sys
from pathlib import Path

import numpy as np
import pytest

from toudesign import (
    ConvergenceError,
    InputError,
    OrderingViolationError,
    PeriodStructure,
    ScenarioSet,
    SocialPlan,
    SolverSettings,
    StorageSpec,
    SupplyCostParams,
    brute_force_so,
    compute_ratios,
    no_storage_cost,
    optimize_price_difference,
    respond,
    so_zero_cost,
    solve_so,
    tightness_instance,
    validate_structure_pricing,
    validate_structure_so,
)

from toudesign.benchmark import (
    _coordinate_minimum,
    _greedy_charges,
    _plan_from_capacities,
    _shift_targets,
    _supply_slope,
)
from toudesign.cli import _json_default
from toudesign.costs import two_period_supply_cost

from conftest import HALF_DAY, random_scenarios

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def thetas_for(scen, values):
    return {e: float(v) for e, v in zip(scen.entities, values)}


def _objective(scenarios, thetas_arr, periods, supply):
    """The planner objective as a function of the capacities: investment
    plus the expected supply cost of the clamped optimal aggregate charge."""
    targets = _shift_targets(scenarios, periods)
    agg_peak, agg_offpeak = scenarios.aggregate_peak(), scenarios.aggregate_offpeak()

    def objective(capacities: np.ndarray) -> float:
        headroom = np.minimum(capacities[None, :], scenarios.peak).sum(axis=1)
        shift = np.clip(targets, 0.0, headroom)
        per_outcome = two_period_supply_cost(agg_peak - shift, agg_offpeak + shift, periods, supply)
        return float(thetas_arr @ capacities + scenarios.probs @ per_outcome)

    return objective


def test_solve_so_huge_cost_means_no_storage(quadratic_supply):
    rng = np.random.default_rng(1)
    scen = random_scenarios(rng, 3, 4)
    plan = solve_so(scen, thetas_for(scen, [1e8, 2e8, 3e8]), HALF_DAY, quadratic_supply)
    assert all(c == 0.0 for c in plan.capacities.values())
    assert plan.social_cost.total == no_storage_cost(scen, HALF_DAY, quadratic_supply).total
    assert plan.optimality_residual == 0.0


def test_solve_so_free_storage_single_outcome():
    scen = ScenarioSet(("u",), np.array([1.0]), np.array([[12.0]]), np.array([[0.0]]))
    supply = SupplyCostParams(alpha=1.0)
    plan = solve_so(scen, {"u": 1e-12}, HALF_DAY, supply)
    # closed form: shift (Ho Dp - Hp Do) / 24 = 6, cost 6
    assert plan.capacities["u"] == pytest.approx(6.0, abs=1e-6)
    assert plan.social_cost.total == pytest.approx(6.0, rel=1e-9)
    shift, sc = so_zero_cost(scen, HALF_DAY, supply)
    np.testing.assert_allclose(shift, [6.0])
    assert sc == pytest.approx(6.0)


def test_solve_so_matches_brute_force_oracle(quadratic_supply):
    rng = np.random.default_rng(2)
    for _ in range(20):
        scen = random_scenarios(rng, 2, int(rng.integers(1, 4)))
        thetas = thetas_for(scen, np.sort(rng.uniform(0.02, 2.0, 2)))
        plan = solve_so(scen, thetas, HALF_DAY, quadratic_supply)
        step = float(scen.peak.max()) / 1000.0
        oracle = brute_force_so(scen, thetas, HALF_DAY, quadratic_supply, step)
        assert plan.social_cost.total <= oracle.social_cost.total + 1e-9
        assert oracle.social_cost.total - plan.social_cost.total <= 1e-6 * max(
            1.0, oracle.social_cost.total
        )
        assert plan.optimality_residual <= 1e-5 * max(thetas.values())


def test_optimality_residual_flags_zero_capacities_where_storage_pays(quadratic_supply):
    rng = np.random.default_rng(14)
    scen = random_scenarios(rng, 3, 4)
    thetas = thetas_for(scen, [0.02, 0.05, 0.1])
    plan = solve_so(scen, thetas, HALF_DAY, quadratic_supply)
    assert max(plan.capacities.values()) > 0.0
    assert plan.optimality_residual <= 1e-5 * 0.1
    idle = _plan_from_capacities(
        scen, thetas, HALF_DAY, quadratic_supply, np.zeros(3), iterations=0
    )
    assert idle.optimality_residual > 1e-3
    payload = json.loads(json.dumps(plan, default=_json_default))
    assert payload["optimality_residual"] == plan.optimality_residual


def test_so_zero_cost_examples():
    scen = ScenarioSet(("u",), np.array([1.0]), np.array([[10.0]]), np.array([[2.0]]))
    shift, _ = so_zero_cost(scen, HALF_DAY, SupplyCostParams(1.0))
    np.testing.assert_allclose(shift, [4.0])
    # already flat across periods: no shift
    flat = ScenarioSet(("u",), np.array([1.0]), np.array([[6.0]]), np.array([[6.0]]))
    shift, sc = so_zero_cost(flat, HALF_DAY, SupplyCostParams(1.0))
    np.testing.assert_allclose(shift, [0.0])
    assert sc == pytest.approx(6.0)


def test_so_zero_cost_clamps_reverse_imbalance():
    scen = ScenarioSet(("u",), np.array([1.0]), np.array([[1.0]]), np.array([[20.0]]))
    shift, sc = so_zero_cost(scen, HALF_DAY, SupplyCostParams(1.0))
    np.testing.assert_allclose(shift, [0.0])
    assert sc == pytest.approx((1.0 + 400.0) / 12.0)


def test_so_zero_cost_matches_closed_form_when_unclamped():
    rng = np.random.default_rng(3)
    scen = random_scenarios(rng, 2, 5, peak_range=(5.0, 9.0), off_range=(0.0, 2.0))
    supply = SupplyCostParams(1.7, 0.4, 0.02)
    _, sc = so_zero_cost(scen, HALF_DAY, supply)
    total = scen.aggregate_peak() + scen.aggregate_offpeak()
    closed = float(
        scen.probs
        @ (
            supply.alpha * 24 * (total / 24.0) ** 2
            + supply.beta * total
            + supply.gamma * 24
        )
    )
    assert sc == pytest.approx(closed, rel=1e-12)


def test_so_zero_cost_matches_solver_with_tiny_theta(quadratic_supply):
    rng = np.random.default_rng(4)
    for _ in range(10):
        scen = random_scenarios(rng, 3, 3, peak_range=(3.0, 8.0), off_range=(0.0, 1.0))
        _, sc = so_zero_cost(scen, HALF_DAY, quadratic_supply)
        plan = solve_so(
            scen, {e: 1e-10 for e in scen.entities}, HALF_DAY, quadratic_supply
        )
        assert plan.social_cost.total == pytest.approx(sc, rel=1e-6)


def test_solver_reports_non_convergence():
    rng = np.random.default_rng(5)
    scen = random_scenarios(rng, 4, 4)
    settings = SolverSettings(tolerance=1e-16, max_iterations=1)
    with pytest.raises(ConvergenceError) as err:
        solve_so(
            scen,
            thetas_for(scen, [0.01, 0.02, 0.03, 0.04]),
            HALF_DAY,
            SupplyCostParams(2.0),
            settings,
        )
    assert isinstance(err.value.best, SocialPlan)
    assert err.value.best.optimality_residual > err.value.best.residual_limit


def residual_limit(scen, thetas, supply, periods=HALF_DAY, tolerance=SolverSettings().tolerance):
    """tolerance times the size of the planner's derivative at zero capacity."""
    slope0, _ = _supply_slope(scen, periods, supply)
    return tolerance * (max(thetas.values()) + scen.probs @ np.abs(slope0))


def test_every_plan_is_certified_on_the_criterion_5_instances():
    # The instances of test_acceptance.py's criterion 5, drawn in its order.
    supply = SupplyCostParams(alpha=1.0)
    rng = np.random.default_rng(1004)
    for _ in range(100):
        n_users = int(rng.integers(1, 3))
        n_out = int(rng.integers(1, 4))
        peak = rng.uniform(0.5, 8.0, size=(n_out, n_users))
        offpeak = rng.uniform(0.0, 4.0, size=(n_out, n_users))
        probs = rng.uniform(0.2, 1.0, n_out)
        probs /= probs.sum()
        scen = ScenarioSet(tuple(f"u{i}" for i in range(n_users)), probs, peak, offpeak)
        costs = np.sort(rng.uniform(0.02, 2.0, n_users))
        for thetas in (thetas_for(scen, costs), {e: 1e-10 for e in scen.entities}):
            plan = solve_so(scen, thetas, HALF_DAY, supply)
            assert plan.residual_limit == residual_limit(scen, thetas, supply)
            assert plan.optimality_residual <= plan.residual_limit


# sc_so of perfbench's 256-user equiprobable instance (seed 7) under the
# objective-stall rule, which stopped at residual 4.2e-4.
STALL_SC_SO_256 = 78216.7513823139


def test_planner_certifies_the_256_user_instance(monkeypatch):
    import toudesign

    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as checked out
    try:
        import inputs
        import workloads

        periods, supply, type_specs = workloads.model(toudesign)
        inst = workloads.instance(toudesign, inputs.equiprobable_demand(7, 256, 30), type_specs)
    finally:
        for name in ("inputs", "tracer", "workloads"):
            sys.modules.pop(name, None)
    plan = solve_so(inst.scen, inst.thetas, periods, supply)
    assert plan.residual_limit == residual_limit(inst.scen, inst.thetas, supply, periods)
    assert plan.optimality_residual <= plan.residual_limit < 1e-8
    assert plan.social_cost.total <= STALL_SC_SO_256 * (1.0 + 1e-12)


def test_planner_is_deterministic_bit_for_bit(quadratic_supply):
    rng = np.random.default_rng(16)
    scen = random_scenarios(rng, 40, 12, equiprob=True)
    thetas = thetas_for(scen, np.repeat([0.05, 0.1, 0.15, 0.2], 10))
    first, second = (solve_so(scen, thetas, HALF_DAY, quadratic_supply) for _ in range(2))
    assert first.capacities == second.capacities
    for e in scen.entities:
        assert first.charges[e].tobytes() == second.charges[e].tobytes()
    assert first.social_cost == second.social_cost
    assert (first.iterations, first.optimality_residual, first.residual_limit) == (
        second.iterations, second.optimality_residual, second.residual_limit
    )
    assert first.optimality_residual <= first.residual_limit


def test_charge_split_is_feasible_and_sums_to_shift(quadratic_supply):
    rng = np.random.default_rng(6)
    scen = random_scenarios(rng, 3, 4)
    thetas = thetas_for(scen, [0.05, 0.1, 0.2])
    plan = solve_so(scen, thetas, HALF_DAY, quadratic_supply)
    for j, e in enumerate(scen.entities):
        charges = plan.charges[e]
        assert np.all(charges >= -1e-12)
        assert np.all(charges <= plan.capacities[e] + 1e-12)
        assert np.all(charges <= scen.peak[:, j] + 1e-12)


def test_compute_ratios_all_equal():
    r = compute_ratios(5.0, 5.0, 5.0, 5.0)
    assert (r.kappa_pt, r.kappa_pi, r.kappa_no) == (1.0, 1.0, 1.0)


def test_compute_ratios_rejects_ordering_violation():
    with pytest.raises(OrderingViolationError):
        compute_ratios(4.0, 5.0, 5.0, 5.0)
    with pytest.raises(OrderingViolationError):
        compute_ratios(5.0, 4.0, 5.0, 5.0)
    for position in range(4):
        for bad in (np.nan, np.inf):
            costs = [5.0, 5.0, 5.0, 5.0]
            costs[position] = bad
            with pytest.raises(OrderingViolationError, match="non-finite cost"):
                compute_ratios(*costs)


def test_compute_ratios_requires_positive_so():
    with pytest.raises(InputError):
        compute_ratios(1.0, 1.0, 0.0, 1.0)


def test_scheme_ordering_on_random_instances(quadratic_supply):
    rng = np.random.default_rng(7)
    for _ in range(30):
        scen = random_scenarios(
            rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)),
            peak_range=(0.5, 8.0),
        )
        thetas = np.sort(rng.uniform(0.05, 3.0, scen.n_entities))
        specs = {e: StorageSpec(theta=float(t)) for e, t in zip(scen.entities, thetas)}
        grouping = {e: e for e in scen.entities}
        pt = optimize_price_difference(
            scen, specs, scen, grouping, HALF_DAY, quadratic_supply
        )
        pi = optimize_price_difference(
            scen, specs, None, None, HALF_DAY, quadratic_supply
        )
        plan = solve_so(
            scen, {e: s.theta for e, s in specs.items()}, HALF_DAY, quadratic_supply
        )
        sc_no = no_storage_cost(scen, HALF_DAY, quadratic_supply).total
        report = compute_ratios(
            pt.social_cost.total, pi.social_cost.total, plan.social_cost.total, sc_no
        )
        assert report.kappa_pt >= report.kappa_pi >= 1.0 - 1e-12


def test_validator_single_user_trivially_valid(quadratic_supply):
    scen = ScenarioSet(("u",), np.array([1.0]), np.array([[5.0]]), np.array([[0.0]]))
    plan = solve_so(scen, {"u": 0.01}, HALF_DAY, quadratic_supply)
    assert validate_structure_so(plan, {"u": 0.01}, scen).ok


def test_validator_flags_inverted_investment():
    peak = np.array([[4.0, 4.0], [6.0, 6.0]])
    scen = ScenarioSet(("a", "b"), np.array([0.5, 0.5]), peak, np.zeros_like(peak))
    thetas = {"a": 0.5, "b": 1.0}
    bad = SocialPlan(
        capacities={"a": 0.0, "b": 5.0},
        charges={"a": np.zeros(2), "b": np.array([4.0, 5.0])},
        social_cost=no_storage_cost(scen, HALF_DAY, SupplyCostParams(1.0)),
    )
    report = validate_structure_so(bad, thetas, scen)
    assert not report.ok
    assert any("no investor" in v for v in report.violations)


def test_validator_flags_capacity_above_support():
    peak = np.array([[4.0], [6.0]])
    scen = ScenarioSet(("a",), np.array([0.5, 0.5]), peak, np.zeros_like(peak))
    bad = SocialPlan(
        capacities={"a": 9.0},
        charges={"a": np.zeros(2)},
        social_cost=no_storage_cost(scen, HALF_DAY, SupplyCostParams(1.0)),
    )
    report = validate_structure_so(bad, {"a": 0.5}, scen)
    assert not report.ok


def test_validators_pass_on_solver_outputs(quadratic_supply):
    rng = np.random.default_rng(8)
    for _ in range(40):
        scen = random_scenarios(
            rng,
            int(rng.integers(2, 5)),
            int(rng.integers(2, 5)),
            peak_range=(1.0, 8.0),
        )
        thetas = np.sort(rng.uniform(0.02, 2.5, scen.n_entities))
        theta_map = thetas_for(scen, thetas)
        plan = solve_so(scen, theta_map, HALF_DAY, quadratic_supply)
        report = validate_structure_so(plan, theta_map, scen)
        assert report.ok, report.violations
        specs = {e: StorageSpec(theta=theta_map[e]) for e in scen.entities}
        result = optimize_price_difference(
            scen, specs, None, None, HALF_DAY, quadratic_supply
        )
        report2 = validate_structure_pricing(result.responses, theta_map, scen)
        assert report2.ok, report2.violations


def test_pricing_validator_flags_partial_investment():
    peak = np.array([[4.0, 4.0], [6.0, 6.0]])
    scen = ScenarioSet(("a", "b"), np.array([0.5, 0.5]), peak, np.zeros_like(peak))
    thetas = {"a": 0.5, "b": 0.5}
    responses = {
        "a": respond(StorageSpec(0.5), __import__("toudesign").TouPrice(2.0, 0.0), scen.probs, peak[:, 0]),
        "b": respond(StorageSpec(0.5), __import__("toudesign").TouPrice(0.1, 0.0), scen.probs, peak[:, 1]),
    }
    report = validate_structure_pricing(responses, thetas, scen)
    assert not report.ok


def test_tightness_symmetric_periods():
    scen, specs, supply = tightness_instance(3, 8.0, HALF_DAY)
    grouping = {e: e for e in scen.entities}
    pt = optimize_price_difference(scen, specs, scen, grouping, HALF_DAY, supply)
    plan = solve_so(scen, {e: s.theta for e, s in specs.items()}, HALF_DAY, supply)
    kappa = pt.social_cost.total / plan.social_cost.total
    assert kappa == pytest.approx(2.0, abs=0.04)


def test_tightness_asymmetric_periods():
    periods = PeriodStructure(frozenset(range(6)))
    scen, specs, supply = tightness_instance(4, 8.0, periods)
    grouping = {e: e for e in scen.entities}
    pt = optimize_price_difference(scen, specs, scen, grouping, periods, supply)
    plan = solve_so(scen, {e: s.theta for e, s in specs.items()}, periods, supply)
    kappa = pt.social_cost.total / plan.social_cost.total
    assert kappa == pytest.approx(4.0 / 3.0, abs=0.03)


def test_tightness_single_type():
    # one type: the tariff either shifts everything or nothing
    scen, specs, supply = tightness_instance(1, 5.0, HALF_DAY)
    grouping = {e: e for e in scen.entities}
    pt = optimize_price_difference(scen, specs, scen, grouping, HALF_DAY, supply)
    plan = solve_so(scen, {e: s.theta for e, s in specs.items()}, HALF_DAY, supply)
    d = 5.0
    no_shift = d * d / 12.0
    full_shift = d * d / 12.0
    assert pt.social_cost.total == pytest.approx(min(no_shift, full_shift), rel=1e-4)
    assert pt.social_cost.total / plan.social_cost.total == pytest.approx(2.0, abs=0.04)


def test_brute_force_respects_size_limits(quadratic_supply):
    rng = np.random.default_rng(9)
    scen = random_scenarios(rng, 4, 2)
    with pytest.raises(InputError):
        brute_force_so(scen, thetas_for(scen, [1, 1, 1, 1]), HALF_DAY, quadratic_supply, 0.5)
    scen2 = random_scenarios(rng, 2, 2)
    with pytest.raises(InputError):
        brute_force_so(scen2, thetas_for(scen2, [1, 1]), HALF_DAY, quadratic_supply, -1.0)


def test_brute_force_huge_theta(quadratic_supply):
    rng = np.random.default_rng(10)
    scen = random_scenarios(rng, 2, 2)
    plan = brute_force_so(scen, thetas_for(scen, [1e9, 1e9]), HALF_DAY, quadratic_supply, 0.25)
    assert all(c == 0.0 for c in plan.capacities.values())


def test_brute_force_single_user_free_storage():
    scen = ScenarioSet(("u",), np.array([1.0]), np.array([[12.0]]), np.array([[0.0]]))
    supply = SupplyCostParams(1.0)
    plan = brute_force_so(scen, {"u": 1e-12}, HALF_DAY, supply, 0.01)
    _, sc = so_zero_cost(scen, HALF_DAY, supply)
    assert plan.capacities["u"] >= 6.0 - 0.011
    assert plan.social_cost.total == pytest.approx(sc, rel=1e-4)


def test_brute_force_refinement_never_worse(quadratic_supply):
    rng = np.random.default_rng(11)
    scen = random_scenarios(rng, 2, 3)
    thetas = thetas_for(scen, [0.1, 0.4])
    coarse = brute_force_so(scen, thetas, HALF_DAY, quadratic_supply, 0.4)
    fine = brute_force_so(scen, thetas, HALF_DAY, quadratic_supply, 0.2)
    assert fine.social_cost.total <= coarse.social_cost.total + 1e-12


def test_plan_aggregate_charge_satisfies_first_order_conditions(quadratic_supply):
    # per outcome the total charge is the unconstrained optimum clamped to
    # the available headroom; interior solutions equalize average power
    rng = np.random.default_rng(13)
    for _ in range(10):
        scen = random_scenarios(rng, 3, 4)
        thetas = thetas_for(scen, np.sort(rng.uniform(0.02, 1.5, 3)))
        plan = solve_so(scen, thetas, HALF_DAY, quadratic_supply)
        caps = np.array([plan.capacities[e] for e in scen.entities])
        charges = np.column_stack([plan.charges[e] for e in scen.entities])
        headroom = np.minimum(caps[None, :], scen.peak).sum(axis=1)
        target = (
            HALF_DAY.h_offpeak * scen.aggregate_peak()
            - HALF_DAY.h_peak * scen.aggregate_offpeak()
        ) / 24.0
        total = charges.sum(axis=1)
        np.testing.assert_allclose(total, np.clip(target, 0.0, headroom), atol=1e-9)
        interior = (total > 1e-9) & (total < headroom - 1e-9)
        if interior.any():
            peak_power = (scen.aggregate_peak() - total) / HALF_DAY.h_peak
            off_power = (scen.aggregate_offpeak() + total) / HALF_DAY.h_offpeak
            np.testing.assert_allclose(
                peak_power[interior], off_power[interior], rtol=1e-9
            )


def test_plan_objective_below_any_stage2_plan(quadratic_supply):
    # planner optimum is a lower bound for tariff-induced plans
    rng = np.random.default_rng(12)
    for _ in range(10):
        scen = random_scenarios(rng, 3, 3)
        thetas = np.sort(rng.uniform(0.05, 2.0, 3))
        theta_map = thetas_for(scen, thetas)
        plan = solve_so(scen, theta_map, HALF_DAY, quadratic_supply)
        specs = {e: StorageSpec(theta=theta_map[e]) for e in scen.entities}
        result = optimize_price_difference(
            scen, specs, None, None, HALF_DAY, quadratic_supply
        )
        assert plan.social_cost.total <= result.social_cost.total + 1e-9


COORDINATE_SUPPLY = SupplyCostParams(alpha=2.0)
# 2 alpha (1/h_peak + 1/h_offpeak) on HALF_DAY
COORDINATE_CURVATURE = 2.0 * 2.0 * (1.0 / 12.0 + 1.0 / 12.0)


def _coordinate_case(theta, demand, rest, offpeak, probs, extra=None):
    """One capacity against a fixed headroom `rest` of the other users.

    User "rest" has peak demand rest and a capacity covering it, so it adds
    exactly rest to the aggregate headroom; user "load" adds peak demand
    `extra` and no capacity. The planner objective along the first capacity
    is then _objective at [t, max(rest), 0]. Returns the coordinate step's
    result, the objective along the coordinate and the breakpoints.
    """
    supply = COORDINATE_SUPPLY
    extra = np.zeros_like(demand) if extra is None else extra
    peak = np.column_stack((demand, rest, extra))
    off = np.column_stack((offpeak, np.zeros_like(demand), np.zeros_like(demand)))
    scen = ScenarioSet(("i", "rest", "load"), probs, peak, off)
    targets = _shift_targets(scen, HALF_DAY)
    slope0, curvature = _supply_slope(scen, HALF_DAY, supply)
    assert curvature == pytest.approx(COORDINATE_CURVATURE, rel=1e-15)
    t = _coordinate_minimum(theta, demand, rest, probs, slope0, curvature, targets)
    thetas = np.array([theta, 1.0, 1.0])
    cap_rest = float(rest.max())

    objective = _objective(scen, thetas, HALF_DAY, supply)

    def along(x):
        return objective(np.array([x, cap_rest, 0.0]))

    return t, along, np.minimum(demand, targets - rest)


def _assert_coordinate_minimum(t, along, demand, breakpoints):
    hi = float(demand.max())
    assert 0.0 <= t <= hi
    grid = np.concatenate((np.linspace(0.0, hi, 2001), breakpoints[breakpoints > 0.0]))
    best = min(along(x) for x in grid)
    at_t = along(t)
    assert at_t <= best + 1e-12 * max(1.0, abs(best))
    h = 1e-6 * max(1.0, hi)
    tol = 1e-12 * max(1.0, abs(at_t))
    assert along(t + h) >= at_t - tol
    if t > 0.0:
        assert along(max(t - h, 0.0)) >= at_t - tol


def test_coordinate_minimum_beats_grid_on_random_draws():
    rng = np.random.default_rng(15)
    for _ in range(25):
        n_out = int(rng.integers(1, 9))
        probs = rng.uniform(0.2, 1.0, n_out)
        probs /= probs.sum()
        demand = rng.uniform(0.0, 8.0, n_out)
        case = _coordinate_case(
            float(rng.uniform(0.01, 3.0)),
            demand,
            rng.uniform(0.0, 6.0, n_out),
            rng.uniform(0.0, 4.0, n_out),
            probs,
            extra=rng.uniform(0.0, 12.0, n_out),
        )
        _assert_coordinate_minimum(case[0], case[1], demand, case[2])


def test_coordinate_minimum_edge_cases():
    quarter = np.full(4, 0.25)
    # every breakpoint <= 0: off-peak already busier than peak
    demand = np.array([3.0, 4.0, 5.0, 6.0])
    t, _, breaks = _coordinate_case(0.01, demand, np.zeros(4), np.full(4, 20.0), quarter)
    assert np.all(breaks <= 0.0)
    assert t == 0.0
    # the others' headroom already reaches every shift target
    t, _, breaks = _coordinate_case(0.01, demand, np.full(4, 6.0), np.zeros(4), quarter)
    assert np.all(breaks <= 0.0)
    assert t == 0.0

    # tied breakpoints, capped by demand (a heavy idle load keeps the shift
    # targets above) and by the shift target
    tied = np.array([3.0, 3.0, 3.0, 5.0])
    heavy = np.full(4, 20.0)
    for extra, theta in ((heavy, 0.01), (heavy, 2.0), (heavy, 6.0), (None, 0.01)):
        t, along, breaks = _coordinate_case(theta, tied, np.zeros(4), np.zeros(4), quarter, extra)
        assert np.unique(breaks).size == 2
        _assert_coordinate_minimum(t, along, tied, breaks)

    # the root falls in the last active piece: breakpoints at half the demand
    third = np.full(3, 1.0 / 3.0)
    demand = np.array([2.0, 4.0, 8.0])
    t, along, breaks = _coordinate_case(0.01, demand, np.zeros(3), np.zeros(3), third)
    np.testing.assert_allclose(breaks, [1.0, 2.0, 4.0])
    assert 2.0 < t < 4.0
    assert t == pytest.approx(4.0 - 0.01 / (COORDINATE_CURVATURE / 3.0), rel=1e-12)
    _assert_coordinate_minimum(t, along, demand, breaks)

    # a single outcome
    one = np.array([6.0])
    t, along, breaks = _coordinate_case(0.01, one, np.zeros(1), np.zeros(1), np.ones(1))
    assert t == pytest.approx(3.0 - 0.01 / COORDINATE_CURVATURE, rel=1e-12)
    _assert_coordinate_minimum(t, along, one, breaks)


def _sequential_split(capacities, peak, total_shift):
    charges = np.zeros_like(peak)
    for w in range(peak.shape[0]):
        remaining = total_shift[w]
        for i in range(peak.shape[1]):
            take = min(remaining, capacities[i], peak[w, i])
            charges[w, i] = take
            remaining -= take
    return charges


def test_greedy_charges_match_sequential_split():
    rng = np.random.default_rng(16)
    for _ in range(200):
        n_out, n_users = (int(x) for x in rng.integers(1, 7, 2))
        capacities = rng.uniform(0.0, 6.0, n_users) * (rng.random(n_users) > 0.2)
        peak = rng.uniform(0.0, 8.0, (n_out, n_users))
        headroom = np.minimum(capacities[None, :], peak).sum(axis=1)
        total_shift = np.clip(rng.uniform(-1.0, 1.3, n_out) * headroom, 0.0, headroom)
        charges = _greedy_charges(capacities, peak, total_shift)
        np.testing.assert_allclose(
            charges, _sequential_split(capacities, peak, total_shift), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(charges.sum(axis=1), total_shift, rtol=0, atol=1e-12)
        assert np.all(charges >= 0.0)
        assert np.all(charges <= np.minimum(capacities[None, :], peak))
