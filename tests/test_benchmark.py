import json
import sys
from pathlib import Path

import numpy as np
import pytest

from toudesign import costs as costs_module
from toudesign import (
    ConvergenceError,
    InputError,
    OrderingViolationError,
    PeriodStructure,
    ResponseProfile,
    ScenarioSet,
    SocialPlan,
    SolverSettings,
    StorageSpec,
    SupplyCostParams,
    TouPrice,
    aggregate_by_type,
    compute_ratios,
    no_storage_cost,
    optimize_price_difference,
    optimize_prices_extended,
    respond,
    social_cost,
    so_zero_cost,
    solve_so,
    validate_structure_pricing,
    validate_structure_so,
)

from toudesign import benchmark as benchmark_module
from toudesign import oracles as oracles_module
from toudesign.benchmark import (
    _greedy_charges,
    _newton_step,
    _PlanModel,
    _shift_targets,
    _range_basis,
)
from toudesign.cli import _json_default
from toudesign.costs import two_period_supply_cost
from toudesign.oracles import brute_force_so, tightness_instance

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
    idle = _PlanModel.of(scen, thetas, HALF_DAY, quadratic_supply).plan(np.zeros(3), 0)
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


def perfbench_instance(monkeypatch, seed, n_users, n_outcomes):
    """perfbench's equiprobable planner instance, with its model."""
    import toudesign

    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as checked out
    try:
        import inputs
        import workloads

        periods, supply, type_specs = workloads.model(toudesign)
        demand = inputs.equiprobable_demand(seed, n_users, n_outcomes)
        inst = workloads.instance(toudesign, demand, type_specs)
    finally:
        for name in ("inputs", "tracer", "workloads"):
            sys.modules.pop(name, None)
    return inst.scen, inst.thetas, periods, supply


def test_solver_reports_non_convergence(monkeypatch):
    scen, thetas, periods, supply = perfbench_instance(monkeypatch, 7, 256, 30)
    settings = SolverSettings(tolerance=1e-16, max_iterations=1)
    with pytest.raises(ConvergenceError) as err:
        solve_so(scen, thetas, periods, supply, settings)
    assert isinstance(err.value.best, SocialPlan)
    assert err.value.best.optimality_residual > err.value.best.residual_limit


@pytest.mark.parametrize("bad", [None, 0.0, -0.5, np.nan, np.inf])
def test_planners_reject_bad_storage_costs_before_a_sweep(monkeypatch, quadratic_supply, bad):
    def refuse(*args, **kwargs):
        raise AssertionError("a planner searched with bad storage costs")

    monkeypatch.setattr(_PlanModel, "one_price_start", refuse)
    monkeypatch.setattr(_PlanModel, "violations", refuse)
    monkeypatch.setattr(oracles_module, "two_period_supply_cost", refuse)
    scen = random_scenarios(np.random.default_rng(24), 2, 3)
    thetas = {scen.entities[0]: 0.5}
    if bad is None:
        message = "missing storage costs for"
    else:
        thetas[scen.entities[1]] = bad
        message = "storage costs must be finite and > 0"
    with pytest.raises(InputError, match=message):
        solve_so(scen, thetas, HALF_DAY, quadratic_supply)
    with pytest.raises(InputError, match=message):
        brute_force_so(scen, thetas, HALF_DAY, quadratic_supply, 0.5)


def test_each_solve_builds_one_plan_model(monkeypatch, quadratic_supply):
    # The planner's model, and with it the shift targets, is built once per
    # solve: when it converges, on the ConvergenceError exit and in the
    # brute-force oracle.
    stuck = perfbench_instance(monkeypatch, 7, 256, 30)
    models, targets = [], []
    of, shift_targets = _PlanModel.of, benchmark_module._shift_targets

    def counted_of(*args):
        models.append(args)
        return of(*args)

    def counted_targets(*args):
        targets.append(args)
        return shift_targets(*args)

    monkeypatch.setattr(_PlanModel, "of", staticmethod(counted_of))
    monkeypatch.setattr(benchmark_module, "_shift_targets", counted_targets)
    scen = random_scenarios(np.random.default_rng(25), 3, 4)
    thetas = thetas_for(scen, [0.02, 0.05, 0.1])

    def stop_early():
        with pytest.raises(ConvergenceError):
            solve_so(*stuck, SolverSettings(tolerance=1e-16, max_iterations=1))

    for solve in (
        lambda: solve_so(scen, thetas, HALF_DAY, quadratic_supply),
        stop_early,
        lambda: brute_force_so(scen, thetas, HALF_DAY, quadratic_supply, 0.5),
    ):
        models.clear()
        targets.clear()
        solve()
        assert (len(models), len(targets)) == (1, 1)


def residual_limit(scen, thetas, supply, periods=HALF_DAY, tolerance=SolverSettings().tolerance):
    """tolerance times the size of the planner's derivative at zero capacity."""
    slope0 = _PlanModel.of(scen, thetas, periods, supply).slope0
    return tolerance * (max(thetas.values()) + scen.probs @ np.abs(slope0))


def criterion_5_instances():
    """The instances of test_acceptance.py's criterion 5, drawn in its order,
    each with its storage costs and with costs of 1e-10."""
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
            yield scen, thetas


def test_every_plan_is_certified_on_the_criterion_5_instances():
    supply = SupplyCostParams(alpha=1.0)
    for scen, thetas in criterion_5_instances():
        plan = solve_so(scen, thetas, HALF_DAY, supply)
        assert plan.residual_limit == residual_limit(scen, thetas, supply)
        assert plan.optimality_residual <= plan.residual_limit


# sc_so of perfbench's 256-user equiprobable instance (seed 7) under the
# objective-stall rule, which stopped at residual 4.2e-4.
STALL_SC_SO_256 = 78216.7513823139


def test_planner_certifies_the_256_user_instance(monkeypatch):
    scen, thetas, periods, supply = perfbench_instance(monkeypatch, 7, 256, 30)
    plan = solve_so(scen, thetas, periods, supply)
    assert plan.residual_limit == residual_limit(scen, thetas, supply, periods)
    assert plan.optimality_residual <= plan.residual_limit < 1e-8
    assert plan.social_cost.total <= STALL_SC_SO_256 * (1.0 + 1e-12)


def test_planner_certifies_the_256_user_instance_within_30_sweeps(monkeypatch):
    # Cyclic coordinate descent from zero capacity took 169 sweeps here.
    plan = solve_so(*perfbench_instance(monkeypatch, 7, 256, 30))
    assert plan.iterations <= 30


def convergence_battery():
    """1,500 small instances that stress the planner's degenerate cases:
    users at theta ~ 1e-10, integer demands, identical demand columns, a
    heavy off-peak load and tied storage costs on equiprobable outcomes."""
    rng = np.random.default_rng(123)
    for trial in range(1500):
        n, w = int(rng.integers(1, 12)), int(rng.integers(1, 10))
        kind = trial % 5
        peak = rng.uniform(0.5, 8.0, (w, n))
        if kind == 1:
            peak = np.round(peak)
        if kind == 2:
            peak[:, 1:] = peak[:, :1]
        off = rng.uniform(0.0, 12.0 if kind == 3 else 4.0, (w, n))
        probs = rng.uniform(0.2, 1.0, w)
        probs /= probs.sum()
        if kind == 4:
            probs = np.full(w, 1.0 / w)
        choices = [1e-10, 0.01, 0.1, 0.5, 2.0, 50.0]
        theta = np.sort(rng.choice(choices, n) * rng.uniform(0.5, 1.5, n))
        if kind == 4:
            theta = np.round(theta, 1) + 0.05
        alpha = float(rng.choice([0.5, 1.0, 2.0]))
        scen = ScenarioSet(tuple(f"u{i}" for i in range(n)), probs, peak, off)
        yield trial, scen, thetas_for(scen, theta), SupplyCostParams(alpha)


def test_every_plan_is_certified_on_the_convergence_battery():
    # Trials 280, 740, 915 and 1060 ran out of 10,000 sweeps under cyclic
    # coordinate descent alone: several users at theta ~ 1e-10 zig-zag.
    uncertified = []
    for trial, scen, thetas, supply in convergence_battery():
        try:
            plan = solve_so(scen, thetas, HALF_DAY, supply)
        except ConvergenceError:
            uncertified.append(trial)
            continue
        assert plan.optimality_residual <= plan.residual_limit, trial
        # Trials 481, 740, 911 and 1476 hold a user a few 1e-12 below the
        # boundary cost under its min support, within what the residual allows.
        assert validate_structure_so(plan, thetas, scen).ok, trial
    assert uncertified == []


def assert_plan_costed_as_profiles(scen, thetas, periods, supply):
    """The plan's breakdown equals the profile front's over lossless specs
    and inelastic profiles, and solve_so hands its plan the residual that
    the model's plan computes for the same capacities."""
    plan = solve_so(scen, thetas, periods, supply)
    caps = np.array([plan.capacities[e] for e in scen.entities])
    again = _PlanModel.of(scen, thetas, periods, supply).plan(caps, plan.iterations)
    assert again.optimality_residual == plan.optimality_residual
    specs = {e: StorageSpec(theta=thetas[e]) for e in scen.entities}
    zeros = np.zeros(scen.n_outcomes)
    responses = {
        e: ResponseProfile(plan.capacities[e], again.charges[e], zeros) for e in scen.entities
    }
    front = social_cost(scen, specs, responses, periods, supply, check_feasibility=False)
    assert again.social_cost == front
    assert plan.social_cost == front


def test_plan_is_costed_as_its_profiles_are(monkeypatch):
    supply = SupplyCostParams(alpha=1.0)
    for scen, thetas in criterion_5_instances():
        assert_plan_costed_as_profiles(scen, thetas, HALF_DAY, supply)
    for trial, scen, thetas, supply in convergence_battery():
        if trial == 200:
            break
        assert_plan_costed_as_profiles(scen, thetas, HALF_DAY, supply)
    assert_plan_costed_as_profiles(*perfbench_instance(monkeypatch, 7, 256, 30))


def test_solves_never_cost_through_the_profile_front(monkeypatch, quadratic_supply):
    # Per-entity specs and profiles stay off the solve paths: the planner and
    # both tariff searches cost on their own arrays.
    front = costs_module.social_cost

    def refuse(*args, **kwargs):
        raise AssertionError("a solve called the profile-level social_cost")

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "toudesign" and getattr(module, "social_cost", None) is front:
            monkeypatch.setattr(module, "social_cost", refuse)
    rng = np.random.default_rng(23)
    users = random_scenarios(rng, 6, 5)
    grouping = {e: f"t{j % 2}" for j, e in enumerate(users.entities)}
    type_specs = {"t0": StorageSpec(0.3), "t1": StorageSpec(1.2, eta_c=0.9, tau=0.1)}
    user_specs = {e: type_specs[grouping[e]] for e in users.entities}
    types = aggregate_by_type(users, grouping)
    plan = solve_so(users, {e: s.theta for e, s in user_specs.items()}, HALF_DAY, quadratic_supply)
    assert plan.social_cost.total > 0.0
    for args in ((types, type_specs, users, grouping), (users, user_specs, None, None)):
        plain = optimize_price_difference(*args, HALF_DAY, quadratic_supply)
        extended = optimize_prices_extended(*args, HALF_DAY, quadratic_supply, (1.0, 1.0), 1)
        assert plain.social_cost.total > 0.0 and extended.social_cost.total > 0.0


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


def test_validator_messages_and_their_order():
    # "a" has zero lower support, so it is exempt where "e", at the same
    # cost level without an investor, is not; "b" holds capacity above its
    # upper support; "c" and "d" are cheaper than the investor "b".
    peak = np.array([[0.0, 4.0, 3.0, 2.0, 1.0], [5.0, 6.0, 7.0, 8.0, 9.0]])
    scen = ScenarioSet(tuple("abcde"), np.array([0.5, 0.5]), peak, np.zeros_like(peak))
    thetas = {"a": 0.3, "b": 0.5, "c": 0.2, "d": 0.2, "e": 0.3}
    capacities = {"a": 0.0, "b": 9.0, "c": 1.0, "d": 0.0, "e": 0.0}
    plan = SocialPlan(
        capacities=capacities,
        charges={e: np.zeros(2) for e in scen.entities},
        social_cost=no_storage_cost(scen, HALF_DAY, SupplyCostParams(1.0)),
    )
    above = "user b: capacity 9.0 above max peak support 6.0"
    no_investor = "cost level 0.3 below invested level 0.5 has no investor (users ['e'])"
    assert validate_structure_so(plan, thetas, scen).violations == [
        above,
        no_investor,
        "user c: non-boundary investor capacity 1.0 below min peak support 3.0",
        "user d: non-boundary investor capacity 0.0 below min peak support 2.0",
        "user e: non-boundary investor capacity 0.0 below min peak support 1.0",
    ]
    responses = {
        e: ResponseProfile(c, np.zeros(2), np.zeros(2)) for e, c in capacities.items()
    }
    assert validate_structure_pricing(responses, thetas, scen).violations == [
        above,
        no_investor,
        "user c: invested cost level 0.2 but capacity 1.0 below min peak support 3.0",
        "user d: invested cost level 0.2 but capacity 0.0 below min peak support 2.0",
        "user e: invested cost level 0.3 but capacity 0.0 below min peak support 1.0",
    ]


@pytest.mark.parametrize(
    "entities, peak, thetas, capacities, so_violations, pricing_violations",
    [
        # The planner's boundary class (b) sizes freely, the tariff's does
        # not; c, above the boundary, holds nothing in either.
        (
            "abc", [[2.0, 3.0, 1.0], [6.0, 7.0, 2.0]], [0.2, 0.5, 0.9], [4.0, 1.0, 0.0],
            [],
            ["user b: invested cost level 0.5 but capacity 1.0 below min peak support 3.0"],
        ),
        # a is exempt, being alone at an unfilled level with zero lower support.
        ("ab", [[0.0, 3.0], [5.0, 7.0]], [0.2, 0.5], [0.0, 4.0], [], []),
        # c and d tie at one unfilled level: one message names both.
        (
            "bcd", [[3.0, 2.0, 1.0], [7.0, 6.0, 5.0]], [0.5, 0.2, 0.2], [4.0, 0.0, 0.0],
            [
                "cost level 0.2 below invested level 0.5 has no investor (users ['c', 'd'])",
                "user c: non-boundary investor capacity 0.0 below min peak support 2.0",
                "user d: non-boundary investor capacity 0.0 below min peak support 1.0",
            ],
            [
                "cost level 0.2 below invested level 0.5 has no investor (users ['c', 'd'])",
                "user c: invested cost level 0.2 but capacity 0.0 below min peak support 2.0",
                "user d: invested cost level 0.2 but capacity 0.0 below min peak support 1.0",
            ],
        ),
        # With no investor there is no boundary, so no level is unfilled.
        ("ab", [[2.0, 3.0], [6.0, 7.0]], [0.2, 0.5], [0.0, 0.0], [], []),
    ],
    ids=["boundary-class", "exempt-alone", "tied-level", "no-investor"],
)
def test_validator_rules_at_their_edges(
    entities, peak, thetas, capacities, so_violations, pricing_violations
):
    peak = np.array(peak)
    scen = ScenarioSet(tuple(entities), np.array([0.5, 0.5]), peak, np.zeros_like(peak))
    thetas = dict(zip(entities, thetas))
    capacities = dict(zip(entities, capacities))
    plan = SocialPlan(
        capacities=capacities,
        charges={e: np.zeros(2) for e in entities},
        social_cost=no_storage_cost(scen, HALF_DAY, SupplyCostParams(1.0)),
    )
    responses = {
        e: ResponseProfile(c, np.zeros(2), np.zeros(2)) for e, c in capacities.items()
    }
    assert validate_structure_so(plan, thetas, scen).violations == so_violations
    assert validate_structure_pricing(responses, thetas, scen).violations == pricing_violations


def test_planner_validator_forgives_only_the_gap_its_residual_certifies():
    # A plan optimal to residual r may leave a user up to 2r cheaper than the
    # boundary investor at zero capacity; 10 x the limit cheaper is still a
    # violation, and so is any gap in a plan without a residual.
    peak = np.array([[2.0, 3.0], [6.0, 7.0]])
    scen = ScenarioSet(("a", "b"), np.array([0.5, 0.5]), peak, np.zeros_like(peak))
    limit = 1e-10

    def violations(gap, residual):
        plan = SocialPlan(
            capacities={"a": 0.0, "b": 4.0},
            charges={e: np.zeros(2) for e in scen.entities},
            social_cost=no_storage_cost(scen, HALF_DAY, SupplyCostParams(1.0)),
            optimality_residual=residual,
            residual_limit=limit,
        )
        return validate_structure_so(plan, {"a": 0.5 - gap, "b": 0.5}, scen).violations

    def flagged(gap):
        return [
            f"cost level {0.5 - gap} below invested level 0.5 has no investor (users ['a'])",
            "user a: non-boundary investor capacity 0.0 below min peak support 2.0",
        ]

    assert violations(1.9 * limit, limit) == []
    assert violations(10 * limit, limit) == flagged(10 * limit)
    assert violations(1.9 * limit, np.nan) == flagged(1.9 * limit)


def test_pricing_validator_bounds_a_shifting_user_on_its_residual_support():
    # "a" shifts a quarter of its peak and sizes on the residual [3.0, 4.5];
    # "b" shifts nothing and keeps its full peak support.
    peak = np.array([[4.0, 2.0], [6.0, 5.0]])
    scen = ScenarioSet(("a", "b"), np.array([0.5, 0.5]), peak, np.zeros_like(peak))
    thetas = {"a": 0.5, "b": 0.5}

    def responses(capacity):
        return {
            "a": ResponseProfile(capacity, np.zeros(2), 0.25 * peak[:, 0]),
            "b": ResponseProfile(2.0, np.zeros(2), np.zeros(2)),
        }

    assert validate_structure_pricing(responses(3.0), thetas, scen).ok
    assert validate_structure_pricing(responses(2.5), thetas, scen).violations == [
        "user a: invested cost level 0.5 but capacity 2.5 below min peak support 3.0"
    ]
    assert validate_structure_pricing(responses(5.0), thetas, scen).violations == [
        "user a: capacity 5.0 above max peak support 4.5"
    ]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: the validators bound capacity by raw peak demand, "
    "but lossy storage holds up to peak / eta_d to deliver the peak",
)
def test_pricing_validator_allows_a_lossy_user_its_stored_peak():
    # At a price difference of 20 the user buys for its largest outcome:
    # 6 / 0.9 = 6.667 MWh stored, which delivers 6 MWh of peak demand.
    peak = np.array([[4.0], [6.0]])
    scen = ScenarioSet(("u",), np.array([0.5, 0.5]), peak, np.zeros_like(peak))
    spec = StorageSpec(1.0, eta_c=0.9, eta_d=0.9)
    response = respond(spec, TouPrice(20.0, 0.0), scen.probs, peak[:, 0])
    assert response.capacity == pytest.approx(6.0 / 0.9)
    assert validate_structure_pricing({"u": response}, {"u": 1.0}, scen).violations == []


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
    for step in (-1.0, np.nan, np.inf):
        with pytest.raises(InputError, match="grid_step must be finite and > 0"):
            brute_force_so(scen2, thetas_for(scen2, [1, 1]), HALF_DAY, quadratic_supply, step)


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
    thetas = np.array([theta, 1.0, 1.0])
    model = _PlanModel.of(scen, thetas_for(scen, thetas), HALF_DAY, supply)
    assert model.curvature == pytest.approx(COORDINATE_CURVATURE, rel=1e-15)
    t = model.coordinate_minimum(0, rest)
    cap_rest = float(rest.max())

    objective = _objective(scen, thetas, HALF_DAY, supply)

    def along(x):
        return objective(np.array([x, cap_rest, 0.0]))

    return t, along, np.minimum(demand, model.targets - rest)


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


def _one_price_path_by_enumeration(scen, thetas_arr, slope0, curvature):
    """The one-price start by a linear walk over the step events, each user's
    capacity the highest demand it has bought so far."""
    n_out, n = scen.peak.shape
    events = []
    for i in range(n):
        order = np.argsort(scen.peak[:, i], kind="stable")
        tails = np.cumsum(scen.probs[order][::-1])[::-1]
        for j, w in enumerate(order):
            events.append((thetas_arr[i] / tails[j], j * n + i, i, scen.peak[w, i]))
    events.sort()

    def capacities(k):
        c = np.zeros(n)
        for _, _, i, level in events[:k]:
            c[i] = max(c[i], level)
        return c

    for k, (price, *_) in enumerate(events):
        headroom = np.minimum(capacities(k + 1), scen.peak).sum(axis=1)
        if price + scen.probs @ np.minimum(0.0, slope0 + curvature * headroom) >= 0.0:
            return capacities(k)
    return capacities(len(events))


def test_one_price_start_matches_a_linear_walk_over_the_events(quadratic_supply):
    rng = np.random.default_rng(17)
    for _ in range(40):
        n_users, n_out = (int(x) for x in rng.integers(1, 8, 2))
        scen = random_scenarios(rng, n_users, n_out, equiprob=bool(rng.integers(2)))
        thetas_arr = rng.choice([1e-10, 0.01, 0.1, 1.0, 50.0], n_users)
        model = _PlanModel.of(scen, thetas_for(scen, thetas_arr), HALF_DAY, quadratic_supply)
        start = model.one_price_start()
        want = _one_price_path_by_enumeration(scen, thetas_arr, model.slope0, model.curvature)
        assert start.tolist() == want.tolist()
        for i in range(n_users):
            assert start[i] == 0.0 or start[i] in scen.peak[:, i]


def test_newton_moves_never_raise_the_objective(quadratic_supply):
    rng = np.random.default_rng(18)
    for _ in range(60):
        n_users, n_out = (int(x) for x in rng.integers(1, 9, 2))
        scen = random_scenarios(rng, n_users, n_out)
        thetas_arr = rng.choice([1e-10, 0.01, 0.1, 1.0], n_users)
        model = _PlanModel.of(scen, thetas_for(scen, thetas_arr), HALF_DAY, quadratic_supply)
        objective = _objective(scen, thetas_arr, HALF_DAY, quadratic_supply)
        # Free users, users at one of their demands and users at zero.
        kinks = scen.peak[rng.integers(n_out, size=n_users), np.arange(n_users)]
        capacities = np.select(
            [rng.random(n_users) < 0.3, rng.random(n_users) < 0.3],
            [kinks, np.zeros(n_users)],
            rng.uniform(0.0, 8.0, n_users),
        )
        moved = model.newton_moves(capacities.copy())
        assert np.all(moved >= 0.0)
        assert objective(moved) <= objective(capacities)


def test_newton_moves_settle_identical_users_that_coordinate_steps_zig_zag():
    # Two users with the same demand: the objective depends on their sum but
    # for the investment, so the cheaper user should carry all of it.
    periods, supply = HALF_DAY, SupplyCostParams(alpha=1.0)
    scen = ScenarioSet(("a", "b"), np.ones(1), np.full((1, 2), 10.0), np.zeros((1, 2)))
    model = _PlanModel.of(scen, {"a": 0.01, "b": 0.02}, periods, supply)
    capacities = np.array([2.0, 2.0])
    for _ in range(2):
        capacities = model.newton_moves(capacities)
    target = model.targets[0]
    np.testing.assert_allclose(capacities, [target - 0.01 / model.curvature, 0.0], rtol=1e-12)
    assert model.violations(capacities, model.headroom(capacities)).max() < 1e-12


def test_newton_step_is_the_pseudo_inverse_step_inside_its_box():
    rng = np.random.default_rng(19)
    for _ in range(50):
        n_out, n_users = (int(x) for x in rng.integers(1, 7, 2))
        scaled = rng.uniform(0.1, 1.0, (n_out, 1)) * (rng.random((n_out, n_users)) < 0.6)
        grad = rng.normal(size=n_users)
        free = -np.linalg.pinv(scaled.T @ scaled) @ grad
        loose = np.full(n_users, np.inf)
        step = _newton_step(scaled, grad, -loose, loose, _range_basis(scaled))
        np.testing.assert_allclose(step, free, rtol=1e-9, atol=1e-9)
        # A box that cuts the free step: users outside it are clamped to the
        # side they cross, and the rest minimize the model with those held.
        room = np.abs(free) * rng.uniform(0.2, 1.5, n_users) + 1e-12
        step = _newton_step(scaled, grad, -room, room, _range_basis(scaled))
        assert np.all(np.abs(step) <= room * (1 + 1e-12))
        inside = np.abs(step) < room * (1 - 1e-9)
        if inside.any():
            held = scaled[:, ~inside] @ step[~inside]
            sub = scaled[:, inside]
            residual = sub.T @ (sub @ step[inside] + held) + grad[inside]
            # The free users' step is M+ of their reduced gradient, so its
            # residual lies in the null space of their block of M.
            np.testing.assert_allclose(
                sub.T @ sub @ np.linalg.pinv(sub.T @ sub) @ residual, 0.0, atol=1e-8
            )
