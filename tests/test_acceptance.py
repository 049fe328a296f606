"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Expected values are either analytic, frozen from independent oracles
(enumeration, dense grids, brute-force search) or qualitative shape checks on
seeded synthetic data.
"""

import time

import numpy as np
import pytest

from toudesign import (
    AnnuityParams,
    PeriodStructure,
    ScenarioSet,
    SocialPlan,
    StorageSpec,
    SupplyCostParams,
    TouPrice,
    adjust_variance,
    aggregate_by_type,
    capacity_curve,
    compute_ratios,
    daily_cost_factor,
    generate_synthetic,
    no_storage_cost,
    optimal_capacity_discrete,
    optimize_price_difference,
    optimize_prices_extended,
    respond,
    social_cost,
    social_cost_curve,
    solve_so,
    so_zero_cost,
    synthetic_grouping,
    threshold_set_extended,
    user_specs_from_grouping,
    validate_structure_pricing,
    validate_structure_so,
)
from toudesign.oracles import (
    brute_force_so,
    newsvendor_cost,
    newsvendor_enumeration,
    tightness_instance,
)

HALF_DAY = PeriodStructure(frozenset(range(12)))
EVENING = PeriodStructure(frozenset({18, 19, 20, 21, 22, 23, 0}))
UNIT_SUPPLY = SupplyCostParams(alpha=1.0)


def report(number, text):
    print(f"PASS criterion {number}: {text}")


def synthetic_instance(seed=2024):
    scen = generate_synthetic(4, 4, 7, 10.0, seed=seed)
    grouping = synthetic_grouping(scen)
    return scen, grouping, sorted(set(grouping.values()))


def spread_specs(type_ids, theta_bar, delta_s=1.0 / 3.0, **kwargs):
    k = len(type_ids)
    centre = (k + 1) / 2.0
    thetas = [theta_bar * (1.0 + (i - centre) * delta_s) for i in range(1, k + 1)]
    return {t: StorageSpec(theta=th, **kwargs) for t, th in zip(type_ids, thetas)}


def run_schemes(scen, grouping, type_specs, periods=EVENING, supply=UNIT_SUPPLY):
    type_scen = aggregate_by_type(scen, grouping)
    specs = {t: type_specs[t] for t in type_scen.entities}
    user_specs = user_specs_from_grouping(type_specs, scen, grouping)
    pt = optimize_price_difference(type_scen, specs, scen, grouping, periods, supply)
    pi = optimize_price_difference(scen, user_specs, None, None, periods, supply)
    plan = solve_so(
        scen, {e: s.theta for e, s in user_specs.items()}, periods, supply
    )
    sc_no = no_storage_cost(scen, periods, supply).total
    return pt, pi, plan, sc_no


def test_criterion_1_annuity_factor():
    rf = daily_cost_factor(AnnuityParams(rate=0.05, years=10, days_per_year=365))
    assert abs(rf - 3.55e-4) < 1e-6
    theta = rf * 6500.0 / 13.5
    assert abs(theta - 0.171) < 0.001
    report(1, f"daily cost factor {rf:.6e}, battery example {theta:.4f} $/kWh/day")


def test_criterion_2_stage2_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        demand = np.sort(rng.uniform(0.0, 10.0, n))
        probs = rng.uniform(0.1, 1.0, n)
        probs /= probs.sum()
        theta = float(rng.uniform(0.02, 4.0))
        p_delta = float(rng.uniform(0.0, 10.0))
        cap = optimal_capacity_discrete(demand, probs, theta, p_delta)
        best = newsvendor_enumeration(demand, probs, theta, p_delta)
        gap = newsvendor_cost(cap, demand, probs, theta, p_delta) - best
        worst = max(worst, gap)
        assert gap <= 1e-9
        # capacity only steps at the published threshold points
        values = np.array(threshold_set_extended(StorageSpec(theta=theta), demand, probs, 0.0))
        for lo, hi in zip(values, values[1:]):
            grid = np.linspace(lo, hi, 1000, endpoint=False)[1:]
            caps = capacity_curve(demand, probs, theta, grid)
            assert np.all(caps == caps[0])
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(2, f"1000 instances, worst oracle gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_threshold_scan_optimality():
    start = time.time()
    rng = np.random.default_rng(1002)
    for trial in range(200):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        peak = rng.uniform(0.5, 8.0, size=(n, k))
        offpeak = rng.uniform(0.0, 4.0, size=(n, k))
        probs = rng.uniform(0.2, 1.0, n)
        probs /= probs.sum()
        scen = ScenarioSet(tuple(f"t{i}" for i in range(k)), probs, peak, offpeak)
        thetas = np.sort(rng.uniform(0.05, 4.0, k))
        specs = {e: StorageSpec(theta=float(t)) for e, t in zip(scen.entities, thetas)}
        result = optimize_price_difference(
            scen, specs, None, None, HALF_DAY, UNIT_SUPPLY
        )
        assert result.n_candidates <= k * n + 1
        hi = max(pd for _, pd, _ in result.trace) * 1.3 + 1.0
        grid = np.linspace(0.0, hi, 10_000)
        totals = social_cost_curve(scen, specs, HALF_DAY, UNIT_SUPPLY, grid)
        assert result.scan_cost <= totals.min() + 1e-9
        if trial == 0:
            # anchor the vectorized grid oracle to the scalar evaluation path
            for pd in grid[:: 2500]:
                price = TouPrice(float(pd), 0.0)
                responses = {
                    e: respond(specs[e], price, probs, peak[:, j])
                    for j, e in enumerate(scen.entities)
                }
                sc = social_cost(scen, specs, responses, HALF_DAY, UNIT_SUPPLY)
                idx = int(np.where(grid == pd)[0][0])
                assert totals[idx] == pytest.approx(sc.total, rel=1e-12)
        # the scan cost equals the grid evaluated just above each threshold
        probe = np.array(sorted(pd for _, pd, _ in result.trace))
        probed = social_cost_curve(scen, specs, HALF_DAY, UNIT_SUPPLY, probe)
        assert result.scan_cost == pytest.approx(probed.min(), abs=1e-9)
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(3, f"200 instances, scan never beaten by 10k-point grid, {elapsed:.1f}s")


def test_criterion_4_scheme_ordering():
    start = time.time()
    rng = np.random.default_rng(1003)
    for _ in range(200):
        n_users = int(rng.integers(2, 5))
        n_out = int(rng.integers(2, 5))
        peak = rng.uniform(0.5, 8.0, size=(n_out, n_users))
        offpeak = rng.uniform(0.0, 4.0, size=(n_out, n_users))
        probs = rng.uniform(0.2, 1.0, n_out)
        probs /= probs.sum()
        scen = ScenarioSet(tuple(f"u{i}" for i in range(n_users)), probs, peak, offpeak)
        n_types = int(rng.integers(1, 4))
        type_ids = [f"t{i}" for i in range(n_types)]
        thetas = np.sort(rng.uniform(0.05, 3.0, n_types))
        type_specs = {
            t: StorageSpec(theta=float(th)) for t, th in zip(type_ids, thetas)
        }
        grouping = {e: type_ids[int(rng.integers(0, n_types))] for e in scen.entities}
        type_scen = aggregate_by_type(scen, grouping)
        specs = {t: type_specs[t] for t in type_scen.entities}
        pt = optimize_price_difference(
            type_scen, specs, scen, grouping, HALF_DAY, UNIT_SUPPLY
        )
        pi = optimize_price_difference(
            scen,
            user_specs_from_grouping(type_specs, scen, grouping),
            None,
            None,
            HALF_DAY,
            UNIT_SUPPLY,
        )
        plan = solve_so(
            scen,
            {e: type_specs[grouping[e]].theta for e in scen.entities},
            HALF_DAY,
            UNIT_SUPPLY,
        )
        tol = 1e-9 * max(1.0, plan.social_cost.total)
        assert pt.social_cost.total >= pi.social_cost.total - tol
        assert pi.social_cost.total >= plan.social_cost.total - tol
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(4, f"200 instances ordered pt >= pi >= so within 1e-9, {elapsed:.1f}s")


def test_criterion_5_planner_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(100):
        n_users = int(rng.integers(1, 3))
        n_out = int(rng.integers(1, 4))
        peak = rng.uniform(0.5, 8.0, size=(n_out, n_users))
        offpeak = rng.uniform(0.0, 4.0, size=(n_out, n_users))
        probs = rng.uniform(0.2, 1.0, n_out)
        probs /= probs.sum()
        scen = ScenarioSet(tuple(f"u{i}" for i in range(n_users)), probs, peak, offpeak)
        thetas = {
            e: float(t)
            for e, t in zip(scen.entities, np.sort(rng.uniform(0.02, 2.0, n_users)))
        }
        plan = solve_so(scen, thetas, HALF_DAY, UNIT_SUPPLY)
        step = float(scen.peak.max()) / 1000.0
        oracle = brute_force_so(scen, thetas, HALF_DAY, UNIT_SUPPLY, step)
        rel = (oracle.social_cost.total - plan.social_cost.total) / max(
            1.0, oracle.social_cost.total
        )
        worst = max(worst, abs(rel))
        assert plan.social_cost.total <= oracle.social_cost.total + 1e-9
        assert abs(rel) <= 1e-6
        # free capacity reduces the planner to the closed form
        _, sc_free = so_zero_cost(scen, HALF_DAY, UNIT_SUPPLY)
        free_plan = solve_so(
            scen, {e: 1e-10 for e in scen.entities}, HALF_DAY, UNIT_SUPPLY
        )
        assert free_plan.social_cost.total == pytest.approx(sc_free, rel=1e-6)
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(5, f"100 instances, worst planner/oracle gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_6_tightness_of_zero_cost_bound():
    scen, specs, supply = tightness_instance(2, 10.0, HALF_DAY)
    grouping = {e: e for e in scen.entities}
    pt = optimize_price_difference(scen, specs, scen, grouping, HALF_DAY, supply)
    plan = solve_so(scen, {e: s.theta for e, s in specs.items()}, HALF_DAY, supply)
    kappa_sym = pt.social_cost.total / plan.social_cost.total
    assert kappa_sym == pytest.approx(2.0, abs=0.04)

    periods = PeriodStructure(frozenset(range(6)))
    scen2, specs2, supply2 = tightness_instance(2, 10.0, periods)
    pt2 = optimize_price_difference(
        scen2, specs2, scen2, {e: e for e in scen2.entities}, periods, supply2
    )
    plan2 = solve_so(scen2, {e: s.theta for e, s in specs2.items()}, periods, supply2)
    kappa_asym = pt2.social_cost.total / plan2.social_cost.total
    assert kappa_asym == pytest.approx(4.0 / 3.0, abs=0.03)
    report(6, f"worst-case ratios {kappa_sym:.4f} (12/12) and {kappa_asym:.4f} (6/18)")


def test_criterion_7_high_cost_regime_is_exact():
    scen, grouping, type_ids = synthetic_instance()
    reached = None
    for tb in (2.0, 12.0, 28.0, 44.0, 60.0):
        pt, pi, plan, sc_no = run_schemes(scen, grouping, spread_specs(type_ids, tb))
        ratios = compute_ratios(
            pt.social_cost.total, pi.social_cost.total, plan.social_cost.total, sc_no
        )
        caps = (
            sum(r.capacity for r in pt.responses.values())
            + sum(r.capacity for r in pi.responses.values())
            + sum(plan.capacities.values())
        )
        if ratios.kappa_pt == 1.0 and ratios.kappa_pi == 1.0 and caps == 0.0:
            reached = tb
            break
    assert reached is not None
    report(7, f"kappa exactly 1.0 with zero capacities from theta_bar={reached}")


def test_criterion_8_structure_validators():
    rng = np.random.default_rng(1005)
    for seed in range(100):
        n_users = int(rng.integers(2, 6))
        n_out = int(rng.integers(2, 5))
        peak = rng.uniform(1.0, 8.0, size=(n_out, n_users))
        offpeak = rng.uniform(0.0, 3.0, size=(n_out, n_users))
        probs = rng.uniform(0.2, 1.0, n_out)
        probs /= probs.sum()
        scen = ScenarioSet(tuple(f"u{i}" for i in range(n_users)), probs, peak, offpeak)
        thetas = {
            e: float(t)
            for e, t in zip(scen.entities, np.sort(rng.uniform(0.02, 2.5, n_users)))
        }
        plan = solve_so(scen, thetas, HALF_DAY, UNIT_SUPPLY)
        rep = validate_structure_so(plan, thetas, scen)
        assert rep.ok, (seed, rep.violations)
        specs = {e: StorageSpec(theta=thetas[e]) for e in scen.entities}
        result = optimize_price_difference(
            scen, specs, None, None, HALF_DAY, UNIT_SUPPLY
        )
        rep2 = validate_structure_pricing(result.responses, thetas, scen)
        assert rep2.ok, (seed, rep2.violations)
    # a deliberately corrupted plan is flagged
    peak = np.array([[4.0, 4.0], [6.0, 6.0]])
    scen = ScenarioSet(("a", "b"), np.array([0.5, 0.5]), peak, np.zeros_like(peak))
    corrupt = SocialPlan(
        capacities={"a": 0.0, "b": 5.0},
        charges={"a": np.zeros(2), "b": np.array([4.0, 5.0])},
        social_cost=no_storage_cost(scen, HALF_DAY, UNIT_SUPPLY),
    )
    assert not validate_structure_so(corrupt, {"a": 0.5, "b": 1.0}, scen).ok
    report(8, "validators pass on 100 seeds and flag a corrupted plan")


def test_criterion_9a_price_rises_then_falls():
    scen, grouping, type_ids = synthetic_instance()
    grid = [0.5, 2.0, 6.0, 12.0, 20.0, 28.0, 36.0, 44.0]
    pds = []
    for tb in grid:
        type_scen = aggregate_by_type(scen, grouping)
        pt = optimize_price_difference(
            type_scen, spread_specs(type_ids, tb), scen, grouping, EVENING, UNIT_SUPPLY
        )
        pds.append(pt.best_price.p_delta)
    peak_idx = int(np.argmax(pds))
    assert 0 < peak_idx < len(pds) - 1
    assert pds[peak_idx] > pds[0]
    assert pds[peak_idx] > pds[-1]
    report(9, f"(a) optimal price difference rises to {max(pds):.2f} then falls")


def test_criterion_9b_lambda_map_regions():
    scen, grouping, type_ids = synthetic_instance()
    from toudesign import evaluate_lambda

    specs = user_specs_from_grouping(
        spread_specs(type_ids, 10.0), scen, grouping
    )
    pds = [0.0, 3.0, 8.0, 40.0, 150.0]
    tbs = [0.2, 5.0, 40.0]
    lam = evaluate_lambda(pds, tbs, scen, specs, EVENING, UNIT_SUPPLY)
    assert np.all(lam[0] == 1.0)  # no price difference, no investment
    assert lam[1, 2] == 1.0  # below every threshold at high cost
    assert lam.min() < 1.0  # a band where storage lowers the cost
    assert lam[4, 2] > 1.0  # over-investment at high price and high cost
    assert lam[3, 0] < 1.0  # cheap storage with a strong incentive still helps
    report(9, "(b) ratio map shows the one/below-one/above-one regions")


def test_criterion_9c_variance_sweep_dips():
    deltas = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0]
    kappas = []
    for dd in deltas:
        values = []
        for seed in range(10):
            scen, grouping, type_ids = synthetic_instance(seed=seed)
            adjusted = adjust_variance(scen, dd)
            pt, pi, plan, sc_no = run_schemes(
                adjusted, grouping, spread_specs(type_ids, 14.0)
            )
            values.append(pt.social_cost.total / plan.social_cost.total)
        kappas.append(float(np.mean(values)))
    dip = int(np.argmin(kappas))
    assert 0 < dip < len(kappas) - 1
    assert kappas[dip] < kappas[0]
    assert kappas[dip] < kappas[-1]
    report(9, f"(c) mean ratio dips to {kappas[dip]:.4f} at delta_d={deltas[dip]}")


def test_criterion_9d_elastic_sweep_monotone():
    scen, grouping, type_ids = synthetic_instance()
    pds, caps, scs = [], [], []
    for fraction in (0.0, 0.1, 0.2, 0.3):
        specs = user_specs_from_grouping(
            spread_specs(type_ids, 10.0, e_shift=2.0, elastic_fraction=fraction), scen, grouping
        )
        result = optimize_price_difference(scen, specs, None, None, EVENING, UNIT_SUPPLY)
        pds.append(result.best_price.p_delta)
        caps.append(sum(r.capacity for r in result.responses.values()))
        scs.append(result.social_cost.total)
    for series in (pds, caps, scs):
        assert all(b <= a + 1e-9 for a, b in zip(series, series[1:]))
    report(9, f"(d) elastic sweep monotone: price {pds[0]:.2f}->{pds[-1]:.2f}, cost {scs[0]:.1f}->{scs[-1]:.1f}")


def test_criterion_9e_efficiency_sweep():
    scen, grouping, type_ids = synthetic_instance()
    type_scen = aggregate_by_type(scen, grouping)
    etas = [0.5, 0.55, 0.6, 0.7, 0.8, 0.9, 1.0]
    pds, caps, scs = [], [], []
    for eta in etas:
        specs = spread_specs(type_ids, 12.0, eta_c=eta, eta_d=eta)
        result = optimize_prices_extended(
            type_scen, specs, scen, grouping, EVENING, UNIT_SUPPLY, (0.0, 0.0), 1
        )
        pds.append(result.best_price.p_delta)
        caps.append(sum(r.capacity for r in result.responses.values()))
        scs.append(result.social_cost.total)
    assert caps[0] == 0.0  # inefficient storage is not worth inducing
    assert caps[-1] > 0.0
    diffs = np.diff(pds)
    assert np.any(diffs > 1e-9) and np.any(diffs < -1e-9)  # non-monotone price
    assert all(b <= a + 1e-9 for a, b in zip(scs, scs[1:]))  # cost falls with efficiency
    report(9, f"(e) zero capacity at eta={etas[0]}, non-monotone price, falling cost")


def test_criterion_10_extended_reduces_to_plain():
    rng = np.random.default_rng(1006)
    for _ in range(50):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        peak = rng.uniform(0.5, 8.0, size=(n, k))
        offpeak = rng.uniform(0.0, 4.0, size=(n, k))
        probs = rng.uniform(0.2, 1.0, n)
        probs /= probs.sum()
        scen = ScenarioSet(tuple(f"t{i}" for i in range(k)), probs, peak, offpeak)
        thetas = np.sort(rng.uniform(0.05, 4.0, k))
        specs = {
            e: StorageSpec(theta=float(t), eta_c=1.0, eta_d=1.0, tau=0.0)
            for e, t in zip(scen.entities, thetas)
        }
        plain = optimize_price_difference(
            scen, specs, None, None, HALF_DAY, UNIT_SUPPLY
        )
        ext = optimize_prices_extended(
            scen, specs, None, None, HALF_DAY, UNIT_SUPPLY, (0.0, 6.0), 4
        )
        assert ext.best_price.p_delta == plain.best_price.p_delta
        assert ext.best_price.p_offpeak == plain.best_price.p_offpeak
        assert ext.scan_cost == plain.scan_cost
        assert ext.social_cost.total == plain.social_cost.total
        for e in scen.entities:
            assert ext.responses[e].capacity == plain.responses[e].capacity
            np.testing.assert_array_equal(
                ext.responses[e].charge, plain.responses[e].charge
            )
            np.testing.assert_array_equal(
                ext.responses[e].shifted, plain.responses[e].shifted
            )
    report(10, "extended search is bit-identical to the plain scan on 50 lossless instances")
