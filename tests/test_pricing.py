from dataclasses import replace

import numpy as np
import pytest

from toudesign import (
    InputError,
    PeriodStructure,
    ScenarioSet,
    StorageSpec,
    SupplyCostParams,
    TouPrice,
    aggregate_by_type,
    evaluate_lambda,
    generate_synthetic,
    optimize_price_difference,
    optimize_prices_extended,
    respond,
    social_cost,
    social_cost_curve,
    solve_so,
    threshold_set_extended,
    validate_structure_pricing,
    validate_structure_so,
)

from toudesign.oracles import grid_check
from toudesign import pricing as pricing_module
from toudesign.pricing import _CURVE_BLOCK, user_specs_from_grouping
from toudesign.response import ResponseProfile, _SpecArrays
from toudesign.scan import _StepEvents, _best_responses

from conftest import HALF_DAY, random_scenarios, random_specs

EVENING_PEAK = PeriodStructure(frozenset({0, 18, 19, 20, 21, 22, 23}))


def test_tou_price_validation():
    with pytest.raises(InputError):
        TouPrice(1.0, 2.0)
    with pytest.raises(InputError):
        TouPrice(-1.0, -2.0)
    for p_peak, p_offpeak in ((np.inf, 0.0), (np.inf, np.inf), (np.nan, 0.0), (1.0, np.nan)):
        with pytest.raises(InputError):
            TouPrice(p_peak, p_offpeak)
    assert TouPrice(3.0, 1.0).p_delta == 2.0


@pytest.mark.parametrize("p_offpeak", [-1.0, np.inf, np.nan])
def test_off_peak_price_is_checked_before_the_scan(monkeypatch, quadratic_supply, p_offpeak):
    def no_scan(*args):
        raise AssertionError("scan started")

    monkeypatch.setattr("toudesign.pricing._StepEvents", no_scan)
    scen = generate_synthetic(2, 2, 4, 5.0, 0)
    specs = {e: StorageSpec(theta=1.0) for e in scen.entities}
    with pytest.raises(InputError):
        optimize_price_difference(
            scen, specs, None, None, HALF_DAY, quadratic_supply, p_offpeak=p_offpeak
        )


def test_scan_never_beaten_by_dense_grid(quadratic_supply):
    rng = np.random.default_rng(101)
    for _ in range(30):
        scen = random_scenarios(rng, int(rng.integers(1, 4)), int(rng.integers(1, 5)))
        specs = random_specs(rng, scen.entities)
        result = optimize_price_difference(
            scen, specs, None, None, HALF_DAY, quadratic_supply
        )
        hi = max(pd for _, pd, _ in result.trace) * 1.5 + 1.0
        grid = np.linspace(0.0, hi, 5000)
        totals = social_cost_curve(scen, specs, HALF_DAY, quadratic_supply, grid)
        assert result.scan_cost <= totals.min() + 1e-9


def test_scan_equals_grid_taken_just_above_thresholds(quadratic_supply):
    rng = np.random.default_rng(102)
    for _ in range(20):
        scen = random_scenarios(rng, 3, 4)
        specs = random_specs(rng, scen.entities)
        result = optimize_price_difference(
            scen, specs, None, None, HALF_DAY, quadratic_supply
        )
        probe = np.array(sorted(pd for _, pd, _ in result.trace))
        totals = social_cost_curve(scen, specs, HALF_DAY, quadratic_supply, probe)
        assert result.scan_cost == pytest.approx(totals.min(), abs=1e-9)
        # every scanned candidate agrees with the scalar oracle just above its kink
        for _, pd, total in result.trace:
            price = TouPrice(pd, 0.0)
            responses = {
                e: respond(specs[e], price, scen.probs, scen.peak[:, j])
                for j, e in enumerate(scen.entities)
            }
            sc = social_cost(scen, specs, responses, HALF_DAY, quadratic_supply)
            assert total == pytest.approx(sc.total, rel=1e-12, abs=0.0)


def test_social_cost_curve_matches_pointwise_evaluation(quadratic_supply):
    rng = np.random.default_rng(103)
    scen = random_scenarios(rng, 3, 5)
    specs = random_specs(
        rng, scen.entities, eta_c=0.9, eta_d=0.85, tau=0.1
    )
    # one point past a whole block, so both sides of a block edge are checked
    pds = rng.uniform(0.0, 10.0, _CURVE_BLOCK + 1)
    curve = social_cost_curve(
        scen, specs, HALF_DAY, quadratic_supply, pds, p_offpeak=1.0
    )
    for n in (_CURVE_BLOCK - 1, _CURVE_BLOCK):
        head = social_cost_curve(
            scen, specs, HALF_DAY, quadratic_supply, pds[:n], p_offpeak=1.0
        )
        np.testing.assert_allclose(head, curve[:n], rtol=1e-12, atol=0.0)
    for i, pd in enumerate(pds):
        price = TouPrice(1.0 + pd, 1.0)
        responses = {
            e: respond(specs[e], price, scen.probs, scen.peak[:, j])
            for j, e in enumerate(scen.entities)
        }
        sc = social_cost(scen, specs, responses, HALF_DAY, quadratic_supply)
        assert curve[i] == pytest.approx(sc.total, rel=1e-12, abs=1e-12)


def test_social_cost_curve_matches_pointwise_with_elastic(quadratic_supply):
    rng = np.random.default_rng(118)
    scen = random_scenarios(rng, 2, 4)
    specs = random_specs(
        rng, scen.entities, theta_range=(1.0, 3.0), e_shift=0.4, elastic_fraction=0.25
    )
    pds = np.concatenate((rng.uniform(0.0, 8.0, 20), [0.4, 0.40001]))
    curve = social_cost_curve(scen, specs, HALF_DAY, quadratic_supply, pds)
    for i, pd in enumerate(pds):
        price = TouPrice(float(pd), 0.0)
        responses = {
            e: respond(specs[e], price, scen.probs, scen.peak[:, j])
            for j, e in enumerate(scen.entities)
        }
        sc = social_cost(scen, specs, responses, HALF_DAY, quadratic_supply)
        assert curve[i] == pytest.approx(sc.total, rel=1e-12, abs=1e-12)


def test_candidate_count_bound(quadratic_supply):
    rng = np.random.default_rng(104)
    for _ in range(20):
        k = int(rng.integers(1, 5))
        n = int(rng.integers(1, 6))
        scen = random_scenarios(rng, k, n)
        specs = random_specs(rng, scen.entities)
        result = optimize_price_difference(
            scen, specs, None, None, HALF_DAY, quadratic_supply
        )
        assert result.n_candidates <= k * n + 1


def test_degenerate_market_returns_epsilon_price(quadratic_supply):
    rng = np.random.default_rng(105)
    scen = random_scenarios(rng, 2, 3)
    specs = {e: StorageSpec(theta=1e9) for e in scen.entities}
    result = optimize_price_difference(
        scen, specs, None, None, HALF_DAY, quadratic_supply
    )
    assert result.best_price.p_delta == pytest.approx(result.epsilon)
    assert all(r.capacity == 0.0 for r in result.responses.values())
    no_investment = social_cost_curve(
        scen, specs, HALF_DAY, quadratic_supply, np.array([0.0])
    )[0]
    assert result.social_cost.total == no_investment


def test_storage_costs_below_the_merge_tolerance_leave_one_candidate(quadratic_supply):
    # Both rungs, 1e-12 and 2e-12, merge into the zero candidate: with no
    # gap left the scan evaluates one point at the default epsilon.
    peak = np.array([[4.0], [6.0]])
    scen = ScenarioSet(("u",), np.array([0.5, 0.5]), peak, np.zeros_like(peak))
    specs = {"u": StorageSpec(theta=1e-12)}
    result = optimize_price_difference(scen, specs, None, None, HALF_DAY, quadratic_supply)
    assert (result.n_candidates, result.epsilon) == (1, pricing_module.DEFAULT_EPSILON)
    assert result.best_price == TouPrice(pricing_module.DEFAULT_EPSILON, 0.0)
    assert result.responses["u"].capacity == 6.0


def test_single_user_single_type_schemes_coincide(quadratic_supply):
    rng = np.random.default_rng(106)
    scen = random_scenarios(rng, 1, 4)
    spec = {"t": StorageSpec(theta=0.7)}
    pt = optimize_price_difference(
        ScenarioSet(("t",), scen.probs, scen.peak, scen.offpeak),
        spec,
        scen,
        {scen.entities[0]: "t"},
        HALF_DAY,
        quadratic_supply,
    )
    pi = optimize_price_difference(
        scen,
        {scen.entities[0]: spec["t"]},
        None,
        None,
        HALF_DAY,
        quadratic_supply,
    )
    assert pt.best_price.p_delta == pi.best_price.p_delta
    assert pt.social_cost.total == pi.social_cost.total
    cap_pt = next(iter(pt.responses.values())).capacity
    cap_pi = next(iter(pi.responses.values())).capacity
    assert cap_pt == cap_pi


def test_tie_breaks_choose_smaller_price(quadratic_supply):
    # duplicate outcome values create two candidates with identical cost; the
    # short peak period makes investing strictly beneficial
    peak = np.array([[2.0], [2.0]])
    scen = ScenarioSet(("u",), np.array([0.5, 0.5]), peak, np.zeros_like(peak))
    specs = {"u": StorageSpec(theta=0.4)}
    result = optimize_price_difference(
        scen, specs, None, None, PeriodStructure(frozenset(range(6))), quadratic_supply
    )
    totals = [t for _, _, t in result.trace]
    pds = [pd for _, pd, _ in result.trace]
    winners = [pd for pd, t in zip(pds, totals) if t == min(totals)]
    assert len(winners) >= 2  # the tie actually happens
    assert result.best_price.p_delta == min(winners)


def test_price_level_neutrality_plain_model(quadratic_supply):
    rng = np.random.default_rng(107)
    scen = random_scenarios(rng, 2, 4)
    specs = random_specs(rng, scen.entities)
    # responses at a fixed price difference ignore the price level entirely
    for j, e in enumerate(scen.entities):
        a = respond(specs[e], TouPrice(2.5, 0.0), scen.probs, scen.peak[:, j])
        b = respond(specs[e], TouPrice(32.5, 30.0), scen.probs, scen.peak[:, j])
        assert a.capacity == b.capacity
        np.testing.assert_array_equal(a.charge, b.charge)
    low = optimize_price_difference(
        scen, specs, None, None, HALF_DAY, quadratic_supply, p_offpeak=0.0
    )
    high = optimize_price_difference(
        scen, specs, None, None, HALF_DAY, quadratic_supply, p_offpeak=25.0
    )
    # reported p_delta differs only by subtraction rounding at the high level
    assert high.best_price.p_delta == pytest.approx(low.best_price.p_delta, rel=1e-9)
    assert low.social_cost.total == high.social_cost.total
    for e in scen.entities:
        assert low.responses[e].capacity == high.responses[e].capacity


def test_pt_reported_cost_reevaluates_users(quadratic_supply):
    rng = np.random.default_rng(108)
    scen = random_scenarios(rng, 4, 5, names=[f"u{i}" for i in range(4)])
    grouping = {"u0": "a", "u1": "a", "u2": "b", "u3": "b"}
    from toudesign import aggregate_by_type, user_specs_from_grouping

    type_scen = aggregate_by_type(scen, grouping)
    type_specs = {"a": StorageSpec(theta=0.5), "b": StorageSpec(theta=1.5)}
    pt = optimize_price_difference(
        type_scen, type_specs, scen, grouping, HALF_DAY, quadratic_supply
    )
    user_specs = user_specs_from_grouping(type_specs, scen, grouping)
    responses = {
        e: respond(user_specs[e], pt.best_price, scen.probs, scen.peak[:, j])
        for j, e in enumerate(scen.entities)
    }
    expected = social_cost(scen, user_specs, responses, HALF_DAY, quadratic_supply)
    assert pt.social_cost.total == expected.total
    for e in scen.entities:
        assert pt.responses[e].capacity == responses[e].capacity


def test_pt_never_cheaper_than_pi(quadratic_supply):
    rng = np.random.default_rng(109)
    for _ in range(25):
        n_users = int(rng.integers(2, 7))
        scen = random_scenarios(rng, n_users, int(rng.integers(2, 5)))
        n_types = int(rng.integers(1, min(n_users, 4) + 1))
        type_ids = [f"t{i}" for i in range(n_types)]
        thetas = np.sort(rng.uniform(0.05, 3.0, n_types))
        type_specs = {t: StorageSpec(theta=float(th)) for t, th in zip(type_ids, thetas)}
        grouping = {
            e: type_ids[int(rng.integers(0, n_types))] for e in scen.entities
        }
        from toudesign import aggregate_by_type, user_specs_from_grouping

        type_scen = aggregate_by_type(scen, grouping)
        specs_present = {t: type_specs[t] for t in type_scen.entities}
        pt = optimize_price_difference(
            type_scen, specs_present, scen, grouping, HALF_DAY, quadratic_supply
        )
        pi = optimize_price_difference(
            scen,
            user_specs_from_grouping(type_specs, scen, grouping),
            None,
            None,
            HALF_DAY,
            quadratic_supply,
        )
        assert pt.social_cost.total >= pi.social_cost.total - 1e-9


TECHNOLOGIES = ("lossless", "lossy", "degrading", "elastic")


def _one_technology_search(rng, technology, scheme, dirichlet):
    """A random instance whose specs share one (eta_c, eta_d, tau), with
    every elastic cost below the cheapest storage cost, as the arguments a
    search of the scheme takes before its periods, and an off-peak grid
    (lo, hi, steps) of 2 to 11 prices."""
    n_users, n_outcomes = int(rng.integers(2, 9)), int(rng.integers(1, 7))
    users = random_scenarios(rng, n_users, n_outcomes, equiprob=not dirichlet)
    if dirichlet:
        users = ScenarioSet(
            users.entities, rng.dirichlet(np.ones(n_outcomes)), users.peak, users.offpeak
        )
    eta_c, eta_d, tau = 1.0, 1.0, 0.0
    if technology in ("lossy", "elastic"):
        eta_c, eta_d = (float(x) for x in rng.uniform(0.6, 1.0, 2))
    if technology in ("degrading", "elastic"):
        tau = float(rng.uniform(0.0, 1.0))
    types = tuple(f"t{k}" for k in range(int(rng.integers(1, 4))))
    type_specs = random_specs(rng, types, eta_c=eta_c, eta_d=eta_d, tau=tau)
    if technology == "elastic":
        cheapest = min(s.theta for s in type_specs.values())
        type_specs = {
            t: replace(
                s, e_shift=float(rng.uniform(0.0, cheapest)),
                elastic_fraction=float(rng.uniform(0.0, 1.0)),
            )
            for t, s in type_specs.items()
        }
    grouping = {e: types[int(rng.integers(0, len(types)))] for e in users.entities}
    if scheme == "pt":
        pricing = aggregate_by_type(users, grouping)
        args = (pricing, {t: type_specs[t] for t in pricing.entities}, users, grouping)
    else:
        args = (users, user_specs_from_grouping(type_specs, users, grouping), None, None)
    lo = float(rng.choice([0.0, rng.uniform(0.0, 2.0)]))
    return args, (lo, lo + float(rng.uniform(0.1, 4.0)), int(rng.integers(2, 12)))


@pytest.mark.parametrize("scheme", ["pt", "pi"])
@pytest.mark.parametrize("technology", TECHNOLOGIES)
def test_extended_search_is_the_low_end_scan_for_one_technology(technology, scheme):
    # With one (eta_c, eta_d, tau) an owner sees the prices only through
    # l * p_delta - (1 - l) * p_o - tau * (1 + l), l = eta_c * eta_d, and
    # every elastic swap fires before every capacity step, so each off-peak
    # price reaches the same responses in the same order: no grid price scans
    # cheaper than the low end, and the grid search returns the low end's scan.
    rng = np.random.default_rng([140, TECHNOLOGIES.index(technology), scheme == "pt"])
    for trial in range(50):
        args, (lo, hi, steps) = _one_technology_search(rng, technology, scheme, trial % 2)
        at_lo = optimize_price_difference(*args, HALF_DAY, SUPPLY, p_offpeak=lo)
        for p_o in np.linspace(lo, hi, steps)[1:].tolist():
            scan = optimize_price_difference(*args, HALF_DAY, SUPPLY, p_offpeak=p_o)
            assert not scan.scan_cost < at_lo.scan_cost, (trial, p_o)
        ext = optimize_prices_extended(*args, HALF_DAY, SUPPLY, (lo, hi), steps)
        assert ext.best_price == at_lo.best_price, trial
        assert ext.social_cost == at_lo.social_cost
        assert ext.responses.keys() == at_lo.responses.keys()
        for e, got in ext.responses.items():
            want = at_lo.responses[e]
            assert got.capacity == want.capacity
            assert got.charge.tobytes() == want.charge.tobytes()
            assert got.shifted.tobytes() == want.shifted.tobytes()


def test_extended_low_efficiency_kills_investment():
    # efficient storage gets used at the optimum, inefficient storage does not
    rng = np.random.default_rng(111)
    peak = rng.uniform(4.0, 8.0, size=(4, 3))
    scen = ScenarioSet(
        ("a", "b", "c"), np.full(4, 0.25), peak, np.zeros_like(peak)
    )
    supply = SupplyCostParams(alpha=3.0)
    p_o_range, steps = (0.0, 2.0), 2

    def total_capacity(eta):
        specs = {
            e: StorageSpec(theta=1.0, eta_c=eta, eta_d=eta)
            for e in scen.entities
        }
        result = optimize_prices_extended(
            scen, specs, None, None, EVENING_PEAK, supply, p_o_range, steps
        )
        return sum(r.capacity for r in result.responses.values())

    assert total_capacity(1.0) > 0.0
    assert total_capacity(0.6) == 0.0


def test_extended_capacity_weakly_decreasing_in_degradation():
    rng = np.random.default_rng(112)
    peak = rng.uniform(4.0, 8.0, size=(4, 3))
    scen = ScenarioSet(("a", "b", "c"), np.full(4, 0.25), peak, np.zeros_like(peak))
    supply = SupplyCostParams(alpha=3.0)
    caps = []
    for tau in (0.0, 1.0, 2.0, 4.0):
        specs = {e: StorageSpec(theta=1.0, tau=tau) for e in scen.entities}
        result = optimize_prices_extended(
            scen, specs, None, None, EVENING_PEAK, supply, (0.0, 0.0), 1
        )
        caps.append(sum(r.capacity for r in result.responses.values()))
    assert all(b <= a + 1e-12 for a, b in zip(caps, caps[1:]))
    assert caps[0] > 0


def _grid_witness(kind):
    """A seeded instance outside the one-technology conditions, on which an
    off-peak price above zero scans strictly cheaper than zero: lossless and
    lossy specs mixed, or lossy specs with an e_shift above the cheapest
    theta."""
    rng = np.random.default_rng({"mixed": 4, "late_shift": 10}[kind])
    scen = random_scenarios(rng, 3, 4)
    if kind == "mixed":
        specs = random_specs(rng, scen.entities)
        specs["u0"] = replace(specs["u0"], eta_c=0.8, eta_d=0.8)
    else:
        specs = random_specs(rng, scen.entities, eta_c=0.9, eta_d=0.85, tau=0.2)
        u0, u2 = specs["u0"], specs["u2"]
        specs["u2"] = replace(u2, e_shift=(u0.theta + u2.theta) / 2, elastic_fraction=0.5)
    return scen, specs


def test_extended_validates_range():
    rng = np.random.default_rng(113)
    scen = random_scenarios(rng, 1, 2)
    specs = random_specs(rng, scen.entities)
    with pytest.raises(InputError):
        optimize_prices_extended(
            scen, specs, None, None, HALF_DAY, SupplyCostParams(1.0), (2.0, 1.0), 2
        )
    with pytest.raises(InputError):
        optimize_prices_extended(
            scen, specs, None, None, HALF_DAY, SupplyCostParams(1.0), (0.0, 1.0), 0
        )
    with pytest.raises(InputError):
        optimize_prices_extended(
            scen, specs, None, None, HALF_DAY, SupplyCostParams(1.0), (0.0, np.inf), 2
        )
    # Where the grid's prices may differ, a grid of several is refused
    # rather than answered at its low end; each price still scans alone.
    for kind in ("mixed", "late_shift"):
        scen, specs = _grid_witness(kind)
        scans = [
            optimize_price_difference(scen, specs, None, None, HALF_DAY, SUPPLY, p_offpeak=p_o)
            for p_o in (0.0, 1.0, 2.0)
        ]
        assert min(r.scan_cost for r in scans[1:]) < scans[0].scan_cost, kind
        with pytest.raises(InputError, match="an off-peak grid needs one storage technology"):
            optimize_prices_extended(scen, specs, None, None, HALF_DAY, SUPPLY, (0.0, 2.0), 3)
        for p_o in (0.0, 2.0):
            one = optimize_prices_extended(scen, specs, None, None, HALF_DAY, SUPPLY, (p_o, p_o), 3)
            assert one.best_price == scans[int(p_o)].best_price


def test_elastic_candidates_include_shift_cost(quadratic_supply):
    peak = np.array([[4.0], [6.0]])
    scen = ScenarioSet(("u",), np.array([0.5, 0.5]), peak, np.zeros_like(peak))
    specs = {"u": StorageSpec(theta=2.0, e_shift=0.7, elastic_fraction=0.25)}
    result = optimize_price_difference(scen, specs, None, None, HALF_DAY, quadratic_supply)
    evaluated = {round(pd - result.epsilon, 9) for _, pd, _ in result.trace}
    assert 0.7 in evaluated
    for fraction in (-0.1, 1.5):
        with pytest.raises(InputError):
            replace(specs["u"], elastic_fraction=fraction)


def test_lambda_map_regions():
    rng = np.random.default_rng(114)
    peak = rng.uniform(4.0, 9.0, size=(3, 2))
    scen = ScenarioSet(("a", "b"), np.full(3, 1 / 3), peak, np.zeros_like(peak))
    supply = SupplyCostParams(alpha=3.0)
    specs = {"a": StorageSpec(theta=1.0), "b": StorageSpec(theta=2.0)}
    pds = np.array([0.0, 0.5, 6.0, 400.0])
    tbs = np.array([0.01, 1.5, 60.0])
    lam = evaluate_lambda(pds, tbs, scen, specs, EVENING_PEAK, supply)
    assert lam.shape == (4, 3)
    # no investment at zero price difference
    np.testing.assert_allclose(lam[0], 1.0)
    # below every threshold the ratio stays one
    assert np.all(lam[1, 1:] == 1.0)
    # huge price difference with tiny storage cost: shifting pays off
    assert lam[3, 0] < 1.0
    # huge price difference with huge storage cost: over-investment hurts
    assert lam[3, 2] > 1.0


def test_lambda_rejects_empty_grids():
    rng = np.random.default_rng(115)
    scen = random_scenarios(rng, 1, 2)
    specs = random_specs(rng, scen.entities)
    with pytest.raises(InputError):
        evaluate_lambda([], [1.0], scen, specs, HALF_DAY, SupplyCostParams(1.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lambda_rejects_a_non_finite_price_difference(bad):
    rng = np.random.default_rng(115)
    scen = random_scenarios(rng, 1, 2)
    specs = random_specs(rng, scen.entities)
    with pytest.raises(InputError, match="price differences must be finite"):
        evaluate_lambda([bad, 1.0], [1.0], scen, specs, HALF_DAY, SupplyCostParams(1.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lambda_rejects_a_non_finite_mean_storage_cost(bad):
    rng = np.random.default_rng(115)
    scen = random_scenarios(rng, 1, 2)
    specs = random_specs(rng, scen.entities)
    with pytest.raises(InputError, match="mean storage costs must be finite and > 0"):
        evaluate_lambda([1.0], [1.0, bad], scen, specs, HALF_DAY, SupplyCostParams(1.0))


PAIR = ScenarioSet(
    ("a", "b"), np.array([0.5, 0.5]), np.array([[4.0, 1.0], [6.0, 2.0]]), np.zeros((2, 2))
)
PAIR_SPECS = {"a": StorageSpec(theta=1.0), "b": StorageSpec(theta=2.0)}
A_SPECS = {"a": PAIR_SPECS["a"]}
ONE = SupplyCostParams(1.0)


def _pair_responses():
    return optimize_price_difference(PAIR, PAIR_SPECS, None, None, HALF_DAY, ONE).responses


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda: optimize_price_difference(PAIR, A_SPECS, None, None, HALF_DAY, ONE),
         "storage specs"),
        (lambda: optimize_prices_extended(
            PAIR, A_SPECS, None, None, HALF_DAY, ONE, (0.0, 1.0), 2
        ), "storage specs"),
        (lambda: social_cost_curve(PAIR, A_SPECS, HALF_DAY, ONE, [0.0, 1.0]), "storage specs"),
        (lambda: evaluate_lambda([1.0], [1.0], PAIR, A_SPECS, HALF_DAY, ONE), "storage specs"),
        (lambda: social_cost(PAIR, A_SPECS, _pair_responses(), HALF_DAY, ONE), "storage specs"),
        (lambda: social_cost(
            PAIR, PAIR_SPECS, {"a": _pair_responses()["a"]}, HALF_DAY, ONE
        ), "responses"),
        (lambda: validate_structure_pricing(
            {"a": _pair_responses()["a"]}, {"a": 1.0, "b": 2.0}, PAIR
        ), "responses"),
        (lambda: aggregate_by_type(PAIR, {"a": "t"}), "types"),
        (lambda: solve_so(PAIR, {"a": 1.0}, HALF_DAY, ONE), "storage costs"),
        (lambda: validate_structure_so(
            solve_so(PAIR, {"a": 1.0, "b": 2.0}, HALF_DAY, ONE), {"a": 1.0}, PAIR
        ), "storage costs"),
        (lambda: validate_structure_pricing(_pair_responses(), {"a": 1.0}, PAIR),
         "storage costs"),
    ],
    ids=[
        "optimize_price_difference", "optimize_prices_extended", "social_cost_curve",
        "evaluate_lambda", "social_cost-specs", "social_cost-responses",
        "validate_structure_pricing", "aggregate_by_type", "solve_so",
        "validate_structure_so-costs", "validate_structure_pricing-costs",
    ],
)
def test_entry_points_name_the_entity_a_mapping_lacks(call, what):
    with pytest.raises(InputError) as err:
        call()
    assert str(err.value) == f"missing {what} for ['b']"


@pytest.mark.parametrize("n_outcomes", [1, 3])
@pytest.mark.parametrize(
    "call",
    [
        lambda responses: social_cost(PAIR, PAIR_SPECS, responses, HALF_DAY, ONE),
        lambda responses: validate_structure_pricing(responses, {"a": 1.0, "b": 2.0}, PAIR),
    ],
    ids=["social_cost", "validate_structure_pricing"],
)
def test_entry_points_refuse_a_response_that_misses_outcomes(call, n_outcomes):
    # PAIR has two outcomes: a profile of one would broadcast against them
    # unnoticed, and a profile of three would fail inside numpy.
    partial = ResponseProfile(1.0, np.zeros(n_outcomes), np.zeros(n_outcomes))
    with pytest.raises(InputError) as err:
        call({"a": partial, "b": _pair_responses()["b"]})
    assert str(err.value) == "response for entity 'a' must cover all 2 outcomes"


def test_scan_vs_grid_with_elastic_demand(quadratic_supply):
    rng = np.random.default_rng(119)
    for _ in range(15):
        scen = random_scenarios(rng, 2, 3)
        specs = random_specs(rng, scen.entities, theta_range=(0.5, 3.0), e_shift=0.2)
        fraction = float(rng.uniform(0.05, 0.3))
        specs = {e: replace(s, elastic_fraction=fraction) for e, s in specs.items()}
        result = optimize_price_difference(scen, specs, None, None, HALF_DAY, quadratic_supply)
        hi = max(pd for _, pd, _ in result.trace) * 1.5 + 1.0
        grid = np.linspace(0.0, hi, 8000)
        totals = social_cost_curve(scen, specs, HALF_DAY, quadratic_supply, grid)
        assert result.scan_cost <= totals.min() + 1e-9


def test_scan_vs_grid_with_losses_and_degradation():
    rng = np.random.default_rng(120)
    supply = SupplyCostParams(alpha=3.0)
    for _ in range(15):
        scen = random_scenarios(rng, 2, 3, peak_range=(2.0, 8.0))
        eta = float(rng.uniform(0.75, 1.0))
        specs = random_specs(
            rng, scen.entities, theta_range=(0.2, 2.0),
            eta_c=eta, eta_d=eta, tau=float(rng.uniform(0.0, 0.4)),
        )
        p_o = float(rng.uniform(0.0, 2.0))
        result = optimize_prices_extended(
            scen, specs, None, None, EVENING_PEAK, supply, (p_o, p_o), 1
        )
        hi = max(pd for _, pd, _ in result.trace) * 1.5 + 1.0
        grid = np.linspace(0.0, hi, 8000)
        assert result.best_price.p_offpeak == p_o
        assert grid_check(result, grid, scen, specs, EVENING_PEAK, supply) is None


def test_result_social_cost_matches_reevaluation(quadratic_supply):
    rng = np.random.default_rng(116)
    scen = random_scenarios(rng, 3, 4)
    specs = random_specs(rng, scen.entities)
    result = optimize_price_difference(
        scen, specs, None, None, HALF_DAY, quadratic_supply
    )
    again = social_cost(
        scen, specs, result.responses, HALF_DAY, quadratic_supply
    )
    assert result.social_cost.total == again.total


# --- the event-sweep scan against the reference curve ------------------------


def _duplicated(scen):
    peak = scen.peak.copy()
    peak[1::2] = peak[::2][: peak[1::2].shape[0]]
    return ScenarioSet(scen.entities, scen.probs, peak, scen.offpeak)


def _mixed_elastic(rng, entities, fraction):
    """Every third entity (the first included) without a shift cost, all of
    them with the given elastic share."""
    specs = random_specs(rng, entities, theta_range=(0.5, 4.0), elastic_fraction=fraction)
    return {
        e: replace(s, e_shift=float(rng.uniform(0.0, s.theta))) if k % 3 else s
        for k, (e, s) in enumerate(specs.items())
    }


def _engine_case(name, rng):
    """(scenarios, specs, off-peak grid or None)."""
    scen = random_scenarios(rng, 4, 6)
    if name == "lossless":
        return scen, random_specs(rng, scen.entities), None
    if name == "lossy_degrading":
        specs = random_specs(rng, scen.entities, eta_c=0.92, eta_d=0.85, tau=0.15)
        specs[scen.entities[0]] = replace(specs[scen.entities[0]], eta_c=1.0, tau=0.0)
        return scen, specs, (1.0, 1.0, 1)
    if name == "elastic":
        return scen, _mixed_elastic(rng, scen.entities, 0.35), None
    if name == "elastic_lossy":
        specs = {
            e: replace(s, eta_c=0.9, eta_d=0.9, tau=0.05)
            for e, s in _mixed_elastic(rng, scen.entities, 1.0).items()
        }
        return scen, specs, (1.0, 1.0, 1)
    if name == "elastic_per_entity":
        # u1 and u2 shift different shares; u0 and the lossy u3 carry a
        # share but no shift cost, so they never shift
        specs = _mixed_elastic(rng, scen.entities, 0.6)
        specs["u1"] = replace(specs["u1"], elastic_fraction=0.15)
        specs["u3"] = replace(specs["u3"], eta_c=0.95, eta_d=0.9, elastic_fraction=1.0)
        return scen, specs, (1.0, 1.0, 1)
    if name == "duplicate_outcomes":
        return _duplicated(scen), random_specs(rng, scen.entities), None
    if name == "one_outcome":
        scen = random_scenarios(rng, 3, 1)
        return scen, random_specs(rng, scen.entities), None
    if name == "one_entity":
        scen = random_scenarios(rng, 1, 7)
        return scen, random_specs(rng, scen.entities), None
    if name == "huge_theta":
        specs = random_specs(rng, scen.entities)
        specs[scen.entities[1]] = StorageSpec(theta=1e9)
        return scen, specs, None
    if name == "several_blocks":
        # more step events than one sweep block holds
        scen = random_scenarios(rng, 40, 30)
        return scen, random_specs(rng, scen.entities), None
    raise ValueError(name)


ENGINE_CASES = [
    "lossless", "lossy_degrading", "elastic", "elastic_lossy", "elastic_per_entity",
    "duplicate_outcomes", "one_outcome", "one_entity", "huge_theta", "several_blocks",
]


def _engine_run(name, seed):
    rng = np.random.default_rng(seed)
    scen, specs, grid = _engine_case(name, rng)
    if grid is None:
        result = optimize_price_difference(scen, specs, None, None, HALF_DAY, SUPPLY)
    else:
        result = optimize_prices_extended(
            scen, specs, None, None, HALF_DAY, SUPPLY, grid[:2], grid[2]
        )
    return scen, specs, result


SUPPLY = SupplyCostParams(alpha=2.0, beta=0.3, gamma=0.1)


@pytest.mark.parametrize("name", ENGINE_CASES)
def test_scan_trace_equals_reference_curve(name):
    for seed in range(3):
        scen, specs, result = _engine_run(name, seed)
        trace = np.array(result.trace)
        reference = np.concatenate([
            social_cost_curve(scen, specs, HALF_DAY, SUPPLY, trace[trace[:, 0] == p_o, 1], p_o)
            for p_o in dict.fromkeys(trace[:, 0])
        ])
        np.testing.assert_allclose(trace[:, 2], reference, rtol=1e-12, atol=0.0)
        best = int(np.argmin(reference))
        assert int(np.argmin(trace[:, 2])) == best
        assert result.best_price.p_offpeak == trace[best, 0]
        assert result.scan_cost == trace[best, 2]


def _threshold_union(scen, specs, p_o, eps):
    """The candidate price differences as the union of every entity's
    `threshold_set_extended`, on the ordering the reference sizes it on."""
    union = {0.0}
    for j, e in enumerate(scen.entities):
        spec, peak = specs[e], scen.peak[:, j]
        if spec.e_shift is not None:
            peak = peak - spec.elastic_fraction * peak
            union.add(spec.e_shift)
        dag = peak * (1.0 / (spec.eta_c * spec.eta_d))
        order = np.argsort(dag, kind="stable")
        union |= set(threshold_set_extended(spec, dag[order], scen.probs[order], p_o))
    keep = []
    for value in sorted(union):
        if not keep or value - keep[-1] > 1e-9 * max(1.0, abs(value)):
            keep.append(value)
    if eps is None:
        eps = min(1e-6, float(np.diff(keep).min()) / 2.0) if len(keep) > 1 else 1e-6
    return [v + eps for v in keep]


@pytest.mark.parametrize("name", ENGINE_CASES)
def test_candidates_equal_per_entity_threshold_union(name):
    for seed in range(3):
        scen, specs, result = _engine_run(name, seed)
        for p_o in dict.fromkeys(p for p, _, _ in result.trace):
            scanned = [pd for p, pd, _ in result.trace if p == p_o]
            assert scanned == _threshold_union(scen, specs, p_o, None)


def _exact_grid(events, p_o, rng):
    """Every candidate exactly (a tie for its own step), points a hair to
    either side, and a uniform spread beyond the largest."""
    cands, _ = events.candidates(p_o)
    return np.unique(np.concatenate((
        cands, cands * (1 + 1e-13), cands * (1 - 1e-13), cands + 1e-7,
        rng.uniform(0.0, cands.max() * 1.3 + 1.0, 50),
    )))


@pytest.mark.parametrize("name", ENGINE_CASES)
def test_event_sweep_equals_reference_curve_on_any_grid(name):
    for seed in range(3):
        rng = np.random.default_rng(seed)
        scen, specs, grid = _engine_case(name, rng)
        events = _StepEvents(scen, specs)
        for p_o in ([0.0] if grid is None else np.linspace(*grid)):
            pds = _exact_grid(events, p_o, rng)
            np.testing.assert_allclose(
                events.costs(pds, p_o, HALF_DAY, SUPPLY),
                social_cost_curve(scen, specs, HALF_DAY, SUPPLY, pds, p_o),
                rtol=1e-12, atol=0.0,
            )


def test_event_sweep_steps_fired_below_the_shift_cost():
    # Probabilities that sum to 1 + 5e-10 put the first full-peak threshold
    # below an e_shift that sits a hair under theta, so the full-peak profile
    # buys storage before the swap replaces it.
    probs = np.array([0.5, 0.5 + 5e-10])
    peak = np.array([[2.0, 1.0], [3.0, 4.0]])
    scen = ScenarioSet(("a", "b"), probs, peak, np.ones_like(peak))
    specs = {
        "a": StorageSpec(1.0, e_shift=1.0 - 1e-12, elastic_fraction=0.5),
        "b": StorageSpec(0.8, elastic_fraction=0.5),
    }
    events = _StepEvents(scen, specs)
    threshold = 1.0 / float(np.cumsum(probs[::-1])[-1])
    pds = np.array([0.5, threshold, (threshold + 1.0 - 1e-12) / 2, 1.0 - 1e-12, 1.0, 3.0])
    assert threshold < pds[2] < 1.0 - 1e-12
    np.testing.assert_allclose(
        events.costs(pds, 0.0, HALF_DAY, SUPPLY),
        social_cost_curve(scen, specs, HALF_DAY, SUPPLY, pds, 0.0),
        rtol=1e-12, atol=0.0,
    )


def _respond_all(price, scenarios, specs):
    """Every entity's `respond` to the tariff through the search's array pass,
    each profile bit-identical to `respond`'s."""
    arr = _SpecArrays.of([specs[e] for e in scenarios.entities])
    caps, charge, shifted = _best_responses(price, scenarios, arr)
    return ResponseProfile._batch(scenarios.entities, caps, charge.T, shifted.T)


def _assert_profiles_equal_respond(scen, specs, price, responses):
    for j, e in enumerate(scen.entities):
        one = respond(specs[e], price, scen.probs, scen.peak[:, j])
        got = responses[e]
        assert got.capacity == one.capacity
        assert np.array_equal(got.charge, one.charge)
        assert np.array_equal(got.shifted, one.shifted)


@pytest.mark.parametrize("name", ENGINE_CASES)
def test_batched_realization_equals_respond_bit_for_bit(name):
    for seed in range(3):
        scen, specs, result = _engine_run(name, seed)
        _assert_profiles_equal_respond(scen, specs, result.best_price, result.responses)
        # exactly at thresholds and shift costs, where the tie rule decides
        p_o = result.best_price.p_offpeak
        cands, _ = _StepEvents(scen, specs).candidates(p_o)
        for pd in cands[:: max(1, cands.size // 12)]:
            price = TouPrice(p_o + pd, p_o)
            responses = _respond_all(price, scen, specs)
            _assert_profiles_equal_respond(scen, specs, price, responses)


def test_type_tariff_realization_equals_respond_bit_for_bit():
    rng = np.random.default_rng(121)
    users = random_scenarios(rng, 8, 6)
    grouping = {e: f"t{j % 2}" for j, e in enumerate(users.entities)}
    types = aggregate_by_type(users, grouping)
    type_specs = {
        "t0": StorageSpec(
            theta=0.8, eta_c=0.95, eta_d=0.9, tau=0.1, e_shift=0.3, elastic_fraction=0.2
        ),
        "t1": StorageSpec(theta=1.6, elastic_fraction=0.2),
    }
    result = optimize_price_difference(types, type_specs, users, grouping, HALF_DAY, SUPPLY)
    user_specs = {e: type_specs[grouping[e]] for e in users.entities}
    _assert_profiles_equal_respond(users, user_specs, result.best_price, result.responses)


def _search_case(kind, rng):
    """Eight users with a strong peak, three types and the off-peak grid
    (lo, hi, steps) for each kind of spec."""
    users = random_scenarios(rng, 8, 6, peak_range=(2.0, 12.0), off_range=(0.0, 2.0))
    if kind == "dirichlet":
        users = ScenarioSet(users.entities, rng.dirichlet(np.ones(6)), users.peak, users.offpeak)
    grouping = {e: f"t{j % 3}" for j, e in enumerate(users.entities)}
    extra, grid = {
        "lossy": ({"eta_c": 0.8, "eta_d": 0.8}, (0.0, 2.0, 3)),
        "degrading": ({"tau": 4.0}, (0.0, 0.0, 1)),
        "elastic": ({"elastic_fraction": 0.3}, (0.0, 0.0, 1)),
    }.get(kind, ({}, (0.0, 0.0, 1)))
    type_specs = random_specs(rng, ("t0", "t1", "t2"), theta_range=(0.2, 2.0), **extra)
    if kind == "elastic":
        type_specs = {t: replace(s, e_shift=0.5 * s.theta) for t, s in type_specs.items()}
    return users, type_specs, grouping, grid


@pytest.mark.parametrize("scheme", ["pt", "pi"])
@pytest.mark.parametrize("kind", ["lossless", "lossy", "degrading", "elastic", "dirichlet"])
def test_chosen_tariff_is_costed_as_its_profiles_are(kind, scheme):
    # The search costs the chosen tariff on its response arrays; the profile
    # front must read the same breakdown from the profiles it reports.
    users, type_specs, grouping, grid = _search_case(kind, np.random.default_rng(131))
    user_specs = {e: type_specs[grouping[e]] for e in users.entities}
    if scheme == "pt":
        args = (aggregate_by_type(users, grouping), type_specs, users, grouping)
    else:
        args = (users, user_specs, None, None)
    result = optimize_prices_extended(*args, HALF_DAY, SUPPLY, grid[:2], grid[2])
    assert result.scheme == scheme
    assert any(r.capacity > 0.0 for r in result.responses.values())
    again = social_cost(
        users, user_specs, result.responses, HALF_DAY, SUPPLY, check_feasibility=False
    )
    assert result.social_cost == again


def test_full_elastic_fraction_keeps_inelastic_thresholds(quadratic_supply):
    # Users without a shift cost never shift and are sized on their full
    # peak demand. At elastic fraction 1 the residual peak is all zeros, and
    # the scan once took their thresholds from its ordering (index order).
    rng = np.random.default_rng(0)
    for _ in range(50):
        probs = rng.dirichlet(np.ones(5))
        peak = rng.uniform(0.5, 8.0, (5, 2))
        scen = ScenarioSet(("a", "b"), probs, peak, rng.uniform(0.0, 4.0, (5, 2)))
        specs = {
            e: StorageSpec(float(rng.uniform(0.05, 4.0)), elastic_fraction=1.0)
            for e in ("a", "b")
        }
        result = optimize_price_difference(scen, specs, None, None, HALF_DAY, quadratic_supply)
        hi = max(pd for _, pd, _ in result.trace) * 1.2 + 1.0
        grid = np.linspace(0.0, hi, 10_000)
        assert grid_check(result, grid, scen, specs, HALF_DAY, quadratic_supply) is None



def _search_args(kind, scheme):
    """A `_search_case` as the users, their specs and the off-peak grid, and
    the arguments a search of the scheme takes before its periods."""
    users, type_specs, grouping, grid = _search_case(kind, np.random.default_rng(131))
    user_specs = user_specs_from_grouping(type_specs, users, grouping)
    if scheme == "pt":
        args = (aggregate_by_type(users, grouping), type_specs, users, grouping)
    else:
        args = (users, user_specs, None, None)
    return users, user_specs, grid, args


@pytest.mark.parametrize("scheme", ["pt", "pi"])
@pytest.mark.parametrize("kind", ["lossless", "lossy", "elastic"])
def test_searches_build_no_profile_one_at_a_time(monkeypatch, kind, scheme):
    # The chosen tariff's profiles come from one batch, checked once; no
    # profile is built, and checked, on its own.
    checks = []
    post_init = ResponseProfile.__post_init__

    def counted(self):
        checks.append(self)
        post_init(self)

    monkeypatch.setattr(ResponseProfile, "__post_init__", counted)
    users, user_specs, grid, args = _search_args(kind, scheme)
    plain = optimize_price_difference(*args, HALF_DAY, SUPPLY)
    extended = optimize_prices_extended(*args, HALF_DAY, SUPPLY, grid[:2], grid[2])
    assert checks == []
    thetas = {e: s.theta for e, s in user_specs.items()}
    for result in (plain, extended):
        assert validate_structure_pricing(result.responses, thetas, users).ok
    respond(user_specs["u0"], extended.best_price, users.probs, users.peak[:, 0])
    assert len(checks) == 1


@pytest.mark.parametrize("scheme", ["pt", "pi"])
@pytest.mark.parametrize("kind", ["lossless", "lossy", "degrading", "elastic"])
def test_search_realizes_users_on_the_specs_it_scans(monkeypatch, kind, scheme):
    # pi realizes the users on the event sweep's own spec arrays; pt on the
    # arrays of the users' specs as their grouping assigns them.
    seen, sweeps = [], []
    realize = pricing_module._best_responses

    def spy(price, scenarios, arr):
        seen.append(arr)
        return realize(price, scenarios, arr)

    monkeypatch.setattr(pricing_module, "_best_responses", spy)
    monkeypatch.setattr(
        pricing_module, "_StepEvents", lambda *a: sweeps.append(_StepEvents(*a)) or sweeps[-1]
    )
    users, user_specs, grid, args = _search_args(kind, scheme)
    optimize_prices_extended(*args, HALF_DAY, SUPPLY, grid[:2], grid[2])
    assert len(seen) == len(sweeps) == 1
    assert (seen[0] is sweeps[0].arr) == (scheme == "pi")
    for field, got, want in zip(_SpecArrays._fields, seen[0], _SpecArrays.of(user_specs.values())):
        assert np.array_equal(got, want, equal_nan=True), field
