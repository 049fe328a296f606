import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toudesign import (
    AnnuityParams,
    HourlyLoadTable,
    InfeasibleResponseError,
    InputError,
    ResponseProfile,
    ScenarioSet,
    SocialCostBreakdown,
    StorageSpec,
    SupplyCostParams,
    approximation_gap,
    daily_cost_factor,
    no_storage_cost,
    social_cost,
    supply_cost_period,
)
from toudesign.cli import _json_default

from conftest import HALF_DAY, random_scenarios


def test_daily_cost_factor_reference_value():
    rf = daily_cost_factor(AnnuityParams(rate=0.05, years=10, days_per_year=365))
    assert abs(rf - 3.55e-4) < 1e-6


def test_daily_cost_factor_zero_rate_limit():
    rf = daily_cost_factor(AnnuityParams(rate=0.0, years=10, days_per_year=365))
    assert rf == pytest.approx(1.0 / 3650.0)


def test_powerwall_style_daily_capacity_cost():
    rf = daily_cost_factor(AnnuityParams(rate=0.05, years=10, days_per_year=365))
    theta = rf * 6500.0 / 13.5  # $ per kWh per day
    assert abs(theta - 0.171) < 0.001


def test_supply_cost_period_values():
    c = SupplyCostParams(alpha=1.0, beta=0.0, gamma=0.0)
    assert supply_cost_period(12.0, 6, c) == pytest.approx(24.0)
    c2 = SupplyCostParams(alpha=1.0, beta=1.0, gamma=1.0)
    assert supply_cost_period(12.0, 6, c2) == pytest.approx(42.0)
    assert supply_cost_period(0.0, 6, c2) == pytest.approx(6.0)  # gamma * H


def test_supply_cost_period_vectorizes():
    c = SupplyCostParams(alpha=1.0)
    out = supply_cost_period(np.array([0.0, 6.0]), 6, c)
    np.testing.assert_allclose(out, [0.0, 6.0])


@settings(max_examples=50, deadline=None)
@given(
    alpha=st.floats(0.1, 10.0),
    beta=st.floats(0.0, 5.0),
    hours=st.integers(1, 23),
    load=st.floats(0.0, 50.0),
    step=st.floats(0.01, 5.0),
)
def test_supply_cost_is_strictly_convex(alpha, beta, hours, load, step):
    c = SupplyCostParams(alpha=alpha, beta=beta, gamma=0.3)
    second_diff = (
        supply_cost_period(load + 2 * step, hours, c)
        - 2 * supply_cost_period(load + step, hours, c)
        + supply_cost_period(load, hours, c)
    )
    assert second_diff > 0


def one_user_instance(peak, offpeak=0.0):
    return ScenarioSet(
        ("u",), np.array([1.0]), np.array([[peak]]), np.array([[offpeak]])
    )


def profile(capacity, charge, shifted=None):
    charge = np.asarray(charge, dtype=float)
    if shifted is None:
        shifted = np.zeros_like(charge)
    return ResponseProfile(capacity, charge, shifted)


def test_social_cost_no_storage_single_outcome(half_day=HALF_DAY):
    scen = one_user_instance(12.0)
    supply = SupplyCostParams(alpha=1.0)
    specs = {"u": StorageSpec(theta=1.0)}
    sc = social_cost(scen, specs, {"u": profile(0.0, [0.0])}, half_day, supply)
    assert sc.total == pytest.approx(12.0)


def test_social_cost_dispatch_extremes():
    # Full shift moves the whole peak into the off-peak period and costs the
    # same as no shift on a symmetric day; the optimal half shift costs 6.
    scen = one_user_instance(12.0)
    supply = SupplyCostParams(alpha=1.0)
    specs = {"u": StorageSpec(theta=1e-15)}
    full = social_cost(scen, specs, {"u": profile(12.0, [12.0])}, HALF_DAY, supply)
    assert full.total == pytest.approx(12.0, rel=1e-9)
    half = social_cost(scen, specs, {"u": profile(6.0, [6.0])}, HALF_DAY, supply)
    assert half.total == pytest.approx(6.0, rel=1e-9)


def test_social_cost_degradation_zero_when_idle():
    scen = one_user_instance(5.0)
    specs = {"u": StorageSpec(theta=1.0, tau=3.0)}
    sc = social_cost(
        scen, specs, {"u": profile(2.0, [0.0])}, HALF_DAY, SupplyCostParams(1.0)
    )
    assert sc.degradation_cost == 0.0
    assert sc.investment_cost == pytest.approx(2.0)


def test_social_cost_degradation_counts_both_directions():
    scen = one_user_instance(5.0)
    specs = {"u": StorageSpec(theta=1.0, tau=0.5)}
    sc = social_cost(
        scen, specs, {"u": profile(2.0, [2.0])}, HALF_DAY, SupplyCostParams(1.0)
    )
    # tau * s * (1 + eta_d eta_c) with perfect efficiency = 0.5 * 2 * 2
    assert sc.degradation_cost == pytest.approx(2.0)


def test_social_cost_entity_permutation_invariant():
    rng = np.random.default_rng(11)
    scen = random_scenarios(rng, 4, 5)
    specs = {e: StorageSpec(theta=1.0 + i) for i, e in enumerate(scen.entities)}
    responses = {
        e: profile(2.0, np.minimum(2.0, scen.peak[:, j]))
        for j, e in enumerate(scen.entities)
    }
    sc = social_cost(scen, specs, responses, HALF_DAY, SupplyCostParams(1.5, 0.2, 0.1))
    order = [2, 0, 3, 1]
    permuted = ScenarioSet(
        tuple(scen.entities[i] for i in order),
        scen.probs,
        scen.peak[:, order],
        scen.offpeak[:, order],
    )
    sc2 = social_cost(permuted, specs, responses, HALF_DAY, SupplyCostParams(1.5, 0.2, 0.1))
    assert sc2.total == pytest.approx(sc.total, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_social_cost_depends_on_charge_sum_only(seed):
    rng = np.random.default_rng(seed)
    scen = random_scenarios(rng, 3, 4, peak_range=(3.0, 8.0))
    specs = {e: StorageSpec(theta=1.0) for e in scen.entities}
    caps = {e: 10.0 for e in scen.entities}
    base = rng.uniform(0.0, 1.0, size=(4, 3))
    # move random charge slices between entities, keeping each outcome's sum
    shuffle = base.copy()
    for w in range(4):
        i, j = rng.choice(3, size=2, replace=False)
        move = rng.uniform(0.0, shuffle[w, i])
        shuffle[w, i] -= move
        shuffle[w, j] += move

    def run(matrix):
        responses = {
            e: profile(caps[e], matrix[:, jj]) for jj, e in enumerate(scen.entities)
        }
        return social_cost(scen, specs, responses, HALF_DAY, SupplyCostParams(2.0))

    a, b = run(base), run(shuffle)
    assert a.expected_supply_cost == pytest.approx(b.expected_supply_cost, rel=1e-12)


def test_social_cost_infeasible_charge_rejected():
    scen = one_user_instance(5.0)
    specs = {"u": StorageSpec(theta=1.0)}
    with pytest.raises(InfeasibleResponseError) as err:
        social_cost(
            scen, specs, {"u": profile(1.0, [2.0])}, HALF_DAY, SupplyCostParams(1.0)
        )
    assert err.value.entity == "u"
    assert err.value.outcome == 0


@pytest.mark.parametrize(
    "capacity, charge, shifted",
    [
        (np.nan, [0.0], [0.0]),
        (np.inf, [0.0], [0.0]),
        (1.0, [np.nan], [0.0]),
        (1.0, [0.5], [-np.inf]),
    ],
)
def test_response_profile_rejects_non_finite_values(capacity, charge, shifted):
    # a NaN charge used to pass every feasibility mask and give a NaN total
    with pytest.raises(InputError, match="finite"):
        profile(capacity, charge, shifted)


def test_social_cost_charge_beyond_demand_rejected():
    scen = one_user_instance(1.0)
    specs = {"u": StorageSpec(theta=1.0)}
    with pytest.raises(InfeasibleResponseError):
        social_cost(
            scen, specs, {"u": profile(5.0, [3.0])}, HALF_DAY, SupplyCostParams(1.0)
        )


def test_social_cost_shift_without_elastic_spec_rejected():
    scen = one_user_instance(5.0)
    specs = {"u": StorageSpec(theta=1.0)}
    with pytest.raises(InfeasibleResponseError):
        social_cost(
            scen,
            specs,
            {"u": profile(0.0, [0.0], shifted=[1.0])},
            HALF_DAY,
            SupplyCostParams(1.0),
        )


def first_violation_by_cell_loop(scen, specs, caps, charge, shifted):
    """Message of the first infeasible cell, checked entity by entity, then
    outcome by outcome, then rule by rule; None if every cell is feasible."""
    tol = 1e-9 * max(1.0, float(scen.peak.max()), float(caps.max(initial=0.0)))
    for j, entity in enumerate(scen.entities):
        spec = specs[entity]
        loss = spec.eta_c * spec.eta_d
        for w in range(scen.n_outcomes):
            s, q, d = charge[w, j], shifted[w, j], scen.peak[w, j]
            rules = (
                (s < -tol, f"negative charge {s}"),
                (q < -tol, f"negative shift {q}"),
                (spec.e_shift is None and q > tol, "shifted demand without an elastic-shift cost"),
                (q > d + tol, f"shift {q} exceeds peak demand {d}"),
                (spec.eta_c * s > caps[j] + tol, f"stored energy {spec.eta_c * s} exceeds capacity {caps[j]}"),
                (loss * s > d - q + tol, f"discharge {loss * s} exceeds residual peak demand {d - q}"),
            )
            for violated, detail in rules:
                if violated:
                    return str(InfeasibleResponseError(entity, w, detail))
    return None


def test_feasibility_check_reports_the_first_violation_of_a_cell_loop():
    rng = np.random.default_rng(404)
    raised = 0
    for _ in range(300):
        k, n = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        scen = random_scenarios(rng, k, n)
        specs = {
            e: StorageSpec(
                theta=2.0,
                eta_c=float(rng.uniform(0.7, 1.0)),
                eta_d=float(rng.uniform(0.7, 1.0)),
                e_shift=1.0 if rng.random() < 0.5 else None,
            )
            for e in scen.entities
        }
        eta_c = np.array([specs[e].eta_c for e in scen.entities])
        loss = eta_c * np.array([specs[e].eta_d for e in scen.entities])
        elastic = np.array([specs[e].e_shift is not None for e in scen.entities])
        caps = rng.uniform(0.0, 6.0, k)
        shifted = np.where(elastic, rng.uniform(0.0, 0.3, (n, k)) * scen.peak, 0.0)
        room = np.minimum(caps / eta_c, (scen.peak - shifted) / loss)
        charge = rng.uniform(0.0, 1.0, (n, k)) * room
        for _ in range(int(rng.integers(0, 5))):
            w, j, kind = int(rng.integers(n)), int(rng.integers(k)), int(rng.integers(6))
            bump = float(rng.uniform(0.1, 1.0))
            if kind == 0:
                charge[w, j] = -bump
            elif kind == 1:
                shifted[w, j] = -bump
            elif kind == 2:
                shifted[w, j] = bump
            elif kind == 3:
                shifted[w, j] = scen.peak[w, j] + bump
            elif kind == 4:
                charge[w, j] = (caps[j] + bump) / eta_c[j]
            else:
                charge[w, j] = (scen.peak[w, j] - shifted[w, j] + bump) / loss[j]
        responses = {
            e: ResponseProfile(float(caps[j]), charge[:, j], shifted[:, j])
            for j, e in enumerate(scen.entities)
        }
        expected = first_violation_by_cell_loop(scen, specs, caps, charge, shifted)
        if expected is None:
            social_cost(scen, specs, responses, HALF_DAY, SupplyCostParams(1.0))
            continue
        raised += 1
        with pytest.raises(InfeasibleResponseError) as err:
            social_cost(scen, specs, responses, HALF_DAY, SupplyCostParams(1.0))
        assert str(err.value) == expected
    assert 150 < raised < 300


def test_social_cost_includes_shift_cost():
    scen = one_user_instance(6.0)
    specs = {"u": StorageSpec(theta=1.0, e_shift=0.5)}
    sc = social_cost(
        scen,
        specs,
        {"u": profile(0.0, [0.0], shifted=[2.0])},
        HALF_DAY,
        SupplyCostParams(1.0),
    )
    assert sc.shift_cost == pytest.approx(1.0)
    # load moved: peak 4, offpeak 2
    assert sc.expected_supply_cost == pytest.approx(16.0 / 12 + 4.0 / 12)


def test_breakdown_json_fields():
    sc = SocialCostBreakdown(1.0, 0.5, 0.25, 2.0)
    payload = json.loads(json.dumps(sc, default=_json_default))
    assert set(payload) == {
        "investment_cost",
        "degradation_cost",
        "shift_cost",
        "expected_supply_cost",
        "total",
    }
    assert payload["total"] == pytest.approx(3.75)


def test_no_storage_cost_matches_manual():
    rng = np.random.default_rng(17)
    scen = random_scenarios(rng, 2, 3)
    supply = SupplyCostParams(1.2, 0.3, 0.05)
    sc = no_storage_cost(scen, HALF_DAY, supply)
    manual = float(
        scen.probs
        @ (
            supply_cost_period(scen.aggregate_peak(), 12, supply)
            + supply_cost_period(scen.aggregate_offpeak(), 12, supply)
        )
    )
    assert sc.total == pytest.approx(manual)


def one_day_table(load):
    return HourlyLoadTable(("d",), ("h",), np.asarray(load, dtype=float)[None, None, :])


def flat_day_table(value=1.0):
    return one_day_table(np.full(24, value))


def test_approximation_gap_zero_for_constant_loads():
    gap = approximation_gap(flat_day_table(), HALF_DAY, SupplyCostParams(2.0, 0.5, 0.1))
    assert gap == pytest.approx(0.0, abs=1e-12)


def test_approximation_gap_single_spike():
    # One nonzero hour inside a 12-hour period, pure quadratic cost:
    # hourly cost L^2 vs period cost L^2 / 12.
    load = np.zeros(24)
    load[3] = 5.0
    table = one_day_table(load)
    gap = approximation_gap(table, HALF_DAY, SupplyCostParams(1.0))
    hourly = 25.0
    two_period = 25.0 / 12
    assert gap == pytest.approx(abs(two_period - hourly) / hourly)
    assert gap == pytest.approx(1.0 - 1.0 / 12)


def test_approximation_gap_undefined_for_zero_load():
    table = one_day_table(np.zeros(24))
    with pytest.raises(InputError):
        approximation_gap(table, HALF_DAY, SupplyCostParams(1.0))
