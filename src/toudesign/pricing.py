"""Utility-side tariff optimization by threshold search.

The social cost induced by storage best responses is piecewise constant in
the peak/off-peak price difference, jumping only where some entity's optimal
capacity jumps. The optimizer therefore collects every entity's candidate
thresholds, evaluates the social cost a hair above each one and keeps the
cheapest, which is exact for discrete demand distributions. The candidates
and their costs come from the event sweep of `toudesign.scan`, over the
whole instance at once; the chosen tariff's responses come from its array
form of `respond`, which stays the scalar reference. `social_cost_curve`
here re-sizes every entity at every price difference and stays the
independent reference behind the grid checks. Pricing can be driven by
per-type aggregates (the realistic information set) or by per-user data; in
the type-based scheme the reported cost re-evaluates each individual user's
response to the chosen tariff.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .costs import SocialCostBreakdown, SupplyCostParams, social_cost, two_period_supply_cost
from .demand import PeriodStructure, ScenarioSet
from .errors import InputError
from .response import (
    ResponseProfile,
    StorageSpec,
    _steps_bought,
    equivalent_transform,
)
from .scan import _CURVE_BLOCK, _respond_all, _StepEvents

DEFAULT_EPSILON = 1e-6


@dataclass(frozen=True)
class TouPrice:
    """Peak and off-peak energy prices in $/MWh."""

    p_peak: float
    p_offpeak: float = 0.0

    def __post_init__(self):
        if not self.p_peak >= self.p_offpeak >= 0:
            raise InputError("prices must satisfy p_peak >= p_offpeak >= 0")

    @property
    def p_delta(self) -> float:
        return self.p_peak - self.p_offpeak


@dataclass
class PricingResult:
    """Outcome of a tariff search.

    responses holds each individual user's profile at the chosen tariff and
    social_cost is their re-evaluated cost; trace records every evaluated
    candidate as (p_offpeak, p_delta, total cost) in evaluation order. At the
    chosen off-peak price, n_thresholds counts the threshold values collected
    before duplicates and near-duplicates are merged, n_candidates the price
    differences left after.
    """

    best_price: TouPrice
    scheme: str
    social_cost: SocialCostBreakdown
    responses: dict[str, ResponseProfile]
    trace: list[tuple[float, float, float]]
    scan_cost: float
    n_candidates: int
    n_thresholds: int
    n_evaluations: int
    epsilon: float


def _auto_epsilon(candidates: np.ndarray) -> float:
    if candidates.size < 2:
        return DEFAULT_EPSILON
    gap = float(np.diff(candidates).min())
    return min(DEFAULT_EPSILON, gap / 2.0)


def _merge_close(candidates: np.ndarray) -> np.ndarray:
    """Drop each candidate within 1e-9 relative of the last one kept.

    Mathematically equal thresholds of different entities can differ by
    float noise (same tail masses summed in another order); merging them
    keeps the auto-epsilon above representable spacing. Only the close gaps
    need the walk.
    """
    tol = 1e-9 * np.maximum(1.0, np.abs(candidates[1:]))
    keep = np.ones(candidates.size, dtype=bool)
    last = 0
    for i in (np.flatnonzero(np.diff(candidates) <= tol) + 1).tolist():
        if keep[i - 1]:
            last = i - 1
        keep[i] = candidates[i] - candidates[last] > tol[i - 1]
    return candidates[keep]


def _scan(events: _StepEvents, periods, supply, p_o: float, eps: float | None):
    candidates, n_thresholds = events.candidates(p_o)
    candidates = _merge_close(candidates)
    eps_used = _auto_epsilon(candidates) if eps is None else float(eps)
    if eps_used <= 0:
        raise InputError("epsilon must be > 0")
    p_deltas = candidates + eps_used
    totals = events.costs(p_deltas, p_o, periods, supply)
    trace = [(p_o, pd, t) for pd, t in zip(p_deltas.tolist(), totals.tolist())]
    # argmin keeps the first minimum: ties go to the smaller price difference
    best = int(np.argmin(totals))
    return trace[best][1], trace[best][2], trace, len(candidates), n_thresholds, eps_used


def user_specs_from_grouping(
    pricing_specs: Mapping[str, StorageSpec],
    user_scenarios: ScenarioSet,
    grouping: Mapping[str, str],
) -> dict[str, StorageSpec]:
    """Each user adopts the storage spec of its type."""
    specs = {}
    for entity in user_scenarios.entities:
        if entity not in grouping:
            raise InputError(f"grouping is missing user {entity!r}")
        t = grouping[entity]
        if t not in pricing_specs:
            raise InputError(f"no spec for type {t!r} of user {entity!r}")
        specs[entity] = pricing_specs[t]
    return specs


def _search(
    pricing_scenarios: ScenarioSet,
    pricing_specs: Mapping[str, StorageSpec],
    user_scenarios: ScenarioSet | None,
    grouping: Mapping[str, str] | None,
    periods: PeriodStructure,
    supply: SupplyCostParams,
    p_o_grid,
    eps: float | None,
    elastic_fraction: float,
) -> PricingResult:
    """Threshold scan at every off-peak price of the grid; the first cheapest
    (off-peak price, price difference) pair wins and is re-evaluated per user."""
    if not 0.0 <= elastic_fraction <= 1.0:
        raise InputError("elastic_fraction must be in [0, 1]")
    if user_scenarios is not None and grouping is None:
        raise InputError("a grouping is required with user scenarios")
    events = _StepEvents(pricing_scenarios, pricing_specs, elastic_fraction)
    best = None
    trace: list[tuple[float, float, float]] = []
    for p_o in p_o_grid:
        p_delta, cost, scan_trace, *counts = _scan(events, periods, supply, p_o, eps)
        trace.extend(scan_trace)
        if best is None or cost < best[2]:
            best = (p_o, p_delta, cost, *counts)
    p_o, p_delta, scan_cost, n_candidates, n_thresholds, eps_used = best
    price = TouPrice(p_o + p_delta, p_o)
    if user_scenarios is None:
        scheme, user_scenarios, user_specs = "pi", pricing_scenarios, pricing_specs
    else:
        scheme = "pt"
        user_specs = user_specs_from_grouping(pricing_specs, user_scenarios, grouping)
    responses = _respond_all(price, user_scenarios, user_specs, elastic_fraction)
    sc = social_cost(
        user_scenarios, user_specs, responses, periods, supply, check_feasibility=False
    )
    return PricingResult(
        best_price=price,
        scheme=scheme,
        social_cost=sc,
        responses=responses,
        trace=trace,
        scan_cost=scan_cost,
        n_candidates=n_candidates,
        n_thresholds=n_thresholds,
        n_evaluations=len(trace),
        epsilon=eps_used,
    )


def optimize_price_difference(
    pricing_scenarios: ScenarioSet,
    pricing_specs: Mapping[str, StorageSpec],
    user_scenarios: ScenarioSet | None,
    grouping: Mapping[str, str] | None,
    periods: PeriodStructure,
    supply: SupplyCostParams,
    eps: float | None = None,
    *,
    p_offpeak: float = 0.0,
    elastic_fraction: float = 0.0,
) -> PricingResult:
    """Threshold scan for the optimal price difference at a fixed off-peak price.

    When user_scenarios and grouping are given the scan runs on the pricing
    entities (types) while the reported social cost re-evaluates individual
    users' responses at the chosen tariff; otherwise pricing entities are the
    users themselves and the result is the individual-information scheme.

    Ties between equally cheap candidates resolve to the smaller price
    difference.
    """
    return _search(
        pricing_scenarios, pricing_specs, user_scenarios, grouping, periods, supply,
        [p_offpeak], eps, elastic_fraction,
    )


def optimize_prices_extended(
    pricing_scenarios: ScenarioSet,
    pricing_specs: Mapping[str, StorageSpec],
    user_scenarios: ScenarioSet | None,
    grouping: Mapping[str, str] | None,
    periods: PeriodStructure,
    supply: SupplyCostParams,
    p_o_range: tuple[float, float],
    p_o_steps: int,
    eps: float | None = None,
    *,
    elastic_fraction: float = 0.0,
) -> PricingResult:
    """Grid search over the off-peak price with a threshold scan per grid point.

    With imperfect efficiency the off-peak price enters each entity's
    investment decision, so the tariff search is two dimensional. Ties
    resolve to the lowest (off-peak price, price difference) pair.
    """
    lo, hi = float(p_o_range[0]), float(p_o_range[1])
    if lo < 0 or hi < lo:
        raise InputError("off-peak price range must satisfy 0 <= lo <= hi")
    if p_o_steps < 1:
        raise InputError("p_o_steps must be >= 1")
    grid = [float(p_o) for p_o in np.linspace(lo, hi, int(p_o_steps))]
    return _search(
        pricing_scenarios, pricing_specs, user_scenarios, grouping, periods, supply,
        grid, eps, elastic_fraction,
    )


def social_cost_curve(
    scenarios: ScenarioSet,
    specs: Mapping[str, StorageSpec],
    periods: PeriodStructure,
    supply: SupplyCostParams,
    p_deltas,
    p_offpeak: float = 0.0,
    elastic_fraction: float = 0.0,
) -> np.ndarray:
    """Vectorized total social cost over an array of price differences.

    Evaluates the same best responses as `respond` for every grid point; the
    tariff scan, dense sweeps, ratio maps and grid cross-checks all run on it.
    Long arrays are evaluated in blocks of _CURVE_BLOCK points, so memory
    stays O(block x outcomes) whatever the number of price differences.
    """
    pds = np.asarray(p_deltas, dtype=float)
    out = np.empty(pds.shape[0])
    for start in range(0, pds.shape[0], _CURVE_BLOCK):
        block = pds[start : start + _CURVE_BLOCK]
        out[start : start + block.shape[0]] = _curve_block(
            scenarios, specs, periods, supply, block, p_offpeak, elastic_fraction
        )
    return out


def _curve_block(scenarios, specs, periods, supply, pds, p_offpeak, elastic_fraction):
    n_grid = pds.shape[0]
    peak_load = np.repeat(scenarios.aggregate_peak()[None, :], n_grid, axis=0)
    off_load = np.repeat(scenarios.aggregate_offpeak()[None, :], n_grid, axis=0)
    investment = np.zeros(n_grid)
    degradation = np.zeros(n_grid)
    shift_cost = np.zeros(n_grid)
    probs = scenarios.probs
    for j, entity in enumerate(scenarios.entities):
        spec = specs[entity]
        peak = scenarios.peak[:, j]
        loss = spec.eta_c * spec.eta_d
        tr = equivalent_transform(spec, p_offpeak, pds)
        cap_sel, charge_sel = _sized(peak, probs, tr)
        q_sel = 0.0
        if spec.e_shift is not None:
            elastic = elastic_fraction * peak
            cap_q, charge_q = _sized(peak - elastic, probs, tr)
            mask = pds > spec.e_shift
            q_sel = np.where(mask[:, None], elastic[None, :], 0.0)
            cap_sel = np.where(mask, cap_q, cap_sel)
            charge_sel = np.where(mask[:, None], charge_q, charge_sel)
            shift_cost += spec.e_shift * (q_sel @ probs)
        peak_load -= q_sel + loss * charge_sel
        off_load += q_sel + charge_sel
        investment += spec.theta * spec.eta_c * cap_sel
        degradation += spec.tau * (1.0 + loss) * (charge_sel @ probs)
    per_outcome = two_period_supply_cost(peak_load, off_load, periods, supply)
    return investment + degradation + shift_cost + per_outcome @ probs


def _sized(residual, probs, tr):
    """Transformed capacity and per-outcome charges on residual peak demand,
    one row per transformed price difference in tr.p_delta."""
    dag = residual * tr.peak_scale
    order = np.argsort(dag, kind="stable")
    steps = np.concatenate(([0.0], dag[order]))
    cap_dag = steps[_steps_bought(probs[order], tr.theta, tr.p_delta)]
    return cap_dag, np.minimum(cap_dag[:, None], dag[None, :])


def evaluate_lambda(
    p_delta_grid,
    theta_bar_grid,
    scenarios: ScenarioSet,
    specs: Mapping[str, StorageSpec],
    periods: PeriodStructure,
    supply: SupplyCostParams,
    p_offpeak: float = 0.0,
    elastic_fraction: float = 0.0,
) -> np.ndarray:
    """Social cost relative to the no-storage cost over a price/cost grid.

    Entry [i, j] is the cost ratio at price difference p_delta_grid[i] with
    every entity's storage costs rescaled so their mean is theta_bar_grid[j]
    and the given share of peak demand elastic, as in social_cost_curve.
    The no-storage denominator is computed once.
    """
    pds = np.asarray(p_delta_grid, dtype=float)
    tbs = np.asarray(theta_bar_grid, dtype=float)
    if pds.size == 0 or tbs.size == 0:
        raise InputError("grids must be non-empty")
    if np.any(tbs <= 0):
        raise InputError("mean storage costs must be > 0")
    base_mean = float(np.mean([specs[e].theta for e in scenarios.entities]))
    out = np.empty((pds.size, tbs.size))
    denom = None
    for jj, tb in enumerate(tbs):
        scale = tb / base_mean
        scaled = {
            e: replace(
                specs[e],
                theta=specs[e].theta * scale,
                e_shift=None if specs[e].e_shift is None else specs[e].e_shift * scale,
            )
            for e in scenarios.entities
        }
        # Evaluating the no-shift point through the same vectorized call keeps
        # the denominator bit-identical to the zero-response numerator.
        totals = social_cost_curve(
            scenarios,
            scaled,
            periods,
            supply,
            np.concatenate(([0.0], pds)),
            p_offpeak,
            elastic_fraction,
        )
        if denom is None:
            denom = float(totals[0])
            if denom <= 0:
                raise InputError("no-storage cost is zero; lambda is undefined")
        out[:, jj] = totals[1:]
    return out / denom
