"""Utility-side tariff optimization by threshold search.

The social cost induced by storage best responses is piecewise constant in
the peak/off-peak price difference, jumping only where some entity's optimal
capacity jumps. The optimizer therefore collects every entity's candidate
thresholds, evaluates the social cost a hair above each one and keeps the
cheapest, which is exact for discrete demand distributions. The candidates
and their costs come from the event sweep of `toudesign.scan`, over the
whole instance at once; the chosen tariff's responses come from its array
form of `respond`, which stays the scalar reference, and are costed on
those arrays. `social_cost_curve` here re-sizes every entity at every price
difference and stays the independent reference behind the grid checks and
the lambda map. Each entity's whole response model, elastic share
included, comes from its `StorageSpec`. Pricing can be driven by per-type
aggregates (the realistic information set) or by per-user data; in the
type-based scheme the reported cost re-evaluates each individual user's
response to the chosen tariff.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .costs import (
    SocialCostBreakdown,
    SupplyCostParams,
    _social_cost_arrays,
    two_period_supply_cost,
)
from .demand import PeriodStructure, ScenarioSet
from .errors import InputError
from .response import (
    ResponseProfile,
    StorageSpec,
    _SpecArrays,
    _steps_bought,
    equivalent_transform,
)
from .scan import _CURVE_BLOCK, _best_responses, _StepEvents

DEFAULT_EPSILON = 1e-6


@dataclass(frozen=True)
class TouPrice:
    """Peak and off-peak energy prices in $/MWh."""

    p_peak: float
    p_offpeak: float = 0.0

    def __post_init__(self):
        if not np.inf > self.p_peak >= self.p_offpeak >= 0:
            raise InputError("prices must be finite and satisfy p_peak >= p_offpeak >= 0")

    @property
    def p_delta(self) -> float:
        return self.p_peak - self.p_offpeak


@dataclass
class PricingResult:
    """Outcome of a tariff search.

    responses holds each individual user's profile at the chosen tariff and
    social_cost is their re-evaluated cost; trace records every evaluated
    candidate as (p_offpeak, p_delta, total cost) in evaluation order, at the
    chosen off-peak price, and n_evaluations counts them. n_thresholds counts
    the threshold values collected before duplicates and near-duplicates are
    merged, n_candidates the price differences left after, each evaluated once.
    """

    best_price: TouPrice
    scheme: str
    social_cost: SocialCostBreakdown
    responses: dict[str, ResponseProfile]
    trace: list[tuple[float, float, float]]
    scan_cost: float
    n_candidates: int
    n_thresholds: int
    epsilon: float

    @property
    def n_evaluations(self) -> int:
        return len(self.trace)


def _auto_epsilon(candidates: np.ndarray) -> float:
    # Rungs within 1e-9 of zero (storage costs that small) merge into the
    # zero candidate and leave no gap.
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
    p_o_range: tuple[float, float],
    p_o_steps: int,
) -> PricingResult:
    """One threshold scan at the off-peak grid's low end, once the grouping
    and a grid of several prices are checked; the first cheapest price
    difference wins and is re-evaluated per user. Both public entry points
    call this directly, so a tracer wrapping both sees a search once."""
    lo, hi = float(p_o_range[0]), float(p_o_range[1])
    if not 0 <= lo <= hi < np.inf:
        raise InputError("off-peak price range must satisfy 0 <= lo <= hi < inf")
    if p_o_steps < 1:
        raise InputError("p_o_steps must be >= 1")
    if user_scenarios is None:
        scheme, user_scenarios = "pi", pricing_scenarios
    elif grouping is None:
        raise InputError("a grouping is required with user scenarios")
    else:
        scheme = "pt"
        user_specs = user_specs_from_grouping(pricing_specs, user_scenarios, grouping)
        user_arr = _SpecArrays.of(user_specs.values())
    events = _StepEvents(pricing_scenarios, pricing_specs)
    if scheme == "pi":
        user_arr = events.arr  # the users' own specs, in their order
    (spec, _), *mixed = events.transforms
    lossy = (spec.eta_c, spec.eta_d, spec.tau) != (1.0, 1.0, 0.0)
    late = events.arr.e_shift[events.elastic].max(initial=0.0) >= events.arr.theta.min()
    if p_o_steps > 1 and hi > lo and (mixed or lossy and late):
        raise InputError(
            "an off-peak grid needs one storage technology (eta_c, eta_d, tau) and, "
            "if lossy or degrading, every e_shift below the cheapest theta"
        )
    raw, n_thresholds = events.candidates(lo)
    candidates = _merge_close(raw)
    eps = _auto_epsilon(candidates)
    p_deltas = candidates + eps
    totals = events.costs(p_deltas, lo, periods, supply)
    # argmin keeps the first minimum: ties go to the smaller price difference
    best = int(np.argmin(totals))
    price = TouPrice(lo + float(p_deltas[best]), lo)
    caps, charge, shifted = _best_responses(price, user_scenarios, user_arr)
    sc = _social_cost_arrays(user_scenarios, user_arr, caps, charge, shifted, periods, supply)
    return PricingResult(
        best_price=price,
        scheme=scheme,
        social_cost=sc,
        responses=ResponseProfile._batch(user_scenarios.entities, caps, charge.T, shifted.T),
        trace=[(lo, pd, t) for pd, t in zip(p_deltas.tolist(), totals.tolist())],
        scan_cost=float(totals[best]),
        n_candidates=len(candidates),
        n_thresholds=n_thresholds,
        epsilon=eps,
    )


def optimize_price_difference(
    pricing_scenarios: ScenarioSet,
    pricing_specs: Mapping[str, StorageSpec],
    user_scenarios: ScenarioSet | None,
    grouping: Mapping[str, str] | None,
    periods: PeriodStructure,
    supply: SupplyCostParams,
    *,
    p_offpeak: float = 0.0,
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
        (p_offpeak, p_offpeak), 1,
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
) -> PricingResult:
    """Tariff search over an off-peak price grid: one threshold scan at its low end.

    An owner sees the prices only through l * p_delta - (1 - l) * p_offpeak
    - tau * (1 + l), l = eta_c * eta_d, and shifts elastic demand above its
    e_shift, while its capacity steps lie at p_delta >= theta / eta_d >= theta.
    With one (eta_c, eta_d, tau), lossless or with every e_shift below the
    cheapest theta, each off-peak price reaches the same responses in the same
    order at the same costs, so the low end wins. A grid of several prices on
    other specs raises InputError; scan their off-peak prices one at a time
    with `optimize_price_difference`. Ties go to the smaller price difference.
    """
    return _search(
        pricing_scenarios, pricing_specs, user_scenarios, grouping, periods, supply,
        p_o_range, p_o_steps,
    )


def social_cost_curve(
    scenarios: ScenarioSet,
    specs: Mapping[str, StorageSpec],
    periods: PeriodStructure,
    supply: SupplyCostParams,
    p_deltas,
    p_offpeak: float = 0.0,
) -> np.ndarray:
    """Vectorized total social cost over an array of price differences.

    Evaluates the same best responses as `respond` for every grid point, one
    entity at a time. It is the reference the event sweep of the tariff scan
    is checked against: the dense-grid check and the lambda map run on it.
    Long arrays are evaluated in blocks of _CURVE_BLOCK points, so memory
    stays O(block x outcomes) whatever the number of price differences.
    """
    spec_list = scenarios.per_entity(specs, "storage specs")
    pds = np.asarray(p_deltas, dtype=float)
    out = np.empty(pds.shape[0])
    for start in range(0, pds.shape[0], _CURVE_BLOCK):
        block = pds[start : start + _CURVE_BLOCK]
        out[start : start + block.shape[0]] = _curve_block(
            scenarios, spec_list, periods, supply, block, p_offpeak
        )
    return out


def _curve_block(scenarios, spec_list, periods, supply, pds, p_offpeak):
    n_grid = pds.shape[0]
    peak_load = np.repeat(scenarios.aggregate_peak()[None, :], n_grid, axis=0)
    off_load = np.repeat(scenarios.aggregate_offpeak()[None, :], n_grid, axis=0)
    investment = np.zeros(n_grid)
    degradation = np.zeros(n_grid)
    shift_cost = np.zeros(n_grid)
    probs = scenarios.probs
    for j, spec in enumerate(spec_list):
        peak = scenarios.peak[:, j]
        loss = spec.eta_c * spec.eta_d
        tr = equivalent_transform(spec, p_offpeak, pds)
        cap_sel, charge_sel = _sized(peak, probs, tr)
        q_sel = 0.0
        if spec.e_shift is not None:
            elastic = spec.elastic_fraction * peak
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
) -> np.ndarray:
    """Social cost relative to the no-storage cost over a price/cost grid.

    Entry [i, j] is the cost ratio at price difference p_delta_grid[i] with
    every entity's storage and shift costs rescaled so their mean storage
    cost is theta_bar_grid[j], as in social_cost_curve; each entity keeps
    its spec's efficiencies, degradation cost and elastic share. The
    no-storage denominator is computed once.
    """
    pds = np.asarray(p_delta_grid, dtype=float)
    tbs = np.asarray(theta_bar_grid, dtype=float)
    if pds.size == 0 or tbs.size == 0:
        raise InputError("grids must be non-empty")
    if not np.isfinite(pds).all():
        raise InputError("price differences must be finite")
    if not np.all(np.isfinite(tbs) & (tbs > 0)):
        raise InputError("mean storage costs must be finite and > 0")
    spec_list = scenarios.per_entity(specs, "storage specs")
    base_mean = float(np.mean([s.theta for s in spec_list]))
    out = np.empty((pds.size, tbs.size))
    denom = None
    for jj, tb in enumerate(tbs):
        scale = tb / base_mean
        scaled = {
            e: replace(
                s,
                theta=s.theta * scale,
                e_shift=None if s.e_shift is None else s.e_shift * scale,
            )
            for e, s in zip(scenarios.entities, spec_list)
        }
        # Evaluating the no-shift point through the same vectorized call keeps
        # the denominator bit-identical to the zero-response numerator.
        totals = social_cost_curve(
            scenarios, scaled, periods, supply, np.concatenate(([0.0], pds)), p_offpeak
        )
        if denom is None:
            denom = float(totals[0])
            if denom <= 0:
                raise InputError("no-storage cost is zero; lambda is undefined")
        out[:, jj] = totals[1:]
    return out / denom
