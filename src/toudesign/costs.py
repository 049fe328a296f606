"""Monetary primitives: annuitized storage cost, quadratic supply cost and
the social-cost evaluator.

All costs are in dollars per day and all energies in MWh. The supply model
approximates each period by constant power, so the cost of serving load L
over H hours is H * g(L / H) with g the hourly quadratic generation cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .demand import HourlyLoadTable, PeriodStructure, ScenarioSet
from .errors import InfeasibleResponseError, InputError
from .response import ResponseProfile, StorageSpec, _SpecArrays


@dataclass(frozen=True)
class AnnuityParams:
    """Annual interest rate, horizon in years and days counted per year."""

    rate: float
    years: float
    days_per_year: float = 365.0

    def __post_init__(self):
        if self.rate < 0 or not math.isfinite(self.rate):
            raise InputError("interest rate must be finite and >= 0")
        if not (1 <= self.years < math.inf and 1 <= self.days_per_year < math.inf):
            raise InputError("years and days_per_year must be finite and >= 1")


@dataclass(frozen=True)
class SupplyCostParams:
    """Hourly generation cost g(p) = alpha p^2 + beta p + gamma."""

    alpha: float
    beta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.alpha, self.beta, self.gamma))):
            raise InputError("alpha, beta and gamma must be finite")
        if self.alpha <= 0:
            raise InputError("alpha must be > 0")
        if self.beta < 0 or self.gamma < 0:
            raise InputError("beta and gamma must be >= 0")


@dataclass(frozen=True)
class SocialCostBreakdown:
    """Daily social cost split into its components; total is their sum.

    shift_cost is the inconvenience cost of moved elastic demand; it is zero
    in the plain inelastic model.
    """

    investment_cost: float
    degradation_cost: float
    shift_cost: float
    expected_supply_cost: float

    @property
    def total(self) -> float:
        return (
            self.investment_cost
            + self.degradation_cost
            + self.shift_cost
            + self.expected_supply_cost
        )


def daily_cost_factor(p: AnnuityParams) -> float:
    """Factor converting a one-time capital cost into an equivalent daily cost.

    Annuitizes the capital over `years` at the given rate and spreads each
    annual payment evenly over the days of the year. At zero interest this
    is simply 1 / (years * days_per_year).
    """
    if p.rate == 0:
        return 1.0 / (p.years * p.days_per_year)
    growth = (1.0 + p.rate) ** p.years
    return p.rate * growth / (growth - 1.0) / p.days_per_year


def supply_cost_period(load, hours: float, params: SupplyCostParams):
    """Total supply cost of serving `load` MWh spread evenly over `hours`."""
    if hours < 1:
        raise InputError("a period must contain at least one hour")
    load = np.asarray(load, dtype=float)
    cost = (params.alpha / hours) * load**2 + params.beta * load + params.gamma * hours
    return float(cost) if cost.ndim == 0 else cost


def two_period_supply_cost(
    peak_load, offpeak_load, periods: PeriodStructure, params: SupplyCostParams
):
    """Supply cost of serving peak and off-peak energy, each period at
    constant power."""
    return supply_cost_period(peak_load, periods.h_peak, params) + supply_cost_period(
        offpeak_load, periods.h_offpeak, params
    )


def _response_arrays(scenarios: ScenarioSet, responses: Mapping[str, ResponseProfile]):
    n = scenarios.n_outcomes
    caps = np.zeros(scenarios.n_entities)
    charge = np.zeros((n, scenarios.n_entities))
    shifted = np.zeros_like(charge)
    profiles = scenarios.per_entity(responses, "responses")
    for j, (entity, profile) in enumerate(zip(scenarios.entities, profiles)):
        s = np.asarray(profile.charge, dtype=float)
        q = np.asarray(profile.shifted, dtype=float)
        if s.shape != (n,) or q.shape != (n,):
            raise InputError(
                f"response for entity {entity!r} must cover all {n} outcomes"
            )
        caps[j] = profile.capacity
        charge[:, j] = s
        shifted[:, j] = q
    return caps, charge, shifted


def _check_feasible(scenarios, arr, caps, charge, shifted):
    """Raise for the first infeasible cell, entity by entity, then outcome by
    outcome, then in the order of the checks below."""
    scale = max(1.0, float(scenarios.peak.max()), float(caps.max(initial=0.0)))
    tol = 1e-9 * scale
    eta_c, loss = arr.eta_c, arr.eta_c * arr.eta_d
    peak = scenarios.peak
    violations = np.stack((
        charge < -tol,
        shifted < -tol,
        np.isnan(arr.e_shift) & (shifted > tol),
        shifted > peak + tol,
        eta_c * charge > caps + tol,
        loss * charge > peak - shifted + tol,
    ))  # (check, outcome, entity)
    cells = violations.any(axis=0).T
    if not cells.any():
        return
    j, w = np.unravel_index(int(cells.argmax()), cells.shape)
    check = int(violations[:, w, j].argmax())
    s, q, d = charge[w, j], shifted[w, j], peak[w, j]
    details = (
        f"negative charge {s}",
        f"negative shift {q}",
        "shifted demand without an elastic-shift cost",
        f"shift {q} exceeds peak demand {d}",
        f"stored energy {eta_c[j] * s} exceeds capacity {caps[j]}",
        f"discharge {loss[j] * s} exceeds residual peak demand {d - q}",
    )
    raise InfeasibleResponseError(scenarios.entities[j], int(w), details[check])


def social_cost(
    scenarios: ScenarioSet,
    specs: Mapping[str, StorageSpec],
    responses: Mapping[str, ResponseProfile],
    periods: PeriodStructure,
    supply: SupplyCostParams,
    check_feasibility: bool = True,
) -> SocialCostBreakdown:
    """Daily social cost of a set of storage responses.

    The profile-level front of `_social_cost_arrays`: it stacks the
    entities' specs and profiles into arrays and, unless told not to, checks
    every response for feasibility first.
    """
    arr = _SpecArrays.of(scenarios.per_entity(specs, "storage specs"))
    caps, charge, shifted = _response_arrays(scenarios, responses)
    if check_feasibility:
        _check_feasible(scenarios, arr, caps, charge, shifted)
    return _social_cost_arrays(scenarios, arr, caps, charge, shifted, periods, supply)


def _social_cost_arrays(
    scenarios: ScenarioSet,
    arr: _SpecArrays,
    caps: np.ndarray,
    charge: np.ndarray,
    shifted: np.ndarray,
    periods: PeriodStructure,
    supply: SupplyCostParams,
) -> SocialCostBreakdown:
    """Daily social cost of entities with the storage specs arr, capacities
    caps and (outcome x entity) charges and shifts.

    Sums the investment cost of installed capacity, the expected degradation
    cost of cycling, the expected inconvenience cost of shifted elastic
    demand and the expected supply cost of the resulting system load. The
    supply cost only depends on charges through their entity sum.
    """
    losses = arr.eta_c * arr.eta_d
    peak_load = (scenarios.peak - shifted - losses * charge).sum(axis=1)
    off_load = (scenarios.offpeak + shifted + charge).sum(axis=1)
    per_outcome = two_period_supply_cost(peak_load, off_load, periods, supply)
    expected_supply = float(scenarios.probs @ per_outcome)
    investment = float(arr.theta @ caps)
    degradation = float(scenarios.probs @ (charge @ (arr.tau * (1.0 + losses))))
    shift_cost = float(scenarios.probs @ (shifted @ np.nan_to_num(arr.e_shift)))
    return SocialCostBreakdown(investment, degradation, shift_cost, expected_supply)


def no_storage_cost(
    scenarios: ScenarioSet, periods: PeriodStructure, supply: SupplyCostParams
) -> SocialCostBreakdown:
    """Social cost with no storage and no demand shifting at all."""
    per_outcome = two_period_supply_cost(
        scenarios.aggregate_peak(), scenarios.aggregate_offpeak(), periods, supply
    )
    return SocialCostBreakdown(0.0, 0.0, 0.0, float(scenarios.probs @ per_outcome))


def approximation_gap(
    table: HourlyLoadTable, periods: PeriodStructure, supply: SupplyCostParams
) -> float:
    """Relative supply-cost error of the constant-power period approximation.

    Compares the expected daily supply cost computed from the hourly load
    profile against the cost computed from the peak and off-peak totals
    served at constant power.
    """
    windows = [sorted(periods.peak_hours), sorted(periods.offpeak_hours)]
    profile = table.net.sum(axis=1)  # system net load, one row per day
    hourly = supply.alpha * profile**2 + supply.beta * profile + supply.gamma
    hourly_total = float(hourly.sum(axis=1).mean())
    period_total = float(
        sum(
            supply_cost_period(profile[:, window].sum(axis=1), len(window), supply)
            for window in windows
        ).mean()
    )
    if hourly_total == 0:
        raise InputError("hourly supply cost is zero; the gap is undefined")
    return abs(period_total - hourly_total) / hourly_total
