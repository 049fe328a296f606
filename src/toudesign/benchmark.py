"""Complete-information social planner benchmark and audit tools.

The planner picks per-user storage capacities and daily dispatch to minimize
investment plus expected supply cost. For any capacities the per-outcome
dispatch problem only depends on the aggregate charge, whose optimum has a
closed form: equalize the average power of the two periods, clamped to the
available charging headroom. That reduces the planner problem to a convex
piecewise-quadratic program in the capacities alone, solved here by cyclic
coordinate descent with exact one-dimensional minimization. Each coordinate
step is one sorted pass over the breakpoints of that capacity's derivative,
and the aggregate headroom is kept incrementally, re-summed once per sweep.
The marginal value of aggregate headroom is continuous, so coordinate-wise
optimality is global optimality for this objective; every plan reports the
largest violated one-sided partial derivative as an optimality certificate.

Also provided: the zero-cost closed form, ratio reports against the pricing
schemes and investment-structure validators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .costs import (
    SocialCostBreakdown,
    SupplyCostParams,
    social_cost,
    two_period_supply_cost,
)
from .demand import PeriodStructure, ScenarioSet
from .errors import ConvergenceError, InputError, OrderingViolationError
from .response import ResponseProfile, StorageSpec

ORDERING_TOL = 1e-9


@dataclass(frozen=True)
class SolverSettings:
    tolerance: float = 1e-11
    max_iterations: int = 10_000

    def __post_init__(self):
        if not 0 < self.tolerance < np.inf:
            raise InputError("tolerance must be finite and > 0")
        if self.max_iterations < 1:
            raise InputError("max_iterations must be >= 1")


@dataclass
class SocialPlan:
    """Planner solution: per-user capacities, per-outcome charges, cost.

    optimality_residual is the largest violated one-sided partial derivative
    of the planner objective at the capacities (zero at an exact optimum),
    in the cost unit of the storage costs.
    """

    capacities: dict[str, float]
    charges: dict[str, np.ndarray]
    social_cost: SocialCostBreakdown
    iterations: int = 0
    optimality_residual: float = math.nan


@dataclass(frozen=True)
class RatioReport:
    """Social costs of each scheme; each kappa is a cost over the planner's."""

    sc_pt: float
    sc_pi: float
    sc_so: float
    sc_no: float

    @property
    def kappa_pt(self) -> float:
        return self.sc_pt / self.sc_so

    @property
    def kappa_pi(self) -> float:
        return self.sc_pi / self.sc_so

    @property
    def kappa_no(self) -> float:
        return self.sc_no / self.sc_so


@dataclass
class StructureReport:
    """Violated structure rules; the structure holds when there are none."""

    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def _lossless_specs(thetas: Mapping[str, float]) -> dict[str, StorageSpec]:
    return {e: StorageSpec(theta=t) for e, t in thetas.items()}


def _shift_targets(scenarios: ScenarioSet, periods: PeriodStructure) -> np.ndarray:
    """Unconstrained cost-minimizing aggregate charge per outcome."""
    return (
        periods.h_offpeak * scenarios.aggregate_peak()
        - periods.h_peak * scenarios.aggregate_offpeak()
    ) / (periods.h_peak + periods.h_offpeak)


def _supply_slope(
    scenarios: ScenarioSet, periods: PeriodStructure, supply: SupplyCostParams
) -> tuple[np.ndarray, float]:
    """Marginal supply saving of aggregate charge S, as slope0 + curvature * S.

    d/dS [g_p(Ap - S) + g_o(Ao + S)] per outcome; it is zero at the shift
    target.
    """
    curvature = 2.0 * supply.alpha * (1.0 / periods.h_peak + 1.0 / periods.h_offpeak)
    slope0 = 2.0 * supply.alpha * (
        scenarios.aggregate_offpeak() / periods.h_offpeak
        - scenarios.aggregate_peak() / periods.h_peak
    )
    return slope0, curvature


def _greedy_charges(
    capacities: np.ndarray, peak: np.ndarray, total_shift: np.ndarray
) -> np.ndarray:
    """Split each outcome's aggregate charge among users in index order.

    Each user takes what is left after the users before it, up to its own
    bound min(capacity, peak demand). Any feasible split yields the same
    supply cost because only the sum enters it.
    """
    bound = np.minimum(capacities[None, :], peak)
    before = np.cumsum(bound, axis=1) - bound
    return np.clip(total_shift[:, None] - before, 0.0, bound)


def _plan_from_capacities(
    scenarios: ScenarioSet,
    thetas: Mapping[str, float],
    periods: PeriodStructure,
    supply: SupplyCostParams,
    capacities: np.ndarray,
    iterations: int,
) -> SocialPlan:
    targets = _shift_targets(scenarios, periods)
    headroom = np.minimum(capacities[None, :], scenarios.peak).sum(axis=1)
    total_shift = np.clip(targets, 0.0, headroom)
    charges = _greedy_charges(capacities, scenarios.peak, total_shift)
    thetas_arr = np.array([float(thetas[e]) for e in scenarios.entities])
    residual = _optimality_residual(
        scenarios, thetas_arr, periods, supply, capacities, headroom
    )
    specs = _lossless_specs(thetas)
    responses = {
        e: ResponseProfile(
            capacity=float(capacities[j]),
            charge=charges[:, j],
            shifted=np.zeros(scenarios.n_outcomes),
        )
        for j, e in enumerate(scenarios.entities)
    }
    breakdown = social_cost(
        scenarios, specs, responses, periods, supply, check_feasibility=False
    )
    return SocialPlan(
        capacities={e: float(capacities[j]) for j, e in enumerate(scenarios.entities)},
        charges={e: charges[:, j] for j, e in enumerate(scenarios.entities)},
        social_cost=breakdown,
        iterations=iterations,
        optimality_residual=residual,
    )


def _objective(scenarios, thetas_arr, periods, supply):
    """The planner objective as a function of the capacities; the shift
    targets and aggregate loads it needs are computed once, here."""
    targets = _shift_targets(scenarios, periods)
    agg_peak, agg_offpeak = scenarios.aggregate_peak(), scenarios.aggregate_offpeak()

    def objective(capacities: np.ndarray) -> float:
        headroom = np.minimum(capacities[None, :], scenarios.peak).sum(axis=1)
        shift = np.clip(targets, 0.0, headroom)
        per_outcome = two_period_supply_cost(agg_peak - shift, agg_offpeak + shift, periods, supply)
        return float(thetas_arr @ capacities + scenarios.probs @ per_outcome)

    return objective


def _optimality_residual(
    scenarios: ScenarioSet,
    thetas_arr: np.ndarray,
    periods: PeriodStructure,
    supply: SupplyCostParams,
    capacities: np.ndarray,
    headroom: np.ndarray,
) -> float:
    """Largest violated one-sided partial derivative of the planner objective.

    Each kink of min(c_i, d_wi) involves one capacity and the clipped supply
    term is continuously differentiable in the aggregate headroom, so the
    directional derivative is separable and the capacities are optimal
    exactly when every right derivative is >= 0 and, where c_i > 0, every
    left derivative is <= 0 (Tseng 2001, JOTA 109(3)).
    """
    slope0, curvature = _supply_slope(scenarios, periods, supply)
    saving = scenarios.probs * np.minimum(0.0, slope0 + curvature * headroom)
    right = thetas_arr + saving @ (scenarios.peak > capacities)
    left = thetas_arr + saving @ (scenarios.peak >= capacities)
    violations = np.concatenate(([0.0], -right, left[capacities > 0.0]))
    return float(violations.max())


def _coordinate_minimum(
    theta_i: float,
    demand_i: np.ndarray,
    rest: np.ndarray,
    probs: np.ndarray,
    slope0: np.ndarray,
    curvature: float,
    targets: np.ndarray,
) -> float:
    """Exact minimizer of the planner objective along one capacity.

    The right derivative at t is theta_i plus the probability-weighted
    marginal supply saving of the outcomes where extra capacity still binds:
    the sum over cap_w > t of p_w (slope0_w + curvature (rest_w + t)), where
    cap_w = min(demand, shift target - rest) is the outcome's breakpoint.
    It is non-decreasing and piecewise linear, so one sorted pass finds the
    minimizer: suffix sums over the sorted breakpoints give the linear piece
    ending at each of them. The minimizer lies on the first piece whose
    derivative reaches zero by its right end: it is the piece's left end if
    the derivative, which jumps up at breakpoints, is already >= 0 there,
    else the root of the piece. Breakpoints <= 0 are never active for t >= 0
    and are dropped. A tied breakpoint starts a piece of zero length, which
    can only return that breakpoint, so ties need no special case.
    """
    caps = np.minimum(demand_i, targets - rest)
    terms = probs * (slope0 + curvature * rest)
    active = caps > 0.0
    if theta_i + terms @ active >= 0.0:
        return 0.0
    order = caps.argsort()[caps.size - np.count_nonzero(active):]
    caps = caps[order]
    # Piece k runs from caps[k - 1] (0 for k = 0) to caps[k]; on it the
    # derivative is theta_i + offset[k] + slope[k] * t.
    offset = terms[order][::-1].cumsum()[::-1]
    slope = curvature * probs[order][::-1].cumsum()[::-1]
    reaches = offset + slope * caps >= -theta_i
    k = int(reaches.argmax())
    if not reaches[k]:
        return float(caps[-1])
    start = caps[k - 1] if k else 0.0
    at_start = theta_i + offset[k] + slope[k] * start
    if at_start >= 0.0:
        return float(start)
    return float(min(caps[k], start - at_start / slope[k]))


def solve_so(
    scenarios: ScenarioSet,
    thetas: Mapping[str, float],
    periods: PeriodStructure,
    supply: SupplyCostParams,
    settings: SolverSettings | None = None,
) -> SocialPlan:
    """Minimize investment plus expected supply cost over per-user capacities.

    Cyclic exact coordinate descent on the capacity vector; the per-outcome
    aggregate charge is always the closed-form clamped optimum. Each
    coordinate step is one sorted pass over its breakpoints
    (_coordinate_minimum) against the aggregate headroom of the other users,
    which is updated in place after every step and re-summed at the start of
    each sweep so rounding cannot drift. The loop stops when the objective
    stalls; the returned plan carries the optimality residual of its final
    capacities. Raises ConvergenceError carrying the best incumbent if the
    objective has not stalled within max_iterations sweeps.

    The planner sees only each user's storage cost theta: it sizes lossless,
    non-degrading storage on inelastic demand, whatever the efficiency,
    degradation or elastic share the tariff schemes are evaluated with.
    """
    settings = settings or SolverSettings()
    missing = [e for e in scenarios.entities if e not in thetas]
    if missing:
        raise InputError(f"missing storage costs for {missing}")
    thetas_arr = np.array([float(thetas[e]) for e in scenarios.entities])
    if np.any(thetas_arr <= 0):
        raise InputError("storage costs must be > 0")
    probs = scenarios.probs
    targets = _shift_targets(scenarios, periods)
    slope0, curvature = _supply_slope(scenarios, periods, supply)
    n_users = scenarios.n_entities
    capacities = np.zeros(n_users)
    # One row per user: its demand and its share min(c_i, d_wi) of headroom.
    demand = np.ascontiguousarray(scenarios.peak.T)
    bound = np.zeros_like(demand)
    users = list(enumerate(zip(thetas_arr.tolist(), demand, bound)))
    objective = _objective(scenarios, thetas_arr, periods, supply)
    obj = objective(capacities)
    converged = False
    sweeps = 0
    for sweeps in range(1, settings.max_iterations + 1):
        moved = 0.0
        total = bound.sum(axis=0)
        for i, (theta_i, demand_i, bound_i) in users:
            rest = total - bound_i
            new_c = _coordinate_minimum(
                theta_i, demand_i, rest, probs, slope0, curvature, targets
            )
            moved = max(moved, abs(new_c - capacities[i]))
            capacities[i] = new_c
            np.minimum(new_c, demand_i, out=bound_i)
            np.add(rest, bound_i, out=total)
        new_obj = objective(capacities)
        stalled = abs(obj - new_obj) <= settings.tolerance * max(1.0, abs(new_obj))
        obj = new_obj
        if moved == 0.0 or stalled:
            converged = True
            break
    plan = _plan_from_capacities(
        scenarios, thetas, periods, supply, capacities, sweeps
    )
    if not converged:
        raise ConvergenceError(
            f"planner did not converge within {settings.max_iterations} sweeps",
            best=plan,
        )
    return plan


def so_zero_cost(
    scenarios: ScenarioSet, periods: PeriodStructure, supply: SupplyCostParams
) -> tuple[np.ndarray, float]:
    """Closed-form planner outcome when capacity is free.

    The aggregate charge flattens average power across the two periods,
    clamped at zero if the off-peak period is already the busier one.
    Returns the per-outcome aggregate shift and the expected supply cost.
    """
    shift = np.maximum(_shift_targets(scenarios, periods), 0.0)
    peak, offpeak = scenarios.aggregate_peak() - shift, scenarios.aggregate_offpeak() + shift
    per_outcome = two_period_supply_cost(peak, offpeak, periods, supply)
    return shift, float(scenarios.probs @ per_outcome)


def compute_ratios(
    sc_pt: float, sc_pi: float, sc_so: float, sc_no: float
) -> RatioReport:
    """Cost ratios of each scheme against the planner optimum.

    The type-based cost must dominate the individual-based cost, which must
    dominate the planner cost; a non-finite cost or a violation beyond
    tolerance is raised as a bug rather than reported.
    """
    costs = f"pt={sc_pt!r} pi={sc_pi!r} so={sc_so!r} no={sc_no!r}"
    if not all(map(math.isfinite, (sc_pt, sc_pi, sc_so, sc_no))):
        raise OrderingViolationError(f"non-finite cost: {costs}")
    if not sc_so > 0:
        raise InputError("planner cost must be > 0")
    tol = ORDERING_TOL * max(1.0, abs(sc_so))
    if sc_pt < sc_pi - tol or sc_pi < sc_so - tol or sc_no < sc_so - tol:
        raise OrderingViolationError(f"cost ordering violated: {costs}")
    return RatioReport(sc_pt=sc_pt, sc_pi=sc_pi, sc_so=sc_so, sc_no=sc_no)


def _validate_structure(
    capacities: Mapping[str, float],
    thetas: Mapping[str, float],
    scenarios: ScenarioSet,
    boundary_class: bool,
) -> StructureReport:
    atol = 1e-7 * max(1.0, float(scenarios.peak.max()))
    violations = []
    invested = {}
    exempt = set()
    support = {e: scenarios.peak_support(e) for e in scenarios.entities}
    for e in scenarios.entities:
        c = capacities[e]
        lo, hi = support[e]
        invested[e] = c > atol
        if lo <= atol:
            exempt.add(e)
        if c > hi + atol:
            violations.append(f"user {e}: capacity {c} above max peak support {hi}")
    investor_costs = sorted({thetas[e] for e, inv in invested.items() if inv})
    if investor_costs:
        boundary = investor_costs[-1]
        for cost in sorted({thetas[e] for e in invested}):
            if cost >= boundary or cost in investor_costs:
                continue
            users = [e for e in invested if thetas[e] == cost and e not in exempt]
            if users:
                violations.append(
                    f"cost level {cost} below invested level {boundary} has no investor "
                    f"(users {users})"
                )
        for e in scenarios.entities:
            c = capacities[e]
            lo = support[e][0]
            # A boundary class may size anywhere, so only costs below it count.
            below = thetas[e] < boundary if boundary_class else thetas[e] <= boundary
            if below and e not in exempt and c < lo - atol:
                what = (
                    "non-boundary investor capacity"
                    if boundary_class
                    else f"invested cost level {thetas[e]} but capacity"
                )
                violations.append(f"user {e}: {what} {c} below min peak support {lo}")
    return StructureReport(violations)


def validate_structure_so(
    plan: SocialPlan,
    thetas: Mapping[str, float],
    scenarios: ScenarioSet,
) -> StructureReport:
    """Check a planner solution against the three-class investment structure.

    Investors must hold the lowest distinct storage costs; investors below
    the boundary cost must size within their peak-demand support; users above
    the boundary cost hold nothing by definition of the boundary. Users whose
    lower peak support is zero are exempt from the prefix requirement since
    extra capacity can be worthless to them regardless of cost.
    """
    return _validate_structure(plan.capacities, thetas, scenarios, True)


def validate_structure_pricing(
    responses: Mapping[str, ResponseProfile],
    thetas: Mapping[str, float],
    scenarios: ScenarioSet,
) -> StructureReport:
    """Check tariff-induced investments for the two-class structure.

    Same cost-prefix requirement as the planner check, but with no boundary
    class: every user at an invested cost level must size within its peak
    support (users with zero lower support exempt from the lower bound).
    """
    capacities = {e: r.capacity for e, r in responses.items()}
    return _validate_structure(capacities, thetas, scenarios, False)
