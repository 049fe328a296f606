"""Complete-information social planner benchmark and audit tools.

The planner picks per-user storage capacities and daily dispatch to minimize
investment plus expected supply cost. For any capacities the per-outcome
dispatch problem only depends on the aggregate charge, whose optimum has a
closed form: equalize the average power of the two periods, clamped to the
available charging headroom. That reduces the planner problem to a convex
piecewise-quadratic program in the capacities alone, held by one
`_PlanModel` per solve; its methods are the solver's steps. It starts on
the one-price path (`one_price_start`): the capacities a single price
difference buys where that price meets the expected marginal supply saving.
Each sweep then computes every user's violated one-sided partial derivative
in one pass (`violations`), stops once the largest is within the residual
limit, otherwise steps each violated user to its exact coordinate minimum
(`coordinate_minimum`, one sorted pass over the breakpoints of its
derivative, with the aggregate headroom kept incrementally) and ends with
exact Newton moves on the quadratic piece around the free users
(`newton_moves`), which move coupled users jointly where coordinate steps
would zig-zag. The marginal value of aggregate headroom is continuous, so
coordinate-wise optimality is global optimality for this objective; every
plan (`plan`) reports the largest violated one-sided partial derivative as
an optimality certificate.

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
    _response_arrays,
    _social_cost_arrays,
    two_period_supply_cost,
)
from .demand import PeriodStructure, ScenarioSet
from .errors import ConvergenceError, InputError, OrderingViolationError
from .response import ResponseProfile, _SpecArrays
from .scan import _sorted_columns

ORDERING_TOL = 1e-9
# A null-space direction below this fraction of the gradient is rounding.
NULL_SPACE_RTOL = 1e-9
# Machine epsilon, read once rather than through np.finfo on every basis.
EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SolverSettings:
    tolerance: float = 1e-11
    max_iterations: int = 10_000

    def __post_init__(self):
        if not 0 < self.tolerance < np.inf:
            raise InputError("tolerance must be finite and > 0")
        if self.max_iterations < 1:
            raise InputError("max_iterations must be >= 1")


@dataclass(frozen=True)
class SocialPlan:
    """Planner solution: per-user capacities, per-outcome charges, cost.

    optimality_residual is the largest violated one-sided partial derivative
    of the planner objective at the capacities (zero at an exact optimum),
    in the cost unit of the storage costs; solve_so certifies it at most
    residual_limit, its tolerance times the derivative's size at zero
    capacity.
    """

    capacities: dict[str, float]
    charges: dict[str, np.ndarray]
    social_cost: SocialCostBreakdown
    iterations: int = 0
    optimality_residual: float = math.nan
    residual_limit: float = math.nan


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


def _shift_targets(scenarios: ScenarioSet, periods: PeriodStructure) -> np.ndarray:
    """Unconstrained cost-minimizing aggregate charge per outcome."""
    return (
        periods.h_offpeak * scenarios.aggregate_peak()
        - periods.h_peak * scenarios.aggregate_offpeak()
    ) / (periods.h_peak + periods.h_offpeak)


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


@dataclass(frozen=True)
class _PlanModel:
    """The planner's model of one instance, built once per solve.

    It sizes lossless, non-degrading storage on inelastic demand and reads
    only each user's storage cost theta. demand holds one row per user
    (peak.T, row-contiguous); targets is each outcome's unconstrained
    cost-minimizing aggregate charge, and the marginal supply saving of
    aggregate charge S is slope0 + curvature * S per outcome, zero at the
    target.
    """

    scenarios: ScenarioSet
    periods: PeriodStructure
    supply: SupplyCostParams
    thetas: np.ndarray
    demand: np.ndarray
    targets: np.ndarray
    slope0: np.ndarray
    curvature: float

    @classmethod
    def of(
        cls,
        scenarios: ScenarioSet,
        thetas: Mapping[str, float],
        periods: PeriodStructure,
        supply: SupplyCostParams,
    ) -> _PlanModel:
        thetas_arr = np.array(scenarios.per_entity(thetas, "storage costs"), dtype=float)
        if not np.all(np.isfinite(thetas_arr) & (thetas_arr > 0)):
            raise InputError("storage costs must be finite and > 0")
        # d/dS [g_p(Ap - S) + g_o(Ao + S)] per outcome
        curvature = 2.0 * supply.alpha * (1.0 / periods.h_peak + 1.0 / periods.h_offpeak)
        slope0 = 2.0 * supply.alpha * (
            scenarios.aggregate_offpeak() / periods.h_offpeak
            - scenarios.aggregate_peak() / periods.h_peak
        )
        demand = np.ascontiguousarray(scenarios.peak.T)
        targets = _shift_targets(scenarios, periods)
        return cls(scenarios, periods, supply, thetas_arr, demand, targets, slope0, curvature)

    def headroom(self, capacities: np.ndarray) -> np.ndarray:
        """Aggregate charging headroom sum_i min(c_i, d_wi) per outcome."""
        return np.minimum(capacities, self.scenarios.peak).sum(axis=1)

    def one_sided(self, margin: np.ndarray, capacities: np.ndarray):
        """Each user's right and left partial derivatives of the planner
        objective, with the outcomes whose demand lies above (peak > c) and at
        (peak == c) its capacity. margin is slope0 + curvature * headroom; an
        outcome saves supply cost only where it is negative.
        """
        peak = self.scenarios.peak
        saving = self.scenarios.probs * np.minimum(0.0, margin)
        above, at = peak > capacities, peak == capacities
        right = self.thetas + saving @ above
        left = self.thetas + saving @ (above | at)
        return right, left, above, at

    def violations(self, capacities: np.ndarray, headroom: np.ndarray) -> np.ndarray:
        """Each user's violated one-sided partial derivative of the planner
        objective (zero where the user is coordinate-optimal).

        Each kink of min(c_i, d_wi) involves one capacity and the clipped supply
        term is continuously differentiable in the aggregate headroom, so the
        directional derivative is separable and the capacities are optimal
        exactly when every right derivative is >= 0 and, where c_i > 0, every
        left derivative is <= 0 (Tseng 2001, JOTA 109(3)).
        """
        right, left, _, _ = self.one_sided(self.slope0 + self.curvature * headroom, capacities)
        return np.maximum(np.maximum(-right, 0.0), np.where(capacities > 0.0, left, 0.0))

    def coordinate_minimum(self, i: int, rest: np.ndarray) -> float:
        """Exact minimizer of the planner objective along user i's capacity,
        against the aggregate headroom rest of the other users.

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
        theta_i, probs = self.thetas[i], self.scenarios.probs
        caps = np.minimum(self.demand[i], self.targets - rest)
        terms = probs * (self.slope0 + self.curvature * rest)
        active = caps > 0.0
        if theta_i + terms @ active >= 0.0:
            return 0.0
        order = caps.argsort()[caps.size - np.count_nonzero(active):]
        caps = caps[order]
        # Piece k runs from caps[k - 1] (0 for k = 0) to caps[k]; on it the
        # derivative is theta_i + offset[k] + slope[k] * t.
        offset = terms[order][::-1].cumsum()[::-1]
        slope = self.curvature * probs[order][::-1].cumsum()[::-1]
        reaches = offset + slope * caps >= -theta_i
        k = int(reaches.argmax())
        if not reaches[k]:
            return float(caps[-1])
        start = caps[k - 1] if k else 0.0
        at_start = theta_i + offset[k] + slope[k] * start
        if at_start >= 0.0:
            return float(start)
        return float(min(caps[k], start - at_start / slope[k]))

    def one_price_start(self) -> np.ndarray:
        """Capacities on the one-price path where the price meets the expected
        marginal supply saving.

        Under a single price difference each user buys its sorted peak demand
        step by step, step k firing once the price exceeds theta_i / tail mass_k
        (the events of `scan._sorted_columns`). With c(k) the capacities after
        the first k events in price order, the start is c(k) for the first k
        whose price is at least the expected marginal saving of aggregate
        headroom once event k has fired: both sides rise with k, so bisection
        finds it in ceil(log2(events)) passes of O(N W) each.
        """
        peak, probs = self.scenarios.peak, self.scenarios.probs
        levels, tails = _sorted_columns(peak, probs)
        n = peak.shape[1]
        prices = (self.thetas / tails).ravel()
        # Stable, so each user's events stay in sorted order and its capacity
        # after k events is the level of its last event among them.
        order = prices.argsort(kind="stable")
        prices, owner = prices[order], order % n
        columns = np.arange(n)

        def capacities(k: int) -> np.ndarray:
            steps = np.bincount(owner[:k], minlength=n)
            return np.where(steps > 0, levels[steps - 1, columns], 0.0)

        lo, hi = 0, prices.size
        while lo < hi:
            k = (lo + hi) // 2
            headroom = self.headroom(capacities(k + 1))
            if prices[k] + probs @ np.minimum(0.0, self.slope0 + self.curvature * headroom) >= 0.0:
                hi = k
            else:
                lo = k + 1
        return capacities(lo)

    def objective_change(
        self, users: np.ndarray, margin: np.ndarray, before: np.ndarray, after: np.ndarray
    ) -> float:
        """Change of the planner objective when the capacities of the given
        users move from before to after.

        The objective is investment plus (curvature / 2) sum_w p_w (T_w - H_w)_+^2,
        the expected supply cost of the clamped optimal aggregate charge up to a
        constant; margin is slope0 + curvature H at the start, -curvature times
        the shortfall where it is negative. The change is summed from the moved
        users' own headroom, so it is exact to rounding of the change itself,
        not of the whole objective.
        """
        peak_b = self.scenarios.peak[:, users]
        moved = (np.minimum(after, peak_b) - np.minimum(before, peak_b)).sum(axis=1)
        old, new = np.minimum(margin, 0.0), np.minimum(margin + self.curvature * moved, 0.0)
        supply = self.scenarios.probs @ ((new - old) * (new + old)) / (2.0 * self.curvature)
        return float(self.thetas[users] @ (after - before) + supply)

    def newton_moves(self, capacities: np.ndarray) -> np.ndarray:
        """Capacities after a null-space move and a Newton step on the block.

        Only short outcomes, those with headroom below target, shape the
        objective near c. The block holds the free users (0 < c_i and c_i at
        none of its demands in a short outcome) plus the users at such a kink
        whose one-sided derivative is violated. While no block capacity passes
        0 or one of those demands and no outcome's headroom crosses its target,
        the objective is quadratic in the block: g'd + d'Md/2 with
        M = curvature B' diag(p) B over the short outcomes, where B marks those
        in which a block user's capacity binds (for a violated kinked user, on
        the side of its violation). The first move follows -(I - M+M)g, the part
        of the gradient in M's null space, along which the objective is linear;
        the second takes the Newton step -M+g, each user kept between its
        nearest kinks. Each goes as far as the first pattern change, where the
        model is exact, and is also tried as far as the kinks allow (to t = 1
        for the Newton step), past outcomes' targets, where it holds nearly.
        The objective change of each is summed exactly, and the better is kept
        if the objective falls. When the range basis keeps every block user, M
        is nonsingular and its null space is zero, so the first move is
        skipped; when every outcome is short, none has spare headroom to bound
        how far a falling capacity may go, so that bound is skipped too.
        """
        peak, probs, curvature = self.scenarios.peak, self.scenarios.probs, self.curvature
        users = None
        for null_space in (True, False):
            if users is None:
                margin = self.slope0 + curvature * self.headroom(capacities)
                grad_right, grad_left, above, at = self.one_sided(margin, capacities)
                short = margin < 0.0
                every_short = bool(short.all())
                if every_short:
                    short = slice(None)
                rows, above, at = peak[short], above[short], at[short]
                kinked = (capacities == 0.0) | at.any(axis=0)
                up = kinked & (grad_right < 0.0)
                down = kinked & (capacities > 0.0) & (grad_left > 0.0)
                users = np.flatnonzero(~kinked | up | down)
                if not users.size:
                    break
                # From here on, arrays run over these users only.
                up, down, c = up[users], down[users], capacities[users]
                pattern = above[:, users] | (at[:, users] & down)
                grads = np.where(down, grad_left[users], grad_right[users])
                scaled = np.sqrt(curvature * probs[short])[:, None] * pattern
                sub = rows[:, users]
                lo = np.where(up, c, np.where(sub < c, sub, 0.0).max(axis=0, initial=0.0))
                hi = np.where(down, c, np.where(sub > c, sub, np.inf).min(axis=0, initial=np.inf))
                basis = _range_basis(scaled)
            if null_space:
                if basis[1].size == users.size:
                    continue  # M is nonsingular: its null space holds only zero
                step = _null_space_step(scaled, grads, up, down, basis)
            else:
                step = _newton_step(scaled, grads, lo - c, hi - c, basis)
            if not step.any():
                continue
            # Short outcomes gain headroom at their exact rate; the others can
            # lose at most the falling capacities that may drop below demand.
            rate = pattern @ step
            with np.errstate(divide="ignore", invalid="ignore"):
                far = min(
                    np.inf if null_space else 1.0,
                    np.where(step > 0.0, (hi - c) / step, np.inf).min(),
                    np.where(step < 0.0, (lo - c) / step, np.inf).min(),
                )
                reach = np.where(rate > 0.0, -margin[short] / (curvature * rate), np.inf)
                if not every_short:
                    drop = (peak[~short][:, users] > lo) @ np.minimum(step, 0.0)
                    spare = np.where(drop < 0.0, -margin[~short] / (curvature * drop), np.inf)
                    reach = np.concatenate((reach, spare))
            t = min(far, reach.min())
            best = 0.0
            for length in (t, far) if far > t else (t,):
                if not 0.0 < length < np.inf:
                    continue
                after = np.clip(c + length * step, lo, hi)
                change = self.objective_change(users, margin, c, after)
                if change < best:
                    best, moved = change, after
            if best < 0.0:
                capacities = capacities.copy()
                capacities[users] = moved
                users = None
        return capacities

    def plan(
        self,
        capacities: np.ndarray,
        iterations: int,
        limit: float = math.nan,
        checked: tuple[np.ndarray, float] | None = None,
    ) -> SocialPlan:
        """The plan of the given capacities, costed as lossless, non-degrading
        storage on inelastic demand, with their optimality residual and the
        residual limit they were solved to.

        checked is the capacities' headroom and residual where the caller has
        just computed them (solve_so's final stop test); without it the plan
        computes both from the capacities.
        """
        scenarios = self.scenarios
        if checked is None:
            headroom = self.headroom(capacities)
            checked = headroom, float(self.violations(capacities, headroom).max(initial=0.0))
        headroom, residual = checked
        charges = _greedy_charges(capacities, scenarios.peak, np.clip(self.targets, 0.0, headroom))
        ones, zeros = np.ones_like(self.thetas), np.zeros_like(self.thetas)
        lossless = _SpecArrays(self.thetas, ones, ones, zeros, zeros, zeros + np.nan)
        breakdown = _social_cost_arrays(
            scenarios, lossless, capacities, charges, np.zeros_like(charges),
            self.periods, self.supply,
        )
        return SocialPlan(
            capacities=dict(zip(scenarios.entities, capacities.tolist())),
            charges={e: charges[:, j] for j, e in enumerate(scenarios.entities)},
            social_cost=breakdown,
            iterations=iterations,
            optimality_residual=residual,
            residual_limit=limit,
        )


def _range_basis(scaled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal rows spanning the range of M = scaled' scaled, and M's
    eigenvalues along them.

    They come from the smaller of the two Gram matrices; eigenvalues up to
    size x eps of the largest count as zero, as `pinv` treats M's.
    """
    if scaled.shape[0] < scaled.shape[1]:
        lam, u = np.linalg.eigh(scaled @ scaled.T)
        keep = lam > lam[-1:] * scaled.shape[1] * EPS
        return (u[:, keep].T @ scaled) / np.sqrt(lam[keep])[:, None], lam[keep]
    lam, v = np.linalg.eigh(scaled.T @ scaled)
    keep = lam > lam[-1:] * scaled.shape[1] * EPS
    return v[:, keep].T, lam[keep]


def _null_space_step(
    scaled: np.ndarray, grad: np.ndarray, up: np.ndarray, down: np.ndarray, basis
) -> np.ndarray:
    """-(I - M+M)g with M = scaled' scaled: the part of -g along which the
    model is linear. A kinked user it would move against its violation is
    held and the direction found again without it; a part at rounding level
    of g is returned as zero."""
    step = np.zeros_like(grad)
    keep = np.arange(grad.size)
    while keep.size:
        vt, _ = basis if keep.size == grad.size else _range_basis(scaled[:, keep])
        part = vt.T @ (vt @ grad[keep]) - grad[keep]
        if np.abs(part).max() <= NULL_SPACE_RTOL * np.abs(grad[keep]).max():
            break
        wrong = np.where(up[keep], part < 0.0, down[keep] & (part > 0.0))
        if not wrong.any():
            step[keep] = part
            break
        keep = keep[~wrong]
    return step


def _newton_step(
    scaled: np.ndarray, grad: np.ndarray, room_down: np.ndarray, room_up: np.ndarray, basis
) -> np.ndarray:
    """The Newton step -M+g with M = scaled' scaled, kept in the box
    room_down <= d <= room_up: a user the step would carry out of the box is
    clamped to the side it crosses, and the others solved again with the
    clamped users' moves folded into their gradient."""
    step = np.zeros_like(grad)
    free = np.ones(grad.size, dtype=bool)
    while free.any():
        if free.all():
            (vt, lam), g = basis, grad
        else:
            vt, lam = _range_basis(scaled[:, free])
            g = grad[free] + scaled[:, free].T @ (scaled[:, ~free] @ step[~free])
        step[free] = -(vt.T @ ((vt @ g) / lam))
        out = free & ((step < room_down) | (step > room_up))
        if not out.any():
            break
        step[out] = np.clip(step[out], room_down[out], room_up[out])
        free &= ~out
    return step


def solve_so(
    scenarios: ScenarioSet,
    thetas: Mapping[str, float],
    periods: PeriodStructure,
    supply: SupplyCostParams,
    settings: SolverSettings | None = None,
) -> SocialPlan:
    """Minimize investment plus expected supply cost over per-user capacities.

    The per-outcome aggregate charge is always the closed-form clamped
    optimum, so the search is over the capacity vector alone, with the
    methods of one _PlanModel of the instance. It starts on the one-price
    path (one_price_start). Each sweep first computes every user's violated
    one-sided partial derivative in one vectorized pass (violations) and
    stops when the largest is at most the residual limit, tolerance times
    the size of the derivative at zero capacity (max theta + sum_w p_w
    |slope0_w|). Otherwise it visits, in index order, every user whose
    violation is positive, moving it to its exact coordinate minimum: one
    sorted pass over its breakpoints (coordinate_minimum) against the
    aggregate headroom of the other users, updated in place after every
    step. The sweep ends with exact Newton moves on the free and violated
    kinked users (newton_moves), which move the coupled users that
    coordinate steps would zig-zag between jointly towards their minimum.
    The returned plan carries the headroom and optimality residual that the
    stop test computed on its capacities, the limit it met and the number
    of sweeps; its cost is summed on the capacity and charge arrays
    (_social_cost_arrays), with no per-user spec or profile. Raises
    ConvergenceError carrying the best incumbent if the residual is above
    the limit after max_iterations sweeps; that plan computes its headroom
    and residual afresh, since the last sweep moved its capacities.

    The planner sees only each user's storage cost theta: it sizes lossless,
    non-degrading storage on inelastic demand, whatever the efficiency,
    degradation or elastic share the tariff schemes are evaluated with.
    """
    settings = settings or SolverSettings()
    model = _PlanModel.of(scenarios, thetas, periods, supply)
    scale = model.thetas.max() + scenarios.probs @ np.abs(model.slope0)
    limit = float(settings.tolerance * scale)
    capacities = model.one_price_start()
    demand = model.demand
    sweeps = 0
    for sweeps in range(1, settings.max_iterations + 1):
        total = model.headroom(capacities)
        violations = model.violations(capacities, total)
        residual = float(violations.max(initial=0.0))
        if residual <= limit:
            return model.plan(capacities, sweeps, limit, (total, residual))
        # One row per user: its share min(c_i, d_wi) of headroom.
        bound = np.minimum(capacities[:, None], demand)
        for i in np.flatnonzero(violations > 0.0).tolist():
            rest = total - bound[i]
            capacities[i] = model.coordinate_minimum(i, rest)
            np.minimum(capacities[i], demand[i], out=bound[i])
            np.add(rest, bound[i], out=total)
        capacities = model.newton_moves(capacities)
    plan = model.plan(capacities, sweeps, limit)
    if not plan.optimality_residual <= limit:
        raise ConvergenceError(
            f"planner residual {plan.optimality_residual!r} above its limit {limit!r} "
            f"after {settings.max_iterations} sweeps",
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
    entities: tuple[str, ...],
    capacities: np.ndarray,
    thetas: np.ndarray,
    support: np.ndarray,
    boundary_class: bool,
    slack: float = 0.0,
) -> StructureReport:
    """The structure rules on entity-aligned capacities and storage costs,
    each user's peak support being its column of the (outcome x entity)
    support matrix. The rules on users below the boundary cost count only
    those more than slack below it."""
    atol = 1e-7 * max(1.0, float(support.max()))
    lows, highs = support.min(axis=0), support.max(axis=0)
    violations = [
        f"user {entities[j]}: capacity {capacities[j]} above max peak support {highs[j]}"
        for j in np.flatnonzero(capacities > highs + atol)
    ]
    invested = capacities > atol
    if not invested.any():
        return StructureReport(violations)
    boundary = thetas[invested].max()
    exempt = lows <= atol
    # Users below the boundary at a cost level no investor holds; a valid
    # structure has none, so the level search runs only on a violation.
    unfilled = (thetas < boundary - slack) & ~invested & ~exempt
    if unfilled.any():
        unfilled &= ~np.isin(thetas, thetas[invested])
        for cost in np.unique(thetas[unfilled]):
            users = [entities[j] for j in np.flatnonzero(unfilled & (thetas == cost))]
            violations.append(
                f"cost level {cost} below invested level {boundary} has no investor "
                f"(users {users})"
            )
    # A boundary class may size anywhere, so only costs below it count.
    below = thetas < boundary - slack if boundary_class else thetas <= boundary
    for j in np.flatnonzero(below & ~exempt & (capacities < lows - atol)):
        what = "non-boundary investor" if boundary_class else f"invested cost level {thetas[j]} but"
        violations.append(
            f"user {entities[j]}: {what} capacity {capacities[j]} below min peak support {lows[j]}"
        )
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

    A plan is optimal only to its residual r: every one-sided partial
    derivative it violates is at most r. A user i held below its min support
    (or at zero) has every outcome above its capacity, so its right
    derivative gives theta_i >= -E[min(0, m)] - r, m_w being the marginal
    supply cost of moving load off-peak in outcome w; the boundary
    investor's left derivative gives theta_b <= -E[min(0, m)] + r. So
    theta_b - theta_i <= 2r, and the two rules on users below the boundary
    report only a gap above 2r plus a rounding margin of 1e-3 of the
    residual limit. A plan without a residual or limit (NaN) keeps the exact
    rules.
    """
    capacities = np.array(scenarios.per_entity(plan.capacities, "capacities"), dtype=float)
    costs = np.array(scenarios.per_entity(thetas, "storage costs"), dtype=float)
    slack = 2.0 * plan.optimality_residual + 1e-3 * plan.residual_limit
    return _validate_structure(
        scenarios.entities, capacities, costs, scenarios.peak, True,
        slack if math.isfinite(slack) else 0.0,
    )


def validate_structure_pricing(
    responses: Mapping[str, ResponseProfile],
    thetas: Mapping[str, float],
    scenarios: ScenarioSet,
) -> StructureReport:
    """Check tariff-induced investments for the two-class structure.

    Same cost-prefix requirement as the planner check, but with no boundary
    class: every user at an invested cost level must size within its peak
    support (users with zero lower support exempt from the lower bound). A
    user that shifts elastic demand sizes on its residual peak, so its
    support is peak demand less its profile's shifted load.
    """
    capacities, _, shifted = _response_arrays(scenarios, responses)
    costs = np.array(scenarios.per_entity(thetas, "storage costs"), dtype=float)
    return _validate_structure(
        scenarios.entities, capacities, costs, scenarios.peak - shifted, False
    )
