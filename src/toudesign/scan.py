"""The event sweep behind the tariff scan, and every entity's best response
in one array pass.

The social cost is piecewise constant in the price difference: it moves
only where some entity's capacity steps. Every column of (transformed,
residual) demand is sorted once; each sorted outcome is a step event that
raises one entity's capacity at its threshold, and an elastic entity's
shift is one more event at its e_shift. Applied in firing order with blocked
cumulative sums of their effect on the per-outcome loads, investment and
degradation, the events give the total cost at every evaluated price
difference in O(events x outcomes), rather than the O(price differences x
entities x outcomes) of re-sizing every entity at every point.

Both passes use the elementwise arithmetic of `respond` and
`equivalent_transform`, so thresholds, tie rules and responses match the
scalar path bit for bit; only the order of the cost summation differs.
"""

from __future__ import annotations

import numpy as np

from .costs import two_period_supply_cost
from .demand import ScenarioSet
from .response import _SpecArrays, equivalent_transform

_CURVE_BLOCK = 1024  # rows per block: price differences of social_cost_curve, sweep events


def _sorted_columns(demand: np.ndarray, probs: np.ndarray):
    """Every column of demand in stable ascending order, with the tail
    masses of its sorted outcomes, as `respond` and `_sized` sort one."""
    order = np.argsort(demand, axis=0, kind="stable")
    tails = np.cumsum(probs[order][::-1], axis=0)[::-1]
    return np.take_along_axis(demand, order, axis=0), tails


class _StepEvents:
    """The capacity steps of every entity of a scan instance.

    A column holds one entity's transformed demand: full peak demand for
    every entity, then the residual after the shift for every elastic one.
    Step i of a column raises that column's transformed capacity from its
    (i-1)-th to its i-th sorted value once the transformed price difference
    is strictly above theta_dag / tail_i. Nothing here depends on the
    off-peak price.
    """

    def __init__(self, scenarios: ScenarioSet, specs):
        spec_list = scenarios.per_entity(specs, "storage specs")
        arr = self.arr = _SpecArrays.of(spec_list)
        self.n = scenarios.n_entities
        el = self.elastic = np.flatnonzero(~np.isnan(arr.e_shift))
        self.owner = np.concatenate((np.arange(self.n), el))
        peak = scenarios.peak
        scale = 1.0 / (arr.eta_c * arr.eta_d)
        shifted = arr.elastic_fraction[el] * peak[:, el]
        demand = np.hstack((peak * scale, (peak[:, el] - shifted) * scale[el]))
        self.demand_rows = np.ascontiguousarray(demand.T)
        self.shifted_rows = np.ascontiguousarray(shifted.T)
        self.steps, tails = _sorted_columns(demand, scenarios.probs)
        self.thresholds = (arr.eta_c * arr.theta)[self.owner] / tails
        below = np.vstack((np.zeros((1, self.owner.size)), self.steps[:-1]))
        self.lo, self.hi = below.ravel(), self.steps.ravel()
        self.step_cols = np.tile(np.arange(self.owner.size), self.steps.shape[0])
        self.moves = self.hi != self.lo
        # Candidates come from the ordering each entity is sized on where it
        # can buy storage: for an elastic entity that is its residual, since
        # its thresholds lie above theta > e_shift, past its swap.
        priced = np.concatenate((np.isnan(arr.e_shift), np.ones(el.size, bool)))
        self.priced_owner = self.owner[priced]
        self.rungs = (arr.theta / arr.eta_d)[self.priced_owner] / tails[:, priced]
        loss = arr.eta_c * arr.eta_d
        self.loss, self.investment, self.degradation = (
            x[self.owner] for x in (loss, arr.eta_c * arr.theta, arr.tau * (1.0 + loss))
        )
        # Entities with equal (eta_c, eta_d, tau) share one transformed grid.
        first: dict[tuple, int] = {}
        group = np.array([
            first.setdefault((s.eta_c, s.eta_d, s.tau), j) for j, s in enumerate(spec_list)
        ])[self.owner]
        self.transforms = [(spec_list[j], group == j) for j in first.values()]
        self.probs = scenarios.probs
        self.base_peak = scenarios.aggregate_peak()
        self.base_offpeak = scenarios.aggregate_offpeak()

    def candidates(self, p_o: float) -> tuple[np.ndarray, int]:
        """Sorted distinct candidate price differences, and the number of
        values they came from: every step threshold in grid prices
        (`threshold_set_extended`'s formula), every activation price, every
        e_shift and zero."""
        base = equivalent_transform(self.arr, p_o, 0.0).activation_price
        raw = np.concatenate((
            (self.rungs + base[self.priced_owner]).ravel(),
            base,
            self.arr.e_shift[self.elastic],
            [0.0],
        ))
        raw.sort()
        return raw[np.concatenate(([True], raw[1:] != raw[:-1]))], raw.size

    def costs(self, p_deltas: np.ndarray, p_o: float, periods, supply) -> np.ndarray:
        """Total social cost at each of the ascending p_deltas, as
        `social_cost_curve` evaluates it up to summation order."""
        m = p_deltas.shape[0]
        # A step fires at the first price difference whose transformed value
        # is strictly above its threshold: the tie rule of `_steps_bought`.
        fire = np.empty(self.thresholds.shape, dtype=np.intp)
        for spec, cols in self.transforms:
            pd_dag = equivalent_transform(spec, p_o, p_deltas).p_delta
            fire[:, cols] = np.searchsorted(pd_dag, self.thresholds[:, cols], side="right")
        # An elastic entity swaps its full-peak profile for the residual one
        # at the first price difference above its e_shift: its full-peak steps
        # stop there and earlier residual steps fire with the swap.
        el, n = self.elastic, self.n
        swap_at = np.searchsorted(p_deltas, self.arr.e_shift[el], side="right")
        full = fire[:, el]
        fired = full < swap_at
        fire[:, el] = np.where(fired, full, m)
        fire[:, n:] = np.maximum(fire[:, n:], swap_at)
        count = fired.sum(axis=0)
        cap_before = np.where(count > 0, self.steps[count - 1, el], 0.0)
        when = fire.ravel()
        live = np.flatnonzero(self.moves & (when < m))
        swaps = np.flatnonzero(swap_at < m)
        when = np.concatenate((when[live], swap_at[swaps]))
        order = np.argsort(when, kind="stable")
        after = self._sweep(
            np.concatenate((self.step_cols[live], el[swaps]))[order],
            np.concatenate((self.lo[live], cap_before[swaps]))[order],
            np.concatenate((self.hi[live], np.zeros(swaps.size)))[order],
            np.concatenate((np.full(live.size, -1), swaps))[order],
            periods,
            supply,
        )
        before = two_period_supply_cost(self.base_peak, self.base_offpeak, periods, supply)
        after = np.concatenate(([before @ self.probs], after))
        return after[np.searchsorted(when[order], np.arange(m), side="right")]

    def _sweep(self, cols, lo, hi, swap, periods, supply) -> np.ndarray:
        """Total cost after each event, applied in order. A step moves the
        charge by min(hi, d_w) - min(lo, d_w) and the swap of elastic entity
        k (swap = k, else -1) also moves its shifted load. Cumulative sums
        run in blocks of _CURVE_BLOCK events, so memory is O(block x W)."""
        probs = self.probs
        out = np.empty(cols.size)
        peak, off, linear = self.base_peak, self.base_offpeak, 0.0
        for start in range(0, cols.size, _CURVE_BLOCK):
            sl = slice(start, start + _CURVE_BLOCK)
            c, a, b = cols[sl], lo[sl], hi[sl]
            demand = self.demand_rows[c]
            d_off = np.minimum(b[:, None], demand) - np.minimum(a[:, None], demand)
            lin = self.investment[c] * (b - a) + self.degradation[c] * (d_off @ probs)
            d_peak = d_off * -self.loss[c][:, None]
            rows = np.flatnonzero(swap[sl] >= 0)
            if rows.size:
                k = swap[sl][rows]
                shifted = self.shifted_rows[k]
                d_peak[rows] -= shifted
                d_off[rows] += shifted
                lin[rows] += self.arr.e_shift[self.elastic[k]] * (shifted @ probs)
            d_peak[0] += peak
            d_off[0] += off
            lin[0] += linear
            for x in (d_peak, d_off, lin):
                np.cumsum(x, axis=0, out=x)
            peak, off, linear = d_peak[-1], d_off[-1], lin[-1]
            out[sl] = lin + two_period_supply_cost(d_peak, d_off, periods, supply) @ probs
        return out


def _best_responses(price, scenarios: ScenarioSet, arr: _SpecArrays):
    """Every entity's `respond` to the tariff (a `TouPrice`) in one array
    pass, with the same elementwise arithmetic, given the entities' specs as
    `_SpecArrays`: their capacities, and their (outcome x entity) charges
    and shifts."""
    peak = scenarios.peak
    shifted = np.where(price.p_delta > arr.e_shift, arr.elastic_fraction * peak, 0.0)
    tr = equivalent_transform(arr, price.p_offpeak, price.p_delta)
    demand = np.maximum(peak - shifted, 0.0) * tr.peak_scale
    steps, tails = _sorted_columns(demand, scenarios.probs)
    # thresholds strictly below, as `_steps_bought` finds them in each
    # nondecreasing column
    bought = (tr.theta / tails < tr.p_delta).sum(axis=0)
    cap_dag = np.where(bought > 0, steps[bought - 1, np.arange(peak.shape[1])], 0.0)
    return arr.eta_c * cap_dag, np.minimum(cap_dag, demand), shifted
