"""Closed-form best response of a storage owner to a two-period tariff.

Given a price difference between the peak and off-peak periods, the owner
first shifts any elastic demand whose shift cost the price difference
exceeds, then sizes storage by a newsvendor rule on the (residual) peak
demand distribution, and finally charges up to the smaller of capacity and
realized peak demand each day. Imperfect charge/discharge efficiency and a
linear degradation cost are folded in through an equivalent reparametrization
so the same newsvendor rule applies.

Charges are kept in purchased (grid-side) MWh; the energy delivered to the
peak period is eta_c * eta_d times the purchase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class StorageSpec:
    """Storage economics of one user or type.

    theta is the daily capacity cost in $/MWh/day, eta_c and eta_d the
    charge and discharge efficiencies, tau a degradation cost in $/MWh of
    energy moved. e_shift, when present, is the cost of shifting one MWh of
    elastic demand and must be below theta; elastic_fraction, in [0, 1], is
    the share of each outcome's peak demand that is elastic. The share takes
    effect only together with e_shift.
    """

    theta: float
    eta_c: float = 1.0
    eta_d: float = 1.0
    tau: float = 0.0
    e_shift: float | None = None
    elastic_fraction: float = 0.0

    def __post_init__(self):
        if not 0 < self.theta < np.inf:
            raise InputError("theta must be finite and > 0")
        for name, eta in (("eta_c", self.eta_c), ("eta_d", self.eta_d)):
            if not 0 < eta <= 1:
                raise InputError(f"{name} must be in (0, 1]")
        if not 0 <= self.tau < np.inf:
            raise InputError("tau must be finite and >= 0")
        if self.e_shift is not None:
            if self.e_shift < 0:
                raise InputError("e_shift must be >= 0")
            if not self.e_shift < self.theta:
                raise InputError("e_shift must be below theta")
        if not 0.0 <= self.elastic_fraction <= 1.0:
            raise InputError("elastic_fraction must be in [0, 1]")


def _check_responses(capacity, charge: np.ndarray, shifted: np.ndarray) -> None:
    """The checks of a `ResponseProfile`, on one profile (a capacity and 1-d
    charge and shift arrays) or on a batch (a capacity vector and (entity x
    outcome) charge and shift matrices), with the same messages."""
    if charge.shape != shifted.shape or charge.ndim != np.ndim(capacity) + 1:
        raise InputError("charge and shifted must be 1-d arrays of equal length")
    finite = np.isfinite(charge).all() and np.isfinite(shifted).all()
    if not (finite and np.isfinite(capacity).all()):
        raise InputError("capacity, charge and shifted must be finite")
    if np.any(capacity < 0):
        raise InputError("capacity must be >= 0")


@dataclass(frozen=True)
class ResponseProfile:
    """Result of one entity's storage decision under a tariff.

    capacity is the installed MWh, charge the purchased charging energy per
    outcome, shifted the moved elastic demand per outcome; all are finite,
    and charge and shifted are read-only.
    """

    capacity: float
    charge: np.ndarray
    shifted: np.ndarray

    def __post_init__(self):
        charge = np.asarray(self.charge, dtype=float)
        shifted = np.asarray(self.shifted, dtype=float)
        _check_responses(self.capacity, charge, shifted)
        charge.setflags(write=False)
        shifted.setflags(write=False)
        object.__setattr__(self, "charge", charge)
        object.__setattr__(self, "shifted", shifted)

    @classmethod
    def _batch(cls, entities, capacity, charge, shifted) -> dict[str, "ResponseProfile"]:
        """One profile per entity from a capacity vector and (entity x
        outcome) charge and shift matrices, checked once for the batch. Each
        profile holds read-only row views of one C-ordered copy of each
        matrix, so it is not checked again."""
        capacity = np.asarray(capacity, dtype=float)
        charge = np.array(charge, dtype=float, order="C")
        shifted = np.array(shifted, dtype=float, order="C")
        _check_responses(capacity, charge, shifted)
        charge.setflags(write=False)
        shifted.setflags(write=False)
        profiles = {}
        for e, cap, c, q in zip(entities, capacity.tolist(), charge, shifted):
            profile = profiles[e] = object.__new__(cls)
            profile.__dict__.update(capacity=cap, charge=c, shifted=q)
        return profiles


class _SpecArrays(NamedTuple):
    """The storage specs of many entities as arrays, one entry per entity.

    `equivalent_transform` maps them elementwise with the arithmetic it
    applies to one spec; e_shift is NaN where an entity cannot shift.
    """

    theta: np.ndarray
    eta_c: np.ndarray
    eta_d: np.ndarray
    tau: np.ndarray
    elastic_fraction: np.ndarray
    e_shift: np.ndarray

    @classmethod
    def of(cls, specs) -> "_SpecArrays":
        """One float64 vector per field, from one pass over the specs."""
        rows = [
            (s.theta, s.eta_c, s.eta_d, s.tau, s.elastic_fraction,
             np.nan if s.e_shift is None else s.e_shift)
            for s in specs
        ]
        return cls(*np.array(rows, dtype=float).T.copy())


class EquivalentTransform(NamedTuple):
    """Reparametrization mapping a lossy storage problem onto the lossless one.

    activation_price is the smallest price difference at which charging can
    break even at all; it plays the role of zero in the transformed problem.
    """

    p_delta: float
    theta: float
    peak_scale: float
    activation_price: float


def _tail_masses(probs: np.ndarray) -> np.ndarray:
    return np.cumsum(probs[::-1])[::-1]


def _steps_bought(probs: np.ndarray, theta: float, p_deltas):
    """Newsvendor step rule on sorted outcomes: the number of outcome steps
    whose price threshold theta / (tail mass) lies strictly below p_delta."""
    return np.searchsorted(theta / _tail_masses(probs), p_deltas, side="left")


def _validate_discrete(peak_outcomes, probs):
    peak_outcomes = np.asarray(peak_outcomes, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if peak_outcomes.shape != probs.shape or peak_outcomes.ndim != 1 or not len(probs):
        raise InputError("outcomes and probabilities must be matching 1-d arrays")
    if np.any(np.diff(peak_outcomes) < 0):
        raise InputError("peak outcomes must be sorted ascending")
    if np.any(probs <= 0) or abs(probs.sum() - 1.0) > 1e-9:
        raise InputError("probabilities must be positive and sum to 1")
    return peak_outcomes, probs


def optimal_capacity_discrete(
    peak_outcomes: Sequence[float],
    probs: Sequence[float],
    theta: float,
    p_delta: float,
) -> float:
    """Step-wise optimal capacity under a discrete peak-demand distribution.

    Capacity is the largest outcome value whose price threshold theta / (tail
    probability) lies strictly below p_delta; at an exact tie the lower step
    is returned, so no storage is bought at p_delta == theta.
    """
    return float(capacity_curve(peak_outcomes, probs, theta, p_delta))


def capacity_curve(
    peak_outcomes: Sequence[float],
    probs: Sequence[float],
    theta: float,
    p_deltas: np.ndarray,
) -> np.ndarray:
    """Vectorized optimal capacity over an array of price differences."""
    peak_outcomes, probs = _validate_discrete(peak_outcomes, probs)
    steps = np.concatenate(([0.0], peak_outcomes))
    return steps[_steps_bought(probs, theta, np.asarray(p_deltas, dtype=float))]


def equivalent_transform(
    spec: StorageSpec, p_o: float, p_delta: float
) -> EquivalentTransform:
    """Map the lossy/degrading storage problem onto the lossless newsvendor.

    The transformed price difference discounts for round-trip losses, the
    extra off-peak energy bought to cover them and the degradation cost per
    cycle; the transformed capacity cost and peak demand rescale by the
    charge and round-trip efficiencies. p_delta may be an array of price
    differences, which maps elementwise.
    """
    loss = spec.eta_d * spec.eta_c
    p_delta_dag = p_delta * loss - p_o * (1.0 - loss) - spec.tau * (1.0 + loss)
    theta_dag = spec.eta_c * spec.theta
    peak_scale = 1.0 / (spec.eta_c * spec.eta_d)
    activation = (spec.tau * (1.0 + loss) + p_o * (1.0 - loss)) / loss
    return EquivalentTransform(p_delta_dag, theta_dag, peak_scale, activation)


def threshold_set_extended(
    spec: StorageSpec,
    peak_outcomes: Sequence[float],
    probs: Sequence[float],
    p_o: float,
) -> tuple[float, ...]:
    """Capacity-jump price differences for the lossy/degrading model.

    Thresholds of the transformed problem mapped back to grid prices: the
    activation price plus theta / eta_d over each tail mass. Returned sorted
    and distinct, starting at the activation price.
    """
    _, probs = _validate_discrete(peak_outcomes, probs)
    base = equivalent_transform(spec, p_o, 0.0).activation_price
    values = spec.theta / spec.eta_d / _tail_masses(probs) + base
    return tuple(sorted(set([float(base)] + [float(v) for v in values])))


def respond(
    spec: StorageSpec,
    prices,
    probs: Sequence[float],
    peak: Sequence[float],
) -> ResponseProfile:
    """Full best response of one entity to a tariff.

    Shifts all of the spec's elastic share once p_delta exceeds the shift
    cost and none otherwise, then applies the equivalent transform and the
    discrete capacity rule to the residual peak demand, then the per-outcome
    charge rule. Charges are returned in purchased MWh.
    """
    probs = np.asarray(probs, dtype=float)
    peak = np.asarray(peak, dtype=float)
    if peak.shape != probs.shape:
        raise InputError("peak demand must cover every outcome")
    p_delta = prices.p_delta
    if spec.e_shift is not None and p_delta > spec.e_shift:
        shifted = spec.elastic_fraction * peak
    else:
        shifted = np.zeros_like(peak)
    residual = np.maximum(peak - shifted, 0.0)
    tr = equivalent_transform(spec, prices.p_offpeak, p_delta)
    demand_dag = residual * tr.peak_scale
    order = np.argsort(demand_dag, kind="stable")
    cap_dag = optimal_capacity_discrete(
        demand_dag[order], probs[order], tr.theta, tr.p_delta
    )
    charge = np.minimum(cap_dag, demand_dag)
    return ResponseProfile(
        capacity=spec.eta_c * cap_dag, charge=charge, shifted=shifted
    )
