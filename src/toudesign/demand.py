"""Discrete joint demand distributions for two-period tariff studies.

A scenario set holds a finite joint distribution of daily (peak, off-peak)
energy in MWh over a list of entities, where an entity is either a single
user or an aggregated storage type. All builders and transforms are pure
functions of immutable inputs; generators are deterministic under a seed.
"""

from __future__ import annotations

import csv
import math
import warnings
from array import array
from dataclasses import dataclass
from operator import itemgetter
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError

PROB_TOL = 1e-9
# The C reader keeps day and entity names as bytes (a quarter of the memory
# of str); names this long or longer, or not ASCII, go to the row parser.
_KEY_WIDTH = 40


@dataclass(frozen=True)
class PeriodStructure:
    """Partition of the 24 hours of a day into a peak and an off-peak period.

    The peak window need not be contiguous; a day is the calendar day
    00:00-23:59.
    """

    peak_hours: frozenset[int]

    def __post_init__(self):
        hours = frozenset(int(h) for h in self.peak_hours)
        if not hours or not hours.issubset(range(24)):
            raise InputError("peak hours must be a non-empty subset of 0..23")
        if len(hours) >= 24:
            raise InputError("at least one off-peak hour is required")
        object.__setattr__(self, "peak_hours", hours)

    @property
    def offpeak_hours(self) -> frozenset[int]:
        return frozenset(range(24)) - self.peak_hours

    @property
    def h_peak(self) -> int:
        return len(self.peak_hours)

    @property
    def h_offpeak(self) -> int:
        return 24 - len(self.peak_hours)


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ScenarioSet:
    """Joint distribution of daily peak/off-peak demand over entities.

    probs has shape (n_outcomes,), peak and offpeak have shape
    (n_outcomes, n_entities) in MWh. Probabilities are strictly positive
    and sum to one; demands are non-negative and finite.
    """

    entities: tuple[str, ...]
    probs: np.ndarray
    peak: np.ndarray
    offpeak: np.ndarray

    def __post_init__(self):
        entities = tuple(str(e) for e in self.entities)
        if len(set(entities)) != len(entities):
            raise InputError("entity ids must be unique")
        if not entities:
            raise InputError("at least one entity is required")
        probs = _frozen_array(self.probs)
        peak = _frozen_array(self.peak)
        offpeak = _frozen_array(self.offpeak)
        n = probs.shape[0]
        if probs.ndim != 1 or n == 0:
            raise InputError("probs must be a non-empty 1-d array")
        shape = (n, len(entities))
        if peak.shape != shape or offpeak.shape != shape:
            raise InputError(
                f"demand arrays must have shape {shape}, "
                f"got peak {peak.shape} and offpeak {offpeak.shape}"
            )
        if not np.all(np.isfinite(probs)) or np.any(probs <= 0):
            raise InputError("outcome probabilities must be finite and strictly positive")
        if abs(float(probs.sum()) - 1.0) > PROB_TOL:
            raise InputError(f"probabilities sum to {probs.sum()!r}, expected 1")
        for name, arr in (("peak", peak), ("offpeak", offpeak)):
            if not np.all(np.isfinite(arr)):
                raise InputError(f"{name} demand contains non-finite values")
            if np.any(arr < 0):
                raise InputError(f"{name} demand contains negative values")
        object.__setattr__(self, "entities", entities)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "peak", peak)
        object.__setattr__(self, "offpeak", offpeak)

    @property
    def n_outcomes(self) -> int:
        return self.probs.shape[0]

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    def entity_index(self, entity: str) -> int:
        try:
            return self.entities.index(entity)
        except ValueError:
            raise InputError(f"unknown entity {entity!r}") from None

    def entity_peak(self, entity: str) -> np.ndarray:
        return self.peak[:, self.entity_index(entity)]

    def aggregate_peak(self) -> np.ndarray:
        return self.peak.sum(axis=1)

    def aggregate_offpeak(self) -> np.ndarray:
        return self.offpeak.sum(axis=1)

    def peak_support(self, entity: str) -> tuple[float, float]:
        col = self.entity_peak(entity)
        return float(col.min()), float(col.max())

    def mean_peak(self, entity: str) -> float:
        return float(self.probs @ self.entity_peak(entity))

    def equals(self, other: "ScenarioSet") -> bool:
        return (
            self.entities == other.entities
            and np.array_equal(self.probs, other.probs)
            and np.array_equal(self.peak, other.peak)
            and np.array_equal(self.offpeak, other.offpeak)
        )

    def to_csv(self, path) -> None:
        """Write rows `outcome,prob,entity,peak_mwh,offpeak_mwh`."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["outcome", "prob", "entity", "peak_mwh", "offpeak_mwh"])
            for w in range(self.n_outcomes):
                for j, entity in enumerate(self.entities):
                    writer.writerow(
                        [
                            w,
                            repr(float(self.probs[w])),
                            entity,
                            repr(float(self.peak[w, j])),
                            repr(float(self.offpeak[w, j])),
                        ]
                    )

    @classmethod
    def from_csv(cls, path) -> "ScenarioSet":
        outcomes: dict[int, dict[str, tuple[float, float, float]]] = {}
        entities: list[str] = []
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            required = {"outcome", "prob", "entity", "peak_mwh", "offpeak_mwh"}
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise InputError(f"scenario csv must have columns {sorted(required)}")
            for row in reader:
                try:
                    w = int(row["outcome"])
                    cell = (
                        float(row["prob"]),
                        float(row["peak_mwh"]),
                        float(row["offpeak_mwh"]),
                    )
                except ValueError as exc:
                    raise InputError(f"bad scenario row {row!r}: {exc}") from None
                entity = row["entity"]
                if entity not in entities:
                    entities.append(entity)
                outcomes.setdefault(w, {})[entity] = cell
        if not outcomes:
            raise InputError("scenario csv contains no rows")
        order = sorted(outcomes)
        probs, peak, offpeak = [], [], []
        for w in order:
            cells = outcomes[w]
            missing = [e for e in entities if e not in cells]
            if missing:
                raise InputError(f"outcome {w} is missing entities {missing}")
            probs.append(cells[entities[0]][0])
            peak.append([cells[e][1] for e in entities])
            offpeak.append([cells[e][2] for e in entities])
        return cls(tuple(entities), np.array(probs), np.array(peak), np.array(offpeak))


@dataclass(frozen=True, eq=False)
class HourlyLoadTable:
    """Hourly net load in MWh on a full (day, entity) grid.

    net has shape (n_days, n_entities, 24), indexed by days and entities
    (sorted and unique when read by from_csv); surplus solar is already
    curtailed, so every value is finite and non-negative.
    """

    days: tuple[str, ...]
    entities: tuple[str, ...]
    net: np.ndarray

    def __post_init__(self):
        if not self.days or not self.entities:
            raise InputError("load table is empty")
        net = _frozen_array(self.net)
        shape = (len(self.days), len(self.entities), 24)
        if net.shape != shape:
            raise InputError(f"net load must have shape {shape}, got {net.shape}")
        if not np.all(np.isfinite(net)) or np.any(net < 0):
            raise InputError("net load must be finite and >= 0")
        object.__setattr__(self, "days", tuple(self.days))
        object.__setattr__(self, "entities", tuple(self.entities))
        object.__setattr__(self, "net", net)

    @classmethod
    def from_csv(cls, path, units: str = "mwh", solar_scale: float = 1.0) -> "HourlyLoadTable":
        """Read rows `day,entity,h0..h23[,s0..s23]`; missing solar means zero.

        units may be "mwh" or "kwh"; kWh values are converted on read so the
        table always carries MWh. The net load of an hour is
        max(load - solar * solar_scale, 0). Every (day, entity) cell must
        appear exactly once.
        """
        if units not in ("mwh", "kwh"):
            raise InputError(f"unknown unit {units!r}, expected 'mwh' or 'kwh'")
        if not np.isfinite(solar_scale) or solar_scale < 0:
            raise InputError("solar scale factor must be finite and >= 0")
        # The parsed rows are freed before the constructor copies the net load.
        return cls(*_read_loads(path, 1.0 if units == "mwh" else 1e-3, solar_scale))


def _read_loads(path, factor: float, solar_scale: float):
    """(days, entities, net) of a load csv, as HourlyLoadTable.from_csv."""
    load_cols = [f"h{i}" for i in range(24)]
    solar_cols = [f"s{i}" for i in range(24)]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        # the last of repeated column names wins, as with csv.DictReader
        col = {name: i for i, name in enumerate(next(reader, None) or [])}
        if "day" not in col or "entity" not in col:
            raise InputError("load csv must have 'day' and 'entity' columns")
        missing = [c for c in load_cols if c not in col]
        if missing:
            raise InputError(f"load csv is missing hourly columns {missing}")
        has_solar = all(c in col for c in solar_cols)
        usecols = [col[c] for c in ["day", "entity"] + load_cols + (solar_cols if has_solar else [])]
        try:
            keys, rows = _read_columns(fh, usecols)
        except ValueError:
            keys, rows = _parse_rows(path, fh, usecols)
    if not len(keys):
        raise InputError("load table is empty")
    days, day_of = np.unique(keys[:, 0], return_inverse=True)
    entities, entity_of = np.unique(keys[:, 1], return_inverse=True)
    days, entities = days.astype(str).tolist(), entities.astype(str).tolist()
    cells = day_of * len(entities) + entity_of
    counts = np.bincount(cells, minlength=len(days) * len(entities))
    if counts.max() > 1:
        day, entity = keys[int(np.argmax(counts[cells] > 1))].astype(str).tolist()
        raise InputError(f"duplicate load row for day={day!r}, entity={entity!r}")
    if counts.min() == 0:
        gap = int(np.argmin(counts))
        day, entity = days[gap // len(entities)], entities[gap % len(entities)]
        raise InputError(f"missing load row for day={day!r}, entity={entity!r}")
    # Unit conversion and solar netting work in place on the parsed rows.
    rows *= factor
    net = rows[:, :24]
    if has_solar:
        rows[:, 24:] *= solar_scale
        net -= rows[:, 24:]
    np.maximum(net, 0.0, out=net)
    return days, entities, net[np.argsort(cells)].reshape(len(days), len(entities), 24)


def _read_columns(fh, usecols: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The data rows left in fh, read by numpy's C reader: (n, 2) keys and
    (n, m) values. Raises ValueError where the row parser must decide: a short
    row, a value only float() reads (`1_0`), a non-finite value, a long or
    non-ASCII key."""
    dtype = np.dtype([("key", f"S{_KEY_WIDTH}", 2), ("value", float, len(usecols) - 2)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a file with no data rows
        table = np.loadtxt(
            fh, dtype, delimiter=",", comments=None, quotechar='"', usecols=usecols, ndmin=1
        )
    keys, rows = table["key"], table["value"]
    if np.char.str_len(keys).max(initial=0) >= _KEY_WIDTH or keys.view(np.uint8).max(initial=0) > 127:
        raise ValueError("a key that may be cut short or is not ASCII")
    if not np.isfinite(rows).all():
        raise ValueError("a non-finite value")
    return keys, rows


def _parse_rows(path, fh, usecols: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """_read_columns row by row with float(), from the top of fh: the same
    result where both succeed, and an InputError naming a bad row's line."""
    fh.seek(0)
    reader = csv.reader(fh)
    next(reader)  # the header
    day_col, entity_col, *value_cols = usecols
    pick = itemgetter(*value_cols)
    buffer = array("d")  # each row's load values, then its solar values
    keys = []
    for row in filter(None, reader):
        try:
            hourly = list(map(float, pick(row)))
            key = (row[day_col], row[entity_col])
        except (IndexError, ValueError):
            raise InputError(f"{path}:{reader.line_num}: non-numeric hourly value") from None
        if not all(map(math.isfinite, hourly)):
            raise InputError(f"day {key[0]!r}, entity {key[1]!r}: non-finite hourly value")
        buffer.extend(hourly)
        keys.append(key)
    return np.array(keys, dtype=str).reshape(-1, 2), np.frombuffer(buffer).reshape(-1, len(value_cols))


def ingest_hourly_loads(table: HourlyLoadTable, periods: PeriodStructure) -> ScenarioSet:
    """Build the per-day demand distribution from hourly observations.

    Each day becomes one equiprobable outcome; an entity's peak demand is
    its clamped net load summed over the peak hours, off-peak analogously.
    """
    # np.take keeps each cell's hours contiguous, so every sum adds the same
    # values in the same order as summing that cell's hours on their own.
    peak = np.take(table.net, sorted(periods.peak_hours), axis=2).sum(axis=2)
    offpeak = np.take(table.net, sorted(periods.offpeak_hours), axis=2).sum(axis=2)
    probs = np.full(len(table.days), 1.0 / len(table.days))
    return ScenarioSet(table.entities, probs, peak, offpeak)


def aggregate_by_type(s: ScenarioSet, grouping: Mapping[str, str]) -> ScenarioSet:
    """Sum member demands outcome-by-outcome into per-type entities.

    The outcome list and probabilities are unchanged, so the joint
    distribution across types is preserved exactly. Types are ordered by
    first appearance in the entity list, which makes an identity grouping
    a no-op.
    """
    missing = [e for e in s.entities if e not in grouping]
    if missing:
        raise InputError(f"grouping is missing entities {missing}")
    types: list[str] = []
    members: dict[str, list[int]] = {}
    for j, entity in enumerate(s.entities):
        t = str(grouping[entity])
        if t not in members:
            types.append(t)
            members[t] = []
        members[t].append(j)
    peak = np.column_stack([s.peak[:, members[t]].sum(axis=1) for t in types])
    offpeak = np.column_stack([s.offpeak[:, members[t]].sum(axis=1) for t in types])
    return ScenarioSet(tuple(types), s.probs, peak, offpeak)


def adjust_variance(s: ScenarioSet, delta_d: float) -> ScenarioSet:
    """Scale each entity's demand spread around its mean by delta_d.

    delta_d = 0 collapses every outcome to the entity mean, 1 is the
    identity, and values above 1 widen the spread. Negative results are
    clamped to zero, in which case the mean is no longer exactly preserved.
    """
    if not np.isfinite(delta_d) or delta_d < 0:
        raise InputError("delta_d must be finite and >= 0")
    out = []
    for arr in (s.peak, s.offpeak):
        mean = s.probs @ arr
        adjusted = arr - (1.0 - delta_d) * (arr - mean)
        out.append(np.maximum(adjusted, 0.0))
    return ScenarioSet(s.entities, s.probs, out[0], out[1])


def generate_synthetic(
    n_types: int,
    users_per_type: int,
    n_outcomes: int,
    range_hi: float,
    seed: int,
) -> ScenarioSet:
    """Equiprobable outcomes with i.i.d. uniform peak demand on [0, range_hi].

    Off-peak demand is zero. Entities are named t{k}u{j} so a type grouping
    can be recovered from the id prefix.
    """
    if min(n_types, users_per_type, n_outcomes) < 1:
        raise InputError("all counts must be >= 1")
    if range_hi < 0:
        raise InputError("range_hi must be >= 0")
    rng = np.random.default_rng(seed)
    n_users = n_types * users_per_type
    peak = rng.uniform(0.0, range_hi, size=(n_outcomes, n_users)) if range_hi > 0 else np.zeros((n_outcomes, n_users))
    entities = tuple(
        f"t{k}u{j}" for k in range(n_types) for j in range(users_per_type)
    )
    probs = np.full(n_outcomes, 1.0 / n_outcomes)
    return ScenarioSet(entities, probs, peak, np.zeros_like(peak))


def synthetic_grouping(scenarios: ScenarioSet) -> dict[str, str]:
    """Recover the type grouping from t{k}u{j} entity ids."""
    grouping = {}
    for entity in scenarios.entities:
        if not entity.startswith("t") or "u" not in entity:
            raise InputError(f"entity {entity!r} does not follow the t<k>u<j> convention")
        grouping[entity] = entity.split("u")[0]
    return grouping


def permute_second_user(
    base: Sequence[float], e: float, perm: Sequence[int]
) -> tuple[np.ndarray, float]:
    """Derive a second demand vector as e * base[perm] and report the Pearson
    correlation between the two. Outcomes are treated as equiprobable."""
    base = np.asarray(base, dtype=float)
    perm = np.asarray(perm, dtype=int)
    if sorted(perm.tolist()) != list(range(base.shape[0])):
        raise InputError("perm must be a permutation of the outcome indices")
    second = e * base[perm]
    if np.ptp(base) == 0 or np.ptp(second) == 0:
        raise InputError("correlation undefined for a constant demand vector")
    corr = float(np.corrcoef(base, second)[0, 1])
    return second, corr


def reduce_scenarios(s: ScenarioSet, target: int) -> ScenarioSet:
    """Reduce the outcome count by forward selection on the joint demand vector.

    Kept outcomes absorb the probability of dropped outcomes nearest to them
    in Euclidean distance, so the probabilities stay normalized. The per
    entity mean demand is approximately preserved; this is plumbing for
    speeding up repeated studies, not a distribution fit.
    """
    if target < 1:
        raise InputError("target must be >= 1")
    n = s.n_outcomes
    if target > n:
        raise InputError(f"target {target} exceeds outcome count {n}")
    if target == n:
        return s
    vectors = np.hstack([s.peak, s.offpeak])
    # One row at a time, so memory stays O(n^2) rather than O(n^2 entities).
    dist = np.empty((n, n))
    for w in range(n):
        dist[w] = np.sqrt(((vectors - vectors[w]) ** 2).sum(axis=1))
    # Outcomes at distance 0 from an earlier one are copies; keeping more
    # outcomes than distinct ones would keep a copy with probability 0.
    distinct = n - int(np.tril(dist == 0.0, -1).any(axis=1).sum())
    if target > distinct:
        raise InputError(f"target {target} exceeds the {distinct} distinct outcomes")
    probs = s.probs
    kept: list[int] = []
    # Forward selection: greedily add the outcome that most reduces the
    # probability-weighted distance from dropped outcomes to their nearest
    # kept outcome.
    min_dist = np.full(n, np.inf)
    for _ in range(target):
        cand_cost = np.minimum(min_dist[:, None], dist)  # (n, candidate)
        cand_cost = probs @ cand_cost
        cand_cost[kept] = np.inf
        pick = int(np.argmin(cand_cost))
        kept.append(pick)
        min_dist = np.minimum(min_dist, dist[:, pick])
    keep_idx = np.array(sorted(kept))
    nearest = np.argmin(dist[:, keep_idx], axis=1)
    new_probs = np.bincount(nearest, weights=probs, minlength=target)
    return ScenarioSet(
        s.entities, new_probs, s.peak[keep_idx], s.offpeak[keep_idx]
    )
