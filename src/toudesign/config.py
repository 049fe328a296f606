"""Experiment configuration: one YAML file, everything explicit.

Every field has a default and the full resolved configuration is written
into the run artifact so no value stays implicit. Each value read from a
file is checked against its field's declared type (an int serves for a
float, a bool for neither) and kept as loaded. The supply, annuity and
solver sections are the library's own parameter classes, range-checked at
load for every command, as are the data, synthetic, grouping and pricing
counts and bounds, the peak hours, whose period structure is built at load,
and the storage specs, which are built once at load so that
`StorageSpec` checks the efficiencies, degradation cost and elastic share
of every type; an elastic_cost in use must be >= 0 and below the cheapest
type's storage cost. Storage costs for K types spread around a mean cost
theta_bar by the diversity coefficient delta_s; with four types the levels
are theta_bar * (1 -+ 1.5 delta_s, 1 -+ 0.5 delta_s). theta_bar and
capital_cost_per_mwh must be finite and > 0, delta_s finite and >= 0, and
every level > 0, so with K > 1 types delta_s < 2 / (K - 1). Every tariff
search scans at pricing.p_offpeak; p_o_range (whose low end must be
p_offpeak), p_o_steps, mode (only auto) and epsilon (only null) are
accepted and change nothing.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from functools import cache
from typing import Any, Mapping, get_args, get_origin, get_type_hints

import numpy as np
import yaml

from .benchmark import SolverSettings
from .costs import AnnuityParams, SupplyCostParams, daily_cost_factor
from .demand import (
    HourlyLoadTable,
    PeriodStructure,
    ScenarioSet,
    generate_synthetic,
    ingest_hourly_loads,
    reduce_scenarios,
)
from .errors import InputError
from .response import StorageSpec

# Default peak window 18:00 through the midnight hour (7 hours).
DEFAULT_PEAK_HOURS = (18, 19, 20, 21, 22, 23, 0)


@cache
def _type_hints(cls) -> dict[str, Any]:
    return get_type_hints(cls)


def _fits(value, tp) -> bool:
    """Whether a value as loaded from YAML fits the declared type `tp`."""
    if tp is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if tp in (int, str):
        return isinstance(value, tp) and not isinstance(value, bool)
    if tp is type(None):
        return value is None
    args = get_args(tp)
    if get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            return False
        if args[-1] is Ellipsis:
            return all(_fits(v, args[0]) for v in value)
        return len(value) == len(args) and all(map(_fits, value, args))
    return any(_fits(value, a) for a in args)  # a union


def _float_text(value, tp) -> str | None:
    """The first string within a value as loaded that float() reads as a
    finite number where `tp` takes a float. PyYAML's YAML 1.1 resolver reads
    a float only with a decimal point and a signed exponent, so 1e-12 and
    1.0e12 arrive as text."""
    if tp is float:
        try:
            return value if isinstance(value, str) and math.isfinite(float(value)) else None
        except ValueError:
            return None
    args = get_args(tp)
    if get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            return None
        types = args[:1] * len(value) if args[-1] is Ellipsis else args
        found = map(_float_text, value, types) if len(value) == len(types) else ()
    else:
        found = (_float_text(value, a) for a in args)
    return next((text for text in found if text is not None), None)


def _as_float(text: str) -> str:
    """text written so that YAML 1.1 reads it as a float: 1e-12 as 1.0e-12."""
    mantissa, e, exponent = text.strip().lower().partition("e")
    if "." not in mantissa:
        mantissa += ".0"
    return mantissa + e + ("+" + exponent if exponent[:1].isdigit() else exponent)


def _load(base, raw, where: str | None = None):
    """`base` with the fields read from a YAML mapping replaced; a field whose
    value in `base` is a dataclass is a section, loaded from its own mapping
    and validated by its class, its errors prefixed with the section name.
    Sequences become tuples."""
    raw = {} if raw is None else raw
    if not isinstance(raw, Mapping):
        raise InputError(f"{where or 'config'} must be a mapping, got {raw!r}")
    unknown = sorted(set(raw) - {f.name for f in fields(base)})
    if unknown:
        raise InputError(f"unknown {where or 'config'} keys: {unknown}")
    changes = {}
    for f in fields(base):
        if f.name not in raw:
            continue
        value, key = raw[f.name], f"{where}.{f.name}" if where else f.name
        default = getattr(base, f.name)
        if is_dataclass(default):
            value = _load(default, value, key)
        elif not _fits(value, tp := _type_hints(type(base))[f.name]):
            text = _float_text(value, tp)
            hint = f": YAML read {text} as text, write {_as_float(text)}" if text else ""
            raise InputError(f"{key} must be {f.type}, got {value!r}{hint}")
        changes[f.name] = tuple(value) if isinstance(value, list) else value
    try:
        return replace(base, **changes)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") if where else exc


@dataclass(frozen=True)
class DataCfg:
    loads_csv: str | None = None
    units: str = "mwh"
    solar_scale: float = 1.0
    reduce_to: int | None = None

    def __post_init__(self):
        if not np.isfinite(self.solar_scale) or self.solar_scale < 0:
            raise InputError("solar_scale must be finite and >= 0")
        if self.reduce_to is not None and self.reduce_to < 1:
            raise InputError("reduce_to must be >= 1")


@dataclass(frozen=True)
class SyntheticCfg:
    n_types: int = 4
    users_per_type: int = 4
    n_outcomes: int = 7
    peak_range_mwh: float = 10.0

    def __post_init__(self):
        if min(self.n_types, self.users_per_type, self.n_outcomes) < 1:
            raise InputError("n_types, users_per_type and n_outcomes must be >= 1")
        if not 0 <= self.peak_range_mwh < np.inf:
            raise InputError("peak_range_mwh must be finite and >= 0")


@dataclass(frozen=True)
class StorageCfg:
    theta_bar: float | None = 10.0
    capital_cost_per_mwh: float | None = None
    delta_s: float = 1.0 / 3.0
    n_types: int = 4
    eta_c: float = 1.0
    eta_d: float = 1.0
    tau: float = 0.0
    elastic_cost: float | None = None
    elastic_fraction: float = 0.0

    def __post_init__(self):
        if self.n_types < 1:
            raise InputError("n_types must be >= 1")
        for key in ("theta_bar", "capital_cost_per_mwh"):
            value = getattr(self, key)
            if value is not None and not 0 < value < np.inf:
                raise InputError(f"{key} must be finite and > 0, got {value!r}")
        if not 0 <= self.delta_s < np.inf:
            raise InputError(f"delta_s must be finite and >= 0, got {self.delta_s!r}")


@dataclass(frozen=True)
class PricingCfg:
    p_offpeak: float = 0.0
    epsilon: float | None = None
    mode: str = "auto"
    p_o_range: tuple[float, float] | None = None
    p_o_steps: int = 1

    def __post_init__(self):
        if self.mode != "auto":
            raise InputError("mode must be auto: every search scans at p_offpeak")
        if self.epsilon is not None:
            raise InputError("epsilon must be null: the candidate offset is automatic")
        if not 0 <= self.p_offpeak < np.inf:
            raise InputError("p_offpeak must be finite and >= 0")
        lo_hi = self.p_o_range
        if lo_hi is not None and not self.p_offpeak == lo_hi[0] <= lo_hi[1] < np.inf:
            raise InputError(
                "p_o_range must satisfy p_offpeak == lo <= hi < inf, as every search scans "
                f"at p_offpeak {self.p_offpeak!r}, got {list(lo_hi)!r}"
            )
        if self.p_o_steps < 1:
            raise InputError("p_o_steps must be >= 1")


@dataclass(frozen=True)
class GroupingCfg:
    mode: str = "fixed"  # fixed | random
    seeds: tuple[int, ...] = (0,)

    def __post_init__(self):
        if self.mode not in ("fixed", "random"):
            raise InputError("mode must be fixed or random")
        if not self.seeds:
            raise InputError("seeds must be non-empty")
        if min(self.seeds) < 0:
            raise InputError("seeds must be >= 0")


@dataclass(frozen=True)
class SweepsCfg:
    theta_bar: tuple[float, ...] = ()
    delta_s: tuple[float, ...] = ()
    delta_d: tuple[float, ...] = ()
    p_delta: tuple[float, ...] = ()
    tau: tuple[float, ...] = ()
    eta: tuple[float, ...] = ()
    elastic_fraction: tuple[float, ...] = ()


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataCfg = DataCfg()
    synthetic: SyntheticCfg = SyntheticCfg()
    peak_hours: tuple[int, ...] = DEFAULT_PEAK_HOURS
    supply: SupplyCostParams = SupplyCostParams(alpha=2.0)
    annuity: AnnuityParams = AnnuityParams(0.05, 10.0)
    storage: StorageCfg = StorageCfg()
    pricing: PricingCfg = PricingCfg()
    grouping: GroupingCfg = GroupingCfg()
    sweeps: SweepsCfg = SweepsCfg()
    solver: SolverSettings = SolverSettings()
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise InputError("seed must be >= 0")
        if self.data.units not in ("mwh", "kwh"):
            raise InputError("data.units must be 'mwh' or 'kwh'")
        try:
            self.periods()
        except InputError as exc:
            raise InputError(f"peak_hours: {exc}") from None
        if self.theta_bar_value() <= 0:
            raise InputError("mean storage cost must be > 0")
        thetas = self.type_thetas()
        stray = [t for t in thetas if t <= 0]
        if stray:
            raise InputError(f"storage-cost spread produces non-positive costs {stray}")
        cost, cheapest = self.storage.elastic_cost, min(thetas)
        if cost is not None and self.storage.elastic_fraction != 0.0 and not 0 <= cost < cheapest:
            raise InputError(
                "storage: elastic_cost must be >= 0 and below the cheapest type's storage "
                f"cost {cheapest!r}, got {cost!r}"
            )
        try:
            self.build_specs()
        except InputError as exc:
            raise InputError(f"storage: {exc}") from None

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "ExperimentConfig":
        return _load(cls(), raw)

    @classmethod
    def from_yaml(cls, path) -> "ExperimentConfig":
        # libyaml's safe loader where PyYAML was built with it: the same
        # documents, parsed several times faster.
        loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
        with open(path) as fh:
            return cls.from_dict(yaml.load(fh, Loader=loader))

    def snapshot(self) -> dict:
        """Fully resolved configuration, defaults included."""
        return asdict(self)

    def periods(self) -> PeriodStructure:
        return PeriodStructure(frozenset(self.peak_hours))

    def theta_bar_value(self) -> float:
        if self.storage.theta_bar is not None:
            return float(self.storage.theta_bar)
        if self.storage.capital_cost_per_mwh is None:
            raise InputError("either theta_bar or capital_cost_per_mwh is required")
        return daily_cost_factor(self.annuity) * self.storage.capital_cost_per_mwh

    def type_thetas(self) -> list[float]:
        k = self.storage.n_types
        tb, ds = self.theta_bar_value(), self.storage.delta_s
        centre = (k + 1) / 2.0
        return [tb * (1.0 + (i - centre) * ds) for i in range(1, k + 1)]

    def build_specs(self) -> dict[str, StorageSpec]:
        """Storage specs by type id, cheapest type first. The elastic cost
        applies only where some demand is elastic."""
        st = self.storage
        e_shift = st.elastic_cost if st.elastic_fraction != 0.0 else None
        return {
            t: StorageSpec(
                theta=theta, eta_c=st.eta_c, eta_d=st.eta_d, tau=st.tau,
                e_shift=e_shift, elastic_fraction=st.elastic_fraction,
            )
            for t, theta in zip(self.type_ids(), sorted(self.type_thetas()))
        }

    def load_user_scenarios(self, seed: int | None = None) -> ScenarioSet:
        if self.data.loads_csv:
            table = HourlyLoadTable.from_csv(
                self.data.loads_csv, units=self.data.units, solar_scale=self.data.solar_scale
            )
            scenarios = ingest_hourly_loads(table, self.periods())
        else:
            scenarios = generate_synthetic(
                self.synthetic.n_types,
                self.synthetic.users_per_type,
                self.synthetic.n_outcomes,
                self.synthetic.peak_range_mwh,
                self.seed if seed is None else seed,
            )
        if self.data.reduce_to is not None:
            scenarios = reduce_scenarios(scenarios, self.data.reduce_to)
        return scenarios

    def type_ids(self) -> list[str]:
        return [f"type{k:02d}" for k in range(self.storage.n_types)]

    def groupings(self, entities) -> list[dict[str, str]]:
        """User-to-type groupings: one fixed block partition, or one random
        equal-size partition per grouping seed."""
        entities = list(entities)
        k = self.storage.n_types
        if len(entities) < k:
            raise InputError(f"{len(entities)} users cannot fill {k} types")
        ids = self.type_ids()
        if self.grouping.mode == "fixed":
            orders = [np.arange(len(entities))]
        else:
            orders = [
                np.random.default_rng(s).permutation(len(entities))
                for s in self.grouping.seeds
            ]
        out = []
        for order in orders:
            sizes = np.full(k, len(entities) // k)
            sizes[: len(entities) % k] += 1
            grouping = {}
            pos = 0
            for t, size in zip(ids, sizes):
                for idx in order[pos : pos + size]:
                    grouping[entities[idx]] = t
                pos += size
            out.append(grouping)
        return out
