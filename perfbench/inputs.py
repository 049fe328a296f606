"""Seeded input generators; the same seed always gives the same inputs.

The program receives only what these functions produce: demand arrays, an
hourly load CSV or YAML configs. Nothing here imports `toudesign`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

PEAK_HOURS = (18, 19, 20, 21, 22, 23, 0)
N_TYPES = 4


@dataclass(frozen=True)
class Demand:
    """A discrete joint demand distribution, as plain arrays."""

    entities: tuple[str, ...]
    probs: np.ndarray
    peak: np.ndarray
    offpeak: np.ndarray


def block_grouping(entities) -> dict[str, str]:
    """Users to types in fixed blocks of equal size, cheapest type first."""
    per = len(entities) // N_TYPES
    return {e: f"type{min(j // per, N_TYPES - 1):02d}" for j, e in enumerate(entities)}


def dirichlet_demand(seed: int, n_users: int, n_outcomes: int, peak_hi: float = 10.0) -> Demand:
    """Uniform peak demand on [0, peak_hi] with Dirichlet outcome probabilities.

    Unequal probabilities give every user its own tail masses and therefore
    its own capacity thresholds, so the per-user price scan sees about
    n_users * n_outcomes distinct candidates.
    """
    rng = np.random.default_rng([seed, 1])
    peak = rng.uniform(0.0, peak_hi, size=(n_outcomes, n_users))
    probs = rng.dirichlet(np.ones(n_outcomes))
    return Demand(user_names(n_users), probs, peak, np.zeros_like(peak))


def equiprobable_demand(seed: int, n_users: int, n_outcomes: int, peak_hi: float = 10.0) -> Demand:
    """Uniform peak demand with equiprobable outcomes.

    All users share the same tail masses, so the users of one type share
    their thresholds and a type-level scan has only n_types * n_outcomes + 1
    candidates; the work sits in the planner.
    """
    rng = np.random.default_rng([seed, 2])
    peak = rng.uniform(0.0, peak_hi, size=(n_outcomes, n_users))
    probs = np.full(n_outcomes, 1.0 / n_outcomes)
    return Demand(user_names(n_users), probs, peak, np.zeros_like(peak))


def user_names(n_users: int) -> tuple[str, ...]:
    return tuple(f"user{j:03d}" for j in range(n_users))


@dataclass(frozen=True)
class HourlyLoads:
    """Hourly load and solar per (day, user), as written to the CSV (MWh)."""

    path: Path
    load: np.ndarray  # (days, users, 24)
    solar: np.ndarray  # (days, users, 24)


def hourly_load_csv(seed: int, n_users: int, n_days: int, path: Path) -> HourlyLoads:
    """Write a `day,entity,h0..h23,s0..s23` CSV shaped like real household data.

    Evening-peaked household profiles with day-to-day noise and a yearly
    season, and a midday solar bell, as in `scripts/make_sample_loads.py`.
    Values are written with six decimals; the returned arrays hold the values
    written, rounded the same way.
    """
    rng = np.random.default_rng([seed, 3])
    hours = np.arange(24, dtype=float)
    base = 0.4 + 0.25 * np.exp(-(((hours - 20) % 24) ** 2) / 8.0)
    base += 0.1 * np.exp(-((hours - 8.0) ** 2) / 6.0)
    sun = np.clip(np.cos((hours - 13.0) / 24.0 * 2 * np.pi), 0.0, None)
    scales = rng.uniform(0.6, 1.6, n_users)
    season = 1.0 + 0.2 * np.sin(2 * np.pi * np.arange(n_days) / 361.0)
    shape = (n_days, n_users, 24)
    load = (
        base[None, None, :]
        * rng.uniform(0.7, 1.3, (n_days, n_users, 1))
        * scales[None, :, None]
        * season[:, None, None]
        * rng.uniform(0.85, 1.15, shape)
    )
    solar = 0.5 * sun[None, None, :] * scales[None, :, None] * rng.uniform(0.5, 1.2, (n_days, n_users, 1))
    load = np.round(load, 6)
    solar = np.round(solar, 6)
    names = user_names(n_users)
    header = ["day", "entity"] + [f"h{i}" for i in range(24)] + [f"s{i}" for i in range(24)]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for d in range(n_days):
            values = np.concatenate((load[d], solar[d]), axis=1)
            fh.writelines(
                f"d{d:03d},{names[u]}," + ",".join(f"{v:.6f}" for v in values[u]) + "\n"
                for u in range(n_users)
            )
    return HourlyLoads(path, load, solar)


# `configs/example.yaml` at the commit that introduced the benchmark, so that
# later edits of the shipped example do not change the workload.
EXAMPLE_CONFIG = {
    "data": {"loads_csv": None, "units": "mwh", "solar_scale": 1.0, "reduce_to": None},
    "synthetic": {"n_types": 4, "users_per_type": 4, "n_outcomes": 7, "peak_range_mwh": 10.0},
    "peak_hours": list(PEAK_HOURS),
    "supply": {"alpha": 1.0, "beta": 0.0, "gamma": 0.0},
    "annuity": {"rate": 0.05, "years": 10, "days_per_year": 365},
    "storage": {
        "theta_bar": 10.0,
        "capital_cost_per_mwh": None,
        "delta_s": 0.3333333333,
        "n_types": 4,
        "eta_c": 1.0,
        "eta_d": 1.0,
        "tau": 0.0,
        "elastic_cost": None,
        "elastic_fraction": 0.0,
    },
    "pricing": {"p_offpeak": 0.0, "epsilon": None, "mode": "auto", "p_o_range": None, "p_o_steps": 1},
    "grouping": {"mode": "fixed", "seeds": [0]},
    "sweeps": {
        "theta_bar": [0.5, 2, 6, 12, 20, 28, 36, 44],
        "delta_s": [0.0, 0.2, 0.4],
        "delta_d": [0.0, 0.5, 1.0, 1.5, 2.0],
        "p_delta": [0, 2, 4, 8, 16, 32, 64],
        "tau": [0.0, 2.0, 4.0],
        "eta": [0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
        "elastic_fraction": [0.0, 0.1, 0.2, 0.3],
    },
    "solver": {"tolerance": 1.0e-11, "max_iterations": 10000},
}

# `scripts/run_synthetic_study.py`'s configuration, with a several-step
# off-peak price grid so that the eta sweep runs the extended 2-D search.
STUDY_CONFIG = {
    "synthetic": {"n_types": 4, "users_per_type": 4, "n_outcomes": 7, "peak_range_mwh": 10.0},
    "supply": {"alpha": 1.0},
    "storage": {"theta_bar": 10.0, "delta_s": 1 / 3, "n_types": 4, "elastic_cost": 2.0},
    "pricing": {"p_o_range": [0.0, 2.0], "p_o_steps": 3},
    "grouping": {"mode": "random", "seeds": [0, 1, 2, 3, 4]},
    "sweeps": {
        "theta_bar": [0.5, 2, 4, 6, 9, 12, 16, 20, 24, 28, 32, 36, 44],
        "eta": [0.5, 0.7, 0.9, 1.0],
    },
}


def cli_configs(seed: int, directory: Path, toy: bool = False) -> dict[str, Path]:
    """Write the example-shaped config and the study's configs, seeded.

    The study's sweep grids are split into one config per grid point, keyed
    `study-<axis>-<index>`, so that each sweep command solves one point (once
    per grouping) on an instance of its own. `toy` shortens the study to two points per axis and two
    groupings.
    """
    paths = {}
    example = {k: (dict(v) if isinstance(v, dict) else v) for k, v in EXAMPLE_CONFIG.items()}
    example["seed"] = int(seed)
    paths["example"] = write_config(directory / "example.yaml", example)
    study = {k: (dict(v) if isinstance(v, dict) else v) for k, v in STUDY_CONFIG.items()}
    grids = study.pop("sweeps")
    if toy:
        grids = {"theta_bar": [2.0, 12.0], "eta": [0.7, 1.0]}
        study["grouping"] = {"mode": "random", "seeds": [0, 1]}
    point = 0
    for axis, grid in grids.items():
        for i, value in enumerate(grid):
            # Each point draws its own synthetic instance, so that the work of
            # the whole study does not hinge on one draw.
            point += 1
            config = dict(study, seed=int(seed) * 100 + point, sweeps={axis: [value]})
            paths[f"study-{axis}-{i:02d}"] = write_config(directory / f"study_{axis}_{i:02d}.yaml", config)
    return paths


def write_config(path: Path, config: dict) -> Path:
    path.write_text(yaml.safe_dump(config, sort_keys=True))
    return path
