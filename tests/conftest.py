import csv
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from toudesign import PeriodStructure, ScenarioSet, StorageSpec, SupplyCostParams

HALF_DAY = PeriodStructure(frozenset(range(12)))


@pytest.fixture
def half_day():
    return HALF_DAY


@pytest.fixture
def quadratic_supply():
    return SupplyCostParams(alpha=2.0, beta=0.0, gamma=0.0)


def random_scenarios(
    rng,
    n_entities,
    n_outcomes,
    peak_range=(0.5, 8.0),
    off_range=(0.0, 4.0),
    equiprob=False,
    names=None,
):
    peak = rng.uniform(*peak_range, size=(n_outcomes, n_entities))
    offpeak = rng.uniform(*off_range, size=(n_outcomes, n_entities))
    if equiprob:
        probs = np.full(n_outcomes, 1.0 / n_outcomes)
    else:
        probs = rng.uniform(0.2, 1.0, n_outcomes)
        probs /= probs.sum()
    if names is None:
        names = tuple(f"u{i}" for i in range(n_entities))
    return ScenarioSet(tuple(names), probs, peak, offpeak)


def random_specs(rng, entities, theta_range=(0.05, 4.0), **kwargs):
    thetas = np.sort(rng.uniform(*theta_range, len(entities)))
    return {e: StorageSpec(theta=float(t), **kwargs) for e, t in zip(entities, thetas)}


SAMPLE_LOADS_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_sample_loads.py"


def make_sample_loads(tmp_path, users=6, days=20, seed=0):
    """Write a real-shaped hourly load/solar CSV with scripts/make_sample_loads.py."""
    path = tmp_path / "sample_loads.csv"
    subprocess.run(
        [sys.executable, str(SAMPLE_LOADS_SCRIPT), "--users", str(users), "--days", str(days),
         "--seed", str(seed), "--out", str(path)],
        check=True,
        capture_output=True,
    )
    return path


def write_loads(path, rows, solar=True):
    """Write `day,entity,h0..h23[,s0..s23]` rows given as (day, entity, load, solar)."""
    header = ["day", "entity"] + [f"h{i}" for i in range(24)]
    if solar:
        header += [f"s{i}" for i in range(24)]
    lines = [",".join(header)]
    for day, entity, load, sol in rows:
        values = list(load) + (list(sol) if solar else [])
        lines.append(",".join([day, entity] + [repr(float(v)) for v in values]))
    path.write_text("\n".join(lines) + "\n")
    return path


def hourly_loop_oracle(path, periods, units="mwh", solar_scale=1.0):
    """Ingest and approximation gap of an hourly load CSV, one (day, entity)
    cell at a time.

    Returns the scenario set and the gap of `periods` under the quadratic
    supply cost g(p) = p^2.
    """
    factor = 1.0 if units == "mwh" else 1e-3
    net = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            load = np.array([float(row[f"h{i}"]) for i in range(24)]) * factor
            solar = np.array([float(row[f"s{i}"]) for i in range(24)]) * factor
            net[(row["day"], row["entity"])] = np.maximum(load - solar * solar_scale, 0.0)
    days = sorted({d for d, _ in net})
    entities = sorted({e for _, e in net})
    peak_idx, off_idx = sorted(periods.peak_hours), sorted(periods.offpeak_hours)
    peak = np.empty((len(days), len(entities)))
    offpeak = np.empty_like(peak)
    hourly_total = period_total = 0.0
    for i, day in enumerate(days):
        profile = np.zeros(24)
        for j, entity in enumerate(entities):
            cell = net[(day, entity)]
            peak[i, j] = cell[peak_idx].sum()
            offpeak[i, j] = cell[off_idx].sum()
            profile += cell
        hourly_total += float(np.sum(profile**2))
        for window in (peak_idx, off_idx):
            period_total += float(profile[window].sum()) ** 2 / len(window)
    probs = np.full(len(days), 1.0 / len(days))
    scenarios = ScenarioSet(tuple(entities), probs, peak, offpeak)
    return scenarios, abs(period_total - hourly_total) / hourly_total
