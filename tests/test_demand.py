import csv
import io
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toudesign import demand
from toudesign import (
    HourlyLoadTable,
    InputError,
    PeriodStructure,
    SupplyCostParams,
    approximation_gap,
    ScenarioSet,
    adjust_variance,
    aggregate_by_type,
    generate_synthetic,
    ingest_hourly_loads,
    reduce_scenarios,
    synthetic_grouping,
)

from conftest import (
    hourly_loop_oracle,
    make_sample_loads,
    random_scenarios,
    write_loads,
)

ZEROS = np.zeros(24)


def same_scenarios(a, b):
    return (
        a.entities == b.entities
        and np.array_equal(a.probs, b.probs)
        and np.array_equal(a.peak, b.peak)
        and np.array_equal(a.offpeak, b.offpeak)
    )


def test_period_structure_counts():
    p = PeriodStructure(frozenset({18, 19, 20, 21, 22, 23, 0}))
    assert p.h_peak == 7
    assert p.h_offpeak == 17
    assert p.peak_hours.isdisjoint(p.offpeak_hours)


def test_period_structure_rejects_bad_hours():
    with pytest.raises(InputError):
        PeriodStructure(frozenset({24}))
    with pytest.raises(InputError):
        PeriodStructure(frozenset(range(24)))
    with pytest.raises(InputError):
        PeriodStructure(frozenset())


def test_scenario_set_validation():
    with pytest.raises(InputError):
        ScenarioSet(("a",), np.array([0.5, 0.5]), np.array([[1.0]]), np.array([[0.0]]))
    with pytest.raises(InputError):
        ScenarioSet(("a",), np.array([0.7, 0.7]), np.ones((2, 1)), np.ones((2, 1)))
    with pytest.raises(InputError):
        ScenarioSet(("a",), np.array([1.0]), np.array([[-1.0]]), np.array([[0.0]]))
    with pytest.raises(InputError):
        ScenarioSet(("a", "a"), np.array([1.0]), np.ones((1, 2)), np.ones((1, 2)))


def test_ingest_constant_load():
    table = HourlyLoadTable(("d1", "d2"), ("house",), np.ones((2, 1, 24)))
    scen = ingest_hourly_loads(table, PeriodStructure(frozenset(range(6))))
    assert scen.n_outcomes == 2
    np.testing.assert_allclose(scen.probs, [0.5, 0.5])
    np.testing.assert_allclose(scen.peak[:, 0], [6.0, 6.0])
    np.testing.assert_allclose(scen.offpeak[:, 0], [18.0, 18.0])


def test_ingest_clamps_surplus_solar(tmp_path):
    load = np.ones(24)
    solar = np.zeros(24)
    solar[3] = 5.0  # exceeds the 1 MWh load in hour 3
    path = write_loads(tmp_path / "loads.csv", [("d", "h", load, solar)])
    scen = ingest_hourly_loads(
        HourlyLoadTable.from_csv(path), PeriodStructure(frozenset(range(6)))
    )
    # hour 3 contributes 0, not -4
    assert scen.peak[0, 0] == pytest.approx(5.0)
    assert scen.offpeak[0, 0] == pytest.approx(18.0)


def test_ingest_solar_scale_applies_before_clamping(tmp_path):
    load = np.full(24, 2.0)
    solar = np.full(24, 0.5)
    path = write_loads(tmp_path / "loads.csv", [("d", "h", load, solar)])
    table = HourlyLoadTable.from_csv(path, solar_scale=2.0)
    scen = ingest_hourly_loads(table, PeriodStructure(frozenset(range(12))))
    # net = 2 - 2*0.5 = 1 per hour
    assert scen.peak[0, 0] == pytest.approx(12.0)
    with pytest.raises(InputError, match="solar scale"):
        HourlyLoadTable.from_csv(path, solar_scale=-1.0)


def test_ingest_missing_cell_reports_key(tmp_path):
    rows = [("d1", "a", np.ones(24), ZEROS), ("d1", "b", np.ones(24), ZEROS)]
    rows += [("d2", "a", np.ones(24), ZEROS), ("d3", "a", np.ones(24), ZEROS)]
    path = write_loads(tmp_path / "loads.csv", rows)
    # the first missing cell in (day, entity) order, of two
    with pytest.raises(InputError, match="missing load row for day='d2', entity='b'"):
        HourlyLoadTable.from_csv(path)


def test_ingest_rejects_non_finite(tmp_path):
    load = np.ones(24)
    load[5] = np.nan
    solar = np.zeros(24)
    solar[7] = np.inf
    for row in (("d", "h", load, ZEROS), ("d", "h", np.ones(24), solar)):
        path = write_loads(tmp_path / "loads.csv", [row])
        with pytest.raises(InputError, match="day 'd', entity 'h': non-finite"):
            HourlyLoadTable.from_csv(path)
    with pytest.raises(InputError):
        HourlyLoadTable(("d",), ("h",), load[None, None, :])


def test_ingest_energy_balance(tmp_path):
    rng = np.random.default_rng(0)
    rows = [
        (f"d{i}", "h", rng.uniform(0, 3, 24), rng.uniform(0, 1.5, 24))
        for i in range(5)
    ]
    periods = PeriodStructure(frozenset({0, 7, 9, 18, 19, 20, 21}))
    table = HourlyLoadTable.from_csv(write_loads(tmp_path / "loads.csv", rows))
    scen = ingest_hourly_loads(table, periods)
    for i, (_, _, load, solar) in enumerate(rows):
        total = np.maximum(load - solar, 0.0).sum()
        assert scen.peak[i, 0] + scen.offpeak[i, 0] == pytest.approx(total, rel=1e-12)


def test_ingest_matches_per_cell_loop_on_sample_loads(tmp_path):
    path = make_sample_loads(tmp_path, users=6, days=20)
    periods = PeriodStructure(frozenset({0, 7, 9, 18, 19, 20, 21}))
    for units, solar_scale in (("mwh", 1.0), ("kwh", 0.5)):
        table = HourlyLoadTable.from_csv(path, units=units, solar_scale=solar_scale)
        assert table.net.shape == (20, 6, 24)
        expected, gap = hourly_loop_oracle(path, periods, units, solar_scale)
        assert same_scenarios(ingest_hourly_loads(table, periods), expected)
        got = approximation_gap(table, periods, SupplyCostParams(1.0))
        assert got == pytest.approx(gap, rel=1e-12, abs=0)


def test_aggregate_identity_is_noop():
    rng = np.random.default_rng(1)
    scen = random_scenarios(rng, 3, 4)
    out = aggregate_by_type(scen, {e: e for e in scen.entities})
    assert same_scenarios(out, scen)


def test_aggregate_perfect_correlation_doubles_marginal():
    peak = np.array([[1.0, 1.0], [3.0, 3.0]])
    scen = ScenarioSet(("a", "b"), np.array([0.5, 0.5]), peak, np.zeros_like(peak))
    out = aggregate_by_type(scen, {"a": "t", "b": "t"})
    np.testing.assert_allclose(out.peak[:, 0], [2.0, 6.0])
    assert out.n_outcomes == scen.n_outcomes


def test_aggregate_16_users_into_4_types_preserves_outcomes():
    scen = generate_synthetic(4, 4, 7, 10.0, seed=3)
    out = aggregate_by_type(scen, synthetic_grouping(scen))
    assert out.n_entities == 4
    assert out.n_outcomes == 7
    np.testing.assert_array_equal(out.probs, scen.probs)
    np.testing.assert_allclose(out.aggregate_peak(), scen.aggregate_peak())


def test_aggregate_missing_entity_rejected():
    scen = generate_synthetic(2, 2, 3, 5.0, seed=0)
    with pytest.raises(InputError):
        aggregate_by_type(scen, {scen.entities[0]: "t"})


def test_aggregate_commutes_with_variance_for_singletons():
    rng = np.random.default_rng(5)
    scen = random_scenarios(rng, 3, 5)
    grouping = {e: f"g{e}" for e in scen.entities}
    a = aggregate_by_type(adjust_variance(scen, 1.7), grouping)
    b = adjust_variance(aggregate_by_type(scen, grouping), 1.7)
    np.testing.assert_allclose(a.peak, b.peak)
    np.testing.assert_allclose(a.offpeak, b.offpeak)


def test_adjust_variance_collapses_to_mean():
    rng = np.random.default_rng(2)
    scen = random_scenarios(rng, 2, 6)
    out = adjust_variance(scen, 0.0)
    for j in range(scen.n_entities):
        np.testing.assert_allclose(out.peak[:, j], scen.probs @ scen.peak[:, j])


def test_adjust_variance_identity():
    rng = np.random.default_rng(3)
    scen = random_scenarios(rng, 2, 4)
    out = adjust_variance(scen, 1.0)
    np.testing.assert_array_equal(out.peak, scen.peak)
    np.testing.assert_array_equal(out.offpeak, scen.offpeak)


def test_adjust_variance_widens():
    peak = np.array([[1.0], [3.0]])
    scen = ScenarioSet(("a",), np.array([0.5, 0.5]), peak, np.zeros_like(peak))
    out = adjust_variance(scen, 2.0)
    np.testing.assert_allclose(out.peak[:, 0], [0.0, 4.0])


def test_adjust_variance_clamps_negative():
    peak = np.array([[1.0], [5.0]])
    scen = ScenarioSet(("a",), np.array([0.5, 0.5]), peak, np.zeros_like(peak))
    out = adjust_variance(scen, 3.0)
    # raw values would be [-3, 9]
    np.testing.assert_allclose(out.peak[:, 0], [0.0, 9.0])


@settings(max_examples=60, deadline=None)
@given(
    delta=st.floats(0.0, 1.5),
    seed=st.integers(0, 10_000),
)
def test_adjust_variance_preserves_mean_without_clamping(delta, seed):
    rng = np.random.default_rng(seed)
    # keep demand well above zero so widening never clamps
    scen = random_scenarios(rng, 2, 5, peak_range=(10.0, 12.0), off_range=(10.0, 12.0))
    out = adjust_variance(scen, delta)
    assert abs(out.probs.sum() - 1.0) < 1e-9
    for j in range(scen.n_entities):
        assert out.probs @ out.peak[:, j] == pytest.approx(scen.probs @ scen.peak[:, j], rel=1e-9)


def test_generate_synthetic_shape_and_determinism():
    a = generate_synthetic(4, 4, 7, 0.01, seed=42)
    b = generate_synthetic(4, 4, 7, 0.01, seed=42)
    assert a.n_entities == 16
    assert a.n_outcomes == 7
    assert np.all(a.offpeak == 0)
    assert np.all((0 <= a.peak) & (a.peak <= 0.01))
    assert same_scenarios(a, b)
    grouping = synthetic_grouping(a)
    assert len(set(grouping.values())) == 4


def test_generate_synthetic_zero_range():
    scen = generate_synthetic(1, 2, 3, 0.0, seed=1)
    assert np.all(scen.peak == 0)


def test_reduce_identity():
    rng = np.random.default_rng(4)
    scen = random_scenarios(rng, 2, 6)
    assert same_scenarios(reduce_scenarios(scen, 6), scen)


def test_reduce_rejects_bad_target():
    rng = np.random.default_rng(4)
    scen = random_scenarios(rng, 2, 6)
    with pytest.raises(InputError):
        reduce_scenarios(scen, 0)
    with pytest.raises(InputError):
        reduce_scenarios(scen, 7)


def test_reduce_merges_duplicates_losslessly():
    peak = np.array([[2.0], [2.0], [5.0]])
    scen = ScenarioSet(("a",), np.array([0.25, 0.25, 0.5]), peak, np.zeros_like(peak))
    out = reduce_scenarios(scen, 2)
    assert out.n_outcomes == 2
    assert abs(out.probs.sum() - 1.0) < 1e-12
    merged = {(float(p), float(d)) for p, d in zip(out.probs, out.peak[:, 0])}
    assert merged == {(0.5, 2.0), (0.5, 5.0)}


def test_reduce_rejects_target_above_distinct_outcomes():
    peak = np.array([[1.0], [1.0], [1.0], [2.0]])
    scen = ScenarioSet(("a",), np.full(4, 0.25), peak, np.zeros_like(peak))
    with pytest.raises(InputError, match="target 3 exceeds the 2 distinct outcomes"):
        reduce_scenarios(scen, 3)
    out = reduce_scenarios(scen, 2)
    assert out.probs.tolist() == [0.75, 0.25]
    assert out.peak[:, 0].tolist() == [1.0, 2.0]


def test_reduce_361_to_100_preserves_means():
    rng = np.random.default_rng(7)
    days = 361
    base = 3.0 + np.sin(np.linspace(0, 8 * np.pi, days))
    peak = np.column_stack([base * rng.uniform(0.8, 1.2) + rng.normal(0, 0.15, days) for _ in range(4)])
    peak = np.maximum(peak, 0.0)
    offpeak = peak * rng.uniform(1.5, 2.5)
    scen = ScenarioSet(
        tuple(f"u{i}" for i in range(4)), np.full(days, 1.0 / days), peak, offpeak
    )
    out = reduce_scenarios(scen, 100)
    assert out.n_outcomes == 100
    assert abs(out.probs.sum() - 1.0) < 1e-9
    for j in range(scen.n_entities):
        before = scen.probs @ scen.peak[:, j]
        after = out.probs @ out.peak[:, j]
        assert abs(after - before) / before < 0.05


def test_reduce_is_deterministic():
    rng = np.random.default_rng(12)
    scen = random_scenarios(rng, 3, 30)
    a = reduce_scenarios(scen, 10)
    b = reduce_scenarios(scen, 10)
    assert same_scenarios(a, b)


def dense_reduce(s, target):
    """reduce_scenarios with the full outcome x outcome x entity difference
    tensor and a sequential probability merge."""
    vectors = np.hstack([s.peak, s.offpeak])
    diff = vectors[:, None, :] - vectors[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    kept, min_dist = [], np.full(s.n_outcomes, np.inf)
    for _ in range(target):
        cand_cost = s.probs @ np.minimum(min_dist[:, None], dist)
        cand_cost[kept] = np.inf
        kept.append(int(np.argmin(cand_cost)))
        min_dist = np.minimum(min_dist, dist[:, kept[-1]])
    kept = sorted(kept)
    nearest = np.argmin(dist[:, kept], axis=1)
    probs = np.zeros(target)
    for w in range(s.n_outcomes):
        probs[nearest[w]] += s.probs[w]
    return ScenarioSet(s.entities, probs, s.peak[kept], s.offpeak[kept])


def test_reduce_equals_dense_tensor_formula():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n_outcomes = int(rng.integers(2, 40))
        scen = random_scenarios(rng, int(rng.integers(1, 6)), n_outcomes)
        # repeat some outcomes, so distances tie at zero
        rows = rng.integers(0, n_outcomes, n_outcomes + int(rng.integers(1, 10)))
        probs = rng.uniform(0.2, 1.0, rows.size)
        scen = ScenarioSet(scen.entities, probs / probs.sum(), scen.peak[rows], scen.offpeak[rows])
        distinct = np.unique(rows).size
        for target in (1, int(rng.integers(1, distinct + 1)), distinct):
            assert same_scenarios(reduce_scenarios(scen, target), dense_reduce(scen, target))


def full_row_reduce(s, target):
    """reduce_scenarios computing every row of the distance matrix in full."""
    vectors = np.hstack([s.peak, s.offpeak])
    n = s.n_outcomes
    dist = np.empty((n, n))
    for w in range(n):
        dist[w] = np.sqrt(((vectors - vectors[w]) ** 2).sum(axis=1))
    distinct = n - int(np.tril(dist == 0.0, -1).any(axis=1).sum())
    if target > distinct:
        raise InputError(f"target {target} exceeds the {distinct} distinct outcomes")
    kept, min_dist = [], np.full(n, np.inf)
    for _ in range(target):
        cand_cost = s.probs @ np.minimum(min_dist[:, None], dist)
        cand_cost[kept] = np.inf
        kept.append(int(np.argmin(cand_cost)))
        min_dist = np.minimum(min_dist, dist[:, kept[-1]])
    keep_idx = np.array(sorted(kept))
    nearest = np.argmin(dist[:, keep_idx], axis=1)
    probs = np.bincount(nearest, weights=s.probs, minlength=target)
    return ScenarioSet(s.entities, probs, s.peak[keep_idx], s.offpeak[keep_idx])


def test_reduce_equals_full_row_distances_bit_for_bit():
    rng = np.random.default_rng(33)
    for n_entities in (1, 2, 3, 5, 8, 40, 70, 150):
        n_outcomes = int(rng.integers(2, 50))
        scen = random_scenarios(rng, n_entities, n_outcomes)
        # copied outcomes tie at distance zero
        rows = rng.integers(0, n_outcomes, n_outcomes + int(rng.integers(1, 10)))
        probs = rng.uniform(0.2, 1.0, rows.size)
        scen = ScenarioSet(scen.entities, probs / probs.sum(), scen.peak[rows], scen.offpeak[rows])
        distinct = np.unique(rows).size
        for target in (1, int(rng.integers(1, distinct + 1)), distinct):
            assert same_scenarios(reduce_scenarios(scen, target), full_row_reduce(scen, target))
        message = f"target {distinct + 1} exceeds the {distinct} distinct outcomes"
        for reduce in (reduce_scenarios, full_row_reduce):
            with pytest.raises(InputError, match=message):
                reduce(scen, distinct + 1)


def test_load_table_csv(tmp_path):
    path = tmp_path / "loads.csv"
    header = "day,entity," + ",".join(f"h{i}" for i in range(24))
    line = "d1,h," + ",".join(["1000.0"] * 24)
    path.write_text(f"{header}\n{line}\n")
    table = HourlyLoadTable.from_csv(path, units="kwh")
    assert table.days == ("d1",) and table.entities == ("h",)
    # kWh converted to MWh, and no solar columns means no solar
    np.testing.assert_array_equal(table.net, np.ones((1, 1, 24)))


def test_load_table_csv_without_solar_equals_zero_solar(tmp_path):
    rng = np.random.default_rng(3)
    rows = [(d, e, rng.uniform(0, 2, 24), ZEROS) for d in ("d1", "d2") for e in ("a", "b")]
    plain = HourlyLoadTable.from_csv(write_loads(tmp_path / "plain.csv", rows, solar=False))
    zero = HourlyLoadTable.from_csv(write_loads(tmp_path / "zero.csv", rows))
    np.testing.assert_array_equal(plain.net, zero.net)
    np.testing.assert_array_equal(plain.net[1, 0], rows[2][2])


def test_load_table_csv_shuffled_columns_and_rows(tmp_path):
    rng = np.random.default_rng(4)
    rows = [(d, e, rng.uniform(0, 2, 24), rng.uniform(0, 1, 24)) for d in ("d2", "d1") for e in ("b", "a")]
    reference = HourlyLoadTable.from_csv(write_loads(tmp_path / "ref.csv", rows))
    header = ["day", "entity"] + [f"h{i}" for i in range(24)] + [f"s{i}" for i in range(24)]
    order = rng.permutation(len(header))
    lines = [",".join(header[k] for k in order)]
    for day, entity, load, solar in rows:
        cells = [day, entity] + [repr(float(v)) for v in (*load, *solar)]
        lines.append(",".join(cells[k] for k in order))
    path = tmp_path / "shuffled.csv"
    path.write_text("\n".join(lines) + "\n")
    table = HourlyLoadTable.from_csv(path)
    assert table.days == ("d1", "d2") and table.entities == ("a", "b")
    np.testing.assert_array_equal(table.net, reference.net)
    np.testing.assert_array_equal(table.net[1, 1], np.maximum(rows[0][2] - rows[0][3], 0.0))


def test_load_table_csv_rejects_duplicate_row(tmp_path):
    rows = [(d, e, np.ones(24), ZEROS) for d, e in
            (("d1", "a"), ("d1", "b"), ("d2", "b"), ("d2", "a"), ("d2", "b"), ("d1", "b"))]
    path = write_loads(tmp_path / "loads.csv", rows)
    # both repeated cells are reported by their first row: (d1, b) comes first
    with pytest.raises(InputError, match="duplicate load row for day='d1', entity='b'"):
        HourlyLoadTable.from_csv(path)


def test_load_table_csv_rejects_short_and_non_numeric_rows(tmp_path):
    path = write_loads(tmp_path / "loads.csv", [(d, "a", np.ones(24), ZEROS) for d in ("d1", "d2")])
    lines = path.read_text().splitlines()
    short = lines[:2] + [lines[2].rsplit(",", 1)[0]]
    path.write_text("\n".join(short) + "\n")
    with pytest.raises(InputError, match=re.escape(f"{path}:3: non-numeric hourly value")):
        HourlyLoadTable.from_csv(path)
    bad = lines[:2] + [lines[2].replace("1.0", "x", 1)]
    path.write_text("\n".join(bad) + "\n")
    with pytest.raises(InputError, match=re.escape(f"{path}:3: non-numeric hourly value")):
        HourlyLoadTable.from_csv(path)


def test_load_table_csv_rejects_missing_columns(tmp_path):
    path = tmp_path / "loads.csv"
    header = "day,entity," + ",".join(f"h{i}" for i in range(23))
    path.write_text(header + "\nd1,a," + ",".join(["1.0"] * 23) + "\n")
    with pytest.raises(InputError, match=r"missing hourly columns \['h23'\]"):
        HourlyLoadTable.from_csv(path)
    path.write_text("entity," + ",".join(f"h{i}" for i in range(24)) + "\n")
    with pytest.raises(InputError, match="'day' and 'entity' columns"):
        HourlyLoadTable.from_csv(path)
    path.write_text("day,entity," + ",".join(f"h{i}" for i in range(24)) + "\n")
    with pytest.raises(InputError, match="empty"):
        HourlyLoadTable.from_csv(path)


def test_load_table_csv_error_names_the_physical_line(tmp_path):
    path = write_loads(tmp_path / "loads.csv", [(d, "a", np.ones(24), ZEROS) for d in ("d1", "d2", "d3")])
    header, first, second, third = path.read_text().splitlines()
    # a blank line 3 does not shift the bad value off line 5
    path.write_text("\n".join([header, first, "", second, third.replace("1.0", "x", 1)]) + "\n")
    with pytest.raises(InputError, match=re.escape(f"{path}:5: non-numeric hourly value")):
        HourlyLoadTable.from_csv(path)
    # nor does a quoted day that spans lines 2 and 3
    quoted = '"d\n1"' + first[2:]
    path.write_text("\n".join([header, quoted, second, third.replace("1.0", "x", 1)]) + "\n")
    with pytest.raises(InputError, match=re.escape(f"{path}:5: non-numeric hourly value")):
        HourlyLoadTable.from_csv(path)
    # a Latin-1 day in the header read's first buffer (2 rows) and past it
    # (201 rows, where the row parser meets it), with \n or bare \r endings
    for n_rows, ending in [(2, "\n"), (201, "\n"), (2, "\r"), (201, "\r")]:
        good = [f"d{k}" + first[2:] for k in range(n_rows - 1)]
        text = ending.join([header, *good, "d\xed" + first[2:]]) + ending
        path.write_bytes(text.encode("latin-1"))
        assert n_rows == 2 or text.index("\xed") > io.DEFAULT_BUFFER_SIZE
        with pytest.raises(InputError, match=re.escape(f"{path}:{n_rows + 1}: load csv is not UTF-8")):
            HourlyLoadTable.from_csv(path)


LOAD_HEADER = ["day", "entity"] + [f"h{i}" for i in range(24)] + [f"s{i}" for i in range(24)]


def load_text(records, header=LOAD_HEADER, terminator="\n"):
    return "".join(",".join(cells) + terminator for cells in [header, *records])


def load_record(day, entity, value="1.5", solar="0.25"):
    return [day, entity] + [value] * 24 + [solar] * 24


GRID = [load_record(d, e, str(v)) for v, (d, e) in enumerate([("d1", "a"), ("d1", "b"), ("d2", "a"), ("d2", "b")])]
COLUMN_ORDER = np.random.default_rng(5).permutation(len(LOAD_HEADER))


def read_outcome(path, **kwargs):
    try:
        table = HourlyLoadTable.from_csv(path, **kwargs)
    except InputError as exc:
        return str(exc)
    return table.days, table.entities, table.net


def read_both_ways(path, **kwargs) -> bool:
    """Check that from_csv gives what it gives with the row parser reading
    every file; return whether its C reader took the file."""
    with mock.patch.object(demand, "_parse_rows", wraps=demand._parse_rows) as row_parser:
        fast = read_outcome(path, **kwargs)
    with mock.patch.object(demand, "_read_columns", side_effect=ValueError):
        slow = read_outcome(path, **kwargs)
    if isinstance(fast, str) or isinstance(slow, str):
        assert fast == slow
    else:
        assert fast[:2] == slow[:2] and all(type(k) is str for k in fast[0] + fast[1])
        assert np.array_equal(fast[2], slow[2])
    return not row_parser.called


# name: (file text, whether numpy's C reader takes it)
LOAD_CSV_CASES = {
    "crlf": (load_text(GRID, terminator="\r\n"), True),
    "blank lines": (load_text(GRID).replace("\n", "\n\n"), True),
    "whitespace-only line": (load_text(GRID).replace("\n", "\n \n", 1), False),
    "spaces in keys and values": (load_text([load_record(" d 1", "a b ", " 2.5 ")]), True),
    "# in a key": (load_text([load_record("#d", "a#")]), True),
    "quoted keys with commas": (load_text([load_record('"d,1"', '"a,""b"""')]), True),
    "quoted key with a line break": (load_text([load_record('"d\r\n1"', "a")], terminator="\r\n"), False),
    "shuffled columns": (load_text([[r[k] for k in COLUMN_ORDER] for r in GRID], [LOAD_HEADER[k] for k in COLUMN_ORDER]), True),
    "repeated column": (load_text([r + ["7.0"] for r in GRID], LOAD_HEADER + ["h3"]), True),
    "extra columns": (load_text([["note"] + r + ['"x,y"'] for r in GRID], ["note"] + LOAD_HEADER + ["tail"]), True),
    "no solar columns": (load_text([r[:26] for r in GRID], LOAD_HEADER[:26]), True),
    "long key": (load_text([load_record("d" * 40, "a")]), False),
    "39-character key": (load_text([load_record("d" * 39, "a")]), True),
    "Latin-1 key": (load_text([load_record("día", "a")]), False),
    "other non-ASCII key": (load_text([load_record("d€", "a")]), False),
    "1_0": (load_text([load_record("d", "a", "1_0")]), False),
    "quoted numbers": (load_text([load_record("d", "a", '"1.5"')]), True),
    "+1e-3": (load_text([load_record("d", "a", "+1e-3")]), True),
    "inf": (load_text([load_record("d", "a", solar="inf")]), False),
    "nan": (load_text([load_record("d", "a", "nan")]), False),
    "short row": (load_text([load_record("d", "a")[:-1]]), False),
    "duplicate row": (load_text(GRID + GRID[1:2]), True),
    "missing row": (load_text(GRID[:3]), True),
    "header only": (load_text([]), True),
    "empty file": ("", True),
}


@pytest.mark.parametrize("case", LOAD_CSV_CASES)
@pytest.mark.parametrize("units", ["mwh", "kwh"])
def test_load_csv_c_reader_matches_row_parser(tmp_path, case, units):
    text, c_reader = LOAD_CSV_CASES[case]
    path = tmp_path / "loads.csv"
    path.write_bytes(text.encode())
    assert read_both_ways(path, units=units, solar_scale=0.5) == c_reader


@pytest.mark.parametrize("terminator", ["\n", "\r\n"])
def test_sample_loads_take_the_c_reader_with_either_line_ending(tmp_path, terminator):
    path = make_sample_loads(tmp_path, users=5, days=8)
    text = path.read_bytes()
    assert text.count(b"\r\n") == 1 + 5 * 8
    path.write_bytes(text.replace(b"\r\n", terminator.encode()))
    assert read_both_ways(path, units="kwh", solar_scale=0.5)


@settings(max_examples=80, deadline=None)
@given(
    keys=st.lists(st.text(alphabet=' d1#,"é\n', max_size=3), min_size=1, max_size=3, unique=True),
    n_entities=st.integers(1, 2),
    values=st.lists(st.floats(0.0, 5.0).map(repr), min_size=48, max_size=48),
    odd=st.sampled_from(["", "1_0", "+1e-3", " 2 ", "inf", "nan", "x", "1e400"]),
    drop=st.sampled_from([None, 0, -1]),
    quoting=st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]),
    terminator=st.sampled_from(["\n", "\r\n"]),
    blank=st.booleans(),
    solar=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_load_csv_c_reader_matches_row_parser_on_generated_files(
    tmp_path_factory, keys, n_entities, values, odd, drop, quoting, terminator, blank, solar, seed
):
    rng = np.random.default_rng(seed)
    cells = [(d, e) for d in keys for e in keys[:n_entities]]
    rows = [[d, e] + list(rng.permutation(values)) for d, e in cells]
    if odd:
        rows[rng.integers(len(rows))][2 + rng.integers(48)] = odd
    if drop is not None:
        rows.pop(drop)  # a missing cell, or a short row once the last cell is cut
        if drop == -1 and rows:
            rows[-1].pop()
    header = LOAD_HEADER if solar else LOAD_HEADER[:26]
    buffer = io.StringIO()
    writer = csv.writer(buffer, quoting=quoting, lineterminator=terminator)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row[: len(header)])
        if blank:
            buffer.write(terminator)
    path = tmp_path_factory.mktemp("loads") / "loads.csv"
    path.write_bytes(buffer.getvalue().encode())
    read_both_ways(path, units="kwh", solar_scale=0.5)


def test_load_table_csv_emits_no_warning(tmp_path):
    path = tmp_path / "loads.csv"
    for text in (load_text([]), load_text(GRID).replace("\n", "\n\n")):
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            read_outcome(path)
