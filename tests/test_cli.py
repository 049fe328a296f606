import argparse
import csv
import json
from dataclasses import replace

import numpy as np
import pytest
import yaml

from toudesign import PeriodStructure
from toudesign.cli import _write_rows, build_parser, main
from toudesign.errors import ConvergenceError, InputError, OrderingViolationError

from conftest import hourly_loop_oracle, make_sample_loads

SMALL_CONFIG = {
    "synthetic": {"n_types": 2, "users_per_type": 2, "n_outcomes": 4, "peak_range_mwh": 6.0},
    "supply": {"alpha": 2.0},
    "storage": {"theta_bar": 0.6, "delta_s": 0.3, "n_types": 2},
    "peak_hours": [18, 19, 20, 21, 22, 23, 0],
    "seed": 11,
}


def write_config(tmp_path, overrides=None, name="cfg.yaml"):
    raw = json.loads(json.dumps(SMALL_CONFIG))
    for key, value in (overrides or {}).items():
        if isinstance(value, dict):
            raw.setdefault(key, {}).update(value)
        else:
            raw[key] = value
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_ingest_roundtrip(tmp_path):
    loads = tmp_path / "loads.csv"
    header = "day,entity," + ",".join(f"h{i}" for i in range(24))
    lines = [header]
    rng = np.random.default_rng(0)
    for day in ("d1", "d2", "d3"):
        for entity in ("a", "b"):
            values = rng.uniform(0, 2, 24)
            lines.append(f"{day},{entity}," + ",".join(f"{v}" for v in values))
    loads.write_text("\n".join(lines) + "\n")
    cfg = write_config(tmp_path, {"data": {"loads_csv": str(loads)}})
    out = tmp_path / "out"
    assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "scenarios.csv")
    assert list(rows[0]) == ["outcome", "prob", "entity", "peak_mwh", "offpeak_mwh"]
    assert [(r["outcome"], r["entity"]) for r in rows] == [
        (w, e) for w in ("0", "1", "2") for e in ("a", "b")
    ]
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["command"] == "ingest"
    assert meta["exit_status"] == 0
    assert meta["config"]["storage"]["theta_bar"] == 0.6


def test_ingest_real_shaped_loads_in_kwh_with_solar(tmp_path):
    loads = make_sample_loads(tmp_path, users=6, days=20)
    cfg = write_config(
        tmp_path, {"data": {"loads_csv": str(loads), "units": "kwh", "solar_scale": 0.5}}
    )
    out = tmp_path / "out"
    assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == 0
    periods = PeriodStructure(frozenset(SMALL_CONFIG["peak_hours"]))
    expected, _ = hourly_loop_oracle(loads, periods, units="kwh", solar_scale=0.5)
    with open(out / "scenarios.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1:] == [
        [
            str(w),
            repr(float(expected.probs[w])),
            entity,
            repr(float(expected.peak[w, j])),
            repr(float(expected.offpeak[w, j])),
        ]
        for w in range(expected.n_outcomes)
        for j, entity in enumerate(expected.entities)
    ]


def test_ingest_refuses_a_load_file_that_is_not_utf8(tmp_path, capsys):
    loads = tmp_path / "loads.csv"
    header = "day,entity," + ",".join(f"h{i}" for i in range(24))
    loads.write_bytes((header + "\nd\xed,a," + ",".join(["1.0"] * 24) + "\n").encode("latin-1"))
    cfg = write_config(tmp_path, {"data": {"loads_csv": str(loads)}})
    out = tmp_path / "out"
    assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"invalid input: {loads}:2: load csv is not UTF-8 text\n", err
    meta = json.loads((out / "run_meta.json").read_text())
    assert (meta["command"], meta["exit_status"], meta["outputs"]) == ("ingest", 2, [])


def test_result_tables_write_python_and_numpy_floats_as_their_repr(tmp_path):
    values = [0.1, 1 / 3, 1e300, 5e-324, -0.0, 7.0]
    path = tmp_path / "rows.csv"
    _write_rows(path, ["kind", "n"] + [f"x{i}" for i in range(len(values))],
                [["float", 3, *values], ["float64", np.int64(3), *map(np.float64, values)]])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1:] == [[kind, "3", *map(repr, values)] for kind in ("float", "float64")]


def test_optimize_writes_results_and_passes_grid_check(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = main(
        ["optimize", "--config", str(cfg), "--out", str(out), "--scheme", "both", "--verify-grid"]
    )
    assert code == 0
    for scheme in ("pt", "pi"):
        payload = json.loads((out / f"result_{scheme}.json").read_text())
        assert payload["scheme"] == scheme
        assert payload["p_peak"] >= payload["p_offpeak"]
        trace = read_csv(out / f"trace_{scheme}.csv")
        assert {"candidate_pdelta", "social_cost"} <= set(trace[0])
        responses = read_csv(out / f"responses_{scheme}.csv")
        assert {"entity", "capacity_mwh", "outcome", "charge_mwh", "shift_mwh"} == set(
            responses[0]
        )
    pt = json.loads((out / "result_pt.json").read_text())
    pi = json.loads((out / "result_pi.json").read_text())
    assert pt["social_cost"]["total"] >= pi["social_cost"]["total"] - 1e-9


def test_readme_optimize_with_grid_check_on_example_config(tmp_path, capsys):
    from pathlib import Path

    example = Path(__file__).resolve().parent.parent / "configs" / "example.yaml"
    out = tmp_path / "out"
    code = main(
        ["optimize", "--config", str(example), "--out", str(out), "--scheme", "both", "--verify-grid"]
    )
    assert code == 0
    assert "grid check passed for pi" in capsys.readouterr().out
    assert (out / "run_meta.json").is_file()


def test_failed_grid_check_still_writes_run_meta(tmp_path, monkeypatch):
    import toudesign.cli as cli_mod

    monkeypatch.setattr(cli_mod, "grid_check", lambda *a, **k: "synthetic failure")
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = main(
        ["optimize", "--config", str(cfg), "--out", str(out), "--scheme", "both", "--verify-grid"]
    )
    assert code == 3
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["command"] == "optimize"
    assert meta["exit_status"] == 3
    assert meta["outputs"] == sorted(
        str(out / name) for name in ("result_pt.json", "trace_pt.csv", "responses_pt.csv")
    )


def test_grid_check_fails_when_the_scan_cost_is_too_high(tmp_path, monkeypatch, capsys):
    import toudesign.cli as cli_mod

    optimize_one = cli_mod._optimize_one

    def worse_scan(*args, **kwargs):
        result, pricing = optimize_one(*args, **kwargs)
        return replace(result, scan_cost=result.scan_cost + 1.0), pricing

    monkeypatch.setattr(cli_mod, "_optimize_one", worse_scan)
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = main(
        ["optimize", "--config", str(cfg), "--out", str(out), "--scheme", "pi", "--verify-grid"]
    )
    assert code == 3
    assert "grid check FAILED for pi: scan cost" in capsys.readouterr().err
    assert json.loads((out / "run_meta.json").read_text())["exit_status"] == 3


def test_optimize_deterministic_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["optimize", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["optimize", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("result_pt.json", "result_pi.json", "trace_pt.csv", "responses_pi.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_benchmark_emits_ratios(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
    ratios = json.loads((out / "ratios.json").read_text())
    assert ratios["kappa_pt"] >= ratios["kappa_pi"] >= 1.0 - 1e-12
    structure = json.loads((out / "structure.json").read_text())
    assert all(entry["ok"] for entry in structure.values())
    plan = json.loads((out / "so_plan.json").read_text())
    assert set(plan["capacities"]) == {"t0u0", "t0u1", "t1u0", "t1u1"}


def test_sweep_theta_bar(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "sweeps": {"theta_bar": [0.2, 0.6, 50.0]},
            "grouping": {"mode": "random", "seeds": [0, 1]},
        },
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--axis", "theta_bar"]) == 0
    rows = read_csv(out / "sweep_theta_bar.csv")
    assert [r["theta_bar"] for r in rows] == ["0.2", "0.6", "50.0"]
    for row in rows:
        assert float(row["kappa_pt"]) >= float(row["kappa_pi"]) >= 1.0 - 1e-9
    # far beyond the no-investment threshold every scheme collapses to no storage
    assert float(rows[-1]["kappa_pt"]) == 1.0
    assert float(rows[-1]["kappa_no"]) == 1.0


def test_sweep_lambda(tmp_path):
    cfg = write_config(
        tmp_path,
        {"sweeps": {"p_delta": [0.0, 1.0], "theta_bar": [0.5, 2.0]}},
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--axis", "lambda"]) == 0
    rows = read_csv(out / "sweep_lambda.csv")
    assert len(rows) == 4
    zero_rows = [r for r in rows if float(r["p_delta"]) == 0.0]
    assert all(float(r["lambda"]) == 1.0 for r in zero_rows)


def test_sweep_delta_d(tmp_path):
    cfg = write_config(tmp_path, {"sweeps": {"delta_d": [0.0, 1.0, 2.0]}})
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--axis", "delta_d"]) == 0
    rows = read_csv(out / "sweep_delta_d.csv")
    assert [r["delta_d"] for r in rows] == ["0.0", "1.0", "2.0"]
    for row in rows:
        assert float(row["kappa_pt"]) >= 1.0 - 1e-9


def test_sweep_eta(tmp_path):
    cfg = write_config(tmp_path, {"sweeps": {"eta": [0.8, 1.0]}})
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--axis", "eta"]) == 0
    rows = read_csv(out / "sweep_eta.csv")
    assert len(rows) == 2
    # lossless storage serves the system at least as cheaply
    assert float(rows[1]["sc_pt"]) <= float(rows[0]["sc_pt"]) + 1e-9


def test_sweep_delta_s_and_tau(tmp_path):
    cfg = write_config(tmp_path, {"sweeps": {"delta_s": [0.0, 0.3], "tau": [0.0, 0.2]}})
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--axis", "delta_s"]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--axis", "tau"]) == 0
    tau_rows = read_csv(out / "sweep_tau.csv")
    # degradation makes storage weakly less attractive
    assert float(tau_rows[1]["capacity_pt"]) <= float(tau_rows[0]["capacity_pt"]) + 1e-9


def test_single_user_single_type_results_match(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "synthetic": {"n_types": 1, "users_per_type": 1, "n_outcomes": 4, "peak_range_mwh": 6.0},
            "storage": {"theta_bar": 0.6, "delta_s": 0.0, "n_types": 1},
        },
    )
    out = tmp_path / "out"
    assert main(["optimize", "--config", str(cfg), "--out", str(out), "--scheme", "both"]) == 0
    pt = json.loads((out / "result_pt.json").read_text())
    pi = json.loads((out / "result_pi.json").read_text())
    pt.pop("scheme"), pi.pop("scheme")
    pt.pop("capacities"), pi.pop("capacities")  # keyed by type vs user id
    assert pt == pi


def test_sweep_elastic_requires_cost(tmp_path):
    cfg = write_config(tmp_path, {"sweeps": {"elastic_fraction": [0.0, 0.2]}})
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(cfg), "--out", str(out), "--axis", "elastic_fraction"])
    assert code == 2
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["command"] == "sweep:elastic_fraction"
    assert meta["exit_status"] == 2
    assert meta["outputs"] == []


def test_benchmark_non_convergence_writes_run_meta(tmp_path):
    cfg = write_config(tmp_path, {"solver": {"max_iterations": 1}})
    out = tmp_path / "out"
    assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 4
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["command"] == "benchmark"
    assert meta["exit_status"] == 4
    assert meta["outputs"] == []
    assert not (out / "so_plan.json").exists()


def test_sweep_elastic_fraction(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "storage": {"elastic_cost": 0.05},
            "sweeps": {"elastic_fraction": [0.0, 0.3]},
        },
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--axis", "elastic_fraction"]) == 0
    rows = read_csv(out / "sweep_elastic_fraction.csv")
    assert len(rows) == 2
    assert float(rows[1]["sc_pt"]) <= float(rows[0]["sc_pt"]) + 1e-9


def test_verify_command_passes(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert all(entry["ok"] for entry in report.values())


def test_commands_share_one_parser_and_parse_only_their_own_arguments(tmp_path, monkeypatch):
    parser = build_parser()
    assert build_parser() is parser
    parsed = []
    parse_args = parser.parse_args

    def spy(argv):
        parsed.append(vars(parse_args(argv)))
        return argparse.Namespace(**parsed[-1])

    monkeypatch.setattr(parser, "parse_args", spy)
    cfg = write_config(tmp_path, {"sweeps": {"p_delta": [0.0, 1.0], "theta_bar": [0.5, 2.0]}})
    common = {"config": cfg, "seed": None}
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 0
    argv = ["sweep", "--config", str(cfg), "--out", str(tmp_path / "s"), "--axis", "lambda"]
    assert main(argv) == 0
    assert parsed == [
        {"command": "verify", "out": tmp_path / "v", **common},
        {"command": "sweep", "out": tmp_path / "s", "axis": "lambda", **common},
    ]
    for out, command, name in (
        ("v", "verify", "verify_report.json"),
        ("s", "sweep:lambda", "sweep_lambda.csv"),
    ):
        meta = json.loads((tmp_path / out / "run_meta.json").read_text())
        assert meta["command"] == command
        assert meta["outputs"] == [str(tmp_path / out / name)]


def test_verify_reports_a_failing_oracle(tmp_path, monkeypatch):
    import toudesign.oracles as oracles

    monkeypatch.setattr(oracles, "optimal_capacity_discrete", lambda *a, **k: 0.0)
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 3
    report = json.loads((out / "verify_report.json").read_text())
    assert list(report) == sorted(
        [
            "sizing-enumeration-oracle",
            "price-scan-vs-grid",
            "scheme-ordering-and-structure",
            "extended-reduction",
            "probability-normalization",
        ]
    )
    assert report["sizing-enumeration-oracle"]["ok"] is False
    assert report["sizing-enumeration-oracle"]["detail"].startswith("capacity cost")
    assert all(entry["ok"] for name, entry in report.items() if name != "sizing-enumeration-oracle")
    assert json.loads((out / "run_meta.json").read_text())["exit_status"] == 3


def test_verify_fails_an_extended_search_that_breaks_ties_upward(tmp_path, monkeypatch):
    import toudesign.oracles as oracles

    search = oracles.optimize_prices_extended

    def last_cheapest(*args):
        *instance, (lo, hi), steps = args
        runs = [search(*instance, (p_o, p_o), 1) for p_o in np.linspace(lo, hi, steps)]
        cheapest = min(r.scan_cost for r in runs)
        last = [r for r in runs if r.scan_cost == cheapest][-1]
        return replace(last, trace=[row for r in runs for row in r.trace])

    monkeypatch.setattr(oracles, "optimize_prices_extended", last_cheapest)
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 3
    report = json.loads((out / "verify_report.json").read_text())
    assert [name for name, entry in report.items() if not entry["ok"]] == ["extended-reduction"]


def test_lambda_sweep_rejects_a_non_finite_price_difference(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"sweeps": {"p_delta": [float("nan"), 2.0], "theta_bar": [10.0]}}
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--axis", "lambda"]) == 2
    err = capsys.readouterr().err
    assert err == "invalid input: sweeps.p_delta values must be finite, got [nan, 2.0]\n", err


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_lambda_sweep_rejects_a_non_finite_mean_storage_cost(tmp_path, capsys, bad):
    cfg = write_config(tmp_path, {"sweeps": {"p_delta": [1.0], "theta_bar": [bad]}})
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--axis", "lambda"]) == 2
    err = capsys.readouterr().err
    assert err == f"invalid input: sweeps.theta_bar values must be finite, got [{bad!r}]\n", err


def test_missing_config_is_invalid_input(tmp_path):
    assert main(["optimize", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)]) == 2


def test_bad_config_key_is_invalid_input(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("storage:\n  thetabar: 3\n")
    assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    # no resolved configuration, so nothing to record
    assert not (tmp_path / "o" / "run_meta.json").exists()


@pytest.mark.parametrize(
    "override, key",
    [
        ({"storage": {"theta_bar": "ten"}}, "storage.theta_bar"),
        ({"storage": {"n_types": "four"}}, "storage.n_types"),
        ({"synthetic": {"n_outcomes": "7"}}, "synthetic.n_outcomes"),
        ({"sweeps": {"theta_bar": 5}}, "sweeps.theta_bar"),
        ({"peak_hours": [18, "x"]}, "peak_hours"),
        ({"storage": [1, 2]}, "storage"),
        ({"storage": {"n_types": True}}, "storage.n_types"),
        ({"pricing": {"p_o_range": [0.0, 1.0, 2.0]}}, "pricing.p_o_range"),
    ],
)
def test_malformed_config_value_is_invalid_input(tmp_path, capsys, override, key):
    cfg = write_config(tmp_path, override)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--axis", "theta_bar"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input:") and f" {key} " in err, err
    assert not (out / "run_meta.json").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "solver: {tolerance: 1e-12}",
            "solver.tolerance must be float, got '1e-12': YAML read 1e-12 as text, write 1.0e-12",
        ),
        (
            "sweeps: {theta_bar: [0.5, 2E1]}",
            "sweeps.theta_bar must be tuple[float, ...], got [0.5, '2E1']: "
            "YAML read 2E1 as text, write 2.0e+1",
        ),
        (
            "pricing: {p_o_range: [0.0, 1.0e3]}",
            "pricing.p_o_range must be tuple[float, float] | None, got [0.0, '1.0e3']: "
            "YAML read 1.0e3 as text, write 1.0e+3",
        ),
        ("storage: {theta_bar: nan}", "storage.theta_bar must be float | None, got 'nan'"),
        ("synthetic: {n_outcomes: '7'}", "synthetic.n_outcomes must be int, got '7'"),
    ],
)
def test_a_float_yaml_reads_as_text_is_refused_with_how_to_write_it(tmp_path, capsys, text, message):
    # PyYAML's YAML 1.1 resolver reads a float only with a decimal point and
    # a signed exponent; the value stays refused, and the message says why.
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text + "\n")
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"invalid input: {message}\n"
    assert not (out / "run_meta.json").exists()


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("supply", "alpha", 0),
        ("supply", "alpha", float("nan")),
        ("supply", "beta", -1),
        ("supply", "beta", float("nan")),
        ("supply", "gamma", float("inf")),
        ("storage", "tau", float("nan")),
        ("storage", "theta_bar", float("inf")),
        ("annuity", "years", 0),
        ("annuity", "years", float("nan")),
        ("annuity", "days_per_year", float("inf")),
        ("solver", "tolerance", 0),
        ("solver", "tolerance", float("inf")),
        ("solver", "max_iterations", 0),
    ],
)
def test_out_of_range_section_value_is_invalid_at_load(tmp_path, capsys, section, key, value):
    cfg = write_config(tmp_path, {section: {key: value}})
    out = tmp_path / "out"
    assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: {section}: "), err
    assert not (out / "run_meta.json").exists()


@pytest.mark.parametrize("command", ["ingest", "optimize", "sweep", "benchmark", "verify"])
@pytest.mark.parametrize(
    "section, key, value",
    [
        ("storage", "n_types", 0),
        ("data", "solar_scale", -1),
        ("data", "solar_scale", float("inf")),
        ("data", "reduce_to", 0),
    ],
)
def test_out_of_range_data_or_storage_value_fails_every_command(
    tmp_path, capsys, command, section, key, value
):
    cfg = write_config(tmp_path, {section: {key: value}})
    out = tmp_path / "out"
    axis = ["--axis", "theta_bar"] if command == "sweep" else []
    assert main([command, "--config", str(cfg), "--out", str(out), *axis]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: {section}: {key} must be "), err
    assert not (out / "run_meta.json").exists()


@pytest.mark.parametrize("command", ["ingest", "optimize", "sweep", "benchmark", "verify"])
@pytest.mark.parametrize(
    "override, flag, message",
    [
        ({"grouping": {"mode": "random", "seeds": [-1]}}, [], "grouping: seeds must be >= 0"),
        ({"synthetic": {"peak_range_mwh": float("inf")}}, [], "synthetic: peak_range_mwh must be finite"),
        ({"peak_hours": [25]}, [], "peak_hours: peak hours must be a non-empty subset of 0..23"),
        ({"peak_hours": []}, [], "peak_hours: peak hours must be a non-empty subset of 0..23"),
        ({"seed": -1}, [], "seed must be >= 0\n"),
        ({}, ["--seed", "-1"], "seed must be >= 0\n"),
    ],
    ids=[
        "negative-seed", "infinite-range", "hour-25", "no-peak-hour",
        "negative-config-seed", "negative-seed-flag",
    ],
)
def test_out_of_range_grouping_synthetic_or_peak_hours_fails_every_command(
    tmp_path, capsys, command, override, flag, message
):
    cfg = write_config(tmp_path, override)
    out = tmp_path / "out"
    axis = ["--axis", "theta_bar"] if command == "sweep" else []
    assert main([command, "--config", str(cfg), "--out", str(out), *axis, *flag]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: {message}"), err
    assert not (out / "run_meta.json").exists()


@pytest.mark.parametrize("command", ["ingest", "optimize", "sweep", "benchmark", "verify"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("key", ["theta_bar", "delta_s", "capital_cost_per_mwh"])
def test_non_finite_storage_cost_names_its_key_for_every_command(
    tmp_path, capsys, command, value, key
):
    fields = {key: value}
    if key == "capital_cost_per_mwh":
        fields["theta_bar"] = None  # so that the capital cost is the one in use
    cfg = write_config(tmp_path, {"storage": fields})
    out = tmp_path / "out"
    axis = ["--axis", "theta_bar"] if command == "sweep" else []
    assert main([command, "--config", str(cfg), "--out", str(out), *axis]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: storage: {key} must be finite"), err
    assert not (out / "run_meta.json").exists()


@pytest.mark.parametrize("axis", ["theta_bar", "delta_s"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_sweep_grid_value_names_its_key(tmp_path, capsys, axis, value):
    cfg = write_config(tmp_path, {"sweeps": {axis: [0.2, value]}})
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--axis", axis]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: sweeps.{axis} values must be finite"), err
    meta = json.loads((out / "run_meta.json").read_text())
    assert (meta["exit_status"], meta["outputs"]) == (2, [])


@pytest.mark.parametrize(
    "axis, sweeps, message",
    [
        ("theta_bar", {"theta_bar": []}, "sweeps.theta_bar grid is empty"),
        (
            "lambda",
            {"p_delta": [], "theta_bar": [1.0]},
            "lambda sweep needs sweeps.p_delta and sweeps.theta_bar grids",
        ),
        ("elastic_fraction", {"elastic_fraction": []}, "sweeps.elastic_fraction grid is empty"),
    ],
    ids=["theta_bar", "lambda", "elastic_fraction"],
)
def test_empty_sweep_grid_is_refused(tmp_path, capsys, axis, sweeps, message):
    cfg = write_config(tmp_path, {"sweeps": sweeps})
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--axis", axis]) == 2
    err = capsys.readouterr().err
    assert err == f"invalid input: {message}\n", err
    meta = json.loads((out / "run_meta.json").read_text())
    assert (meta["command"], meta["exit_status"], meta["outputs"]) == (f"sweep:{axis}", 2, [])


def test_benchmark_records_the_planner_certificate_in_run_meta(tmp_path, monkeypatch):
    import toudesign.cli as cli_mod

    solve_so, plans = cli_mod.solve_so, []

    def recording(*args, **kwargs):
        plans.append(solve_so(*args, **kwargs))
        return plans[-1]

    monkeypatch.setattr(cli_mod, "solve_so", recording)
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
    (plan,) = plans
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["metrics"] == {
        "so": {
            "sweeps": plan.iterations,
            "optimality_residual": plan.optimality_residual,
            "residual_limit": plan.residual_limit,
        }
    }
    assert 0.0 <= plan.optimality_residual <= plan.residual_limit


def _planner_metrics(plan):
    return {
        "so": {
            "sweeps": plan.iterations,
            "optimality_residual": plan.optimality_residual,
            "residual_limit": plan.residual_limit,
        }
    }


def test_benchmark_records_the_best_plan_when_the_planner_does_not_converge(
    tmp_path, monkeypatch
):
    import toudesign.cli as cli_mod

    solve_so, best = cli_mod.solve_so, []

    def recording(*args, **kwargs):
        try:
            return solve_so(*args, **kwargs)
        except ConvergenceError as exc:
            best.append(exc.best)
            raise

    monkeypatch.setattr(cli_mod, "solve_so", recording)
    cfg = write_config(tmp_path, {"solver": {"tolerance": 1e-16, "max_iterations": 1}})
    out = tmp_path / "out"
    assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 4
    (plan,) = best
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["metrics"] == _planner_metrics(plan)
    assert (plan.iterations, meta["outputs"]) == (1, [])
    assert plan.optimality_residual > plan.residual_limit


def test_benchmark_records_the_plan_when_the_ratio_check_fails(tmp_path, monkeypatch):
    import toudesign.cli as cli_mod

    solve_so, plans = cli_mod.solve_so, []

    def recording(*args, **kwargs):
        plans.append(solve_so(*args, **kwargs))
        return plans[-1]

    def violated(*args):
        raise OrderingViolationError("synthetic ordering violation")

    monkeypatch.setattr(cli_mod, "solve_so", recording)
    monkeypatch.setattr(cli_mod, "compute_ratios", violated)
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 3
    (plan,) = plans
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["metrics"] == _planner_metrics(plan)
    assert meta["outputs"] == []
    assert plan.optimality_residual <= plan.residual_limit


def test_seed_flag_overrides_the_config_seed_in_run_meta(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["ingest", "--config", str(cfg), "--out", str(out), "--seed", "3"]) == 0
    meta = json.loads((out / "run_meta.json").read_text())
    assert (meta["seed"], meta["config"]["seed"]) == (3, SMALL_CONFIG["seed"])


@pytest.mark.parametrize("command", ["ingest", "verify"])
@pytest.mark.parametrize(
    "section, key, value",
    [
        ("storage", "eta_c", 2.0),
        ("storage", "eta_d", 0),
        ("storage", "tau", -1),
        ("storage", "elastic_fraction", 1.5),
        ("storage", "elastic_cost", 20.0),
        ("storage", "elastic_cost", -1.0),
        ("synthetic", "n_outcomes", 0),
        ("synthetic", "users_per_type", 0),
        ("synthetic", "peak_range_mwh", -1),
        ("pricing", "p_o_steps", 0),
        ("pricing", "epsilon", -1),
        ("pricing", "epsilon", 1e-6),
        ("pricing", "mode", "plain"),
        ("pricing", "p_offpeak", -1.0),
        ("pricing", "p_offpeak", float("inf")),
        ("pricing", "p_o_range", [2.0, 1.0]),
        ("pricing", "p_o_range", [0.0, float("inf")]),
        ("pricing", "p_o_range", [1.0, 2.0]),
    ],
)
def test_out_of_range_value_fails_commands_that_do_not_use_it(
    tmp_path, capsys, command, section, key, value
):
    fields = {key: value}
    if key == "elastic_cost":
        fields["elastic_fraction"] = 0.1  # an elastic cost is used only with elastic demand
    cfg = write_config(tmp_path, {section: fields})
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: {section}: ") and key in err, err
    assert not (out / "run_meta.json").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("mode", "extended"), ("epsilon", 1e-6), ("p_offpeak", -1.0),
        ("p_o_range", [2.0, 1.0]), ("p_o_range", [1.0, 2.0]),
    ],
)
def test_pricing_value_fails_optimize_before_the_scan(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, {"pricing": {key: value}})
    out = tmp_path / "out"
    assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: pricing: {key} must "), err
    assert not (out / "run_meta.json").exists()


def test_elastic_cost_bound_names_the_cheapest_storage_cost():
    from toudesign import ExperimentConfig

    with pytest.raises(InputError) as info:
        ExperimentConfig.from_dict({"storage": {"elastic_cost": 20.0, "elastic_fraction": 0.1}})
    assert str(info.value) == (
        "storage: elastic_cost must be >= 0 and below the cheapest type's storage cost 5.0, "
        "got 20.0"
    )


def test_capital_cost_is_annuitized_into_the_type_costs(tmp_path):
    from toudesign import ExperimentConfig, daily_cost_factor

    storage = {"theta_bar": None, "capital_cost_per_mwh": 30000.0}
    cfg_path = write_config(tmp_path, {"storage": storage})
    out = tmp_path / "out"
    assert main(["benchmark", "--config", str(cfg_path), "--out", str(out)]) == 0
    cfg = ExperimentConfig.from_yaml(cfg_path)
    mean_cost = daily_cost_factor(cfg.annuity) * 30000.0
    expected = [mean_cost * (1.0 - 0.15), mean_cost * (1.0 + 0.15)]  # delta_s 0.3, two types
    assert [spec.theta for spec in cfg.build_specs().values()] == pytest.approx(expected)


def test_storage_cost_needs_theta_bar_or_capital_cost(tmp_path, capsys):
    cfg = write_config(tmp_path, {"storage": {"theta_bar": None}})
    out = tmp_path / "out"
    assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "either theta_bar or capital_cost_per_mwh is required" in err, err
    assert not (out / "run_meta.json").exists()


def test_config_keeps_values_as_loaded(tmp_path):
    from toudesign import ExperimentConfig

    cfg = ExperimentConfig.from_yaml(
        write_config(tmp_path, {"annuity": {"years": 10}, "sweeps": {"p_delta": [0, 2.5]}})
    )
    assert cfg.snapshot()["annuity"]["years"] == 10
    assert [type(v) for v in cfg.sweeps.p_delta] == [int, float]


def test_sweep_lambda_ignores_elastic_cost_without_elastic_demand(tmp_path):
    # the cheapest type costs 0.51 < elastic_cost, harmless at fraction 0
    cfg = write_config(
        tmp_path,
        {
            "storage": {"elastic_cost": 0.55},
            "sweeps": {"p_delta": [0.0, 1.0], "theta_bar": [0.6]},
        },
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--axis", "lambda"]) == 0
    assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0


def test_sweep_lambda_with_elastic_demand(tmp_path):
    from toudesign import ExperimentConfig, no_storage_cost, social_cost_curve, user_specs_from_grouping

    grids = {"p_delta": [0.0, 0.2, 0.45, 1.0, 3.0], "theta_bar": [0.3, 0.6, 1.5]}
    lam = {}
    for fraction in (0.0, 0.3):
        cfg_path = write_config(
            tmp_path,
            {"storage": {"elastic_cost": 0.4, "elastic_fraction": fraction}, "sweeps": grids},
            name=f"cfg{fraction}.yaml",
        )
        out = tmp_path / f"out{fraction}"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out), "--axis", "lambda"]) == 0
        lam[fraction] = [float(row["lambda"]) for row in read_csv(out / "sweep_lambda.csv")]
    cfg = ExperimentConfig.from_yaml(cfg_path)
    scen = cfg.load_user_scenarios()
    specs = user_specs_from_grouping(cfg.build_specs(), scen, cfg.groupings(scen.entities)[0])
    base = np.mean([spec.theta for spec in specs.values()])
    sc_no = no_storage_cost(scen, cfg.periods(), cfg.supply).total
    expected = []
    for tb in grids["theta_bar"]:
        scale = tb / base
        scaled = {
            e: replace(spec, theta=spec.theta * scale, e_shift=spec.e_shift * scale)
            for e, spec in specs.items()
        }
        assert {spec.elastic_fraction for spec in scaled.values()} == {0.3}
        curve = social_cost_curve(scen, scaled, cfg.periods(), cfg.supply, grids["p_delta"])
        expected.append(curve / sc_no)
    # rows run over p_delta, then theta_bar
    assert lam[0.3] == pytest.approx(np.array(expected).T.ravel(), rel=1e-12, abs=0.0)
    assert lam[0.3] != lam[0.0]


def test_sweep_delta_s_beyond_two_thirds_with_two_types(tmp_path):
    cfg = write_config(tmp_path, {"sweeps": {"delta_s": [0.8]}})
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--axis", "delta_s"]) == 0
    assert len(read_csv(out / "sweep_delta_s.csv")) == 1


@pytest.mark.parametrize("axis, value", [("theta_bar", 0), ("delta_s", -0.1)])
def test_sweep_point_is_validated_like_a_file(tmp_path, axis, value):
    cfg = write_config(tmp_path, {"sweeps": {axis: [value]}})
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--axis", axis]) == 2
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["exit_status"] == 2
    assert meta["outputs"] == []


def test_cost_spread_with_a_non_positive_type_cost_is_invalid(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "synthetic": {"n_types": 4, "users_per_type": 1},
            "storage": {"n_types": 4, "delta_s": 0.7},
        },
    )
    out = tmp_path / "out"
    assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 2
    assert not (out / "run_meta.json").exists()


def test_lossy_storage_needs_no_p_o_range(tmp_path):
    cfg = write_config(tmp_path, {"storage": {"eta_c": 0.9, "eta_d": 0.9}})
    out = tmp_path / "out"
    assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0


def test_extended_mode_with_range(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "storage": {"eta_c": 0.9, "eta_d": 0.9},
            "pricing": {"p_o_range": [0.0, 1.0], "p_o_steps": 2},
        },
    )
    out = tmp_path / "out"
    assert main(["optimize", "--config", str(cfg), "--out", str(out), "--scheme", "pt"]) == 0
    trace = read_csv(out / "trace_pt.csv")
    assert ["candidate_pdelta", "social_cost"] == list(trace[0])


@pytest.mark.parametrize(
    "name", ["configs/example.yaml", *(f"tests/golden/{g}/config.yaml" for g in ("study", "elastic"))]
)
def test_configs_load_as_the_pure_python_safe_loader_reads_them(name):
    from pathlib import Path

    from toudesign import ExperimentConfig

    path = Path(__file__).resolve().parent.parent / name
    pure = ExperimentConfig.from_dict(yaml.load(path.read_text(), Loader=yaml.SafeLoader))
    assert ExperimentConfig.from_yaml(path) == pure


def test_shipped_example_config_parses():
    from pathlib import Path

    from toudesign import ExperimentConfig

    path = Path(__file__).resolve().parent.parent / "configs" / "example.yaml"
    cfg = ExperimentConfig.from_yaml(path)
    assert cfg.periods().h_peak == 7
    assert len(cfg.type_thetas()) == 4
    snapshot = json.dumps(cfg.snapshot(), sort_keys=True)
    assert "theta_bar" in snapshot

    def keys(tree, prefix=""):
        out = set()
        for key, value in tree.items():
            out.add(prefix + key)
            if isinstance(value, dict):
                out |= keys(value, f"{prefix}{key}.")
        return out

    # every config key is documented in the shipped example
    assert keys(yaml.safe_load(path.read_text())) == keys(ExperimentConfig().snapshot())


def test_structure_violation_exit_code(tmp_path, monkeypatch, capsys):
    import toudesign.cli as cli_mod
    from toudesign.benchmark import StructureReport

    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    for name in ("validate_structure_so", "validate_structure_pricing"):
        monkeypatch.setattr(
            cli_mod, name, lambda *a, name=name, **k: StructureReport(violations=[name])
        )
    assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 3
    # Every failing scheme is reported, not only the first.
    assert capsys.readouterr().err.splitlines() == [
        "structure violation [so]: validate_structure_so",
        "structure violation [pt]: validate_structure_pricing",
        "structure violation [pi]: validate_structure_pricing",
    ]


def test_optimize_records_scan_counts_in_run_meta(tmp_path, monkeypatch):
    import toudesign.cli as cli_mod

    optimize_one = cli_mod._optimize_one
    seen = {}

    def recording(cfg, users, grouping, scheme, **kwargs):
        result, pricing = optimize_one(cfg, users, grouping, scheme, **kwargs)
        seen[scheme] = result
        return result, pricing

    monkeypatch.setattr(cli_mod, "_optimize_one", recording)
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["optimize", "--config", str(cfg), "--out", str(out), "--scheme", "both"]) == 0
    meta = json.loads((out / "run_meta.json").read_text())
    assert set(seen) == {"pt", "pi"}
    assert meta["metrics"] == {
        scheme: {
            "thresholds": r.n_thresholds,
            "candidates": r.n_candidates,
            "evaluations": r.n_evaluations,
        }
        for scheme, r in seen.items()
    }
    for scheme, r in seen.items():
        assert r.n_thresholds >= r.n_candidates
        # the counts stay out of the byte-reproducible result tables
        assert "n_thresholds" not in json.loads((out / f"result_{scheme}.json").read_text())
