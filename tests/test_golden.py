"""The command line on committed configs against committed outputs.

tests/golden/example holds the result, trace and response tables of
`optimize --scheme both` on the example config. A refactor of the tariff
search must reproduce them: the response tables and the evaluated price
differences byte for byte, the result tables byte for byte except the scan
cost, and the scanned social costs within 1e-12 relative (they may move by
summation order).

It also holds `benchmark`'s tables and the theta_bar, delta_s, delta_d and
lambda sweeps on the example config; tests/golden/study holds a small
study-shaped config and its tau, eta and elastic_fraction sweeps, which the
example config cannot run. These are reproduced byte for byte.
"""

import csv
import json
from pathlib import Path

import pytest

from toudesign.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "example"
STUDY = ROOT / "tests" / "golden" / "study"
REL = 1e-12


@pytest.fixture(scope="module")
def example_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    config = ROOT / "configs" / "example.yaml"
    assert main(["optimize", "--config", str(config), "--out", str(out), "--scheme", "both"]) == 0
    return out


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("scheme", ["pt", "pi"])
def test_responses_are_byte_identical(example_out, scheme):
    name = f"responses_{scheme}.csv"
    assert (example_out / name).read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("scheme", ["pt", "pi"])
def test_result_is_byte_identical_but_for_the_scan_cost(example_out, scheme):
    name = f"result_{scheme}.json"
    got, want = (example_out / name).read_text(), (GOLDEN / name).read_text()

    def without_scan_cost(text):
        return [line for line in text.splitlines() if not line.startswith('  "scan_cost":')]

    assert without_scan_cost(got) == without_scan_cost(want)
    got_cost, want_cost = json.loads(got)["scan_cost"], json.loads(want)["scan_cost"]
    assert got_cost == pytest.approx(want_cost, rel=REL, abs=0.0)


@pytest.mark.parametrize("scheme", ["pt", "pi"])
def test_trace_candidates_identical_and_costs_within_1e12(example_out, scheme):
    name = f"trace_{scheme}.csv"
    got, want = read_rows(example_out / name), read_rows(GOLDEN / name)
    assert got[0] == want[0] == ["candidate_pdelta", "social_cost"]
    assert [row[0] for row in got] == [row[0] for row in want]
    for g, w in zip(got[1:], want[1:]):
        assert float(g[1]) == pytest.approx(float(w[1]), rel=REL, abs=0.0)


BYTE_IDENTICAL = [
    (["benchmark"], GOLDEN, ["ratios.json", "structure.json", "so_plan.json"]),
    *(
        (["sweep", "--axis", axis], GOLDEN, [f"sweep_{axis}.csv"])
        for axis in ("theta_bar", "delta_s", "delta_d", "lambda")
    ),
    *(
        (["sweep", "--axis", axis], STUDY, [f"sweep_{axis}.csv"])
        for axis in ("tau", "eta", "elastic_fraction")
    ),
]


@pytest.mark.parametrize(
    "argv, golden, names", BYTE_IDENTICAL, ids=[" ".join(a) for a, _, _ in BYTE_IDENTICAL]
)
def test_command_outputs_are_byte_identical(tmp_path, argv, golden, names):
    config = ROOT / "configs" / "example.yaml" if golden == GOLDEN else STUDY / "config.yaml"
    assert main([*argv, "--config", str(config), "--out", str(tmp_path)]) == 0
    for name in names:
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name
