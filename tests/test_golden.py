"""The command line on committed configs against committed outputs.

tests/golden/example holds the result, trace and response tables of
`optimize --scheme both` on the example config. A refactor of the tariff
search must reproduce them: the response tables and the evaluated price
differences byte for byte, the result tables byte for byte except the scan
cost, and the scanned social costs within 1e-12 relative (they may move by
summation order). The command's run_meta.json must match the one kept there
but for the timestamp and the output directory (the kept copy lists file
names only).

tests/golden/elastic holds the same tables on the study config with
elastic demand and lossy, degrading storage, where both tariffs buy storage
and shift load (an extended search, so each trace row starts with its
off-peak price), and are held to the same rules.

It also holds `ingest`'s scenarios.csv, `verify`'s report, `benchmark`'s
tables and the theta_bar, delta_s, delta_d and lambda sweeps on the example
config; tests/golden/study holds a small
study-shaped config and its tau, eta and elastic_fraction sweeps, which the
example config cannot run, and tests/golden/elastic its lambda and
elastic_fraction sweeps. These are reproduced byte for byte.
"""

import csv
import json
from pathlib import Path

import pytest

from toudesign.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "example"
STUDY = ROOT / "tests" / "golden" / "study"
ELASTIC = ROOT / "tests" / "golden" / "elastic"
REL = 1e-12


def config_of(golden):
    return ROOT / "configs" / "example.yaml" if golden == GOLDEN else golden / "config.yaml"


@pytest.fixture(scope="module")
def example_out(request, tmp_path_factory):
    """`optimize --scheme both` on a golden directory's config (the example
    config unless parametrized), as (output directory, golden directory)."""
    golden = getattr(request, "param", GOLDEN)
    out = tmp_path_factory.mktemp("golden")
    argv = ["optimize", "--config", str(config_of(golden)), "--out", str(out), "--scheme", "both"]
    assert main(argv) == 0
    return out, golden


# The example cases keep their plain scheme ids.
SCHEMES = pytest.mark.parametrize(
    "example_out, scheme",
    [(GOLDEN, "pt"), (GOLDEN, "pi"), (ELASTIC, "pt"), (ELASTIC, "pi")],
    indirect=["example_out"],
    ids=["pt", "pi", "elastic-pt", "elastic-pi"],
)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_run_meta_matches_but_for_timestamp_and_output_paths(example_out):
    out, _ = example_out
    got = json.loads((out / "run_meta.json").read_text())
    want = json.loads((GOLDEN / "run_meta.json").read_text())
    assert sorted(Path(p).name for p in got.pop("outputs")) == want.pop("outputs")
    del got["timestamp"], want["timestamp"]
    assert got == want


@SCHEMES
def test_responses_are_byte_identical(example_out, scheme):
    out, golden = example_out
    name = f"responses_{scheme}.csv"
    assert (out / name).read_bytes() == (golden / name).read_bytes()


@SCHEMES
def test_result_is_byte_identical_but_for_the_scan_cost(example_out, scheme):
    out, golden = example_out
    name = f"result_{scheme}.json"
    got, want = (out / name).read_text(), (golden / name).read_text()

    def without_scan_cost(text):
        return [line for line in text.splitlines() if not line.startswith('  "scan_cost":')]

    assert without_scan_cost(got) == without_scan_cost(want)
    got_cost, want_cost = json.loads(got)["scan_cost"], json.loads(want)["scan_cost"]
    assert got_cost == pytest.approx(want_cost, rel=REL, abs=0.0)


@SCHEMES
def test_trace_candidates_identical_and_costs_within_1e12(example_out, scheme):
    out, golden = example_out
    name = f"trace_{scheme}.csv"
    got, want = read_rows(out / name), read_rows(golden / name)
    assert got[0] == want[0] and got[0][-2:] == ["candidate_pdelta", "social_cost"]
    assert [row[:-1] for row in got] == [row[:-1] for row in want]
    for g, w in zip(got[1:], want[1:]):
        assert float(g[-1]) == pytest.approx(float(w[-1]), rel=REL, abs=0.0)


BYTE_IDENTICAL = [
    (["ingest"], GOLDEN, ["scenarios.csv"]),
    (["verify"], GOLDEN, ["verify_report.json"]),
    (["benchmark"], GOLDEN, ["ratios.json", "structure.json", "so_plan.json"]),
    *(
        (["sweep", "--axis", axis], GOLDEN, [f"sweep_{axis}.csv"])
        for axis in ("theta_bar", "delta_s", "delta_d", "lambda")
    ),
    *(
        (["sweep", "--axis", axis], STUDY, [f"sweep_{axis}.csv"])
        for axis in ("tau", "eta", "elastic_fraction")
    ),
    *(
        (["sweep", "--axis", axis], ELASTIC, [f"sweep_{axis}.csv"])
        for axis in ("lambda", "elastic_fraction")
    ),
]


@pytest.mark.parametrize(
    "argv, golden, names",
    BYTE_IDENTICAL,
    ids=[("elastic " if g == ELASTIC else "") + " ".join(a) for a, g, _ in BYTE_IDENTICAL],
)
def test_command_outputs_are_byte_identical(tmp_path, argv, golden, names):
    assert main([*argv, "--config", str(config_of(golden)), "--out", str(tmp_path)]) == 0
    for name in names:
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name
