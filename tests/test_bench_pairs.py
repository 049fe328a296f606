import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BASE = [0.034, 0.035, 0.033, 0.036, 0.034, 0.035, 0.034, 0.033, 0.035, 0.034]


def test_summary_takes_the_quartiles_perfbench_steadiness_reports():
    s = bench_pairs.summary([4.0, 1.0, 3.0, 2.0])
    assert (s["q1"], s["median"], s["q3"], s["iqr"]) == (1.25, 2.5, 3.75, 2.5)


def test_claim_holds_with_nine_wins_in_ten_and_a_gap_above_the_iqr():
    change = [0.029] * 9 + [0.037]
    verdict = bench_pairs.pairing_verdict(BASE, change)
    assert (verdict["wins"], verdict["pairs"], verdict["wins_needed"]) == (9, 10, 9)
    assert verdict["base_iqr"] == pytest.approx(0.00125)
    assert verdict["gap"] == pytest.approx(0.005)
    assert verdict["holds"]


def test_claim_fails_on_eight_wins_or_a_gap_within_the_iqr():
    eight = [0.029] * 8 + [0.037, 0.037]
    assert not bench_pairs.pairing_verdict(BASE, eight)["holds"]
    # ten wins, but the medians are 0.0005 apart against an IQR of 0.00125
    close = [b - 0.0005 for b in BASE]
    verdict = bench_pairs.pairing_verdict(BASE, close)
    assert verdict["wins"] == 10 and not verdict["holds"]


def test_ties_count_for_neither_side():
    verdict = bench_pairs.pairing_verdict([1.0, 2.0], [1.0, 1.5])
    assert (verdict["wins"], verdict["wins_needed"]) == (1, 2)
    assert not verdict["holds"]


def test_higher_is_better_metrics_win_upwards():
    verdict = bench_pairs.pairing_verdict([1.0, 1.0, 1.0], [2.0, 2.0, 2.0], better="higher")
    assert verdict["wins"] == 3 and verdict["gap"] == 1.0 and verdict["holds"]


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError):
        bench_pairs.pairing_verdict([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        bench_pairs.pairing_verdict([1.0], [0.5])


def run(**values):
    return {"metrics": {k: {"value": v} for k, v in values.items()}}


def test_regressions_flag_medians_past_their_relative_bound():
    end_to_end = [
        {"name": "job_s", "better": "lower", "bound": 0.24},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
    ]
    base = [run(job_s=1.0, peak_rss_mb=40.0)] * 3
    within = [run(job_s=1.2, peak_rss_mb=41.9)] * 3
    assert bench_pairs.regressions(base, within, end_to_end) == []
    worse = [run(job_s=1.3, peak_rss_mb=42.1)] * 3
    found = bench_pairs.regressions(base, worse, end_to_end)
    assert [line.split(":")[0] for line in found] == ["job_s", "peak_rss_mb"]
