"""Bench baseline, history log, the --check gate and the profiler."""

import json

import pytest

from repro.bench import (WORKLOADS, append_history, check_regression,
                         delta_table, load_history, provenance_note)
from repro.profile import run_profile, top_table, write_flamegraph_svg


def _report(ev_per_sec, quick=False, cpu="test-cpu"):
    return {
        "schema": 3,
        "quick": quick,
        "provenance": {"cpu": cpu},
        "benchmarks": {
            "ssd_point": {"events": 100, "wall_s": 1.0,
                          "events_per_sec": ev_per_sec},
        },
    }


def test_history_roundtrip(tmp_path):
    path = str(tmp_path / "nested" / "history.jsonl")
    first = append_history(_report(100.0), path)
    append_history(_report(120.0), path)
    records = load_history(path)
    assert len(records) == 2
    assert records[0]["git_sha"] == first["git_sha"]
    assert records[0]["schema"] == 3
    assert [r["benchmarks"]["ssd_point"]["events_per_sec"]
            for r in records] == [100.0, 120.0]
    # Append-only and line-oriented: every line parses independently.
    with open(path) as handle:
        for line in handle:
            json.loads(line)


def test_history_tolerates_blank_lines(tmp_path):
    path = tmp_path / "history.jsonl"
    append_history(_report(5.0), str(path))
    path.write_text(path.read_text() + "\n\n")
    append_history(_report(6.0), str(path))
    assert len(load_history(str(path))) == 2


def test_delta_table_states_pass_and_fail():
    baseline = _report(100.0)
    table = delta_table(_report(95.0), baseline, tolerance=0.30)
    assert "ssd_point" in table and "-5.0% ok" in table
    table = delta_table(_report(60.0), baseline, tolerance=0.30)
    assert "-40.0% FAIL" in table
    # The table's verdicts and the gate agree.
    assert check_regression(_report(60.0), baseline, 0.30)
    assert not check_regression(_report(95.0), baseline, 0.30)


def test_check_regression_flags_missing_workload():
    broken = _report(100.0)
    del broken["benchmarks"]["ssd_point"]
    failures = check_regression(broken, _report(100.0))
    assert failures == ["ssd_point: missing from current run"]
    assert "FAIL (missing)" in delta_table(broken, _report(100.0))


def test_provenance_note_flags_cross_host_baselines():
    unknown = _report(1.0)
    del unknown["provenance"]
    assert provenance_note(_report(1.0), unknown) is not None
    assert provenance_note(_report(1.0), _report(1.0)) is None
    note = provenance_note(_report(1.0, cpu="cpu-a"),
                           _report(1.0, cpu="cpu-b"))
    assert note is not None and "cpu-b" in note


def test_committed_baseline_has_one_table_with_provenance():
    with open("BENCH_kernel.json") as handle:
        baseline = json.load(handle)
    assert baseline["schema"] == 3
    assert baseline["quick"] is False
    assert baseline["provenance"]["cpu"]
    assert set(baseline["benchmarks"]) == set(WORKLOADS)
    for entry in baseline["benchmarks"].values():
        assert entry["events"] > 0 and entry["events_per_sec"] > 0
    # The gate passes against itself and the history log is readable.
    assert check_regression(baseline, baseline) == []
    assert load_history("benchmarks/history.jsonl")[-1]["schema"] == 3


@pytest.fixture(scope="module")
def fanout_stats():
    return run_profile("event_fanout", quick=True)


def test_profile_top_table(fanout_stats):
    table = top_table(fanout_stats, limit=10)
    lines = table.splitlines()
    assert lines[0].split("|")[0].strip() == "cumtime"
    assert len(lines) == 12  # header + rule + 10 rows
    assert "repro/sim/kernel.py" in table


def test_profile_flamegraph_svg(fanout_stats, tmp_path):
    path = tmp_path / "flame.svg"
    write_flamegraph_svg(fanout_stats, str(path))
    svg = path.read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "bench_event_fanout" in svg
