"""Tests of the benchmark itself: output checks, schema and count stability.

Run with: python3 -m pytest perfbench
They check outputs and schema, never timings.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run
import spans
from workloads import (CLASSIFY_SP6Q2, SMOKE, TABLE_SP4Q2, TABLE_SP4Q3,
                       WORKLOADS, Workload, check_table)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def reference_rows():
    "group -> label -> (class count or None, allowed verdicts)."
    rows: dict = {}
    path = run.SRC / "unirack" / "data" / "reference_verdicts.tsv"
    for line in path.read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        group, label, count, verdicts, _rule = line.split("\t")
        rows.setdefault(group, {})[label] = (
            int(count) if count else None, set(verdicts.split(",")))
    return rows


@pytest.mark.parametrize("group,pins", [("Sp4(2)", TABLE_SP4Q2),
                                        ("Sp4(3)", TABLE_SP4Q3)])
def test_table_pins_agree_with_reference_table(group, pins):
    ref = reference_rows()[group]
    assert set(pins) == set(ref)
    for label, recs in pins.items():
        count, allowed = ref[label]
        assert count is None or count == len(recs)
        assert {v for _, _, v in recs} <= allowed


def test_sp6q2_pins_agree_with_reference_table():
    ref = reference_rows()["Sp6(2)"]
    for label, (_, verdict) in CLASSIFY_SP6Q2.items():
        assert verdict in ref[label][1]


def test_benchmark_json_matches_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(run.END_TO_END)
    listed = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    units = {n: u for n, (u, _) in spans.LAYER_METRICS.items()}
    units.update(dict.fromkeys(run.REPORT_COUNTS, "count"))
    units.update(run.BENCH_LAYER)
    assert listed == units


@pytest.fixture(scope="module")
def smoke_traced():
    return [run.run_workload(SMOKE, seed=0, seconds=0, trace=True)
            for _ in range(2)]


def test_smoke_run_passes_every_output_check():
    got = run.run_workload(SMOKE, seed=0, seconds=0, trace=False)
    assert got["correct"] and got["failed"] == 0
    assert got["attempted"] == len(SMOKE.steps)
    assert set(got["metrics"]) == set(run.END_TO_END)
    for name, unit in run.END_TO_END.items():
        assert got["metrics"][name]["unit"] == unit
        assert got["metrics"][name]["value"] > 0


def test_two_traced_runs_give_identical_counts(smoke_traced):
    first, second = smoke_traced
    assert first["correct"] and second["correct"]
    counts = [{k: m["value"] for k, m in r["metrics"].items()
               if m["unit"] == "count"} for r in smoke_traced]
    assert counts[0] == counts[1]
    assert counts[0]["matgroup.mul_flat.calls"] > 0
    assert counts[0]["cli.main.calls"] == len(SMOKE.steps)
    assert counts[0]["cache.hits"] > 0


def test_wrong_output_is_counted_as_failed():
    bad = dict(TABLE_SP4Q2, **{"W(2)": [(0, 15, "D")]})
    step = replace(SMOKE.steps[0], check=check_table(bad, cached=False))
    got = run.run_workload(Workload("broken", (step,)), seed=0, seconds=0,
                           trace=False)
    assert not got["correct"] and got["failed"] == 1


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in run.HERE.glob("*.py"):
        shutil.copy(path, bench)
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "cache-replay",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
