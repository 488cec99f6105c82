"""Smoke test of the benchmark itself; outside the tier-1 ``testpaths``.

Run with ``PYTHONPATH=src python -m pytest bench/test_bench.py`` (about
15 s): every workload at ``--smoke`` size, traced, in one invocation.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import suite  # noqa: E402


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "result.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--trace", "1", "--json", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(out.read_text())


def test_every_metric_is_printed_with_its_unit(smoke):
    stdout, full = smoke
    tables = stdout.split("\n== ")
    assert len(tables) == len(suite.WORKLOADS)
    for table, result in zip(tables, full["results"]):
        metrics = [m for m in suite.END_TO_END if m.name in result["metrics"]]
        if result["workload"] == "capacity-sweep":
            assert {"probe_p50_ms", "probe_p95_ms"} <= {m.name for m in metrics}
        for metric in metrics + list(suite.PER_LAYER):
            pattern = rf"^\s+{re.escape(metric.name)}\s+\S+\s+{re.escape(metric.unit)}(\s|$)"
            assert re.search(pattern, table, re.M), (result["workload"], metric.name)
    line = json.loads(stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    exported = [m for m in suite.PER_LAYER if m.exported]
    assert len(line["metrics"]) == len(exported) * len(suite.WORKLOADS)
    for entry in line["metrics"].values():
        assert isinstance(entry["value"], (int, float)) and entry["unit"]


def test_no_operation_fails_and_goldens_match(smoke):
    _, full = smoke
    assert full["summary"]["correct"]
    for result in full["results"]:
        assert result["failed"] == 0, result["failures"]
        assert result["metrics"]["error_rate"] == 0
        assert result["golden"] == "compared"


def test_traced_self_time_fits_in_traced_wall_time(smoke):
    _, full = smoke
    for result in full["results"]:
        totals = result["trace_totals"]
        assert 0 < totals["self_s"] <= totals["wall_s"]
        assert result["layers"]["trace.overhead_ratio"] > 0


def test_checks_catch_a_wrong_result_and_digests_repeat():
    workload = suite.get("fig5-native")
    config = suite.make_config(workload, suite.DEFAULT_SEED, smoke=True)
    ops = dict(suite.operations(workload, config))
    op_id = "flink/grep/native/p1"
    first = suite.run(workload, config, ops[op_id])
    second = suite.run(workload, config, ops[op_id])
    assert suite.digest(first) == suite.digest(second)
    expected = suite.expectations(workload, config, [(op_id, ops[op_id])])
    assert suite.check(workload, config, op_id, ops[op_id], first, expected) == []
    wrong = [dataclasses.replace(r, records_out=r.records_out + 1) for r in first]
    assert suite.check(workload, config, op_id, ops[op_id], wrong, expected)
    assert suite.digest(wrong) != suite.digest(first)


def test_benchmark_json_matches_the_suite():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == suite.benchmark_json()


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    # The command line automated comparison uses, in a directory holding
    # only the benchmark.
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fig5-native", "--seed", "1",
         "--seconds", str(suite.RUN_SECONDS), "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
