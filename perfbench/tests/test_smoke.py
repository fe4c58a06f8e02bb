"""Smoke tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest perfbench/tests -q

Every workload runs at a tiny size and must report every metric with its
unit; a deliberately corrupted output must raise ``failed_frac``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import harness
from perfbench.run import ROOT, WORKLOADS

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _run_cli(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def test_declared_metrics_match_the_reported_ones():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == harness.END_TO_END_UNITS
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == harness.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run_cli(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    units = harness.PER_LAYER_UNITS if trace else harness.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_program_source_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "tmp",
                                                  "__pycache__"))
    proc = _run_cli("loop_full", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.fixture
def isolated(tmp_path):
    saved = dict(os.environ)
    yield str(tmp_path)
    os.environ.clear()
    os.environ.update(saved)


def _run_inprocess(workload: str, scratch: str) -> dict:
    from perfbench import workloads
    harness.isolate_environment(scratch)
    args = argparse.Namespace(workload=workload, seed=5, seconds=1.0,
                              trace=1)
    return workloads.run(args, scratch)["result"]


def test_altered_replay_row_counts_as_failed(isolated, monkeypatch):
    from repro.scenario import ReplayStore

    lookup = ReplayStore.lookup
    calls = {"n": 0}

    def altered(self, keys):
        found = lookup(self, keys)
        calls["n"] += 1
        if calls["n"] == 20 and found:  # well inside the measured phase
            key = sorted(found)[0]
            found[key] = dict(found[key], points=found[key]["points"] + 1)
        return found

    monkeypatch.setattr(ReplayStore, "lookup", altered)
    result = _run_inprocess("sweep_replay", isolated)
    assert result["failed"] >= 1
    assert result["metrics"]["failed_frac"]["value"] > 0


def test_misrouted_response_counts_as_failed(isolated, monkeypatch):
    from repro.serve import MicroBatcher

    run_batch = MicroBatcher.run_batch
    held = {}

    def misrouting(self, batch):
        runner = self.runner

        def wrong(items):
            rows = list(runner(items))
            previous = held.get("row")
            held["row"] = rows[-1]
            if previous is not None:
                rows[0] = previous  # the previous request's answer
            return rows

        self.runner = wrong
        try:
            run_batch(self, batch)
        finally:
            self.runner = runner

    monkeypatch.setattr(MicroBatcher, "run_batch", misrouting)
    result = _run_inprocess("serve", isolated)
    assert result["failed"] >= 1
    assert result["metrics"]["failed_frac"]["value"] > 0
