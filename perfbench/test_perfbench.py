"""Tests of the benchmark itself: counts repeat exactly, checks bite,
tracing leaves no trace behind.

The workloads run here at reduced record counts (and a seed other than
the pinned one), except where a test checks the pinned digests.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench.harness import timed_run, traced_run
from perfbench.speed import SpeedProbe
from perfbench.tracer import ENTRY_POINTS, LAYERS, Tracer, instrument
from perfbench.workloads import (DEFAULT_SEED, PINNED_DIGESTS, WORKLOADS,
                                 BlockmapRmw, FleetPool, GcChurn, ReplayRead)

BENCH_DIR = Path(__file__).resolve().parent
SEED = 5

#: count-type layer metrics: deterministic, so identical on every run
COUNT_METRICS = (
    "sim.engine.events_per_record",
    "device.calls_per_record",
    "ftl.calls_per_record",
    "flash.calls_per_record",
    "flash.ops_per_record",
    "ftl.write_amp",
    "ftl.clean_pages_moved_per_record",
    "flash.busy_frac",
    "flash.clean_busy_frac",
)


def small(name: str):
    """A workload of the named kind at a test-sized record count."""
    if name == "fleet_pool":
        workload = FleetPool()
        workload.per_tenant = 150
        return workload
    workload = {"replay_read": ReplayRead, "gc_churn": GcChurn,
                "blockmap_rmw": BlockmapRmw}[name]()
    workload.records = 60 if name == "blockmap_rmw" else 2_000
    return workload


@pytest.fixture(scope="module")
def traced_pair():
    """Two traced runs per workload, made once for the module."""
    runs = {}

    def get(name):
        if name not in runs:
            runs[name] = tuple(traced_run(small(name), SEED, seconds=0.0)
                               for _ in range(2))
        return runs[name]

    return get


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_count_metrics_repeat_across_traced_runs(traced_pair, name):
    first, second = traced_pair(name)
    assert first.summary()["correct"], first.problems
    assert second.summary()["correct"], second.problems
    for metric in COUNT_METRICS:
        assert first.metrics[metric] == second.metrics[metric], metric


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_rows_add_up_to_the_root_span(traced_pair, name):
    result, _ = traced_pair(name)
    table = result.table
    assert abs(table.unaccounted_s) < 1e-9
    assert set(LAYERS) <= set(table.self_s)
    assert table.root_s > 0.0
    for layer in LAYERS:
        assert result.metrics[f"{layer}.self_us_per_record"][0] >= 0.0


def test_every_per_layer_metric_is_reported(traced_pair):
    result, _ = traced_pair("gc_churn")
    listed = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    names = {metric["name"] for metric in listed["per_layer"]}
    assert names == set(result.metrics)


def test_blockmap_write_amplification_is_pages_per_stripe_row(traced_pair):
    result, _ = traced_pair("blockmap_rmw")
    assert result.metrics["ftl.write_amp"][0] == 256.0


def test_replay_read_bypasses_the_cleaner(traced_pair):
    result, _ = traced_pair("replay_read")
    assert result.metrics["ftl.clean_pages_moved_per_record"][0] == 0.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_default_seed_reproduces_the_pinned_digest(name):
    workload = WORKLOADS[name]
    prepared = workload.setup(DEFAULT_SEED)
    workload.replay(prepared)
    outcome = workload.finish(prepared)
    assert outcome.problems == []
    assert outcome.digest == PINNED_DIGESTS[name]


def test_a_perturbed_digest_fails_every_record():
    workload = small("replay_read")
    prepared = workload.setup(DEFAULT_SEED)
    workload.replay(prepared)
    digest = workload.finish(prepared).digest
    perturbed = {workload.name: digest[:-1] + ("0" if digest[-1] != "0"
                                                else "1")}
    result = timed_run(workload, DEFAULT_SEED, seconds=0.0,
                       pinned=perturbed).summary()
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    honest = timed_run(workload, DEFAULT_SEED, seconds=0.0,
                       pinned={workload.name: digest}).summary()
    assert honest["correct"] and honest["failed"] == 0


def test_instrument_restores_every_entry_point():
    before = [(owner, attr, owner.__dict__[attr])
              for _, owner, attrs in ENTRY_POINTS for attr in attrs]
    with instrument(Tracer()):
        pass
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, f"{owner}.{attr}"


def test_speed_probe_samples_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.cpu_s) >= 3
    assert probe.slowness(0.0, time.perf_counter()) > 0.0


def test_chrome_trace_is_valid_json(tmp_path):
    tracer = Tracer()
    double = tracer.wrap("double", "workloads", lambda x: 2 * x)
    with tracer.span("root", "other"):
        assert [double(i) for i in range(3)] == [0, 2, 4]
    path = tmp_path / "trace.json"
    assert tracer.chrome_trace(path, cap=2) == 2
    events = json.loads(path.read_text())["traceEvents"]
    assert [event["name"] for event in events] == ["root", "double"]
    assert all(event["ph"] == "X" and event["dur"] >= 0 for event in events)


def test_without_the_simulator_the_benchmark_fails_without_a_result(
        tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gc_churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
