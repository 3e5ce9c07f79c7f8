"""Measurement loops: timed (untraced) runs and the traced per-layer run.

Timed run (``--trace 0``): one warm-up rep, then reps until ``seconds``
have passed (at least :data:`MIN_REPS`).  Each rep times its set-up and
its replay separately.  ``records_per_s`` and ``setup_s`` are medians over
the reps, scaled to reference host speed; ``peak_rss_mb`` is
the process's peak resident set (its worker processes' too, for the
fleet).

The probe (:mod:`perfbench.speed`) samples the host's speed during every
rep; each rep's times are taken net of the probe and scaled to reference
speed.  The raw medians and the host's slowness are printed next to the
scaled figures.

Traced run (``--trace 1``): pairs of an untraced rep and a rep with every
entry point wrapped (:mod:`perfbench.tracer`), both on the serial path,
until ``seconds`` have passed (at least :data:`MIN_TRACED` pairs).  Host
times are medians over the traced reps; counts repeat exactly.  Traced
reps must reproduce the untraced reps' simulated digest exactly: tracing
may not change simulated output.

Every rep is checked: its workload's invariants, completions against
records, determinism across the run's reps, and -- at the default seed --
the pinned digest.  A rep that fails a check counts all its
records as failed.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench.speed import SpeedProbe
from perfbench.tracer import (LAYERS, OTHER, LayerTable, Tracer, instrument,
                              layer_table)
from perfbench.workloads import (DEFAULT_SEED, PINNED_DIGESTS, Outcome,
                                 Workload)

__all__ = ["MIN_REPS", "MIN_TRACED", "RunResult", "timed_run", "traced_run",
           "host_times", "count_metrics"]

MIN_REPS = 3

#: traced reps a traced run makes at least (each paired with an untraced)
MIN_TRACED = 2

#: spans written to the Chrome trace file (the first ones, in start
#: order); the per-layer table always uses every span
TRACE_EVENT_CAP = 50_000


@dataclass
class Rep:
    """Host timings of one rep, net of the speed probe, and its checks."""

    setup_s: float
    replay_s: float
    outcome: Outcome
    #: host slowness during this rep (see :mod:`perfbench.speed`)
    scale: float = 1.0

    @property
    def records_per_s(self) -> float:
        return self.outcome.attempted / self.replay_s


class RunResult:
    """Reps of one run, their checks, and the metrics to print."""

    def __init__(self, workload: Workload, seed: int,
                 pinned: Optional[Dict[str, str]] = None) -> None:
        self.workload = workload
        self.seed = seed
        self.pinned = PINNED_DIGESTS if pinned is None else pinned
        self.reps: List[Rep] = []
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        #: the run's first digest: every rep must reproduce it
        self.digest: Optional[str] = None
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.notes: List[str] = []
        #: per-layer self times, medians over the traced reps (traced
        #: runs only)
        self.table: Optional[LayerTable] = None

    def check(self, outcome: Outcome) -> None:
        problems = list(outcome.problems)
        if self.digest is None:
            self.digest = outcome.digest
        elif outcome.digest != self.digest:
            problems.append(f"digest {outcome.digest} differs from this "
                            f"run's first rep ({self.digest})")
        expected = self.pinned.get(self.workload.name)
        if self.seed == DEFAULT_SEED and outcome.digest != expected:
            problems.append(f"digest {outcome.digest} != pinned {expected}")
        self.attempted += outcome.attempted
        if problems:
            self.failed += outcome.attempted
            self.problems.extend(problems)
        else:
            self.failed += outcome.attempted - outcome.completed_ok

    def summary(self) -> dict:
        return {
            "correct": not self.problems and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        }


def _rep(workload: Workload, seed: int, parallel: bool = True,
         probe: Optional[SpeedProbe] = None) -> Rep:
    gc.collect()
    start = time.perf_counter()
    prepared = workload.setup(seed)
    submitted = time.perf_counter()
    workload.replay(prepared, parallel)
    drained = time.perf_counter()
    rep = Rep(submitted - start, drained - submitted,
              workload.finish(prepared))
    if probe is not None:
        rep.setup_s -= probe.probe_s(start, submitted)
        rep.replay_s -= probe.probe_s(submitted, drained)
        rep.scale = probe.slowness(start, drained)
    return rep


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children covers joined pool workers
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def timed_run(workload: Workload, seed: int, seconds: float,
              pinned: Optional[Dict[str, str]] = None) -> RunResult:
    result = RunResult(workload, seed, pinned)
    # warm-up: lazy imports, first-use allocations and the pool's first
    # fork land here, outside the medians (its output is still checked)
    warm = _rep(workload, seed)
    result.check(warm.outcome)
    deadline = time.perf_counter() + seconds
    with SpeedProbe() as probe:
        while (len(result.reps) < MIN_REPS
               or time.perf_counter() < deadline):
            rep = _rep(workload, seed, probe=probe)
            result.check(rep.outcome)
            result.reps.append(rep)
    reps = result.reps
    result.metrics = {
        "records_per_s": (statistics.median(
            r.records_per_s * r.scale for r in reps), "1/s"),
        "setup_s": (statistics.median(r.setup_s / r.scale for r in reps),
                    "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    result.notes.append(
        f"raw medians: {statistics.median(r.records_per_s for r in reps):,.0f}"
        f" records/s, setup {statistics.median(r.setup_s for r in reps):.6f}"
        f" s; host slowness {statistics.median(r.scale for r in reps):.3f}x "
        f"reference speed ({len(reps)} reps of {workload.records} records)")
    return result


def _traced_rep(workload: Workload, seed: int):
    """One rep with every entry point wrapped; returns ``(tracer, table,
    outcome)``."""
    tracer = Tracer()
    gc.collect()
    with instrument(tracer):
        prepared = workload.setup(seed)
        if prepared.trace is not None:
            prepared.trace = tracer.wrap_iter("next(records)", "traces",
                                              prepared.trace)
        with tracer.span(workload.root_span, OTHER) as root:
            workload.replay(prepared, parallel=False)
    return tracer, layer_table(tracer, root), workload.finish(prepared)


def traced_run(workload: Workload, seed: int, seconds: float,
               out_dir: Optional[Path] = None,
               pinned: Optional[Dict[str, str]] = None) -> RunResult:
    result = RunResult(workload, seed, pinned)
    records = workload.records
    host: List[Dict[str, float]] = []
    tables: List[LayerTable] = []
    slowdowns: List[float] = []
    deadline = time.perf_counter() + seconds
    while len(tables) < MIN_TRACED or time.perf_counter() < deadline:
        # untraced and traced reps alternate, so each overhead ratio
        # compares two reps made moments apart
        plain = _rep(workload, seed, parallel=False)
        result.check(plain.outcome)
        result.reps.append(plain)
        tracer, table, outcome = _traced_rep(workload, seed)
        # the traced rep must reproduce the untraced reps' digest exactly
        result.check(outcome)
        if abs(table.unaccounted_s) > 1e-9 * max(table.root_s, 1.0):
            result.problems.append(
                f"layer self times + other miss the root span by "
                f"{table.unaccounted_s * 1e6:.3f} us")
        tables.append(table)
        host.append(host_times(tracer, table, records))
        slowdowns.append(table.root_s / plain.replay_s)

    # host times: the median over the traced reps; counts repeat exactly
    result.table = LayerTable(
        statistics.median(t.root_s for t in tables),
        {row: statistics.median(t.self_s[row] for t in tables)
         for row in tables[0].self_s},
        tables[-1].calls)
    result.metrics = {name: (statistics.median(h[name] for h in host), unit)
                      for name, unit in HOST_TIME_UNITS.items()}
    result.metrics.update(count_metrics(tables[-1], outcome, records))
    overhead = statistics.median(slowdowns)
    result.notes.append(
        f"tracing overhead: traced reps took {overhead:.2f}x the untraced "
        f"ones (median of {len(slowdowns)} adjacent pairs, serial path)")
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{workload.name}.trace.json"
        written = tracer.chrome_trace(path, TRACE_EVENT_CAP)
        result.notes.append(
            f"chrome trace of the last traced rep: {path} ({written} of "
            f"{len(tracer.names)} spans)")
    return result


#: host-time per-layer metrics and their units, in report order
HOST_TIME_UNITS = dict(
    [(f"{layer}.self_us_per_record", "us") for layer in LAYERS]
    + [("ftl.prefill_s", "s"), ("sim.stats.sketch_init_us", "us"),
       ("fleet.report_build_s", "s")])


def host_times(tracer: Tracer, table: LayerTable,
               records: int) -> Dict[str, float]:
    """One traced rep's host-time per-layer figures."""
    times = {f"{layer}.self_us_per_record": table.self_s[layer] * 1e6 / records
             for layer in LAYERS}
    times["ftl.prefill_s"] = tracer.durations("prefill_")
    times["sim.stats.sketch_init_us"] = (
        tracer.durations("QuantileSketch.__init__") * 1e6)
    times["fleet.report_build_s"] = tracer.durations("FleetReport.build")
    return times


def count_metrics(table: LayerTable, outcome: Outcome,
                  records: int) -> Dict[str, Tuple[float, str]]:
    """The deterministic per-layer counts and simulated-time fractions."""
    counts = outcome.counts
    metrics: Dict[str, Tuple[float, str]] = {
        "sim.engine.events_per_record": (counts["events"] / records, "count"),
    }
    for layer in ("device", "ftl", "flash"):
        metrics[f"{layer}.calls_per_record"] = (
            table.calls.get(layer, 0) / records, "count")
    metrics["flash.ops_per_record"] = (counts["flash_ops"] / records,
                                       "count")
    written = counts["host_pages_written"]
    metrics["ftl.write_amp"] = (
        counts["flash_pages_programmed"] / written if written else 0.0,
        "ratio")
    metrics["ftl.clean_pages_moved_per_record"] = (
        counts["clean_pages_moved"] / records, "count")
    element_us = counts["element_us"]
    metrics["flash.busy_frac"] = (counts["busy_us"] / element_us, "ratio")
    metrics["flash.clean_busy_frac"] = (counts["clean_busy_us"] / element_us,
                                        "ratio")
    return metrics
