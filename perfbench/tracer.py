"""Span tracing from outside the program.

A traced rep wraps the entry points of each layer (listed in
:data:`ENTRY_POINTS`) with a timing shim and restores the originals
afterwards.  They are public methods and functions, plus two cleaner
callbacks: ``Cleaner._batch_done`` starts every copy batch after a
block's first, from a flash completion, and without it most cleaning work
would be booked to ``sim.engine``.  Each call records a span -- entry
point, start, end and parent span -- into flat in-memory lists; nothing
is written until the run ends.

A layer's *self time* is the summed duration of its spans minus the part
each span's direct children cover.  Work the program does in callbacks
that no entry point covers (the element drain, completion joins, the
replay driver's submission closure, device completion bookkeeping) runs
inside ``Simulator.run_until_idle`` and so lands in ``sim.engine`` self
time.  Spans inside the program would split it further; they are not
part of this benchmark.

Set-up work inside the root span (``build_device`` on the fleet's serial
path, which includes its ``prefill_*`` call) is reported as its own
``setup`` row and kept out of the per-layer self times, so those stay
per-record replay costs.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from itertools import islice
from typing import Callable, Dict, Iterable, Iterator, List

import repro.fleet.router as fleet_router
import repro.fleet.runner as fleet_runner
from repro.device.scheduler import FCFSScheduler, SWTFScheduler
from repro.device.ssd import SSD
from repro.device.write_buffer import PassthroughBuffer
from repro.fleet.report import FleetReport
from repro.flash.element import FlashElement
from repro.ftl import prefill
from repro.ftl.blockmap import BlockMappedFTL
from repro.ftl.cleaning import Cleaner
from repro.ftl.pagemap import PageMappedFTL
from repro.sim.engine import Simulator
from repro.sim.resource import SerialResource
from repro.sim.stats import (LatencyRecorder, QuantileSketch, ReservoirSampler,
                             StreamingLatencyRecorder)
from repro.workloads.driver import ShardedResult, StreamingResult

__all__ = ["LAYERS", "ENTRY_POINTS", "Tracer", "instrument", "LayerTable",
           "layer_table"]

#: layers that get a ``<layer>.self_us_per_record`` metric, in report order
LAYERS = ("workloads", "traces", "device", "device.scheduler",
          "sim.resource", "ftl", "ftl.cleaning", "flash", "sim.stats",
          "sim.engine", "fleet")

#: pseudo-layers: set-up inside the root span, and the root's own time
SETUP = "setup"
OTHER = "other"

#: (layer, owner, attribute names) -- methods wrapped on their class,
#: module-level functions wrapped in the namespace their caller reads
ENTRY_POINTS = (
    ("device", SSD, ("submit", "submit_batch")),
    ("device", PassthroughBuffer, ("insert",)),
    ("device.scheduler", FCFSScheduler, ("select", "on_submit")),
    ("device.scheduler", SWTFScheduler, ("select", "on_submit")),
    ("sim.resource", SerialResource, ("transfer", "transfer_after")),
    ("ftl", PageMappedFTL, ("read", "write", "trim")),
    ("ftl", BlockMappedFTL, ("read", "write", "trim")),
    # _batch_done/_erase_done: the flash completion callbacks that carry
    # a clean on past its first copy batch and past the victim's erase
    ("ftl.cleaning", Cleaner, ("maybe_clean", "select_victim", "_batch_done",
                               "_erase_done")),
    ("flash", FlashElement, ("enqueue", "read_page", "program_page",
                             "erase_block", "copy_page")),
    ("workloads", StreamingResult, ("record",)),
    ("workloads", ShardedResult, ("record",)),
    ("workloads", fleet_runner, ("replay_trace",)),
    ("sim.stats", QuantileSketch, ("__init__", "add", "add_many")),
    ("sim.stats", ReservoirSampler, ("add", "add_many")),
    ("sim.stats", StreamingLatencyRecorder, ("record", "flush")),
    ("sim.stats", LatencyRecorder, ("record",)),
    ("sim.engine", Simulator, ("run_until_idle",)),
    ("fleet", fleet_runner, ("device_layout", "make_classifier")),
    ("fleet", FleetReport, ("build",)),
    (SETUP, fleet_runner, ("build_device",)),
    (SETUP, fleet_runner, ("prefill_pagemap", "prefill_stripe_ftl")),
    (SETUP, prefill, ("prefill_pagemap", "prefill_stripe_ftl")),
)


class Tracer:
    """In-memory span store.  Span ``i`` is ``(names[i], starts[i],
    ends[i], parents[i])``; parent ``-1`` marks a top-level span.  Spans
    are numbered in start order, so a parent always precedes its
    children."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.layer_of: Dict[str, str] = {}
        self._stack: List[int] = [-1]

    def wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        """``fn`` with a span around every call."""
        self.layer_of[name] = layer
        names, starts, ends = self.names, self.starts, self.ends
        parents, stack = self.parents, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()

        return traced

    def wrap_iter(self, name: str, layer: str,
                  iterable: Iterable) -> Iterator:
        """An iterator yielding ``iterable``'s items, with a span around
        each ``next()`` on it."""
        step = self.wrap(name, layer, iter(iterable).__next__)

        def spans() -> Iterator:
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        return spans()

    @contextmanager
    def span(self, name: str, layer: str):
        """A span around a ``with`` block; yields its span number."""
        self.layer_of[name] = layer
        span = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(span)
        self.starts.append(time.perf_counter())
        try:
            yield span
        finally:
            self.ends[span] = time.perf_counter()
            self._stack.pop()

    def durations(self, needle: str) -> float:
        """Summed duration (s) of every span whose name contains
        ``needle``."""
        return sum((end - start for name, start, end in
                   zip(self.names, self.starts, self.ends)
                   if needle in name), 0.0)

    def chrome_trace(self, path, cap: int) -> int:
        """Write the first ``cap`` spans as Chrome trace-event JSON (``ph:
        X`` complete events, microseconds), which Perfetto and
        chrome://tracing open.  Returns the number of events written."""
        origin = min(self.starts) if self.starts else 0.0
        events = [
            {"name": name, "cat": self.layer_of[name], "ph": "X",
             "ts": round((start - origin) * 1e6, 3),
             "dur": round((end - start) * 1e6, 3),
             "pid": 1, "tid": 1}
            for name, start, end in islice(zip(
                self.names, self.starts, self.ends), cap)
        ]
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out)
        return len(events)


def _qualified(owner, attr: str) -> str:
    """Span name of an entry point: ``Class.method`` or ``module.func``
    (last module component only)."""
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every entry point of :data:`ENTRY_POINTS` (plus the fleet
    router's record streams) for the ``with`` block, then restore them."""
    saved = []

    def patch(owner, attr: str, replacement) -> None:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    try:
        for layer, owner, attrs in ENTRY_POINTS:
            for attr in attrs:
                original = owner.__dict__[attr]
                name = _qualified(owner, attr)
                # FleetReport.build is a classmethod: wrap its function
                if isinstance(original, classmethod):
                    patch(owner, attr, classmethod(
                        tracer.wrap(name, layer, original.__func__)))
                else:
                    patch(owner, attr, tracer.wrap(name, layer, original))
        # the fleet's record streams: each tenant's pattern generator is
        # the traces layer; the router's k-way merge over them is fleet
        tenant_records = fleet_router.tenant_records
        device_stream = fleet_runner.device_stream
        patch(fleet_router, "tenant_records",
              lambda *args: tracer.wrap_iter(
                  "next(tenant records)", "traces", tenant_records(*args)))
        patch(fleet_runner, "device_stream",
              lambda *args: tracer.wrap_iter(
                  "next(device stream)", "fleet", device_stream(*args)))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class LayerTable:
    """Per-layer self time of one traced rep, relative to its root span."""

    def __init__(self, root_s: float, self_s: Dict[str, float],
                 calls: Dict[str, int]) -> None:
        self.root_s = root_s
        #: layer -> self seconds; includes the SETUP and OTHER rows
        self.self_s = self_s
        #: layer -> spans inside the root (set-up excluded)
        self.calls = calls

    @property
    def unaccounted_s(self) -> float:
        """Root duration minus every row: zero when spans nest properly."""
        return self.root_s - sum(self.self_s.values())


def layer_table(tracer: Tracer, root: int) -> LayerTable:
    """Attribute every span under ``root`` to its layer's self time.

    A span's self time is its duration minus its direct children's
    durations.  Spans inside a SETUP span go to the SETUP row whole.  The
    root's own self time is the OTHER row.
    """
    names, starts, ends, parents = (tracer.names, tracer.starts,
                                    tracer.ends, tracer.parents)
    layer_of = tracer.layer_of
    n = len(names)
    duration = [ends[i] - starts[i] for i in range(n)]
    child_time = [0.0] * n
    for i in range(root + 1, n):
        parent = parents[i]
        if parent >= 0:
            child_time[parent] += duration[i]
    # spans are numbered in start order, so one forward pass finds which
    # spans descend from the root and which sit inside a set-up span
    inside = [False] * n
    in_setup = [False] * n
    inside[root] = True
    self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    self_s[SETUP] = 0.0
    calls: Dict[str, int] = {}
    for i in range(root + 1, n):
        parent = parents[i]
        if parent < 0 or not inside[parent]:
            continue
        inside[i] = True
        layer = layer_of[names[i]]
        if in_setup[parent]:
            in_setup[i] = True
            continue
        if layer == SETUP:
            in_setup[i] = True
            self_s[SETUP] += duration[i]
            continue
        self_s[layer] += duration[i] - child_time[i]
        calls[layer] = calls.get(layer, 0) + 1
    self_s[OTHER] = duration[root] - child_time[root]
    return LayerTable(duration[root], self_s, calls)
