"""Spans around the program's layer entry points, recorded from outside.

:func:`install` wraps methods of the program's classes (no file under
``src/`` changes) so each call records a span: name, start, end, span
id, parent span id and an optional tag (the request key, or whether a
lookup hit).  Parents follow ``contextvars``, so spans opened inside
asyncio tasks nest under the task that created them.  Spans stay in
memory and are written as JSON lines to ``$PERFBENCH_TRACE_DIR`` when
the process exits (``atexit`` for plain processes, a multiprocessing
finalizer for spawned shard workers, which skip ``atexit``).

Clock: ``time.perf_counter_ns`` (CLOCK_MONOTONIC on Linux, comparable
across processes on one host).
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import inspect
import itertools
import json
import os
import time

MAX_SPANS = 400_000

_current: contextvars.ContextVar[int] = contextvars.ContextVar("span", default=0)


class Tracer:
    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self.born = time.perf_counter_ns()
        self._flushed = False

    def record(self, name: str, start: int, end: int, span_id: int,
               parent: int, tag: object) -> None:
        if len(self.spans) < MAX_SPANS:
            self.spans.append((name, start, end, span_id, parent, tag))

    def wrap(self, owner: type, attr: str, name: str, tag=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.
        ``tag(args, result)`` labels the span."""
        original = getattr(owner, attr)
        ids = self._ids
        record = self.record

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def traced(*args, **kwargs):
                span_id = next(ids)
                token = _current.set(span_id)
                start = time.perf_counter_ns()
                result = None
                try:
                    result = await original(*args, **kwargs)
                    return result
                finally:
                    end = time.perf_counter_ns()
                    _current.reset(token)
                    record(name, start, end, span_id, _current.get(),
                           tag(args, result) if tag else None)
        else:
            @functools.wraps(original)
            def traced(*args, **kwargs):
                span_id = next(ids)
                token = _current.set(span_id)
                start = time.perf_counter_ns()
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    end = time.perf_counter_ns()
                    _current.reset(token)
                    record(name, start, end, span_id, _current.get(),
                           tag(args, result) if tag else None)
        setattr(owner, attr, traced)

    def mark_ready(self) -> None:
        """Record a ``process.ready`` span from tracer install to now."""
        self.record("process.ready", self.born, time.perf_counter_ns(),
                    next(self._ids), 0, None)

    def flush(self) -> None:
        if self._flushed:
            return
        self._flushed = True
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _hit(args, result) -> str:
    return "miss" if result is None else "hit"


def _rows(args, result) -> int:
    return int(result or 0)


def install(out_dir: str) -> Tracer:
    """Wrap every layer's entry points; returns the tracer."""
    from repro.core.datastore import SnapshotDatastore
    from repro.core.frontend import QueryFrontend
    from repro.core.query import SpotLightQuery
    from repro.core.read_index import ReadIndex
    from repro.ec2.platform import EC2Simulator
    from repro.replication import Recorder, ReplicaTailer
    from repro.router import SpotLightRouter
    from repro.server import SpotLightServer

    tracer = Tracer(out_dir)
    wrap = tracer.wrap
    wrap(SpotLightServer, "_dispatch", "server.dispatch")
    wrap(QueryFrontend, "wire_lookup", "frontend.wire_lookup", _hit)
    wrap(QueryFrontend, "store_wire", "frontend.store_wire")
    wrap(QueryFrontend, "handle", "frontend.handle")
    wrap(QueryFrontend, "stacked_wire", "frontend.stacked_wire")
    for method in ("top_stable_markets", "unavailability_periods",
                   "least_unavailable_markets", "mean_price",
                   "availability", "availability_at_bid",
                   "point_stats_batch", "rejection_counts"):
        wrap(SpotLightQuery, method, f"query.{method}")
    wrap(ReadIndex, "prime", "read_index.prime")
    wrap(SnapshotDatastore, "flush", "datastore.flush")
    wrap(SnapshotDatastore, "__init__", "datastore.load")
    wrap(EC2Simulator, "run_for", "ec2.run_for")
    wrap(Recorder, "commit", "replication.commit")
    wrap(ReplicaTailer, "step", "replication.step", _rows)
    wrap(SpotLightRouter, "_forward", "router.forward")
    wrap(SpotLightRouter, "_scatter", "router.scatter")
    wrap(SpotLightRouter, "_shard_batch", "router.shard_batch")

    original_start = SpotLightServer.start

    async def start(self):
        await original_start(self)
        tracer.mark_ready()

    SpotLightServer.start = start

    atexit.register(tracer.flush)
    try:
        from multiprocessing import util

        util.Finalize(None, tracer.flush, exitpriority=100)
    except ImportError:
        pass
    return tracer
