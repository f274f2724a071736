"""The traced run: per-layer metrics for one workload.

``--trace 1`` runs the workload twice, untraced and then with every
process of the deployment traced (``tracewrap.py``: the recorder, the
replica, the server, the router and its shard workers), and reports:

* ``trace.overhead_frac`` — untraced over traced ``saturate``
  throughput, minus one;
* counters of the traced deployment (``/stats``): wire-cache hit ratio
  after warm-up, entries, coalescing, router forwards and scatters;
* the write path, from the untraced run's dataset build (``repro
  record`` with a ``serve --follow`` replica, no read load): rows
  committed per second, commit-to-applied lag, and the replica's
  read-index price invalidations;
* span figures of the traced deployment: ``store_wire`` per miss,
  ``Recorder.commit``, ``ReplicaTailer.step`` and its rows;
* a probe suite, identical for every workload, over the run's own
  snapshot: a traced single server and a traced 2-shard router probed
  with low-load round trips and short saturating bursts, plus
  in-process timings of the query engine, read index, datastore,
  simulator and import;
* the generator's own health: lateness, CPU share, and its ceiling
  against a trivial echo server.

Self time of a span is its duration minus the part its child spans
cover (``router.self_us``: router dispatch minus the shard round trips
inside it); ``server.self_hit_us`` is the round trip of a hit minus the
frontend's own ``wire_lookup`` time.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import deploy
import mixes

PER_LAYER_UNITS = {
    "server.rtt_hit_us": "us",
    "server.self_hit_us": "us",
    "server.cpu_us_per_req": "us",
    "server.batch_us_per_query": "us",
    "server.not_modified_us": "us",
    "server.cold_batch_ms": "ms",
    "frontend.hit_us": "us",
    "frontend.store_us": "us",
    "frontend.wire_hit_ratio": "ratio",
    "frontend.wire_entries": "count",
    "frontend.coalesced": "count",
    "query.top_stable_ms": "ms",
    "query.periods_ms": "ms",
    "query.least_unavailable_ms": "ms",
    "query.point_us": "us",
    "query.point_batch_us_per_query": "us",
    "read_index.prime_s": "s",
    "read_index.rebuild_ms": "ms",
    "read_index.price_invalidations": "count",
    "datastore.load_s": "s",
    "datastore.load_rows_per_s": "1/s",
    "datastore.bytes_per_row": "B",
    "datastore.insert_us": "us",
    "database.insert_us": "us",
    "datastore.flush_ms": "ms",
    "ec2.tick_ms": "ms",
    "service.fanout_ms_per_tick": "ms",
    "replication.commit_ms": "ms",
    "replication.step_ms": "ms",
    "replication.poll_wait_ms": "ms",
    "replication.apply_rows_per_s": "1/s",
    "replication.ingest_rows_per_s": "1/s",
    "replication.lag_p50_ms": "ms",
    "replication.lag_p90_ms": "ms",
    "router.forward_us": "us",
    "router.scatter_merge_ms": "ms",
    "router.self_us": "us",
    "router.cpu_us_per_req": "us",
    "shard.cpu_us_per_req": "us",
    "router.scatters": "count",
    "router.forwarded": "count",
    "server_pool.shard_ready_s": "s",
    "server_pool.shard_rss_mb": "MB",
    "repro.import_s": "s",
    "harness.gen_late_ms": "ms",
    "harness.gen_cpu_frac": "ratio",
    "harness.gen_ceiling_rps": "1/s",
    "trace.overhead_frac": "ratio",
}

#: Low-load probe repetitions.
PROBE_HITS = 1500
PROBE_KEYS = 120
PROBE_SCATTERS = 12
PROBE_COLD_BATCHES = 6
BURST_SECONDS = 2.0


# -- spans ----------------------------------------------------------------------
def load_spans(trace_dir: Path) -> dict[int, list[tuple]]:
    """Spans per process id from every ``spans-<pid>.jsonl`` file."""
    found: dict[int, list[tuple]] = {}
    for path in sorted(trace_dir.glob("spans-*.jsonl")):
        pid = int(path.stem.split("-")[1])
        with open(path, encoding="utf-8") as handle:
            found[pid] = [tuple(json.loads(line)) for line in handle]
    return found


def durations(spans: dict[int, list[tuple]], name: str, tag=None,
              pids=None) -> list[float]:
    """Durations in seconds of every span called ``name`` (optionally
    with a matching tag, and only from ``pids``)."""
    out = []
    for pid, items in spans.items():
        if pids is not None and pid not in pids:
            continue
        for span in items:
            if span[0] == name and (tag is None or tag(span[5])):
                out.append((span[2] - span[1]) / 1e9)
    return out


def self_times(spans: dict[int, list[tuple]]) -> dict[str, list[float]]:
    """Self time (seconds) of every span, by name: its duration minus
    the union of its direct children's intervals."""
    out: dict[str, list[float]] = {}
    for items in spans.values():
        children: dict[int, list[tuple[int, int]]] = {}
        for span in items:
            children.setdefault(span[4], []).append((span[1], span[2]))
        for name, start, end, span_id, _parent, _tag in items:
            covered = 0
            last_end = start
            for child_start, child_end in sorted(children.get(span_id, [])):
                child_start = max(child_start, last_end)
                if child_end > child_start:
                    covered += child_end - child_start
                    last_end = child_end
            out.setdefault(name, []).append((end - start - covered) / 1e9)
    return out


def span_table(spans: dict[int, list[tuple]]) -> dict[str, dict[str, float]]:
    """Per span name: count, median duration and median self time (us)."""
    own = self_times(spans)
    return {
        name: {
            "count": len(own[name]),
            "median_us": median(durations(spans, name), 1e6),
            "self_median_us": median(own[name], 1e6),
        }
        for name in sorted(own)
    }


def median(values: list[float], scale: float = 1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def lag_quantiles(lags_ms: list[float]) -> tuple[float, float]:
    """Median and interpolated 90th percentile of commit lags."""
    if len(lags_ms) < 2:
        return median(lags_ms), median(lags_ms)
    deciles = statistics.quantiles(lags_ms, n=10, method="inclusive")
    return statistics.median(lags_ms), deciles[8]


# -- probes ---------------------------------------------------------------------
def _hot_keys(seed: int, markets: mixes.Markets) -> list[dict]:
    rng = random.Random(seed ^ 0x9E37)
    picks = rng.sample(range(len(markets.ids)), PROBE_KEYS)
    return [mixes._point(rng, markets, i, False) for i in picks]


def _rtt(conn: deploy.Http, method: str, path: str, body: bytes = b"",
         headers: str = "") -> tuple[float, int, dict]:
    started = time.perf_counter()
    status, fields, _ = conn.request(method, path, body, headers)
    return time.perf_counter() - started, status, fields


def _body(payload: object) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode()


def _burst(run, port: int, mix, ids: list[int], window: int, tag: str,
           pids: list[int]) -> tuple[float, dict[int, float]]:
    """A saturating burst; returns (answers, CPU seconds per pid)."""
    cpu0 = {pid: deploy.cpu_seconds(pid) for pid in pids}
    result = run.generate(port, mix, [
        {"name": "burst", "rate": 0.0, "ids": ids, "duration": BURST_SECONDS,
         "window": window},
    ], tag)
    cpu = {pid: deploy.cpu_seconds(pid) - cpu0[pid] for pid in pids}
    return result["phases"][0]["done"], cpu


def probe_single(run, snapshot: Path, markets: mixes.Markets) -> dict[str, float]:
    trace_dir = run.work / "spans-probe-single"
    trace_dir.mkdir()
    proc, port, _ = deploy.start_server(
        ["--snapshot", str(snapshot), "--rate", "1e9", "--burst", "1e9"],
        traced=True, trace_dir=trace_dir, log=run.logs / "probe-single.log",
    )
    keys = _hot_keys(run.seed, markets)
    try:
        conn = deploy.Http("127.0.0.1", port)
        etags = {}
        for i, key in enumerate(keys):  # warm every key
            _, status, fields = _rtt(conn, "POST", "/query", _body(key))
            etags[i] = fields.get("etag")
        hits = [
            _rtt(conn, "POST", "/query", _body(keys[i % len(keys)]))[0]
            for i in range(PROBE_HITS)
        ]
        not_modified = []
        for i in range(PROBE_HITS // 3):
            took, status, _ = _rtt(
                conn, "POST", "/query", _body(keys[i % len(keys)]),
                f"If-None-Match: {etags[i % len(keys)]}\r\n",
            )
            if status == 304:
                not_modified.append(took)
        batch = [
            _rtt(conn, "POST", "/batch",
                 _body({"queries": keys[j:j + 32]}))[0] / 32
            for j in range(0, len(keys) - 32, 4)
        ]
        # Cold batches: 32 distinct point queries no earlier request named.
        cold_rng = random.Random(run.seed ^ 0xB47C)
        cold_batch = []
        for _ in range(PROBE_COLD_BATCHES):
            members = [
                mixes._point(cold_rng, markets, cold_rng.randrange(len(markets.ids)), True)
                for _ in range(32)
            ]
            cold_batch.append(_rtt(conn, "POST", "/batch", _body({"queries": members}))[0])
        conn.close()
        mix = mixes.Mix()
        ids = [mix.add("/query", key) for key in keys]
        answers, cpu = _burst(run, port, mix, ids, 64, "probe-single", [proc.pid])
    finally:
        proc.stop()
    spans = load_spans(trace_dir)
    hit_us = median(durations(spans, "frontend.wire_lookup", lambda t: t == "hit"), 1e6)
    rtt_us = median(hits, 1e6)
    return {
        "server.rtt_hit_us": rtt_us,
        "server.self_hit_us": rtt_us - hit_us,
        "server.cpu_us_per_req": cpu[proc.pid] / max(1, answers) * 1e6,
        "server.batch_us_per_query": median(batch, 1e6),
        "server.not_modified_us": median(not_modified, 1e6),
        "server.cold_batch_ms": median(cold_batch, 1e3),
        "frontend.hit_us": hit_us,
    }


def probe_router(run, snapshot: Path, markets: mixes.Markets) -> dict[str, float]:
    from repro.core.shard import ShardMap

    trace_dir = run.work / "spans-probe-router"
    trace_dir.mkdir()
    proc, port, _ = deploy.start_server(
        ["--snapshot", str(snapshot), "--rate", "1e9", "--burst", "1e9",
         "--shards", "2"],
        traced=True, trace_dir=trace_dir, log=run.logs / "probe-router.log",
    )
    shard_map = ShardMap(2)
    forward, scatter = [], []
    try:
        info = deploy.http_get_json("127.0.0.1", port, "/shards")
        router = deploy.Http("127.0.0.1", port)
        direct = [deploy.Http(host, shard_port) for host, shard_port in info["addresses"]]
        for key in _hot_keys(run.seed + 1, markets):
            shard = direct[shard_map.owner(key["params"]["market"])]
            _rtt(shard, "POST", "/query", _body(key))          # shard now warm
            shard_hit = _rtt(shard, "POST", "/query", _body(key))[0]
            via_router = _rtt(router, "POST", "/query", _body(key))[0]
            forward.append(via_router - shard_hit)
        for i in range(PROBE_SCATTERS):
            key = {"query": "top-stable-markets",
                   "params": {"n": 10, "bid_multiple": 0.5 + i / 20}}
            for shard in direct:
                _rtt(shard, "POST", "/query", _body(key))
            slowest = max(_rtt(shard, "POST", "/query", _body(key))[0] for shard in direct)
            via_router = _rtt(router, "POST", "/query", _body(key))[0]
            scatter.append(via_router - slowest)
        router.close()
        for conn in direct:
            conn.close()
        shard_pids = [
            pid for pid in proc.family()[1:]
            if "resource_tracker" not in deploy.cmdline(pid)
        ]
        mix, ids = mixes.wide_scan(run.seed + 2, markets, {"burst": 2000})
        answers, cpu = _burst(run, port, mix, ids["burst"], 16, "probe-router",
                              [proc.pid, *shard_pids])
        shard_rss = max((deploy.peak_rss_mb(pid) for pid in shard_pids), default=0.0)
    finally:
        proc.stop()
    spans = load_spans(trace_dir)
    ready = durations(spans, "process.ready", pids=set(shard_pids))
    # The router's own time per request: its dispatch spans minus the
    # forward / scatter / shard-batch spans (shard round trips) inside.
    router_self = self_times({proc.pid: spans.get(proc.pid, [])}).get(
        "server.dispatch", [])
    return {
        "router.self_us": median(router_self, 1e6),
        "router.forward_us": median(forward, 1e6),
        "router.scatter_merge_ms": median(scatter, 1e3),
        "router.cpu_us_per_req": cpu[proc.pid] / max(1, answers) * 1e6,
        "shard.cpu_us_per_req": sum(cpu[p] for p in shard_pids) / max(1, answers) * 1e6,
        "server_pool.shard_ready_s": median(ready),
        "server_pool.shard_rss_mb": shard_rss,
    }


def in_process(run, snapshot: Path, markets: mixes.Markets) -> dict[str, float]:
    """Direct timings of the engine, index, datastore and simulator."""
    from repro.core.datastore import InMemoryDatastore, SnapshotDatastore
    from repro.core.market_id import MarketID
    from repro.core.query import SpotLightQuery
    from repro.core.records import PriceRecord, ProbeKind
    from repro import EC2Simulator, FleetConfig, SpotLight, SpotLightConfig
    from repro.ec2.catalog import default_catalog
    from repro.replication import latest_record_time

    out: dict[str, float] = {}
    catalog = default_catalog()
    rng = random.Random(run.seed)

    started = time.perf_counter()
    store = SnapshotDatastore(str(snapshot), append_log=False, must_exist=True)
    load_s = time.perf_counter() - started
    rows = store.price_count() + len(store)
    size = sum(p.stat().st_size for p in snapshot.iterdir())
    out["datastore.load_s"] = load_s
    out["datastore.load_rows_per_s"] = rows / load_s
    out["datastore.bytes_per_row"] = size / rows

    engine = SpotLightQuery(store, catalog)
    started = time.perf_counter()
    engine.prime()
    out["read_index.prime_s"] = time.perf_counter() - started

    def timed(fn, repeat: int) -> float:
        took = []
        for i in range(repeat):
            started = time.perf_counter()
            fn(i)
            took.append(time.perf_counter() - started)
        return statistics.median(took)

    ids = [MarketID(*m.split("/", 2)) for m in markets.ids]
    out["query.top_stable_ms"] = timed(
        lambda i: engine.top_stable_markets(n=10, bid_multiple=0.6 + i / 10), 7) * 1e3
    out["query.periods_ms"] = timed(
        lambda i: engine.unavailability_periods(kind=ProbeKind(mixes.KINDS[i % 2])), 6) * 1e3
    out["query.least_unavailable_ms"] = timed(
        lambda i: engine.least_unavailable_markets(rng.sample(ids, 16)), 20) * 1e3
    sample = rng.sample(range(len(ids)), 256)
    out["query.point_us"] = timed(
        lambda i: engine.availability_at_bid(
            ids[sample[i]], markets.on_demand[sample[i]] * 0.7), 256) * 1e6
    assignments = {ids[i]: markets.on_demand[i] * 0.7 for i in sample}
    out["query.point_batch_us_per_query"] = timed(
        lambda i: engine.point_stats_batch(assignments), 5) * 1e6 / len(assignments)

    warm = timed(lambda i: engine.top_stable_markets(n=10), 3)
    last = latest_record_time(store) + 300.0
    for market, od in zip(ids, markets.on_demand):
        store.insert_price(PriceRecord(last, market, od * 0.3))
    started = time.perf_counter()
    engine.top_stable_markets(n=10)
    out["read_index.rebuild_ms"] = (time.perf_counter() - started - warm) * 1e3
    del store, engine

    records = [
        PriceRecord(float(t), ids[i], markets.on_demand[i] * 0.3)
        for t in range(5) for i in range(len(ids))
    ]
    scratch = run.work / "insert-probe"
    wal_store = SnapshotDatastore(str(scratch))
    memory_store = InMemoryDatastore()
    for name, target in (("datastore.insert_us", wal_store),
                         ("database.insert_us", memory_store)):
        started = time.perf_counter()
        for record in records:
            target.insert_price(record)
        out[name] = (time.perf_counter() - started) / len(records) * 1e6
    flushes = []
    for t in range(5, 10):
        for i in range(len(ids)):
            wal_store.insert_price(PriceRecord(float(t), ids[i], 0.01))
        started = time.perf_counter()
        wal_store.flush()
        flushes.append(time.perf_counter() - started)
    wal_store.close()
    out["datastore.flush_ms"] = statistics.median(flushes) * 1e3

    # A bare simulator and one with SpotLight attached, ticked in turn so
    # a drift of the host's speed lands on both alike.
    simulators = []
    for attach in (False, True):
        simulator = EC2Simulator(FleetConfig(catalog=catalog, seed=run.seed,
                                             tick_interval=300.0))
        if attach:
            SpotLight(simulator, SpotLightConfig(spot_probe_interval=4 * 3600.0),
                      datastore=InMemoryDatastore()).start()
        simulator.run_for(300.0)  # first tick: lazy set-up
        simulators.append(simulator)
    ticks: list[list[float]] = [[], []]
    for _ in range(6):
        for which, simulator in enumerate(simulators):
            started = time.perf_counter()
            simulator.run_for(300.0)
            ticks[which].append(time.perf_counter() - started)
    bare = statistics.median(ticks[0]) * 1e3
    out["ec2.tick_ms"] = bare
    out["service.fanout_ms_per_tick"] = statistics.median(ticks[1]) * 1e3 - bare
    del simulators

    def interpreter(code: str) -> float:
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=deploy.env(), check=True)
        return time.perf_counter() - started

    bare_start = statistics.median(interpreter("pass") for _ in range(3))
    out["repro.import_s"] = statistics.median(
        interpreter("import repro") for _ in range(3)) - bare_start
    return out


def generator_ceiling(run, markets: mixes.Markets) -> float:
    """The generator's own throughput against a trivial echo server."""
    echo = subprocess.Popen([sys.executable, str(deploy.HERE / "loadgen.py"), "--echo"],
                            stdout=subprocess.PIPE, text=True)
    try:
        port = int(echo.stdout.readline())
        mix, ids = mixes.hot_read(run.seed, markets, {"saturate": 20000})
        result = run.generate(port, mix, [
            {"name": "ceiling", "rate": 0.0, "ids": ids["saturate"],
             "duration": BURST_SECONDS, "window": 256},
        ], "ceiling", tally=False)
    finally:
        echo.kill()
        echo.wait(10)
    return result["phases"][0]["throughput_rps"]


# -- the traced run -------------------------------------------------------------
def traced_run(run, workload_fn) -> dict[str, dict]:
    run.trace = False
    base = workload_fn(run)
    build = run.details["dataset"]
    generator = list(run.details["generator"])
    run.trace = True
    run.trace_dir.mkdir(parents=True, exist_ok=True)
    traced = workload_fn(run)
    spans = load_spans(run.trace_dir)
    # Every layer's spans, summarised into the run's results file.
    run.details["spans"] = span_table(spans)
    stats = run.details["stats"]
    before = run.details["stats_after_warmup"]
    markets = mixes.Markets()
    snapshot = run.details["snapshot"]

    def frontend_delta(field: str) -> int:
        return stats["frontend"][field] - before["frontend"][field]

    hits, misses = frontend_delta("wire_hits"), frontend_delta("wire_misses")
    steps = [s for items in spans.values() for s in items
             if s[0] == "replication.step" and s[5]]
    step_s = [(s[2] - s[1]) / 1e9 for s in steps]
    lag_p50, lag_p90 = lag_quantiles(build["lags_ms"])
    metrics: dict[str, float] = {
        "frontend.wire_hit_ratio": hits / max(1, hits + misses),
        "frontend.wire_entries": stats["frontend"]["wire_entries"],
        "frontend.coalesced": stats["coalesced"],
        "frontend.store_us": median(durations(spans, "frontend.store_wire"), 1e6),
        "read_index.price_invalidations": build["replica_stats"].get(
            "replica", {}).get("read_index", {}).get("price_invalidations", 0),
        "router.scatters": stats.get("shards", {}).get("scatter_queries", 0),
        "router.forwarded": stats.get("shards", {}).get("forwarded_queries", 0),
        "replication.commit_ms": median(durations(spans, "replication.commit"), 1e3),
        "replication.step_ms": median(step_s, 1e3),
        "replication.apply_rows_per_s": sum(s[5] for s in steps) / max(1e-9, sum(step_s)),
        "replication.ingest_rows_per_s": build["ingest_rows_per_s"],
        "replication.lag_p50_ms": lag_p50,
        "replication.lag_p90_ms": lag_p90,
        "trace.overhead_frac": base["throughput_rps"] / traced["throughput_rps"] - 1.0,
    }
    metrics["replication.poll_wait_ms"] = lag_p50 - metrics["replication.step_ms"]
    metrics["harness.gen_late_ms"] = base["_nominal"]["late_p99_ms"]
    metrics["harness.gen_cpu_frac"] = (
        sum(g["cpu_s"] for g in generator) / sum(g["wall_s"] for g in generator)
    )
    metrics.update(probe_single(run, snapshot, markets))
    metrics.update(probe_router(run, snapshot, markets))
    metrics.update(in_process(run, snapshot, markets))
    metrics["harness.gen_ceiling_rps"] = generator_ceiling(run, markets)
    return {
        name: {"value": float(metrics[name]), "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }
