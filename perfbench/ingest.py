"""The dataset builder and the write path it measures: ``repro record``
streams a full-catalog study into a snapshot directory while a ``repro
serve --follow`` replica tails it.

:class:`LagMonitor` watches both sides from outside: it stats
``watermark.json`` every millisecond (a commit becomes visible when the
recorder atomically replaces it) and polls the replica's ``/healthz``
``applied_seq``; the lag of a commit is the time from its watermark
appearing on disk until the replica reports having applied it.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from pathlib import Path

import deploy

#: Simulated seconds between recorder commits (one simulator tick).
COMMIT_INTERVAL = 300
#: How often the replica polls the WAL.  Short, so lag measures the
#: apply path rather than the polling timer.
REPLICA_POLL_INTERVAL = 0.02


def record_args(snapshot: Path, seed: int, hours: float) -> list[str]:
    return [
        "record", "--snapshot", str(snapshot), "--seed", str(seed),
        "--days", repr(hours / 24.0),
        "--regions", *deploy.REGIONS, "--families", *deploy.FAMILIES,
        "--commit-interval", str(COMMIT_INTERVAL),
    ]


def replica_args(snapshot: Path) -> list[str]:
    return [
        "--snapshot", str(snapshot), "--follow",
        "--poll-interval", str(REPLICA_POLL_INTERVAL),
        "--max-lag", str(1 << 40), "--rate", "1e9", "--burst", "1e9",
    ]


def read_seq(path: Path) -> int | None:
    try:
        return int(json.loads(path.read_text())["seq"])
    except (OSError, ValueError, KeyError, TypeError):
        return None


class LagMonitor:
    """Commit visibility vs replica application, timed from outside."""

    def __init__(self, snapshot: Path, port: int) -> None:
        self.watermark = snapshot / "watermark.json"
        self.port = port
        self.commits: list[tuple[float, int]] = []   # (visible at, seq)
        self.applied: list[tuple[float, int]] = []   # (seen at, applied_seq)
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._watch_disk, daemon=True),
            threading.Thread(target=self._watch_replica, daemon=True),
        ]

    def start(self) -> "LagMonitor":
        for thread in self._threads:
            thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join(5)

    def _watch_disk(self) -> None:
        last_stat = None
        last_seq = None
        while not self._stop.is_set():
            try:
                st = os.stat(self.watermark)
                stamp = (st.st_ino, st.st_mtime_ns, st.st_size)
            except OSError:
                stamp = None
            if stamp is not None and stamp != last_stat:
                now = time.perf_counter()
                seq = read_seq(self.watermark)
                if seq is not None:
                    last_stat = stamp
                    if seq != last_seq:
                        self.commits.append((now, seq))
                        last_seq = seq
            time.sleep(0.001)

    def _watch_replica(self) -> None:
        conn = deploy.Http("127.0.0.1", self.port)
        last = None
        try:
            while not self._stop.is_set():
                _, health = conn.json("GET", "/healthz")
                now = time.perf_counter()
                applied = int(health.get("replica", {}).get("applied_seq", 0))
                if applied != last:
                    self.applied.append((now, applied))
                    last = applied
                time.sleep(0.004)
        except (OSError, ValueError):
            pass
        finally:
            conn.close()

    def wait_caught_up(self, timeout: float = 30.0) -> bool:
        target = read_seq(self.watermark)
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.applied and target is not None and self.applied[-1][1] >= target:
                return True
            time.sleep(0.005)
        return False

    def lags_ms(self, since: float = 0.0) -> list[float]:
        """Lag of every commit made visible after ``since`` that the
        replica applied."""
        lags = []
        applied = list(self.applied)
        j = 0
        for visible, seq in self.commits:
            if visible < since:
                continue
            while j < len(applied) and (
                applied[j][1] < seq or applied[j][0] < visible
            ):
                j += 1
            if j == len(applied):
                break
            lags.append((applied[j][0] - visible) * 1e3)
        return lags

    def ingest_rate(self, since: float, until: float) -> tuple[float, int]:
        """Rows committed per wall second between the first and the last
        commit seen in ``[since, until]``.  Also returns the rows
        committed."""
        window = [(t, s) for t, s in self.commits if since <= t <= until]
        if len(window) < 2:
            return 0.0, 0
        (t0, s0), (t1, s1) = window[0], window[-1]
        rows = s1 - s0
        return rows / (t1 - t0), rows


def snapshot_digest(snapshot: Path) -> tuple[str, int]:
    """sha256 over every file of a snapshot dir (name + bytes), and the
    total bytes on disk."""
    digest = hashlib.sha256()
    total = 0
    for path in sorted(snapshot.iterdir()):
        data = path.read_bytes()
        total += len(data)
        digest.update(path.name.encode() + b"\0" + data)
    return digest.hexdigest(), total


def build_dataset(snapshot: Path, seed: int, hours: float,
                  logs: Path | None = None, traced: bool = False,
                  trace_dir: Path | None = None) -> dict:
    """Build the serving workloads' snapshot through the program's own
    writer (``repro record``), with a follower attached so the build
    doubles as an unloaded measurement of the write path.

    Returns the ingest figures, the follower's ``/stats`` once it has
    caught up, and the dataset's identity: markets, rows, bytes on disk
    and a content digest (same seed, same digest).
    """
    started = time.perf_counter()
    recorder = deploy.Proc(
        deploy.repro_argv(record_args(snapshot, seed, hours), traced),
        trace_dir, logs / "record.log" if logs else None,
    )
    replica = monitor = None
    try:
        while read_seq(snapshot / "watermark.json") is None:
            if recorder.popen.poll() is not None:
                raise RuntimeError(f"recorder exited: {recorder.lines[-5:]}")
            if time.perf_counter() - started > 60:
                raise TimeoutError("recorder never bootstrapped")
            time.sleep(0.002)
        replica, port, _ = deploy.start_server(
            replica_args(snapshot), traced, trace_dir,
            logs / "replica.log" if logs else None,
        )
        monitor = LagMonitor(snapshot, port).start()
        ready = time.perf_counter()
        code = recorder.popen.wait(120)
        if code != 0:
            raise RuntimeError(f"record exited {code}: {recorder.lines[-5:]}")
        done = time.perf_counter()
        caught_up = monitor.wait_caught_up()
        stats = deploy.http_get_json("127.0.0.1", port, "/stats")
    finally:
        if monitor is not None:
            monitor.stop()
        recorder.stop()
        if replica is not None:
            replica.stop()
    if not caught_up:
        raise RuntimeError("build replica never caught up with the recorder")
    manifest = json.loads((snapshot / "manifest.json").read_text())
    digest, size = snapshot_digest(snapshot)
    rate, rows = monitor.ingest_rate(ready, done)
    return {
        "markets": manifest["markets"],
        "prices": manifest["price_count"],
        "probes": manifest["probe_count"],
        "bytes": size,
        "digest": digest,
        "ingest_rows_per_s": rate,
        "ingest_rows": rows,
        "lags_ms": monitor.lags_ms(ready),
        "record_s": done - started,
        "replica_stats": stats,
    }
