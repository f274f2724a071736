"""Open-loop HTTP load generator: one process, a few pipelined
keep-alive connections.

Run as ``python3 loadgen.py PLAN.json RESULT.json``.  The plan names
the target, the request templates (raw HTTP/1.1 request bytes) and a
list of phases:

* a *scheduled* phase (``"rate"`` > 0) sends request ``i`` of the phase
  at ``phase_start + i / rate`` whether or not earlier answers have
  come back, spreading requests round-robin over the connections and
  pipelining them.  Latency is measured from that scheduled time, so a
  server stall is charged to every request queued behind it;
* a *saturating* phase (``"rate"`` 0) keeps ``window`` requests in
  flight on every connection, an offered load above any capacity, and
  is used only for throughput.

A phase with ``drain`` waits for all its answers before the next phase
starts.  Phases that share a name are parts of one phase (a run may
interleave parts of a scheduled phase with parts of a saturating one).

The generator reports per phase name: answers, errors, latency
quantiles over every answer of the phase, and throughput (answers
divided by the phase's time); plus its own lateness (how long after its
scheduled time each request actually left, in scheduled phases), its
CPU time, and the raw bodies of a seeded sample of answers for
verification (a seeded one-in-``sample_every`` draw plus the first
answers of every request kind).

Templates flagged ``poll`` carry an ``If-None-Match`` header with the
ETag last seen for the same template, once one has been seen.
"""

from __future__ import annotations

import json
import random
import selectors
import socket
import sys
import time
from collections import deque


#: Answers of every request kind always kept for verification.
MIN_SAMPLES_PER_KIND = 3


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


class _Conn:
    __slots__ = ("sock", "out", "inbuf", "pending")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.out = bytearray()
        self.inbuf = bytearray()
        # (phase, template, scheduled time, sampled?) per request in flight
        self.pending: deque = deque()


def _parse_responses(conn: _Conn):
    """Yield ``(status, headers_bytes, body)`` for each complete
    response at the front of ``conn.inbuf`` and consume them."""
    buf = conn.inbuf
    pos = 0
    n = len(buf)
    while True:
        head_end = buf.find(b"\r\n\r\n", pos)
        if head_end < 0:
            break
        cl = buf.find(b"Content-Length: ", pos, head_end)
        length = 0
        if cl >= 0:
            line_end = buf.find(b"\r\n", cl, head_end + 2)
            length = int(buf[cl + 16:line_end])
        body_start = head_end + 4
        if body_start + length > n:
            break
        status = int(buf[pos + 9:pos + 12])
        yield status, bytes(buf[pos:head_end]), bytes(
            buf[body_start:body_start + length]
        )
        pos = body_start + length
    if pos:
        del buf[:pos]


def run(plan: dict) -> dict:
    host, port = plan["host"], int(plan["port"])
    templates = [
        (t["request"].encode("latin-1"), bool(t.get("poll")))
        for t in plan["templates"]
    ]
    kinds = [t.get("kind", "") for t in plan["templates"]]
    phases = plan["phases"]
    sample_every = max(1, int(plan.get("sample_every", 50)))
    drain_timeout = float(plan.get("drain_timeout", 15.0))

    conns = []
    selector = selectors.DefaultSelector()
    for _ in range(int(plan["connections"])):
        sock = socket.create_connection((host, port), timeout=10.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        conn = _Conn(sock)
        conns.append(conn)
        selector.register(sock, selectors.EVENT_READ, conn)

    etags: dict[int, bytes] = {}
    stats = [
        {"name": p["name"], "sent": 0, "done": 0, "errors": 0, "lat": [],
         "late": [], "blocked": 0, "statuses": {}, "by_kind": {}}
        for p in phases
    ]
    samples: list[list] = []
    seen_for_sample: set[int] = set()
    sampled_kinds: dict[str, int] = {}
    sampler = random.Random(int(plan.get("sample_seed", 0)))

    def pick_sample(template_id: int) -> bool:
        """Whether to keep this request's answer for verification: a
        seeded 1-in-``sample_every`` draw, plus the first few requests of
        every kind (so rare kinds such as batches are always checked),
        and never the same template twice."""
        if template_id in seen_for_sample:
            return False
        kind = kinds[template_id]
        if sampled_kinds.get(kind, 0) >= MIN_SAMPLES_PER_KIND and (
            sampler.random() * sample_every >= 1.0
        ):
            return False
        seen_for_sample.add(template_id)
        sampled_kinds[kind] = sampled_kinds.get(kind, 0) + 1
        return True

    def encode(template_id: int) -> bytes:
        raw, poll = templates[template_id]
        if poll:
            tag = etags.get(template_id)
            if tag is not None:
                head, sep, rest = raw.partition(b"\r\n")
                return head + sep + b"If-None-Match: " + tag + b"\r\n" + rest
        return raw

    def on_response(conn: _Conn, now: float) -> None:
        for status, headers, body in _parse_responses(conn):
            phase, template_id, scheduled, sample = conn.pending.popleft()
            st = stats[phase]
            st["done"] += 1
            st["lat"].append(now - scheduled)
            st["by_kind"].setdefault(kinds[template_id], []).append(now - scheduled)
            key = str(status)
            st["statuses"][key] = st["statuses"].get(key, 0) + 1
            bad = status not in (200, 304) or (
                b'"ok":false' in body or b'"partial":true' in body
            )
            if bad:
                st["errors"] += 1
            if status == 200:
                tag_at = headers.find(b"ETag: ")
                if tag_at >= 0:
                    line_end = headers.find(b"\r\n", tag_at)
                    etags[template_id] = headers[
                        tag_at + 6:line_end if line_end >= 0 else None
                    ]
            if sample or bad:
                if status == 304:
                    tag = etags.get(template_id, b"").decode("latin-1")
                    samples.append([template_id, status, tag])
                else:
                    samples.append(
                        [template_id, status, body.decode("utf-8", "replace")]
                    )

    def pump(timeout: float) -> None:
        for conn in conns:
            if conn.out:
                try:
                    sent = conn.sock.send(conn.out)
                except BlockingIOError:
                    sent = 0
                del conn.out[:sent]
        for key, _ in selector.select(timeout):
            conn = key.data
            try:
                data = conn.sock.recv(1 << 18)
            except BlockingIOError:
                continue
            if not data:
                raise ConnectionError("server closed a connection")
            conn.inbuf += data
            on_response(conn, time.perf_counter())

    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    for phase_index, phase in enumerate(phases):
        ids = phase["ids"]
        rate = float(phase.get("rate", 0.0))
        window = int(phase.get("window", 64))
        start = time.perf_counter()
        st = stats[phase_index]
        st["start"] = start
        if rate > 0:
            interval = 1.0 / rate
            i = 0
            total = len(ids)
            while i < total:
                now = time.perf_counter()
                while i < total and start + i * interval <= now:
                    conn = conns[i % len(conns)]
                    if len(conn.pending) >= window:
                        st["blocked"] += 1
                        break
                    template_id = ids[i]
                    sample = pick_sample(template_id)
                    scheduled = start + i * interval
                    conn.out += encode(template_id)
                    conn.pending.append((phase_index, template_id, scheduled, sample))
                    st["late"].append(now - scheduled)
                    st["sent"] += 1
                    i += 1
                if i < total:
                    wait = start + i * interval - time.perf_counter()
                    pump(max(0.0, min(wait, 0.002)))
                else:
                    pump(0.0)
        else:
            duration = float(phase["duration"])
            end = start + duration
            i = 0
            while time.perf_counter() < end:
                now = time.perf_counter()
                for conn in conns:
                    while len(conn.pending) < window:
                        template_id = ids[i % len(ids)]
                        i += 1
                        sample = pick_sample(template_id)
                        conn.out += encode(template_id)
                        conn.pending.append((phase_index, template_id, now, sample))
                        st["sent"] += 1
                pump(0.002)
        if phase.get("drain"):
            # Start the next phase from an empty pipeline.
            deadline = time.perf_counter() + drain_timeout
            while any(c.pending for c in conns) and time.perf_counter() < deadline:
                pump(0.005)
        st["end"] = time.perf_counter()

    deadline = time.perf_counter() + drain_timeout
    while any(c.pending or c.out for c in conns):
        if time.perf_counter() > deadline:
            break
        pump(0.01)
    timeouts = sum(len(c.pending) for c in conns)
    for conn in conns:
        for phase, *_ in conn.pending:
            stats[phase]["errors"] += 1
        selector.unregister(conn.sock)
        conn.sock.close()
    selector.close()
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0

    # Parts of one phase (same name) are reported together.
    merged: dict[str, dict] = {}
    for phase, st in zip(phases, stats):
        out = merged.setdefault(st["name"], {
            "name": st["name"], "rate": phase.get("rate", 0.0), "parts": 0,
            "sent": 0, "done": 0, "errors": 0, "blocked": 0, "seconds": 0.0,
            "statuses": {}, "lat": [], "late": [], "by_kind": {},
        })
        out["parts"] += 1
        for field in ("sent", "done", "errors", "blocked"):
            out[field] += st[field]
        out["seconds"] += st["end"] - st["start"]
        for status, count in st["statuses"].items():
            out["statuses"][status] = out["statuses"].get(status, 0) + count
        out["lat"].extend(st["lat"])
        out["late"].extend(st["late"])
        for kind, values in st["by_kind"].items():
            out["by_kind"].setdefault(kind, []).extend(values)
    out_phases = []
    for out in merged.values():
        lat = sorted(out.pop("lat"))
        late = sorted(out.pop("late"))
        by_kind = out.pop("by_kind")
        out.update({
            "throughput_rps": out["done"] / out["seconds"] if out["seconds"] else 0.0,
            "p50_ms": _quantile(lat, 0.50) * 1e3,
            "p90_ms": _quantile(lat, 0.90) * 1e3,
            "p95_ms": _quantile(lat, 0.95) * 1e3,
            "p99_ms": _quantile(lat, 0.99) * 1e3,
            "late_p99_ms": _quantile(late, 0.99) * 1e3,
            "late_max_ms": (late[-1] * 1e3) if late else 0.0,
            "by_kind": {
                kind: {"count": len(v), "mean_ms": sum(v) / len(v) * 1e3,
                       "p50_ms": _quantile(sorted(v), 0.5) * 1e3}
                for kind, v in by_kind.items()
            },
        })
        out_phases.append(out)
    return {
        "phases": out_phases,
        "timeouts": timeouts,
        "cpu_s": cpu,
        "wall_s": wall,
        "samples": samples,
    }


def echo_server() -> None:
    """A trivial HTTP server answering every request with one fixed
    200 response: the target of the generator's own ceiling test."""
    import asyncio

    reply = (
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        b"Content-Length: 11\r\n\r\n{\"ok\":true}"
    )

    class Echo(asyncio.Protocol):
        def connection_made(self, transport) -> None:
            self.transport = transport
            self.buf = b""

        def data_received(self, data: bytes) -> None:
            buf = self.buf + data
            pos = answered = 0
            while True:
                head_end = buf.find(b"\r\n\r\n", pos)
                if head_end < 0:
                    break
                cl = buf.find(b"Content-Length: ", pos, head_end)
                length = 0
                if cl >= 0:
                    length = int(buf[cl + 16:buf.find(b"\r\n", cl)])
                if head_end + 4 + length > len(buf):
                    break
                pos = head_end + 4 + length
                answered += 1
            self.buf = buf[pos:]
            if answered:
                self.transport.write(reply * answered)

    async def serve() -> None:
        server = await asyncio.get_running_loop().create_server(
            Echo, "127.0.0.1", 0
        )
        print(server.sockets[0].getsockname()[1], flush=True)
        await server.serve_forever()

    asyncio.run(serve())


def main(argv: list[str]) -> int:
    if argv[1:] == ["--echo"]:
        echo_server()
        return 0
    if len(argv) != 3:
        print("usage: loadgen.py PLAN.json RESULT.json | loadgen.py --echo",
              file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as handle:
        plan = json.load(handle)
    result = run(plan)
    with open(argv[2], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
