"""Launching, probing and stopping the program's own processes.

Every process is a real ``python -m repro`` command run from the
checkout's ``src/`` tree (or the traced wrapper in ``tracewrap.py``
that runs the same command with spans recorded).  Resource figures come
from ``/proc``: peak resident set (``VmHWM``) and CPU time, for a
process and its children (shard workers are children of the router).
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CLK_TCK = os.sysconf("SC_CLK_TCK")

#: Every region and family of the full catalog, as the CLI takes them.
REGIONS = [
    "us-east-1", "us-west-1", "us-west-2", "eu-west-1", "eu-central-1",
    "ap-northeast-1", "ap-southeast-1", "ap-southeast-2", "sa-east-1",
]
FAMILIES = [
    "c1", "c3", "c4", "cc2", "cg1", "cr1", "d2", "g2", "hi1", "hs1",
    "i2", "m1", "m2", "m3", "m4", "r3", "t2",
]


def env(trace_dir: Path | None = None) -> dict[str, str]:
    """The environment every launched process gets: ``src`` first on
    the path, and the span output directory when traced."""
    environ = dict(os.environ)
    environ["PYTHONPATH"] = str(SRC) + (
        os.pathsep + environ["PYTHONPATH"] if environ.get("PYTHONPATH") else ""
    )
    environ.pop("PERFBENCH_TRACE_DIR", None)
    if trace_dir is not None:
        environ["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    return environ


def repro_argv(args: list[str], traced: bool = False) -> list[str]:
    if traced:
        return [sys.executable, str(HERE / "tracewrap.py"), *args]
    return [sys.executable, "-m", "repro", *args]


class Proc:
    """A launched process with its output drained on a thread.

    ``wait_line(prefix)`` blocks until a stdout line starting with the
    prefix appears (the server's ``serving on http://...`` announce).
    """

    def __init__(self, argv: list[str], trace_dir: Path | None = None,
                 log: Path | None = None) -> None:
        self.argv = argv
        self.started = time.perf_counter()
        self._log = open(log, "w", encoding="utf-8") if log else None
        self.popen = subprocess.Popen(
            argv, cwd=str(ROOT), env=env(trace_dir),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, bufsize=1,
        )
        self.lines: list[str] = []
        self._cond = threading.Condition()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    @property
    def pid(self) -> int:
        return self.popen.pid

    def _drain(self) -> None:
        for line in self.popen.stdout:
            with self._cond:
                self.lines.append(line.rstrip("\n"))
                self._cond.notify_all()
            if self._log is not None:
                self._log.write(line)
        with self._cond:
            self._cond.notify_all()

    def wait_line(self, prefix: str, timeout: float = 60.0) -> str:
        deadline = time.monotonic() + timeout
        seen = 0
        with self._cond:
            while True:
                for line in self.lines[seen:]:
                    if line.startswith(prefix):
                        return line
                seen = len(self.lines)
                if self.popen.poll() is not None and not self._reader.is_alive():
                    raise RuntimeError(
                        f"{self.argv[2:4]} exited ({self.popen.returncode}) "
                        f"before {prefix!r}: {self.lines[-5:]}"
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(f"no {prefix!r} within {timeout}s")
                self._cond.wait(min(remaining, 0.2))

    def family(self) -> list[int]:
        """This process and its live descendants."""
        pids = [self.pid]
        index = 0
        while index < len(pids):
            pids.extend(children(pids[index]))
            index += 1
        return pids

    def stop(self, timeout: float = 20.0) -> int:
        """SIGINT (graceful drain), then SIGKILL the whole family if it
        does not exit in time.  Always waits for the exit."""
        family = self.family()
        if self.popen.poll() is None:
            self.popen.send_signal(signal.SIGINT)
            try:
                self.popen.wait(timeout)
            except subprocess.TimeoutExpired:
                for pid in family:
                    _kill(pid)
                self.popen.wait(10)
        for pid in family[1:]:
            _wait_gone(pid, 5.0)
        self._reader.join(5)
        if self._log is not None:
            self._log.close()
            self._log = None
        return self.popen.returncode


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_gone(pid: int, timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while Path(f"/proc/{pid}").exists() and time.monotonic() < deadline:
        try:
            state = Path(f"/proc/{pid}/stat").read_text().split()[2]
        except (OSError, IndexError):
            return
        if state == "Z":
            return
        time.sleep(0.02)
    _kill(pid)


def children(pid: int) -> list[int]:
    found: list[int] = []
    task_dir = Path(f"/proc/{pid}/task")
    try:
        for task in task_dir.iterdir():
            text = (task / "children").read_text().split()
            found.extend(int(p) for p in text)
    except OSError:
        pass
    return found


def cmdline(pid: int) -> str:
    try:
        return Path(f"/proc/{pid}/cmdline").read_text().replace("\0", " ")
    except OSError:
        return ""


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MB."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a live process."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


# -- a tiny blocking HTTP client for probes (not for load) -----------------
class Http:
    """One keep-alive connection speaking just enough HTTP/1.1."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def request(self, method: str, path: str, body: bytes = b"",
                headers: str = "") -> tuple[int, dict[str, str], bytes]:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n{headers}"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        self.sock.sendall(head + body)
        while b"\r\n\r\n" not in self.buf:
            self._recv()
        head_bytes, _, rest = self.buf.partition(b"\r\n\r\n")
        lines = head_bytes.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        fields = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            fields[name.strip().lower()] = value.strip()
        length = int(fields.get("content-length", "0"))
        while len(rest) < length:
            self._recv()
            rest = self.buf.partition(b"\r\n\r\n")[2]
        self.buf = rest[length:]
        return status, fields, rest[:length]

    def _recv(self) -> None:
        data = self.sock.recv(1 << 20)
        if not data:
            raise ConnectionError("connection closed")
        self.buf += data

    def json(self, method: str, path: str, payload: object = None) -> tuple[int, dict]:
        body = b"" if payload is None else json.dumps(payload).encode()
        status, _, data = self.request(method, path, body)
        return status, json.loads(data) if data else {}

    def close(self) -> None:
        self.sock.close()


def http_get_json(host: str, port: int, path: str) -> dict:
    conn = Http(host, port)
    try:
        return conn.json("GET", path)[1]
    finally:
        conn.close()


def start_server(args: list[str], traced: bool = False,
                 trace_dir: Path | None = None, log: Path | None = None,
                 timeout: float = 120.0) -> tuple[Proc, int, float]:
    """Launch ``repro serve ...`` and wait for its first ready answer.

    Returns ``(proc, port, setup_seconds)`` where set-up runs from the
    launch to the first ``/healthz`` answer with status ``serving``.
    """
    proc = Proc(repro_argv(["serve", "--port", "0", *args], traced),
                trace_dir, log)
    try:
        line = proc.wait_line("serving on http://", timeout)
        port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        while True:
            try:
                health = http_get_json("127.0.0.1", port, "/healthz")
            except OSError:
                health = {}
            if health.get("status") == "serving":
                break
            if time.perf_counter() - proc.started > timeout:
                raise TimeoutError("server never reported serving")
            time.sleep(0.005)
    except BaseException:
        proc.stop()
        raise
    return proc, port, time.perf_counter() - proc.started
