"""The provenance stamp every run carries.

A context manager in the style of a simulation-metadata record: entering
it captures the host (cores, CPU affinity, load average, Python and
numpy versions, source revision) and the start time; leaving it adds
the end time, the load average after the run and the share of CPU time
stolen by the hypervisor during it.
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from pathlib import Path


def _cpu_ticks() -> list[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (user, nice, system,
    idle, iowait, irq, softirq, steal, ...)."""
    with open("/proc/stat", encoding="ascii") as handle:
        return [int(v) for v in handle.readline().split()[1:]]


def _git(root: Path, *args: str) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", *args], cwd=str(root), capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class RunStamp:
    def __init__(self, root: Path, workload: str, seed: int, seconds: int,
                 trace: bool) -> None:
        self.root = root
        self.fields: dict[str, object] = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
        }

    def __enter__(self) -> "RunStamp":
        import numpy

        sha = _git(self.root, "rev-parse", "HEAD")
        dirty = _git(self.root, "status", "--porcelain")
        self.fields.update({
            "nproc": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "loadavg_before": list(os.getloadavg()),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_sha": sha or "unknown (not a git checkout)",
            "git_dirty": None if dirty is None else bool(dirty),
            "start": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        })
        self._ticks = _cpu_ticks()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.fields["end"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        self.fields["loadavg_after"] = list(os.getloadavg())
        delta = [b - a for a, b in zip(self._ticks, _cpu_ticks())]
        # Share of the host's CPU time the hypervisor gave to others.
        self.fields["steal_frac"] = delta[7] / max(1, sum(delta)) if len(delta) > 7 else 0.0
