#!/usr/bin/env python3
"""The SpotLight benchmark: one command, two workloads.

    python3 perfbench/run.py --workload hot_read --seed 1 --seconds 25 --trace 0

Each run builds its inputs from ``--seed``, launches real ``python -m
repro`` processes from this checkout's ``src/``, drives them with the
open-loop generator (``loadgen.py``, its own process), verifies a seeded
sample of the answers against an in-process unsharded frontend, and
prints one JSON object as its last stdout line: the end-to-end metrics
with ``--trace 0``, the per-layer metrics (``layers.py``) with
``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("hot_read", "wide_scan")
#: Simulated hours of full-catalog study behind the serving workloads.
DATASET_HOURS = 3.0
#: Set-up is repeated this many times per run; the median is reported.
SETUPS = 5
#: Connections the generator opens: at most one per core.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: Fixed offered rates of the ``nominal`` phases, requests/second: a
#: fifth to a quarter of the ``saturate`` throughput on a 2-core host,
#: so a host whose speed drifts by a quarter does not push the phase
#: into queueing.
NOMINAL_RATE = {"hot_read": 1200.0, "wide_scan": 160.0}
#: Requests drawn per second of the ``saturate`` phase: well above
#: capacity, so no part of the phase runs out of fresh requests (a
#: part that did would repeat its keys and read the cache).
SATURATE_DRAWS = {"hot_read": 20000, "wide_scan": 4000}
#: Rate of ``hot_read``'s ``prime`` phase, which asks every hot key once.
PRIME_RATE = 1000.0
#: Requests in flight per connection in the ``saturate`` phase.
SATURATE_WINDOW = {"hot_read": 64, "wide_scan": 16}
#: Share of ``--seconds`` given to each phase.
PHASE_SHARES = {"warmup": 0.1, "nominal": 0.6, "saturate": 0.3}
#: The measured phases are run in this many alternating parts (nominal,
#: saturate, nominal, ...), so a drift of the host's speed during a run
#: lands on both alike.  Each metric is taken over all parts of its phase.
PARTS = 6
#: A run whose generator sent nominal-phase requests later than this
#: (99th percentile) did not keep its schedule and is invalid.
LATE_LIMIT_MS = 25.0


class Run:
    """State of one benchmark run: arguments, work dir, tallies."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        # The traced run reports no set-up time, so it sets up once.
        self.setups = 1 if args.trace else SETUPS
        run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
        self.work = HERE / "_work" / run_id
        self.logs = self.work / "logs"
        self.logs.mkdir(parents=True, exist_ok=True)
        self.results_path = HERE / "_results" / f"{run_id}.json"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.details: dict[str, object] = {}
        self.tail = ""
        self.trace_dir = self.work / "spans"

    @property
    def pass_name(self) -> str:
        return "traced" if self.trace else "plain"

    # -- the generator ------------------------------------------------------
    def generate(self, port: int, mix, phases: list[dict], tag: str,
                 tally: bool = True) -> dict:
        """Run the generator process on a plan and tally its sends and
        failures (``tally=False``: a harness check, not load on the
        program)."""
        plan = {
            "host": "127.0.0.1",
            "port": port,
            "connections": CONNECTIONS,
            "templates": mix.wire_templates(),
            "phases": phases,
            "sample_every": 25,
            "sample_seed": self.seed,
        }
        plan_path = self.work / f"plan-{tag}.json"
        out_path = self.work / f"gen-{tag}.json"
        plan_path.write_text(json.dumps(plan))
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "loadgen.py"), str(plan_path), str(out_path)]
        )
        try:
            code = proc.wait(170)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
        if code != 0:
            raise RuntimeError(f"generator {tag} exited {code}")
        result = json.loads(out_path.read_text())
        if not tally:
            return result
        for phase in result["phases"]:
            self.attempted += phase["sent"]
            self.failed += phase["errors"]
            if phase["errors"]:
                self.problems.append(
                    f"{tag}/{phase['name']}: {phase['errors']} failed "
                    f"(statuses {phase['statuses']})"
                )
        self.details.setdefault("generator", []).append(
            {k: v for k, v in result.items() if k != "samples"}
        )
        return result

    def phase_seconds(self) -> dict[str, float]:
        return {name: share * self.seconds for name, share in PHASE_SHARES.items()}

    def check_schedule(self, phase: dict) -> float:
        """The generator's lateness in a scheduled phase; a run that fell
        behind is invalid."""
        late, blocked = phase["late_p99_ms"], phase["blocked"]
        if late > LATE_LIMIT_MS or blocked:
            raise InvalidRun(
                f"generator fell behind its schedule: p99 lateness "
                f"{late:.2f} ms (limit {LATE_LIMIT_MS}), {blocked} blocked sends"
            )
        return late

    def verify(self, frontend, mix, result: dict) -> None:
        import verify

        checked, problems = verify.check_samples(frontend, mix.templates, result["samples"])
        self.details.setdefault("verified", 0)
        self.details["verified"] += checked
        self.failed += len(problems)
        self.problems.extend(problems[:20])


class InvalidRun(Exception):
    """The harness, not the program, failed to do what it measures."""


# -- workloads ----------------------------------------------------------------
def serving_workload(run: Run) -> dict[str, float]:
    """Build a snapshot, set up the serving tier several times, warm it
    up, then alternate parts of the ``nominal`` and ``saturate`` phases."""
    import deploy
    import ingest
    import mixes
    import verify

    snapshot = run.work / f"snapshot-{run.pass_name}"
    build = ingest.build_dataset(snapshot, run.seed, DATASET_HOURS, run.logs,
                                 traced=run.trace, trace_dir=run.trace_dir)
    run.details["snapshot"] = snapshot
    run.details["dataset"] = build
    serve_args = ["--snapshot", str(snapshot), "--rate", "1e9", "--burst", "1e9"]
    if run.workload == "wide_scan":
        serve_args += ["--shards", "2"]
    setups = []
    proc = None
    for k in range(run.setups):
        last = k == run.setups - 1
        proc, port, setup = deploy.start_server(
            serve_args, traced=run.trace and last, trace_dir=run.trace_dir,
            log=run.logs / f"serve{k}.log",
        )
        setups.append(setup)
        if not last:
            proc.stop()
    try:
        shares = run.phase_seconds()
        rate = NOMINAL_RATE[run.workload]
        counts = {
            "warmup": int(shares["warmup"] * rate),
            "nominal": int(shares["nominal"] * rate),
            "saturate": int(shares["saturate"] * SATURATE_DRAWS[run.workload]),
        }
        builder = mixes.hot_read if run.workload == "hot_read" else mixes.wide_scan
        mix, ids = builder(run.seed, mixes.Markets(), counts)
        warm = [{"name": "warmup", "rate": rate, "ids": ids["warmup"],
                 "window": 1 << 20, "drain": True}]
        if "prime" in ids:
            warm.insert(0, {"name": "prime", "rate": PRIME_RATE, "ids": ids["prime"],
                            "window": 1 << 20, "drain": True})
        warmed = run.generate(port, mix, warm, "warmup")

        def part_of(name: str, part: int) -> list[int]:
            size = len(ids[name]) // PARTS
            return ids[name][part * size:(part + 1) * size]

        measured = []
        for part in range(PARTS):
            measured += [
                {"name": "nominal", "rate": rate, "window": 1 << 20, "drain": True,
                 "ids": part_of("nominal", part)},
                {"name": "saturate", "rate": 0.0, "ids": part_of("saturate", part),
                 "duration": shares["saturate"] / PARTS, "drain": True,
                 "window": SATURATE_WINDOW[run.workload]},
            ]
        family = proc.family()
        run.details["stats_after_warmup"] = deploy.http_get_json(
            "127.0.0.1", port, "/stats")
        cpu0 = {pid: deploy.cpu_seconds(pid) for pid in family}
        result = run.generate(port, mix, measured, "measured")
        cpu = {pid: deploy.cpu_seconds(pid) - cpu0[pid] for pid in family}
        rss = {pid: deploy.peak_rss_mb(pid) for pid in family}
        stats = deploy.http_get_json("127.0.0.1", port, "/stats")
    finally:
        proc.stop()
    run.details.update({"cpu_s": cpu, "rss_mb": rss, "stats": stats,
                        "setups_s": setups})
    phases = {phase["name"]: phase for phase in result["phases"]}
    run.check_schedule(phases["nominal"])
    frontend = verify.reference_frontend(snapshot)
    run.verify(frontend, mix, warmed)
    run.verify(frontend, mix, result)
    return {
        "setup_s": statistics.median(setups),
        "p50_ms": phases["nominal"]["p50_ms"],
        "throughput_rps": phases["saturate"]["throughput_rps"],
        "rss_mb": max(rss.values()),
        "_nominal": phases["nominal"],
        "_saturate": phases["saturate"],
    }


E2E_UNITS = {
    "setup_s": "s", "p50_ms": "ms", "throughput_rps": "1/s", "rss_mb": "MB",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import provenance

    run = Run(args)
    try:
        with provenance.RunStamp(ROOT, args.workload, args.seed, args.seconds,
                                 run.trace) as stamp:
            if run.trace:
                import layers

                metrics = layers.traced_run(run, serving_workload)
            else:
                raw = serving_workload(run)
                metrics = {
                    name: {"value": raw[name], "unit": unit}
                    for name, unit in E2E_UNITS.items()
                }
                nominal = raw["_nominal"]
                run.tail = " ".join(
                    f"{q} {nominal[f'{q}_ms']:.4g} ms" for q in ("p90", "p95", "p99"))
    except InvalidRun as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    record = {
        "provenance": stamp.fields,
        "metrics": metrics,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "details": run.details,
    }
    run.results_path.parent.mkdir(parents=True, exist_ok=True)
    run.results_path.write_text(json.dumps(record, indent=1, default=str))
    print("provenance: " + json.dumps(stamp.fields, sort_keys=True))
    for problem in run.problems:
        print(f"problem: {problem}")
    fail_frac = run.failed / max(1, run.attempted)
    print(f"fail_frac: {fail_frac:.6f} ({run.failed} of {run.attempted})")
    if run.tail:
        print(f"nominal tail (not a bounded metric): {run.tail}")
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
