#!/usr/bin/env python3
"""Checks of the benchmark itself, not of the program:

* the dataset builder is deterministic: two builds from one seed are
  byte-identical (same content digest over every snapshot file);
* the load generator's own ceiling, against a trivial echo server, is
  well above every rate the workloads offer.

    python3 perfbench/selftest.py [--seed N]

Exits non-zero if either check fails.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: no program to measure (src/repro is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import ingest
    import layers
    import mixes
    import run as bench

    work = HERE / "_work" / f"selftest-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ok = True
    try:
        digests = []
        for attempt in range(2):
            built = ingest.build_dataset(
                work / f"build{attempt}", args.seed, bench.DATASET_HOURS
            )
            digests.append(built["digest"])
            print(f"build {attempt}: {built['markets']} markets, "
                  f"{built['prices']} prices, {built['probes']} probes, "
                  f"{built['bytes']} bytes, digest {built['digest'][:16]}")
        if digests[0] != digests[1]:
            print("FAIL: two builds from one seed differ")
            ok = False
        else:
            print("ok: two builds from one seed are byte-identical")

        state = bench.Run(argparse.Namespace(
            workload="hot_read", seed=args.seed, seconds=15, trace=0))
        ceiling = layers.generator_ceiling(state, mixes.Markets())
        highest = max(bench.NOMINAL_RATE.values())
        print(f"generator ceiling {ceiling:.0f} req/s; highest scheduled "
              f"rate {highest:.0f} req/s")
        if ceiling < 2 * highest:
            print("FAIL: the generator's ceiling is under twice the highest rate")
            ok = False
        else:
            print("ok: the generator's ceiling is over twice the highest rate")
        shutil.rmtree(state.work, ignore_errors=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
