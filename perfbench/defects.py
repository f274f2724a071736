#!/usr/bin/env python3
"""Known program defects that the benchmark's workloads leave out.

The benchmark only sends requests whose answers it can verify as
correct, so a request kind that the program answers wrongly is not part
of any workload until the program is fixed.  This script shows each such
defect on the benchmark's own dataset and exits 1 while any still
reproduces (0 once all are fixed, which is the cue to put the request
kind back into its workload).

    python3 perfbench/defects.py [--seed N]

* ``stacked-mean-price``: a ``/batch`` of cold ``mean-price`` queries is
  answered by the stacked kernel (``QueryFrontend.stacked_wire`` ->
  ``SpotLightQuery.point_stats_batch``), which sums in another order
  than the single-query path (``SpotLightQuery.mean_price``).  Some
  answers then differ in the last bits of the float, breaking the
  program's promise that a batch is byte-identical to the same queries
  sent singly.  ``wide_scan`` sent such batches in its warm-up; it sends
  none until this is fixed.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Queries in the batch; ``/batch`` accepts at most 256.
BATCH = 256


def stacked_mean_price(snapshot: Path, seed: int) -> tuple[int, str]:
    """Batch vs single ``mean-price`` answers; returns how many differ
    and one example."""
    import mixes
    import verify
    from repro.core.frontend import wire_encode

    markets = mixes.Markets()
    rng = random.Random(seed)
    queries = [
        {"query": "mean-price",
         "params": {"market": markets.ids[i], "start": rng.choice(mixes.WINDOW_STARTS)}}
        for i in rng.sample(range(len(markets.ids)), BATCH)
    ]
    batched = json.loads(verify.reference_frontend(snapshot).handle_wire_batch(queries))
    single = verify.reference_frontend(snapshot)
    differing = []
    for query, got in zip(queries, batched["results"]):
        served = wire_encode(got["result"]).decode()
        want = wire_encode(single.handle(query)["result"]).decode()
        if served != want:
            differing.append(f"{query['params']}: batch {served}, single {want}")
    return len(differing), differing[0] if differing else ""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: no program to check (src/repro is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import ingest
    import run as bench

    work = HERE / "_work" / f"defects-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ingest.build_dataset(work / "snapshot", args.seed, bench.DATASET_HOURS)
        count, example = stacked_mean_price(work / "snapshot", args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if count:
        print(f"stacked-mean-price: REPRODUCES, {count} of {BATCH} batch answers "
              f"differ from the single-query answer, e.g. {example}")
        return 1
    print(f"stacked-mean-price: fixed, all {BATCH} batch answers match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
