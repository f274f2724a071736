"""Answer verification against an in-process, unsharded frontend.

Served answers are compared by their ``result`` bytes (canonical
compact JSON, the program's own ``wire_encode``): the envelope's
``served_at``/``cached`` fields legitimately differ.  A ``304`` is
checked by its ETag, which a fresh frontend over the same snapshot must
mint identically (the tag hashes the answer's content).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.datastore import SnapshotDatastore
from repro.core.frontend import QueryFrontend, wire_encode
from repro.core.query import SpotLightQuery
from repro.ec2.catalog import default_catalog


def reference_frontend(snapshot: Path) -> QueryFrontend:
    datastore = SnapshotDatastore(str(snapshot), append_log=False, must_exist=True)
    frontend = QueryFrontend(SpotLightQuery(datastore, default_catalog()))
    frontend.prime()
    return frontend


def _expected(frontend: QueryFrontend, request: dict) -> bytes:
    response = frontend.handle(request)
    if not response.get("ok"):
        raise ValueError(f"reference rejected {request}: {response}")
    return wire_encode(response["result"])


def _served(body: dict) -> bytes | None:
    if not body.get("ok") or body.get("partial"):
        return None
    return wire_encode(body["result"])


def check_samples(frontend: QueryFrontend, templates: list[dict],
                  samples: list[list]) -> tuple[int, list[str]]:
    """Compare each sampled answer; returns ``(checked, mismatches)``."""
    checked = 0
    problems: list[str] = []
    for template_id, status, payload in samples:
        template = templates[template_id]
        request = template["payload"]
        checked += 1
        if status == 304:
            wire = frontend.handle_wire(request)
            if payload != wire.etag:
                problems.append(f"304 tag {payload} != {wire.etag} for {request}")
            continue
        if status != 200:
            problems.append(f"status {status} for {request}: {payload[:200]}")
            continue
        body = json.loads(payload)
        if template["path"] == "/batch":
            results = body.get("results", [])
            if len(results) != len(request["queries"]):
                problems.append(f"batch of {len(request['queries'])} got {len(results)}")
                continue
            differing = [
                sub for sub, got in zip(request["queries"], results)
                if _served(got) != _expected(frontend, sub)
            ]
            if differing:
                problems.append(
                    f"/batch: {len(differing)} of {len(results)} members "
                    f"differ from the single-query answer, e.g. {differing[0]}"
                )
            continue
        if _served(body) != _expected(frontend, request):
            problems.append(f"answer differs for {request}")
    return checked, problems

