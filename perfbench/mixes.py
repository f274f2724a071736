"""Seeded request mixes, one per workload.

A mix is a table of request templates (raw HTTP/1.1 bytes plus the
decoded request for verification) and, per phase, a sequence of
template ids.  Everything is drawn from ``random.Random(seed)``; the
program under test only ever sees the resulting requests.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random

from repro.ec2.catalog import default_catalog

KINDS = ("on-demand", "spot")
#: Simulated seconds covered by the serving workloads' snapshot windows.
WINDOW_STARTS = (0.0, 600.0, 1200.0, 1800.0, 2400.0, 3000.0)


def http_request(path: str, payload: object) -> str:
    body = json.dumps(payload, separators=(",", ":"))
    return (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Length: {len(body.encode())}\r\n\r\n{body}"
    )


class Mix:
    """Template table plus per-phase id sequences."""

    def __init__(self) -> None:
        self.templates: list[dict] = []
        self._index: dict[str, int] = {}

    def add(self, path: str, payload: object, poll: bool = False) -> int:
        key = json.dumps([path, payload, poll], sort_keys=True)
        found = self._index.get(key)
        if found is not None:
            return found
        self.templates.append({
            "request": http_request(path, payload),
            "path": path,
            "payload": payload,
            "poll": poll,
        })
        self._index[key] = len(self.templates) - 1
        return self._index[key]

    def wire_templates(self) -> list[dict]:
        return [
            {"request": t["request"], "poll": t["poll"], "kind": kind_of(t)}
            for t in self.templates
        ]


def kind_of(template: dict) -> str:
    """A short label for latency breakdowns: the query name, or
    ``batch`` / ``poll``."""
    if template["path"] == "/batch":
        return "batch"
    if template["poll"]:
        return "poll"
    return template["payload"]["query"]


class Markets:
    """The full catalog's markets with their on-demand prices."""

    def __init__(self) -> None:
        catalog = default_catalog()
        self.ids: list[str] = []
        self.on_demand: list[float] = []
        for zone, itype, product in catalog.iter_markets():
            self.ids.append(f"{zone}/{itype}/{product}")
            self.on_demand.append(
                catalog.on_demand_price(itype, catalog.region_of_zone(zone), product)
            )
        self.regions = list(catalog.regions)


def stratified(count: int, spec: list[tuple[int, object]]) -> list[int]:
    """``count`` template ids drawn in blocks of fixed composition and
    fixed layout: each block holds ``n`` draws of every ``(n, draw)`` in
    ``spec``; every kind but the last sits at evenly spread positions
    (kinds staggered against each other) and the last kind fills the
    rest.  The same layout on every seed keeps the share and spacing of
    heavy requests constant; only their content varies."""
    size = sum(n for n, _ in spec)
    heavy = spec[:-1]
    layout: list[int] = [len(spec) - 1] * size
    taken: set[int] = set()
    ideal = sorted(
        ((j + (k + 1) / (len(heavy) + 1)) / n, k)
        for k, (n, _) in enumerate(heavy)
        for j in range(n)
    )
    for phase, k in ideal:
        pos = int(phase * size) % size
        while pos in taken:
            pos = (pos + 1) % size
        taken.add(pos)
        layout[pos] = k
    draws = [draw for _, draw in spec]
    out: list[int] = []
    while len(out) < count:
        out.extend(draws[k]() for k in layout)
    return out[:count]


def zipf_sampler(rng: random.Random, n: int, s: float = 1.1):
    """Draw ranks 0..n-1 with P(rank k) proportional to 1/(k+1)^s."""
    weights = [1.0 / (k + 1) ** s for k in range(n)]
    cumulative = list(itertools.accumulate(weights))
    total = cumulative[-1]
    return lambda: bisect.bisect_left(cumulative, rng.random() * total)


def _point(rng: random.Random, markets: Markets, i: int, continuous: bool) -> dict:
    """One point query on market ``i``: ``mean-price``, ``availability``
    or ``availability-at-bid`` in equal shares, as in the blend of
    ``benchmarks/test_server_load.py``.  ``continuous`` draws the bid
    from a continuous range and the window start from WINDOW_STARTS, so
    keys rarely repeat; otherwise every market has three keys per kind
    of query at most."""
    market = markets.ids[i]
    od = markets.on_demand[i]
    kind = rng.randrange(3)
    params: dict = {"market": market}
    if kind == 0:
        query = "mean-price"
    elif kind == 1:
        query = "availability"
        params["kind"] = rng.choice(KINDS)
    else:
        query = "availability-at-bid"
        params["bid_price"] = round(od * (rng.uniform(0.2, 1.6) if continuous else 0.5), 6)
    if continuous:
        params["start"] = rng.choice(WINDOW_STARTS)
    return {"query": query, "params": params}


#: The blend of ``benchmarks/test_server_load.py`` ("the request blend a
#: SpotOn/SpotCheck fleet would generate"): per 80 requests, two
#: rankings, one unavailability-periods scan, one rejection rate, one
#: least-unavailable choice and 75 point queries.
BLEND = {"ranking": 2, "periods": 1, "rejection": 1, "least": 1, "point": 75}


def hot_read(seed: int, markets: Markets, counts: dict[str, int]) -> tuple[Mix, dict]:
    """The blend over a hot set that fits the 1,024-entry wire cache,
    point keys Zipf-skewed, plus ``If-None-Match`` polls and ``/batch``es
    of hot keys (4 of each per 88 requests, about 5%).

    The catalog-wide members of the blend are its fixed keys (standard
    rankings per region, one periods scan, the rejection rate, one
    candidate set), so after the ``prime`` phase every answer is a
    wire-cache hit.  Assumed, with no source for key popularity: 400 hot
    markets, 640 point keys and a Zipf exponent of 1.1.  Once every key
    is cached the skew moves which entries are read, not whether they
    hit."""
    rng = random.Random(seed)
    mix = Mix()
    hot_markets = rng.sample(range(len(markets.ids)), 400)
    hot: list[int] = []
    seen: set[str] = set()
    while len(hot) < 640:
        payload = _point(rng, markets, rng.choice(hot_markets), False)
        key = json.dumps(payload, sort_keys=True)
        if key not in seen:
            seen.add(key)
            hot.append(mix.add("/query", payload))
    rankings = [
        mix.add("/query", {"query": "top-stable-markets",
                           "params": {"n": 10, "region": region}})
        for region in [None, *markets.regions]
    ]
    periods = mix.add("/query", {"query": "unavailability-periods",
                                 "params": {"kind": "on-demand"}})
    rejection = mix.add("/query", {"query": "rejection-rate", "params": {}})
    least = mix.add("/query", {"query": "least-unavailable-markets",
                               "params": {"candidates": [
                                   markets.ids[i] for i in hot_markets[:8]]}})
    polls = [
        mix.add("/query", mix.templates[t]["payload"], poll=True)
        for t in hot[:48]
    ]
    batches = []
    pick = zipf_sampler(rng, len(hot))
    for _ in range(48):
        members = [mix.templates[hot[pick()]]["payload"] for _ in range(8)]
        batches.append(mix.add("/batch", {"queries": members}))
    pick = zipf_sampler(rng, len(hot))
    spec = [
        (4, lambda: rng.choice(polls)),
        (4, lambda: rng.choice(batches)),
        (BLEND["ranking"], lambda: rng.choice(rankings)),
        (BLEND["periods"], lambda: periods),
        (BLEND["rejection"], lambda: rejection),
        (BLEND["least"], lambda: least),
        (BLEND["point"], lambda: hot[pick()]),
    ]
    # "prime" asks every single-query key once so the measured phases
    # see a warm cache (batches and polls only ever name hot keys).
    phases = {"prime": hot + rankings + [periods, rejection, least] + polls}
    for name, count in counts.items():
        phases[name] = stratified(count, spec)
    return mix, phases


def wide_scan(seed: int, markets: Markets, counts: dict[str, int]) -> tuple[Mix, dict]:
    """The blend over every market, with keys that rarely repeat: point
    queries with continuous bids and windows (a working set many times
    the cache), rankings with varied ``bid_multiple`` alternating
    between catalog-wide and one region, periods scans with continuous
    horizons alternating between catalog-wide and one market,
    least-unavailable over random candidates.  No cold ``/batch``: the
    program answers some of its ``mean-price`` members wrongly (see
    ``defects.py``), and a workload carries only requests whose answers
    verify.  The cost of a cold batch is measured on its own by the
    traced run (``server.cold_batch_ms``)."""
    rng = random.Random(seed)
    mix = Mix()
    n = len(markets.ids)

    def point() -> int:
        return mix.add("/query", _point(rng, markets, rng.randrange(n), True))

    # Whether a ranking is regional and whether a periods scan names one
    # market sets its cost several times over, so those alternate rather
    # than being drawn: every seed gets the same number of catalog-wide
    # scans, and only their parameters vary.
    ranking_scope = itertools.cycle((False, True))
    periods_scope = itertools.cycle((False, True))

    def ranking() -> int:
        params = {"n": rng.choice((5, 10, 20)),
                  "bid_multiple": round(rng.uniform(0.4, 1.6), 4)}
        if next(ranking_scope):
            params["region"] = rng.choice(markets.regions)
        return mix.add("/query", {"query": "top-stable-markets", "params": params})

    def periods() -> int:
        params = {"kind": rng.choice(KINDS),
                  "horizon": round(rng.uniform(1800.0, 5400.0), 1)}
        if next(periods_scope):
            params["market"] = markets.ids[rng.randrange(n)]
        return mix.add("/query", {"query": "unavailability-periods", "params": params})

    def rejection() -> int:
        return mix.add("/query", {"query": "rejection-rate", "params": {}})

    def least() -> int:
        candidates = [markets.ids[i] for i in rng.sample(range(n), rng.randint(8, 16))]
        return mix.add("/query", {"query": "least-unavailable-markets",
                                  "params": {"candidates": candidates,
                                             "kind": rng.choice(KINDS)}})

    blend = [
        (BLEND["ranking"], ranking), (BLEND["periods"], periods),
        (BLEND["rejection"], rejection), (BLEND["least"], least),
        (BLEND["point"], point),
    ]
    return mix, {name: stratified(count, blend) for name, count in counts.items()}
