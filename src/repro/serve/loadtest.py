"""``repro loadtest`` — replay a seeded request mix against the service.

The harness generates a deterministic mix of grid submissions with a
configurable *overlap ratio* (the fraction of requests that repeat an
earlier grid and should therefore dedup onto an existing job), replays
it twice, and writes a ``repro.service.bench/1`` artifact:

* **cold pass** — distinct single-benchmark grids; every unique point
  is a store miss that gets simulated and written back;
* **warm pass** — *union* grids that combine the cold grids' benchmarks
  at the same instruction budget.  Their job ids are new (no job-level
  dedup) but every task key already sits in the store, so the warm pass
  measures pure content-addressed reuse.

Hit rates come from ``/v1/stats`` store-counter deltas around each
pass — API reads are counter-neutral (``ResultStore.peek``), so
the deltas are exactly the runner's cache traffic.  The harness also
re-runs one grid locally through the same ``SweepRunner`` +
``merge_sweep`` pipeline the CLI uses and asserts the served artifact is
byte-identical outside ``context`` (the end-to-end identity contract).
"""

from __future__ import annotations

import http.client
import json
import random
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from repro.parallel.runner import SweepRunner
from repro.parallel.sweep import merge_sweep
from repro.parallel.taskkey import canonical_json
from repro.schemas import schema_string
from repro.serve.gridspec import normalise_spec, spec_tasks
from repro.workloads import BENCHMARK_NAMES

#: Schema of the ``BENCH_service.json`` artifact.
SERVICE_BENCH_SCHEMA = schema_string("repro.service.bench", 1)


# -- tiny HTTP client (stdlib only; one connection per request, matching
# -- the server's Connection: close) ------------------------------------


def request(base_url: str, method: str, path: str,
            body: Optional[Dict[str, Any]] = None,
            tenant: Optional[str] = None,
            timeout: float = 120.0) -> Tuple[int, Any]:
    """One HTTP round-trip; returns ``(status, decoded-JSON-or-None)``."""
    parts = urlsplit(base_url)
    conn = http.client.HTTPConnection(parts.hostname or "127.0.0.1",
                                      parts.port or 80, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"}
        if tenant is not None:
            headers["X-Tenant"] = tenant
        payload = None if body is None else json.dumps(body)
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        raw = response.read()
    finally:
        conn.close()
    decoded = json.loads(raw.decode("utf-8")) if raw else None
    return response.status, decoded


# -- mix generation ------------------------------------------------------


def build_mix(requests_n: int, overlap: float, seed: int,
              instructions: int) -> Tuple[List[Dict[str, Any]],
                                          List[Dict[str, Any]]]:
    """The (cold, warm) request specs for one loadtest run.

    The cold mix draws from a pool of ``max(1, round(n * (1-overlap)))``
    distinct grids — each pool grid appears at least once, and the
    remaining requests are seeded repeats (the dedup traffic).  The warm
    mix is one union grid per instruction budget used by the pool, so
    every warm task is already stored after the cold pass.
    """
    if not 0.0 <= overlap < 1.0:
        raise ValueError(f"overlap must be in [0, 1), got {overlap}")
    rng = random.Random(seed)
    pool_size = max(1, round(requests_n * (1.0 - overlap)))
    pool_size = min(pool_size, requests_n)
    n_bench = len(BENCHMARK_NAMES)
    pool = [{"benchmarks": [BENCHMARK_NAMES[i % n_bench]],
             "instructions": instructions + 1000 * (i // n_bench)}
            for i in range(pool_size)]
    cold = list(pool)
    while len(cold) < requests_n:
        cold.append(rng.choice(pool))
    rng.shuffle(cold)

    by_budget: Dict[int, List[str]] = {}
    for spec in pool:
        by_budget.setdefault(spec["instructions"], []).extend(
            spec["benchmarks"])
    warm = [{"benchmarks": sorted(set(names)), "instructions": budget}
            for budget, names in sorted(by_budget.items())]
    return cold, warm


# -- replay --------------------------------------------------------------


def _run_one(base_url: str, spec: Dict[str, Any], tenant: str,
             poll_interval: float) -> Dict[str, Any]:
    """Submit one grid, poll to completion, fetch the result."""
    t0 = time.monotonic()
    status, receipt = request(base_url, "POST", "/v1/sweeps", body=spec,
                              tenant=tenant)
    submit_latency = time.monotonic() - t0
    if status not in (200, 202) or receipt is None:
        raise RuntimeError(f"submit failed: HTTP {status}: {receipt}")
    job = receipt["job"]
    while True:
        status, info = request(base_url, "GET", f"/v1/sweeps/{job}")
        if status != 200 or info is None:
            raise RuntimeError(f"status failed: HTTP {status}")
        if info["state"] != "running":
            break
        time.sleep(poll_interval)
    status, report = request(base_url, "GET", f"/v1/sweeps/{job}/result")
    if status != 200 or report is None:
        raise RuntimeError(f"result failed: HTTP {status}")
    return {
        "job": job,
        "created": receipt["created"],
        "submit_latency": submit_latency,
        "e2e_latency": time.monotonic() - t0,
        "state": info["state"],
        "points": len(report.get("points", ())),
    }


def _quantiles(samples: List[float]) -> Dict[str, float]:
    if not samples:
        return {"p50": 0.0, "p95": 0.0, "max": 0.0}
    ordered = sorted(samples)
    def at(q: float) -> float:
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
    return {"p50": round(at(0.50), 4), "p95": round(at(0.95), 4),
            "max": round(ordered[-1], 4)}


def _store_counters(base_url: str) -> Dict[str, int]:
    status, stats = request(base_url, "GET", "/v1/stats")
    if status != 200 or stats is None:
        raise RuntimeError(f"/v1/stats failed: HTTP {status}")
    return dict(stats["store"])


def _run_pass(base_url: str, specs: List[Dict[str, Any]],
              concurrency: int, tenants: int,
              poll_interval: float) -> Dict[str, Any]:
    before = _store_counters(base_url)
    t0 = time.monotonic()
    with ThreadPoolExecutor(max_workers=max(1, concurrency)) as pool:
        rows = list(pool.map(
            lambda pair: _run_one(base_url, pair[1],
                                  f"tenant-{pair[0] % max(1, tenants)}",
                                  poll_interval),
            enumerate(specs)))
    elapsed = time.monotonic() - t0
    after = _store_counters(base_url)
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    reads = hits + misses
    return {
        "requests": len(rows),
        "elapsed": round(elapsed, 3),
        "deduped_submits": sum(1 for r in rows if not r["created"]),
        "jobs": len({r["job"] for r in rows}),
        "submit_latency": _quantiles([r["submit_latency"] for r in rows]),
        "e2e_latency": _quantiles([r["e2e_latency"] for r in rows]),
        "store_hits": hits,
        "store_misses": misses,
        "hit_rate": round(hits / reads, 4) if reads else 0.0,
        "failed_jobs": sum(1 for r in rows if r["state"] != "done"),
    }


def _check_byte_identity(base_url: str,
                         spec: Dict[str, Any]) -> Dict[str, Any]:
    """Served artifact vs a local ``SweepRunner`` run of the same grid.

    Identity covers ``points``/``aggregates``/``failures`` — the
    ``context`` section intentionally carries run accounting (elapsed,
    worker counts) and is excluded, same as the CLI's own identity
    tests.
    """
    status, receipt = request(base_url, "POST", "/v1/sweeps", body=spec)
    if status not in (200, 202) or receipt is None:
        raise RuntimeError(f"identity submit failed: HTTP {status}")
    job = receipt["job"]
    while True:
        _, info = request(base_url, "GET", f"/v1/sweeps/{job}")
        if info is not None and info["state"] != "running":
            break
        time.sleep(0.05)
    _, served = request(base_url, "GET", f"/v1/sweeps/{job}/result")
    if served is None:
        raise RuntimeError("identity result fetch failed")

    tasks = spec_tasks(normalise_spec(spec))
    outcome = SweepRunner(jobs=1).run(tasks)
    local = merge_sweep(outcome.results, errors=outcome.errors)

    def essence(report: Dict[str, Any]) -> str:
        return canonical_json({"points": report["points"],
                               "aggregates": report["aggregates"],
                               "failures": report["failures"]})

    identical = essence(served) == essence(local)
    return {"job": job, "byte_identical": identical,
            "points": len(served["points"])}


# -- entry point ---------------------------------------------------------


def run_loadtest(base_url: str, requests_n: int = 12, overlap: float = 0.5,
                 concurrency: int = 4, tenants: int = 3, seed: int = 1,
                 instructions: int = 3000, poll_interval: float = 0.05,
                 out: Optional[str] = None) -> Dict[str, Any]:
    """Replay the mix against ``base_url``; return (and optionally
    write) the ``repro.service.bench/1`` report."""
    cold_specs, warm_specs = build_mix(requests_n, overlap, seed,
                                       instructions)
    cold = _run_pass(base_url, cold_specs, concurrency, tenants,
                     poll_interval)
    warm = _run_pass(base_url, warm_specs, concurrency, tenants,
                     poll_interval)
    identity = _check_byte_identity(base_url, cold_specs[0])

    report = {
        "schema": SERVICE_BENCH_SCHEMA,
        "context": {
            "base_url": base_url,
            "requests": requests_n,
            "overlap": overlap,
            "concurrency": concurrency,
            "tenants": tenants,
            "seed": seed,
            "instructions": instructions,
            "unique_grids": len({canonical_json(s) for s in cold_specs}),
            "warm_grids": len(warm_specs),
        },
        "cold": cold,
        "warm": warm,
        "identity": identity,
    }
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return report


def summary_line(report: Dict[str, Any]) -> str:
    """One greppable line (CI asserts on it; keep the format stable)."""
    cold, warm = report["cold"], report["warm"]
    return (f"loadtest: requests={cold['requests']}+{warm['requests']} "
            f"deduped={cold['deduped_submits']} "
            f"cold_hit_rate={cold['hit_rate']:.2f} "
            f"warm_hit_rate={warm['hit_rate']:.2f} "
            f"warm_hits={warm['store_hits']} "
            f"byte_identical={report['identity']['byte_identical']} "
            f"failed={cold['failed_jobs'] + warm['failed_jobs']}")
