"""serve-mixed: ``repro serve`` under two closed-loop clients.

The server runs as a subprocess with its default serial dispatch, a
fresh queue directory and store.  Each round is a seeded shuffle of
cold single-benchmark grids (new (benchmark, budget) pairs), resubmitted
earlier grids, and new union grids whose points an earlier round
stored.  A request is submit, then the NDJSON ``/events`` stream read to
its end, then the merged result.  Cold and warm are known from the
generator and confirmed from the job's own events; the store counters of
``/v1/stats`` are not used (see README.md).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from common import (Context, Op, median, metric, proc_cpu_s, quantile)
from sweep_grid import check_aggregates

BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 120.0
CLIENTS = 2


def http_json(port: int, method: str, path: str,
              body: Optional[Dict[str, Any]] = None) -> Tuple[int, Any]:
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request(method, path,
                     body=None if body is None else json.dumps(body),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        raw = response.read()
    finally:
        conn.close()
    return response.status, json.loads(raw) if raw else None


def read_events(port: int, job: str):
    """Read a job's event stream to its end; returns the HTTP status,
    the events and when the settling event arrived."""
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)
    events: List[Dict[str, Any]] = []
    settled_at = None
    try:
        conn.request("GET", f"/v1/sweeps/{job}/events")
        response = conn.getresponse()
        while True:
            line = response.readline()
            if not line:
                break
            event = json.loads(line)
            events.append(event)
            if settled_at is None and event.get("ev") in ("job_done",
                                                          "job_failed"):
                settled_at = time.perf_counter()
    finally:
        conn.close()
    return response.status, events, settled_at


class Server:
    """One ``python -m repro serve`` subprocess on a kernel-chosen port."""

    def __init__(self, ctx: Context, name: str):
        queue_dir = ctx.subdir(name)
        self.log = open(os.path.join(queue_dir, "server.log"), "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--queue-dir", os.path.join(queue_dir, "queue")],
            env=ctx.env, stdout=subprocess.PIPE, stderr=self.log, text=True)
        try:
            self.port = self._await_port()
            deadline = start + BOOT_TIMEOUT_S
            while http_json(self.port, "GET", "/v1/healthz")[0] != 200:
                if time.perf_counter() > deadline:
                    raise RuntimeError("server never became healthy")
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - start

    def _await_port(self) -> int:
        line = self.proc.stdout.readline()
        marker = "listening on http://"
        if marker not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        return int(line.split(marker, 1)[1].split()[0].rsplit(":", 1)[1])

    def cpu_s(self) -> float:
        return proc_cpu_s(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class ServeMixed:
    name = "serve-mixed"

    def __init__(self, ctx: Context):
        from repro.workloads import BENCHMARK_NAMES

        self.ctx = ctx
        self.sizes = ctx.sizes
        self.rng = random.Random(f"serve-mixed/{ctx.seed}")
        self.names = list(BENCHMARK_NAMES)
        self.server: Optional[Server] = None
        self.rounds = 0
        self.cold_order: List[Tuple[str, int]] = []
        self.passes = 0
        #: completed grids: spec JSON -> job id, and stored benchmarks
        #: per instruction budget
        self.done: Dict[str, str] = {}
        self.stored: Dict[int, List[str]] = {}
        self.submitted: set = set()
        self.checked_cold: List[Dict[str, Any]] = []

    def setup(self) -> float:
        """Median server boot time, spawn to first 200 from healthz."""
        boots = []
        for i in range(self.sizes.setup_repeats):
            if self.server is not None:
                self.server.stop()
            self.server = Server(self.ctx, f"serve-{i}")
            boots.append(self.server.boot_s)
        # Store the first cold grids so the first timed round has
        # resubmissions and unions to draw from.
        ops = self._replay(self._cold_specs())
        failures = [op.failed for op in ops if op.failed]
        if failures:
            raise RuntimeError(f"serve warm-up failed: {failures[0]}")
        return median(boots)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    # -- request generation ----------------------------------------------------

    def _next_cold(self) -> Tuple[str, int]:
        if not self.cold_order:
            order = list(self.names)
            self.rng.shuffle(order)
            # a fresh budget per pass over the suite keeps every cold
            # grid distinct
            budget = self.sizes.serve_instructions + self.passes
            self.passes += 1
            self.cold_order = [(name, budget) for name in order]
        return self.cold_order.pop(0)

    def _cold_specs(self) -> List[Dict[str, Any]]:
        specs = []
        for _ in range(self.sizes.serve_round[0]):
            name, budget = self._next_cold()
            specs.append({"kind": "cold", "spec": {"benchmarks": [name],
                                                   "instructions": budget}})
        return specs

    def _union_spec(self, exclude: set) -> Optional[Dict[str, Any]]:
        budgets = sorted(b for b, names in self.stored.items()
                         if len(names) >= 2)
        for _ in range(50):
            if not budgets:
                return None
            budget = self.rng.choice(budgets)
            names = sorted(self.stored[budget])
            size = self.rng.randint(2, min(4, len(names)))
            spec = {"benchmarks": sorted(self.rng.sample(names, size)),
                    "instructions": budget}
            if (_spec_id(spec) not in self.submitted
                    and _spec_id(spec) not in exclude):
                return spec
        return None

    def _round_specs(self) -> List[Dict[str, Any]]:
        _, resubmits, unions = self.sizes.serve_round
        specs = self._cold_specs()
        done = sorted(self.done)
        for _ in range(resubmits):
            spec = json.loads(self.rng.choice(done))
            specs.append({"kind": "resubmit", "spec": spec,
                          "job": self.done[_spec_id(spec)]})
        pending = set()
        for _ in range(unions):
            spec = self._union_spec(pending)
            if spec is None:
                raise RuntimeError("no new union grid left to draw")
            pending.add(_spec_id(spec))
            specs.append({"kind": "union", "spec": spec})
        self.rng.shuffle(specs)
        return specs

    # -- replay ----------------------------------------------------------------

    def _request(self, item: Dict[str, Any]) -> Op:
        port = self.server.port
        start = time.perf_counter()
        status, receipt = http_json(port, "POST", "/v1/sweeps", item["spec"])
        received = time.perf_counter()
        data: Dict[str, Any] = dict(item, submit_s=received - start)
        op = Op(latency=0.0, cold=item["kind"] == "cold", round=self.rounds,
                data=data)
        if status not in (200, 202) or receipt is None:
            op.failed = f"submit returned HTTP {status}: {receipt}"
            return op
        job = receipt["job"]
        ev_status, events, settled_at = read_events(port, job)
        result_start = time.perf_counter()
        res_status, result = http_json(port, "GET",
                                       f"/v1/sweeps/{job}/result")
        end = time.perf_counter()
        op.latency = end - start
        data.update(receipt=receipt, events=events, result=result,
                    statuses=(status, ev_status, res_status),
                    settle_s=(settled_at or end) - received,
                    result_s=end - result_start)
        op.failed = check_request(data)
        # Keep what the metrics need, so this process does not grow with
        # the number of requests a run manages.
        del data["events"], data["result"]
        return op

    def _replay(self, items: List[Dict[str, Any]]) -> List[Op]:
        ops: List[Op] = []
        lock = threading.Lock()
        queue = list(items)
        for item in items:
            self.submitted.add(_spec_id(item["spec"]))

        def client() -> None:
            while True:
                with lock:
                    if not queue:
                        return
                    item = queue.pop(0)
                try:
                    op = self._request(item)
                except Exception as error:  # a failed request, counted
                    op = Op(latency=0.0, cold=item["kind"] == "cold",
                            round=self.rounds, data=dict(item),
                            failed=f"{type(error).__name__}: {error}")
                with lock:
                    ops.append(op)

        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for op in ops:
            if op.failed is None:
                spec = op.data["spec"]
                self.done[_spec_id(spec)] = op.data["receipt"]["job"]
                for name in spec["benchmarks"]:
                    names = self.stored.setdefault(spec["instructions"], [])
                    if name not in names:
                        names.append(name)
        self.rounds += 1
        return ops

    def round(self, traced: bool) -> List[Op]:
        items = self._round_specs()
        cpu_before = self.server.cpu_s()
        ops = self._replay(items)
        cpu = self.server.cpu_s() - cpu_before
        if traced:
            ops[0].data["server_cpu_s"] = cpu / len(ops)
            ops[0].data["normalise_s"] = normalise_times(
                [item["spec"] for item in items])
        if not self.checked_cold:
            self.checked_cold = [op.data for op in ops
                                 if op.cold and op.failed is None]
        return ops

    # -- checking --------------------------------------------------------------

    def check(self, ops: List[Op]) -> None:
        """Served points of the first timed round's cold grids must be
        byte-identical to a local serial ``run_task`` of the same keys."""
        from repro.parallel import run_task
        from repro.serve.gridspec import normalise_spec, spec_tasks

        for data in self.checked_cold:
            for task in spec_tasks(normalise_spec(data["spec"])):
                status, served = http_json(self.server.port, "GET",
                                           f"/v1/tasks/{task.key}")
                local = run_task(task)
                if status != 200 or (json.dumps(served, sort_keys=True)
                                     != json.dumps(local, sort_keys=True)):
                    for op in ops:
                        if op.data is data:
                            op.failed = (f"served point {task.key[:12]} "
                                         f"differs from local run_task")

    # -- metrics ---------------------------------------------------------------

    def end_to_end(self, ops: List[Op]) -> Dict[str, Any]:
        good = [op for op in ops if op.failed is None]
        latencies = [op.latency for op in good]
        cold = [op for op in good if op.cold]
        warm = [op.latency for op in good if not op.cold]
        instructions = sum(op.data["spec"]["instructions"]
                           * op.data["receipt"]["total_tasks"] for op in cold)
        cold_s = sum(op.latency for op in cold)
        return {
            "latency_p50_s": metric(median(latencies), "s"),
            "latency_p90_s": metric(quantile(latencies, 0.9), "s"),
            "cold_latency_p50_s": metric(
                median([op.latency for op in cold]), "s"),
            "warm_latency_p50_s": metric(median(warm), "s"),
            "sim_kips": metric(instructions / cold_s / 1000.0, "kinst/s"),
        }

    def layers(self, ops: List[Op]) -> Dict[str, Any]:
        good = [op for op in ops if op.failed is None]
        traced = [op for op in ops if "server_cpu_s" in op.data]
        if not good or not traced:
            return {}
        out = {
            "serve.submit_s": metric(
                median([op.data["submit_s"] for op in good]), "s"),
            "serve.result_s": metric(
                median([op.data["result_s"] for op in good]), "s"),
            "serve.settle_s": metric(
                median([op.data["settle_s"] for op in good if op.cold]), "s"),
            "serve.server_cpu_s": metric(traced[0].data["server_cpu_s"], "s"),
        }
        if traced[0].data["normalise_s"] is not None:
            out["serve.normalise_s"] = metric(traced[0].data["normalise_s"],
                                              "s")
        return out


def _spec_id(spec: Dict[str, Any]) -> str:
    return json.dumps(spec, sort_keys=True)


def normalise_times(specs: List[Dict[str, Any]]) -> Optional[float]:
    """Median in-process time to validate, hash and expand one request."""
    try:
        from repro.serve.gridspec import normalise_spec, spec_job_id, spec_tasks
    except ImportError:
        return None
    times = []
    for spec in specs:
        start = time.perf_counter()
        canonical = normalise_spec(spec)
        spec_job_id(canonical)
        spec_tasks(canonical)
        times.append(time.perf_counter() - start)
    return median(times)


def check_request(data: Dict[str, Any]) -> Optional[str]:
    """The reason a served request is wrong, or None."""
    statuses = data["statuses"]
    if statuses[1:] != (200, 200):
        return f"HTTP statuses {statuses}"
    receipt, result, events = data["receipt"], data["result"], data["events"]
    if result["failures"] or not any(e.get("ev") == "job_done"
                                     for e in events):
        return f"job {receipt['job']} did not settle done"
    if len(result["points"]) != receipt["grid_points"]:
        return (f"result has {len(result['points'])} points, grid has "
                f"{receipt['grid_points']}")
    kinds = [e.get("ev") for e in events]
    tasks = receipt["total_tasks"]
    if data["kind"] == "resubmit":
        if receipt["created"] or receipt["job"] != data["job"]:
            return (f"resubmission got job {receipt['job']} "
                    f"(created={receipt['created']}), expected {data['job']}")
    elif not receipt["created"]:
        return "a new grid attached to an existing job"
    elif data["kind"] == "cold":
        if kinds.count("dispatch") != tasks or "cache_hit" in kinds:
            return f"cold grid events show {kinds.count('cache_hit')} hits"
    elif kinds.count("cache_hit") != tasks or "dispatch" in kinds:
        return f"union grid events show {kinds.count('dispatch')} dispatches"
    return check_aggregates(result["points"], result["aggregates"])
