"""sweep-grid: ``repro sweep`` over a setting-major grid, cold then warm.

Each operation builds the grid with ``build_grid`` (benchmark order
drawn from the seed), runs it through ``SweepRunner(jobs=2)`` into a
fresh disk ``ResultCache`` (cold), then re-runs it against the same
store several times (warm, all hits).  Every sweep is merged with
``merge_sweep`` and written out, as ``repro sweep --out`` does.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import subprocess
import time
from typing import Any, Dict, List

from common import Context, Op, median, metric, quantile
from spans import Tracer

JOBS = 2

#: layer entry points wrapped inside pool workers
WORKER_SHIMS = (
    ("repro.workloads.suite:run_program", "sim.trace"),
    ("repro.workloads.suite:build_benchmark", "workloads.build"),
    ("repro.uarch.timing:OoOTimingModel.run", "uarch.timing"),
    ("repro.parallel.worker:run_ssmt", "core.ssmt"),
)
#: layer entry points wrapped in the sweeping process
MAIN_SHIMS = (
    ("repro.parallel.cache:ResultCache.get", "parallel.store_get"),
    ("repro.parallel.cache:ResultCache.put", "parallel.store_put"),
    ("repro.parallel.taskkey:task_key", "parallel.task_key"),
    ("repro.parallel.sweep:merge_sweep", "parallel.merge"),
)

_worker_tracer = None


def traced_task(task, span_dir: str) -> Dict[str, Any]:
    """Pool worker: ``run_task`` under layer shims; each task's spans are
    appended to a per-worker file once the task is done."""
    global _worker_tracer
    from repro.parallel.worker import run_task

    if _worker_tracer is None:
        _worker_tracer = Tracer()
        for target, name in WORKER_SHIMS:
            _worker_tracer.wrap(target, name)
    tracer = _worker_tracer
    tracer.clear()
    payload = tracer.call("parallel.task", run_task, task)
    with open(os.path.join(span_dir, f"{os.getpid()}.jsonl"), "a") as out:
        out.write(json.dumps({"benchmark": task.benchmark,
                              "spans": tracer.spans}) + "\n")
    return payload


class SweepGrid:
    name = "sweep-grid"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.sizes = ctx.sizes
        self.rng = random.Random(f"sweep-grid/{ctx.seed}")
        self.rounds = 0

    def setup(self) -> float:
        """Median wall time of fresh-interpreter set-ups: import and one
        small cold + warm sweep through a two-worker pool."""
        times = []
        for i in range(self.sizes.setup_repeats):
            store = self.ctx.subdir(f"sweep-setup-{i}")
            start = time.perf_counter()
            subprocess.run(
                self.ctx.child("setup", "sweep-grid",
                               ",".join(self.sizes.sweep_benchmarks[:2]),
                               str(self.sizes.warmup_instructions // 4),
                               store),
                env=self.ctx.env, check=True, stdout=subprocess.DEVNULL,
                timeout=150)
            times.append(time.perf_counter() - start)
        import repro.parallel  # noqa: F401  the sweeping process's import
        return median(times)

    def close(self) -> None:
        pass

    def _sweep(self, tasks, store: str, out_path: str, **runner_kwargs):
        import repro.parallel.sweep as sweep
        from repro.parallel import SweepRunner

        start = time.perf_counter()
        outcome = SweepRunner(jobs=JOBS, cache_dir=store,
                              **runner_kwargs).run(tasks)
        merged = sweep.merge_sweep(outcome.results, context={
            "simulated": outcome.simulated,
            "cache_hits": outcome.cache_hits})
        with open(out_path, "w") as handle:
            json.dump(merged, handle, sort_keys=True)
        return time.perf_counter() - start, outcome, merged

    def round(self, traced: bool) -> List[Op]:
        from repro.parallel import build_grid
        from repro.workloads import clear_trace_cache

        benchmarks = list(self.sizes.sweep_benchmarks)
        self.rng.shuffle(benchmarks)
        tasks = build_grid(benchmarks, self.sizes.sweep_instructions,
                           knob="n", values=list(self.sizes.sweep_values))
        work = self.ctx.subdir(f"sweep-{self.rounds}")
        store = os.path.join(work, "store")
        out_path = os.path.join(work, "sweep.json")
        # Pool workers fork from this process: start them without the
        # programs or traces an earlier operation left in its caches.
        clear_trace_cache()
        tracer = Tracer() if traced else None
        runner_kwargs: Dict[str, Any] = {}
        if tracer is not None:
            span_dir = self.ctx.subdir(f"sweep-{self.rounds}-spans")
            runner_kwargs["worker"] = functools.partial(traced_task,
                                                        span_dir=span_dir)
            for target, name in MAIN_SHIMS:
                tracer.wrap(target, name)
        try:
            cold_s, cold, merged = self._sweep(tasks, store, out_path,
                                               **runner_kwargs)
            cold_totals = tracer.totals() if tracer else {}
            warm = []
            for _ in range(self.sizes.sweep_warm_reruns):
                if tracer is not None:
                    tracer.clear()
                warm_s, outcome, warm_merged = self._sweep(tasks, store,
                                                           out_path)
                warm.append({"latency": warm_s, "outcome": outcome,
                             "merged": warm_merged,
                             "totals": tracer.totals() if tracer else {}})
        finally:
            if tracer is not None:
                tracer.restore()
        failed = check_sweep(tasks, cold, merged, warm)
        # Keep only what the metrics need: the payloads of every sweep
        # would make this process's peak resident set grow with the
        # number of operations a run manages.
        data = {"cold_s": cold_s, "warm_s": [w["latency"] for w in warm],
                "simulated": cold.simulated,
                "traces": len({(t.benchmark, t.instructions) for t in tasks})}
        if tracer is not None:
            data.update(worker_spans=_read_spans(span_dir),
                        absent=tracer.absent, cold_totals=cold_totals,
                        warm_totals=[w["totals"] for w in warm])
        op = Op(latency=cold_s + sum(data["warm_s"]), cold=True,
                round=self.rounds, data=data, failed=failed)
        self.rounds += 1
        return [op]

    def check(self, ops: List[Op]) -> None:
        """Each operation is checked as its round ends (``check_sweep``)."""

    # -- metrics ---------------------------------------------------------------

    def end_to_end(self, ops: List[Op]) -> Dict[str, Any]:
        good = [op for op in ops if op.failed is None]
        latencies = [op.latency for op in good]
        cold = [op.data["cold_s"] for op in good]
        warm = [w for op in good for w in op.data["warm_s"]]
        instructions = sum(self.sizes.sweep_instructions
                           * op.data["simulated"] for op in good)
        return {
            "latency_p50_s": metric(median(latencies), "s"),
            "latency_p90_s": metric(quantile(latencies, 0.9), "s"),
            "cold_latency_p50_s": metric(median(cold), "s"),
            "warm_latency_p50_s": metric(median(warm), "s"),
            "sim_kips": metric(instructions / sum(cold) / 1000.0, "kinst/s"),
        }

    def layers(self, ops: List[Op]) -> Dict[str, Any]:
        good = [op for op in ops
                if op.failed is None and "worker_spans" in op.data]
        if not good:
            return {}
        data = good[0].data
        task_s, trace_s, generations = [], 0.0, 0
        for record in data["worker_spans"]:
            for name, start, end, parent in record["spans"]:
                if name == "parallel.task":
                    task_s.append(end - start)
                elif name == "sim.trace":
                    trace_s += end - start
                    generations += 1
        warm_totals = data["warm_totals"]

        def warm_median(span: str) -> float:
            return median([t.get(span, 0.0) for t in warm_totals])

        return {
            "sim.trace_generations_per_trace": metric(
                generations / data["traces"], "ratio"),
            "parallel.task_s": metric(median(task_s), "s"),
            "parallel.task_trace_share": metric(
                trace_s / sum(task_s), "ratio"),
            "parallel.worker_busy_ratio": metric(
                sum(task_s) / (JOBS * data["cold_s"]), "ratio"),
            "parallel.store_put_s": metric(
                data["cold_totals"].get("parallel.store_put", 0.0), "s"),
            "parallel.store_get_s": metric(
                warm_median("parallel.store_get"), "s"),
            "parallel.task_key_s": metric(
                warm_median("parallel.task_key"), "s"),
            "parallel.merge_s": metric(warm_median("parallel.merge"), "s"),
        }


def _read_spans(span_dir: str) -> List[Dict[str, Any]]:
    records = []
    for name in sorted(os.listdir(span_dir)):
        with open(os.path.join(span_dir, name)) as handle:
            records.extend(json.loads(line) for line in handle)
    return records


def check_sweep(tasks, cold, merged, warm) -> Any:
    """The reason a cold + warm sweep's output is wrong, or None."""
    unique = {task.key for task in tasks}
    if cold.failures or cold.simulated != len(unique):
        return (f"cold sweep simulated {cold.simulated} of {len(unique)} "
                f"points with {cold.failures} failures")
    for task, payload in zip(tasks, cold.results):
        if payload is None or payload["task_key"] != task.key:
            return f"payload for {task.label}/{task.benchmark} has the wrong task_key"
    cold_bytes = [json.dumps(p, sort_keys=True) for p in cold.results]
    for rerun in warm:
        outcome = rerun["outcome"]
        if outcome.simulated or outcome.failures:
            return f"warm sweep simulated {outcome.simulated} points"
        if [json.dumps(p, sort_keys=True)
                for p in outcome.results] != cold_bytes:
            return "warm payloads differ from cold ones"
        if rerun["merged"]["aggregates"] != merged["aggregates"]:
            return "warm aggregates differ from cold ones"
    return check_aggregates(cold.results, merged["aggregates"])


def check_aggregates(points, aggregates) -> Any:
    """Recompute per-label speedups from the point payloads: IPC over the
    matching baseline's IPC, then mean and geomean with ``math``."""
    baselines = {}
    for p in points:
        if p["kind"] == "baseline":
            key = (p["benchmark"], json.dumps(p["machine"], sort_keys=True),
                   p["instructions"])
            baselines[key] = p["timing"]["instructions"] / p["timing"]["cycles"]
    per_label: Dict[str, Dict[str, float]] = {}
    for p in points:
        if p["kind"] == "baseline":
            continue
        key = (p["benchmark"], json.dumps(p["machine"], sort_keys=True),
               p["instructions"])
        ipc = p["timing"]["instructions"] / p["timing"]["cycles"]
        per_label.setdefault(p["label"], {})[p["benchmark"]] = \
            ipc / baselines[key]
    if sorted(per_label) != sorted(aggregates):
        return f"aggregate labels {sorted(aggregates)} != {sorted(per_label)}"
    for label, speedups in per_label.items():
        values = list(speedups.values())
        mean = sum(values) / len(values)
        geo = math.exp(sum(math.log(v) for v in values) / len(values))
        agg = aggregates[label]
        if (abs(agg["mean_speedup"] - mean) > 2e-6
                or abs(agg["geomean_speedup"] - geo) > 2e-6):
            return (f"{label}: merged mean/geomean {agg['mean_speedup']}/"
                    f"{agg['geomean_speedup']} != recomputed {mean:.6f}/"
                    f"{geo:.6f}")
        for bench, value in speedups.items():
            if abs(agg["per_benchmark"].get(bench, -1.0) - value) > 2e-6:
                return f"{label}/{bench}: merged speedup differs"
    return None
