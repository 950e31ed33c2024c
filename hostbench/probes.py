"""Layer probes of the traced run that no workload's traffic reaches.

All of them work on one run-exact trace (the last benchmark of the mix
at run-exact's length): the heap the trace holds, a functional branch
predictor replay, the predecoded-column kernel against the scalar loop,
and the attached telemetry and observability sessions against a
detached run.  Entry points are resolved by name, so a layer a later
change removes is reported absent and its metrics are left out.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc
from typing import Any, Callable, Dict, List, Optional

from common import Sizes, median, metric


def resolve(target: str, absent: List[str]) -> Optional[Callable[..., Any]]:
    """The callable named ``"module:attr"``, or None (recorded absent)."""
    module_name, _, attr = target.partition(":")
    try:
        found = getattr(importlib.import_module(module_name), attr, None)
    except ImportError:
        found = None
    if found is None:
        absent.append(target)
    return found


def _timed(fn: Callable[[], Any]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def layer_probes(sizes: Sizes, absent: List[str]) -> Dict[str, Any]:
    from repro.branch.unit import BranchPredictorComplex
    from repro.core.ssmt import SSMTConfig, run_ssmt
    from repro.sim import Trace, run_program
    from repro.workloads import build_benchmark

    program = build_benchmark(sizes.run_mix[-1])
    n = sizes.run_instructions
    out: Dict[str, Any] = {}

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = run_program(program, max_instructions=n)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    out["sim.trace_mb"] = metric(held / 2 ** 20, "MiB")

    def replay() -> None:
        predictor = BranchPredictorComplex()
        for rec in trace.records:
            if rec.inst.is_control:
                predictor.process(rec)

    out["branch.replay_s"] = metric(_timed(replay), "s")

    def fresh() -> Trace:
        """The same records in a new trace object: the kernel memoizes
        its predecoded columns on the trace, so each timing starts cold."""
        return Trace(trace.records, name=trace.name, halted=trace.halted,
                     initial_memory=trace.initial_memory)

    predecode = resolve("repro.kernel.columns:predecode", absent)
    if predecode is not None:
        predecode(run_program(program, max_instructions=100))  # imports
        out["kernel.predecode_s"] = metric(median(
            [_timed(lambda: predecode(fresh()))
             for _ in range(sizes.probe_repeats)]), "s")

    config = SSMTConfig()
    variants: Dict[str, Callable[[], Any]] = {
        "detached": lambda: run_ssmt(trace, config)}
    if resolve("repro.kernel.batched:BatchedOoOTimingModel", absent):
        variants["batched"] = lambda: run_ssmt(fresh(), config,
                                               kernel="batched")
    telemetry = resolve("repro.telemetry:TelemetrySession", absent)
    if telemetry is not None:
        variants["telemetry"] = lambda: run_ssmt(
            trace, config, telemetry=telemetry(sample_every=2000))
    obs = resolve("repro.obs:ObsSession", absent)
    if obs is not None:
        variants["obs"] = lambda: run_ssmt(
            trace, config, telemetry=obs(sample_every=2000))
    # Interleave the variants so a slow spell of the host hits each alike.
    times: Dict[str, List[float]] = {name: [] for name in variants}
    for _ in range(sizes.probe_repeats):
        for name, fn in variants.items():
            times[name].append(_timed(fn))
    detached = median(times["detached"])
    if "batched" in times:
        batched = median(times["batched"])
        out["kernel.batched_ssmt_s"] = metric(batched, "s")
        out["kernel.loop_speedup"] = metric(detached / batched, "ratio")
    if "telemetry" in times:
        out["telemetry.attached_overhead"] = metric(
            median(times["telemetry"]) / detached, "ratio")
    if "obs" in times:
        out["obs.attached_overhead"] = metric(
            median(times["obs"]) / detached, "ratio")
    return out
