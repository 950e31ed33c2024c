"""run-exact: one client, closed loop, ``repro run`` in a fresh interpreter.

Each operation starts ``child.py op`` for one benchmark of the mix at
100k instructions and waits for it to exit; rounds visit every mix
benchmark once, in an order drawn from the seed.  The checker derives
its reference from a trace it generates itself with
``run_program(build_benchmark(...))`` after the timed window.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import time
from typing import Any, Dict, List

from common import Context, Op, median, metric, quantile
from spans import self_times

CHILD_TIMEOUT_S = 150.0


class RunExact:
    name = "run-exact"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.sizes = ctx.sizes
        self.rng = random.Random(f"run-exact/{ctx.seed}")
        self.rounds = 0

    def setup(self) -> float:
        """Median wall time of fresh-interpreter set-ups: import, build
        every mix program, one warm-up ``repro run`` of comp."""
        times = []
        for _ in range(self.sizes.setup_repeats):
            start = time.perf_counter()
            subprocess.run(
                self.ctx.child("setup", "run-exact",
                               ",".join(self.sizes.run_mix),
                               str(self.sizes.warmup_instructions)),
                env=self.ctx.env, check=True, stdout=subprocess.DEVNULL,
                timeout=CHILD_TIMEOUT_S)
            times.append(time.perf_counter() - start)
        return median(times)

    def close(self) -> None:
        pass

    def round(self, traced: bool) -> List[Op]:
        order = list(self.sizes.run_mix)
        self.rng.shuffle(order)
        ops = []
        for name in order:
            start = time.perf_counter()
            proc = subprocess.run(
                self.ctx.child("op", name, str(self.sizes.run_instructions),
                               "1" if traced else "0"),
                env=self.ctx.env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S)
            latency = time.perf_counter() - start
            op = Op(latency=latency, cold=True, round=self.rounds,
                    data={"benchmark": name})
            if proc.returncode != 0:
                op.failed = f"exit {proc.returncode}: {proc.stderr[-300:]}"
            else:
                op.data = json.loads(proc.stdout.strip().splitlines()[-1])
            ops.append(op)
        self.rounds += 1
        return ops

    # -- checking --------------------------------------------------------------

    def check(self, ops: List[Op]) -> None:
        n = self.sizes.run_instructions
        refs = {name: reference(name, n)
                for name in sorted({op.data["benchmark"] for op in ops
                                    if op.failed is None})}
        for op in ops:
            if op.failed is None:
                op.failed = check_op(op.data, refs[op.data["benchmark"]], n)
        by_round: Dict[int, List[Op]] = {}
        for op in ops:
            by_round.setdefault(op.round, []).append(op)
        for members in by_round.values():
            ok = [op for op in members if op.failed is None]
            if len(ok) == len(members) and mix_speedup(ok) <= 1.0:
                for op in members:
                    op.failed = ("geomean SSMT speedup over the mix is "
                                 f"{mix_speedup(ok):.4f}, not above 1")

    # -- metrics ---------------------------------------------------------------

    def end_to_end(self, ops: List[Op]) -> Dict[str, Any]:
        good = [op for op in ops if op.failed is None]
        latencies = [op.latency for op in good]
        instructions = sum(op.data["base"]["instructions"]
                           + op.data["ssmt"]["instructions"] for op in good)
        return {
            "latency_p50_s": metric(median(latencies), "s"),
            "latency_p90_s": metric(quantile(latencies, 0.9), "s"),
            "cold_latency_p50_s": metric(median(latencies), "s"),
            "warm_latency_p50_s": metric(
                median([op.data["warm_s"] for op in good]), "s"),
            "sim_kips": metric(instructions / sum(latencies) / 1000.0,
                               "kinst/s"),
        }

    def layers(self, ops: List[Op]) -> Dict[str, Any]:
        """Per-layer metrics from traced operations."""
        good = [op for op in ops if op.failed is None and "spans" in op.data]
        if not good:
            return {}
        per_name: Dict[str, List[float]] = {}
        for op in good:
            for name, values in self_times(op.data["spans"]).items():
                per_name.setdefault(name, []).extend(values)
        top_level = sum(end - start for op in good
                        for _, start, end, parent in op.data["spans"]
                        if parent < 0)
        n = self.sizes.run_instructions
        out: Dict[str, Any] = {}
        simple = {"cli.import_s": "cli.import",
                  "workloads.build_s": "workloads.build",
                  "sim.trace_s": "sim.trace",
                  "uarch.baseline_s": "uarch.baseline",
                  "core.ssmt_s": "core.ssmt"}
        for metric_name, span in simple.items():
            if span in per_name:
                out[metric_name] = metric(median(per_name[span]), "s")
        if "sim.trace" in per_name:
            out["sim.trace_kips"] = metric(
                n * len(per_name["sim.trace"])
                / sum(per_name["sim.trace"]) / 1000.0, "kinst/s")
            out["sim.trace_generations_per_trace"] = metric(
                len(per_name["sim.trace"]) / len(good), "ratio")
        if "uarch.baseline" in per_name:
            out["uarch.baseline_kips"] = metric(
                n * len(per_name["uarch.baseline"])
                / sum(per_name["uarch.baseline"]) / 1000.0, "kinst/s")
            if "core.ssmt" in per_name:
                out["core.ssmt_over_baseline"] = metric(
                    sum(per_name["core.ssmt"])
                    / sum(per_name["uarch.baseline"]), "ratio")
        out["bench.traced_share"] = metric(
            top_level / sum(op.latency for op in good), "ratio")
        out.update(mechanism_counts(good))
        return out


def reference(name: str, instructions: int) -> Dict[str, int]:
    """Counts the checker trusts, taken from a trace generated here."""
    from repro.branch.unit import BranchPredictorComplex, oracle_complex
    from repro.sim import run_program
    from repro.uarch.timing import OoOTimingModel
    from repro.workloads import build_benchmark

    trace = run_program(build_benchmark(name), max_instructions=instructions)
    predictor = BranchPredictorComplex()
    conditional = indirect = mispredicts = 0
    for rec in trace.records:
        inst = rec.inst
        if not inst.is_control:
            continue
        if inst.is_conditional_branch:
            conditional += 1
        elif inst.is_indirect:
            indirect += 1
        mispredicts += predictor.process(rec).mispredicted
    oracle = OoOTimingModel().run(trace, oracle_complex())
    return {"length": len(trace), "conditional": conditional,
            "indirect": indirect, "mispredicts": mispredicts,
            "oracle_cycles": oracle.cycles}


def check_op(data: Dict[str, Any], ref: Dict[str, int],
             instructions: int):
    """The reason an operation's output is wrong, or None."""
    if ref["length"] != instructions:
        return f"reference trace has {ref['length']} instructions"
    for label in ("base", "ssmt"):
        timing = data[label]
        if timing["instructions"] != instructions:
            return f"{label} retired {timing['instructions']} instructions"
        if timing["conditional_branches"] != ref["conditional"]:
            return (f"{label} counted {timing['conditional_branches']} "
                    f"conditional branches, trace has {ref['conditional']}")
        if timing["indirect_branches"] != ref["indirect"]:
            return (f"{label} counted {timing['indirect_branches']} "
                    f"indirect branches, trace has {ref['indirect']}")
        if timing["hw_mispredicts"] != ref["mispredicts"]:
            return (f"{label} hw_mispredicts {timing['hw_mispredicts']} "
                    f"!= replay {ref['mispredicts']}")
    if ref["oracle_cycles"] > data["base"]["cycles"]:
        return (f"oracle run took {ref['oracle_cycles']} cycles, baseline "
                f"{data['base']['cycles']}")
    return None


def _speedups(ops: List[Op]) -> Dict[str, float]:
    out = {}
    for op in ops:
        base, ssmt = op.data["base"], op.data["ssmt"]
        out[op.data["benchmark"]] = ((ssmt["instructions"] / ssmt["cycles"])
                                     / (base["instructions"] / base["cycles"]))
    return out


def mix_speedup(ops: List[Op]) -> float:
    """Geomean simulated SSMT speedup over the distinct benchmarks."""
    speedups = _speedups(ops)
    return math.exp(sum(math.log(s) for s in speedups.values())
                    / len(speedups))


def mechanism_counts(ops: List[Op]) -> Dict[str, Any]:
    """Simulated counts over the distinct benchmarks of ``ops``; they
    repeat exactly, so a host-time change must leave them unchanged."""
    by_bench = {op.data["benchmark"]: op.data for op in ops}
    removed = sum(d["ssmt"]["hw_mispredicts"] - d["ssmt"]["effective_mispredicts"]
                  for d in by_bench.values())
    spawned = sum(d["spawned"] for d in by_bench.values())
    useful = sum(d["useful_arrivals"] for d in by_bench.values())
    return {
        "core.sim_speedup_geomean": metric(mix_speedup(ops), "ratio"),
        "core.mispredicts_removed": metric(removed, "count"),
        "core.routines_built": metric(
            sum(d["routines_built"] for d in by_bench.values()), "count"),
        "core.useful_spawn_ratio": metric(
            useful / spawned if spawned else 0.0, "ratio"),
    }
