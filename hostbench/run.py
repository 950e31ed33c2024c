"""Host-time benchmark of the simulator: run-exact, sweep-grid, serve-mixed.

Run from the root of a checkout::

    python3 hostbench/run.py --workload run-exact --seed 1 --seconds 50 --trace 0

prints progress lines and, last, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced run with
``--trace 1``).  ``--steady K`` runs K seeds of one workload and prints
each metric's median, quartiles and spread against its bound in
BENCHMARK.json; ``--smoke`` runs every workload, untraced and traced, on
tiny inputs.  See hostbench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Tuple

from common import FULL, SMOKE, Context, Op, fail, median, metric, peak_rss_mb
from probes import layer_probes
from run_exact import RunExact
from serve_mixed import ServeMixed
from sweep_grid import SweepGrid

BENCHMARK_JSON = "BENCHMARK.json"
WORKLOADS = {"run-exact": RunExact, "sweep-grid": SweepGrid,
             "serve-mixed": ServeMixed}


def log(message: str) -> None:
    print(f"hostbench: {message}", flush=True)


def timed_run(ctx: Context, name: str, seconds: int) -> Tuple[List[Op],
                                                              Dict[str, Any]]:
    """Set up, then whole rounds of operations until the next round
    would end after ``seconds``; end-to-end metrics of the untraced run."""
    workload = WORKLOADS[name](ctx)
    ops: List[Op] = []
    try:
        setup_s = workload.setup()
        start = time.perf_counter()
        round_times = []
        while True:
            began = time.perf_counter()
            ops += workload.round(traced=False)
            round_times.append(time.perf_counter() - began)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.mean(round_times) > seconds:
                break
        log(f"{name}: {len(round_times)} rounds, {len(ops)} operations in "
            f"{elapsed:.1f} s")
        workload.check(ops)
    finally:
        workload.close()
    metrics: Dict[str, Any] = {"setup_s": metric(setup_s, "s")}
    if any(op.failed is None for op in ops):
        metrics.update(workload.end_to_end(ops))
    metrics["peak_rss_mb"] = metric(peak_rss_mb(), "MiB")
    return ops, metrics


def traced_run(ctx: Context, name: str) -> Tuple[List[Op], Dict[str, Any],
                                                 List[str]]:
    """Per-layer metrics: one untraced and one traced round of ``name``,
    then one traced round of each other workload for the layers only it
    reaches, then the standalone layer probes."""
    ops: List[Op] = []
    layers: Dict[str, Any] = {}
    absent: List[str] = []
    once = Context(ctx.seed, dataclasses.replace(ctx.sizes, setup_repeats=1),
                   ctx.tmp)
    order = [name] + [other for other in WORKLOADS if other != name]
    for position, workload_name in enumerate(order):
        workload = WORKLOADS[workload_name](ctx if position == 0 else once)
        try:
            workload.setup()
            plain = workload.round(traced=False) if position == 0 else []
            traced = workload.round(traced=True)
            workload.check(plain + traced)
        finally:
            workload.close()
        ops += plain + traced
        for op in traced:
            absent += op.data.get("absent", [])
        for key, value in workload.layers(traced).items():
            layers.setdefault(key, value)
        if plain:
            good = [op.latency for op in plain if op.failed is None]
            good_traced = [op.latency for op in traced if op.failed is None]
            if good and good_traced:
                layers["bench.tracing_overhead"] = metric(
                    median(good_traced) / median(good), "ratio")
        log(f"traced {workload_name}: {len(plain) + len(traced)} operations")
    for key, value in layer_probes(ctx.sizes, absent).items():
        layers.setdefault(key, value)
    return ops, layers, sorted(set(absent))


def one_run(args: argparse.Namespace) -> int:
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    base = os.path.join(root, ".hostbench_tmp")
    os.makedirs(base, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    tempfile.tempdir = tmp
    ctx = Context(args.seed, SMOKE if args.tiny else FULL, tmp)
    try:
        if args.trace:
            ops, metrics, absent = traced_run(ctx, args.workload)
            if absent:
                log("absent layer entry points (metrics left out): "
                    + ", ".join(absent))
        else:
            ops, metrics = timed_run(ctx, args.workload, args.seconds)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    failed = [op for op in ops if op.failed is not None]
    for op in failed[:5]:
        log(f"FAILED operation: {op.failed}")
    print(json.dumps({"correct": not failed and bool(ops),
                      "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}), flush=True)
    return 0


def _run_command(workload: str, seed: int, seconds: int, trace: int,
                 tiny: bool) -> Dict[str, Any]:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _spec() -> Dict[str, Any]:
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


def steady(args: argparse.Namespace) -> int:
    """Run ``args.steady`` seeds and print each metric's spread."""
    spec = _spec()
    bounds = {m["name"]: m.get("bound") for m in
              spec["per_layer" if args.trace else "end_to_end"]}
    results = []
    for i in range(args.steady):
        seed = args.seed + i
        results.append(_run_command(args.workload, seed, args.seconds,
                                    args.trace, args.tiny))
        r = results[-1]
        log(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} "
            f"failed={r['failed']} " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in r["metrics"].items()))
    print(f"{'metric':36} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>8} {'bound':>6} {'/bound':>7}")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results
                  if name in r["metrics"]]
        if len(values) < 2:
            print(f"{name:36} (present in {len(values)} runs)")
            continue
        q1, mid, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / mid if mid else float("inf")
        share = f"{spread / bound:7.2f}" if bound else "      -"
        print(f"{name:36} {mid:11.5g} {q1:11.5g} {q3:11.5g} {spread:8.3f} "
              f"{bound if bound else '-':>6} {share}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed shares: {sorted(shares)}")
    return 0


def smoke(args: argparse.Namespace) -> int:
    """Every workload, untraced and traced, on tiny inputs; fails when a
    run is incorrect or leaves out a metric BENCHMARK.json names."""
    spec = _spec()
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = _run_command(workload, args.seed, 1, trace, tiny=True)
            names = [m["name"] for m in
                     spec["per_layer" if trace else "end_to_end"]]
            missing = [n for n in names if n not in result["metrics"]]
            status = "ok"
            if not result["correct"] or result["failed"] or missing:
                status = f"FAILED correct={result['correct']} " \
                         f"failed={result['failed']} missing={missing}"
                problems.append(f"{workload} trace={trace}")
            log(f"smoke {workload} trace={trace}: {status} "
                f"({result['attempted']} operations)")
    if problems:
        log("smoke failures: " + ", ".join(problems))
        return 1
    return 0


def main(argv: List[str]) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        fail("run from the root of a checkout: src/repro is missing")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny input sizes (the smoke check's)")
    parser.add_argument("--steady", type=int, metavar="K", default=0,
                        help="run K consecutive seeds and print spreads")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of every workload and checker")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.steady:
        return steady(args)
    return one_run(args)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
