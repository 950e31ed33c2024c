"""Fresh-interpreter child of the benchmark.

``child.py op <benchmark> <instructions> <traced>`` performs one
run-exact operation: the work of ``repro run <benchmark> --instructions
N`` with default flags, through the same public functions ``cmd_run``
calls (import, program build, trace generation, baseline timing, SSMT,
report).  It prints one JSON line with the simulated statistics the
parent checks, the time after the trace existed, and, when traced, the
layer spans.

``child.py setup run-exact <mix> <instructions>`` and ``child.py setup
sweep-grid <benchmarks> <instructions> <store-dir>`` perform one
set-up of those workloads (see README.md).
"""

from __future__ import annotations

import os
import sys
import time

from spans import Tracer

#: layer entry points the traced operation wraps, by name
OP_SHIMS = (
    ("repro.workloads.suite:build_benchmark", "workloads.build"),
    ("repro.workloads.suite:run_program", "sim.trace"),
    ("repro.cli:baseline_run", "uarch.baseline"),
    ("repro.cli:run_ssmt", "core.ssmt"),
    ("repro.cli:format_table", "cli.report"),
)


def _timing(result) -> dict:
    return {field: getattr(result, field) for field in (
        "instructions", "cycles", "hw_mispredicts", "effective_mispredicts",
        "conditional_branches", "indirect_branches")}


def _parse(cli, argv):
    return cli.build_parser().parse_args(argv)


def run_op(benchmark: str, instructions: int, tracer=None) -> dict:
    start = time.perf_counter()
    import repro.cli as cli
    imported = time.perf_counter()
    if tracer is not None:
        tracer.spans.append(("cli.import", start, imported, -1))
        for target, name in OP_SHIMS:
            tracer.wrap(target, name)
    argv = ["run", benchmark, "--instructions", str(instructions)]
    if tracer is not None:
        args = tracer.call("cli.parse", _parse, cli, argv)
    else:
        args = _parse(cli, argv)
    if args.benchmark not in cli.BENCHMARK_NAMES:
        raise SystemExit(f"unknown benchmark {args.benchmark!r}")
    trace = cli.benchmark_trace(args.benchmark, args.instructions)
    traced_at = time.perf_counter()
    base = cli.baseline_run(trace)
    config = cli.SSMTConfig(n=args.n, difficulty_threshold=args.threshold,
                            pruning=not args.no_pruning)
    result, engine = cli.run_ssmt(trace, config, kernel=args.kernel)
    table = cli.format_table(
        ["configuration", "IPC", "mispredicts", "speed-up"],
        [["baseline", round(base.ipc, 3), base.effective_mispredicts, 1.0],
         ["dynamic SSMT", round(result.ipc, 3), result.effective_mispredicts,
          round(result.ipc / base.ipc, 3)]],
        title=f"{args.benchmark} ({args.instructions} instructions)")
    with open(os.devnull, "w") as sink:
        sink.write(table + "\n")
    done = time.perf_counter()
    kinds = engine.prediction_kind_counts
    return {
        "benchmark": args.benchmark,
        "warm_s": done - traced_at,
        "base": _timing(base),
        "ssmt": _timing(result),
        "routines_built": engine.builder.stats.built,
        "spawned": engine.spawner.stats.spawned,
        "useful_arrivals": kinds.get("early", 0) + kinds.get("late_useful", 0),
    }


def setup_run_exact(mix: str, instructions: int) -> None:
    import repro.cli as cli

    for name in mix.split(","):
        cli.build_benchmark(name)
    run_op("comp", instructions)


def setup_sweep_grid(benchmarks: str, instructions: int,
                     store_dir: str) -> None:
    from repro.parallel import SweepRunner, build_grid, merge_sweep

    tasks = build_grid(benchmarks.split(","), instructions, knob="n",
                       values=[10])
    for _ in range(2):  # cold, then warm
        outcome = SweepRunner(jobs=2, cache_dir=store_dir).run(tasks)
        merge_sweep(outcome.results)
        if outcome.failures:
            raise SystemExit(f"set-up sweep failed: {outcome.errors}")


def main(argv) -> int:
    mode = argv[0]
    if mode == "op":
        tracer = Tracer() if argv[3] == "1" else None
        out = run_op(argv[1], int(argv[2]), tracer)
        if tracer is not None:
            out["spans"] = tracer.spans
            out["absent"] = tracer.absent
        import json

        print(json.dumps(out), flush=True)
    elif mode == "setup" and argv[1] == "run-exact":
        setup_run_exact(argv[2], int(argv[3]))
    elif mode == "setup" and argv[1] == "sweep-grid":
        setup_sweep_grid(argv[2], int(argv[3]), argv[4])
    else:
        raise SystemExit(f"child: unknown mode {argv!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
