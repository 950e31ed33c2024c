"""Shared pieces of the host-time benchmark: sizes, the run context,
statistics and memory readings."""

from __future__ import annotations

import dataclasses
import os
import resource
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: Benchmarks of the run-exact mix and of the sweep grid: mechanism-active
#: (comp, mcf_2k, ijpeg) and nearly inert (li, m88ksim, gcc) programs.
MIX = ("comp", "mcf_2k", "li", "ijpeg", "m88ksim", "gcc")


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload; ``SMOKE`` shrinks them for a quick
    self-check of the workloads and checkers."""

    run_instructions: int = 100_000
    run_mix: Tuple[str, ...] = MIX
    #: set-up warm-up operation: one short ``repro run`` of comp
    warmup_instructions: int = 20_000
    sweep_instructions: int = 30_000
    sweep_benchmarks: Tuple[str, ...] = ("comp", "mcf_2k", "li", "gcc")
    sweep_values: Tuple[int, ...] = (4, 10, 16)
    #: warm re-runs of the grid after each cold sweep
    sweep_warm_reruns: int = 10
    serve_instructions: int = 5_000
    #: requests per serve round: cold grids, resubmissions, new unions
    serve_round: Tuple[int, int, int] = (6, 9, 9)
    setup_repeats: int = 3
    #: repetitions of each attached/detached and scalar/batched probe
    probe_repeats: int = 3


FULL = Sizes()
SMOKE = Sizes(run_instructions=20_000, run_mix=("comp", "li"),
              warmup_instructions=2_000, sweep_instructions=3_000,
              sweep_benchmarks=("comp", "li"), sweep_values=(4,),
              sweep_warm_reruns=1, serve_instructions=2_000,
              serve_round=(2, 1, 1), setup_repeats=1, probe_repeats=1)


def repo_root() -> str:
    """The checkout root: the benchmark runs from it."""
    return os.getcwd()


@dataclasses.dataclass
class Context:
    """What every workload of one benchmark run shares."""

    seed: int
    sizes: Sizes
    tmp: str  # fresh per run, inside the checkout, removed at the end

    def __post_init__(self) -> None:
        self.env = child_env(self.tmp)

    def subdir(self, name: str) -> str:
        path = os.path.join(self.tmp, name)
        os.makedirs(path, exist_ok=True)
        return path

    def child(self, *args: str) -> List[str]:
        return [sys.executable, os.path.join(BENCH_DIR, "child.py"),
                *args]


@dataclasses.dataclass
class Op:
    """One timed operation and what its checker concluded."""

    latency: float
    cold: bool
    round: int
    data: Dict[str, Any]
    failed: Optional[str] = None  # the reason, when a check failed


def child_env(tmp: str) -> Dict[str, str]:
    """Environment of every process the benchmark starts: the package
    from this checkout, a fixed hash seed, temp files in the run's
    directory and serial sweeps unless a workload asks for workers."""
    env = dict(os.environ)
    src = os.path.join(repo_root(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = tmp
    env.pop("REPRO_JOBS", None)
    return env


# -- statistics --------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of ``values``."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (pos - low))


# -- memory ------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Largest resident set of this process and of every child it has
    waited for (``ru_maxrss`` is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, from /proc."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def fail(message: str, code: int = 2) -> None:
    print(f"hostbench: {message}", file=sys.stderr)
    raise SystemExit(code)


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}
