"""Process-pool sweep runner with caching, retries, and serial fallback.

:class:`SweepRunner` executes a list of :class:`SweepTask` points and
returns their payloads in task order.  The execution strategy:

1. **Dedup** — tasks with equal task keys are simulated once and fanned
   back out (grids routinely repeat the same baseline point).
2. **Cache** — with a ``cache_dir``, completed points are read from /
   written to the on-disk :class:`~repro.parallel.cache.ResultCache`;
   a resumed or repeated sweep skips every cached point.
3. **Pool** — remaining points fan out over a
   ``concurrent.futures.ProcessPoolExecutor`` with ``jobs`` workers.
   A crashed worker (``BrokenProcessPool``) triggers a bounded number
   of pool rebuilds for the unfinished points; when retries are
   exhausted — or the pool cannot be created at all — the runner
   degrades gracefully to in-process serial execution.  ``jobs <= 1``
   runs serially from the start, with byte-identical results.
4. **Timeout** — ``task_timeout`` bounds how long the runner waits
   without *any* point completing; on such a stall the outstanding
   points are cancelled and recorded as failures (result ``None``).

Simulations are deterministic, so serial, parallel, and cached
executions of the same task yield bit-identical payloads (asserted by
``tests/test_parallel.py``).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.parallel.cache import ResultCache, ResultStore
from repro.parallel.taskkey import SweepTask
from repro.parallel.worker import run_task

WorkerFn = Callable[[SweepTask], Dict[str, Any]]

#: Environment override for the default worker count (used when a
#: driver does not pass ``jobs`` explicitly, e.g. the benchmark suite).
JOBS_ENV = "REPRO_JOBS"


def default_jobs() -> int:
    """``$REPRO_JOBS`` if set and valid, else 1 (serial)."""
    raw = os.environ.get(JOBS_ENV, "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


@dataclass
class SweepOutcome:
    """Results aligned with the input tasks, plus execution accounting."""

    results: List[Optional[Dict[str, Any]]]
    simulated: int = 0     # unique points actually simulated
    cache_hits: int = 0    # unique points served from the cache
    deduped: int = 0       # tasks folded onto another task's key
    failures: int = 0      # unique points with no result
    retries: int = 0       # pool rebuilds after worker crashes
    jobs: int = 1
    cache_misses: int = 0  # unique points the cache was asked for but lacked
    workers: int = 0       # pool workers actually engaged (1 when serial)
    rebuilds: int = 0      # worker pools rebuilt after crashes
    elapsed: float = 0.0
    errors: Dict[str, str] = field(default_factory=dict)  # key -> reason

    @property
    def points(self) -> int:
        return len(self.results)

    def summary_line(self) -> str:
        """One greppable line (CI asserts on it; keep the format stable).

        New fields go *after* ``jobs=`` — existing consumers assert on
        the prefix up to and including that field.
        """
        return (f"sweep: points={self.points} simulated={self.simulated} "
                f"cache_hits={self.cache_hits} deduped={self.deduped} "
                f"failures={self.failures} retries={self.retries} "
                f"jobs={self.jobs} cache_misses={self.cache_misses} "
                f"workers={self.workers} rebuilds={self.rebuilds} "
                f"elapsed={self.elapsed:.2f}s")


class SweepRunner:
    """Fan a grid of sweep points across a process pool; see module doc."""

    def __init__(self, jobs: Optional[int] = None,
                 cache_dir: Optional[str] = None,
                 resume: bool = True,
                 task_timeout: Optional[float] = None,
                 max_retries: int = 1,
                 worker: WorkerFn = run_task,
                 observer: Optional[Any] = None,
                 cache: Optional[ResultStore] = None):
        self.jobs = default_jobs() if jobs is None else max(1, jobs)
        #: ``cache`` injects any ResultStore backend (e.g. the service's
        #: shared store); ``cache_dir`` is the local-disk shorthand.
        if cache is not None and cache_dir is not None:
            raise ValueError("pass either cache= or cache_dir=, not both")
        self.cache: Optional[ResultStore] = (
            cache if cache is not None
            else ResultCache(cache_dir) if cache_dir else None)
        #: read cached points (writes always happen with a cache_dir)
        self.resume = resume
        self.task_timeout = task_timeout
        self.max_retries = max(0, max_retries)
        self.worker = worker
        #: optional duck-typed observer (e.g. ``repro.obs.SweepObs``):
        #: on_cache_hit/on_cache_miss/on_dispatch/on_task_done/
        #: on_task_failed/on_heartbeat/on_stall/on_rebuild, plus a
        #: ``heartbeat_interval`` (seconds) the drain loop wakes on.
        #: ``None`` keeps every call site at one identity test, and the
        #: parallel layer never imports ``repro.obs`` itself.
        self.observer = observer

    # -- public API ----------------------------------------------------------

    def run(self, tasks: List[SweepTask]) -> SweepOutcome:
        start = time.monotonic()
        outcome = SweepOutcome(results=[None] * len(tasks), jobs=self.jobs)

        # 1. dedup on task key, preserving first-seen order
        unique: Dict[str, SweepTask] = {}
        keys: List[str] = []
        for task in tasks:
            key = task.key
            keys.append(key)
            if key in unique:
                outcome.deduped += 1
            else:
                unique[key] = task

        # 2. cache reads
        observer = self.observer
        reading_cache = self.cache is not None and self.resume
        payloads: Dict[str, Dict[str, Any]] = {}
        pending: List[SweepTask] = []
        for key, task in unique.items():
            hit = self.cache.get(key) if reading_cache else None
            if hit is not None:
                payloads[key] = hit
                outcome.cache_hits += 1
                if observer is not None:
                    observer.on_cache_hit(task)
            else:
                pending.append(task)
                if reading_cache:
                    outcome.cache_misses += 1
                    if observer is not None:
                        observer.on_cache_miss(task)

        # 3. execute what's left, grouped by trace: grids arrive
        # setting-major, and a worker's trace LRU is small, so dispatching
        # in task order would regenerate a trace for almost every point.
        # The sort is stable and results fan out by key, so the order
        # changes nothing but cache affinity.
        pending.sort(key=lambda task: (task.benchmark, task.instructions))
        if pending:
            if self.jobs <= 1:
                outcome.workers = 1
                computed = self._run_serial(pending, outcome)
            else:
                outcome.workers = min(self.jobs, len(pending))
                computed = self._run_parallel(pending, outcome)
            for key, payload in computed.items():
                payloads[key] = payload
                outcome.simulated += 1
                if self.cache is not None:
                    self.cache.put(key, payload)

        # 4. fan results back out in task order; the label is a property
        # of the grid column, so cached/deduped payloads take the
        # requesting task's label.
        for i, (task, key) in enumerate(zip(tasks, keys)):
            payload = payloads.get(key)
            if payload is not None:
                outcome.results[i] = dict(payload, label=task.label)
        outcome.failures = len(unique) - len(payloads)
        outcome.elapsed = time.monotonic() - start
        return outcome

    # -- execution strategies -------------------------------------------------

    def _run_serial(self, tasks: List[SweepTask],
                    outcome: SweepOutcome) -> Dict[str, Dict[str, Any]]:
        observer = self.observer
        done: Dict[str, Dict[str, Any]] = {}
        for task in tasks:
            if observer is not None:
                observer.on_dispatch(task)
            try:
                done[task.key] = self.worker(task)
            except Exception as exc:  # deterministic failure: no retry
                reason = f"{type(exc).__name__}: {exc}"
                outcome.errors[task.key] = reason
                if observer is not None:
                    observer.on_task_failed(task, reason)
            else:
                if observer is not None:
                    observer.on_task_done(task)
        return done

    def _run_parallel(self, tasks: List[SweepTask],
                      outcome: SweepOutcome) -> Dict[str, Dict[str, Any]]:
        try:
            executor = ProcessPoolExecutor(max_workers=self.jobs)
        except Exception as exc:  # pool unavailable on this platform
            outcome.errors["__pool__"] = (f"pool unavailable, running "
                                          f"serially: {exc}")
            outcome.workers = 1
            return self._run_serial(tasks, outcome)

        done: Dict[str, Dict[str, Any]] = {}
        remaining = list(tasks)
        rebuilds = 0
        try:
            while remaining:
                crashed = self._drain_pool(executor, remaining, done, outcome)
                if not crashed:
                    break
                # A worker died; unfinished tasks may retry on a new pool.
                remaining = [t for t in remaining
                             if t.key not in done
                             and t.key not in outcome.errors]
                if not remaining:
                    break
                executor.shutdown(wait=False)
                rebuilds += 1
                outcome.retries += 1
                outcome.rebuilds += 1
                if self.observer is not None:
                    self.observer.on_rebuild(rebuilds)
                if rebuilds > self.max_retries:
                    outcome.errors["__pool__"] = (
                        f"worker pool broke {rebuilds} times; finishing "
                        f"{len(remaining)} point(s) serially")
                    done.update(self._run_serial(remaining, outcome))
                    return done
                executor = ProcessPoolExecutor(max_workers=self.jobs)
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
        return done

    def _drain_pool(self, executor: ProcessPoolExecutor,
                    tasks: List[SweepTask],
                    done: Dict[str, Dict[str, Any]],
                    outcome: SweepOutcome) -> bool:
        """Submit ``tasks`` and collect results.  Returns True when the
        pool broke (caller decides whether to rebuild).

        With an observer attached, the wait loop wakes every
        ``observer.heartbeat_interval`` seconds to report progress; the
        stall contract is unchanged — the outstanding points are
        cancelled once *no* point has completed for ``task_timeout``
        seconds (heartbeats surface the stall while it develops).
        """
        observer = self.observer
        futures: Dict[Future[Dict[str, Any]], SweepTask] = {}
        try:
            for task in tasks:
                if observer is not None:
                    observer.on_dispatch(task)
                futures[executor.submit(self.worker, task)] = task
        except BrokenProcessPool:
            return True
        quantum = self.task_timeout
        if observer is not None:
            beat = float(observer.heartbeat_interval)
            quantum = beat if quantum is None else min(beat, quantum)
        not_done = set(futures)
        last_progress = time.monotonic()
        while not_done:
            finished, not_done = wait(not_done, timeout=quantum,
                                      return_when=FIRST_COMPLETED)
            if not finished:
                waited = time.monotonic() - last_progress
                stalled_out = (self.task_timeout is not None
                               and (observer is None
                                    or waited >= self.task_timeout))
                if not stalled_out:
                    # Heartbeat wake-up, not (yet) a stall.
                    if observer is not None:
                        observer.on_heartbeat(
                            done=len(futures) - len(not_done),
                            total=len(futures),
                            inflight=len(not_done), waited=waited)
                    continue
                # No point completed within the timeout window: stall.
                stalled = [futures[fut].key for fut in not_done]
                for fut in not_done:
                    fut.cancel()
                    key = futures[fut].key
                    outcome.errors[key] = (
                        f"timeout: no completion within "
                        f"{self.task_timeout}s; point cancelled")
                if observer is not None:
                    observer.on_stall(stalled, self.task_timeout)
                return False
            last_progress = time.monotonic()
            for fut in finished:
                task = futures[fut]
                try:
                    done[task.key] = fut.result()
                except BrokenProcessPool:
                    return True
                except Exception as exc:
                    reason = f"{type(exc).__name__}: {exc}"
                    outcome.errors[task.key] = reason
                    if observer is not None:
                        observer.on_task_failed(task, reason)
                else:
                    if observer is not None:
                        observer.on_task_done(task)
        return False
