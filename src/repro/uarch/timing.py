"""Dependency-driven out-of-order timing engine.

Processes a retirement trace once, in order, computing for every dynamic
instruction its fetch, dispatch, issue, completion and retirement cycles
under the configured machine (width limits, window occupancy, shared
issue slots, cache latencies, misprediction redirects).

SSMT hooks
----------
A *listener* (see :class:`~repro.core.ssmt.SSMTEngine`) may be attached.
The engine calls, when present:

``on_run_start(model, trace)``
    once before the first fetch — lets the listener bind run-scoped
    state (the live result, caches, predictor) for telemetry.
``on_fetch(idx, rec, fetch_cycle, engine)``
    at the fetch of every instruction — the spawn hook.
``lookup_prediction(idx, rec, fetch_cycle)``
    for every conditional/indirect branch; returns a
    :class:`PredictionEntry` (microthread prediction with its arrival
    cycle) or ``None``.
``on_prediction_outcome(idx, rec, kind, used, correct, hw_mispredict)``
    classification feedback: ``kind`` is ``early``, ``late_useful``,
    ``late_harmful``, ``late_agree`` or ``useless``.
``on_retire(idx, rec, retire_cycle)``
    at in-order retirement (drives the Path Cache, PRB, promotion, ...).
``on_run_end(result, model)``
    once after the last retirement — flush points for interval samplers
    and lifecycle tracers.

During a run the in-progress totals are readable at
:attr:`OoOTimingModel.result` (the same object that is returned), so
attached telemetry can compute windowed rates mid-run.

Microthread instructions consume the same issue slots as the primary
thread via :meth:`OoOTimingModel.alloc_issue_slot` — that is how
microthread overhead (paper §5.3's third bar) arises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.branch.unit import BranchOutcome, BranchPredictorComplex
from repro.isa.instructions import Opcode
from repro.sim.trace import Trace
from repro.uarch.caches import CacheHierarchy, CacheStats
from repro.uarch.config import MachineConfig, TABLE3_BASELINE


@dataclass
class PredictionEntry:
    """A microthread prediction as seen by the front-end."""

    __slots__ = ("taken", "target", "arrival_cycle")

    taken: bool
    target: int
    arrival_cycle: int


@dataclass
class TimingResult:
    """Cycle counts and event statistics for one timing run."""

    name: str
    instructions: int = 0
    cycles: int = 0
    # hardware-predictor outcomes (before microthread involvement)
    hw_mispredicts: int = 0
    # effective outcomes after microthread predictions are applied
    effective_mispredicts: int = 0
    early_recoveries: int = 0
    prediction_kinds: Dict[str, int] = field(default_factory=dict)
    btb_bubbles: int = 0
    cache: Optional[CacheStats] = None
    conditional_branches: int = 0
    indirect_branches: int = 0
    #: sampling metadata when the run was sampled (:mod:`repro.kernel.
    #: sampling`); ``None`` for exact runs.  Deliberately excluded from
    #: :meth:`as_dict` — the sweep worker marks sampled payloads
    #: explicitly so exact-mode payload layouts stay bit-identical.
    sample: Optional[Dict[str, object]] = None

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def mispredict_rate(self) -> float:
        total = self.conditional_branches + self.indirect_branches
        return self.effective_mispredicts / total if total else 0.0

    def as_dict(self, include_cache: bool = True) -> Dict[str, object]:
        """Uniform export (telemetry collector surface)."""
        out: Dict[str, object] = {
            "instructions": self.instructions,
            "cycles": self.cycles,
            "ipc": round(self.ipc, 6),
            "hw_mispredicts": self.hw_mispredicts,
            "effective_mispredicts": self.effective_mispredicts,
            "mispredict_rate": round(self.mispredict_rate(), 6),
            "early_recoveries": self.early_recoveries,
            "btb_bubbles": self.btb_bubbles,
            "conditional_branches": self.conditional_branches,
            "indirect_branches": self.indirect_branches,
            "prediction_kinds": dict(self.prediction_kinds),
        }
        if include_cache and self.cache is not None:
            out["cache"] = self.cache.as_dict()
        return out


_MEM_OPS = (Opcode.LD, Opcode.ST)


class OoOTimingModel:
    """One-pass timing model; see module docstring."""

    def __init__(self, config: MachineConfig = TABLE3_BASELINE):
        self.config = config
        self.caches = CacheHierarchy(config)
        self._slot_used: Dict[int, int] = {}
        self.reg_ready: List[int] = [0] * 32
        self._frontend_debt = 0
        #: the in-progress result of the current run (live view for
        #: attached telemetry); the same object :meth:`run` returns
        self.result: Optional[TimingResult] = None
        #: the predictor of the current run (telemetry collector)
        self.predictor: Optional[BranchPredictorComplex] = None

    def add_frontend_debt(self, instructions: int) -> None:
        """Charge microthread instructions against the shared decode/rename
        bandwidth (SSMT microthreads are injected into the same 16-wide
        rename pipeline as the primary thread).  Microthreads may claim at
        most half the width per cycle, modelling the arbitration that lets
        them use spare slots preferentially."""
        self._frontend_debt += instructions

    # -- services shared with the SSMT listener ------------------------------

    def alloc_issue_slot(self, earliest: int) -> int:
        """Claim one of the ``issue_width`` shared slots at or after
        ``earliest``; returns the cycle granted."""
        width = self.config.issue_width
        slots = self._slot_used
        t = earliest
        while slots.get(t, 0) >= width:
            t += 1
        slots[t] = slots.get(t, 0) + 1
        return t

    def op_latency(self, op: Opcode) -> int:
        if op == Opcode.MUL:
            return self.config.mul_latency
        return self.config.int_latency

    # -- main loop ------------------------------------------------------------

    def run(self, trace: Trace, predictor: BranchPredictorComplex,
            listener=None) -> TimingResult:
        cfg = self.config
        result = TimingResult(name=trace.name, cache=self.caches.stats)
        self.result = result
        self.predictor = predictor
        reg_ready = self.reg_ready
        caches = self.caches
        alloc_issue_slot = self.alloc_issue_slot
        load_latency = caches.load_latency
        frontend = cfg.frontend_depth
        redirect = cfg.redirect_after_resolve
        window = cfg.window_size
        fetch_width = cfg.fetch_width
        taken_limit = cfg.fetch_taken_limit
        retire_width = cfg.retire_width

        on_run_start = getattr(listener, "on_run_start", None)
        on_run_end = getattr(listener, "on_run_end", None)
        on_fetch = getattr(listener, "on_fetch", None)
        lookup_prediction = getattr(listener, "lookup_prediction", None)
        on_outcome = getattr(listener, "on_prediction_outcome", None)
        on_retire = getattr(listener, "on_retire", None)
        on_control = getattr(listener, "on_control", None)
        on_timed = getattr(listener, "on_timed", None)

        # fetch cursor state
        fetch_cycle = 0
        fetched_this_cycle = 0
        taken_this_cycle = 0
        uops_this_cycle = 0  # microthread instructions renamed this cycle
        fetch_barrier = 0  # earliest cycle the next fetch may occur

        # in-order retirement state
        retire_ring: List[int] = [0] * window
        last_retire = 0
        retired_in_cycle = 0

        last_store_complete: Dict[int, int] = {}
        prev_was_taken = False

        if on_run_start is not None:
            on_run_start(self, trace)

        for idx, rec in enumerate(trace.records):
            # ---- fetch ------------------------------------------------------
            if fetch_barrier > fetch_cycle:
                fetch_cycle = fetch_barrier
                fetched_this_cycle = 0
                taken_this_cycle = 0
                uops_this_cycle = 0
            if fetched_this_cycle >= fetch_width or taken_this_cycle >= taken_limit:
                fetch_cycle += 1
                fetched_this_cycle = 0
                taken_this_cycle = 0
                uops_this_cycle = 0
            while self._frontend_debt > 0:
                room = min(fetch_width // 2 - uops_this_cycle,
                           fetch_width - fetched_this_cycle)
                if room <= 0:
                    fetch_cycle += 1
                    fetched_this_cycle = 0
                    taken_this_cycle = 0
                    uops_this_cycle = 0
                    continue
                claim = min(self._frontend_debt, room)
                self._frontend_debt -= claim
                fetched_this_cycle += claim
                uops_this_cycle += claim
            fetched_this_cycle += 1
            if prev_was_taken:
                taken_this_cycle += 1

            if on_fetch is not None:
                on_fetch(idx, rec, fetch_cycle, self)

            # ---- dispatch (window occupancy) ---------------------------------
            dispatch = fetch_cycle + frontend
            slot_index = idx % window
            if idx >= window and retire_ring[slot_index] > dispatch:
                dispatch = retire_ring[slot_index]

            # ---- issue ---------------------------------------------------------
            inst = rec.inst
            ready = dispatch
            for src in inst.srcs:
                t = reg_ready[src]
                if t > ready:
                    ready = t
            op = inst.opcode
            if op == Opcode.LD:
                t = last_store_complete.get(rec.ea, 0)
                if t > ready:
                    ready = t
                issue = alloc_issue_slot(ready)
                complete = issue + load_latency(rec.ea, issue)
            elif op == Opcode.ST:
                issue = alloc_issue_slot(ready)
                caches.store(rec.ea)
                complete = issue + cfg.store_latency
                last_store_complete[rec.ea] = complete
            elif op == Opcode.MUL:
                issue = alloc_issue_slot(ready)
                complete = issue + cfg.mul_latency
            else:
                issue = alloc_issue_slot(ready)
                complete = issue + cfg.int_latency

            dest = inst.dest
            if dest is not None:
                reg_ready[dest] = complete

            # ---- control resolution -----------------------------------------
            prev_was_taken = False
            if inst.is_control:
                prev_was_taken = rec.taken
                outcome = predictor.process(rec)
                resolve = complete
                if on_control is not None:
                    on_control(idx, rec, outcome, fetch_cycle, resolve)
                effective_mis, recovery, bubble = self._resolve_control(
                    idx, rec, outcome, fetch_cycle, resolve, result,
                    lookup_prediction, on_outcome,
                )
                if inst.is_conditional_branch:
                    result.conditional_branches += 1
                elif inst.is_indirect:
                    result.indirect_branches += 1
                if outcome.mispredicted:
                    result.hw_mispredicts += 1
                if effective_mis:
                    result.effective_mispredicts += 1
                    fetch_barrier = max(fetch_barrier, recovery + redirect)
                elif bubble:
                    result.btb_bubbles += 1
                    fetch_barrier = max(fetch_barrier,
                                        fetch_cycle + cfg.btb_miss_bubble)

            # ---- retire --------------------------------------------------------
            rc = complete if complete > last_retire else last_retire
            if rc == last_retire:
                retired_in_cycle += 1
                if retired_in_cycle > retire_width:
                    rc += 1
                    retired_in_cycle = 1
            else:
                retired_in_cycle = 1
            last_retire = rc
            retire_ring[slot_index] = rc

            if on_retire is not None:
                on_retire(idx, rec, rc)
            if on_timed is not None:
                on_timed(idx, rec, fetch_cycle, dispatch, issue, complete, rc)

        result.instructions = len(trace.records)
        result.cycles = last_retire + 1
        if on_run_end is not None:
            on_run_end(result, self)
        return result

    # -- control handling -------------------------------------------------------

    def _resolve_control(self, idx, rec, outcome: BranchOutcome, fetch_cycle,
                         resolve, result, lookup_prediction, on_outcome):
        """Combine the hardware prediction with any microthread prediction.

        Returns ``(effective_mispredict, recovery_cycle, btb_bubble)``.
        """
        inst = rec.inst
        hw_mis = outcome.mispredicted
        bubble = outcome.btb_miss and outcome.predicted_taken and not hw_mis

        predictable = inst.is_path_terminating
        entry = None
        if predictable and lookup_prediction is not None:
            entry = lookup_prediction(idx, rec, fetch_cycle)
        if entry is None:
            return hw_mis, resolve, bubble

        if inst.is_conditional_branch:
            ut_correct = entry.taken == rec.taken
            disagrees = entry.taken != outcome.predicted_taken
        else:  # indirect
            ut_correct = entry.target == rec.next_pc
            disagrees = entry.target != outcome.predicted_target

        arrival = entry.arrival_cycle
        if arrival <= fetch_cycle:
            # Early: the microthread prediction replaces the hardware one.
            kind = "early"
            effective_mis = not ut_correct
            recovery = resolve
            bubble = False
        elif arrival <= resolve:
            # Late: only matters if it disagrees with the prediction in use
            # (the machine assumes the microthread is more accurate).
            if not disagrees:
                kind = "late_agree"
                effective_mis = hw_mis
                recovery = resolve
            elif ut_correct:
                kind = "late_useful"
                effective_mis = True  # flush happens, but earlier
                recovery = arrival
                result.early_recoveries += 1
            else:
                kind = "late_harmful"
                effective_mis = True
                recovery = resolve
        else:
            kind = "useless"
            effective_mis = hw_mis
            recovery = resolve

        result.prediction_kinds[kind] = result.prediction_kinds.get(kind, 0) + 1
        if on_outcome is not None:
            on_outcome(idx, rec, kind, arrival <= fetch_cycle, ut_correct, hw_mis)
        return effective_mis, recovery, bubble


#: retire-loop implementations :func:`timing_model` builds
KERNELS = ("scalar", "batched")


def timing_model(machine: MachineConfig = TABLE3_BASELINE,
                 kernel: str = "batched") -> OoOTimingModel:
    """The timing model an exact pass runs on.

    ``"batched"`` (the default) is the predecoded-column loop of
    :class:`repro.kernel.batched.BatchedOoOTimingModel`: it fuses the
    stock :class:`~repro.core.ssmt.SSMTEngine` into the loop and hands
    any other listener to the inherited per-record loop.  ``"scalar"`` is
    that per-record loop itself, the reference the equivalence tests
    compare against.  Both produce bit-identical results.
    """
    if kernel == "batched":
        from repro.kernel.batched import BatchedOoOTimingModel

        return BatchedOoOTimingModel(machine)
    if kernel == "scalar":
        return OoOTimingModel(machine)
    raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
