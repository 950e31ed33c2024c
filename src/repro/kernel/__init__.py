"""Batched retire-loop kernel and sampled simulation.

``repro.kernel`` is the retire loop every exact timing pass runs on:

* :func:`~repro.kernel.columns.predecode` /
  :class:`~repro.kernel.columns.TraceColumns` — struct-of-arrays
  predecode of a trace into plain-list columns,
* :class:`~repro.kernel.batched.BatchedOoOTimingModel` — the fused
  column-batched timing + SSMT retire loop, bit-identical to the scalar
  reference loop of :class:`repro.uarch.timing.OoOTimingModel`,
* :class:`~repro.kernel.sampling.SampleSpec` /
  :func:`~repro.kernel.sampling.run_sampled` — detailed-window sampling
  with functional fast-forward and extrapolated results.

:func:`repro.uarch.timing.timing_model` picks the loop: batched unless
a caller asks for ``kernel="scalar"``, the reference the equivalence
tests compare against.
"""

from repro.kernel.batched import BatchedOoOTimingModel
from repro.kernel.columns import TraceColumns, predecode
from repro.kernel.sampling import SampleSpec, run_sampled
from repro.uarch.timing import KERNELS as KERNEL_NAMES

__all__ = [
    "BatchedOoOTimingModel",
    "KERNEL_NAMES",
    "SampleSpec",
    "TraceColumns",
    "predecode",
    "run_sampled",
]
