"""Tests for the batched retire-loop kernel and sampled simulation.

The contract under test (``repro.kernel``):

* predecode: the struct-of-arrays columns agree with the per-record
  attribute walk,
* batched == scalar: the fused kernel (the default loop) is
  *bit-identical* to the scalar reference loop, both at the
  ``TimingResult``/engine-report level and at the worker-payload level
  (the justification for excluding ``kernel`` from the task key),
* PRB ``insert_decoded`` == ``insert`` (the decoded-column fast path),
* sampled simulation: marked, key-distinct, within the documented error
  bound, and exact for a degenerate spec.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch.unit import BranchPredictorComplex
from repro.core.prb import PostRetirementBuffer
from repro.core.ssmt import SSMTConfig, run_ssmt
from repro.kernel import (
    BatchedOoOTimingModel,
    KERNEL_NAMES,
    SampleSpec,
    predecode,
)
from repro.kernel.columns import (
    HAS_DEST,
    HAS_EA,
    IS_COND,
    IS_CONTROL,
    IS_LOAD,
    IS_STORE,
    IS_TAKEN,
    IS_TERM,
)
from repro.parallel.taskkey import SweepTask
from repro.parallel.worker import run_task
from repro.uarch.timing import OoOTimingModel, timing_model
from repro.workloads import BENCHMARK_NAMES, benchmark_trace


def fresh_trace(name, n):
    """A trace without memoized columns (predecode caches on the trace)."""
    return benchmark_trace(name, n)


class TestPredecode:
    def test_columns_match_records(self):
        trace = fresh_trace("gcc", 4000)
        columns = predecode(trace)
        assert columns.n == len(trace.records)
        (flags, pcs, ops, dests, src1s, src2s, nsrcs, imms, eas,
         results, next_pcs) = columns.lists()
        for idx, rec in enumerate(trace.records):
            inst = rec.inst
            f = flags[idx]
            assert pcs[idx] == rec.pc
            assert bool(f & IS_CONTROL) == inst.is_control
            assert bool(f & IS_COND) == inst.is_conditional_branch
            assert bool(f & IS_TERM) == inst.is_path_terminating
            assert bool(f & IS_LOAD) == inst.is_load
            assert bool(f & IS_STORE) == inst.is_store
            assert bool(f & IS_TAKEN) == bool(rec.taken)
            assert bool(f & HAS_DEST) == (inst.dest is not None)
            assert bool(f & HAS_EA) == (rec.ea is not None)
            if inst.dest is not None:
                assert dests[idx] == inst.dest
            else:
                assert dests[idx] == -1
            assert nsrcs[idx] == len(inst.srcs)
            if inst.srcs:
                assert src1s[idx] == inst.srcs[0]
            if len(inst.srcs) > 1:
                assert src2s[idx] == inst.srcs[1]
            if rec.ea is not None:
                assert eas[idx] == rec.ea
            assert results[idx] == (rec.result or 0)
            assert next_pcs[idx] == rec.next_pc

    def test_columns_are_plain_lists(self):
        columns = predecode(fresh_trace("mcf_2k", 3000))
        assert all(type(col) is list for col in columns.lists())

    def test_predecode_is_memoized(self):
        trace = fresh_trace("gcc", 500)
        assert predecode(trace) is predecode(trace)

    def test_kernel_names(self):
        assert KERNEL_NAMES == ("scalar", "batched")


def ssmt_pair(name, n, config=None):
    """(scalar, batched) timing+report pairs for one workload."""
    trace = benchmark_trace(name, n)
    out = []
    for kernel in ("scalar", "batched"):
        result, engine = run_ssmt(trace, config,
                                  predictor=BranchPredictorComplex(),
                                  kernel=kernel)
        out.append((result.as_dict(),
                    json.loads(json.dumps(engine.report(), default=repr,
                                          sort_keys=True))))
    return out


class TestBatchedBitIdentity:
    @pytest.mark.parametrize("name", ["gcc", "go", "mcf_2k"])
    def test_ssmt_identical_timing_and_report(self, name):
        (scalar_timing, scalar_report), (batched_timing, batched_report) \
            = ssmt_pair(name, 30_000)
        assert batched_timing == scalar_timing
        assert batched_report == scalar_report

    def test_baseline_identical(self):
        trace = benchmark_trace("gcc", 20_000)
        scalar = OoOTimingModel().run(trace, BranchPredictorComplex())
        batched = BatchedOoOTimingModel().run(
            trace, BranchPredictorComplex())
        assert batched.as_dict() == scalar.as_dict()

    @given(name=st.sampled_from(sorted(BENCHMARK_NAMES)),
           n=st.integers(2_000, 8_000),
           path_n=st.integers(4, 12))
    @settings(max_examples=8, deadline=None)
    def test_property_batched_equals_scalar(self, name, n, path_n):
        config = SSMTConfig(n=path_n)
        (scalar_timing, scalar_report), (batched_timing, batched_report) \
            = ssmt_pair(name, n, config)
        assert batched_timing == scalar_timing
        assert batched_report == scalar_report

    def test_payload_identity_gcc_50k(self):
        """The acceptance bar: worker payloads (the cached artifact) are
        byte-identical scalar vs batched on the gcc/50k reference — which
        is what licenses sharing one task key across kernels."""
        scalar_task = SweepTask(kind="ssmt", benchmark="gcc",
                                instructions=50_000)
        batched_task = SweepTask(kind="ssmt", benchmark="gcc",
                                 instructions=50_000, kernel="batched")
        assert scalar_task.key == batched_task.key
        scalar_payload = run_task(scalar_task)
        batched_payload = run_task(batched_task)
        assert json.dumps(batched_payload, sort_keys=True) \
            == json.dumps(scalar_payload, sort_keys=True)

    def test_unknown_listener_falls_back_to_scalar(self):
        """A listener outside the fused engine surface still works — the
        batched model must defer to the inherited scalar loop."""

        class CountingListener:
            def __init__(self):
                self.retired = 0

            def on_retire(self, idx, rec, cycle):
                self.retired += 1

        trace = benchmark_trace("gcc", 3000)
        listener = CountingListener()
        scalar = OoOTimingModel().run(trace, BranchPredictorComplex())
        batched = BatchedOoOTimingModel().run(
            trace, BranchPredictorComplex(), listener)
        assert listener.retired == 3000
        assert batched.as_dict() == scalar.as_dict()


class TestInsertDecoded:
    @given(n=st.integers(500, 3000), capacity=st.sampled_from([16, 64, 512]))
    @settings(max_examples=10, deadline=None)
    def test_matches_insert(self, n, capacity):
        trace = benchmark_trace("gcc", n)
        reference = PostRetirementBuffer(capacity)
        decoded = PostRetirementBuffer(capacity)
        for idx, rec in enumerate(trace.records):
            inst = rec.inst
            a = reference.insert(rec, idx)
            srcs = inst.srcs
            b = decoded.insert_decoded(
                rec, idx, False, False,
                inst.dest if inst.dest is not None else -1,
                srcs[0] if srcs else -1,
                srcs[1] if len(srcs) > 1 else -1,
                len(srcs), inst.is_load, inst.is_store,
                rec.ea if rec.ea is not None else 0)
            assert (a.pos, a.src_producers, a.mem_producer) \
                == (b.pos, b.src_producers, b.mem_producer)


class TestSampled:
    def test_marked_and_key_distinct(self):
        exact = SweepTask(kind="ssmt", benchmark="gcc", instructions=20_000)
        sampled = SweepTask(kind="ssmt", benchmark="gcc",
                            instructions=20_000,
                            sample=SampleSpec(interval=5_000))
        assert sampled.key != exact.key
        payload = run_task(sampled)
        assert payload["sampled"] is True
        assert payload["sample"]["interval"] == 5_000
        assert payload["sample"]["windows"] >= 1
        assert 0 < payload["sample"]["measured_fraction"] < 1
        assert "sampled" not in run_task(exact)

    def test_degenerate_spec_is_exact(self):
        """A window covering the whole trace reproduces the exact run."""
        trace = benchmark_trace("gcc", 10_000)
        exact, _ = run_ssmt(trace, predictor=BranchPredictorComplex())
        spec = SampleSpec(interval=10_000, warmup=0, measure=10_000)
        sampled, _ = run_ssmt(trace, predictor=BranchPredictorComplex(),
                              sample=spec)
        exact_dict, sampled_dict = exact.as_dict(), sampled.as_dict()
        assert sampled.sample["scale"] == 1.0
        assert sampled_dict == exact_dict

    @pytest.mark.parametrize("name", ["gcc", "mcf_2k"])
    def test_mispredict_rate_within_error_bound(self, name):
        """docs/performance.md documents <= 20% relative error on the
        suite at interval=10k/warmup=2k; hold a looser 25% here so the
        gate does not flake on workload updates."""
        trace = benchmark_trace(name, 50_000)
        exact, _ = run_ssmt(trace, predictor=BranchPredictorComplex())
        sampled, _ = run_ssmt(trace, predictor=BranchPredictorComplex(),
                              sample=SampleSpec(interval=10_000))
        exact_rate = exact.mispredict_rate()
        sampled_rate = sampled.mispredict_rate()
        assert exact_rate > 0
        assert abs(sampled_rate - exact_rate) / exact_rate <= 0.25

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SampleSpec(interval=0)
        with pytest.raises(ValueError):
            SampleSpec(interval=100, warmup=90, measure=20)
        with pytest.raises(ValueError):
            SampleSpec(interval=100, warmup=-1)
        spec = SampleSpec(interval=1000, warmup=0)
        assert spec.measure == 100  # interval // 10

    def test_sample_only_on_baseline_and_ssmt(self):
        spec = SampleSpec(interval=10_000, warmup=100)
        with pytest.raises(ValueError):
            SweepTask(kind="oracle", benchmark="gcc", instructions=20_000,
                      sample=spec)
        with pytest.raises(ValueError):
            SweepTask(kind="ssmt", benchmark="gcc", instructions=20_000,
                      sample={"interval": 10_000})


class TestRunSsmtDispatch:
    def test_unknown_kernel_rejected(self):
        trace = benchmark_trace("gcc", 1000)
        with pytest.raises(ValueError):
            run_ssmt(trace, kernel="turbo")

    def test_timing_model_defaults_to_batched(self):
        assert type(timing_model()) is BatchedOoOTimingModel
        assert type(timing_model(kernel="scalar")) is OoOTimingModel
        assert SweepTask(benchmark="gcc", instructions=10).kernel \
            == "batched"

    def test_engine_subclass_runs_the_reference_loop(self):
        """The fused loop inlines the stock engine's retire work, so an
        engine subclass (the profile-guided StaticSSMTEngine overrides
        ``on_retire``) must get the inherited per-record loop."""
        from repro.core.static import (
            StaticSSMTEngine,
            prebuild_microthreads,
            profile_difficult_paths,
        )

        trace = benchmark_trace("comp", 20_000)
        config = SSMTConfig()
        threads = prebuild_microthreads(
            trace, profile_difficult_paths(trace, n=config.n), config)
        results = []
        for model in (OoOTimingModel(), BatchedOoOTimingModel()):
            engine = StaticSSMTEngine(threads, config,
                                      initial_memory=trace.initial_memory)
            results.append(model.run(trace, BranchPredictorComplex(),
                                     listener=engine).as_dict())
        assert results[0] == results[1]


class TestZeroCost:
    def test_default_paths_never_import_numpy(self):
        """The default baseline/ssmt worker paths are pure Python: with
        the column backends gone, nothing on them imports numpy (which
        cost ~30 MiB RSS per process)."""
        import json as json_mod
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parent.parent / "src")
        program = (
            "import sys\n"
            "from repro.parallel.taskkey import SweepTask\n"
            "from repro.parallel.worker import run_task\n"
            "run_task(SweepTask(kind='baseline', benchmark='gcc',\n"
            "                   instructions=2000))\n"
            "run_task(SweepTask(kind='ssmt', benchmark='gcc',\n"
            "                   instructions=2000))\n"
            "numpy = [m for m in sys.modules\n"
            "         if m == 'numpy' or m.startswith('numpy.')]\n"
            "batched = 'repro.kernel.batched' in sys.modules\n"
            "print(__import__('json').dumps({'numpy_modules': numpy,\n"
            "                                'batched': batched}))\n"
        )
        proc = subprocess.run([sys.executable, "-c", program],
                              capture_output=True, text=True,
                              env={"PYTHONPATH": src, "PATH": ""},
                              check=True)
        outcome = json_mod.loads(proc.stdout.strip().splitlines()[-1])
        assert outcome["numpy_modules"] == []
        assert outcome["batched"] is True
