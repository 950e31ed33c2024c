"""Golden behaviour digests: the simulator's outputs must not drift.

``tests/golden_digests.json`` holds SHA-256 digests of the functional
simulator's records (all 20 benchmarks) and of normalised ``run_task``
payloads (baseline/ssmt/oracle on six benchmarks), written by
``tools/gen_golden_digests.py``.  A change to simulation semantics must
regenerate the file and say why in ``CHANGES.md``; a performance change
must leave every digest equal.
"""

import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import gen_golden_digests as golden  # noqa: E402

COMMITTED = json.loads(golden.OUTPUT.read_text())


def test_committed_file_covers_the_reference_grid():
    from repro.workloads import BENCHMARK_NAMES

    assert COMMITTED["instructions"] == golden.INSTRUCTIONS
    assert set(COMMITTED["records"]) == set(BENCHMARK_NAMES)
    assert set(COMMITTED["payloads"]) == {
        f"{kind}/{name}" for kind in golden.PAYLOAD_KINDS
        for name in golden.PAYLOAD_BENCHMARKS}


def test_record_digests_match():
    assert golden.record_digests() == COMMITTED["records"]


@pytest.mark.parametrize("kind", golden.PAYLOAD_KINDS)
def test_payload_digests_match(kind):
    from repro.parallel import SweepTask
    from repro.parallel.worker import run_task

    for name in golden.PAYLOAD_BENCHMARKS:
        task = SweepTask(benchmark=name, instructions=golden.INSTRUCTIONS,
                         kind=kind)
        assert golden.payload_digest(run_task(task)) == \
            COMMITTED["payloads"][f"{kind}/{name}"], f"{kind}/{name}"


def test_scalar_reference_loop_matches_the_payload_digests():
    """The scalar loop stays the reference: it reproduces the digests the
    default (batched) path is pinned to."""
    from repro.parallel import SweepTask
    from repro.parallel.worker import run_task

    for kind in golden.PAYLOAD_KINDS:
        task = SweepTask(benchmark="comp", instructions=golden.INSTRUCTIONS,
                         kind=kind, kernel="scalar")
        assert golden.payload_digest(run_task(task)) == \
            COMMITTED["payloads"][f"{kind}/comp"], kind
