#!/usr/bin/env python3
"""Write (or check) the golden behaviour digests in ``tests/golden_digests.json``.

Two families of SHA-256 digests pin the simulator's observable
behaviour across commits:

* ``records`` — for every suite benchmark at :data:`INSTRUCTIONS`
  instructions, a digest over each retired record's ``(seq, pc,
  opcode, src1_val, src2_val, result, ea, taken, next_pc)`` plus the
  trace's ``halted`` flag.  This pins the functional simulator.
* ``payloads`` — for :data:`PAYLOAD_KINDS` × :data:`PAYLOAD_BENCHMARKS`,
  a digest of the normalised :func:`repro.parallel.worker.run_task`
  payload (canonical JSON).  This pins the timing model, the SSMT
  engine and the payload shape, whichever retire loop computes them.

A change that alters simulation semantics must regenerate the file and
say why in ``CHANGES.md``; everything else must leave it untouched.

Usage::

    PYTHONPATH=src python tools/gen_golden_digests.py            # write
    PYTHONPATH=src python tools/gen_golden_digests.py --check    # compare
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

REPO = Path(__file__).resolve().parent.parent
OUTPUT = REPO / "tests" / "golden_digests.json"

INSTRUCTIONS = 30_000
PAYLOAD_KINDS = ("baseline", "ssmt", "oracle")
PAYLOAD_BENCHMARKS = ("comp", "mcf_2k", "li", "ijpeg", "m88ksim", "gcc")


def record_digest(trace) -> str:
    """SHA-256 over a trace's record fields and its ``halted`` flag."""
    h = hashlib.sha256()
    for rec in trace.records:
        h.update((f"{rec.seq},{rec.pc},{int(rec.inst.opcode)},"
                  f"{rec.src1_val},{rec.src2_val},{rec.result},{rec.ea},"
                  f"{rec.taken},{rec.next_pc}\n").encode("ascii"))
    h.update(f"halted={trace.halted}\n".encode("ascii"))
    return h.hexdigest()


def payload_digest(payload) -> str:
    """SHA-256 of a payload's canonical JSON."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def record_digests() -> Dict[str, str]:
    from repro.workloads import BENCHMARK_NAMES, benchmark_trace

    return {name: record_digest(benchmark_trace(name, INSTRUCTIONS))
            for name in BENCHMARK_NAMES}


def payload_digests() -> Dict[str, str]:
    from repro.parallel import SweepTask
    from repro.parallel.worker import run_task

    out = {}
    for kind in PAYLOAD_KINDS:
        for name in PAYLOAD_BENCHMARKS:
            task = SweepTask(benchmark=name, instructions=INSTRUCTIONS,
                             kind=kind)
            out[f"{kind}/{name}"] = payload_digest(run_task(task))
    return out


def render() -> Dict[str, object]:
    return {
        "instructions": INSTRUCTIONS,
        "records": record_digests(),
        "payloads": payload_digests(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed file; exit 1 "
                             "on any difference")
    args = parser.parse_args(argv)
    fresh = render()
    if args.check:
        committed = json.loads(OUTPUT.read_text())
        if committed != fresh:
            for family in ("records", "payloads"):
                for name, digest in fresh[family].items():
                    if committed.get(family, {}).get(name) != digest:
                        print(f"golden digest drift: {family}/{name}")
            return 1
        print(f"{OUTPUT.name}: all digests match")
        return 0
    OUTPUT.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
