"""Record the expected output digests the benchmark checks against.

Run once, from the root of a checkout, on the commit whose outputs are the
reference::

    python3 perfbench/record_expected.py

It evaluates every point of every workload universe serially and writes
``perfbench/expected.json``: the VHDL digest and synthesis area/delay of
each ``generate-verify`` point, and the digest of the normalised
``EvalRecord`` (cached form, ``duration_s`` zeroed) of each campaign job.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import drivers, inputs
    from repro.core.sradgen import generate
    from repro.engine.runner import evaluate_job
    from repro.workloads.registry import build_pattern

    generate_points = {}
    for (workload, _), geometries in sorted(inputs.generate_universe().items()):
        for rows, cols in geometries:
            result = generate(
                build_pattern(workload, rows, cols).to_sequence(),
                synthesize=True,
                verify=True,
            )
            generate_points[f"{workload}/{rows}x{cols}"] = {
                "vhdl_sha256": drivers.vhdl_digest(result.vhdl),
                "area_cells": result.synthesis.area_cells,
                "delay_ns": result.synthesis.delay_ns,
            }
    plans = inputs.cold_universe() + inputs.warm_universe()
    records = {}
    for plan, job in zip(plans, drivers.build_jobs(plans)):
        record = evaluate_job(job)
        if record.status == "error":
            raise RuntimeError(f"{inputs.job_label(plan)}: {record.note}")
        records[inputs.job_label(plan)] = drivers.record_digest(record)
    path = Path(__file__).resolve().parent / "expected.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"generate": generate_points, "records": dict(sorted(records.items()))},
            handle,
            indent=1,
            sort_keys=True,
        )
        handle.write("\n")
    print(f"wrote {len(generate_points)} generate points and {len(records)} records to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
