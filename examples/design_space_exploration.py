#!/usr/bin/env python3
"""Design-space exploration: choosing an address generator per workload.

The paper's stated end goal is an explorer that "can explore the vast design
space opened up by address decoder decoupling ... and choose the best
architecture".  This example runs that exploration for three workloads
(DCT column pass, zoom-by-two, motion-estimation block read), prints every
applicable architecture with its area/delay, marks the Pareto-optimal points,
and shows what happens for a sequence the SRAG cannot implement (a
serpentine scan), where the mapper rejects it and the relaxed multi-counter
extension takes over.

Run with::

    python examples/design_space_exploration.py
"""

from repro.analysis.explorer import describe_design_space, explore
from repro.core.mapper import map_sequence
from repro.core.mapping_params import MappingError
from repro.core.multi_counter import GeneralisedSragModel, map_sequence_relaxed
from repro.workloads import patterns


def main() -> None:
    workloads = {
        "dct column pass (8x8)": "dct",
        "zoom by two (8x8)": "zoombytwo",
        "motion estimation read (8x8)": "motion_est_read",
    }
    for label, workload in workloads.items():
        print(f"### {label}")
        print(describe_design_space(explore(workload, 8, 8)))
        print()

    # A pattern outside the SRAG's reach: the serpentine (boustrophedon) scan.
    serpentine = patterns.serpentine_sequence(4, 4)
    print("### serpentine scan (4x4) -- outside the strict SRAG's restrictions")
    try:
        map_sequence(serpentine.col_sequence, num_lines=4)
    except MappingError as error:
        print(f"strict mapper: {error}")

    # An unequal-repetition sequence handled by the relaxed architecture.
    irregular = [5, 5, 5, 1, 1, 4, 4, 0, 0, 3, 3, 7, 7, 6, 6, 2, 2]
    print()
    print("### unequal repetition counts -- handled by the multi-counter extension")
    try:
        map_sequence(irregular, num_lines=8)
    except MappingError as error:
        print(f"strict mapper: {error}")
    parameters = map_sequence_relaxed(irregular, num_lines=8)
    regenerated = GeneralisedSragModel(parameters).run(len(irregular))
    print(f"relaxed mapping registers: {parameters.registers}")
    print(f"relaxed division counts:   {parameters.division_counts}")
    print(f"regenerates the sequence:  {regenerated == irregular}")


if __name__ == "__main__":
    main()
