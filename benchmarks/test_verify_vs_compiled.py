"""Reference vs compiled simulation time for the generate-verify check.

``generate(sequence)`` checks, by gate-level simulation, that the elaborated
SRAG reproduces its sequence cycle by cycle before emitting anything; that
check was most of the default ``sradgen --workload ... --report`` path while
it ran on the reference simulator.  This benchmark runs the same structural
check of a 32x32 ``dct`` SRAG through :func:`repro.hdl.compiled.sample_outputs`
and through the same loop on the reference ``Simulator``, checks the samples
agree, and asserts the compiled engine's >= 5x speedup.
"""

import time

from repro.analysis.reporting import format_table
from repro.core.addm_generator import SragAddressGenerator
from repro.hdl.compiled import sample_outputs
from repro.hdl.simulator import Simulator
from repro.workloads.registry import build_pattern

SIZE = 32


def _reference_samples(netlist, cycles, decode, **stimulus):
    """The sampling loop of ``sample_outputs`` on the reference engine."""
    sim = Simulator(netlist)
    sim.reset()
    for port, value in stimulus.items():
        sim.poke(port, value)
    samples = []
    for _ in range(cycles):
        sim.settle()
        samples.append(decode(sim))
        sim.step()
    return samples


def _time(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_verify_vs_compiled(benchmark, print_report):
    sequence = build_pattern("dct", SIZE, SIZE).to_sequence()
    generator = SragAddressGenerator.from_sequence(sequence)
    netlist = generator.netlist
    cycles = sequence.length

    def address(sim):
        row = sim.peek_onehot(generator.row_ports.select_lines)
        col = sim.peek_onehot(generator.col_ports.select_lines)
        return row * generator.cols + col

    ref_s, reference = _time(
        lambda: _reference_samples(netlist, cycles, address, next=1)
    )
    cmp_s, compiled = _time(lambda: sample_outputs(netlist, cycles, address, next=1))
    speedup = ref_s / cmp_s

    # Recorded pytest-benchmark stats measure one bare compiled run, so the
    # tracked number is directly comparable to ref_s above.
    benchmark.pedantic(
        lambda: sample_outputs(netlist, cycles, address, next=1),
        rounds=3,
        iterations=1,
    )

    print_report(
        format_table(
            ["engine", "time (ms)", "cycles"],
            [
                ["reference", ref_s * 1e3, cycles],
                ["compiled", cmp_s * 1e3, cycles],
                ["speedup", speedup, 1],
            ],
            title=f"structural verify, {SIZE}x{SIZE} dct SRAG",
        )
    )

    # Same samples, and they are the sequence...
    assert compiled == reference == list(sequence.linear)
    # ...much faster.  Measured ~14x on a 2-vCPU VM; 5x is the floor
    # enforced here with headroom for noisy CI runners.
    assert speedup >= 5.0
