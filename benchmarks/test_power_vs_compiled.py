"""Reference vs compiled simulation time for the power study hot path.

``estimate_power`` simulates 256 cycles per design point, which made the
dict-driven reference simulator the slowest loop in the repo once the
``power`` campaign landed.  This benchmark times the toggle measurement of
a 16x16 SRAG through both engines -- the reference oracle
``_reference_toggles`` against a full ``estimate_power`` -- checks the
toggle counts agree bit-for-bit, and asserts the compiled engine's >= 5x
speedup.  The reference side skips the energy sum, so the ratio slightly
understates the speedup.
"""

import time

from repro.analysis.reporting import format_table
from repro.core.addm_generator import SragAddressGenerator
from repro.synth.power import _reference_toggles, estimate_power
from repro.workloads.registry import build_pattern

CYCLES = 256


def _srag_netlist(size):
    pattern = build_pattern("motion_est_read", size, size)
    return SragAddressGenerator(pattern.to_sequence()).netlist


def _time(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_power_vs_compiled(benchmark, print_report):
    netlist = _srag_netlist(16)

    ref_s, reference = _time(
        lambda: _reference_toggles(netlist, CYCLES, "next", "reset")
    )
    cmp_s, compiled = _time(lambda: estimate_power(netlist, cycles=CYCLES))
    speedup = ref_s / cmp_s

    # Recorded pytest-benchmark stats measure one bare compiled run, so the
    # tracked number is directly comparable to ref_s above.
    benchmark.pedantic(
        lambda: estimate_power(netlist, cycles=CYCLES), rounds=3, iterations=1
    )

    print_report(
        format_table(
            ["engine", "time (ms)", "energy/access (fJ)", "toggles"],
            [
                ["reference", ref_s * 1e3, "-", sum(reference.values())],
                ["compiled", cmp_s * 1e3, compiled.energy_per_access_fj,
                 compiled.total_toggles],
                ["speedup", speedup, 1.0, 1],
            ],
            title=f"estimate_power, 16x16 SRAG, {CYCLES} cycles",
        )
    )

    # Same measurement...
    assert compiled.toggle_counts == reference
    # ...much faster.  Measured ~12x on the development machine; 5x is the
    # floor enforced here with headroom for noisy CI runners.
    assert speedup >= 5.0
